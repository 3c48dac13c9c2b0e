"""RPA002 — capability consistency.

The capability flags on :class:`repro.api.AlgorithmDescriptor` are routing
decisions: ``checkpointable`` sends live hub streams through
``snapshot()``/``restore()``, ``batched`` sends SoA blocks through
``push_block_steps`` (the one block method sessions, the hub and the
pyramid drive, via ``iter_block_steps``), ``pyramid`` sends a finer level's
segments through the ``push_segment`` re-ingest hook, and a
``streaming_factory`` at all promises ``push`` and ``finish``.  A flag whose
methods do not exist fails deep inside a fleet run or a checkpoint, not at
registration — or, for ``batched``, silently takes the per-point fallback.
This rule statically follows ``streaming_factory=`` from each
``register_algorithm``/``AlgorithmDescriptor`` call to the class it
instantiates (directly, or via a helper function's return annotation) and
checks the promised methods are actually defined.  Factories it cannot
resolve are skipped, never guessed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import ClassInfo, ModuleInfo, ProjectIndex
from ..findings import Finding
from ..registry import Rule, register_rule

__all__ = ["CapabilityConsistencyRule"]

_REGISTRATION_CALLS = ("register_algorithm", "AlgorithmDescriptor")

#: flag -> methods its simplifier class must define.
FLAG_REQUIREMENTS: dict[str, tuple[str, ...]] = {
    "checkpointable": ("snapshot", "restore"),
    "batched": ("push_block_steps",),
    "pyramid": ("push_segment",),
}

#: Any streaming factory at all promises the push/finish protocol.
STREAMING_METHODS = ("push", "finish")


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_true(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _algorithm_name(call: ast.Call) -> str:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    for keyword in call.keywords:
        if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            if isinstance(value, str):
                return value
    return "<anonymous>"


@register_rule
class CapabilityConsistencyRule(Rule):
    rule_id = "RPA002"
    name = "capability-consistency"
    description = (
        "descriptor capability flags must match the methods the streaming "
        "factory's class actually defines (checkpointable => snapshot/"
        "restore, batched => push_block_steps, pyramid => push_segment, "
        "streaming => push/finish)"
    )

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node.func) not in _REGISTRATION_CALLS:
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            factory = keywords.get("streaming_factory")
            if not isinstance(factory, ast.Name):
                # No factory (batch-only), or an expression we cannot
                # follow: the runtime validation in __post_init__ owns
                # those cases.
                continue
            target = project.resolve_factory(factory.id)
            if target is None:
                continue
            algorithm = _algorithm_name(node)
            yield from self._check_flags(module, node, keywords, algorithm, target, project)

    def _check_flags(
        self,
        module: ModuleInfo,
        call: ast.Call,
        keywords: dict[str, ast.expr],
        algorithm: str,
        target: ClassInfo,
        project: ProjectIndex,
    ) -> Iterator[Finding]:
        required: dict[str, str] = {}
        for method in STREAMING_METHODS:
            required[method] = "streaming_factory"
        for flag, methods in FLAG_REQUIREMENTS.items():
            if _is_true(keywords.get(flag)):
                for method in methods:
                    required[method] = flag
        for method, flag in required.items():
            defined = project.class_defines(target, method)
            if defined is False:
                yield self.finding(
                    module,
                    call.lineno,
                    f"{algorithm}.{flag}",
                    f"algorithm {algorithm!r} declares {flag} but its "
                    f"simplifier class {target.name} does not define "
                    f"{method}()",
                    hint=(
                        f"implement {method}() on {target.name} or drop the "
                        f"{flag} declaration from the registration"
                    ),
                )
