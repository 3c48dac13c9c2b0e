"""The scripts under ``examples/`` stay runnable against the current API.

Every example is imported (which resolves all of its ``repro`` names), and
the fast ones run end to end inside a scratch directory.  The suite's
``filterwarnings = error`` applies, so an example that trips a warning fails
here too.
"""

from __future__ import annotations

import runpy
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))
END_TO_END = ("quickstart.py", "geolife_pipeline.py", "streaming_device.py")


def test_the_examples_directory_is_found():
    assert set(END_TO_END) <= set(SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_imports(script):
    namespace = runpy.run_path(str(EXAMPLES / script), run_name="not_main")
    assert namespace["__doc__"]


@pytest.mark.parametrize("script", END_TO_END)
def test_example_runs_end_to_end(script, tmp_path, monkeypatch, capsys):
    # Each script writes only relative to the working directory or the
    # temp dir; keep both inside tmp_path, and give it no CLI arguments.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert capsys.readouterr().out
