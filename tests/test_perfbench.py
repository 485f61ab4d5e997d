"""The benchmark harness in ``perfbench/`` still fits the library.

``run.py`` times each layer by wrapping module attributes of ``delayh2``,
and reports one it cannot find as an absent span instead of failing, so a
renamed attribute would only show as ``trace.absent_spans``.  ``run.py`` is
read with ``ast`` rather than imported, because importing it pins the BLAS
thread count of this process.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def wrapped_attributes():
    """The ``(module, attribute, span)`` triples of ``run.WRAPPED``."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} defines no WRAPPED")


def test_every_traced_attribute_exists():
    wrapped = wrapped_attributes()
    assert wrapped
    missing = [
        f"delayh2.{module}.{attr} (span {span})"
        for module, attr, span in wrapped
        if not hasattr(importlib.import_module(f"delayh2.{module}"), attr)
    ]
    assert not missing


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
