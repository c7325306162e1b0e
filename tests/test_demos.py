"""Every demo script runs to completion against the current package, and
every name the package exports resolves and has a caller."""
import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import brepcodec

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_every_exported_name_resolves():
    missing = [name for name in brepcodec.__all__ if not hasattr(brepcodec, name)]
    assert not missing


def test_reconstruct_names_the_module():
    # so patching `brepcodec.reconstruct.validate` reaches the decoder
    assert inspect.ismodule(brepcodec.reconstruct)


def _definitions(text: str) -> dict:
    """Top-level function and class name -> (first, last) line, decorators included."""
    return {node.name: (min([node.lineno] + [d.lineno for d in node.decorator_list]),
                        node.end_lineno)
            for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_exported_name_has_a_caller():
    """An export only tests reach is a second path; the library, the demos,
    the benchmark or the acceptance suite must use each one."""
    package = ROOT / "src" / "brepcodec"
    sources = [(p.read_text().splitlines(), _definitions(p.read_text()))
               for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    readers = [p.read_text() for d in ("demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text())
    unused = []
    for name in brepcodec.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        texts = list(readers)
        for lines, defs in sources:     # a module's own definition is not a caller
            first, last = defs.get(name, (1, 0))
            texts.append("\n".join(lines[:first - 1] + lines[last:]))
        if not any(word.search(t) for t in texts):
            unused.append(name)
    assert not unused
