"""The package's modules import one another without a cycle."""
import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hicat"


def relative_imports() -> dict[str, set[str]]:
    """Each module's relative imports, those inside functions too."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
        graph[path.stem] = targets - {"__init__"}
    return graph


def test_package_imports_form_no_cycle():
    graph = relative_imports()
    assert {"models", "tuples"} <= graph["verify"]
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_emit_draws_without_rigidity_or_verify():
    # emit draws the objects it is given; the CLI takes mutation graphs from rigidity
    assert not {"rigidity", "verify"} & relative_imports()["emit"]


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads; ``from __future__`` is left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_a_submodule_imports_only_what_it_reads():
    # the package root re-exports nothing, so importing the tuples loads
    # neither the models nor the verifiers
    code = ("import sys, hicat.tuples, hicat; "
            "print(sorted(m for m in sys.modules if m.startswith('hicat'))); "
            "print(sorted(k for k in vars(hicat) if not k.startswith('__')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout.splitlines()
    assert out == ["['hicat', 'hicat.tuples']", "['tuples']"]
