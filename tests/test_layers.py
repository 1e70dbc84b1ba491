"""The two import layers: the kernel layer and the CLI's verify and field
commands load no scipy solver module; the solver layer (harness) does.

Each test runs in a fresh interpreter, as perfbench/run.py times the import,
and reads which modules that process has loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
SOLVER_MODULES = ("scipy.sparse", "scipy.linalg", "scipy.spatial")


def loaded_after(code: str) -> list[str]:
    """The scipy solver modules loaded once code has run in a fresh interpreter."""
    probe = (
        "import json, sys; sys.path.insert(0, sys.argv[1])\n"
        f"{code}\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", probe, SRC], capture_output=True, text=True,
                         check=True)
    modules = json.loads(out.stdout.strip().splitlines()[-1])
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in SOLVER_MODULES)]


def test_kernel_layer_imports_no_scipy_solver_module():
    assert loaded_after("import khgraph, khgraph.cli, khgraph.config, khgraph.registry, "
                        "khgraph.verify") == []


def test_cli_verify_and_field_load_no_scipy_solver_module(tmp_path):
    code = (
        "from khgraph import cli\n"
        "assert cli.main(['verify', '--suite', 'all', '--seed', '0']) == 0\n"
        f"assert cli.main(['field', '--y0', '0.5,0', '--xi', '0,1', '--body', 'ball:0.5', "
        f"'--out', {str(tmp_path / 'field.csv')!r}]) == 0"
    )
    assert loaded_after(code) == []


def test_harness_import_loads_the_sparse_solver():
    assert "scipy.sparse.linalg" in loaded_after("import khgraph.harness")
