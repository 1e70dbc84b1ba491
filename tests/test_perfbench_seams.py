"""The benchmark's tracer still finds every name it wraps in the package.

perfbench/tracing.py replaces module attributes and methods by name; a
rename or deletion in khgraph would break only traced benchmark runs, with a
KeyError in install.  This installs and removes the whole set once.
"""

from pathlib import Path

from khgraph import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    instr = tracing.Instrumentation(tracing.Tracer())
    try:
        instr.install()
        assert hasattr(harness.run_solve, "__wrapped__")
    finally:
        instr.uninstall()
    assert not hasattr(harness.run_solve, "__wrapped__")
