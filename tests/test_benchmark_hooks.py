"""The benchmark in perfbench/ reaches the program through names it patches
and calls; a rename in src/ must fail here, not only in the slow benchmark
suite.  This reads perfbench/ and changes nothing there."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import metrics
    import tracing
    import workloads  # noqa: F401  (its module-level program names must resolve)

    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(metrics.OPS) <= set(tracing.op_names())
