"""The benchmark's own output checks, run once per workload at seed 0.

Each workload's CLI steps run under the per-layer tracer, so a drift from the
recorded reference outputs or a break in the tracer shows up here before a
benchmark run. The benchmark files are imported read-only.
"""

import importlib.util
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_reference_checks_traced(name, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path, 0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as traced_main:
        codes = [traced_main(argv) for argv in wl.steps()]
    assert codes == [0] * len(wl.steps())
    book = workloads.Checks()
    wl.check(book, workloads.load_reference()[name])
    assert book.failures == []
    assert book.attempted > 0
    metrics = tracer.layer_metrics()
    assert metrics["cli.self_s"] > 0
    assert all(math.isfinite(v) for v in metrics.values())
