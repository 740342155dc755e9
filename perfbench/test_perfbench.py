"""Fast gates: pinned report hashes, and tracing that changes no result.

A refactor of berlab that changes any reported number fails here within
seconds. ``python3 perfbench/run.py --golden`` adds the full
500-trial default campaign (about 35 s).
"""

import pytest

import workloads  # first: puts this checkout's src/ on sys.path
import layertrace  # noqa: I001
from berlab import numlin, rkhs


@pytest.mark.parametrize("entry", workloads.golden_entries(),
                         ids=lambda e: f"{e['workload']}-seed{e['seed']}")
def test_pinned_hash(entry):
    ok, digest, _ = workloads.check_golden(entry)
    assert ok, f"expected {entry['sha256']}, got {digest}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_call_matches_untraced(name):
    w = workloads.WORKLOADS[name]
    small = {"trials": 2, "budget": 20}
    plain = w.call(3, **small)
    originals = (numlin.as_matrix, rkhs.KernelSpace.normalized_chart)
    tracer = layertrace.Tracer()
    with tracer.installed(layertrace.LAYER_TARGETS):
        traced = w.call(3, **small)
    assert workloads.result_hash(w, traced) == workloads.result_hash(w, plain)
    assert (numlin.as_matrix, rkhs.KernelSpace.normalized_chart) == originals
    metrics, _ = layertrace.layer_metrics(tracer)
    assert metrics["numlin.as_matrix.calls"] > 0
    assert metrics["harness.aggregate.self_ms"] > 0
