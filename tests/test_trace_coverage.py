"""Every span the layer trace targets still fires on the benchmark's workloads.

``perfbench/layertrace.py`` wraps module attributes from outside. Work that
is routed around a wrapped attribute (a helper calling ``np.linalg.eigh``
instead of ``numlin.hermitian_eig``, say) empties that layer's metrics
without any error. The traced ``campaign_default`` and ``explore_t24a`` calls
at master seed 42 (the benchmark's pinned calls) must therefore open every
target span at least once, and return the results of the untraced calls.
Each workload must also, on its own, open the harness spans that
``measure.traced`` summarizes: a span that one workload opens hides its
absence in another from the union.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402  (first: puts this checkout's src/ on sys.path)
import layertrace  # noqa: E402,I001
import measure  # noqa: E402,I001


def test_every_layer_target_is_traced():
    pinned = [workloads.WORKLOADS[name] for name in ("campaign_default", "explore_t24a")]
    plain = [workloads.result_hash(w, w.call(42)) for w in pinned]
    tracer = layertrace.Tracer()
    with tracer.installed(layertrace.LAYER_TARGETS):
        # hashed inside the traced context, as the traced benchmark rounds do
        traced = [workloads.result_hash(w, w.call(42)) for w in pinned]
    assert traced == plain
    seen = {span[2] for span in tracer.spans}
    missing = sorted({name for *_, name, _, _ in layertrace.LAYER_TARGETS} - seen)
    assert missing == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_traces_its_draws_and_evaluations(name):
    # a workload that evaluates around harness.evaluate_draw has no
    # evaluate_draw durations, and measure.traced's summary of them fails
    w = workloads.WORKLOADS[name]
    tracer = layertrace.Tracer()
    with tracer.installed(layertrace.LAYER_TARGETS):
        w.call(42)
    seen = {span[2] for span in tracer.spans}
    assert {"harness.draw_trial", "harness.evaluate_draw"} <= seen
    _, eval_ms = layertrace.layer_metrics(tracer)
    assert measure.summary(eval_ms)["n"] == len(eval_ms) > 0


def test_anomalies_are_counted_as_the_benchmark_counts_them():
    # perfbench counts each BerlabError that harness.draw_trial or
    # evaluate_draw raises, and replays it by int(trial seed). A campaign
    # draws its trials once, in batches that never raise (a tuple of seeds
    # has no int): a failed slot carries its error, and its evaluate_draw
    # raises it once, with the slot's int seed
    w = workloads.WORKLOADS["campaign_large"]
    counter, seeds = layertrace.Tracer(), []
    recording = tuple(
        (owner, attr, name, tag_of,
         lambda args, seed_of=seed_of: seeds.append(seed_of(args)) or seeds[-1])
        for owner, attr, name, tag_of, seed_of in layertrace.HARNESS_TARGETS)
    with counter.installed(recording):
        out = w.call(42)
    raised = sum(count for count, _ in counter.anomalies.values())
    assert raised > 0
    assert workloads.campaign_problems(w, [out], raised) == []
    draws = [span for span in counter.spans if span[2] == "harness.draw_trial"]
    assert draws and all(isinstance(span[6], tuple) and span[7] for span in draws)
    failed = [span for span in counter.spans if not span[7]]
    assert len(failed) == len(seeds) == raised
    assert all(span[2] == "harness.evaluate_draw" for span in failed)
    assert all(type(seed) is int for seed in seeds) and len(set(seeds)) == raised
