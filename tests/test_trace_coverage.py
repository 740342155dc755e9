"""Every span the layer trace targets still fires on the benchmark's workloads.

``perfbench/layertrace.py`` wraps module attributes from outside. Work that
is routed around a wrapped attribute (a helper calling ``np.linalg.eigh``
instead of ``numlin.hermitian_eig``, say) empties that layer's metrics
without any error. The traced ``campaign_default`` and ``explore_t24a`` calls
at master seed 42 (the benchmark's pinned calls) must therefore open every
target span at least once, and return the results of the untraced calls.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402  (first: puts this checkout's src/ on sys.path)
import layertrace  # noqa: E402,I001


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
