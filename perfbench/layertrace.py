"""Outside-in span tracing of berlab's layers.

The tracer replaces module attributes with timing wrappers (``setattr``)
and puts the originals back afterwards, so berlab itself carries no tracing
code. Intra-module calls resolve through module globals, so a wrapped
``numlin.as_matrix`` also sees the calls ``numlin.hermitian_eig`` makes.

Spans are kept in memory as tuples and turned into per-layer metrics when
the traced call returns. Self time is a span's duration minus the time its
child spans cover.
"""

import contextlib
import functools
import gzip
import json
import statistics
import time

from berlab import blockops, harness, numlin, report, rkhs
from berlab.errors import BerlabError

NUMLIN_FNS = ("as_matrix", "operator_norm", "hermitian_eig", "matrix_abs",
              "apply_spectral_function", "polar_decompose", "re_rotation")
RKHS_FNS = ("build_space", "normalized_chart", "berezin_symbols",
            "ber_via_rotations")
BLOCKOPS_FNS = ("ber_block", "support_power", "aluthge_general",
                "aluthge_offdiag")
CHECKER_IDS = harness.ALL_CHECKERS
ANOMALY_CLASSES = tuple(sorted(cls.__name__ for cls in BerlabError.__subclasses__()))


# (owner, attribute, span name, tag of the call, replay seed of the call)
HARNESS_TARGETS = (
    (harness, "draw_trial", "harness.draw_trial",
     lambda args: args[0], lambda args: int(args[1])),
    (harness, "evaluate_draw", "harness.evaluate_draw",
     lambda args: args[0].theorem_id, lambda args: args[0].trial_seed),
)
LAYER_TARGETS = HARNESS_TARGETS + tuple((owner, attr, name, None, None) for owner, attr, name in (
    *((numlin, fn, f"numlin.{fn}") for fn in NUMLIN_FNS),
    (rkhs, "build_space", "rkhs.build_space"),
    (rkhs.KernelSpace, "normalized_chart", "rkhs.normalized_chart"),
    (rkhs, "berezin_symbols", "rkhs.berezin_symbols"),
    (rkhs, "ber_via_rotations", "rkhs.ber_via_rotations"),
    (blockops, "ber_block", "blockops.ber_block"),
    (blockops, "_support_power", "blockops.support_power"),
    (blockops, "aluthge_general", "blockops.aluthge_general"),
    (blockops, "aluthge_offdiag", "blockops.aluthge_offdiag"),
    (harness, "draw_space", "harness.draw_space"),
    (harness, "run_campaign", "harness.aggregate"),
    (harness, "explore", "harness.aggregate"),
    (report, "dumps_json", "report.dumps_json"),
))


class Tracer:
    """Collects spans ``(id, parent, name, start, end, self_s, tag, ok)``."""

    def __init__(self):
        self.spans = []
        self.anomalies = {}  # error class name -> [count, first replay seed]
        self._stack = []     # [span id, start, time covered by children]
        self._next_id = 0

    def wrap(self, name, fn, tag_of=None, seed_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            except BerlabError as exc:
                if seed_of is not None:
                    entry = self.anomalies.setdefault(type(exc).__name__,
                                                      [0, seed_of(args)])
                    entry[0] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                spans.append((sid, parent, name, frame[1], end, dur - frame[2],
                              tag_of(args) if tag_of else None, ok))
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Swap in wrappers for ``targets`` and restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, tag_of, seed_of in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, tag_of, seed_of))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def per_layer_metrics():
    """Every per-layer metric as (name, unit), in BENCHMARK.json's order."""
    out = []
    for prefix, fns in (("numlin", NUMLIN_FNS), ("rkhs", RKHS_FNS),
                        ("blockops", BLOCKOPS_FNS)):
        for fn in fns:
            out += [(f"{prefix}.{fn}.calls", "count"), (f"{prefix}.{fn}.self_ms", "ms")]
    out += [(f"theorems.{tid}.ms_per_trial", "ms") for tid in CHECKER_IDS]
    out += [("harness.draw_trial.self_ms", "ms"), ("harness.draw_space.calls", "count"),
            ("harness.evaluate_draw.p50_ms", "ms"), ("harness.evaluate_draw.p99_ms", "ms"),
            ("harness.aggregate.self_ms", "ms")]
    out += [(f"harness.anomalies.{cls}", "count") for cls in ANOMALY_CLASSES]
    out += [("report.dumps_json.ms", "ms"),
            ("rkhs.normalized_chart.calls_per_space", "ratio"),
            ("numlin.operator_norm.calls_per_eig", "ratio"),
            ("numlin.as_matrix.calls_per_eval", "ratio"),
            ("harness.draw_space.success_ratio", "ratio"),
            ("trace.overhead_pct", "%")]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of the spans ``tracer`` holds (counts and milliseconds).

    Returns the metrics and the inclusive durations of the evaluate_draw
    spans, which the caller pools across rounds for percentiles.
    """
    calls, self_s, ok_calls = {}, {}, {}
    per_checker_s, draws, evals, fresh = {}, {}, {}, {}
    eval_ms = []
    for _, _, name, start, end, own, tag, ok in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        ok_calls[name] = ok_calls.get(name, 0) + ok
        if tag is not None:
            per_checker_s[tag] = per_checker_s.get(tag, 0.0) + (end - start)
            if name == "harness.draw_trial":
                draws[tag] = draws.get(tag, 0) + 1
                fresh[tag] = fresh.get(tag, 0) + ok
            else:
                evals[tag] = evals.get(tag, 0) + 1
                eval_ms.append((end - start) * 1e3)

    out = {}
    for prefix, fns in (("numlin", NUMLIN_FNS), ("rkhs", RKHS_FNS),
                        ("blockops", BLOCKOPS_FNS)):
        for fn in fns:
            key = f"{prefix}.{fn}"
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.self_ms"] = self_s.get(key, 0.0) * 1e3
    for tid in CHECKER_IDS:
        # a campaign evaluates each fresh draw once; explore re-evaluates
        # perturbed copies of one draw, and each of those is an attempt too
        attempts = draws.get(tid, 0) + evals.get(tid, 0) - fresh.get(tid, 0)
        out[f"theorems.{tid}.ms_per_trial"] = _ratio(per_checker_s.get(tid, 0.0) * 1e3, attempts)
    out["harness.draw_trial.self_ms"] = self_s.get("harness.draw_trial", 0.0) * 1e3
    out["harness.draw_space.calls"] = calls.get("harness.draw_space", 0)
    out["harness.aggregate.self_ms"] = self_s.get("harness.aggregate", 0.0) * 1e3
    for cls in ANOMALY_CLASSES:
        out[f"harness.anomalies.{cls}"] = tracer.anomalies.get(cls, [0])[0]
    out["report.dumps_json.ms"] = self_s.get("report.dumps_json", 0.0) * 1e3
    spaces = ok_calls.get("rkhs.build_space", 0)
    out["rkhs.normalized_chart.calls_per_space"] = _ratio(calls.get("rkhs.normalized_chart", 0),
                                                          spaces)
    out["numlin.operator_norm.calls_per_eig"] = _ratio(calls.get("numlin.operator_norm", 0),
                                                       calls.get("numlin.hermitian_eig", 0))
    out["numlin.as_matrix.calls_per_eval"] = _ratio(calls.get("numlin.as_matrix", 0),
                                                    calls.get("harness.evaluate_draw", 0))
    out["harness.draw_space.success_ratio"] = _ratio(ok_calls.get("harness.draw_space", 0),
                                                     calls.get("harness.draw_space", 0))
    return out, eval_ms


def percentile(values, q):
    """Nearest-rank percentile, ``q`` in (0, 100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100.0 * len(ordered)) - 1))]


def median_metrics(samples):
    """Key-wise median over the metric dicts of several traced rounds."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def write_spans(path, tracer):
    """Gzipped JSON lines, one span per line in completion order; times in s."""
    keys = ("id", "parent", "name", "start", "end", "self_s", "tag", "ok")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
