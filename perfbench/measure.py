"""Measurement loops, timed against a reference kernel.

The benchmark runs on shared 2-vCPU hosts whose speed changes in bursts
of seconds to minutes: on the Xeon KVM host used to tune it, identical
calls ranged 1.0-1.7 s, and the fastest call of a 30 s window drifted 29%
over five minutes. Every timed call is therefore bracketed by a fixed
reference kernel (small dense eigh/SVD/products in numpy and a Python
loop, independent of berlab), and each time is scaled by
``REF_NOMINAL_S`` over the median of the two kernel runs before and the
two after it. The result reads as seconds on a host where the reference
kernel takes ``REF_NOMINAL_S``. The raw times are kept beside it. Over
the same five minutes the median scaled round of a 30 s window varied by
7% (highest over lowest). Set-up time, which tracks process start-up
rather than CPU speed, is scaled by a fresh interpreter importing numpy
instead (``setup_sample``).
"""

import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import layertrace
import workloads

REF_NOMINAL_S = 0.0075  # the reference kernel on the tuning host, unloaded
NUMPY_START_NOMINAL_S = 0.12  # `python -c "import numpy"` there, unloaded
SETUP_SAMPLES = 12
SETUP_CODE = ("import berlab.cli\n"
              "from berlab.harness import CampaignConfig\n"
              "CampaignConfig().validate()\n")


class Clock:
    """Times calls and scales each by the reference kernel runs beside it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                      for _ in range(50)]
        self.refs = [self._reference(), self._reference()]

    def _reference(self):
        start = time.perf_counter()
        for _ in range(4):
            for m in self._mats:
                h = (m + m.conj().T) / 2.0
                w, q = np.linalg.eigh(h)
                np.linalg.norm(m, 2)
                x = (q * np.sqrt(np.abs(w))) @ q.conj().T
                bool(np.all(np.isfinite(x.real)))
        return time.perf_counter() - start

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns (raw seconds, mark for ``scaled``, result)."""
        start = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - start
        self.refs.append(self._reference())
        return raw, len(self.refs) - 1, out

    def scaled(self, raw, mark):
        """``raw`` scaled by the median of two kernel runs before it and two after."""
        while len(self.refs) <= mark + 1:
            self.refs.append(self._reference())
        return raw * REF_NOMINAL_S / statistics.median(self.refs[mark - 2:mark + 2])


def summary(values):
    """Median, quartiles and sample count of one timing."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _interpreter(code):
    """Wall time of a fresh interpreter running ``code`` against this checkout."""
    inherited = os.environ.get("PYTHONPATH")
    paths = [str(workloads.SRC)] + ([inherited] if inherited else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=workloads.ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_sample():
    """(raw, scaled) time of a fresh interpreter importing the CLI and validating a config.

    The reference kernel tracks CPU speed, not process start-up, so set-up
    is scaled by a fresh interpreter that only imports numpy, run just
    before it: ``NUMPY_START_NOMINAL_S`` over that interpreter's time.
    """
    ref = _interpreter("import numpy")
    raw = _interpreter(SETUP_CODE)
    return raw, raw * NUMPY_START_NOMINAL_S / ref


class Rounds:
    """Timed rounds: one call per master seed, each output hash checked."""

    def __init__(self, clock, w, seeds, hashes):
        self.clock, self.w, self.seeds, self.hashes = clock, w, seeds, hashes
        self.timings = []  # per round, (raw seconds, clock mark) per call
        self.calls = self.mismatched = 0

    def run(self):
        timings = []
        for seed, expected in zip(self.seeds, self.hashes):
            raw, mark, out = self.clock.time(self.w.call, seed)
            timings.append((raw, mark))
            self.calls += 1
            self.mismatched += workloads.result_hash(self.w, out) != expected
        self.timings.append(timings)

    def raw(self):
        return [sum(raw for raw, _ in t) for t in self.timings]

    def scaled(self):
        return [sum(self.clock.scaled(*call) for call in t) for t in self.timings]


def _log_anomalies(tracer, log):
    for cls, (count, first_seed) in sorted(tracer.anomalies.items()):
        log(f"anomaly {cls}: {count} per round, first replay seed {first_seed}")


def end_to_end(w, seed, seconds, log):
    """Untraced rounds for ``seconds``.

    Returns (metrics, stats, calls, mismatched calls, problems).
    """
    clock = Clock()
    setup_sample()  # compiles bytecode; users pay the cached-import cost

    # Warm-up round: fills lazy state, gives the reference hashes, and counts
    # anomalies by class through wrappers on draw_trial/evaluate_draw only.
    seeds = w.seeds(seed)
    counter = layertrace.Tracer()
    with counter.installed(layertrace.HARNESS_TARGETS):
        outs = [w.call(s) for s in seeds]
    anomalies = sum(count for count, _ in counter.anomalies.values())
    problems = workloads.campaign_problems(w, outs, anomalies) if w.kind == "campaign" else []
    _log_anomalies(counter, log)

    # set-up samples are spread over the run, so that one burst of host
    # load does not decide their median
    rounds = Rounds(clock, w, seeds, [workloads.result_hash(w, out) for out in outs])
    setup = []
    start = time.perf_counter()
    while not rounds.timings or time.perf_counter() - start < seconds:
        if len(setup) <= SETUP_SAMPLES * (time.perf_counter() - start) / seconds:
            setup.append(setup_sample())
        rounds.run()
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    scaled = rounds.scaled()

    attempts = w.attempts() * len(seeds)
    wall = statistics.median(scaled)
    metrics = {
        "setup_s": (statistics.median(scaled_s for _, scaled_s in setup), "s"),
        "wall_s": (wall, "s"),
        "evals_per_s": (attempts / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "evaluated_fraction": ((attempts - anomalies) / attempts, "ratio"),
    }
    stats = {"setup_s": summary([scaled_s for _, scaled_s in setup]),
             "setup_s.raw": summary([raw for raw, _ in setup]),
             "wall_s": summary(scaled), "wall_s.raw": summary(rounds.raw()),
             "reference_s": summary(clock.refs)}
    return metrics, stats, rounds.calls, rounds.mismatched, problems


def traced(w, seed, seconds, log, spans_path):
    """Alternating untraced/traced rounds; returns what ``end_to_end`` does."""
    clock = Clock()
    seeds = w.seeds(seed)
    hashes = [workloads.result_hash(w, w.call(s)) for s in seeds]  # warm-up
    plain = Rounds(clock, w, seeds, hashes)
    timed = Rounds(clock, w, seeds, hashes)
    samples, eval_ms = [], []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        plain.run()
        tracer = layertrace.Tracer()
        with tracer.installed(layertrace.LAYER_TARGETS):
            timed.run()
        sample, durations = layertrace.layer_metrics(tracer)
        samples.append(sample)
        eval_ms += durations
    _log_anomalies(tracer, log)
    layertrace.write_spans(spans_path, tracer)

    values = layertrace.median_metrics(samples)
    values["harness.evaluate_draw.p50_ms"] = layertrace.percentile(eval_ms, 50)
    values["harness.evaluate_draw.p99_ms"] = layertrace.percentile(eval_ms, 99)
    plain_s, timed_s = plain.scaled(), timed.scaled()
    values["trace.overhead_pct"] = 100.0 * (statistics.median(timed_s)
                                            / statistics.median(plain_s) - 1.0)
    metrics = {name: (values[name], unit) for name, unit in layertrace.per_layer_metrics()}
    stats = {"wall_s.untraced": summary(plain_s), "wall_s.traced": summary(timed_s),
             "harness.evaluate_draw.ms": summary(eval_ms)}
    return (metrics, stats, plain.calls + timed.calls,
            plain.mismatched + timed.mismatched, [])
