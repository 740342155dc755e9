"""Reproducible verification campaigns over random operator ensembles.

A campaign draws (space, operator, parameter) instances per checker from a
per-trial seed derived by hashing (master_seed, theorem_id, trial index),
evaluates every convention the checker declares, and aggregates slack
statistics into a deterministic Report.
"""

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__, blockops, numlin, rkhs, theorems
from .errors import BadParams, BerlabError, ConfigInvalid, IllConditioned
from .theorems import choice as _choice

OPERATOR_KINDS = (
    "ginibre", "hermitian", "psd", "unitary", "partial_isometry",
    "contraction", "nilpotent",
)

DEFAULT_DIMS = ((1, 1), (2, 2), (3, 2), (4, 4), (6, 5))
DEFAULT_FAMILIES = (
    rkhs.KernelFamily("identity"),
    rkhs.KernelFamily("szego"),
    rkhs.KernelFamily("gaussian", {"sigma": 1.0}),
)

GATING = theorems.GATING

SPACE_ATTEMPTS = 5     # point draws per space before IllConditioned
EXPLORE_RESTARTS = 10  # hill-climb restarts from the best draw so far
SPECULATE_FROM = 4     # climb candidates evaluated at once after an acceptance
STACK_CAP = 64         # draws per stack: a campaign window, an explore chunk

ALL_CHECKERS = tuple(theorems.CHECKERS)


@dataclass
class CampaignConfig:
    """Reproducible description of a verification run."""

    master_seed: int = 42
    trials_per_checker: int = 500
    dims: tuple = DEFAULT_DIMS
    kernel_families: tuple = DEFAULT_FAMILIES
    checker_filter: tuple = ()
    out: str = None
    format: str = "json"

    def validate(self):
        integer = lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool)
        if not (integer(self.master_seed) and integer(self.trials_per_checker)):
            raise ConfigInvalid("master_seed and trials_per_checker must be integers")
        if self.trials_per_checker < 1:
            raise ConfigInvalid("trials_per_checker must be >= 1")
        if not self.dims or any(np.shape(d) != (2,) or not all(integer(n) and n >= 1 for n in d)
                                for d in self.dims):
            raise ConfigInvalid("dims entries must be pairs of integers >= 1")
        if not self.kernel_families:
            raise ConfigInvalid("need at least one kernel family")
        if isinstance(self.checker_filter, str):
            raise ConfigInvalid("checker_filter must be a sequence of checker ids, not a string")
        for tid in self.checker_filter:
            if tid not in theorems.CHECKERS:
                raise ConfigInvalid(f"unknown checker id {tid!r}")
            if self.checker_filter.count(tid) > 1:
                raise ConfigInvalid(f"checker id {tid!r} is listed twice")
        if self.format not in ("json", "csv"):
            raise ConfigInvalid(f"unknown report format {self.format!r}")

    def checkers(self):
        return tuple(self.checker_filter) if self.checker_filter else ALL_CHECKERS

    def echo(self):
        return {
            "master_seed": int(self.master_seed),
            "trials_per_checker": int(self.trials_per_checker),
            "dims": [f"{n1}x{n2}" for n1, n2 in self.dims],
            "kernel_families": [
                {"tag": f.tag, "params": dict(f.params)} for f in self.kernel_families
            ],
            "param_grid": {k: list(v) if isinstance(v, (tuple, list)) else v
                           for k, v in sorted(theorems.PARAM_GRID.items())},
            "checker_filter": list(self.checker_filter),
            # report fields: every checker gates at the one CHECK_TOL
            "check_tol": theorems.CHECK_TOL,
            "check_tol_overrides": {},
        }


def derive_trial_seed(master_seed, theorem_id, index):
    """Stable 64-bit per-trial seed keyed by checker id and trial index."""
    text = f"{int(master_seed)}:{theorem_id}:{int(index)}".encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


# ---------------------------------------------------------------------------
# operator and space generators

def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class _Operator(NamedTuple):
    """The random part of one ensemble draw, and the block of it a trial keeps."""

    kind: str
    g: np.ndarray     # the dim x dim complex Gaussian
    mask: np.ndarray  # a partial isometry's 0/1 column mask, else None
    rows: int
    cols: int


def _draw_gaussians(rng, kind, dim, rows=None, cols=None):
    """An ``_Operator``: the Gaussian, then a partial isometry's mask, from ``rng``.

    ``rows`` x ``cols`` (default: the whole draw) is the top-left block kept,
    so a rectangular operand is a slice of a square ensemble draw.
    """
    g = _complex_gaussian(rng, (dim, dim))
    mask = (rng.integers(0, 2, size=dim).astype(np.complex128)
            if kind == "partial_isometry" else None)
    return _Operator(kind, g, mask, rows or dim, cols or dim)


def _build_operators(kind, g, mask):
    """The ensemble operators of a stack of Gaussians ``g``, shape (K, n, n).

    One stacked call per kind: an SVD for the unitary, partial isometry and
    contraction ensembles, a matmul for psd. Each slice keeps the bits of a
    lone build; ``mask`` is the (K, n) stack of partial isometry masks.
    """
    if kind == "ginibre":
        return g
    if kind == "hermitian":
        return (g + g.conj().mT) / 2.0
    if kind == "psd":
        return g.conj().mT @ g
    if kind in ("unitary", "partial_isometry"):
        u = numlin.polar_decompose(g)[0]
        if kind == "unitary":
            return u
        diag = np.zeros(g.shape, dtype=np.complex128)
        idx = np.arange(g.shape[-1])
        diag[:, idx, idx] = mask
        return u @ diag
    if kind == "contraction":
        return g / np.maximum(numlin.operator_norm(g), 1.0)[:, None, None]
    if kind == "nilpotent":
        return np.triu(g, 1)
    raise BadParams(f"unknown operator kind {kind!r}")


def _draw_points(rng, family, n):
    """One random point set of a kernel space of a family other than identity."""
    if family.tag in ("szego", "bergman"):
        radii = 0.9 * np.sqrt(rng.random(n))
        angles = 2.0 * np.pi * rng.random(n)
        return [complex(z) for z in radii * np.exp(1j * angles)]
    return [float(x) for x in rng.normal(0.0, 2.0, n)]


def draw_space(rngs, family, n):
    """Sample one kernel space per generator; ill-conditioned point draws are retried.

    Each attempt builds the point sets of every generator still drawing as
    one stack, and each draws its retries from its own generator. The
    result holds, per generator, its space or an IllConditioned that quotes
    its last attempt's error; it never raises one.
    """
    if family.tag == "identity":
        return [rkhs.identity_space(n)] * len(rngs)
    out, todo = [None] * len(rngs), range(len(rngs))
    for _ in range(SPACE_ATTEMPTS):
        built = rkhs.build_space(family, [_draw_points(rngs[k], family, n) for k in todo])
        for k, space in zip(todo, built):
            out[k] = space
        todo = [k for k in todo if isinstance(out[k], BerlabError)]
        if not todo:
            break
    for k in todo:
        out[k] = IllConditioned(f"space draw failed after {SPACE_ATTEMPTS} attempts: {out[k]}")
    return out


# ---------------------------------------------------------------------------
# per-checker trial drawing

@dataclass
class TrialDraw:
    """Concrete inputs of one checker trial; arrays are the free operands.

    The arrays are made read-only: certificates digest them when first read.
    A pair draw's a and b are 0-d float arrays. A stacked draw
    (``_stack_draws``) holds several draws of one checker as one: its
    arrays and spaces are stacks with one slice per draw, and
    ``trial_seed`` and ``params`` are tuples with one entry each.
    A failed draw is empty and carries, as ``error``, the BerlabError that
    ruled it out; its ``evaluate_draw`` raises a copy.
    """

    theorem_id: str
    trial_seed: int
    params: dict
    arrays: dict
    spaces: dict
    error: BerlabError = None

    def __post_init__(self):
        for a in self.arrays.values():  # certificates digest them when first read
            a.flags.writeable = False

    @property
    def stacked(self):
        return isinstance(self.trial_seed, tuple)


def _plan(theorem_id, trial_seed, config):
    """The random part of one trial's draw, as a generator.

    The params come first, then the operands that the shape and extras of
    the checker's ``theorems.Checker`` record name. This call order fixes
    every trial's inputs, so changing it changes every report. The plan
    yields each space it needs as ``(rng, family, n)`` and is sent the space,
    or thrown its IllConditioned. It returns ``(params, arrays, spaces)``,
    each operator still an ``_Operator`` to build.
    """
    checker = theorems.lookup(theorem_id)
    shape = checker.shape
    rng = np.random.default_rng(int(trial_seed))
    params = checker.sample(rng)
    arrays, spaces = {}, {}

    if shape == "pair":  # occasional exact zeros exercise each inequality's boundary
        arrays = {name: np.array(0.0 if rng.random() < 0.1 else 4.0 * rng.random())
                  for name in "ab"}
    elif shape == "vectors":
        n = max(_choice(rng, config.dims)[0], 2)
        arrays = {name: _complex_gaussian(rng, n) for name in "abe"}
    elif checker.kind == theorems.SINGLE:
        n1, _ = _choice(rng, config.dims)
        family = _choice(rng, config.kernel_families)
        spaces["space"] = yield rng, family, n1
        kind = "psd" if shape == "psd" else _choice(rng, OPERATOR_KINDS)
        arrays["T"] = _draw_gaussians(rng, kind, n1)
        for name, what in checker.extras:
            if what == "vector":
                arrays[name] = _complex_gaussian(rng, n1)
            elif what == "operator":
                arrays[name] = _draw_gaussians(rng, _choice(rng, OPERATOR_KINDS), n1)
            else:  # "complex": recorded as two real params
                z = complex(_complex_gaussian(rng, ()))
                params.update({f"{name}_re": z.real, f"{name}_im": z.imag})
    else:
        n1, n2 = _choice(rng, config.dims)
        if shape in ("tied_square", "offdiag_square"):
            n2 = n1
        family = _choice(rng, config.kernel_families)
        spaces["space1"] = yield rng, family, n1
        spaces["space2"] = (spaces["space1"] if shape == "tied_square"
                            else (yield rng, family, n2))
        kind = _choice(rng, OPERATOR_KINDS)
        if shape in ("diag", "full"):
            arrays["S"] = _draw_gaussians(rng, kind, n1)
            arrays["R"] = _draw_gaussians(rng, _choice(rng, OPERATOR_KINDS), n2)
            # a full block draws a fresh ensemble for X
            kind = _choice(rng, OPERATOR_KINDS) if shape == "full" else None
        if shape == "tied_square":
            arrays["X"] = _draw_gaussians(rng, kind, n1)
        elif shape != "diag":
            # rectangular blocks are slices of square ensemble draws
            arrays["X"] = _draw_gaussians(rng, kind, max(n1, n2), n1, n2)
            arrays["Y"] = _draw_gaussians(rng, _choice(rng, OPERATOR_KINDS), max(n1, n2),
                                          n2, n1)
    return params, arrays, spaces


def draw_trial(theorem_ids, trial_seeds, config):
    """Deterministically draw the inputs of each (checker id, trial seed) slot.

    The result holds one TrialDraw per slot and never raises: a failed slot
    carries its BerlabError for ``evaluate_draw`` to raise. Every plan runs
    until it asks for a space. The requests of one kernel family (tag and
    params) and size go to one ``draw_space`` call, so they share a stacked
    build per attempt; each plan then resumes on its own generator. Last,
    the operators of one ensemble and size are built as one stack. Each
    slot's RNG calls and bits are those of a batch of one.
    """
    plans = [_plan(tid, seed, config) for tid, seed in zip(theorem_ids, trial_seeds)]
    out = [None] * len(plans)
    replies = dict.fromkeys(range(len(plans)))  # plan index -> space to send
    while replies:
        asks = {}
        for k, reply in replies.items():
            try:
                asks[k] = (plans[k].throw(reply) if isinstance(reply, BerlabError)
                           else plans[k].send(reply))
            except StopIteration as done:
                out[k] = done.value
            except BerlabError as exc:  # its traceback would hold this frame, and out
                out[k] = {}, {}, {}, exc.with_traceback(None)
        groups, replies = {}, {}
        for k, (_, family, n) in asks.items():
            key = (family.tag, repr(sorted(family.params.items())), n)  # params: a dict
            groups.setdefault(key, []).append(k)
        for ks in groups.values():
            _, family, n = asks[ks[0]]
            replies.update(zip(ks, draw_space([asks[k][0] for k in ks], family, n)))

    by_kind = {}
    for _, arrays, *_ in out:
        for name, op in arrays.items():
            if isinstance(op, _Operator):
                by_kind.setdefault((op.kind, len(op.g)), []).append((arrays, name))
    for (kind, _), slots in by_kind.items():
        ops = [arrays[name] for arrays, name in slots]
        masks = np.stack([op.mask for op in ops]) if kind == "partial_isometry" else None
        built = _build_operators(kind, np.stack([op.g for op in ops]), masks)
        for (arrays, name), op, full in zip(slots, ops, built):
            arrays[name] = np.ascontiguousarray(full[:op.rows, :op.cols])
    return [TrialDraw(tid, int(seed), *fields)
            for tid, seed, fields in zip(theorem_ids, trial_seeds, out)]


def _build_block(draw, shape):
    """The block operator of a block draw; blocks the shape leaves out are 0.

    A draw whose operands are stacks gives the stacked block.
    """
    sp1, sp2, arrays = draw.spaces["space1"], draw.spaces["space2"], draw.arrays
    lead = next(iter(arrays.values())).shape[:-2]
    zero = lambda r, c: np.zeros(lead + (r.dim, c.dim), dtype=np.complex128)
    x = arrays.get("X", zero(sp1, sp2))
    y = x.copy() if shape == "tied_square" else arrays.get("Y", zero(sp2, sp1))
    return blockops.BlockOperator(S=arrays.get("S", zero(sp1, sp1)), X=x, Y=y,
                                  R=arrays.get("R", zero(sp2, sp2)), space1=sp1, space2=sp2)


def _stamped(certs, trial_seed):
    """``certs`` with the trial seed as the last key of every witness."""
    for c in certs:  # each certificate owns its witness dict
        c.witness["trial_seed"] = trial_seed
    return certs


def _stack_draws(draws):
    """Draws of one checker and one operand shape as one stacked draw."""
    first = draws[0]
    return TrialDraw(
        first.theorem_id, tuple(d.trial_seed for d in draws), tuple(d.params for d in draws),
        {name: np.stack([d.arrays[name] for d in draws]) for name in first.arrays},
        {name: rkhs.stack_spaces([d.spaces[name] for d in draws]) for name in first.spaces})


def evaluate_draw(draw):
    """Evaluate every run of the drawn checker; returns Certificates.

    A stacked draw gives one certificate list per slice, each with the bits
    of that draw evaluated alone. It never raises: a stack that raises
    anything gives None, and each of its draws then answers for itself, so
    a bad draw raises its error once, from its own call. A failed draw
    raises the error that it carries.
    """
    if draw.error is not None:  # a copy: the stored one's traceback would hold draw
        raise type(draw.error)(*draw.error.args)
    tid, seeds, checker = draw.theorem_id, draw.trial_seed, theorems.CHECKERS[draw.theorem_id]
    try:
        if checker.kind == theorems.SCALAR:  # a, b (and e) in the order they were drawn
            certs = theorems.check_scalar(tid, draw.params, tuple(draw.arrays.values()))
        elif checker.kind == theorems.SINGLE:
            extras = dict(draw.arrays)
            certs = theorems.check_single(tid, draw.spaces["space"], extras.pop("T"),
                                          draw.params, extras)
        else:
            certs = theorems.check_block_runs(tid, _build_block(draw, checker.shape),
                                              draw.params, checker.runs)
    except Exception:  # anything: each draw of the stack raises it again alone
        if draw.stacked:
            return None
        raise
    if draw.stacked:
        return [_stamped(per_slice, seed) for per_slice, seed in zip(certs, seeds)]
    return _stamped(certs, seeds)


# ---------------------------------------------------------------------------
# campaign aggregation

def _agg_key(cert):
    return (cert.theorem_id, cert.convention or "", cert.params.get("link", 0),
            cert.params.get("reading", ""), cert.mode)


@dataclass
class Report:
    """Aggregated campaign outcome."""

    config: dict
    results: list
    wall_time_ms: int
    version: str = __version__

    @property
    def gating_failures(self):
        return sum(r["failures"] for r in self.results if r["mode"] == GATING)

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        d["config"], d["results"] = dict(self.config), [dict(r) for r in self.results]
        return d


def _evaluated(window):
    """Each draw of one checker's window as (draw, certificates) or None, in order.

    A draw whose evaluation raises a BerlabError, a failed draw among them,
    gives None. The draws whose operands all have the same shapes make one
    stacked draw; a failed draw, a shape drawn once and every draw of a
    stack that raises are evaluated alone.
    """
    by_shape, stacked = {}, {}
    for k, draw in enumerate(window):
        if draw.error is None:
            by_shape.setdefault(tuple(a.shape for a in draw.arrays.values()), []).append(k)
    for ks in by_shape.values():
        if len(ks) > 1:
            stacked.update(zip(ks, evaluate_draw(_stack_draws([window[k] for k in ks])) or ()))
    for k, draw in enumerate(window):
        try:
            yield draw, stacked[k] if k in stacked else evaluate_draw(draw)
        except BerlabError:
            yield None


def _trials(config, theorem_ids):
    """Each campaign trial as (checker id, (draw, certificates) or None).

    Trials are drawn in windows of ``STACK_CAP`` trials per checker, and
    the windows of every checker at one start are one ``draw_trial`` batch.
    Then each checker's window is evaluated and yielded in trial order; a
    failed draw raises its error once, from its ``evaluate_draw``.
    """
    total = config.trials_per_checker
    for start in range(0, total, STACK_CAP):
        slots = [(tid, derive_trial_seed(config.master_seed, tid, i))
                 for tid in theorem_ids for i in range(start, min(start + STACK_CAP, total))]
        draws = draw_trial(*zip(*slots), config)  # (checker ids), (trial seeds)
        size = len(slots) // len(theorem_ids)
        for j, tid in enumerate(theorem_ids):
            yield from ((tid, trial) for trial in _evaluated(draws[j * size:(j + 1) * size]))


def _new_row(theorem_id, convention, link, reading, mode):
    """A report row that no certificate has been aggregated into yet."""
    return {"theorem_id": theorem_id, "convention": convention, "link": link,
            "reading": reading, "mode": mode, "trials": 0, "failures": 0,
            "anomalies": 0, "min_slack": None, "mean_slack": 0.0,
            "witness": None}


def run_campaign(config):
    """Run every selected checker for the configured number of trials."""
    config.validate()
    started = time.monotonic()
    rows = {}
    anomalies = dict.fromkeys(config.checkers(), 0)
    # every row sees its checker's trials in trial order
    for tid, trial in _trials(config, config.checkers()):
        if trial is None:
            anomalies[tid] += 1
            continue
        for cert in trial[1]:
            key = _agg_key(cert)
            row = rows.get(key)
            if row is None:
                # mean_slack holds the slack sum and witness the
                # least-slack certificate until every trial is in
                row = rows[key] = _new_row(
                    cert.theorem_id, cert.convention,
                    cert.params.get("link", 0),
                    cert.params.get("reading", ""), cert.mode)
            row["trials"] += 1
            row["mean_slack"] += cert.slack
            if not cert.holds and cert.mode == GATING:
                row["failures"] += 1
            if row["min_slack"] is None or cert.slack < row["min_slack"]:
                row["min_slack"] = cert.slack
                row["witness"] = cert
    for tid in config.checkers():
        if anomalies[tid] == config.trials_per_checker:
            # nothing was evaluated; one empty row per run still shows the
            # checker and its anomalies in the report
            for conv, mode in theorems.CHECKERS[tid].runs:
                rows[(tid, conv or "", 0, "", mode)] = _new_row(tid, conv, 0, "", mode)
    results = [rows[key] for key in sorted(rows)]
    for row in results:
        row["anomalies"] = anomalies.get(row["theorem_id"], 0)
        if row["trials"]:
            row["mean_slack"] /= row["trials"]
            row["witness"] = row["witness"].to_dict()
        else:
            row["mean_slack"] = None
    wall = int((time.monotonic() - started) * 1000.0)
    return Report(config=config.echo(), results=results, wall_time_ms=wall)


# ---------------------------------------------------------------------------
# adversarial tightness search

def _worst_cert(certs):
    """The least-slack gating certificate, or the least-slack one if none gates."""
    target = [c for c in certs if c.mode == GATING] or list(certs)
    return min(target, key=lambda c: c.slack)


def _draw_bump(draw, rng):
    """The random part of one climb round: (operand name, index, z).

    It reads only the names and shapes of the draw's operands, which a
    climb never changes, so a round's numbers do not depend on what earlier
    rounds accepted. A 0-d operand, a pair's real a or b, takes a real z.
    """
    name = _choice(rng, sorted(draw.arrays))
    shape = draw.arrays[name].shape
    if not shape:
        return name, (), rng.standard_normal()
    return name, tuple(int(rng.integers(s)) for s in shape), complex(_complex_gaussian(rng, ()))


def _bump(draw, bump, step):
    """``draw`` with one coordinate moved by ``step * z``, in a copy.

    A psd draw's T stays Hermitian: a diagonal entry moves by the real part
    of the step, and an off-diagonal one takes its mirror entry along. A
    pair's a and b stay >= 0: a 0-d operand moves to ``abs(a + step * z)``.
    """
    name, idx, z = bump
    arrays = dict(draw.arrays)
    arr = arrays[name] = arrays[name].copy()
    hermitian = theorems.CHECKERS[draw.theorem_id].shape == "psd"
    arr[idx] += step * (z.real if hermitian and idx[0] == idx[1] else z)
    if hermitian and idx[0] != idx[1]:
        arr[idx[::-1]] = arr[idx].conjugate()
    if not idx:
        arr[()] = abs(arr)
    return TrialDraw(draw.theorem_id, draw.trial_seed, draw.params, arrays, draw.spaces)


def explore(config, theorem_id, budget):
    """Coordinate-wise hill climb minimizing the gating slack of a checker.

    Starts from the minimum-slack random witness of a short campaign and
    never returns a certificate with larger slack than that start.

    A restart draws its rounds' random numbers first, then evaluates its
    candidates in chunks that assume every round rejects. The first
    accepted candidate of a chunk drops the rest, so the result is the
    sequential climb's, bit for bit. A chunk holds ``SPECULATE_FROM``
    candidates after an acceptance and doubles, up to ``STACK_CAP``, after
    each all-reject chunk.
    A chunk is evaluated as one stack; a stack that raises evaluates a
    candidate when the climb reaches it.
    """
    config.validate()
    theorems.lookup(theorem_id)
    if budget < 0:
        raise BadParams("budget must be >= 0")
    best_draw, best_cert = None, None
    for _, trial in _trials(config, (theorem_id,)):
        if trial is None:
            continue
        cert = _worst_cert(trial[1])
        if best_cert is None or cert.slack < best_cert.slack:
            best_draw, best_cert = trial[0], cert
    if best_draw is None:
        raise BadParams(f"no evaluable random witness for {theorem_id!r}")
    rng = np.random.default_rng(derive_trial_seed(config.master_seed,
                                                  theorem_id + "/explore", 0))
    per_restart = max(1, budget // EXPLORE_RESTARTS)
    rounds_left = budget
    for _ in range(EXPLORE_RESTARTS):
        if rounds_left <= 0:
            break
        bumps = [_draw_bump(best_draw, rng) for _ in range(min(per_restart, rounds_left))]
        rounds_left -= len(bumps)
        current, current_slack = best_draw, best_cert.slack
        step, done, chunk = 0.5, 0, SPECULATE_FROM
        while done < len(bumps):
            # the chunk assumes every candidate rejects: each halves the step
            candidates, chunk_step = [], step
            for bump in bumps[done:done + chunk]:
                candidates.append(_bump(current, bump, chunk_step))
                chunk_step /= 2.0
            chunk = min(2 * chunk, STACK_CAP)  # bounds a stack's memory
            stacked = evaluate_draw(_stack_draws(candidates))
            for k, candidate in enumerate(candidates):
                done += 1
                try:
                    cert = _worst_cert(stacked[k] if stacked else evaluate_draw(candidate))
                except BerlabError:
                    step /= 2.0
                    continue
                if cert.slack < current_slack:
                    current, current_slack = candidate, cert.slack
                    if cert.slack < best_cert.slack:
                        best_draw, best_cert = candidate, cert
                    chunk = SPECULATE_FROM
                    break
                step /= 2.0
    return best_cert
