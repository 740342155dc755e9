"""Reproducible verification campaigns over random operator ensembles.

A campaign draws (space, operator, parameter) instances per checker from a
per-trial seed derived by hashing (master_seed, theorem_id, trial index),
evaluates every convention the checker declares, and aggregates slack
statistics into a deterministic Report.
"""

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field

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

DEFAULT_PARAM_GRID = {
    "r": (1.0, 1.5, 2.0, 3.0),
    "p": (0.0, 0.25, 0.5, 0.75, 1.0),
    "t": (0.0, 0.25, 0.5, 0.75, 1.0),
    "alpha": (0.0, 0.5, 1.0),
    "nu": (0.0, 0.25, 0.5, 0.75, 1.0),
    "m": (1, 2, 3),
    "s": (1.0, 2.0),
    "theta_grid": 720,
}

GATING = theorems.GATING

SPACE_ATTEMPTS = 5     # point draws per space before IllConditioned
EXPLORE_RESTARTS = 10  # hill-climb restarts from the best draw so far

ALL_CHECKERS = tuple(theorems.CHECKERS)


@dataclass
class CampaignConfig:
    """Reproducible description of a verification run."""

    master_seed: int = 42
    trials_per_checker: int = 500
    dims: tuple = DEFAULT_DIMS
    kernel_families: tuple = DEFAULT_FAMILIES
    param_grid: dict = field(default_factory=lambda: dict(DEFAULT_PARAM_GRID))
    checker_filter: tuple = ()
    check_tol: float = theorems.CHECK_TOL
    out: str = None
    format: str = "json"

    def validate(self):
        if self.trials_per_checker < 1:
            raise ConfigInvalid("trials_per_checker must be >= 1")
        if not self.dims or any(n1 < 1 or n2 < 1 for n1, n2 in self.dims):
            raise ConfigInvalid("dims entries must be >= 1")
        if not self.kernel_families:
            raise ConfigInvalid("need at least one kernel family")
        for tid in self.checker_filter:
            if tid not in theorems.CHECKERS:
                raise ConfigInvalid(f"unknown checker id {tid!r}")
        if self.format not in ("json", "csv"):
            raise ConfigInvalid(f"unknown report format {self.format!r}")
        if not (math.isfinite(self.check_tol) and self.check_tol >= 0):
            raise ConfigInvalid(f"check_tol must be finite and >= 0, got {self.check_tol!r}")

    def checkers(self):
        return tuple(self.checker_filter) if self.checker_filter else ALL_CHECKERS

    def echo(self):
        return {
            "master_seed": self.master_seed,
            "trials_per_checker": self.trials_per_checker,
            "dims": [f"{n1}x{n2}" for n1, n2 in self.dims],
            "kernel_families": [
                {"tag": f.tag, "params": dict(f.params)} for f in self.kernel_families
            ],
            "param_grid": {k: list(v) if isinstance(v, (tuple, list)) else v
                           for k, v in sorted(self.param_grid.items())},
            "checker_filter": list(self.checker_filter),
            "check_tol": self.check_tol,
            # a report field; every checker runs at check_tol
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


def _draw_operator(rng, kind, dim):
    g = _complex_gaussian(rng, (dim, dim))
    if kind == "ginibre":
        return g
    if kind == "hermitian":
        return (g + g.conj().T) / 2.0
    if kind == "psd":
        return g.conj().T @ g
    if kind == "unitary":
        return numlin.polar_decompose(g).isometry
    if kind == "partial_isometry":
        u = numlin.polar_decompose(g).isometry
        mask = rng.integers(0, 2, size=dim).astype(np.complex128)
        return u @ np.diag(mask)
    if kind == "contraction":
        norm = numlin.operator_norm(g)
        return g / max(norm, 1.0)
    if kind == "nilpotent":
        return np.triu(g, 1)
    raise BadParams(f"unknown operator kind {kind!r}")


def generate_operator(kind, dim, seed):
    """Deterministic random operator of a named ensemble."""
    if dim < 1:
        raise BadParams("dim must be >= 1")
    return _draw_operator(np.random.default_rng(int(seed)), kind, dim)


def _draw_rect(rng, kind, rows, cols):
    """Rectangular block obtained by slicing a square ensemble draw."""
    big = _draw_operator(rng, kind, max(rows, cols))
    return np.ascontiguousarray(big[:rows, :cols])


def draw_space(rng, family, n):
    """Sample a kernel space; ill-conditioned point draws are retried."""
    last = None
    for _ in range(SPACE_ATTEMPTS):
        try:
            if family.tag == "identity":
                return rkhs.identity_space(n)
            if family.tag in ("szego", "bergman"):
                radii = 0.9 * np.sqrt(rng.random(n))
                angles = 2.0 * np.pi * rng.random(n)
                points = radii * np.exp(1j * angles)
                return rkhs.build_space(family, [complex(z) for z in points])
            points = rng.normal(0.0, 2.0, n)
            return rkhs.build_space(family, [float(x) for x in points])
        except BerlabError as exc:
            last = exc
    raise IllConditioned(f"space draw failed after {SPACE_ATTEMPTS} attempts: {last}")


# ---------------------------------------------------------------------------
# per-checker trial drawing

def _draw_scalar_pair(rng):
    # occasional exact zeros exercise the boundary of each inequality
    a = 0.0 if rng.random() < 0.1 else float(4.0 * rng.random())
    b = 0.0 if rng.random() < 0.1 else float(4.0 * rng.random())
    return a, b


@dataclass
class TrialDraw:
    """Concrete inputs of one checker trial; arrays are the free operands."""

    theorem_id: str
    trial_seed: int
    params: dict
    arrays: dict
    scalars: dict
    spaces: dict


def draw_trial(theorem_id, trial_seed, config):
    """Deterministically draw the inputs of one trial from its seed.

    The params come first, then the operands that the shape and extras of
    the checker's ``theorems.Checker`` record name. This call order fixes
    every trial's inputs, so changing it changes every report.
    """
    checker = theorems.CHECKERS.get(theorem_id)
    if checker is None:
        raise BadParams(f"unknown checker id {theorem_id!r}")
    shape = checker.shape
    rng = np.random.default_rng(int(trial_seed))
    params = checker.sample(rng, config.param_grid)
    arrays, scalars, spaces = {}, {}, {}

    if shape == "pair":
        scalars = dict(zip("ab", _draw_scalar_pair(rng)))
    elif shape == "vectors":
        n1, _ = _choice(rng, config.dims)
        n = max(n1, 2)
        arrays = {name: _complex_gaussian(rng, n) for name in "abe"}
    elif checker.kind == theorems.SINGLE:
        n1, _ = _choice(rng, config.dims)
        family = _choice(rng, config.kernel_families)
        spaces["space"] = draw_space(rng, family, n1)
        kind = "psd" if shape == "psd" else _choice(rng, OPERATOR_KINDS)
        arrays["T"] = _draw_operator(rng, kind, n1)
        for name, what in checker.extras:
            if what == "vector":
                arrays[name] = _complex_gaussian(rng, n1)
            elif what == "operator":
                arrays[name] = _draw_operator(rng, _choice(rng, OPERATOR_KINDS), n1)
            else:  # "complex": recorded as two real params
                z = complex(_complex_gaussian(rng, ()))
                params.update({f"{name}_re": z.real, f"{name}_im": z.imag})
    else:
        n1, n2 = _choice(rng, config.dims)
        if shape in ("tied_square", "offdiag_square"):
            n2 = n1
        family = _choice(rng, config.kernel_families)
        spaces["space1"] = draw_space(rng, family, n1)
        spaces["space2"] = (spaces["space1"] if shape == "tied_square"
                            else draw_space(rng, family, n2))
        kind = _choice(rng, OPERATOR_KINDS)
        if shape in ("diag", "full"):
            arrays["S"] = _draw_operator(rng, kind, n1)
            arrays["R"] = _draw_operator(rng, _choice(rng, OPERATOR_KINDS), n2)
            # a full block draws a fresh ensemble for X
            kind = _choice(rng, OPERATOR_KINDS) if shape == "full" else None
        if shape == "tied_square":
            arrays["X"] = _draw_operator(rng, kind, n1)
        elif shape != "diag":
            arrays["X"] = _draw_rect(rng, kind, n1, n2)
            arrays["Y"] = _draw_rect(rng, _choice(rng, OPERATOR_KINDS), n2, n1)
    return TrialDraw(theorem_id=theorem_id, trial_seed=int(trial_seed),
                     params=params, arrays=arrays, scalars=scalars,
                     spaces=spaces)


def _build_block(draw, shape):
    """The block operator of a block draw; blocks the shape leaves out are 0."""
    sp1, sp2 = draw.spaces["space1"], draw.spaces["space2"]
    n1, n2 = sp1.dim, sp2.dim
    zero = lambda r, c: np.zeros((r, c), dtype=np.complex128)
    arrays = draw.arrays
    x = arrays.get("X", zero(n1, n2))
    y = x.copy() if shape == "tied_square" else arrays.get("Y", zero(n2, n1))
    return blockops.BlockOperator(S=arrays.get("S", zero(n1, n1)), X=x, Y=y,
                                  R=arrays.get("R", zero(n2, n2)),
                                  space1=sp1, space2=sp2)


def evaluate_draw(draw, config):
    """Evaluate every run of the drawn checker; returns Certificates."""
    tid = draw.theorem_id
    checker = theorems.CHECKERS[tid]
    tol = config.check_tol
    if checker.kind == theorems.SCALAR:
        # a, b (and e) in the order they were drawn
        inputs = tuple((draw.scalars or draw.arrays).values())
        certs = theorems.check_scalar(tid, draw.params, inputs, check_tol=tol)
    elif checker.kind == theorems.SINGLE:
        extras = {k: v for k, v in draw.arrays.items() if k != "T"}
        certs = theorems.check_single(tid, draw.spaces["space"],
                                      draw.arrays["T"], draw.params,
                                      extras=extras, check_tol=tol)
    else:
        block = _build_block(draw, checker.shape)
        certs = [cert for conv, mode in checker.runs
                 for cert in theorems.check_block(tid, block, conv, draw.params,
                                                  mode=mode, check_tol=tol)]
    return [dataclasses.replace(
        c, witness={**c.witness, "trial_seed": draw.trial_seed}) for c in certs]


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
        return {
            "config": self.config,
            "results": self.results,
            "wall_time_ms": self.wall_time_ms,
            "version": self.version,
        }


def _trials(config, theorem_id):
    """Each campaign trial of a checker as (draw, certificates), in trial order.

    A trial whose draw or evaluation raises a BerlabError yields None.
    """
    for i in range(config.trials_per_checker):
        seed = derive_trial_seed(config.master_seed, theorem_id, i)
        try:
            draw = draw_trial(theorem_id, seed, config)
            trial = draw, evaluate_draw(draw, config)
        except BerlabError:
            trial = None
        yield trial


def run_campaign(config):
    """Run every selected checker for the configured number of trials."""
    config.validate()
    started = time.monotonic()
    rows = {}
    anomalies = {}
    for tid in config.checkers():
        anomalies[tid] = 0
        for trial in _trials(config, tid):
            if trial is None:
                anomalies[tid] += 1
                continue
            for cert in trial[1]:
                key = _agg_key(cert)
                row = rows.get(key)
                if row is None:
                    # mean_slack holds the slack sum and witness the
                    # least-slack certificate until every trial is in
                    row = rows[key] = {
                        "theorem_id": cert.theorem_id,
                        "convention": cert.convention,
                        "link": cert.params.get("link", 0),
                        "reading": cert.params.get("reading", ""),
                        "mode": cert.mode, "trials": 0, "failures": 0,
                        "anomalies": 0, "min_slack": None, "mean_slack": 0.0,
                        "witness": None}
                row["trials"] += 1
                row["mean_slack"] += cert.slack
                if not cert.holds and cert.mode == GATING:
                    row["failures"] += 1
                if row["min_slack"] is None or cert.slack < row["min_slack"]:
                    row["min_slack"] = cert.slack
                    row["witness"] = cert
    results = [rows[key] for key in sorted(rows)]
    for row in results:
        row["anomalies"] = anomalies.get(row["theorem_id"], 0)
        row["mean_slack"] /= row["trials"]
        row["witness"] = row["witness"].to_dict()
    wall = int((time.monotonic() - started) * 1000.0)
    return Report(config=config.echo(), results=results, wall_time_ms=wall)


# ---------------------------------------------------------------------------
# adversarial tightness search

def _worst_cert(certs):
    """The least-slack gating certificate, or the least-slack one if none gates."""
    target = [c for c in certs if c.mode == GATING] or list(certs)
    return min(target, key=lambda c: c.slack)


def _perturb(draw, rng, step):
    """Gaussian bump of one coordinate of one free operand."""
    out = dataclasses.replace(
        draw,
        arrays={k: v.copy() for k, v in draw.arrays.items()},
        scalars=dict(draw.scalars),
    )
    names = sorted(out.arrays) + sorted(out.scalars)
    name = _choice(rng, names)
    if name in out.arrays:
        arr = out.arrays[name]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        arr[idx] += step * complex(_complex_gaussian(rng, ()))
    else:
        out.scalars[name] = abs(out.scalars[name] + step * rng.standard_normal())
    return out


def explore(config, theorem_id, budget):
    """Coordinate-wise hill climb minimizing the gating slack of a checker.

    Starts from the minimum-slack random witness of a short campaign and
    never returns a certificate with larger slack than that start.
    """
    config.validate()
    if theorem_id not in theorems.CHECKERS:
        raise BadParams(f"unknown checker id {theorem_id!r}")
    if budget < 0:
        raise BadParams("budget must be >= 0")
    best_draw, best_cert = None, None
    for trial in _trials(config, theorem_id):
        if trial is None:
            continue
        cert = _worst_cert(trial[1])
        if best_cert is None or cert.slack < best_cert.slack:
            best_draw, best_cert = trial[0], cert
    if best_draw is None:
        raise BadParams(f"no evaluable random witness for {theorem_id!r}")
    if budget == 0:
        return best_cert
    rng = np.random.default_rng(derive_trial_seed(config.master_seed,
                                                  theorem_id + "/explore", 0))
    per_restart = max(1, budget // EXPLORE_RESTARTS)
    rounds_left = budget
    for _ in range(EXPLORE_RESTARTS):
        if rounds_left <= 0:
            break
        current, current_slack = best_draw, best_cert.slack
        step = 0.5
        for _ in range(min(per_restart, rounds_left)):
            rounds_left -= 1
            candidate = _perturb(current, rng, step)
            try:
                cert = _worst_cert(evaluate_draw(candidate, config))
            except BerlabError:
                step /= 2.0
                continue
            if cert.slack < current_slack:
                current, current_slack = candidate, cert.slack
                if cert.slack < best_cert.slack:
                    best_draw, best_cert = candidate, cert
            else:
                step /= 2.0
    return best_cert
