"""Inequality checkers emitting slack certificates.

Each checker evaluates the left and right side of one inequality on
concrete inputs and returns Certificate records. Chain inequalities emit
one certificate per link (the link number is recorded in the params map).
Checkers flagged informational are recorded but never fail a campaign.

``CHECKERS`` is the registry: one ``Checker`` record per checker id says
how a campaign draws its inputs, which conventions it runs at and which
function evaluates it.
"""

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import blockops, numlin, rkhs
from .errors import BadParams

GATING = "gating"
INFORMATIONAL = "informational"

CHECK_TOL = 1e-9
TOL_FLOOR = 1e-12

# checker kinds, fixed by the shape: which check_* function evaluates it
SCALAR = "scalar"
SINGLE = "single"
BLOCK = "block"

# Hoelder-conjugate (p, q) pairs with p >= q used by I38 and T311.
CONJUGATE_PAIRS = ((2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0))


def slack_tolerance(rhs, check_tol=CHECK_TOL):
    """Allowed negative slack for a certificate with the given rhs."""
    return max(TOL_FLOOR, check_tol * (1.0 + abs(rhs)))


@dataclass(frozen=True, kw_only=True)
class Certificate:
    """One evaluated inequality instance; its fields are the witness schema."""

    theorem_id: str
    convention: str = None
    params: dict = field(default_factory=dict)
    lhs: float
    rhs: float
    slack: float
    holds: bool
    mode: str = GATING
    witness: dict = field(default_factory=dict)
    input_digest: str = ""

    def to_dict(self):
        # params and witness hold only scalars, so shallow copies suffice
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["params"], d["witness"] = dict(self.params), dict(self.witness)
        return d


def make_certificate(theorem_id, lhs, rhs, *, params=None, witness=None,
                     convention=None, mode=GATING, digest="",
                     check_tol=CHECK_TOL, equality=False):
    """Certificate of lhs <= rhs, or of lhs == rhs when ``equality`` is set."""
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise BadParams(f"{theorem_id}: non-finite lhs/rhs")
    slack = rhs - lhs
    tol = slack_tolerance(rhs, check_tol)
    return Certificate(
        theorem_id=theorem_id,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=bool(abs(slack) <= tol if equality else slack >= -tol),
        mode=mode,
        convention=convention,
        params=dict(params or {}),
        witness=dict(witness or {}),
        input_digest=digest,
    )


def digest_inputs(*items):
    """Stable hex digest of scalar / array inputs, for witness bookkeeping."""
    h = hashlib.blake2b(digest_size=16)
    for item in items:
        if isinstance(item, np.ndarray):
            a = np.ascontiguousarray(item, dtype=np.complex128)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        else:
            h.update(json.dumps(item, sort_keys=True, default=str).encode())
    return h.hexdigest()


def _inner(u, v):
    """<u, v> with conjugation on the second argument."""
    return complex(np.conj(v) @ u)


def _require(cond, msg):
    if not cond:
        raise BadParams(msg)


def _conjugate_pair(p, q):
    _require(p > 1 and q > 1, "need p, q > 1")
    _require(abs(1.0 / p + 1.0 / q - 1.0) <= 1e-12, "need 1/p + 1/q = 1")


def _chain(cert, values, params, **kw):
    """One certificate per link values[i-1] <= values[i] of a chain."""
    return [cert(lo, hi, params={**params, "link": i}, **kw)
            for i, (lo, hi) in enumerate(zip(values, values[1:]), start=1)]


def _tightest(cert, pairs, **kw):
    """Certificate of the kernel point whose (lhs, rhs) has the least slack."""
    j = min(range(len(pairs)), key=lambda i: pairs[i][1] - pairs[i][0])
    return [cert(*pairs[j], witness={"j": j}, **kw)]


# ---------------------------------------------------------------------------
# scalar checkers: evaluate(cert, params, inputs)

def _young2(cert, params, inputs):
    a, b = float(inputs[0]), float(inputs[1])
    m = params["m"]
    _require(a >= 0 and b >= 0, "YOUNG2 needs a, b >= 0")
    _require(int(m) == m and m >= 1, "YOUNG2 needs positive integer m")
    m = int(m)
    lhs = math.sqrt(a * b) ** m + 0.5**m * (a ** (m / 2.0) - b ** (m / 2.0)) ** 2
    rhs = 2.0**-m * (a + b) ** m
    return [cert(lhs, rhs, params={"m": m}, witness={"a": a, "b": b},
                 digest=digest_inputs(a, b, m))]


def _i37(cert, params, inputs):
    a, b = float(inputs[0]), float(inputs[1])
    nu, r = float(params["nu"]), float(params["r"])
    _require(a >= 0 and b >= 0, "I37 needs a, b >= 0")
    _require(0.0 <= nu <= 1.0, "I37 needs nu in [0, 1]")
    _require(r >= 1.0, "I37 needs r >= 1")
    geo = a**nu * b ** (1.0 - nu)
    ari = nu * a + (1.0 - nu) * b
    pow_mean = (nu * a**r + (1.0 - nu) * b**r) ** (1.0 / r)
    return _chain(cert, (geo, ari, pow_mean), {"nu": nu, "r": r},
                  witness={"a": a, "b": b}, digest=digest_inputs(a, b, nu, r))


def _i38(cert, params, inputs):
    a, b = float(inputs[0]), float(inputs[1])
    p, q, r = float(params["p"]), float(params["q"]), float(params["r"])
    _require(a >= 0 and b >= 0, "I38 needs a, b >= 0")
    _conjugate_pair(p, q)
    _require(r >= 1.0, "I38 needs r >= 1")
    young = a**p / p + b**q / q
    outer = (a ** (p * r) / p + b ** (q * r) / q) ** (1.0 / r)
    return _chain(cert, (a * b, young, outer), {"p": p, "q": q, "r": r},
                  witness={"a": a, "b": b}, digest=digest_inputs(a, b, p, q, r))


def _s310(cert, params, inputs):
    a = np.asarray(inputs[0], dtype=np.complex128)
    b = np.asarray(inputs[1], dtype=np.complex128)
    e = np.asarray(inputs[2], dtype=np.complex128)
    norm_e = np.linalg.norm(e)
    _require(norm_e > 0, "S310 needs a nonzero unit vector e")
    e = e / norm_e
    ab = _inner(a, b)
    ae = _inner(a, e)
    eb = _inner(e, b)
    lhs = abs(ab - ae * eb) + abs(ae * eb)
    rhs = float(np.linalg.norm(a) * np.linalg.norm(b))
    return [cert(lhs, rhs, params={}, witness={"dim": int(a.shape[0])},
                 digest=digest_inputs(a, b, e))]


# ---------------------------------------------------------------------------
# single-operator checkers: evaluate(cert, space, T, params, extras)

def _abs_powers(ops, exps):
    """|A_k|^{p_k} for each operator A_k, in input order.

    Operands of one shape share one modulus stack and one power stack; an
    operand listed more than once (the same object) has its modulus taken once.
    """
    out = [None] * len(ops)
    by_shape = {}
    for k, op in enumerate(ops):
        by_shape.setdefault(op.shape, []).append(k)
    for ks in by_shape.values():
        distinct = []
        for k in ks:
            if not any(op is ops[k] for op in distinct):
                distinct.append(ops[k])
        slots = [next(i for i, op in enumerate(distinct) if op is ops[k]) for k in ks]
        moduli = numlin.matrix_abs(np.stack(distinct))
        powers = numlin.matrix_power_psd(moduli[slots], [exps[k] for k in ks])
        for k, power in zip(ks, powers):
            out[k] = power
    return out


def _t311_combo(t_mat, r, p, q, e):
    """(1/p) f^{pr}(|T^2|) + (1/q) g^{qr}(|(T^2)*|) with f = s^e, g = s^(1-e)."""
    t2 = t_mat @ t_mat
    left, right = _abs_powers([t2, t2.conj().T], [e * p * r, (1.0 - e) * q * r])
    return left / p + right / q


def _l21c(cert, space, t_mat, params, extras):
    grid = int(params.get("theta_grid", PARAM_GRID["theta_grid"]))
    _require(grid >= 4, "L21c needs theta_grid >= 4")
    ber, j = rkhs.berezin_peak(space, t_mat)
    grid_sup = rkhs.ber_via_rotations(space, t_mat, grid)
    # grid of spacing 2*pi/G misses the optimal phase by at most pi/G
    rhs = grid_sup + (1.0 - math.cos(math.pi / grid)) * ber
    return [cert(ber, rhs, params={"theta_grid": grid}, witness={"j": j})]


def _p39_r310(cert, space, t_mat, params, extras, *, chain):
    r = float(params["r"])
    _require(r >= 1.0, "P39/R310 need r >= 1")
    ber, j = rkhs.berezin_peak(space, t_mat)
    top = numlin.operator_norm(t_mat) ** (2 * r)
    mid = 0.5 * (rkhs.berezin_number(space, t_mat @ t_mat) ** r + top)
    if chain:
        return _chain(cert, (ber ** (2 * r), mid, top), {"r": r}, witness={"j": j})
    return [cert(ber ** (2 * r), mid, params={"r": r}, witness={"j": j})]


def _t311(cert, space, t_mat, params, extras, *, statement):
    r, p, q = float(params["r"]), float(params["p"]), float(params["q"])
    e = float(params["e"])
    _conjugate_pair(p, q)
    _require(p >= q, "T311 needs p >= q")
    _require(r >= 1.0 and q * r >= 2.0, "T311 needs r >= 1 and q*r >= 2")
    _require(0.0 <= e <= 1.0, "T311 exponent pair needs e in [0, 1]")
    combo = _t311_combo(t_mat, r, p, q, e)
    pr = {"r": r, "p": p, "q": q, "e": e}
    if statement:
        ber, j = rkhs.berezin_peak(space, t_mat)
        rhs = 0.5 * (numlin.operator_norm(t_mat) ** (2 * r)
                     + rkhs.berezin_number(space, combo))
        return [cert(ber ** (2 * r), rhs, params=pr, witness={"j": j})]
    pairs = []
    for k in space.normalized_chart().T:
        tk = t_mat @ k
        tsk = t_mat.conj().T @ k
        pairs.append((abs(_inner(tk, k)) ** (2 * r),
                      0.5 * (np.linalg.norm(tk) ** r * np.linalg.norm(tsk) ** r
                             + (np.conj(k) @ (combo @ k)).real)))
    return _tightest(cert, pairs, params=pr)


def _t312(cert, space, t_mat, params, extras, *, statement):
    nu, tshift = float(params["nu"]), float(params["t"])
    _require(0.0 <= nu <= 1.0, "T312 needs nu in [0, 1]")
    eye = np.eye(space.dim, dtype=np.complex128)
    ber = rkhs.berezin_number(space, t_mat)
    rhs = (((1.0 - nu) ** 2 + nu**2) * ber**2
           + nu * numlin.operator_norm(t_mat - tshift * eye) ** 2
           + (1.0 - nu) * numlin.operator_norm(t_mat - 1j * tshift * eye) ** 2)
    pr = {"nu": nu, "t": tshift}
    if statement:
        return [cert(numlin.operator_norm(t_mat) ** 2, rhs, params=pr, witness={})]
    norms = np.linalg.norm(t_mat @ space.normalized_chart(), axis=0) ** 2
    j = int(np.argmax(norms))
    return [cert(float(norms[j]), rhs, params=pr, witness={"j": j})]


def _t32(cert, space, t_mat, params, extras):
    t = float(params["t"])
    _require(0.0 <= t <= 1.0, "T32 needs t in [0, 1]")
    _, modulus = numlin.polar_decompose(t_mat)
    ber, j = rkhs.berezin_peak(space, t_mat)
    p2t, p2s = numlin.matrix_power_psd(np.stack([modulus, modulus]),
                                       [2.0 * t, 2.0 * (1.0 - t)], support=True)
    rhs = (0.25 * numlin.operator_norm(p2t + p2s)
           + 0.5 * rkhs.berezin_number(space, blockops.aluthge_general(t_mat, t)))
    return [cert(ber, rhs, params={"t": t}, witness={"j": j})]


def _r33(cert, space, t_mat, params, extras):
    ber, j = rkhs.berezin_peak(space, t_mat)
    rhs = (0.5 * numlin.operator_norm(t_mat)
           + 0.5 * rkhs.berezin_number(space, blockops.aluthge_general(t_mat, 0.5)))
    return [cert(ber, rhs, params={"t": 0.5}, witness={"j": j})]


def _l22(cert, space, t_mat, params, extras, *, convex):
    r = float(params["r"])
    if convex:
        _require(r >= 1.0, "L22a needs r >= 1")
    else:
        _require(0.0 < r <= 1.0, "L22b needs 0 < r <= 1")
    tr_pow = numlin.matrix_power_psd(t_mat, r)
    pairs = []
    for k in space.normalized_chart().T:
        base = max((np.conj(k) @ (t_mat @ k)).real, 0.0) ** r
        powd = (np.conj(k) @ (tr_pow @ k)).real
        pairs.append((base, powd) if convex else (powd, base))
    return _tightest(cert, pairs, params={"r": r})


def _l23(cert, space, t_mat, params, extras):
    p = float(params["p"])
    _require(0.0 <= p <= 1.0, "L23 needs exponent p in [0, 1]")
    x = np.asarray(extras["x"], dtype=np.complex128)
    y = np.asarray(extras["y"], dtype=np.complex128)
    lhs = abs(_inner(t_mat @ x, y)) ** 2
    f2, g2 = _abs_powers([t_mat, t_mat.conj().T], [2.0 * p, 2.0 * (1.0 - p)])
    rhs = ((np.conj(x) @ (f2 @ x)).real * (np.conj(y) @ (g2 @ y)).real)
    return [cert(lhs, rhs, params={"p": p}, witness={},
                 digest=digest_inputs(t_mat, x, y, dict(params)))]


def _ber_hom(cert, space, t_mat, params, extras):
    alpha = complex(params.get("alpha_re", 1.0), params.get("alpha_im", 0.0))
    lhs = rkhs.berezin_number(space, alpha * t_mat)
    rhs = abs(alpha) * rkhs.berezin_number(space, t_mat)
    return [cert(lhs, rhs, params={"alpha_re": alpha.real, "alpha_im": alpha.imag},
                 witness={}, equality=True)]


def _ber_sub(cert, space, t_mat, params, extras):
    b_mat = space.check_operator(extras["B"])
    lhs = rkhs.berezin_number(space, t_mat + b_mat)
    rhs = rkhs.berezin_number(space, t_mat) + rkhs.berezin_number(space, b_mat)
    return [cert(lhs, rhs, params={}, witness={},
                 digest=digest_inputs(t_mat, b_mat, space.gram))]


def _ber_norm(cert, space, t_mat, params, extras):
    ber, j = rkhs.berezin_peak(space, t_mat)
    return [cert(ber, numlin.operator_norm(t_mat), params={}, witness={"j": j})]


# ---------------------------------------------------------------------------
# block checkers: evaluate(runs, block, params), where runs holds
# one (convention, certificate factory) pair per run of the draw. Operands
# and right sides do not depend on the convention, so each evaluate function
# computes them once per draw, and one kernel-pair grid gives every run its
# Berezin peak. The certificates come back in run order: aggregation and
# explore break ties by that order.

def _require_offdiag(block):
    _require(np.count_nonzero(block.S) == 0 and np.count_nonzero(block.R) == 0,
             "checker needs an off-diagonal block (S = R = 0)")


def _require_diag(block):
    _require(np.count_nonzero(block.X) == 0 and np.count_nonzero(block.Y) == 0,
             "checker needs a diagonal block (X = Y = 0)")


def _require_square(block):
    _require(block.space1.dim == block.space2.dim,
             "checker needs square off-diagonal blocks (n1 = n2)")


def _peaks(block, runs):
    """(certificate factory, Berezin value, witness) of each run, in run order.

    One kernel-pair grid serves every run's convention.
    """
    peaks = blockops.ber_block(block, tuple(conv for conv, _ in runs))
    for (_, cert), (value, (j1, j2)) in zip(runs, peaks):
        yield cert, value, {"j1": j1, "j2": j2}


def _t24_operands(block, r, p, variant):
    """PSD combination operators for the two-sided product bounds.

    variant "fg": (f^{2r}(|X|)+g^{2r}(|Y*|), f^{2r}(|Y|)+g^{2r}(|X*|))
    variant "ff": (f^{2r}(|X|)+f^{2r}(|Y*|), g^{2r}(|Y|)+g^{2r}(|X*|))
    First operand acts on space2, second on space1.
    """
    fe, ge = 2.0 * r * p, 2.0 * r * (1.0 - p)
    # X and Y* are both n1 x n2, Y and X* both n2 x n1: one stack for all
    # four when n1 = n2, else one per pair
    exps = [fe, ge, fe, ge] if variant == "fg" else [fe, fe, ge, ge]
    x2, ys2, y1, xs1 = _abs_powers(
        [block.X, block.Y.conj().T, block.Y, block.X.conj().T], exps)
    return x2 + ys2, y1 + xs1


def _psd_symbols(space, a):
    vals = rkhs.berezin_symbols(space, a).real
    return np.clip(vals, 0.0, None)


def _l21a(runs, block, params):
    _require_diag(block)
    rhs = max(rkhs.berezin_number(block.space1, block.S),
              rkhs.berezin_number(block.space2, block.R))
    return [cert(lhs, rhs, params=params, witness=wit)
            for cert, lhs, wit in _peaks(block, runs)]


def _l21b(runs, block, params):
    _require_offdiag(block)
    rhs = 0.5 * (numlin.operator_norm(block.X) + numlin.operator_norm(block.Y))
    return [cert(lhs, rhs, params=params, witness=wit)
            for cert, lhs, wit in _peaks(block, runs)]


def _ineq1(runs, block, params):
    _require_offdiag(block)
    s = float(params["s"])
    p = float(params["p"])
    _require(s >= 1.0, "INEQ1 needs power h(t) = t^s with s >= 1")
    _require(0.0 <= p <= 1.0, "INEQ1 needs exponent p in [0, 1]")
    exps = [2 * p * s, 2 * (1 - p) * s]
    y_f, y_g, x_f, x_g = _abs_powers([block.Y, block.Y, block.X, block.X], exps + exps)
    rhs = 0.25 * numlin.operator_norm(y_f + y_g) + 0.25 * numlin.operator_norm(x_f + x_g)
    return [cert(value**s, rhs, params=params, witness=wit)
            for cert, value, wit in _peaks(block, runs)]


def _t24(runs, block, params, *, variant="fg", fixed=None):
    _require_offdiag(block)
    r, p = fixed or (float(params["r"]), float(params["p"]))
    _require(r >= 1.0, "T24/C25/R26 need r >= 1")
    _require(0.0 <= p <= 1.0, "T24/C25/R26 need p in [0, 1]")
    op2, op1 = _t24_operands(block, r, p, variant)
    rhs = (2.0**r / 2.0
           * math.sqrt(rkhs.berezin_number(block.space2, op2))
           * math.sqrt(rkhs.berezin_number(block.space1, op1)))
    return [cert(value**r, rhs, params=params, witness=wit)
            for cert, value, wit in _peaks(block, runs)]


def _c27(runs, block, params):
    _require_offdiag(block)
    _require_square(block)
    _require(np.array_equal(block.X, block.Y), "C27 needs Y = X")
    abs_x, abs_xs = numlin.matrix_abs(np.stack([block.X, block.X.conj().T]))
    combo = abs_x + abs_xs
    mid = 0.5 * rkhs.berezin_number(block.space1, combo)
    top = numlin.operator_norm(block.X)
    return [link for cert, value, wit in _peaks(block, runs)
            for link in _chain(cert, (value, mid, top), params, witness=wit)]


def _c28(runs, block, params):
    _require_offdiag(block)
    op2, op1 = _t24_operands(block, 1.0, 0.5, "fg")
    ber2 = rkhs.berezin_number(block.space2, op2)
    ber1 = rkhs.berezin_number(block.space1, op1)
    prod = 0.5 * math.sqrt(ber2) * math.sqrt(ber1)
    mean = 0.25 * (ber2 + ber1)
    top = 0.5 * max(ber2, ber1)
    return [link for cert, value, wit in _peaks(block, runs)
            for link in _chain(cert, (value, prod, mean, top), params, witness=wit)]


def _t29(runs, block, params, *, tied=False):
    _require_offdiag(block)
    r, p = float(params["r"]), float(params["p"])
    _require(r >= 1.0, "T29/C210 need r >= 1")
    _require(0.0 <= p <= 1.0, "T29/C210 need p in [0, 1]")
    if tied:
        _require_square(block)
        _require(np.array_equal(block.X, block.Y), "C210 needs Y = X")
    op2, op1 = _t24_operands(block, r, p, "fg")
    avals = _psd_symbols(block.space2, op2)
    bvals = _psd_symbols(block.space1, op1)
    eta = (np.sqrt(avals)[None, :] - np.sqrt(bvals)[:, None]) ** 2
    eta_inf = float(np.min(eta))
    if tied:
        head = 2.0 ** (r - 1) * numlin.operator_norm(op2)
    else:
        head = 2.0 ** (r - 2) * (float(np.max(avals)) + float(np.max(bvals)))
    rhs = head - 2.0 ** (r - 2) * eta_inf
    return [cert(value**r, rhs, params=params, witness={**wit, "eta_inf": eta_inf})
            for cert, value, wit in _peaks(block, runs)]


def _moduli(block):
    """The stack |Y|, |X*|, |X|, |Y*| of a block with square X, Y."""
    return numlin.matrix_abs(np.stack([block.Y, block.X.conj().T, block.X,
                                       block.Y.conj().T]))


def _t31(runs, block, params, *, tilted):
    _require_offdiag(block)
    _require_square(block)
    t = float(params["t"])
    _require(0.0 <= t <= 1.0, "T31/C34 need t in [0, 1]")
    y_t, xs_s, x_t, ys_s = numlin.matrix_power_psd(
        _moduli(block), [t, 1.0 - t, t, 1.0 - t], support=True)
    cross = 0.5 * (numlin.operator_norm(y_t @ xs_s)
                   + numlin.operator_norm(x_t @ ys_s))
    if tilted:
        transform = blockops.aluthge_offdiag(block.X, block.Y, t,
                                             space1=block.space1, space2=block.space2)
        return [cert(value, cross, params=params, witness=wit)
                for cert, value, wit in _peaks(transform, runs)]
    rhs = 0.5 * max(numlin.operator_norm(block.X),
                    numlin.operator_norm(block.Y)) + 0.5 * cross
    return [cert(value, rhs, params=params, witness=wit)
            for cert, value, wit in _peaks(block, runs)]


def _c35(runs, block, params):
    _require_offdiag(block)
    _require_square(block)
    half_y, half_xs, half_x, half_ys = numlin.matrix_power_psd(
        _moduli(block), 0.5, support=True)
    rhs = (max(numlin.operator_norm(block.X), numlin.operator_norm(block.Y))
           + 0.5 * (numlin.operator_norm(half_x @ half_y)
                    + numlin.operator_norm(half_xs @ half_ys)))
    readings = (("sum", numlin.operator_norm(block.X + block.Y)),
                ("adjoint_sum", numlin.operator_norm(block.X + block.Y.conj().T)))
    # both readings of the statement are recorded, never gated
    return [cert(lhs, rhs, params={**params, "reading": reading}, witness={},
                 convention=None, mode=INFORMATIONAL)
            for _, cert in runs for reading, lhs in readings]


def _t36(runs, block, params, *, swap=False):
    alpha = float(params["alpha"])
    _require(0.0 <= alpha <= 1.0, "T36/T37 need alpha in [0, 1]")
    ber_s = rkhs.berezin_number(block.space1, block.S)
    ber_r = rkhs.berezin_number(block.space2, block.R)
    nx = numlin.operator_norm(block.X)
    ny = numlin.operator_norm(block.Y)
    if swap:  # T37 is T36 with the roles of S, X and R, Y exchanged
        ber_s, ber_r, nx, ny = ber_r, ber_s, ny, nx
    rhs = (0.5 * ber_s + ber_r
           + 0.5 * math.sqrt(alpha**2 * ber_s**2 + nx**2)
           + 0.5 * math.sqrt((1.0 - alpha) ** 2 * ber_s**2 + ny**2))
    return [cert(value, rhs, params=params, witness=wit)
            for cert, value, wit in _peaks(block, runs)]


# ---------------------------------------------------------------------------
# the registry

# the values each sampled parameter is drawn from; a report echoes them
PARAM_GRID = {
    "r": (1.0, 1.5, 2.0, 3.0),
    "p": (0.0, 0.25, 0.5, 0.75, 1.0),
    "t": (0.0, 0.25, 0.5, 0.75, 1.0),
    "alpha": (0.0, 0.5, 1.0),
    "nu": (0.0, 0.25, 0.5, 0.75, 1.0),
    "m": (1, 2, 3),
    "s": (1.0, 2.0),
    "theta_grid": 720,
}


def choice(rng, seq):
    """One uniformly drawn element of ``seq``."""
    return seq[int(rng.integers(len(seq)))]


def _grid(*names):
    """Sampler drawing each named parameter from its grid, in this order."""
    return lambda rng: {name: choice(rng, PARAM_GRID[name]) for name in names}


def _sample_i38(rng):
    p, q = choice(rng, CONJUGATE_PAIRS)
    return {"p": p, "q": q, "r": choice(rng, PARAM_GRID["r"])}


def _sample_t311(rng):
    p, q = choice(rng, CONJUGATE_PAIRS)
    valid_r = [r for r in PARAM_GRID["r"] if q * r >= 2.0 - 1e-12]
    return {"p": p, "q": q, "r": choice(rng, valid_r),
            "e": choice(rng, PARAM_GRID["p"])}


@dataclass(frozen=True)
class Checker:
    """How a campaign draws, runs and evaluates one checker.

    ``shape`` names the operands ``harness.draw_trial`` draws: scalars
    a, b ("pair"); vectors a, b, e ("vectors"); a space and an operator T
    from a random ensemble ("operator") or the psd one ("psd"); or a block
    ("diag", "offdiag", "tied_square", "offdiag_square", "full").
    ``extras`` are further (name, "vector" | "operator" | "complex")
    operands drawn after T; a complex one becomes params name_re, name_im.
    ``sample(rng)`` draws the params from ``PARAM_GRID`` before any operand.
    ``runs`` holds the (convention, mode) of each evaluation of a draw.
    ``evaluate`` has any variant keywords of its function already bound.
    """

    shape: str
    evaluate: Callable
    sample: Callable = _grid()
    runs: tuple = ((None, GATING),)
    extras: tuple = ()

    @property
    def kind(self):
        if self.shape in ("pair", "vectors"):
            return SCALAR
        return SINGLE if self.shape in ("operator", "psd") else BLOCK


_INFO = ((None, INFORMATIONAL),)
_JOINT = (("joint", GATING),)
_PAIR_GATED = (("pair", GATING), ("joint", INFORMATIONAL))
_JOINT_GATED = (("joint", GATING), ("pair", INFORMATIONAL))

CHECKERS = {
    "YOUNG2": Checker("pair", _young2,
                      lambda rng: {"m": int(choice(rng, PARAM_GRID["m"]))}),
    "I37": Checker("pair", _i37, _grid("nu", "r")),
    "I38": Checker("pair", _i38, _sample_i38),
    "S310": Checker("vectors", _s310),
    "L21c": Checker("operator", _l21c,
                    lambda rng: {"theta_grid": PARAM_GRID["theta_grid"]}),
    "P39": Checker("operator", partial(_p39_r310, chain=False), _grid("r")),
    "R310": Checker("operator", partial(_p39_r310, chain=True), _grid("r")),
    "T311_proof": Checker("operator", partial(_t311, statement=False), _sample_t311),
    "T311_stmt": Checker("operator", partial(_t311, statement=True), _sample_t311,
                         _INFO),
    "T312_proof": Checker("operator", partial(_t312, statement=False),
                          _grid("nu", "t")),
    "T312_stmt": Checker("operator", partial(_t312, statement=True),
                         _grid("nu", "t"), _INFO),
    "T32": Checker("operator", _t32, _grid("t")),
    "R33": Checker("operator", _r33),
    "L22a": Checker("psd", partial(_l22, convex=True), _grid("r")),
    "L22b": Checker("psd", partial(_l22, convex=False),
                    lambda rng: {"r": 1.0 / choice(rng, PARAM_GRID["r"])}),
    "L23": Checker("operator", _l23, _grid("p"),
                   extras=(("x", "vector"), ("y", "vector"))),
    "BER_HOM": Checker("operator", _ber_hom, extras=(("alpha", "complex"),)),
    "BER_SUB": Checker("operator", _ber_sub, extras=(("B", "operator"),)),
    "BER_NORM": Checker("operator", _ber_norm),
    "L21a": Checker("diag", _l21a, runs=_JOINT_GATED),
    "L21b": Checker("offdiag", _l21b, runs=_JOINT_GATED),
    "INEQ1": Checker("offdiag", _ineq1, _grid("s", "p"), _JOINT_GATED),
    "T24a": Checker("offdiag", _t24, _grid("r", "p"), _PAIR_GATED),
    "T24b": Checker("offdiag", partial(_t24, variant="ff"), _grid("r", "p"),
                    _PAIR_GATED),
    "C25a": Checker("offdiag", _t24, _grid("r", "p"), _PAIR_GATED),
    "C25b": Checker("offdiag", partial(_t24, variant="ff"), _grid("r", "p"),
                    _PAIR_GATED),
    "R26": Checker("offdiag", partial(_t24, fixed=(1.0, 0.5)), runs=_JOINT_GATED),
    "C27": Checker("tied_square", _c27, runs=_JOINT_GATED),
    "C28": Checker("offdiag", _c28, runs=_JOINT_GATED),
    "T29": Checker("offdiag", _t29, _grid("r", "p"), _PAIR_GATED),
    "C210": Checker("tied_square", partial(_t29, tied=True), _grid("r", "p"),
                    _PAIR_GATED),
    "T31": Checker("offdiag_square", partial(_t31, tilted=True), _grid("t"), _JOINT),
    "C34": Checker("offdiag_square", partial(_t31, tilted=False), _grid("t"), _JOINT),
    "C35": Checker("offdiag_square", _c35, runs=_INFO),
    "T36": Checker("full", _t36, _grid("alpha"), _JOINT),
    "T37": Checker("full", partial(_t36, swap=True), _grid("alpha"), _JOINT),
}

SCALAR_IDS = tuple(tid for tid, c in CHECKERS.items() if c.kind == SCALAR)


def _lookup(theorem_id, kind):
    """The registry record of checker ``theorem_id``, which must be of ``kind``."""
    checker = CHECKERS.get(theorem_id)
    if checker is None or checker.kind != kind:
        raise BadParams(f"unknown {kind} checker {theorem_id!r}")
    return checker


def _factory(theorem_id, run, digest, check_tol):
    """Certificate factory for one (convention, mode) run of a checker."""
    conv, mode = run
    return partial(make_certificate, theorem_id, convention=conv,
                   mode=mode, digest=digest, check_tol=check_tol)


def check_scalar(theorem_id, params, inputs, check_tol=CHECK_TOL):
    """Scalar / vector inequality checkers. Returns a list of Certificates."""
    checker = _lookup(theorem_id, SCALAR)
    cert = _factory(theorem_id, checker.runs[0], "", check_tol)
    return checker.evaluate(cert, params, inputs)


def check_single(theorem_id, space, t_mat, params, extras=None,
                 check_tol=CHECK_TOL):
    """Single-operator checkers on one kernel space. Returns Certificates."""
    t_mat = space.check_operator(t_mat)
    digest = digest_inputs(t_mat, space.gram, dict(params))
    checker = _lookup(theorem_id, SINGLE)
    cert = _factory(theorem_id, checker.runs[0], digest, check_tol)
    return checker.evaluate(cert, space, t_mat, params, extras or {})


def check_block_runs(theorem_id, block, params, runs, check_tol=CHECK_TOL):
    """Block-operator checkers at each (convention, mode) of ``runs``.

    The input digest and the convention-independent operands are computed
    once; the certificates of every run come back in ``runs`` order.
    """
    checker = _lookup(theorem_id, BLOCK)
    digest = digest_inputs(block.S, block.X, block.Y, block.R,
                           block.space1.gram, block.space2.gram, dict(params))
    factories = tuple((run[0], _factory(theorem_id, run, digest, check_tol))
                      for run in runs)
    return checker.evaluate(factories, block, params)


def check_block(theorem_id, block, conv, params, mode=GATING,
                check_tol=CHECK_TOL):
    """Block-operator checkers at one explicit Berezin convention."""
    return check_block_runs(theorem_id, block, params, ((conv, mode),),
                            check_tol=check_tol)
