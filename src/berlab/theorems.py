"""Inequality checkers emitting slack certificates.

Each checker evaluates the left and right side of one inequality on
concrete inputs and returns Certificate records. Chain inequalities emit
one certificate per link (the link number is recorded in the params map).
Checkers flagged informational are recorded but never fail a campaign.

``CHECKERS`` is the registry: one ``Checker`` record per checker id says
how a campaign draws its inputs, which conventions it runs at and which
function evaluates it.
"""

import functools
import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import blockops, numlin, rkhs
from .errors import BadParams

GATING = "gating"
INFORMATIONAL = "informational"

CHECK_TOL = 1e-9
TOL_FLOOR = 1e-12

# checker kinds: which check_* function evaluates the checker
SCALAR = "scalar"
SINGLE = "single"
BLOCK = "block"

# Hoelder-conjugate (p, q) pairs with p >= q used by I38 and T311.
CONJUGATE_PAIRS = ((2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0))


def slack_tolerance(rhs, check_tol=CHECK_TOL):
    """Allowed negative slack for a certificate with the given rhs."""
    return max(TOL_FLOOR, check_tol * (1.0 + abs(rhs)))


@dataclass(frozen=True)
class Certificate:
    """One evaluated inequality instance."""

    theorem_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    mode: str = GATING
    convention: str = None
    params: dict = field(default_factory=dict)
    witness: dict = field(default_factory=dict)
    input_digest: str = ""

    def to_dict(self):
        return {
            "theorem_id": self.theorem_id,
            "convention": self.convention,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "holds": self.holds,
            "mode": self.mode,
            "witness": dict(self.witness),
            "input_digest": self.input_digest,
        }


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
# scalar checkers: evaluate(theorem_id, cert, params, inputs)

def _young2(tid, cert, params, inputs):
    a, b = float(inputs[0]), float(inputs[1])
    m = params["m"]
    _require(a >= 0 and b >= 0, "YOUNG2 needs a, b >= 0")
    _require(int(m) == m and m >= 1, "YOUNG2 needs positive integer m")
    m = int(m)
    lhs = math.sqrt(a * b) ** m + 0.5**m * (a ** (m / 2.0) - b ** (m / 2.0)) ** 2
    rhs = 2.0**-m * (a + b) ** m
    return [cert(lhs, rhs, params={"m": m}, witness={"a": a, "b": b},
                 digest=digest_inputs(a, b, m))]


def _i37(tid, cert, params, inputs):
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


def _i38(tid, cert, params, inputs):
    a, b = float(inputs[0]), float(inputs[1])
    p, q, r = float(params["p"]), float(params["q"]), float(params["r"])
    _require(a >= 0 and b >= 0, "I38 needs a, b >= 0")
    _conjugate_pair(p, q)
    _require(r >= 1.0, "I38 needs r >= 1")
    young = a**p / p + b**q / q
    outer = (a ** (p * r) / p + b ** (q * r) / q) ** (1.0 / r)
    return _chain(cert, (a * b, young, outer), {"p": p, "q": q, "r": r},
                  witness={"a": a, "b": b}, digest=digest_inputs(a, b, p, q, r))


def _s310(tid, cert, params, inputs):
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
# single-operator checkers: evaluate(theorem_id, cert, space, T, params, extras)

def _abs_power(t_mat, p):
    return numlin.matrix_power_psd(numlin.matrix_abs(t_mat), p)


def _t311_combo(t_mat, r, p, q, e):
    """(1/p) f^{pr}(|T^2|) + (1/q) g^{qr}(|(T^2)*|) with f = s^e, g = s^(1-e)."""
    t2 = t_mat @ t_mat
    left = _abs_power(t2, e * p * r)
    right = _abs_power(t2.conj().T, (1.0 - e) * q * r)
    return left / p + right / q


def _l21c(tid, cert, space, t_mat, params, extras):
    grid = int(params.get("theta_grid", 720))
    _require(grid >= 4, "L21c needs theta_grid >= 4")
    ber, j = rkhs.berezin_peak(space, t_mat)
    grid_sup = rkhs.ber_via_rotations(space, t_mat, grid)
    # grid of spacing 2*pi/G misses the optimal phase by at most pi/G
    rhs = grid_sup + (1.0 - math.cos(math.pi / grid)) * ber
    return [cert(ber, rhs, params={"theta_grid": grid}, witness={"j": j})]


def _p39_r310(tid, cert, space, t_mat, params, extras):
    r = float(params["r"])
    _require(r >= 1.0, f"{tid} needs r >= 1")
    ber, j = rkhs.berezin_peak(space, t_mat)
    top = numlin.operator_norm(t_mat) ** (2 * r)
    mid = 0.5 * (rkhs.berezin_number(space, t_mat @ t_mat) ** r + top)
    if tid == "P39":
        return [cert(ber ** (2 * r), mid, params={"r": r}, witness={"j": j})]
    return _chain(cert, (ber ** (2 * r), mid, top), {"r": r}, witness={"j": j})


def _t311(tid, cert, space, t_mat, params, extras):
    r, p, q = float(params["r"]), float(params["p"]), float(params["q"])
    e = float(params["e"])
    _conjugate_pair(p, q)
    _require(p >= q, "T311 needs p >= q")
    _require(r >= 1.0 and q * r >= 2.0, "T311 needs r >= 1 and q*r >= 2")
    _require(0.0 <= e <= 1.0, "T311 exponent pair needs e in [0, 1]")
    combo = _t311_combo(t_mat, r, p, q, e)
    pr = {"r": r, "p": p, "q": q, "e": e}
    if tid == "T311_stmt":
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


def _t312(tid, cert, space, t_mat, params, extras):
    nu, tshift = float(params["nu"]), float(params["t"])
    _require(0.0 <= nu <= 1.0, "T312 needs nu in [0, 1]")
    eye = np.eye(space.dim, dtype=np.complex128)
    ber = rkhs.berezin_number(space, t_mat)
    rhs = (((1.0 - nu) ** 2 + nu**2) * ber**2
           + nu * numlin.operator_norm(t_mat - tshift * eye) ** 2
           + (1.0 - nu) * numlin.operator_norm(t_mat - 1j * tshift * eye) ** 2)
    pr = {"nu": nu, "t": tshift}
    if tid == "T312_stmt":
        return [cert(numlin.operator_norm(t_mat) ** 2, rhs, params=pr, witness={})]
    norms = np.linalg.norm(t_mat @ space.normalized_chart(), axis=0) ** 2
    j = int(np.argmax(norms))
    return [cert(float(norms[j]), rhs, params=pr, witness={"j": j})]


def _t32(tid, cert, space, t_mat, params, extras):
    t = float(params["t"])
    _require(0.0 <= t <= 1.0, "T32 needs t in [0, 1]")
    parts = numlin.polar_decompose(t_mat)
    ber, j = rkhs.berezin_peak(space, t_mat)
    p2t = numlin.matrix_power_psd(parts.modulus, 2.0 * t, support=True)
    p2s = numlin.matrix_power_psd(parts.modulus, 2.0 * (1.0 - t), support=True)
    rhs = (0.25 * numlin.operator_norm(p2t + p2s)
           + 0.5 * rkhs.berezin_number(space, blockops.aluthge_general(t_mat, t)))
    return [cert(ber, rhs, params={"t": t}, witness={"j": j})]


def _r33(tid, cert, space, t_mat, params, extras):
    ber, j = rkhs.berezin_peak(space, t_mat)
    rhs = (0.5 * numlin.operator_norm(t_mat)
           + 0.5 * rkhs.berezin_number(space, blockops.aluthge_general(t_mat, 0.5)))
    return [cert(ber, rhs, params={"t": 0.5}, witness={"j": j})]


def _l22(tid, cert, space, t_mat, params, extras):
    r = float(params["r"])
    if tid == "L22a":
        _require(r >= 1.0, "L22a needs r >= 1")
    else:
        _require(0.0 < r <= 1.0, "L22b needs 0 < r <= 1")
    tr_pow = numlin.matrix_power_psd(t_mat, r)
    pairs = []
    for k in space.normalized_chart().T:
        base = max((np.conj(k) @ (t_mat @ k)).real, 0.0) ** r
        powd = (np.conj(k) @ (tr_pow @ k)).real
        pairs.append((base, powd) if tid == "L22a" else (powd, base))
    return _tightest(cert, pairs, params={"r": r})


def _l23(tid, cert, space, t_mat, params, extras):
    p = float(params["p"])
    _require(0.0 <= p <= 1.0, "L23 needs exponent p in [0, 1]")
    x = np.asarray(extras["x"], dtype=np.complex128)
    y = np.asarray(extras["y"], dtype=np.complex128)
    lhs = abs(_inner(t_mat @ x, y)) ** 2
    f2 = _abs_power(t_mat, 2.0 * p)
    g2 = _abs_power(t_mat.conj().T, 2.0 * (1.0 - p))
    rhs = ((np.conj(x) @ (f2 @ x)).real * (np.conj(y) @ (g2 @ y)).real)
    return [cert(lhs, rhs, params={"p": p}, witness={},
                 digest=digest_inputs(t_mat, x, y, dict(params)))]


def _ber_hom(tid, cert, space, t_mat, params, extras):
    alpha = complex(params.get("alpha_re", 1.0), params.get("alpha_im", 0.0))
    lhs = rkhs.berezin_number(space, alpha * t_mat)
    rhs = abs(alpha) * rkhs.berezin_number(space, t_mat)
    return [cert(lhs, rhs, params={"alpha_re": alpha.real, "alpha_im": alpha.imag},
                 witness={}, equality=True)]


def _ber_sub(tid, cert, space, t_mat, params, extras):
    b_mat = space.check_operator(extras["B"])
    lhs = rkhs.berezin_number(space, t_mat + b_mat)
    rhs = rkhs.berezin_number(space, t_mat) + rkhs.berezin_number(space, b_mat)
    return [cert(lhs, rhs, params={}, witness={},
                 digest=digest_inputs(t_mat, b_mat, space.gram))]


def _ber_norm(tid, cert, space, t_mat, params, extras):
    ber, j = rkhs.berezin_peak(space, t_mat)
    return [cert(ber, numlin.operator_norm(t_mat), params={}, witness={"j": j})]


# ---------------------------------------------------------------------------
# block checkers: evaluate(theorem_id, cert, block, convention, params)

def _require_offdiag(block):
    _require(np.count_nonzero(block.S) == 0 and np.count_nonzero(block.R) == 0,
             "checker needs an off-diagonal block (S = R = 0)")


def _require_diag(block):
    _require(np.count_nonzero(block.X) == 0 and np.count_nonzero(block.Y) == 0,
             "checker needs a diagonal block (X = Y = 0)")


def _require_square(block):
    _require(block.space1.dim == block.space2.dim,
             "checker needs square off-diagonal blocks (n1 = n2)")


def _block_peak(block, conv):
    value, (j1, j2) = blockops.ber_block(block, conv)
    return value, {"j1": j1, "j2": j2}


def _t24_operands(block, r, p, variant):
    """PSD combination operators for the two-sided product bounds.

    variant "fg": (f^{2r}(|X|)+g^{2r}(|Y*|), f^{2r}(|Y|)+g^{2r}(|X*|))
    variant "ff": (f^{2r}(|X|)+f^{2r}(|Y*|), g^{2r}(|Y|)+g^{2r}(|X*|))
    First operand acts on space2, second on space1.
    """
    fe, ge = 2.0 * r * p, 2.0 * r * (1.0 - p)
    if variant == "fg":
        op2 = _abs_power(block.X, fe) + _abs_power(block.Y.conj().T, ge)
        op1 = _abs_power(block.Y, fe) + _abs_power(block.X.conj().T, ge)
    else:
        op2 = _abs_power(block.X, fe) + _abs_power(block.Y.conj().T, fe)
        op1 = _abs_power(block.Y, ge) + _abs_power(block.X.conj().T, ge)
    return op2, op1


def _psd_symbols(space, a):
    vals = rkhs.berezin_symbols(space, a).real
    return np.clip(vals, 0.0, None)


def _l21a(tid, cert, block, conv, params):
    _require_diag(block)
    lhs, wit = _block_peak(block, conv)
    rhs = max(rkhs.berezin_number(block.space1, block.S),
              rkhs.berezin_number(block.space2, block.R))
    return [cert(lhs, rhs, params=params, witness=wit)]


def _l21b(tid, cert, block, conv, params):
    _require_offdiag(block)
    lhs, wit = _block_peak(block, conv)
    rhs = 0.5 * (numlin.operator_norm(block.X) + numlin.operator_norm(block.Y))
    return [cert(lhs, rhs, params=params, witness=wit)]


def _ineq1(tid, cert, block, conv, params):
    _require_offdiag(block)
    s = float(params["s"])
    p = float(params["p"])
    _require(s >= 1.0, "INEQ1 needs power h(t) = t^s with s >= 1")
    _require(0.0 <= p <= 1.0, "INEQ1 needs exponent p in [0, 1]")
    value, wit = _block_peak(block, conv)
    rhs = 0.25 * numlin.operator_norm(
        _abs_power(block.Y, 2 * p * s) + _abs_power(block.Y, 2 * (1 - p) * s)
    ) + 0.25 * numlin.operator_norm(
        _abs_power(block.X, 2 * p * s) + _abs_power(block.X, 2 * (1 - p) * s)
    )
    return [cert(value**s, rhs, params=params, witness=wit)]


def _t24(tid, cert, block, conv, params):
    _require_offdiag(block)
    if tid == "R26":
        r, p = 1.0, 0.5
    else:
        r, p = float(params["r"]), float(params["p"])
    _require(r >= 1.0, f"{tid} needs r >= 1")
    _require(0.0 <= p <= 1.0, f"{tid} needs p in [0, 1]")
    variant = "ff" if tid in ("T24b", "C25b") else "fg"
    op2, op1 = _t24_operands(block, r, p, variant)
    value, wit = _block_peak(block, conv)
    rhs = (2.0**r / 2.0
           * math.sqrt(rkhs.berezin_number(block.space2, op2))
           * math.sqrt(rkhs.berezin_number(block.space1, op1)))
    return [cert(value**r, rhs, params=params, witness=wit)]


def _c27(tid, cert, block, conv, params):
    _require_offdiag(block)
    _require_square(block)
    _require(np.array_equal(block.X, block.Y), "C27 needs Y = X")
    value, wit = _block_peak(block, conv)
    combo = numlin.matrix_abs(block.X) + numlin.matrix_abs(block.X.conj().T)
    mid = 0.5 * rkhs.berezin_number(block.space1, combo)
    return _chain(cert, (value, mid, numlin.operator_norm(block.X)), params,
                  witness=wit)


def _c28(tid, cert, block, conv, params):
    _require_offdiag(block)
    op2, op1 = _t24_operands(block, 1.0, 0.5, "fg")
    ber2 = rkhs.berezin_number(block.space2, op2)
    ber1 = rkhs.berezin_number(block.space1, op1)
    value, wit = _block_peak(block, conv)
    prod = 0.5 * math.sqrt(ber2) * math.sqrt(ber1)
    mean = 0.25 * (ber2 + ber1)
    top = 0.5 * max(ber2, ber1)
    return _chain(cert, (value, prod, mean, top), params, witness=wit)


def _t29(tid, cert, block, conv, params):
    _require_offdiag(block)
    r, p = float(params["r"]), float(params["p"])
    _require(r >= 1.0, f"{tid} needs r >= 1")
    _require(0.0 <= p <= 1.0, f"{tid} needs p in [0, 1]")
    if tid == "C210":
        _require_square(block)
        _require(np.array_equal(block.X, block.Y), "C210 needs Y = X")
    op2, op1 = _t24_operands(block, r, p, "fg")
    avals = _psd_symbols(block.space2, op2)
    bvals = _psd_symbols(block.space1, op1)
    eta = (np.sqrt(avals)[None, :] - np.sqrt(bvals)[:, None]) ** 2
    eta_inf = float(np.min(eta))
    value, wit = _block_peak(block, conv)
    if tid == "T29":
        head = 2.0 ** (r - 2) * (float(np.max(avals)) + float(np.max(bvals)))
    else:
        head = 2.0 ** (r - 1) * numlin.operator_norm(op2)
    rhs = head - 2.0 ** (r - 2) * eta_inf
    wit["eta_inf"] = eta_inf
    return [cert(value**r, rhs, params=params, witness=wit)]


def _t31(tid, cert, block, conv, params):
    _require_offdiag(block)
    _require_square(block)
    t = float(params["t"])
    _require(0.0 <= t <= 1.0, f"{tid} needs t in [0, 1]")
    abs_x = numlin.matrix_abs(block.X)
    abs_y = numlin.matrix_abs(block.Y)
    abs_xs = numlin.matrix_abs(block.X.conj().T)
    abs_ys = numlin.matrix_abs(block.Y.conj().T)
    spow = functools.partial(numlin.matrix_power_psd, support=True)
    cross = 0.5 * (numlin.operator_norm(spow(abs_y, t) @ spow(abs_xs, 1.0 - t))
                   + numlin.operator_norm(spow(abs_x, t) @ spow(abs_ys, 1.0 - t)))
    if tid == "T31":
        tilted = blockops.aluthge_offdiag(block.X, block.Y, t,
                                          space1=block.space1, space2=block.space2)
        value, wit = _block_peak(tilted, conv)
        return [cert(value, cross, params=params, witness=wit)]
    value, wit = _block_peak(block, conv)
    rhs = 0.5 * max(numlin.operator_norm(block.X),
                    numlin.operator_norm(block.Y)) + 0.5 * cross
    return [cert(value, rhs, params=params, witness=wit)]


def _c35(tid, cert, block, conv, params):
    _require_offdiag(block)
    _require_square(block)
    spow = functools.partial(numlin.matrix_power_psd, support=True)
    half_x = spow(numlin.matrix_abs(block.X), 0.5)
    half_y = spow(numlin.matrix_abs(block.Y), 0.5)
    half_xs = spow(numlin.matrix_abs(block.X.conj().T), 0.5)
    half_ys = spow(numlin.matrix_abs(block.Y.conj().T), 0.5)
    rhs = (max(numlin.operator_norm(block.X), numlin.operator_norm(block.Y))
           + 0.5 * (numlin.operator_norm(half_x @ half_y)
                    + numlin.operator_norm(half_xs @ half_ys)))
    # both readings of the statement are recorded, never gated
    kw = dict(witness={}, convention=None, mode=INFORMATIONAL)
    return [
        cert(numlin.operator_norm(block.X + block.Y), rhs,
             params={**params, "reading": "sum"}, **kw),
        cert(numlin.operator_norm(block.X + block.Y.conj().T), rhs,
             params={**params, "reading": "adjoint_sum"}, **kw),
    ]


def _t36(tid, cert, block, conv, params):
    alpha = float(params["alpha"])
    _require(0.0 <= alpha <= 1.0, f"{tid} needs alpha in [0, 1]")
    value, wit = _block_peak(block, conv)
    ber_s = rkhs.berezin_number(block.space1, block.S)
    ber_r = rkhs.berezin_number(block.space2, block.R)
    nx = numlin.operator_norm(block.X)
    ny = numlin.operator_norm(block.Y)
    if tid == "T36":
        rhs = (0.5 * ber_s + ber_r
               + 0.5 * math.sqrt(alpha**2 * ber_s**2 + nx**2)
               + 0.5 * math.sqrt((1.0 - alpha) ** 2 * ber_s**2 + ny**2))
    else:
        rhs = (0.5 * ber_r + ber_s
               + 0.5 * math.sqrt(alpha**2 * ber_r**2 + ny**2)
               + 0.5 * math.sqrt((1.0 - alpha) ** 2 * ber_r**2 + nx**2))
    return [cert(value, rhs, params=params, witness=wit)]


# ---------------------------------------------------------------------------
# the registry

def choice(rng, seq):
    """One uniformly drawn element of ``seq``."""
    return seq[int(rng.integers(len(seq)))]


def _grid(*names):
    """Sampler drawing each named parameter from its grid, in this order."""
    return lambda rng, grid: {name: choice(rng, grid[name]) for name in names}


def _sample_i38(rng, grid):
    p, q = choice(rng, CONJUGATE_PAIRS)
    return {"p": p, "q": q, "r": choice(rng, grid["r"])}


def _sample_t311(rng, grid):
    p, q = choice(rng, CONJUGATE_PAIRS)
    valid_r = [r for r in grid["r"] if q * r >= 2.0 - 1e-12]
    return {"p": p, "q": q, "r": choice(rng, valid_r), "e": choice(rng, grid["p"])}


@dataclass(frozen=True)
class Checker:
    """How a campaign draws, runs and evaluates one checker.

    ``shape`` names the operands ``harness.draw_trial`` draws: scalars
    a, b ("pair"); vectors a, b, e ("vectors"); a space and an operator T
    from a random ensemble ("operator") or the psd one ("psd"); or a block
    ("diag", "offdiag", "tied_square", "offdiag_square", "full").
    ``extras`` are further (name, "vector" | "operator" | "complex")
    operands drawn after T; a complex one becomes params name_re, name_im.
    ``sample(rng, param_grid)`` draws the params before any operand.
    ``runs`` holds the (convention, mode) of each evaluation of a draw.
    """

    kind: str
    shape: str
    evaluate: Callable
    sample: Callable = _grid()
    runs: tuple = ((None, GATING),)
    extras: tuple = ()


_INFO = ((None, INFORMATIONAL),)
_JOINT = (("joint", GATING),)
_PAIR_GATED = (("pair", GATING), ("joint", INFORMATIONAL))
_JOINT_GATED = (("joint", GATING), ("pair", INFORMATIONAL))

CHECKERS = {
    "YOUNG2": Checker(SCALAR, "pair", _young2,
                      lambda rng, grid: {"m": int(choice(rng, grid["m"]))}),
    "I37": Checker(SCALAR, "pair", _i37, _grid("nu", "r")),
    "I38": Checker(SCALAR, "pair", _i38, _sample_i38),
    "S310": Checker(SCALAR, "vectors", _s310),
    "L21c": Checker(SINGLE, "operator", _l21c,
                    lambda rng, grid: {"theta_grid": int(grid["theta_grid"])}),
    "P39": Checker(SINGLE, "operator", _p39_r310, _grid("r")),
    "R310": Checker(SINGLE, "operator", _p39_r310, _grid("r")),
    "T311_proof": Checker(SINGLE, "operator", _t311, _sample_t311),
    "T311_stmt": Checker(SINGLE, "operator", _t311, _sample_t311, _INFO),
    "T312_proof": Checker(SINGLE, "operator", _t312, _grid("nu", "t")),
    "T312_stmt": Checker(SINGLE, "operator", _t312, _grid("nu", "t"), _INFO),
    "T32": Checker(SINGLE, "operator", _t32, _grid("t")),
    "R33": Checker(SINGLE, "operator", _r33),
    "L22a": Checker(SINGLE, "psd", _l22, _grid("r")),
    "L22b": Checker(SINGLE, "psd", _l22,
                    lambda rng, grid: {"r": 1.0 / choice(rng, grid["r"])}),
    "L23": Checker(SINGLE, "operator", _l23, _grid("p"),
                   extras=(("x", "vector"), ("y", "vector"))),
    "BER_HOM": Checker(SINGLE, "operator", _ber_hom, extras=(("alpha", "complex"),)),
    "BER_SUB": Checker(SINGLE, "operator", _ber_sub, extras=(("B", "operator"),)),
    "BER_NORM": Checker(SINGLE, "operator", _ber_norm),
    "L21a": Checker(BLOCK, "diag", _l21a, runs=_JOINT_GATED),
    "L21b": Checker(BLOCK, "offdiag", _l21b, runs=_JOINT_GATED),
    "INEQ1": Checker(BLOCK, "offdiag", _ineq1, _grid("s", "p"), _JOINT_GATED),
    "T24a": Checker(BLOCK, "offdiag", _t24, _grid("r", "p"), _PAIR_GATED),
    "T24b": Checker(BLOCK, "offdiag", _t24, _grid("r", "p"), _PAIR_GATED),
    "C25a": Checker(BLOCK, "offdiag", _t24, _grid("r", "p"), _PAIR_GATED),
    "C25b": Checker(BLOCK, "offdiag", _t24, _grid("r", "p"), _PAIR_GATED),
    "R26": Checker(BLOCK, "offdiag", _t24, runs=_JOINT_GATED),
    "C27": Checker(BLOCK, "tied_square", _c27, runs=_JOINT_GATED),
    "C28": Checker(BLOCK, "offdiag", _c28, runs=_JOINT_GATED),
    "T29": Checker(BLOCK, "offdiag", _t29, _grid("r", "p"), _PAIR_GATED),
    "C210": Checker(BLOCK, "tied_square", _t29, _grid("r", "p"), _PAIR_GATED),
    "T31": Checker(BLOCK, "offdiag_square", _t31, _grid("t"), _JOINT),
    "C34": Checker(BLOCK, "offdiag_square", _t31, _grid("t"), _JOINT),
    "C35": Checker(BLOCK, "offdiag_square", _c35, runs=_INFO),
    "T36": Checker(BLOCK, "full", _t36, _grid("alpha"), _JOINT),
    "T37": Checker(BLOCK, "full", _t36, _grid("alpha"), _JOINT),
}

SCALAR_IDS = tuple(tid for tid, c in CHECKERS.items() if c.kind == SCALAR)


def _lookup(theorem_id, kind, run, digest, check_tol):
    """The checker of ``kind`` and a certificate factory for one of its runs."""
    checker = CHECKERS.get(theorem_id)
    if checker is None or checker.kind != kind:
        raise BadParams(f"unknown {kind} checker {theorem_id!r}")
    conv, mode = run or checker.runs[0]
    cert = functools.partial(make_certificate, theorem_id, convention=conv,
                             mode=mode, digest=digest, check_tol=check_tol)
    return checker, cert


def check_scalar(theorem_id, params, inputs, check_tol=CHECK_TOL):
    """Scalar / vector inequality checkers. Returns a list of Certificates."""
    checker, cert = _lookup(theorem_id, SCALAR, None, "", check_tol)
    return checker.evaluate(theorem_id, cert, params, inputs)


def check_single(theorem_id, space, t_mat, params, extras=None,
                 check_tol=CHECK_TOL):
    """Single-operator checkers on one kernel space. Returns Certificates."""
    t_mat = space.check_operator(t_mat)
    digest = digest_inputs(t_mat, space.gram, dict(params))
    checker, cert = _lookup(theorem_id, SINGLE, None, digest, check_tol)
    return checker.evaluate(theorem_id, cert, space, t_mat, params, extras or {})


def check_block(theorem_id, block, conv, params, mode=GATING,
                check_tol=CHECK_TOL):
    """Block-operator checkers at an explicit Berezin convention."""
    digest = digest_inputs(block.S, block.X, block.Y, block.R,
                           block.space1.gram, block.space2.gram, dict(params))
    checker, cert = _lookup(theorem_id, BLOCK, (conv, mode), digest, check_tol)
    return checker.evaluate(theorem_id, cert, block, conv, params)
