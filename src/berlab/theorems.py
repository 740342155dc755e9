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


def slack_tolerance(rhs):
    """Allowed negative slack for a certificate with the given rhs."""
    return max(TOL_FLOOR, CHECK_TOL * (1.0 + abs(rhs)))


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
    # last field: a draw's shared _bound_digest, which to_dict writes as input_digest
    digest: Callable = field(default=None, repr=False, compare=False)

    @property
    def input_digest(self):
        """Hex digest of the inputs, computed on its first read."""
        return self.digest() if self.digest else ""

    def to_dict(self):
        # params and witness hold only scalars, so shallow copies suffice
        d = {f.name: getattr(self, f.name) for f in fields(self)[:-1]}
        d["params"], d["witness"] = dict(self.params), dict(self.witness)
        d["input_digest"] = self.input_digest
        return d


def make_certificate(theorem_id, lhs, rhs, *, params=None, witness=None,
                     convention=None, mode=GATING, digest=None, equality=False):
    """Certificate of lhs <= rhs, or of lhs == rhs when ``equality`` is set."""
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise BadParams(f"{theorem_id}: non-finite lhs/rhs")
    slack = rhs - lhs
    tol = slack_tolerance(rhs)
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
        digest=digest,
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


def _bound_digest(*items):
    """digest_inputs(*items), hashed on the first call only: keep arrays unchanged."""
    memo = []
    def digest():
        if not memo:
            memo.append(digest_inputs(*items))
        return memo[0]
    return digest


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
# Every checker evaluates a bucket: operand stacks with one slice per draw,
# one params dict and certificate factories per slice. It returns one
# certificate list per slice, with the bits of that draw evaluated alone.
#
# scalar checkers: evaluate(bucket, params, inputs), one stack per input

def _per_slice(evaluate):
    """Bucket evaluate of a per-slice ``evaluate(cert, params, *inputs)``; 0-d inputs as floats."""
    return lambda bucket, params, inputs: [
        evaluate(cert, pr, *(float(x) if np.ndim(x) == 0 else x for x in slice_inputs))
        for cert, pr, *slice_inputs in zip(bucket, params, *inputs)]


def _young2(cert, params, a, b):
    m = params["m"]
    _require(a >= 0 and b >= 0, "YOUNG2 needs a, b >= 0")
    _require(int(m) == m and m >= 1, "YOUNG2 needs positive integer m")
    m = int(m)
    lhs = math.sqrt(a * b) ** m + 0.5**m * (a ** (m / 2.0) - b ** (m / 2.0)) ** 2
    rhs = 2.0**-m * (a + b) ** m
    return [cert(lhs, rhs, params={"m": m}, witness={"a": a, "b": b},
                 digest=_bound_digest(a, b, m))]


def _i37(cert, params, a, b):
    nu, r = float(params["nu"]), float(params["r"])
    _require(a >= 0 and b >= 0, "I37 needs a, b >= 0")
    _require(0.0 <= nu <= 1.0, "I37 needs nu in [0, 1]")
    _require(r >= 1.0, "I37 needs r >= 1")
    geo = a**nu * b ** (1.0 - nu)
    ari = nu * a + (1.0 - nu) * b
    pow_mean = (nu * a**r + (1.0 - nu) * b**r) ** (1.0 / r)
    return _chain(cert, (geo, ari, pow_mean), {"nu": nu, "r": r},
                  witness={"a": a, "b": b}, digest=_bound_digest(a, b, nu, r))


def _i38(cert, params, a, b):
    p, q, r = float(params["p"]), float(params["q"]), float(params["r"])
    _require(a >= 0 and b >= 0, "I38 needs a, b >= 0")
    _conjugate_pair(p, q)
    _require(r >= 1.0, "I38 needs r >= 1")
    young = a**p / p + b**q / q
    outer = (a ** (p * r) / p + b ** (q * r) / q) ** (1.0 / r)
    return _chain(cert, (a * b, young, outer), {"p": p, "q": q, "r": r},
                  witness={"a": a, "b": b}, digest=_bound_digest(a, b, p, q, r))


def _s310(cert, params, a, b, e):
    a, b, e = (np.asarray(v, dtype=np.complex128) for v in (a, b, e))
    norm_e = np.linalg.norm(e)
    _require(norm_e > 0, "S310 needs a nonzero unit vector e")
    e = e / norm_e
    ab, ae, eb = _inner(a, b), _inner(a, e), _inner(e, b)
    lhs = abs(ab - ae * eb) + abs(ae * eb)
    rhs = float(np.linalg.norm(a) * np.linalg.norm(b))
    return [cert(lhs, rhs, params={}, witness={"dim": int(a.shape[0])},
                 digest=_bound_digest(a, b, e))]


# ---------------------------------------------------------------------------
# operator checkers' stacks are over shared or stacked spaces. Exponents and
# scalars stay Python floats per slice; where a stacked numpy spelling
# rounds differently the checker loops over the slices.
#
# single-operator checkers: evaluate(bucket, space, T, params, extras), with
# one stack per extra operand and one certificate factory per slice

def _abs_powers(ops, exps, support=False):
    """|A_k|^{p_k} for each stack of operators A_k, with p_k one exponent per slice.

    Operands of one shape share one stack: one modulus eigh and one power
    eigh per shape. ``support`` takes ``matrix_power_psd``'s support power.
    """
    out, by_shape = {}, {}
    for k, op in enumerate(ops):
        by_shape.setdefault(op.shape, []).append(k)
    for ks in by_shape.values():
        out.update(zip(ks, numlin.matrix_abs(np.stack([ops[k] for k in ks]),
                                             [exps[k] for k in ks], support)))
    return [out[k] for k in range(len(ops))]


def _norms(a):
    """operator_norm of each slice of a stack, as Python floats."""
    return numlin.operator_norm(a).tolist()


def _slice_values(params, name, lo, hi, who):
    """The float ``name`` of each slice's params, checked to lie in [lo, hi]."""
    values = [float(pr[name]) for pr in params]
    _require(all(lo <= v <= hi for v in values), who)
    return values


def _symbol_peaks(space, a):
    """Per slice of a stack, (ber(A), the point index attaining it)."""
    vals = np.abs(rkhs.berezin_symbols(space, a))
    return zip(np.maximum.reduce(vals, axis=-1).tolist(), vals.argmax(axis=-1).tolist())


def _l21c(bucket, space, t_mat, params, extras):
    grids = [int(pr.get("theta_grid", PARAM_GRID["theta_grid"])) for pr in params]
    # grid of spacing 2*pi/G misses the optimal phase by at most pi/G
    return [[cert(ber, grid_sup + (1.0 - math.cos(math.pi / grid)) * ber,
                  params={"theta_grid": grid}, witness={"j": j})]
            for cert, (ber, j), grid_sup, grid in zip(
                bucket, _symbol_peaks(space, t_mat),
                rkhs.ber_via_rotations(space, t_mat, grids), grids)]


def _p39_r310(bucket, space, t_mat, params, extras, *, chain):
    rs = _slice_values(params, "r", 1.0, math.inf, "P39/R310 need r >= 1")
    out = []
    for cert, (ber, j), r, norm, ber_sq in zip(
            bucket, _symbol_peaks(space, t_mat), rs, _norms(t_mat),
            rkhs.berezin_number(space, t_mat @ t_mat)):
        top = norm ** (2 * r)
        mid = 0.5 * (ber_sq**r + top)
        out.append(_chain(cert, (ber ** (2 * r), mid, top), {"r": r}, witness={"j": j})
                   if chain else [cert(ber ** (2 * r), mid, params={"r": r}, witness={"j": j})])
    return out


def _t311(bucket, space, t_mat, params, extras, *, statement):
    prs = [{name: float(pr[name]) for name in "rpqe"} for pr in params]
    for r, p, q, e in (pr.values() for pr in prs):
        _conjugate_pair(p, q)
        _require(p >= q, "T311 needs p >= q")
        _require(r >= 1.0 and q * r >= 2.0, "T311 needs r >= 1 and q*r >= 2")
        _require(0.0 <= e <= 1.0, "T311 exponent pair needs e in [0, 1]")
    # (1/p) f^{pr}(|T^2|) + (1/q) g^{qr}(|(T^2)*|) with f = s^e, g = s^(1-e)
    t2 = t_mat @ t_mat
    left, right = _abs_powers([t2, t2.conj().mT], list(zip(
        *[(e * p * r, (1.0 - e) * q * r) for r, p, q, e in (pr.values() for pr in prs)])))
    p_col, q_col = (np.array([pr[name] for pr in prs])[:, None, None] for name in "pq")
    combos = left / p_col + right / q_col
    if statement:
        return [[cert(ber ** (2 * pr["r"]), 0.5 * (norm ** (2 * pr["r"]) + ber_c),
                      params=pr, witness={"j": j})]
                for cert, (ber, j), pr, norm, ber_c in zip(
                    bucket, _symbol_peaks(space, t_mat), prs, _norms(t_mat),
                    rkhs.berezin_number(space, combos))]
    out = []
    for cert, t, sp, combo, pr in zip(bucket, t_mat, rkhs.unstack_space(space, len(prs)),
                                      combos, prs):
        r, pairs = pr["r"], []
        for k in sp.normalized_chart().T:
            tk, tsk = t @ k, t.conj().T @ k
            pairs.append((abs(_inner(tk, k)) ** (2 * r),
                          0.5 * (np.linalg.norm(tk) ** r * np.linalg.norm(tsk) ** r
                                 + (np.conj(k) @ (combo @ k)).real)))
        out.append(_tightest(cert, pairs, params=pr))
    return out


def _t312(bucket, space, t_mat, params, extras, *, statement):
    nus = _slice_values(params, "nu", 0.0, 1.0, "T312 needs nu in [0, 1]")
    ts = [float(pr["t"]) for pr in params]
    shift, eye = np.array(ts)[:, None, None], np.eye(space.dim, dtype=np.complex128)
    if statement:
        lhs = [(norm**2, {}) for norm in _norms(t_mat)]
    else:  # the squared norms of T k over the normalized kernels k of each slice
        norms = np.linalg.norm(t_mat @ space.normalized_chart(), axis=-2) ** 2
        lhs = [(row[j], {"j": j})
               for row, j in zip(norms.tolist(), norms.argmax(axis=-1).tolist())]
    return [[cert(value, ((1.0 - nu) ** 2 + nu**2) * ber**2 + nu * n_re**2 + (1.0 - nu) * n_im**2,
                  params={"nu": nu, "t": t}, witness=wit)]
            for cert, (value, wit), ber, nu, t, n_re, n_im in zip(
                bucket, lhs, rkhs.berezin_number(space, t_mat), nus, ts,
                _norms(t_mat - shift * eye), _norms(t_mat - 1j * shift * eye))]


def _t32(bucket, space, t_mat, params, extras):
    ts = _slice_values(params, "t", 0.0, 1.0, "T32 needs t in [0, 1]")
    iso, modulus = numlin.polar_decompose(t_mat)
    # one polar and one power stack: the factors of aluthge_general(T, t), then
    # the powers of the norm term
    left, right, p2t, p2s = blockops._support_power([modulus] * 4, list(zip(
        *[(t, 1.0 - t, 2.0 * t, 2.0 * (1.0 - t)) for t in ts])))
    return [[cert(ber, 0.25 * norm + 0.5 * ber_a, params={"t": t}, witness={"j": j})]
            for cert, (ber, j), t, norm, ber_a in zip(
                bucket, _symbol_peaks(space, t_mat), ts, _norms(p2t + p2s),
                rkhs.berezin_number(space, left @ iso @ right))]


def _r33(bucket, space, t_mat, params, extras):
    tilde = blockops.aluthge_general(t_mat, [0.5] * len(params))
    return [[cert(ber, 0.5 * norm + 0.5 * ber_a, params={"t": 0.5}, witness={"j": j})]
            for cert, (ber, j), norm, ber_a in zip(
                bucket, _symbol_peaks(space, t_mat), _norms(t_mat),
                rkhs.berezin_number(space, tilde))]


def _l22(bucket, space, t_mat, params, extras, *, convex):
    rs = [float(pr["r"]) for pr in params]
    _require(all(r >= 1.0 if convex else 0.0 < r <= 1.0 for r in rs),
             "L22a needs r >= 1" if convex else "L22b needs 0 < r <= 1")
    out = []
    for cert, t, sp, tr_pow, r in zip(bucket, t_mat, rkhs.unstack_space(space, len(rs)),
                                      numlin.matrix_power_psd(t_mat, rs), rs):
        pairs = []
        for k in sp.normalized_chart().T:
            base = max((np.conj(k) @ (t @ k)).real, 0.0) ** r
            powd = (np.conj(k) @ (tr_pow @ k)).real
            pairs.append((base, powd) if convex else (powd, base))
        out.append(_tightest(cert, pairs, params={"r": r}))
    return out


def _l23(bucket, space, t_mat, params, extras):
    ps = _slice_values(params, "p", 0.0, 1.0, "L23 needs exponent p in [0, 1]")
    f2, g2 = _abs_powers([t_mat, t_mat.conj().mT],
                         [[2.0 * p for p in ps], [2.0 * (1.0 - p) for p in ps]])
    return [[cert(abs(_inner(t @ x, y)) ** 2,
                  (np.conj(x) @ (f2k @ x)).real * (np.conj(y) @ (g2k @ y)).real,
                  params={"p": p}, witness={}, digest=_bound_digest(t, x, y, dict(pr)))]
            for cert, t, x, y, f2k, g2k, p, pr in zip(
                bucket, t_mat, extras["x"], extras["y"], f2, g2, ps, params)]


def _ber_hom(bucket, space, t_mat, params, extras):
    alphas = [complex(pr.get("alpha_re", 1.0), pr.get("alpha_im", 0.0)) for pr in params]
    scaled = np.array(alphas)[:, None, None] * t_mat
    return [[cert(lhs, abs(alpha) * ber, witness={}, equality=True,
                  params={"alpha_re": alpha.real, "alpha_im": alpha.imag})]
            for cert, alpha, lhs, ber in zip(bucket, alphas, rkhs.berezin_number(space, scaled),
                                             rkhs.berezin_number(space, t_mat))]


def _ber_sub(bucket, space, t_mat, params, extras):
    b_mat = space.check_operator(extras["B"])
    grams = space.gram if space.gram.ndim == 3 else [space.gram] * len(params)
    return [[cert(lhs, ber_t + ber_b, params={}, witness={}, digest=_bound_digest(t, b, gram))]
            for cert, lhs, ber_t, ber_b, t, b, gram in zip(
                bucket, rkhs.berezin_number(space, t_mat + b_mat),
                rkhs.berezin_number(space, t_mat), rkhs.berezin_number(space, b_mat),
                t_mat, b_mat, grams)]


def _ber_norm(bucket, space, t_mat, params, extras):
    return [[cert(ber, norm, params={}, witness={"j": j})]
            for cert, (ber, j), norm in zip(bucket, _symbol_peaks(space, t_mat), _norms(t_mat))]


# ---------------------------------------------------------------------------
# block checkers: evaluate(bucket, block, params), with per slice one
# (convention, certificate factory) pair per run, and each slice's
# certificates in run order: aggregation and explore break ties by that
# order. Operands and right sides do not depend on the convention, so one
# kernel-pair grid gives every run its Berezin peak. check_block_runs has
# already checked the block against its checker's registry shape.

def _peaks(bucket, block):
    """Per slice, the (certificate factory, Berezin value, witness) of each run."""
    peaks = blockops.ber_block(block, tuple(conv for conv, _ in bucket[0]))
    return [[(cert, value, {"j1": j1, "j2": j2})
             for (_, cert), (value, (j1, j2)) in zip(runs, slice_peaks)]
            for runs, slice_peaks in zip(bucket, peaks)]


def _peak_bounds(bucket, block, params, rhs):
    """Per slice, each run's certificate of its Berezin peak <= that slice's rhs."""
    return [[cert(value, rhs_k, params=pr, witness=wit) for cert, value, wit in peaks]
            for peaks, rhs_k, pr in zip(_peaks(bucket, block), rhs, params)]


def _peak_chains(bucket, block, params, tails):
    """Per slice, each run's chain from its Berezin peak through that slice's tail."""
    return [[link for cert, value, wit in peaks
             for link in _chain(cert, (value, *tail), pr, witness=wit)]
            for peaks, tail, pr in zip(_peaks(bucket, block), tails, params)]


def _t24_operands(block, r, p, variant):
    """PSD combination operators for the two-sided product bounds.

    variant "fg": (f^{2r}(|X|)+g^{2r}(|Y*|), f^{2r}(|Y|)+g^{2r}(|X*|))
    variant "ff": (f^{2r}(|X|)+f^{2r}(|Y*|), g^{2r}(|Y|)+g^{2r}(|X*|))
    One r and one p per slice. First operand acts on space2, second on space1.
    """
    r, p = np.asarray(r), np.asarray(p)
    fe, ge = 2.0 * r * p, 2.0 * r * (1.0 - p)
    # X and Y* are both n1 x n2, Y and X* both n2 x n1: one stack for all
    # four when n1 = n2, else one per pair
    exps = [fe, ge, fe, ge] if variant == "fg" else [fe, fe, ge, ge]
    x2, ys2, y1, xs1 = _abs_powers(
        [block.X, block.Y.conj().mT, block.Y, block.X.conj().mT], exps)
    return x2 + ys2, y1 + xs1


def _l21a(bucket, block, params):
    rhs = map(max, rkhs.berezin_number(block.space1, block.S),
              rkhs.berezin_number(block.space2, block.R))
    return _peak_bounds(bucket, block, params, rhs)


def _l21b(bucket, block, params):
    return _peak_bounds(bucket, block, params, [
        0.5 * (nx + ny) for nx, ny in zip(_norms(block.X), _norms(block.Y))])


def _ineq1(bucket, block, params):
    s = _slice_values(params, "s", 1.0, math.inf,
                      "INEQ1 needs power h(t) = t^s with s >= 1")
    p = _slice_values(params, "p", 0.0, 1.0, "INEQ1 needs exponent p in [0, 1]")
    f = [2 * p_k * s_k for s_k, p_k in zip(s, p)]
    g = [2 * (1 - p_k) * s_k for s_k, p_k in zip(s, p)]
    y_f, y_g, x_f, x_g = _abs_powers([block.Y, block.Y, block.X, block.X], [f, g, f, g])
    rhs = [0.25 * ny + 0.25 * nx for ny, nx in zip(_norms(y_f + y_g), _norms(x_f + x_g))]
    return [[cert(value**s_k, rhs_k, params=pr, witness=wit) for cert, value, wit in peaks]
            for peaks, s_k, rhs_k, pr in zip(_peaks(bucket, block), s, rhs, params)]


def _slice_rp(params, who, fixed=None):
    """The checked (r, p) of each slice, r >= 1 and p in [0, 1]; or ``fixed`` for all."""
    if fixed:
        return [fixed] * len(params)
    return list(zip(_slice_values(params, "r", 1.0, math.inf, f"{who} need r >= 1"),
                    _slice_values(params, "p", 0.0, 1.0, f"{who} need p in [0, 1]")))


def _t24(bucket, block, params, *, variant="fg", fixed=None):
    rps = _slice_rp(params, "T24/C25/R26", fixed)
    op2, op1 = _t24_operands(block, *zip(*rps), variant)
    rhs = [2.0**r / 2.0 * math.sqrt(ber2) * math.sqrt(ber1)
           for (r, _), ber2, ber1 in zip(rps, rkhs.berezin_number(block.space2, op2),
                                         rkhs.berezin_number(block.space1, op1))]
    return [[cert(value**r, rhs_k, params=pr, witness=wit)
             for cert, value, wit in peaks]
            for peaks, (r, _), rhs_k, pr in zip(_peaks(bucket, block), rps, rhs, params)]


def _c27(bucket, block, params):
    # |X| and |X*| of every slice from one stack
    moduli = numlin.matrix_abs(np.concatenate([block.X, block.X.conj().mT]))
    mids = rkhs.berezin_number(block.space1, moduli[:len(params)] + moduli[len(params):])
    return _peak_chains(bucket, block, params,
                        [(0.5 * mid, top) for mid, top in zip(mids, _norms(block.X))])


def _c28(bucket, block, params):
    rps = _slice_rp(params, "C28", (1.0, 0.5))
    op2, op1 = _t24_operands(block, *zip(*rps), "fg")
    return _peak_chains(bucket, block, params, [
        (0.5 * math.sqrt(ber2) * math.sqrt(ber1), 0.25 * (ber2 + ber1), 0.5 * max(ber2, ber1))
        for ber2, ber1 in zip(rkhs.berezin_number(block.space2, op2),
                              rkhs.berezin_number(block.space1, op1))])


def _t29(bucket, block, params, *, tied=False):
    rps = _slice_rp(params, "T29/C210")
    op2, op1 = _t24_operands(block, *zip(*rps), "fg")
    avals = np.clip(rkhs.berezin_symbols(block.space2, op2).real, 0.0, None)
    bvals = np.clip(rkhs.berezin_symbols(block.space1, op1).real, 0.0, None)
    eta = (np.sqrt(avals)[..., None, :] - np.sqrt(bvals)[..., :, None]) ** 2
    eta_inf = np.minimum.reduce(eta, axis=(-2, -1)).tolist()
    if tied:
        heads = [2.0 ** (r - 1) * norm for (r, _), norm in zip(rps, _norms(op2))]
    else:
        heads = [2.0 ** (r - 2) * (a + b)
                 for (r, _), a, b in zip(rps, np.maximum.reduce(avals, axis=-1).tolist(),
                                         np.maximum.reduce(bvals, axis=-1).tolist())]
    return [[cert(value**r, head - 2.0 ** (r - 2) * eta_k, params=pr,
                  witness={**wit, "eta_inf": eta_k})
             for cert, value, wit in peaks]
            for peaks, (r, _), pr, head, eta_k in zip(_peaks(bucket, block), rps,
                                                      params, heads, eta_inf)]


def _t31(bucket, block, params, *, tilted):
    t = _slice_values(params, "t", 0.0, 1.0, "T31/C34 need t in [0, 1]")
    s = [1.0 - t_k for t_k in t]
    y_t, xs_s, x_t, ys_s = _abs_powers(
        [block.Y, block.X.conj().mT, block.X, block.Y.conj().mT], [t, s, t, s], support=True)
    cross = [0.5 * (a + b) for a, b in zip(_norms(y_t @ xs_s), _norms(x_t @ ys_s))]
    if tilted:
        transform = blockops.aluthge_offdiag(block.X, block.Y, t,
                                             space1=block.space1, space2=block.space2)
        return _peak_bounds(bucket, transform, params, cross)
    return _peak_bounds(bucket, block, params, [
        0.5 * max(nx, ny) + 0.5 * c
        for nx, ny, c in zip(_norms(block.X), _norms(block.Y), cross)])


def _c35(bucket, block, params):
    half_y, half_xs, half_x, half_ys = _abs_powers(
        [block.Y, block.X.conj().mT, block.X, block.Y.conj().mT],
        [[0.5] * len(params)] * 4, support=True)
    rhs = [max(nx, ny) + 0.5 * (a + b) for nx, ny, a, b in zip(
        _norms(block.X), _norms(block.Y), _norms(half_x @ half_y), _norms(half_xs @ half_ys))]
    readings = zip(_norms(block.X + block.Y), _norms(block.X + block.Y.conj().mT))
    # both readings of the statement are recorded, never gated
    return [[cert(lhs, rhs_k, params={**pr, "reading": reading}, witness={},
                  convention=None, mode=INFORMATIONAL)
             for _, cert in runs for reading, lhs in zip(("sum", "adjoint_sum"), lhss)]
            for runs, rhs_k, pr, lhss in zip(bucket, rhs, params, readings)]


def _t36(bucket, block, params, *, swap=False):
    alphas = _slice_values(params, "alpha", 0.0, 1.0, "T36/T37 need alpha in [0, 1]")
    rhs = []
    for alpha, ber_s, ber_r, nx, ny in zip(
            alphas, rkhs.berezin_number(block.space1, block.S),
            rkhs.berezin_number(block.space2, block.R), _norms(block.X), _norms(block.Y)):
        if swap:  # T37 is T36 with the roles of S, X and R, Y exchanged
            ber_s, ber_r, nx, ny = ber_r, ber_s, ny, nx
        rhs.append(0.5 * ber_s + ber_r
                   + 0.5 * math.sqrt(alpha**2 * ber_s**2 + nx**2)
                   + 0.5 * math.sqrt((1.0 - alpha) ** 2 * ber_s**2 + ny**2))
    return _peak_bounds(bucket, block, params, rhs)


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

    ``shape`` names the operands ``harness.draw_trial`` draws: 0-d arrays
    a, b ("pair"); vectors a, b, e ("vectors"); a space and an operator T
    from a random ensemble ("operator") or the psd one ("psd"); or a block
    ("diag", "offdiag", "tied_square", "offdiag_square", "full").
    ``extras`` are further (name, "vector" | "operator" | "complex")
    operands drawn after T; a complex one becomes params name_re, name_im.
    ``sample(rng)`` draws the params from ``PARAM_GRID`` before any operand.
    ``runs`` holds the (convention, mode) of each evaluation of a draw.
    ``evaluate`` takes a bucket and has any variant keywords already bound.
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
    "YOUNG2": Checker("pair", _per_slice(_young2),
                      lambda rng: {"m": int(choice(rng, PARAM_GRID["m"]))}),
    "I37": Checker("pair", _per_slice(_i37), _grid("nu", "r")),
    "I38": Checker("pair", _per_slice(_i38), _sample_i38),
    "S310": Checker("vectors", _per_slice(_s310)),
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

# perfbench's campaign_large leaves these out: only its operator checkers scale with dims
SCALAR_IDS = tuple(tid for tid, c in CHECKERS.items() if c.kind == SCALAR)


def lookup(theorem_id, kind=None):
    """The registry record of checker ``theorem_id``, which must be of ``kind`` if given."""
    checker = CHECKERS.get(theorem_id)
    if checker is None or kind not in (None, checker.kind):
        raise BadParams(f"no {kind or 'such'} checker {theorem_id!r}")
    return checker


def _bucket(theorem_id, runs, params, arrays, spaces, ndim=2):
    """(lone, arrays, params, bucket) of one operand set or a stack of them.

    A stack (a first array of more than ``ndim`` axes) takes one params dict
    per slice; a lone operand set with one dict is a stack of one. The bucket
    holds, per slice, one (convention, certificate factory) pair per run,
    sharing one digest over the slice's arrays, Gram matrices and params.
    """
    lone = np.ndim(arrays[0]) == ndim
    _require(isinstance(params, dict) if lone
             else [type(pr) for pr in params] == [dict] * len(arrays[0]),
             f"{theorem_id} needs one params dict per slice")
    if lone:
        arrays, params = [np.asarray(a)[None] for a in arrays], [params]
    grams = [s.gram if s.gram.ndim == 3 else [s.gram] * len(params) for s in spaces]

    def factories(slice_params, *inputs):  # one certificate factory per run
        digest = _bound_digest(*inputs, dict(slice_params))
        return tuple((conv, partial(make_certificate, theorem_id, convention=conv, mode=mode,
                                    digest=digest)) for conv, mode in runs)
    return lone, arrays, params, [factories(*inputs) for inputs in zip(params, *arrays, *grams)]


def check_scalar(theorem_id, params, inputs):
    """Scalar and vector checkers on floats a, b or vectors a, b, e. Returns Certificates;
    a bucket, a stack of each with one params dict per slice, gives one list per slice."""
    checker = lookup(theorem_id, SCALAR)
    lone, inputs, params, bucket = _bucket(theorem_id, checker.runs, params, inputs, [],
                                           ndim=1 if checker.shape == "vectors" else 0)
    per_slice = checker.evaluate([cert for ((_, cert),) in bucket], params, inputs)
    return per_slice[0] if lone else per_slice


def check_single(theorem_id, space, t_mat, params, extras=None):
    """Single-operator checkers on a kernel space. Returns Certificates.

    Takes one operator T with one params dict, or a bucket: stacks of T and
    of each extra operand, over a shared or stacked space, with one params
    dict per slice, which gives one certificate list per slice.
    """
    checker = lookup(theorem_id, SINGLE)
    extras = extras or {}
    lone, (t_mat, *rest), params, bucket = _bucket(
        theorem_id, checker.runs, params, (space.check_operator(t_mat), *extras.values()), [space])
    per_slice = checker.evaluate([cert for ((_, cert),) in bucket], space, t_mat, params,
                                 dict(zip(extras, rest)))
    return per_slice[0] if lone else per_slice


def _check_shape(theorem_id, shape, block):
    """Raise BadParams unless ``block`` has the structure its registry ``shape`` names.

    "full" needs nothing, "diag" X = Y = 0 and the other shapes S = R = 0;
    "offdiag_square" also needs n1 = n2, and "tied_square" n1 = n2 and Y = X.
    """
    zero = {"full": "", "diag": "XY"}.get(shape, "SR")
    _require(not any(getattr(block, name).any() for name in zero),
             f"{theorem_id} needs {' = '.join(zero)} = 0 in its {shape} block")
    if shape in ("offdiag_square", "tied_square"):
        _require(block.space1.dim == block.space2.dim, f"{theorem_id} needs n1 = n2")
    if shape == "tied_square":
        _require(np.array_equal(block.X, block.Y), f"{theorem_id} needs Y = X")


def check_block_runs(theorem_id, block, params, runs):
    """Block-operator checkers at each (convention, mode) of ``runs``.

    The block must have its checker's registry shape. It is one block with
    one params dict, or a bucket: a stacked block with a sequence of one
    params dict per slice, which gives one certificate list per slice. The
    certificates of a block's runs share one input digest and the
    convention-independent operands, and come back in ``runs`` order.
    """
    checker = lookup(theorem_id, BLOCK)
    spaces = (block.space1, block.space2)
    lone, arrays, params, bucket = _bucket(theorem_id, runs, params,
                                           (block.S, block.X, block.Y, block.R), spaces)
    _check_shape(theorem_id, checker.shape, block)
    per_slice = checker.evaluate(bucket, blockops.BlockOperator(*arrays, *spaces), params)
    return per_slice[0] if lone else per_slice
