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
        d = {name: getattr(self, name) for name in _CERT_KEYS}
        d["params"], d["witness"] = dict(self.params), dict(self.witness)
        d["input_digest"] = self.input_digest
        return d


_CERT_KEYS = tuple(f.name for f in fields(Certificate))[:-1]  # the schema, digest left out


def make_certificate(theorem_id, lhs, rhs, *, params=None, witness=None,
                     convention=None, mode=GATING, digest=None, equality=False):
    """Certificate of lhs <= rhs, or of lhs == rhs when ``equality`` is set."""
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise BadParams(f"{theorem_id}: non-finite lhs/rhs")
    slack = rhs - lhs
    tol = slack_tolerance(rhs)
    # the fields in field order, set at once: __init__ would set them one at a time
    cert = object.__new__(Certificate)
    cert.__dict__.update(
        theorem_id=theorem_id, convention=convention, params=dict(params or {}), lhs=lhs,
        rhs=rhs, slack=slack, holds=bool(abs(slack) <= tol if equality else slack >= -tol),
        mode=mode, witness=dict(witness or {}), digest=digest)
    return cert


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


def _split(flags, tail, *stacks):
    """``tail(flag, *stacks)`` on each flag value's slices, merged back into slice order.

    Each stack (an array, list, space or block of one slice per flag) is cut
    to one flag value's slices; a stack of one flag value is passed whole.
    """
    if flags.count(flags[0]) == len(flags):
        return tail(flags[0], *stacks)
    idx = {flag: [k for k, f in enumerate(flags) if f == flag] for flag in dict.fromkeys(flags)}
    parts = {flag: iter(tail(flag, *(_take(stack, ks) for stack in stacks)))
             for flag, ks in idx.items()}
    return [next(parts[flag]) for flag in flags]


def _take(stack, idx):
    """Slices ``idx`` (ascending) of a stack; one slice of a space is a lone space. A run
    of consecutive slices, as a campaign's stacks hold each checker's draws, is a view."""
    if isinstance(stack, rkhs.KernelSpace):  # a shared space stays whole
        return stack if stack.gram.ndim == 2 else rkhs.KernelSpace(*(
            f[idx[0]] if len(idx) == 1 else _take(f, idx)
            for f in (stack.points, stack.gram, stack.chart, stack.normalized_chart())))
    if isinstance(stack, blockops.BlockOperator):
        return blockops.BlockOperator(*(_take(f, idx) for f in (
            stack.S, stack.X, stack.Y, stack.R, stack.space1, stack.space2)))
    if idx[-1] - idx[0] == len(idx) - 1:
        return stack[idx[0]:idx[-1] + 1]
    return stack[idx] if isinstance(stack, np.ndarray) else [stack[k] for k in idx]


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

def _by_shape(ops):
    """The indices of ``ops``, grouped by operand shape in first-seen order."""
    groups = {}
    for k, op in enumerate(ops):
        groups.setdefault(op.shape, []).append(k)
    return groups.values()


def _abs_powers(ops, exps, support=False):
    """|A_k|^{p_k} for each stack of operators A_k, with p_k one exponent per slice.

    Operands of one shape share one stack: one modulus eigh and one power
    eigh per shape, and an operand listed twice (the same object) is
    decomposed once. ``support`` takes ``matrix_power_psd``'s support power.
    """
    out = {}
    for ks in _by_shape(ops):
        out.update(zip(ks, numlin._powers_once(
            [ops[k] for k in ks], [exps[k] for k in ks], support,
            lambda stack: np.linalg.eigh(numlin.matrix_abs(stack)))))
    return [out[k] for k in range(len(ops))]


def _norms(*stacks):
    """operator_norm of each slice of each stack, as Python floats: one list per stack,
    or the list of a lone stack. Stacks of one shape share one operator_norm call."""
    out = {}
    for ks in _by_shape(stacks):
        norms = numlin.operator_norm(stacks[ks[0]] if len(ks) == 1 else np.concatenate(
            [stacks[k] for k in ks])).tolist()
        size = len(norms) // len(ks)
        out.update((k, norms[i * size:(i + 1) * size]) for i, k in enumerate(ks))
    return [out[k] for k in range(len(stacks))] if len(stacks) > 1 else out[0]


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
    for cert, (ber, j), r, norm, ber_sq, chained in zip(
            bucket, _symbol_peaks(space, t_mat), rs, _norms(t_mat),
            rkhs.berezin_number(space, t_mat @ t_mat), chain):
        top = norm ** (2 * r)
        mid = 0.5 * (ber_sq**r + top)
        out.append(_chain(cert, (ber ** (2 * r), mid, top), {"r": r}, witness={"j": j})
                   if chained else [cert(ber ** (2 * r), mid, params={"r": r}, witness={"j": j})])
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

    def bounds(statement, bucket, space, t_mat, combos, prs):
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
    return _split(statement, bounds, bucket, space, t_mat, left / p_col + right / q_col, prs)


def _t312(bucket, space, t_mat, params, extras, *, statement):
    nus = _slice_values(params, "nu", 0.0, 1.0, "T312 needs nu in [0, 1]")
    ts = [float(pr["t"]) for pr in params]
    shift, eye = np.array(ts)[:, None, None], np.eye(space.dim, dtype=np.complex128)

    def lhs(statement, space, t_mat):
        if statement:
            return [(norm**2, {}) for norm in _norms(t_mat)]
        # the squared norms of T k over the normalized kernels k of each slice
        norms = np.linalg.norm(t_mat @ space.normalized_chart(), axis=-2) ** 2
        return [(row[j], {"j": j})
                for row, j in zip(norms.tolist(), norms.argmax(axis=-1).tolist())]
    return [[cert(value, ((1.0 - nu) ** 2 + nu**2) * ber**2 + nu * n_re**2 + (1.0 - nu) * n_im**2,
                  params={"nu": nu, "t": t}, witness=wit)]
            for cert, (value, wit), ber, nu, t, n_re, n_im in zip(
                bucket, _split(statement, lhs, space, t_mat), rkhs.berezin_number(space, t_mat),
                nus, ts, *_norms(t_mat - shift * eye, t_mat - 1j * shift * eye))]


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
    for r, cx in zip(rs, convex):
        _require(r >= 1.0 if cx else 0.0 < r <= 1.0,
                 "L22a needs r >= 1" if cx else "L22b needs 0 < r <= 1")
    out = []
    for cert, t, sp, tr_pow, r, cx in zip(bucket, t_mat, rkhs.unstack_space(space, len(rs)),
                                          numlin.matrix_power_psd(t_mat, rs), rs, convex):
        pairs = []
        for k in sp.normalized_chart().T:
            base = max((np.conj(k) @ (t @ k)).real, 0.0) ** r
            powd = (np.conj(k) @ (tr_pow @ k)).real
            pairs.append((base, powd) if cx else (powd, base))
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
    """Per slice, the (certificate factory, Berezin value, witness) of each of its runs;
    a family's slices may differ in runs, so each looks its convention up."""
    convs = tuple({conv: None for runs in bucket for conv, _ in runs})
    peaks = blockops.ber_block(block, convs)
    return [[(cert, value, {"j1": j1, "j2": j2})
             for conv, cert in runs for value, (j1, j2) in [slice_peaks[convs.index(conv)]]]
            for runs, slice_peaks in zip(bucket, peaks)]


def _peak_bounds(bucket, block, params, rhs):
    """Per slice, each run's certificate of its Berezin peak <= that slice's rhs."""
    return [[cert(value, rhs_k, params=pr, witness=wit) for cert, value, wit in peaks]
            for peaks, rhs_k, pr in zip(_peaks(bucket, block), rhs, params)]


def _t24_operands(block, r, p, ff):
    """PSD combination operators for the two-sided product bounds.

    by default: (f^{2r}(|X|)+g^{2r}(|Y*|), f^{2r}(|Y|)+g^{2r}(|X*|))
    with ``ff``: (f^{2r}(|X|)+f^{2r}(|Y*|), g^{2r}(|Y|)+g^{2r}(|X*|))
    One r, p and ``ff`` per slice. First operand acts on space2, second on space1.
    """
    r, p = np.asarray(r), np.asarray(p)
    fe, ge = 2.0 * r * p, 2.0 * r * (1.0 - p)
    # X and Y* are both n1 x n2, Y and X* both n2 x n1: one stack for all
    # four when n1 = n2, else one per pair. ff slices swap Y*'s and Y's exponents
    ys_e, y_e = (np.where(ff, fe, ge), np.where(ff, ge, fe)) if any(ff) else (ge, fe)
    x2, ys2, y1, xs1 = _abs_powers([block.X, block.Y.conj().mT, block.Y, block.X.conj().mT],
                                   [fe, ys_e, y_e, ge])
    return x2 + ys2, y1 + xs1


def _l21a(bucket, block, params):
    rhs = map(max, rkhs.berezin_number(block.space1, block.S),
              rkhs.berezin_number(block.space2, block.R))
    return _peak_bounds(bucket, block, params, rhs)


def _l21b(bucket, block, params):
    return _peak_bounds(bucket, block, params, [
        0.5 * (nx + ny) for nx, ny in zip(*_norms(block.X, block.Y))])


def _ineq1(bucket, block, params):
    s = _slice_values(params, "s", 1.0, math.inf,
                      "INEQ1 needs power h(t) = t^s with s >= 1")
    p = _slice_values(params, "p", 0.0, 1.0, "INEQ1 needs exponent p in [0, 1]")
    f = [2 * p_k * s_k for s_k, p_k in zip(s, p)]
    g = [2 * (1 - p_k) * s_k for s_k, p_k in zip(s, p)]
    y_f, y_g, x_f, x_g = _abs_powers([block.Y, block.Y, block.X, block.X], [f, g, f, g])
    rhs = [0.25 * ny + 0.25 * nx for ny, nx in zip(*_norms(y_f + y_g, x_f + x_g))]
    return [[cert(value**s_k, rhs_k, params=pr, witness=wit) for cert, value, wit in peaks]
            for peaks, s_k, rhs_k, pr in zip(_peaks(bucket, block), s, rhs, params)]


def _slice_rp(params, fixed, bound):
    """The (r, p) of each slice: its ``fixed`` pair if set, else its params' r >= 1 and
    p in [0, 1], or BadParams naming the slice's inequality (T29/C210 for their bounds)."""
    rps = [pair or (float(pr["r"]), float(pr["p"])) for pr, pair in zip(params, fixed)]
    for (r, p), b in zip(rps, bound):
        if not (r >= 1.0 and 0.0 <= p <= 1.0):
            who = "T29/C210" if b in ("eta", "tied") else "T24/C25/R26"
            _require(r >= 1.0, f"{who} need r >= 1")
            raise BadParams(f"{who} need p in [0, 1]")
    return rps


def _t24(bucket, block, params, *, ff=None, fixed=None, bound=None):
    """T24a/T24b/C25a/C25b/R26, C28, T29 and C210: one operand pair, its symbols and the
    Berezin peaks per stack. ``bound`` picks each slice's right side: None the T24
    bound, "chain" C28's chain, "eta" T29's eta-refined head, "tied" C210's."""
    ff, fixed, bound = (v or [None] * len(params) for v in (ff, fixed, bound))
    rps = _slice_rp(params, fixed, bound)
    op2, op1 = _t24_operands(block, *zip(*rps), ff)

    def bounds(bound, peaks, params, rps, op2, sym2, sym1):
        if bound in (None, "chain"):  # ber of each operand, read off its symbols
            bers = zip(*(np.maximum.reduce(np.abs(s), axis=-1).tolist() for s in (sym2, sym1)))
            if bound is None:
                return [[cert(value**r, 2.0**r / 2.0 * math.sqrt(b2) * math.sqrt(b1),
                              params=pr, witness=wit) for cert, value, wit in slice_peaks]
                        for slice_peaks, pr, (r, _), (b2, b1) in zip(peaks, params, rps, bers)]
            return [[link for cert, value, wit in slice_peaks for link in _chain(
                        cert, (value, 0.5 * math.sqrt(b2) * math.sqrt(b1), 0.25 * (b2 + b1),
                               0.5 * max(b2, b1)), pr, witness=wit)]
                    for slice_peaks, pr, (b2, b1) in zip(peaks, params, bers)]
        avals, bvals = (np.clip(s.real, 0.0, None) for s in (sym2, sym1))
        eta = (np.sqrt(avals)[..., None, :] - np.sqrt(bvals)[..., :, None]) ** 2
        if bound == "tied":
            heads = [2.0 ** (r - 1) * norm for (r, _), norm in zip(rps, _norms(op2))]
        else:
            heads = [2.0 ** (r - 2) * (a + b)
                     for (r, _), a, b in zip(rps, np.maximum.reduce(avals, axis=-1).tolist(),
                                             np.maximum.reduce(bvals, axis=-1).tolist())]
        return [[cert(value**r, head - 2.0 ** (r - 2) * eta_k, params=pr,
                      witness={**wit, "eta_inf": eta_k}) for cert, value, wit in slice_peaks]
                for slice_peaks, pr, (r, _), head, eta_k in zip(
                    peaks, params, rps, heads, np.minimum.reduce(eta, axis=(-2, -1)).tolist())]
    return _split(bound, bounds, _peaks(bucket, block), params, rps, op2,
                  rkhs.berezin_symbols(block.space2, op2), rkhs.berezin_symbols(block.space1, op1))


def _c27(bucket, block, params):
    # |X| and |X*| of every slice from one stack
    moduli = numlin.matrix_abs(np.concatenate([block.X, block.X.conj().mT]))
    mids = rkhs.berezin_number(block.space1, moduli[:len(params)] + moduli[len(params):])
    return [[link for cert, value, wit in peaks
             for link in _chain(cert, (value, 0.5 * mid, top), pr, witness=wit)]
            for peaks, mid, top, pr in zip(_peaks(bucket, block), mids, _norms(block.X), params)]


def _t31(bucket, block, params, *, bound):
    """T31 ("aluthge"), C34 ("norm") and C35 ("readings", at t = 1/2) from one stack
    of |Y|^t, |X*|^(1-t), |X|^t and |Y*|^(1-t)."""
    free = iter(_slice_values([pr for pr, b in zip(params, bound) if b != "readings"],
                              "t", 0.0, 1.0, "T31/C34 need t in [0, 1]"))
    t = [0.5 if b == "readings" else next(free) for b in bound]
    powers = _abs_powers([block.Y, block.X.conj().mT, block.X, block.Y.conj().mT],
                         [t, [1.0 - t_k for t_k in t]] * 2, support=True)

    def bounds(readings, bucket, block, params, bound, t, y_t, xs_s, x_t, ys_s):
        if readings:  # both readings of the statement are recorded, never gated
            *norms, sum_x_y, sum_x_ys = _norms(block.X, block.Y, x_t @ y_t, xs_s @ ys_s,
                                               block.X + block.Y, block.X + block.Y.conj().mT)
            rhs = [max(nx, ny) + 0.5 * (a + b) for nx, ny, a, b in zip(*norms)]
            return [[cert(lhs, rhs_k, params={**pr, "reading": reading}, witness={},
                          convention=None, mode=INFORMATIONAL)
                     for _, cert in runs for reading, lhs in zip(("sum", "adjoint_sum"), lhss)]
                    for runs, rhs_k, pr, lhss in zip(bucket, rhs, params, zip(sum_x_y, sum_x_ys))]
        cross = [0.5 * (a + b) for a, b in zip(*_norms(y_t @ xs_s, x_t @ ys_s))]
        return _split(bound, cross_bounds, bucket, block, params, t, cross)

    def cross_bounds(bound, bucket, block, params, t, cross):
        if bound == "aluthge":
            transform = blockops.aluthge_offdiag(block.X, block.Y, t,
                                                 space1=block.space1, space2=block.space2)
            return _peak_bounds(bucket, transform, params, cross)
        return _peak_bounds(bucket, block, params, [
            0.5 * max(nx, ny) + 0.5 * c
            for nx, ny, c in zip(*_norms(block.X, block.Y), cross)])
    return _split([b == "readings" for b in bound], bounds, bucket, block, params, bound, t,
                  *powers)


def _t36(bucket, block, params, *, swap):
    alphas = _slice_values(params, "alpha", 0.0, 1.0, "T36/T37 need alpha in [0, 1]")
    rhs = []
    for alpha, ber_s, ber_r, nx, ny, swapped in zip(
            alphas, rkhs.berezin_number(block.space1, block.S),
            rkhs.berezin_number(block.space2, block.R), *_norms(block.X, block.Y), swap):
        if swapped:  # T37 is T36 with the roles of S, X and R, Y exchanged
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
    return seq[rng.integers(len(seq))]


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
    The records that share ``evaluate`` (which takes a bucket) and ``shape``
    are a family; ``variant`` holds the keywords that set a record apart.
    """

    shape: str
    evaluate: Callable
    sample: Callable = _grid()
    runs: tuple = ((None, GATING),)
    extras: tuple = ()
    variant: dict = field(default_factory=dict)

    @functools.cached_property
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
    "P39": Checker("operator", _p39_r310, _grid("r"), variant={"chain": False}),
    "R310": Checker("operator", _p39_r310, _grid("r"), variant={"chain": True}),
    "T311_proof": Checker("operator", _t311, _sample_t311, variant={"statement": False}),
    "T311_stmt": Checker("operator", _t311, _sample_t311, _INFO, variant={"statement": True}),
    "T312_proof": Checker("operator", _t312, _grid("nu", "t"), variant={"statement": False}),
    "T312_stmt": Checker("operator", _t312, _grid("nu", "t"), _INFO, variant={"statement": True}),
    "T32": Checker("operator", _t32, _grid("t")),
    "R33": Checker("operator", _r33),
    "L22a": Checker("psd", _l22, _grid("r"), variant={"convex": True}),
    "L22b": Checker("psd", _l22, lambda rng: {"r": 1.0 / choice(rng, PARAM_GRID["r"])},
                    variant={"convex": False}),
    "L23": Checker("operator", _l23, _grid("p"),
                   extras=(("x", "vector"), ("y", "vector"))),
    "BER_HOM": Checker("operator", _ber_hom, extras=(("alpha", "complex"),)),
    "BER_SUB": Checker("operator", _ber_sub, extras=(("B", "operator"),)),
    "BER_NORM": Checker("operator", _ber_norm),
    "L21a": Checker("diag", _l21a, runs=_JOINT_GATED),
    "L21b": Checker("offdiag", _l21b, runs=_JOINT_GATED),
    "INEQ1": Checker("offdiag", _ineq1, _grid("s", "p"), _JOINT_GATED),
    "T24a": Checker("offdiag", _t24, _grid("r", "p"), _PAIR_GATED),
    "T24b": Checker("offdiag", _t24, _grid("r", "p"), _PAIR_GATED, variant={"ff": True}),
    "C25a": Checker("offdiag", _t24, _grid("r", "p"), _PAIR_GATED),
    "C25b": Checker("offdiag", _t24, _grid("r", "p"), _PAIR_GATED, variant={"ff": True}),
    "R26": Checker("offdiag", _t24, runs=_JOINT_GATED, variant={"fixed": (1.0, 0.5)}),
    "C27": Checker("tied_square", _c27, runs=_JOINT_GATED),
    "C28": Checker("offdiag", _t24, runs=_JOINT_GATED,
                   variant={"fixed": (1.0, 0.5), "bound": "chain"}),
    "T29": Checker("offdiag", _t24, _grid("r", "p"), _PAIR_GATED, variant={"bound": "eta"}),
    "C210": Checker("tied_square", _t24, _grid("r", "p"), _PAIR_GATED, variant={"bound": "tied"}),
    "T31": Checker("offdiag_square", _t31, _grid("t"), _JOINT, variant={"bound": "aluthge"}),
    "C34": Checker("offdiag_square", _t31, _grid("t"), _JOINT, variant={"bound": "norm"}),
    "C35": Checker("offdiag_square", _t31, runs=_INFO, variant={"bound": "readings"}),
    "T36": Checker("full", _t36, _grid("alpha"), _JOINT, variant={"swap": False}),
    "T37": Checker("full", _t36, _grid("alpha"), _JOINT, variant={"swap": True}),
}

# perfbench's campaign_large leaves these out: only its operator checkers scale with dims
SCALAR_IDS = tuple(tid for tid, c in CHECKERS.items() if c.kind == SCALAR)


def lookup(theorem_id, kind=None):
    """The registry record of checker ``theorem_id``, which must be of ``kind`` if given."""
    checker = CHECKERS.get(theorem_id)
    if checker is None or kind not in (None, checker.kind):
        raise BadParams(f"no {kind or 'such'} checker {theorem_id!r}")
    return checker


@functools.cache
def _params_type(theorem_id):
    """The dict type of one checker's slice params, built without a Python __init__:
    reading a key it lacks raises BadParams naming the checker."""
    def missing(params, key):
        raise BadParams(f"{theorem_id} needs param {key!r}")
    return type("Params", (dict,), {"__missing__": missing})


def _bucket(theorem_id, kind, runs, params, arrays, spaces):
    """(record, lone, arrays, params, bucket, variants) of one operand set or a stack.

    ``theorem_id`` is every slice's checker id, or a tuple of one id per
    slice, all of one family. A stack (a first array of more axes than a lone
    operand) takes one params dict per slice; a lone operand set with one
    dict is a stack of one. The bucket holds, per slice, one (convention,
    certificate factory) pair per run of ``runs`` or else of its record, with
    one digest of the slice's arrays, Gram matrices and params; ``variants``,
    each variant keyword's values.
    """
    per_slice = isinstance(theorem_id, tuple)
    records = ({tid: lookup(tid, kind) for tid in dict.fromkeys(theorem_id)} if per_slice
               else {theorem_id: lookup(theorem_id, kind)})
    record = next(iter(records.values()))
    lone = np.ndim(arrays[0]) == {"pair": 0, "vectors": 1}.get(record.shape, 2)
    if not (isinstance(params, dict) if lone
            else [type(pr) for pr in params] == [dict] * len(arrays[0])):
        raise BadParams(f"{theorem_id} needs one params dict per slice")
    if lone:
        arrays, params = [np.asarray(a)[None] for a in arrays], [params]
    ids = theorem_id if per_slice else (theorem_id,) * len(params)
    if len(ids) != len(params) or per_slice and len(
            {(r.evaluate, r.shape) for r in records.values()}) != 1:
        raise BadParams(f"{theorem_id}: one checker id per slice, all of one family")
    params = [_params_type(tid)(pr) for tid, pr in zip(ids, params)]
    grams = [s.gram if s.gram.ndim == 3 else [s.gram] * len(params) for s in spaces]

    def factories(tid, slice_runs, slice_params, *inputs):  # one certificate factory per run
        digest = _bound_digest(*inputs, dict(slice_params))
        return tuple((conv, partial(make_certificate, tid, convention=conv, mode=mode,
                                    digest=digest)) for conv, mode in slice_runs)
    if len(records) == 1:  # every slice shares the record's variant and runs
        variants = {name: [value] * len(ids) for name, value in record.variant.items()}
        slice_runs = [runs or record.runs] * len(ids)
    else:
        variants = {name: [records[tid].variant.get(name) for tid in ids]
                    for name in {name for r in records.values() for name in r.variant}}
        slice_runs = [runs or records[tid].runs for tid in ids]
    return (record, lone, arrays, params, [factories(*inputs) for inputs in zip(
        ids, slice_runs, params, *arrays, *grams)], variants)


def check_scalar(theorem_id, params, inputs):
    """Scalar and vector checkers on floats a, b or vectors a, b, e. Returns Certificates;
    a bucket, a stack of each with one params dict per slice, gives one list per slice."""
    checker, lone, inputs, params, bucket, variants = _bucket(theorem_id, SCALAR, None, params,
                                                              inputs, [])
    per_slice = checker.evaluate([cert for ((_, cert),) in bucket], params, inputs, **variants)
    return per_slice[0] if lone else per_slice


def check_single(theorem_id, space, t_mat, params, extras=None):
    """Single-operator checkers on a kernel space. Returns Certificates.

    Takes one operator T with one params dict, or a bucket: stacks of T and
    of each extra operand, over a shared or stacked space, with one params
    dict per slice (and maybe a tuple of one id per slice, of one family),
    which gives one certificate list per slice.
    """
    extras = extras or {}
    checker, lone, (t_mat, *rest), params, bucket, variants = _bucket(
        theorem_id, SINGLE, None, params, (space.check_operator(t_mat), *extras.values()),
        [space])
    per_slice = checker.evaluate([cert for ((_, cert),) in bucket], space, t_mat, params,
                                 dict(zip(extras, rest)), **variants)
    return per_slice[0] if lone else per_slice


def _check_shape(theorem_id, shape, block):
    """Raise BadParams unless ``block`` has the structure its registry ``shape`` names.

    "full" needs nothing, "diag" X = Y = 0 and the other shapes S = R = 0;
    "offdiag_square" also needs n1 = n2, and "tied_square" n1 = n2 and Y = X.
    """
    zero = {"full": "", "diag": "XY"}.get(shape, "SR")
    _require(not any(np.count_nonzero(getattr(block, name)) for name in zero),
             f"{theorem_id} needs {' = '.join(zero)} = 0 in its {shape} block")
    if shape in ("offdiag_square", "tied_square"):
        _require(block.space1.dim == block.space2.dim, f"{theorem_id} needs n1 = n2")
    if shape == "tied_square":
        _require(np.array_equal(block.X, block.Y), f"{theorem_id} needs Y = X")


def check_block_runs(theorem_id, block, params, runs=None):
    """Block-operator checkers at each (convention, mode) of ``runs``.

    The block must have its checker's registry shape. It is one block with
    one params dict, or a bucket: a stacked block with a sequence of one
    params dict per slice (and maybe a tuple of one id per slice, of one
    family), which gives one certificate list per slice. ``runs`` defaults
    to each slice's registry runs. The certificates of a block's runs share
    one input digest and operands, and come back in run order.
    """
    spaces = (block.space1, block.space2)
    checker, lone, arrays, params, bucket, variants = _bucket(
        theorem_id, BLOCK, runs, params, (block.S, block.X, block.Y, block.R), spaces)
    _check_shape(theorem_id, checker.shape, block)
    # a lone block is evaluated as a stack of one; a stacked block as it was given
    per_slice = checker.evaluate(bucket, blockops.BlockOperator(*arrays, *spaces) if lone
                                 else block, params, **variants)
    return per_slice[0] if lone else per_slice
