"""Tests for the inequality checkers.

Covers the hand-evaluable equality witnesses, chain-link emission, scale
covariance, precondition errors, and reproducibility of certificates. Also
pins the analytic counterexample showing that the T32/R33 bounds fail on
finite kernel models (see notes in the acceptance suite).
"""

import inspect

import numpy as np
import pytest

from berlab import blockops, harness, numlin, rkhs, theorems
from berlab.errors import BadParams


def cgauss(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def offdiag(x, y):
    return blockops.offdiag_block(np.asarray(x, dtype=complex),
                                  np.asarray(y, dtype=complex))


# ---------------------------------------------------------------------------
# scalar checkers


def test_young2_equality_and_hand_example():
    cert = theorems.check_scalar("YOUNG2", {"m": 1}, (1.0, 1.0))[0]
    assert cert.lhs == 1.0 and cert.rhs == 1.0 and cert.slack == 0.0
    cert = theorems.check_scalar("YOUNG2", {"m": 2}, (4.0, 0.0))[0]
    assert cert.lhs == 4.0 and cert.rhs == 4.0 and cert.slack == 0.0


def test_young2_random_holds():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = 4.0 * rng.random(), 4.0 * rng.random()
        m = int(rng.integers(1, 4))
        assert theorems.check_scalar("YOUNG2", {"m": m}, (a, b))[0].holds


def test_i37_degenerate_equality():
    for cert in theorems.check_scalar("I37", {"nu": 0.25, "r": 2.0}, (1.5, 1.5)):
        assert abs(cert.slack) <= 1e-12


def test_i37_i38_links():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = 4.0 * rng.random(), 4.0 * rng.random()
        certs = theorems.check_scalar("I37", {"nu": 0.75, "r": 3.0}, (a, b))
        assert [c.params["link"] for c in certs] == [1, 2]
        assert all(c.holds for c in certs)
        certs = theorems.check_scalar("I38", {"p": 3.0, "q": 1.5, "r": 2.0}, (a, b))
        assert [c.params["link"] for c in certs] == [1, 2]
        assert all(c.holds for c in certs)


def test_s310_schwarz_refinement():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a, b, e = cgauss(rng, n), cgauss(rng, n), cgauss(rng, n)
        assert theorems.check_scalar("S310", {}, (a, b, e))[0].holds


def test_scalar_preconditions():
    with pytest.raises(BadParams):
        theorems.check_scalar("YOUNG2", {"m": 0}, (1.0, 1.0))
    with pytest.raises(BadParams):
        theorems.check_scalar("I37", {"nu": 1.5, "r": 1.0}, (1.0, 1.0))
    with pytest.raises(BadParams):
        theorems.check_scalar("I38", {"p": 3.0, "q": 2.0, "r": 1.0}, (1.0, 1.0))


# ---------------------------------------------------------------------------
# single-operator checkers


def test_p39_identity_equality():
    sp = rkhs.identity_space(2)
    cert = theorems.check_single("P39", sp, np.eye(2), {"r": 1.0})[0]
    assert abs(cert.lhs - 1.0) <= 1e-12 and abs(cert.rhs - 1.0) <= 1e-12


def test_r310_chain():
    rng = np.random.default_rng(7)
    sp = rkhs.identity_space(3)
    for _ in range(30):
        certs = theorems.check_single("R310", sp, cgauss(rng, (3, 3)), {"r": 2.0})
        assert [c.params["link"] for c in certs] == [1, 2]
        assert all(c.holds for c in certs)


def test_t312_zero_operator():
    sp = rkhs.identity_space(2)
    for tid in ("T312_stmt", "T312_proof"):
        cert = theorems.check_single(tid, sp, np.zeros((2, 2)),
                                     {"nu": 0.25, "t": 0.5})[0]
        assert cert.lhs == 0.0
        assert abs(cert.rhs - (0.25 * 0.25 + 0.75 * 0.25)) <= 1e-12
        assert cert.holds


def test_t32_psd_equality_example():
    sp = rkhs.identity_space(2)
    cert = theorems.check_single("T32", sp, np.diag([1.0, 2.0]), {"t": 0.5})[0]
    assert abs(cert.lhs - 2.0) <= 1e-12
    assert abs(cert.rhs - 2.0) <= 1e-10


def test_t32_r33_counterexample_is_recorded_honestly():
    """ber(T) <= 1/4 |||T|^{2t}+|T|^{2(1-t)}|| + 1/2 ber(Aluthge_t(T)) is
    FALSE on finite kernel models: for rank-one T = u v* with small <u, v>
    and a kernel well aligned with v, the left side exceeds the right for
    every t. The checkers must report the violation, not mask it."""
    fam = rkhs.KernelFamily("gaussian", {"sigma": 1.0})
    sp = rkhs.build_space(fam, [-2.913518783488913, -0.6539410760925704])
    t_mat = np.array([[0.0, -0.32 + 0.92j], [0.0, -0.171 + 0.146j]])
    for tid, params in (("T32", {"t": 0.5}), ("T32", {"t": 1.0}), ("R33", {})):
        cert = theorems.check_single(tid, sp, t_mat, params)[0]
        assert cert.mode == theorems.GATING
        assert not cert.holds
        assert cert.slack < -0.03


def test_t311_proof_and_stmt():
    rng = np.random.default_rng(9)
    sp = rkhs.identity_space(3)
    for _ in range(30):
        t_mat = cgauss(rng, (3, 3))
        params = {"r": 2.0, "p": 3.0, "q": 1.5, "e": 0.5}
        proof = theorems.check_single("T311_proof", sp, t_mat, params)[0]
        assert proof.mode == theorems.GATING and proof.holds
        stmt = theorems.check_single("T311_stmt", sp, t_mat, params)[0]
        assert stmt.mode == theorems.INFORMATIONAL


def test_t311_preconditions():
    sp = rkhs.identity_space(2)
    with pytest.raises(BadParams):  # q*r < 2
        theorems.check_single("T311_proof", sp, np.eye(2),
                              {"r": 1.0, "p": 3.0, "q": 1.5, "e": 0.5})
    with pytest.raises(BadParams):  # p < q
        theorems.check_single("T311_proof", sp, np.eye(2),
                              {"r": 2.0, "p": 1.5, "q": 3.0, "e": 0.5})


def test_l21c_certificate():
    rng = np.random.default_rng(11)
    sp = rkhs.identity_space(3)
    for _ in range(10):
        cert = theorems.check_single("L21c", sp, cgauss(rng, (3, 3)),
                                     {"theta_grid": 720})[0]
        assert cert.holds


def test_ber_axiom_checkers():
    rng = np.random.default_rng(13)
    sp = rkhs.identity_space(3)
    t_mat = cgauss(rng, (3, 3))
    hom = theorems.check_single("BER_HOM", sp, t_mat,
                                {"alpha_re": 0.3, "alpha_im": -1.2})[0]
    assert hom.holds
    sub = theorems.check_single("BER_SUB", sp, t_mat, {},
                                extras={"B": cgauss(rng, (3, 3))})[0]
    assert sub.holds
    assert theorems.check_single("BER_NORM", sp, t_mat, {})[0].holds


def test_l22_l23_checkers():
    rng = np.random.default_rng(17)
    sp = rkhs.identity_space(3)
    g = cgauss(rng, (3, 3))
    psd = g.conj().T @ g
    assert theorems.check_single("L22a", sp, psd, {"r": 2.0})[0].holds
    assert theorems.check_single("L22b", sp, psd, {"r": 0.5})[0].holds
    cert = theorems.check_single("L23", sp, cgauss(rng, (3, 3)), {"p": 0.25},
                                 extras={"x": cgauss(rng, 3), "y": cgauss(rng, 3)})[0]
    assert cert.holds


# ---------------------------------------------------------------------------
# block checkers


def test_t24a_hand_equality():
    blk = offdiag([[1.0]], [[1.0]])
    cert = theorems.check_block("T24a", blk, "pair", {"r": 1.0, "p": 0.5})[0]
    assert abs(cert.lhs - 2.0) <= 1e-12
    assert abs(cert.rhs - 2.0) <= 1e-12
    assert abs(cert.slack) <= 1e-12


def test_l21b_zero_block():
    blk = offdiag(np.zeros((2, 2)), np.zeros((2, 2)))
    cert = theorems.check_block("L21b", blk, "joint", {})[0]
    assert cert.lhs == 0.0 and cert.rhs == 0.0 and cert.holds


def test_c27_identity_links():
    blk = offdiag(np.eye(2), np.eye(2))
    certs = theorems.check_block("C27", blk, "joint", {})
    assert [c.params["link"] for c in certs] == [1, 2]
    assert abs(certs[1].slack) <= 1e-12
    assert all(c.holds for c in certs)


def test_c28_chain_links():
    rng = np.random.default_rng(19)
    blk = offdiag(cgauss(rng, (2, 3)), cgauss(rng, (3, 2)))
    certs = theorems.check_block("C28", blk, "joint", {})
    assert [c.params["link"] for c in certs] == [1, 2, 3]
    assert all(c.holds for c in certs)


def test_scale_covariance():
    rng = np.random.default_rng(23)
    x, y = cgauss(rng, (3, 3)), cgauss(rng, (3, 3))
    c = 2.75
    # p = 1/2 keeps both rhs summands at the same homogeneity degree, so
    # lhs and rhs both scale by c^r
    for tid, params in (("T24a", {"r": 2.0, "p": 0.5}),
                        ("T24b", {"r": 2.0, "p": 0.5}),
                        ("R26", {})):
        r = params.get("r", 1.0)
        base = theorems.check_block(tid, offdiag(x, y), "pair", params)[0]
        scaled = theorems.check_block(tid, offdiag(c * x, c * y), "pair", params)[0]
        assert abs(scaled.lhs - c**r * base.lhs) <= 1e-9 * (1.0 + scaled.lhs)
        assert abs(scaled.rhs - c**r * base.rhs) <= 1e-9 * (1.0 + scaled.rhs)
        assert (scaled.slack >= 0) == (base.slack >= 0)


def test_t29_eta_and_relation_to_t24a():
    rng = np.random.default_rng(29)
    for _ in range(20):
        x, y = cgauss(rng, (3, 2)), cgauss(rng, (2, 3))
        params = {"r": 2.0, "p": 0.25}
        t29 = theorems.check_block("T29", offdiag(x, y), "pair", params)[0]
        t24 = theorems.check_block("T24a", offdiag(x, y), "pair", params)[0]
        assert t29.witness["eta_inf"] >= 0.0
        # T29 weakens T24a's geometric-mean product, so its rhs dominates
        assert t29.rhs >= t24.rhs - 1e-9 * (1.0 + abs(t24.rhs))
        assert t29.holds and t24.holds


def test_ineq1_ties_powers():
    rng = np.random.default_rng(31)
    for s in (1.0, 2.0):
        blk = offdiag(cgauss(rng, (3, 3)), cgauss(rng, (3, 3)))
        cert = theorems.check_block("INEQ1", blk, "joint", {"s": s, "p": 0.5})[0]
        value, _ = blockops.ber_block(blk, "joint")
        assert abs(cert.lhs - value**s) <= 1e-12 * (1.0 + cert.lhs)
        assert cert.holds


def test_t31_c34_checkers():
    rng = np.random.default_rng(37)
    for _ in range(15):
        blk = offdiag(cgauss(rng, (3, 3)), cgauss(rng, (3, 3)))
        for tid in ("T31", "C34"):
            cert = theorems.check_block(tid, blk, "joint", {"t": 0.25})[0]
            assert cert.holds


def test_t36_t37_checkers():
    rng = np.random.default_rng(41)
    sp1, sp2 = rkhs.identity_space(2), rkhs.identity_space(3)
    for _ in range(15):
        blk = blockops.BlockOperator(
            S=cgauss(rng, (2, 2)), X=cgauss(rng, (2, 3)),
            Y=cgauss(rng, (3, 2)), R=cgauss(rng, (3, 3)),
            space1=sp1, space2=sp2)
        for tid in ("T36", "T37"):
            cert = theorems.check_block(tid, blk, "joint", {"alpha": 0.5})[0]
            assert cert.holds


def test_t37_is_t36_of_the_swapped_block():
    # T37 on [[S, X], [Y, R]] over (space1, space2) is T36 on [[R, Y], [X, S]]
    # over (space2, space1): the same rhs formula with the roles exchanged
    rng = np.random.default_rng(59)
    for _ in range(20):
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        family = harness.DEFAULT_FAMILIES[int(rng.integers(3))]
        sp1 = harness.draw_space(rng, family, n1)
        sp2 = harness.draw_space(rng, family, n2)
        s, x = cgauss(rng, (n1, n1)), cgauss(rng, (n1, n2))
        y, r = cgauss(rng, (n2, n1)), cgauss(rng, (n2, n2))
        params = {"alpha": float(rng.choice([0.0, 0.25, 0.5, 1.0]))}
        blk = blockops.BlockOperator(S=s, X=x, Y=y, R=r, space1=sp1, space2=sp2)
        swapped = blockops.BlockOperator(S=r, X=y, Y=x, R=s, space1=sp2, space2=sp1)
        t37 = theorems.check_block("T37", blk, "joint", params)[0]
        t36 = theorems.check_block("T36", swapped, "joint", params)[0]
        assert t37.rhs == t36.rhs
        assert abs(t37.lhs - t36.lhs) <= 1e-12 * (1.0 + abs(t37.lhs))


def test_c35_informational_readings():
    rng = np.random.default_rng(43)
    blk = offdiag(cgauss(rng, (3, 3)), cgauss(rng, (3, 3)))
    certs = theorems.check_block("C35", blk, None, {})
    assert [c.params["reading"] for c in certs] == ["sum", "adjoint_sum"]
    assert all(c.mode == theorems.INFORMATIONAL for c in certs)


def test_block_shape_preconditions():
    rng = np.random.default_rng(47)
    rect = offdiag(cgauss(rng, (2, 3)), cgauss(rng, (3, 2)))
    with pytest.raises(BadParams):
        theorems.check_block("C27", rect, "joint", {})
    with pytest.raises(BadParams):
        theorems.check_block("T31", rect, "joint", {"t": 0.5})
    sq = offdiag(cgauss(rng, (2, 2)), cgauss(rng, (2, 2)))
    with pytest.raises(BadParams):  # C27 needs the tied Y = X
        theorems.check_block("C27", sq, "joint", {})
    with pytest.raises(BadParams):  # r < 1
        theorems.check_block("T24a", sq, "pair", {"r": 0.5, "p": 0.5})
    full = blockops.BlockOperator(
        S=np.eye(2, dtype=complex), X=np.zeros((2, 2), dtype=complex),
        Y=np.zeros((2, 2), dtype=complex), R=np.eye(2, dtype=complex),
        space1=rkhs.identity_space(2), space2=rkhs.identity_space(2))
    with pytest.raises(BadParams):  # L21b needs an off-diagonal block
        theorems.check_block("L21b", full, "joint", {})


TWO_RUN_BLOCK_IDS = ("L21a", "L21b", "INEQ1", "T24a", "T24b", "C25a", "C25b",
                     "R26", "C27", "C28", "T29", "C210")


@pytest.mark.parametrize("tid", TWO_RUN_BLOCK_IDS)
def test_block_runs_match_per_run_check_block(tid):
    # evaluating a draw once for all its runs gives the certificates of one
    # check_block call per run, bit for bit and in run order
    checker = theorems.CHECKERS[tid]
    assert checker.kind == theorems.BLOCK and len(checker.runs) == 2
    config = harness.CampaignConfig(master_seed=11, trials_per_checker=20,
                                    dims=((1, 1), (2, 2), (3, 2), (4, 3)))
    for i in range(config.trials_per_checker):
        seed = harness.derive_trial_seed(config.master_seed, tid, i)
        draw = harness.draw_trial(tid, seed, config)
        at_once = [c.to_dict() for c in harness.evaluate_draw(draw, config)]
        for cert in at_once:
            assert cert["witness"].pop("trial_seed") == seed
        block = harness._build_block(draw, checker.shape)
        per_run = [c.to_dict() for conv, mode in checker.runs
                   for c in theorems.check_block(tid, block, conv, draw.params,
                                                 mode=mode)]
        assert at_once == per_run


def test_block_runs_read_each_convention_off_ber_block():
    # each run's peak and witness are ber_block's under that run's own
    # convention, whatever the run order, on square and rectangular blocks
    rng = np.random.default_rng(61)
    orders = ((("pair", theorems.GATING), ("joint", theorems.INFORMATIONAL)),
              (("joint", theorems.GATING), ("pair", theorems.INFORMATIONAL)))
    for i in range(20):
        n1 = int(rng.integers(1, 5))
        n2 = n1 if i % 2 == 0 else n1 % 4 + 1
        family = harness.DEFAULT_FAMILIES[int(rng.integers(3))]
        blk = blockops.offdiag_block(cgauss(rng, (n1, n2)), cgauss(rng, (n2, n1)),
                                     space1=harness.draw_space(rng, family, n1),
                                     space2=harness.draw_space(rng, family, n2))
        for runs in orders:
            certs = theorems.check_block_runs("L21b", blk, {}, runs)
            assert [c.convention for c in certs] == [conv for conv, _ in runs]
            for (conv, _), cert in zip(runs, certs):
                value, (j1, j2) = blockops.ber_block(blk, conv)
                assert cert.lhs == value
                assert cert.witness == {"j1": j1, "j2": j2}


def test_check_block_rejects_unknown_convention():
    blk = offdiag(np.eye(2), np.eye(2))
    for conv in ("directsum", "diag", None):
        with pytest.raises(BadParams):
            theorems.check_block("T24a", blk, conv, {"r": 1.0, "p": 0.5})


def test_abs_powers_match_per_operand_bit_for_bit():
    # one modulus stack per operand shape and one modulus per repeated
    # operand give the bits of one matrix_abs and one power per operand
    rng = np.random.default_rng(67)
    exponents = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 0.75, 4.0 / 3.0)
    for n1, n2 in ((1, 1), (2, 2), (3, 2), (2, 3), (4, 4), (1, 4)):
        x = cgauss(rng, (n1, n2))
        y = np.outer(cgauss(rng, n2), cgauss(rng, n1).conj())  # rank one
        zero = np.zeros((n1, n2), dtype=np.complex128)
        ops = [x, y.conj().T, y, x.conj().T, zero, x, y, x]
        exps = [exponents[(k + n1) % len(exponents)] for k in range(len(ops))]
        got = theorems._abs_powers(ops, exps)
        assert len(got) == len(ops)
        for op, e, power in zip(ops, exps, got):
            want = numlin.matrix_power_psd(numlin.matrix_abs(op), e)
            assert power.shape == want.shape and power.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# certificates


def test_certificate_fields_and_reproducibility():
    rng = np.random.default_rng(53)
    blk = offdiag(cgauss(rng, (2, 2)), cgauss(rng, (2, 2)))
    first = theorems.check_block("R26", blk, "joint", {})[0]
    second = theorems.check_block("R26", blk, "joint", {})[0]
    assert first.to_dict() == second.to_dict()
    assert first.slack == first.rhs - first.lhs
    assert first.holds == (first.slack >= -theorems.slack_tolerance(first.rhs))
    assert first.input_digest and first.input_digest == second.input_digest


def test_evaluate_functions_never_see_the_checker_id():
    # a checker's variant is bound into its registry record, not read off its id
    for tid, checker in theorems.CHECKERS.items():
        names = inspect.signature(checker.evaluate).parameters
        assert "tid" not in names and "theorem_id" not in names, tid


def test_nonfinite_inputs_rejected():
    with pytest.raises(BadParams):
        theorems.make_certificate("X", float("nan"), 1.0)


def test_unknown_checker_ids():
    sp = rkhs.identity_space(1)
    with pytest.raises(BadParams):
        theorems.check_scalar("NOPE", {}, (1.0, 1.0))
    with pytest.raises(BadParams):
        theorems.check_single("NOPE", sp, np.eye(1), {})
    with pytest.raises(BadParams):
        theorems.check_block("NOPE", offdiag([[1.0]], [[1.0]]), "pair", {})
