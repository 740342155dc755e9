"""Tests for the inequality checkers.

Covers the hand-evaluable equality witnesses, chain-link emission, scale
covariance, precondition errors, and reproducibility of certificates. Also
pins the analytic counterexample showing that the T32/R33 bounds fail on
finite kernel models (see notes in the acceptance suite).
"""

import dataclasses
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


# one gating run at one convention, as check_block_runs takes it
PAIR = (("pair", theorems.GATING),)
JOINT = (("joint", theorems.GATING),)


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


def test_scalar_bucket_takes_one_params_dict_per_slice():
    # stacks of a and b, or of a, b and e, give one certificate list per
    # slice, each that of its inputs alone, input digest included; a lone
    # input set takes one dict, a stack one dict per slice
    rng = np.random.default_rng(23)
    a, b = 4.0 * rng.random(3), 4.0 * rng.random(3)
    params = [{"m": 1}, {"m": 2}, {"m": 3}]
    per_slice = theorems.check_scalar("YOUNG2", params, (a, b))
    assert [[c.to_dict() for c in certs] for certs in per_slice] == [
        [c.to_dict() for c in theorems.check_scalar("YOUNG2", pr, (float(x), float(y)))]
        for x, y, pr in zip(a, b, params)]
    vectors = cgauss(rng, (3, 2, 4))
    per_slice = theorems.check_scalar("S310", [{}, {}], tuple(vectors))
    assert [[c.to_dict() for c in certs] for certs in per_slice] == [
        [c.to_dict() for c in theorems.check_scalar("S310", {}, tuple(vectors[:, k]))]
        for k in range(2)]
    for inputs, bad in (((a, b), params[:2]), ((a, b), params[0]), ((1.0, 1.0), params),
                        ((a, b), [params[0], params[1], {"m": 0}])):
        with pytest.raises(BadParams):
            theorems.check_scalar("YOUNG2", bad, inputs)


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
    [sp] = rkhs.build_space(fam, [[-2.913518783488913, -0.6539410760925704]])
    t_mat = np.array([[0.0, -0.32 + 0.92j], [0.0, -0.171 + 0.146j]])
    for tid, params in (("T32", {"t": 0.5}), ("T32", {"t": 1.0}), ("R33", {})):
        cert = theorems.check_single(tid, sp, t_mat, params)[0]
        assert cert.mode == theorems.GATING
        assert not cert.holds
        assert cert.slack < -0.03


def test_t32_takes_one_polar_and_one_power_stack(monkeypatch):
    # T32 reads the Aluthge factors and its norm term's powers off one polar
    # decomposition and one eigh stack, with aluthge_general's bits; R33
    # still goes through aluthge_general. A stack of K draws takes these
    # calls once, not K times
    config = harness.CampaignConfig(master_seed=42, dims=((1, 1), (3, 3), (5, 5)))
    calls = dict.fromkeys(("polar_decompose", "hermitian_eig", "aluthge_general"), 0)

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((numlin, "polar_decompose"), (numlin, "hermitian_eig"),
                         (blockops, "aluthge_general")):
        count(module, name)
    expected = {"T32": {"polar_decompose": 1, "hermitian_eig": 1, "aluthge_general": 0},
                "R33": {"polar_decompose": 1, "hermitian_eig": 1, "aluthge_general": 1}}
    for tid, want in expected.items():
        draws = harness.draw_trial((tid,) * 20,
                                   [harness.derive_trial_seed(42, tid, i) for i in range(20)],
                                   config)
        by_shape = {}
        for draw in draws:
            by_shape.setdefault(draw.arrays["T"].shape, []).append(draw)
        for group in by_shape.values():
            calls.update(dict.fromkeys(want, 0))
            per_slice = harness.evaluate_draw(harness._stack_draws(group))
            assert len(per_slice) == len(group) > 1 and calls == want, tid
        for i, draw in enumerate(draws):
            calls.update(dict.fromkeys(want, 0))
            cert, = harness.evaluate_draw(draw)
            assert calls == want, (tid, i)
            if tid == "T32":
                space, t_mat, t = draw.spaces["space"], draw.arrays["T"], cert.params["t"]
                modulus = numlin.polar_decompose(t_mat)[1]
                powers = numlin.matrix_power_psd(np.stack([modulus, modulus]),
                                                 [2.0 * t, 2.0 * (1.0 - t)], support=True)
                rhs = (0.25 * numlin.operator_norm(powers[0] + powers[1]) + 0.5
                       * rkhs.berezin_number(space, blockops.aluthge_general(t_mat, t)))
                assert cert.rhs == rhs, i


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
    with pytest.raises(BadParams):  # ber_via_rotations needs a grid of 4 or more
        theorems.check_single("L21c", sp, cgauss(rng, (3, 3)), {"theta_grid": 3})


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


def test_single_bucket_takes_one_params_dict_per_slice():
    # a stack of operators over one space gives one certificate list per
    # slice, each that of its operator alone; a lone operator takes one
    # dict, a stack one dict per slice
    rng = np.random.default_rng(19)
    sp = rkhs.identity_space(3)
    stack = cgauss(rng, (2, 3, 3))
    params = [{"r": 1.0}, {"r": 2.0}]
    per_slice = theorems.check_single("R310", sp, stack, params)
    assert [[c.to_dict() for c in certs] for certs in per_slice] == [
        [c.to_dict() for c in theorems.check_single("R310", sp, t, pr)]
        for t, pr in zip(stack, params)]
    for t_mat, bad in ((stack, params[:1]), (stack, params[0]), (stack[0], params),
                       (stack, [params[0], {"r": 0.5}])):
        with pytest.raises(BadParams):
            theorems.check_single("R310", sp, t_mat, bad)


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
    cert = theorems.check_block_runs("T24a", blk, {"r": 1.0, "p": 0.5}, PAIR)[0]
    assert abs(cert.lhs - 2.0) <= 1e-12
    assert abs(cert.rhs - 2.0) <= 1e-12
    assert abs(cert.slack) <= 1e-12


def test_l21b_zero_block():
    blk = offdiag(np.zeros((2, 2)), np.zeros((2, 2)))
    cert = theorems.check_block_runs("L21b", blk, {}, JOINT)[0]
    assert cert.lhs == 0.0 and cert.rhs == 0.0 and cert.holds


def test_c27_identity_links():
    blk = offdiag(np.eye(2), np.eye(2))
    certs = theorems.check_block_runs("C27", blk, {}, JOINT)
    assert [c.params["link"] for c in certs] == [1, 2]
    assert abs(certs[1].slack) <= 1e-12
    assert all(c.holds for c in certs)


def test_c28_chain_links():
    rng = np.random.default_rng(19)
    blk = offdiag(cgauss(rng, (2, 3)), cgauss(rng, (3, 2)))
    certs = theorems.check_block_runs("C28", blk, {}, JOINT)
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
        base = theorems.check_block_runs(tid, offdiag(x, y), params, PAIR)[0]
        scaled = theorems.check_block_runs(tid, offdiag(c * x, c * y), params, PAIR)[0]
        assert abs(scaled.lhs - c**r * base.lhs) <= 1e-9 * (1.0 + scaled.lhs)
        assert abs(scaled.rhs - c**r * base.rhs) <= 1e-9 * (1.0 + scaled.rhs)
        assert (scaled.slack >= 0) == (base.slack >= 0)


def test_t29_eta_and_relation_to_t24a():
    rng = np.random.default_rng(29)
    for _ in range(20):
        x, y = cgauss(rng, (3, 2)), cgauss(rng, (2, 3))
        params = {"r": 2.0, "p": 0.25}
        t29 = theorems.check_block_runs("T29", offdiag(x, y), params, PAIR)[0]
        t24 = theorems.check_block_runs("T24a", offdiag(x, y), params, PAIR)[0]
        assert t29.witness["eta_inf"] >= 0.0
        # T29 weakens T24a's geometric-mean product, so its rhs dominates
        assert t29.rhs >= t24.rhs - 1e-9 * (1.0 + abs(t24.rhs))
        assert t29.holds and t24.holds


def test_c210_refinement_term_vanishes_on_tied_draws():
    # a tied draw has Y = X and space2 = space1, so both PSD operands and
    # their Berezin symbols coincide and eta is 0 on the diagonal pair
    trials = [t for _, t in harness._trials(harness.CampaignConfig(), ("C210",)) if t]
    assert len(trials) == harness.CampaignConfig().trials_per_checker
    etas = {c.witness["eta_inf"] for _, certs in trials for c in certs}
    assert etas == {0.0}


def test_ineq1_ties_powers():
    rng = np.random.default_rng(31)
    for s in (1.0, 2.0):
        blk = offdiag(cgauss(rng, (3, 3)), cgauss(rng, (3, 3)))
        cert = theorems.check_block_runs("INEQ1", blk, {"s": s, "p": 0.5}, JOINT)[0]
        value, _ = blockops.ber_block(blk, "joint")
        assert abs(cert.lhs - value**s) <= 1e-12 * (1.0 + cert.lhs)
        assert cert.holds


def test_t31_c34_checkers():
    rng = np.random.default_rng(37)
    for _ in range(15):
        blk = offdiag(cgauss(rng, (3, 3)), cgauss(rng, (3, 3)))
        for tid in ("T31", "C34"):
            cert = theorems.check_block_runs(tid, blk, {"t": 0.25}, JOINT)[0]
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
            cert = theorems.check_block_runs(tid, blk, {"alpha": 0.5}, JOINT)[0]
            assert cert.holds


def test_t37_is_t36_of_the_swapped_block():
    # T37 on [[S, X], [Y, R]] over (space1, space2) is T36 on [[R, Y], [X, S]]
    # over (space2, space1): the same rhs formula with the roles exchanged
    rng = np.random.default_rng(59)
    for _ in range(20):
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        family = harness.DEFAULT_FAMILIES[int(rng.integers(3))]
        [sp1] = harness.draw_space([rng], family, n1)
        [sp2] = harness.draw_space([rng], family, n2)
        s, x = cgauss(rng, (n1, n1)), cgauss(rng, (n1, n2))
        y, r = cgauss(rng, (n2, n1)), cgauss(rng, (n2, n2))
        params = {"alpha": float(rng.choice([0.0, 0.25, 0.5, 1.0]))}
        blk = blockops.BlockOperator(S=s, X=x, Y=y, R=r, space1=sp1, space2=sp2)
        swapped = blockops.BlockOperator(S=r, X=y, Y=x, R=s, space1=sp2, space2=sp1)
        t37 = theorems.check_block_runs("T37", blk, params, JOINT)[0]
        t36 = theorems.check_block_runs("T36", swapped, params, JOINT)[0]
        assert t37.rhs == t36.rhs
        assert abs(t37.lhs - t36.lhs) <= 1e-12 * (1.0 + abs(t37.lhs))


def test_c35_informational_readings():
    rng = np.random.default_rng(43)
    blk = offdiag(cgauss(rng, (3, 3)), cgauss(rng, (3, 3)))
    certs = theorems.check_block_runs("C35", blk, {}, theorems.CHECKERS["C35"].runs)
    assert [c.params["reading"] for c in certs] == ["sum", "adjoint_sum"]
    assert all(c.mode == theorems.INFORMATIONAL for c in certs)


SHAPED_BLOCK_IDS = tuple(tid for tid, c in theorems.CHECKERS.items()
                         if c.kind == theorems.BLOCK and c.shape != "full")


@pytest.mark.parametrize("tid", SHAPED_BLOCK_IDS)
def test_block_shape_preconditions(tid):
    # check_block_runs rejects a block that breaks any promise of the
    # checker's registry shape, and accepts the campaign's own draw
    checker = theorems.CHECKERS[tid]
    shape = checker.shape
    config = harness.CampaignConfig(master_seed=47, dims=((2, 3),))
    [draw] = harness.draw_trial((tid,), (harness.derive_trial_seed(47, tid, 0),), config)
    block = harness._build_block(draw, shape)
    run = checker.runs[:1]
    assert theorems.check_block_runs(tid, block, draw.params, run)
    n1, n2 = block.space1.dim, block.space2.dim
    if shape == "diag":
        broken = [dataclasses.replace(block, X=np.ones((n1, n2), dtype=complex))]
    else:
        broken = [dataclasses.replace(block, S=np.eye(n1, dtype=complex))]
    if shape in ("offdiag_square", "tied_square"):
        broken.append(offdiag(np.ones((2, 3)), np.ones((3, 2))))
    if shape == "tied_square":
        broken.append(dataclasses.replace(block, Y=block.Y + 1.0))
    for blk in broken:
        with pytest.raises(BadParams):
            theorems.check_block_runs(tid, blk, draw.params, run)


def test_block_param_preconditions():
    sq = offdiag(np.eye(2), np.eye(2))
    for tid, params in (("T24a", {"r": 0.5, "p": 0.5}), ("T29", {"r": 1.0, "p": 1.5}),
                        ("INEQ1", {"s": 0.5, "p": 0.5}), ("T31", {"t": -0.25})):
        with pytest.raises(BadParams):
            theorems.check_block_runs(tid, sq, params, theorems.CHECKERS[tid].runs[:1])
    # a stacked block takes one params dict per slice and checks each; a
    # lone block takes one dict, never a list that dict() would mangle
    pair = blockops.BlockOperator(*(np.stack([b, b]) for b in (sq.S, sq.X, sq.Y, sq.R)),
                                  sq.space1, sq.space2)
    good = {"r": 1.0, "p": 0.5}
    assert len(theorems.check_block_runs("T29", pair, [good, good], PAIR)) == 2
    for tid, blk, params in (("T29", pair, [good, {"r": 1.0, "p": 1.5}]),
                             ("T24a", pair, [good]), ("T24a", pair, good),
                             ("T24a", sq, [good])):
        with pytest.raises(BadParams):
            theorems.check_block_runs(tid, blk, params, PAIR)


TWO_RUN_BLOCK_IDS = ("L21a", "L21b", "INEQ1", "T24a", "T24b", "C25a", "C25b",
                     "R26", "C27", "C28", "T29", "C210")


@pytest.mark.parametrize("tid", TWO_RUN_BLOCK_IDS)
def test_block_runs_match_per_run_check_block(tid):
    # evaluating a draw once for all its runs gives the certificates of one
    # check_block_runs call per run, bit for bit and in run order
    checker = theorems.CHECKERS[tid]
    assert checker.kind == theorems.BLOCK and len(checker.runs) == 2
    config = harness.CampaignConfig(master_seed=11, trials_per_checker=20,
                                    dims=((1, 1), (2, 2), (3, 2), (4, 3)))
    for i in range(config.trials_per_checker):
        seed = harness.derive_trial_seed(config.master_seed, tid, i)
        [draw] = harness.draw_trial((tid,), (seed,), config)
        at_once = [c.to_dict() for c in harness.evaluate_draw(draw)]
        for cert in at_once:
            assert cert["witness"].pop("trial_seed") == seed
        block = harness._build_block(draw, checker.shape)
        per_run = [c.to_dict() for run in checker.runs
                   for c in theorems.check_block_runs(tid, block, draw.params, (run,))]
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
                                     space1=harness.draw_space([rng], family, n1)[0],
                                     space2=harness.draw_space([rng], family, n2)[0])
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
            theorems.check_block_runs("T24a", blk, {"r": 1.0, "p": 0.5},
                                      ((conv, theorems.GATING),))


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
        for support in (False, True):
            got = theorems._abs_powers(ops, exps, support=support)
            assert len(got) == len(ops)
            for op, e, power in zip(ops, exps, got):
                want = numlin.matrix_power_psd(numlin.matrix_abs(op), e, support)
                assert power.shape == want.shape and power.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# certificates


def test_certificate_fields_and_reproducibility():
    rng = np.random.default_rng(53)
    blk = offdiag(cgauss(rng, (2, 2)), cgauss(rng, (2, 2)))
    first = theorems.check_block_runs("R26", blk, {}, JOINT)[0]
    second = theorems.check_block_runs("R26", blk, {}, JOINT)[0]
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
        theorems.check_block_runs("NOPE", offdiag([[1.0]], [[1.0]]), {}, PAIR)


# ---------------------------------------------------------------------------
# tight inputs: each gating bound pinned where it is attained

TWO = np.full((1, 1), 2.0, dtype=complex)
TWO_I2 = 2.0 * np.eye(2, dtype=complex)
TWO_E1 = np.array([2.0, 0.0], dtype=complex)
E1 = np.array([1.0, 0.0], dtype=complex)
ZERO = np.zeros((1, 1), dtype=complex)
HALF = {"r": 1.0, "p": 0.5}

# checker id -> (params, operands) of an exact equality, up to L21c's grid
# error 1 - cos(pi/720): twice the unit cases X = Y = [1], T = I, a = b = 1.
# The factor 2 puts every rhs above 1, where rhs * 1.01 also exceeds the
# test's slack bar. Scalars are a, b; single-operator operands live on
# identity_space(2), block operands on a pair of identity_space(1).
TIGHT_INPUTS = {
    "YOUNG2": ({"m": 2}, {"a": 2.0, "b": 2.0}),
    "I37": ({"nu": 0.5, "r": 2.0}, {"a": 2.0, "b": 2.0}),
    "I38": ({"p": 2.0, "q": 2.0, "r": 2.0}, {"a": 2.0, "b": 2.0}),
    "S310": ({}, {"a": TWO_E1, "b": TWO_E1, "e": E1}),
    "L21c": ({"theta_grid": 720}, {"T": TWO_I2}),
    "P39": ({"r": 1.0}, {"T": TWO_I2}),
    "R310": ({"r": 1.0}, {"T": TWO_I2}),
    "T311_proof": ({"r": 1.0, "p": 2.0, "q": 2.0, "e": 0.5}, {"T": TWO_I2}),
    # nu = 1 drops the ||T - itI|| term; that term is not pinned here
    "T312_proof": ({"nu": 1.0, "t": 2.0}, {"T": TWO_I2}),
    "L22a": ({"r": 2.0}, {"T": TWO_I2}),
    "L22b": ({"r": 0.5}, {"T": TWO_I2}),
    "L23": ({"p": 0.5}, {"T": TWO_I2, "x": E1, "y": E1}),
    "BER_HOM": ({"alpha_re": 2.0, "alpha_im": 0.0}, {"T": TWO_I2}),
    "BER_SUB": ({}, {"T": TWO_I2, "B": TWO_I2}),
    "BER_NORM": ({}, {"T": TWO_I2}),
    "L21a": ({}, {"S": TWO, "R": TWO}),
    **{tid: (HALF, {"X": TWO, "Y": TWO})
       for tid in ("T24a", "T24b", "C25a", "C25b", "T29")},
    "C210": (HALF, {"X": TWO}),
    "INEQ1": ({"s": 1.0, "p": 0.5}, {"X": TWO, "Y": TWO}),
    "C27": ({}, {"X": TWO}),
    "C28": ({}, {"X": TWO, "Y": TWO}),
    "L21b": ({}, {"X": TWO, "Y": TWO}),
    "T31": ({"t": 0.5}, {"X": TWO, "Y": TWO}),
    "C34": ({"t": 0.5}, {"X": TWO, "Y": TWO}),
    # S = R = 0 drops the ber(S) and ber(R) terms; those are not pinned here
    **{tid: ({"alpha": 0.5}, {"S": ZERO, "X": TWO, "Y": TWO, "R": ZERO})
       for tid in ("T36", "T37")},
}

# gating checkers with no tight input pinned yet; R26 gates only its joint
# run, which X = Y = [1] leaves at half the bound
OPEN_TIGHTNESS = {"R26", "T32", "R33"}

GATING_IDS = tuple(tid for tid, c in theorems.CHECKERS.items()
                   if any(mode == theorems.GATING for _, mode in c.runs))


def tight_draw(tid):
    """The TIGHT_INPUTS entry of ``tid`` as a read-only trial draw."""
    checker = theorems.CHECKERS[tid]
    params, operands = TIGHT_INPUTS[tid]
    arrays = {k: np.array(v) for k, v in operands.items()}  # a pair's a, b are 0-d
    if checker.kind == theorems.SINGLE:
        spaces = {"space": rkhs.identity_space(2)}
    elif checker.kind == theorems.BLOCK:
        spaces = {"space1": rkhs.identity_space(1), "space2": rkhs.identity_space(1)}
    else:
        spaces = {}
    return harness.TrialDraw(tid, 0, dict(params), arrays, spaces)


def test_tight_inputs_cover_every_gating_checker():
    assert set(TIGHT_INPUTS).isdisjoint(OPEN_TIGHTNESS)
    assert set(TIGHT_INPUTS) | OPEN_TIGHTNESS == set(GATING_IDS)


@pytest.mark.parametrize("tid", GATING_IDS)
def test_gating_bound_is_tight(tid):
    # a 1% loosening, additive 0.01(1+|rhs|) or rhs * 1.01, fails here:
    # every gating certificate of the tight input holds with at most half
    # the additive slack
    if tid in OPEN_TIGHTNESS:
        return
    certs = [c for c in harness.evaluate_draw(tight_draw(tid)) if c.mode == theorems.GATING]
    assert certs
    for cert in certs:
        assert cert.holds and cert.slack <= 0.005 * (1.0 + abs(cert.rhs)), cert


def test_every_certificate_is_made_through_the_module_global(monkeypatch):
    # tests/mutate_bounds.py loosens a bound by replacing
    # theorems.make_certificate; a certificate made through a reference bound
    # earlier would escape it, and the script would print UNCAUGHT, not fail
    made, make = [], theorems.make_certificate

    def recorded(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(theorems, "make_certificate", recorded)
    certs, seen = [], set()
    for tid, trial in harness._trials(harness.CampaignConfig(trials_per_checker=2),
                                      harness.ALL_CHECKERS):
        assert trial is not None and trial[1]
        certs += trial[1]
        seen.add(tid)
    assert seen == set(theorems.CHECKERS) and len(seen) == 36
    made_ids = {id(cert) for cert in made}  # made keeps each alive: the ids are unique
    assert all(id(cert) in made_ids for cert in certs)
