"""Tests for block operators, paired-kernel Berezin functionals, and the
generalized Aluthge transform."""

import numpy as np
import pytest

from berlab import blockops, harness, numlin, rkhs
from berlab.errors import BadParams, DimensionMismatch


def cgauss(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_block(rng, n1, n2):
    sp1, sp2 = rkhs.identity_space(n1), rkhs.identity_space(n2)
    return blockops.BlockOperator(
        S=cgauss(rng, (n1, n1)), X=cgauss(rng, (n1, n2)),
        Y=cgauss(rng, (n2, n1)), R=cgauss(rng, (n2, n2)),
        space1=sp1, space2=sp2)


# ---------------------------------------------------------------------------
# assembly


def test_assemble_trivial():
    sp = rkhs.identity_space(1)
    z = np.zeros((1, 1), dtype=complex)
    blk = blockops.BlockOperator(S=z, X=z, Y=z, R=z, space1=sp, space2=sp)
    assert np.array_equal(blockops.assemble(blk), np.zeros((2, 2)))
    eye = np.eye(1, dtype=complex)
    blk = blockops.BlockOperator(S=eye, X=z, Y=z, R=eye, space1=sp, space2=sp)
    assert np.array_equal(blockops.assemble(blk), np.eye(2))


def test_assemble_blockwise_adjoint():
    rng = np.random.default_rng(1)
    blk = random_block(rng, 3, 2)
    swapped = blockops.BlockOperator(
        S=blk.S.conj().T, X=blk.Y.conj().T, Y=blk.X.conj().T, R=blk.R.conj().T,
        space1=blk.space1, space2=blk.space2)
    assert np.array_equal(blockops.assemble(blk).conj().T,
                          blockops.assemble(swapped))


def test_block_shape_validation():
    sp1, sp2 = rkhs.identity_space(2), rkhs.identity_space(3)
    z = lambda r, c: np.zeros((r, c), dtype=complex)
    with pytest.raises(DimensionMismatch):
        blockops.BlockOperator(S=z(2, 2), X=z(2, 2), Y=z(3, 2), R=z(3, 3),
                               space1=sp1, space2=sp2)
    with pytest.raises(DimensionMismatch):
        blockops.offdiag_block(z(2, 3), z(2, 3))


# ---------------------------------------------------------------------------
# ber_block conventions


def test_ber_block_hand_example():
    one = np.array([[1.0 + 0j]])
    blk = blockops.offdiag_block(one, one)
    pair, wit = blockops.ber_block(blk, "pair")
    assert abs(pair - 2.0) <= 1e-12
    assert wit == (0, 0)
    joint, _ = blockops.ber_block(blk, "joint")
    assert abs(joint - 1.0) <= 1e-12


def test_joint_is_half_pair_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(20):
        blk = random_block(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        pair, jp = blockops.ber_block(blk, "pair")
        joint, jj = blockops.ber_block(blk, "joint")
        assert joint == pair / 2.0
        assert jp == jj


def test_diagonal_joint_bounded_by_component_max():
    # the L21a shape at the joint convention
    rng = np.random.default_rng(9)
    for _ in range(20):
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sp1, sp2 = rkhs.identity_space(n1), rkhs.identity_space(n2)
        blk = blockops.BlockOperator(
            S=cgauss(rng, (n1, n1)), X=np.zeros((n1, n2), dtype=complex),
            Y=np.zeros((n2, n1), dtype=complex), R=cgauss(rng, (n2, n2)),
            space1=sp1, space2=sp2)
        value, _ = blockops.ber_block(blk, "joint")
        cap = max(rkhs.berezin_number(sp1, blk.S), rkhs.berezin_number(sp2, blk.R))
        assert value <= cap + 1e-10


def test_offdiagonal_joint_bounded_by_norm_mean():
    # the L21b shape at the joint convention, including the tied case
    rng = np.random.default_rng(11)
    for _ in range(20):
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x, y = cgauss(rng, (n1, n2)), cgauss(rng, (n2, n1))
        blk = blockops.offdiag_block(x, y)
        value, _ = blockops.ber_block(blk, "joint")
        assert value <= 0.5 * (numlin.operator_norm(x) + numlin.operator_norm(y)) + 1e-10
    x = cgauss(rng, (3, 3))
    tied, _ = blockops.ber_block(blockops.offdiag_block(x, x.copy()), "joint")
    assert tied <= numlin.operator_norm(x) + 1e-10


def dense_peaks(block):
    """Pair and joint peaks from all four terms, summed as (s + x) + y.T + r."""
    k1 = block.space1.normalized_chart()
    k2 = block.space2.normalized_chart()
    s = np.einsum("ji,jk,ki->i", k1.conj(), block.S, k1)
    r = np.einsum("ji,jk,ki->i", k2.conj(), block.R, k2)
    x = k1.conj().T @ block.X @ k2
    y = k2.conj().T @ block.Y @ k1
    vals = np.abs(s[:, None] + x + y.T + r[None, :])
    j1, j2 = np.unravel_index(int(np.argmax(vals)), vals.shape)
    pair = float(vals[j1, j2])
    return [(pair, (int(j1), int(j2))), (pair / 2.0, (int(j1), int(j2)))]


def test_ber_block_skips_zero_blocks_without_moving_bits():
    # a zero S or R block adds only signed zeros, so ber_block leaves its
    # einsum out; the value and the kernel pair stay those of all four terms
    config = harness.CampaignConfig()
    for tid, shape in (("L21a", "diag"), ("T24a", "offdiag"), ("C27", "tied_square"),
                       ("T31", "offdiag_square"), ("T36", "full")):
        for index in range(25):
            seed = harness.derive_trial_seed(config.master_seed, tid, index)
            [draw] = harness.draw_trial((tid,), (seed,), config)
            block = harness._build_block(draw, shape)
            want = dense_peaks(block)
            assert blockops.ber_block(block, ("pair", "joint")) == want
            assert [blockops.ber_block(block, c) for c in ("pair", "joint")] == want
    # all-negative-zero blocks give a -0.0 grid, which the dense sum turns into +0.0
    neg = -np.zeros((2, 3), dtype=np.complex128)
    block = blockops.offdiag_block(neg, neg.T.copy(), rkhs.identity_space(2),
                                   rkhs.identity_space(3))
    k1, k2 = block.space1.normalized_chart(), block.space2.normalized_chart()
    assert np.signbit((k1.conj().T @ block.X @ k2).real).all()
    assert blockops.ber_block(block, ("pair", "joint")) == dense_peaks(block) \
        == [(0.0, (0, 0)), (0.0, (0, 0))]


def test_unknown_convention():
    blk = blockops.offdiag_block(np.eye(1, dtype=complex), np.eye(1, dtype=complex))
    for conv in ("diag", "directsum"):
        with pytest.raises(BadParams):
            blockops.ber_block(blk, conv)


# ---------------------------------------------------------------------------
# Aluthge transforms


def test_aluthge_fixes_psd():
    rng = np.random.default_rng(13)
    g = cgauss(rng, (4, 4))
    a = g.conj().T @ g
    for t in (0.0, 0.25, 0.5, 1.0):
        til = blockops.aluthge_general(a, t)
        assert numlin.operator_norm(til - a) <= 1e-10 * max(1.0, numlin.operator_norm(a))


def test_aluthge_annihilates_jordan_cell():
    t_mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for t in (0.25, 0.5, 0.75):
        assert numlin.operator_norm(blockops.aluthge_general(t_mat, t)) <= 1e-12


def test_aluthge_endpoints():
    # T~_0 = T and T~_1 = |T| U under the support-power convention
    rng = np.random.default_rng(17)
    for _ in range(10):
        t_mat = cgauss(rng, (3, 3))
        u, mod = numlin.polar_decompose(t_mat)
        at0 = blockops.aluthge_general(t_mat, 0.0)
        at1 = blockops.aluthge_general(t_mat, 1.0)
        scale = max(1.0, numlin.operator_norm(t_mat))
        assert numlin.operator_norm(at0 - t_mat) <= 1e-9 * scale
        assert numlin.operator_norm(at1 - mod @ u) <= 1e-9 * scale


def test_aluthge_eigenvalue_multiset():
    rng = np.random.default_rng(19)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        t_mat = cgauss(rng, (n, n))
        scale = max(1.0, numlin.operator_norm(t_mat))
        want = np.sort_complex(np.linalg.eigvals(t_mat))
        for t in (0.25, 0.5, 0.75):
            got = np.sort_complex(np.linalg.eigvals(blockops.aluthge_general(t_mat, t)))
            assert np.max(np.abs(got - want)) <= 1e-7 * scale


def test_aluthge_offdiag_trivial_cases():
    eye = np.eye(2, dtype=complex)
    blk = blockops.aluthge_offdiag(eye, eye, 0.5)
    assert numlin.operator_norm(blk.X - eye) <= 1e-10
    assert numlin.operator_norm(blk.Y - eye) <= 1e-10
    zero = np.zeros((2, 2), dtype=complex)
    blk = blockops.aluthge_offdiag(zero, zero, 0.5)
    assert numlin.operator_norm(blockops.assemble(blk)) == 0.0


def test_aluthge_offdiag_matches_general():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        x, y = cgauss(rng, (n, n)), cgauss(rng, (n, n))
        for t in (0.25, 0.5, 0.75):
            closed = blockops.assemble(blockops.aluthge_offdiag(x, y, t))
            direct = blockops.aluthge_general(
                blockops.assemble(blockops.offdiag_block(x, y)), t)
            assert numlin.operator_norm(closed - direct) <= 1e-8


def test_aluthge_offdiag_stack_matches_lone_calls():
    # a stack of X and Y with one t per slice gives, slice for slice, the
    # lone transform bit for bit, over the spaces it is given
    rng = np.random.default_rng(31)
    for n in (1, 2, 4):
        x, y = cgauss(rng, (5, n, n)), cgauss(rng, (5, n, n))
        y[1] = 0.0  # a rank-deficient slice
        x[2, :, 0] = 0.0
        t = [0.0, 0.25, 0.5, 0.75, 1.0]
        stacked = blockops.aluthge_offdiag(x, y, t)
        assert stacked.space1 is stacked.space2 is rkhs.identity_space(n)
        for k in range(5):
            lone = blockops.aluthge_offdiag(x[k], y[k], t[k])
            for name in "SXYR":
                got, want = getattr(stacked, name)[k], getattr(lone, name)
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


def test_aluthge_general_stack_matches_lone_calls():
    # a stack of T with one t per slice gives, slice for slice, the lone
    # transform bit for bit
    rng = np.random.default_rng(37)
    for n in (1, 2, 4):
        stack = cgauss(rng, (5, n, n))
        stack[1] = 0.0  # a rank-deficient slice
        stack[2, :, 0] = 0.0
        t = [0.0, 0.25, 0.5, 0.75, 1.0]
        stacked = blockops.aluthge_general(stack, t)
        for k in range(5):
            lone = blockops.aluthge_general(stack[k], t[k])
            assert (stacked[k].shape, stacked[k].tobytes()) == (lone.shape, lone.tobytes())


def test_aluthge_parameter_validation():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(BadParams):
        blockops.aluthge_general(eye, 1.5)
    with pytest.raises(DimensionMismatch):
        blockops.aluthge_offdiag(np.zeros((2, 3), dtype=complex),
                                 np.zeros((3, 2), dtype=complex), 0.5)
    # a stack takes one t in [0, 1] per slice, shaped like its leading axes
    stack = np.zeros((3, 2, 2), dtype=complex)
    for x, t in ((stack, [0.5, 1.5, 0.5]), (stack, [0.5, -0.25, 0.5]),
                 (stack, [0.5, float("nan"), 0.5]), (stack, 0.5), (stack, [0.5, 0.5]),
                 (stack, [[0.5, 0.5, 0.5]]), (stack[0], [0.5]), (stack[0], 1.5)):
        with pytest.raises(BadParams):
            blockops.aluthge_offdiag(x, x, t)
        with pytest.raises(BadParams):
            blockops.aluthge_general(x, t)
