"""Tests for campaign running, random ensembles, explore, reporting, CLI."""

import gc
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402  (first: puts this checkout's src/ on sys.path)
from berlab import blockops, cli, harness, numlin, report, theorems  # noqa: E402
from berlab.errors import BadParams, BerlabError, ConfigInvalid, IllConditioned  # noqa: E402


def small_config(**kw):
    defaults = dict(
        master_seed=123,
        trials_per_checker=6,
        dims=((2, 2), (3, 2)),
        kernel_families=harness.DEFAULT_FAMILIES,
    )
    defaults.update(kw)
    return harness.CampaignConfig(**defaults)


# ---------------------------------------------------------------------------
# operator ensembles


def draw_operators(kind, dim, seeds):
    """The ensemble draws of ``seeds`` as one stacked build, as a campaign builds them."""
    ops = [harness._draw_gaussians(np.random.default_rng(seed), kind, dim) for seed in seeds]
    masks = np.stack([op.mask for op in ops]) if kind == "partial_isometry" else None
    return harness._build_operators(kind, np.stack([op.g for op in ops]), masks)


def draw_one(theorem_id, trial_seed, config):
    """The draw of one trial, from a batch of one."""
    [draw] = harness.draw_trial((theorem_id,), (trial_seed,), config)
    return draw


def test_draw_operator_deterministic():
    a = draw_operators("ginibre", 4, (99, 100))
    assert np.array_equal(a, draw_operators("ginibre", 4, (99, 100)))
    assert not np.array_equal(a[0], a[1])
    # each slice of a stacked build is its draw built alone, bit for bit
    for kind in harness.OPERATOR_KINDS:
        for seed, op in enumerate(draw_operators(kind, 4, range(8))):
            assert op.tobytes() == draw_operators(kind, 4, (seed,))[0].tobytes(), kind


def test_ensemble_contracts():
    stacks = {kind: draw_operators(kind, 4, range(8)) for kind in harness.OPERATOR_KINDS}
    for psd in stacks["psd"]:
        w = np.linalg.eigvalsh((psd + psd.conj().T) / 2.0)
        assert w.min() >= -1e-12 * max(1.0, w.max())
    for u in stacks["unitary"]:
        assert numlin.operator_norm(u.conj().T @ u - np.eye(4)) <= 1e-10
    for v in stacks["partial_isometry"]:
        assert numlin.operator_norm(v @ v.conj().T @ v - v) <= 1e-9
    for k in stacks["contraction"]:
        assert numlin.operator_norm(k) <= 1.0 + 1e-12
    for n in stacks["nilpotent"]:
        assert np.count_nonzero(np.tril(n)) == 0
    for h in stacks["hermitian"]:
        assert numlin.operator_norm(h - h.conj().T) <= 1e-14

    with pytest.raises(BadParams):
        draw_operators("cauchy", 3, (0, 1))


def test_trial_seed_derivation():
    s1 = harness.derive_trial_seed(42, "T24a", 0)
    assert s1 == harness.derive_trial_seed(42, "T24a", 0)
    assert s1 != harness.derive_trial_seed(42, "T24a", 1)
    assert s1 != harness.derive_trial_seed(42, "T24b", 0)
    assert s1 != harness.derive_trial_seed(43, "T24a", 0)
    assert 0 <= s1 < 2**64


def test_draw_trial_reproducible():
    config = small_config()
    seed = harness.derive_trial_seed(config.master_seed, "R26", 3)
    d1 = draw_one("R26", seed, config)
    d2 = draw_one("R26", seed, config)
    assert d1.params == d2.params
    for key in d1.arrays:
        assert np.array_equal(d1.arrays[key], d2.arrays[key])
    c1 = harness.evaluate_draw(d1)
    c2 = harness.evaluate_draw(d2)
    assert [c.to_dict() for c in c1] == [c.to_dict() for c in c2]


# ---------------------------------------------------------------------------
# campaigns


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        small_config(trials_per_checker=0).validate()
    with pytest.raises(ConfigInvalid):
        small_config(dims=((0, 2),)).validate()
    with pytest.raises(ConfigInvalid):
        small_config(checker_filter=("NOPE",)).validate()
    with pytest.raises(ConfigInvalid):
        small_config(format="xml").validate()


@pytest.mark.parametrize("field, value, valid", [
    ("trials_per_checker", 2.5, False),
    ("trials_per_checker", True, False),
    ("trials_per_checker", "3", False),
    ("master_seed", "x", False),
    ("master_seed", 7.0, False),
    ("master_seed", False, False),
    ("dims", ((2.5, 2),), False),
    ("dims", ((2, True),), False),
    ("dims", ((2, 2, 2),), False),
    ("dims", (2, 2), False),
    ("checker_filter", "T24a", False),
    ("trials_per_checker", np.int64(3), True),
    ("master_seed", np.uint32(7), True),
    ("dims", ((np.int64(2), np.int32(3)),), True),
])
def test_config_validation_checks_types(field, value, valid):
    # a non-integer count, seed or dimension, a bool, and a checker filter
    # that is a string (whose letters are not ids) are config errors, not a
    # traceback from deep in a campaign; numpy integers are integers
    config = small_config(**{"checker_filter": ("YOUNG2", "T24a"), field: value})
    if not valid:  # the one-line error names the field
        with pytest.raises(ConfigInvalid, match=field):
            config.validate()
        return
    plain = small_config(checker_filter=("YOUNG2", "T24a"), **{field: (
        tuple((int(n1), int(n2)) for n1, n2 in value) if field == "dims" else int(value))})
    got, want = (harness.run_campaign(c).to_dict() for c in (config, plain))
    got["wall_time_ms"] = want["wall_time_ms"] = 0
    assert report.dumps_json(got) == report.dumps_json(want)


def test_default_filter_covers_all_checkers():
    assert small_config().checkers() == harness.ALL_CHECKERS
    # campaign order: every trial seed and report row follows it
    assert harness.ALL_CHECKERS == tuple(theorems.CHECKERS) == (
        "YOUNG2", "I37", "I38", "S310",
        "L21c", "P39", "R310", "T311_proof", "T311_stmt", "T312_proof",
        "T312_stmt", "T32", "R33", "L22a", "L22b", "L23", "BER_HOM",
        "BER_SUB", "BER_NORM",
        "L21a", "L21b", "INEQ1", "T24a", "T24b", "C25a", "C25b", "R26", "C27",
        "C28", "T29", "C210", "T31", "C34", "C35", "T36", "T37")
    assert theorems.SCALAR_IDS == ("YOUNG2", "I37", "I38", "S310")


def test_campaign_deterministic_and_green():
    config = small_config(checker_filter=("L21b", "YOUNG2", "R26"))
    r1 = harness.run_campaign(config)
    r2 = harness.run_campaign(config)
    assert r1.gating_failures == 0
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1["wall_time_ms"] = d2["wall_time_ms"] = 0
    assert report.dumps_json(d1) == report.dumps_json(d2)
    for res in r1.results:
        assert res["trials"] == config.trials_per_checker
        assert res["witness"]["theorem_id"] == res["theorem_id"]


def test_seed_isolation():
    both = harness.run_campaign(small_config(checker_filter=("L21b", "R26")))
    alone = harness.run_campaign(small_config(checker_filter=("R26",)))
    pick = lambda rep: [r for r in rep.results if r["theorem_id"] == "R26"]
    assert [r["witness"] for r in pick(both)] == [r["witness"] for r in pick(alone)]


def test_witness_reproduces_from_seed():
    config = small_config(checker_filter=("T24a",))
    rep = harness.run_campaign(config)
    res = rep.results[0]
    wit = res["witness"]
    draw = draw_one("T24a", wit["witness"]["trial_seed"], config)
    certs = harness.evaluate_draw(draw)
    match = [c for c in certs if c.convention == res["convention"]]
    assert match and match[0].to_dict() == wit


# ---------------------------------------------------------------------------
# explore


def test_explore_budget_zero_is_start():
    config = small_config(checker_filter=("YOUNG2",))
    start = harness.explore(config, "YOUNG2", 0)
    assert start.theorem_id == "YOUNG2"


def test_explore_never_worse_than_start():
    config = small_config()
    for tid in ("YOUNG2", "T24a", "L21b"):
        start = harness.explore(config, tid, 0)
        end = harness.explore(config, tid, 40)
        assert end.slack <= start.slack + 1e-15


def test_explore_finds_young2_equality():
    config = small_config(trials_per_checker=30)
    cert = harness.explore(config, "YOUNG2", 200)
    assert cert.slack <= 1e-6


def test_explore_climbs_a_psd_draw():
    # a bump keeps a psd draw's T Hermitian (the real part of the step on the
    # diagonal, the mirrored conjugate off it), so the climb on L22a moves; a
    # complex step on one entry made every candidate raise NotHermitian
    config = small_config()
    draw = draw_one("L22a", harness.derive_trial_seed(123, "L22a", 0), config)
    rng = np.random.default_rng(3)
    for _ in range(20):
        t_mat = harness._bump(draw, harness._draw_bump(draw, rng), 0.5).arrays["T"]
        assert (numlin.operator_norm(t_mat - t_mat.conj().T)
                <= numlin.HERM_TOL * numlin.operator_norm(t_mat))
    start, end = harness.explore(config, "L22a", 0), harness.explore(config, "L22a", 200)
    assert end.slack < start.slack


# sha256 of the explore certificate, one checker per draw path; explore
# perturbs a key chosen among the sorted draw keys, so these pin both the
# RNG call order of draw_trial and the names of the drawn operands
EXPLORE_PINS = {
    "YOUNG2": "8fe251fe54900e0eb8cab34558ec8f54dc7a1c15fafb57dc5701207ca6e4664a",
    "S310": "b270a6c44e2cd2d38e73e2d2c6f368c64a848986c0d3d39ea3fb03a6816b6597",
    "L23": "4eb48c65482e24b6ddcf8780327ec9850968e93591a7d9dff3f470c4a7e49213",
    "BER_SUB": "41f28ec57c3803081abb27a950b169bce782cbf7eb392446cf1ce8fc5900078c",
    "BER_HOM": "4cabbe0f4c3e2e9f730cbf949c489f0ef5a4e5b19bede214b6ab8d38ef54dfa8",
    "L22b": "d93905c71580663de734a0a954b6e08753744c845f353cff1239300fd1bbb6ea",
    "L21a": "c44a794b88216388d7c11689760b5c69930f66117f4f01c9ba3271b33f71b5ad",
    "C27": "9b4206335209e2bbe2b1dadc508f2ad03589efcd9630efcf0fbf893f6892ad88",
    "T31": "df3932901f9ea955842d475ec1cd7706cfb6ef2c83f9895bce728273bd7c15c2",
    "T36": "c3ef4d733a7eaa6c28242f61315fa89ac1d3d1f6a458a2b29b5e1332a33f72ea",
}


@pytest.mark.parametrize("tid", sorted(EXPLORE_PINS))
def test_explore_pinned_per_draw_path(tid):
    text = report.dumps_json(harness.explore(small_config(), tid, 20).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == EXPLORE_PINS[tid]


# the same, at budget 200: 20 rounds per restart, so the climb evaluates
# chunks of up to 16 candidates, not the at most 2 of budget 20; pinned at
# the one-candidate-at-a-time climb
EXPLORE_PINS_200 = {
    "T24a": "afd31a3239d66df967f22263785687540ae2094d1f565105a3483003c099386c",
    "T24b": "514cc1139ac693f6cd134853c19d64b005abf8ac64d82cf6fc7b4a6ee5f14915",
    "C25a": "c1f691d08850eee6369069c98fc4f48ccca4e47d60508a6ce5ae9d6240301be0",
    "R26": "27cbc4e6b8af20bd5ed51fc418d528afc0864460fe7a63f22cf91fae8480cc3f",
    "T29": "86859fbf691e5b1cc8f65d985d907af9b5089059721c1b1176c62e476298e481",
    "C210": "90675801cbff938774a9951f9fbe7a922d3a999c6e955162341e4acd3b07a55f",
    "L21a": "5d30fabe485e1ef5890f6507ee45f8aedc6e1c394c2a027aacdbba5b5bf8358e",
    "C27": "9b4206335209e2bbe2b1dadc508f2ad03589efcd9630efcf0fbf893f6892ad88",
    "T31": "6a1f536dbb0b016463d2f4dafd03a12eb38051fc9b42cdfa50a93917719ce9d3",
    "T36": "281ce5d27bb05043c23657ced3976f855f4cac7de339addc167e21e3c0883fbd",
    "L23": "6f1cfa020e2e563f5477aded89e7662daea2f7561328d615c47a23e66d5e9a20",
    "L22a": "0785e81c4736791b88e610a759a0e4fece42b54ace5ff77742dbabe995b370c0",
    "T311_proof": "34f7f27e6b048ea52cb5138a735e4534f13b5240fa7039662bd9f7e3e535306e",
    "R33": "78f7c9722dacb8c74643af439295ba6d8e7fe9636b1ec3e945a0f1b659dba806",
    "BER_SUB": "41f28ec57c3803081abb27a950b169bce782cbf7eb392446cf1ce8fc5900078c",
}


@pytest.mark.parametrize("tid", sorted(EXPLORE_PINS_200))
def test_explore_pinned_long_chunks(tid):
    text = report.dumps_json(harness.explore(small_config(), tid, 200).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == EXPLORE_PINS_200[tid]


STACKING_IDS = tuple(theorems.CHECKERS)


def _stacks_seen(monkeypatch):
    """Patch harness.evaluate_draw to record each stacked draw and what it returned."""
    seen, evaluate_draw = [], harness.evaluate_draw

    def recorded(draw):
        out = evaluate_draw(draw)
        if draw.stacked:
            seen.append((draw, out))
        return out
    monkeypatch.setattr(harness, "evaluate_draw", recorded)
    return seen


def _per_draw_trials(config, tid):
    """What _trials yields, as JSON text per trial, from one evaluate_draw per draw."""
    out = []
    for i in range(config.trials_per_checker):
        try:
            draw = draw_one(tid, harness.derive_trial_seed(config.master_seed, tid, i), config)
            out.append(report.dumps_json([c.to_dict() for c in harness.evaluate_draw(draw)]))
        except BerlabError:  # an ill-conditioned Gram draw
            out.append(None)
    return out


@pytest.mark.parametrize("tid", STACKING_IDS)
def test_bucket_matches_per_draw_byte_for_byte(tid, monkeypatch):
    # _trials evaluates a window's draws of one operand shape as one stacked
    # draw: distinct trials, each with its own spaces and params. Every
    # trial's certificates, input digests included, are those of its draw
    # evaluated alone, byte for byte; also for identity-family draws, whose
    # cached spaces are shared, not stacked, while their params differ
    dims = ((1, 1), (2, 2), (3, 2), (2, 5), (6, 6), (12, 10), (16, 12))
    for families in (harness.DEFAULT_FAMILIES, harness.DEFAULT_FAMILIES[:1]):
        config = harness.CampaignConfig(master_seed=29, trials_per_checker=70, dims=dims,
                                        kernel_families=families)
        one_by_one = _per_draw_trials(config, tid)
        with monkeypatch.context() as patched:
            stacks = _stacks_seen(patched)
            bucketed = [trial and report.dumps_json([c.to_dict() for c in trial[1]])
                        for _, trial in harness._trials(config, (tid,))]
        assert bucketed == one_by_one
        assert all(out is not None for _, out in stacks)
        draws = [draw for draw, _ in stacks]
        if theorems.CHECKERS[tid].kind == theorems.SCALAR:
            # a pair's 0-d a and b stack every draw; vectors stack by length,
            # up to the largest n1; each slice keeps its own params
            assert max(d.arrays["a"].shape[1:] for d in draws) == ((16,) if tid == "S310" else ())
            assert tid == "S310" or any(len({json.dumps(p) for p in d.params}) > 1 for d in draws)
            continue
        # a single draw has one space, a block draw space1 and space2
        sizes = [tuple(sp.dim for sp in d.spaces.values()) for d in draws]
        assert max(n[0] for n in sizes) == 16
        # the square block shapes draw n2 = n1; every other block shape stacks
        # some n1 != n2
        if theorems.CHECKERS[tid].kind == theorems.BLOCK:
            square = theorems.CHECKERS[tid].shape in ("tied_square", "offdiag_square")
            assert square != any(n1 != n2 for n1, n2 in sizes)
        grams = [next(iter(d.spaces.values())).gram for d in draws]
        if len(families) > 1:  # some stacked space mixes identity and other kernels
            assert any(g.ndim == 3 and len({np.array_equal(s, np.eye(len(s))) for s in g}) == 2
                       for g in grams)
        else:  # identity draws share one cached space per n, while their params differ
            assert all(g.ndim == 2 for g in grams)
            # (a checker whose params are fixed, {} or L21c's grid, draws them every time)
            assert (len({json.dumps(p) for d in draws for p in d.params}) == 1
                    or any(len({json.dumps(p) for p in d.params}) > 1 for d in draws))


# where each checker kind's stacked path reaches theorems: the check function,
# the drawn operand it stacks, where its arguments hold that stack and where
# they hold the params, one dict per slice of a stack or one lone dict
STACKED_CALLS = {
    theorems.SCALAR: ("check_scalar", "a", lambda args: args[2][0], lambda args: args[1]),
    theorems.SINGLE: ("check_single", "T", lambda args: args[2], lambda args: args[3]),
    theorems.BLOCK: ("check_block_runs", "X", lambda args: args[1].X, lambda args: args[2]),
}


def test_a_bad_draw_in_a_stack_is_one_anomaly(monkeypatch):
    # a stack holding a draw that raises gives None, and each of its draws is
    # then evaluated alone: the bad one raises once and counts one anomaly;
    # for a block checker and for a single-operator one
    for tid in ("T24a", "L23"):
        with monkeypatch.context() as patched:
            _assert_one_bad_draw_is_one_anomaly(tid, patched)


def _assert_one_bad_draw_is_one_anomaly(tid, monkeypatch):
    config = small_config(trials_per_checker=40, checker_filter=("L21b", tid, "T29"))
    want = harness.run_campaign(config).to_dict()["results"]
    name, operand, operand_of, _ = STACKED_CALLS[theorems.CHECKERS[tid].kind]
    bad_seed = harness.derive_trial_seed(config.master_seed, tid, 7)
    bad = draw_one(tid, bad_seed, config).arrays[operand]
    check, evaluate_draw = getattr(theorems, name), harness.evaluate_draw
    raised, stacked = [], []

    def failing(*args):
        ops = operand_of(args)
        if any(np.array_equal(a, bad) for a in ops.reshape((-1,) + ops.shape[-2:])):
            raise IllConditioned("the chosen draw")
        return check(*args)

    def counted(draw):  # like perfbench's anomaly counter
        if draw.stacked:
            stacked.extend(draw.trial_seed)
        try:
            return evaluate_draw(draw)
        except BerlabError:
            raised.append(draw.trial_seed)
            raise
    monkeypatch.setattr(theorems, name, failing)
    monkeypatch.setattr(harness, "evaluate_draw", counted)
    got = harness.run_campaign(config).to_dict()["results"]
    assert bad_seed in stacked and raised == [bad_seed]
    assert [r["theorem_id"] for r in got] == [r["theorem_id"] for r in want]
    for row, before in zip(got, want):
        if row["theorem_id"] == tid:
            assert (row["anomalies"], row["trials"]) == (before["anomalies"] + 1,
                                                         before["trials"] - 1)
        else:
            assert report.dumps_json(row) == report.dumps_json(before)


def test_a_stack_holds_at_most_stack_cap_draws(monkeypatch):
    # all 300 trials share one operand shape, so only the window bounds a stack
    config = small_config(trials_per_checker=300, dims=((2, 2),), checker_filter=("T24a",))
    stacks = _stacks_seen(monkeypatch)
    harness.run_campaign(config)
    assert max(len(draw.trial_seed) for draw, _ in stacks) == harness.STACK_CAP == 64


def _batches_seen(monkeypatch):
    """Patch harness.draw_trial to record each batch as (slots, config, draws)."""
    seen, draw_trial = [], harness.draw_trial

    def recorded(theorem_ids, trial_seeds, config):
        out = draw_trial(theorem_ids, trial_seeds, config)
        seen.append((list(zip(theorem_ids, trial_seeds)), config, out))
        return out
    monkeypatch.setattr(harness, "draw_trial", recorded)
    return seen


def _assert_nothing_falls_back(stacks, batches):
    # no stack gives None and leaves its draws to be evaluated alone, and a
    # draw batch fails a slot only where a batch of one fails with the same error
    assert stacks and all(out is not None for _, out in stacks)
    assert batches
    for slots, config, draws in list(batches):  # draw_one's batches are recorded too
        assert len(draws) == len(slots)
        for (tid, seed), draw in zip(slots, draws):
            assert (draw.theorem_id, draw.trial_seed) == (tid, seed)
            if draw.error is not None:
                alone = draw_one(tid, seed, config).error
                assert (type(alone), alone.args) == (type(draw.error), draw.error.args)


def test_default_campaign_stacks_never_fall_back(monkeypatch):
    # the benchmark's campaign_default call at seed 42 has no anomaly, so no
    # stack may give None and no draw batch may fail a slot
    stacks, batches = _stacks_seen(monkeypatch), _batches_seen(monkeypatch)
    rep = harness.run_campaign(harness.CampaignConfig(master_seed=42, trials_per_checker=5))
    assert sum(row["anomalies"] for row in rep.results) == 0
    _assert_nothing_falls_back(stacks, batches)
    # one batch draws every checker's window
    [(slots, _, draws)] = batches
    assert {tid for tid, _ in slots} == set(harness.ALL_CHECKERS)
    assert all(draw.error is None for draw in draws)
    # every checker whose window repeats an operand shape stacks, the scalar
    # ones too; at seed 42 only T32's five draws all differ in shape
    shapes = {}
    for draw in draws:
        if draw.theorem_id in STACKING_IDS:
            shapes.setdefault(draw.theorem_id, []).append(
                tuple(a.shape for a in draw.arrays.values()))
    repeated = {tid for tid, seen in shapes.items() if len(set(seen)) < len(seen)}
    assert {draw.theorem_id for draw, _ in stacks} == repeated
    assert set(STACKING_IDS) - repeated == {"T32"}


@pytest.mark.parametrize("name", ("campaign_large", "explore_t24a"))
def test_benchmark_calls_never_fall_back(name, monkeypatch):
    # the benchmark's other calls at seed 42; campaign_large's Gram draws at
    # dims 8-16 retry often and use up SPACE_ATTEMPTS in some trials
    stacks, batches = _stacks_seen(monkeypatch), _batches_seen(monkeypatch)
    workloads.WORKLOADS[name].call(42)
    failed = sum(draw.error is not None for *_, draws in batches for draw in draws)
    _assert_nothing_falls_back(stacks, batches)
    assert (failed > 0) == (name == "campaign_large")


@pytest.mark.parametrize("dims", (harness.DEFAULT_DIMS, workloads.LARGE_DIMS),
                         ids=("default_dims", "large_dims"))
def test_batch_matches_lone_draws_for_every_checker(dims):
    # a batch of every checker's trials builds its spaces and operators as
    # stacks; each slot is its draw in a batch of one, bit for bit and key for
    # key, or, exactly where that draw fails, an empty draw that carries the
    # same error, which its evaluate_draw raises as a fresh copy
    config = harness.CampaignConfig(master_seed=31, dims=dims)
    slots = [(tid, harness.derive_trial_seed(31, tid, i))
             for tid in harness.ALL_CHECKERS for i in range(6)]
    batch = harness.draw_trial(tuple(t for t, _ in slots), tuple(s for _, s in slots), config)
    assert len(batch) == len(slots)
    failed = 0
    for (tid, seed), got in zip(slots, batch):
        assert (got.theorem_id, got.trial_seed) == (tid, seed)
        want = draw_one(tid, seed, config)
        if want.error is not None:
            exc = want.error
            assert (type(got.error), got.error.args) == (type(exc), exc.args), (tid, seed)
            for draw in (got, want):
                assert (draw.params, draw.arrays, draw.spaces) == ({}, {}, {})
            with pytest.raises(type(exc)) as raised:
                harness.evaluate_draw(got)
            assert raised.value is not got.error and raised.value.args == exc.args
            failed += 1
            continue
        assert got.error is None
        assert list(got.params.items()) == list(want.params.items())
        assert list(got.arrays) == list(want.arrays)
        for name, a in want.arrays.items():
            b = got.arrays[name]
            assert (b.shape, b.strides, b.tobytes()) == (a.shape, a.strides, a.tobytes())
        assert list(got.spaces) == list(want.spaces)
        for name, sp in want.spaces.items():
            mine = got.spaces[name]
            assert mine.points == sp.points
            for a, b in ((sp.gram, mine.gram), (sp.chart, mine.chart),
                         (sp.normalized_chart(), mine.normalized_chart())):
                assert (b.strides, b.tobytes()) == (a.strides, a.tobytes())
        if "space2" in want.spaces:
            assert ((got.spaces["space1"] is got.spaces["space2"])
                    == (want.spaces["space1"] is want.spaces["space2"]))
        assert (report.dumps_json([c.to_dict() for c in harness.evaluate_draw(got)])
                == report.dumps_json([c.to_dict() for c in harness.evaluate_draw(want)]))
    assert (failed > 0) == (dims == workloads.LARGE_DIMS)


def test_failed_draws_leave_no_reference_cycles():
    # a stored BerlabError whose traceback holds the frame that stores it is
    # a cycle that keeps a whole draw batch alive until the cyclic collector
    # runs; at dims 8-16, where some trials use up SPACE_ATTEMPTS, such
    # cycles raised the peak RSS of the benchmark's campaign_large by 40%
    config = harness.CampaignConfig(master_seed=42, trials_per_checker=5,
                                    dims=workloads.LARGE_DIMS,
                                    checker_filter=("T24a", "L21b", "P39", "T36"))
    gc.collect()
    gc.disable()
    try:
        rep = harness.run_campaign(config)
        assert sum(row["anomalies"] for row in rep.results) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("tid", ("T24a", "C210", "L21b", "P39", "YOUNG2"))
def test_explore_falls_back_when_the_stack_raises(tid, monkeypatch):
    # a stack that raises leaves each scanned draw, and each candidate the
    # climb reaches, to a lone evaluate_draw: every bit stays the same. A
    # scalar checker stacks too
    want = report.dumps_json(harness.explore(small_config(), tid, 200).to_dict())
    evaluate_draw, bump = harness.evaluate_draw, harness._bump
    lone, built, stacks = [], [], []

    def unstackable(check, params_of):
        def check_lone(*args):
            if not isinstance(params_of(args), dict):
                stacks.append(len(params_of(args)))
                raise RuntimeError("no stacks")
            return check(*args)
        return check_lone

    def counted(draw):
        if not draw.stacked:
            lone.append(draw)
        return evaluate_draw(draw)
    for name, _, _, params_of in STACKED_CALLS.values():
        monkeypatch.setattr(theorems, name, unstackable(getattr(theorems, name), params_of))
    monkeypatch.setattr(harness, "evaluate_draw", counted)
    monkeypatch.setattr(harness, "_bump", lambda *args: built.append(1) or bump(*args))
    harness.explore(small_config(), tid, 0)
    scan = len(lone)
    assert report.dumps_json(harness.explore(small_config(), tid, 200).to_dict()) == want
    assert stacks
    # each of the 200 rounds is reached once; the chunks dropped candidates
    # after acceptances, and none of those was evaluated
    assert len(lone) - 2 * scan == 200 < len(built)


def test_explore_restart_stacks_its_rejected_rounds(monkeypatch):
    # one square T24a restart of 10 rounds that all reject: candidates are
    # evaluated in chunks of 4 and 6, one modulus stack each, not 10
    monkeypatch.setattr(harness, "EXPLORE_RESTARTS", 1)
    config = small_config(master_seed=4, dims=((2, 2), (3, 3)))
    start = harness.explore(config, "T24a", 0)
    chunks, calls = [], []
    stack_draws, matrix_abs = harness._stack_draws, numlin.matrix_abs

    def recorded(draws):
        chunks.append(len(draws))
        return stack_draws(draws)

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return matrix_abs(*args, **kwargs)
    monkeypatch.setattr(harness, "_stack_draws", recorded)
    monkeypatch.setattr(numlin, "matrix_abs", counted)
    harness.explore(config, "T24a", 0)
    # the scan's stacks and lone draws, one modulus stack each, also at budget 10
    scan_chunks, scan = list(chunks), len(calls)
    end = harness.explore(config, "T24a", 10)
    assert end.to_dict() == start.to_dict()  # every round rejected
    assert chunks == 2 * scan_chunks + [4, 6]
    assert len(calls) - 2 * scan == 2


# explore at budget 3000: 300 rounds per restart, enough for an uncapped
# chunk to reach 127 candidates; the hashes were pinned on the uncapped climb
EXPLORE_PINS_3000 = {
    "T24a": "09df09d4e96dae1df15007a0fafad81f119ad7d844758bd7d1ae80130ececaf3",
    "T29": "5625a3e963bbe18d12d50cc559ed57a61faa64e83b0a874bd6320ea0dbad1a2d",
}


@pytest.mark.parametrize("tid", sorted(EXPLORE_PINS_3000))
def test_explore_pinned_capped_chunks(tid, monkeypatch):
    # the chunk stops doubling at STACK_CAP candidates, which bounds the
    # memory of one stack and moves no bit of the certificate
    stack_draws, chunks = harness._stack_draws, []
    monkeypatch.setattr(harness, "_stack_draws",
                        lambda draws: chunks.append(len(draws)) or stack_draws(draws))
    text = report.dumps_json(harness.explore(small_config(), tid, 3000).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == EXPLORE_PINS_3000[tid]
    assert max(chunks) == harness.STACK_CAP == 64


def test_explore_pinned_with_failed_draws(monkeypatch):
    # the EXPLORE_PINS* tests draw at dims 2x2 and 3x2, where no space draw
    # fails; at dims 8-16, two trials of this scan use up SPACE_ATTEMPTS,
    # and each raises its IllConditioned once, from its evaluate_draw
    config = harness.CampaignConfig(master_seed=42, trials_per_checker=25,
                                    dims=workloads.LARGE_DIMS)
    evaluate_draw, failed = harness.evaluate_draw, []

    def counted(draw):
        try:
            return evaluate_draw(draw)
        except IllConditioned:
            failed.append(draw.trial_seed)
            raise
    monkeypatch.setattr(harness, "evaluate_draw", counted)
    text = report.dumps_json(harness.explore(config, "T24a", 20).to_dict())
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "6e262a2371cfb1f5eb8c86a827ee28efe47085a75b9b50f94bdd58fa3492c887")
    assert len(set(failed)) == len(failed) == 2


def test_explore_bad_inputs():
    config = small_config()
    with pytest.raises(BadParams):
        harness.explore(config, "NOPE", 10)
    with pytest.raises(BadParams):
        harness.explore(config, "YOUNG2", -1)


# ---------------------------------------------------------------------------
# reports


def test_dumps_json_roundtrip_byte_identical():
    rep = harness.run_campaign(small_config(checker_filter=("R26",)))
    text = report.dumps_json(rep.to_dict())
    again = report.dumps_json(json.loads(text))
    assert text == again


def test_float_formatting():
    assert report.dumps_json(1.0 / 3.0) == "0.33333333333333331\n"
    with pytest.raises(BadParams):
        report.dumps_json(float("inf"))


def test_csv_shape():
    rep = harness.run_campaign(small_config(checker_filter=("C27",)))
    lines = report.report_csv(rep).strip().split("\n")
    assert lines[0].startswith("theorem_id,convention,trials,failures")
    # C27 runs two conventions with two links each
    assert len(lines) == 5
    assert any(row.startswith("C27#2,") for row in lines[1:])


def test_render_formats():
    rep = harness.run_campaign(small_config(checker_filter=("YOUNG2",)))
    assert json.loads(report.render(rep, "json"))["version"] == rep.version
    assert report.render(rep, "csv").count("\n") >= 2
    with pytest.raises(BadParams):
        report.render(rep, "yaml")


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_ok(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = cli.main(["verify", "--seed", "5", "--trials", "4",
                     "--theorems", "L21b,YOUNG2", "--dims", "2x2",
                     "--kernel", "identity", "--out", str(out)])
    assert code == 0
    assert "gating failures: 0" in capsys.readouterr().out
    assert json.loads(out.read_text())["config"]["master_seed"] == 5


def test_cli_verify_csv_stdout(capsys, monkeypatch):
    # without --out stdout holds the report and nothing else, in either
    # format, so `berlab verify > r.json` is a valid report; the summary
    # table goes to stderr
    reports = []
    run_campaign = harness.run_campaign
    monkeypatch.setattr(harness, "run_campaign",
                        lambda config: reports.append(run_campaign(config)) or reports[-1])
    for fmt in ("csv", "json"):
        code = cli.main(["verify", "--seed", "5", "--trials", "2",
                         "--theorems", "YOUNG2", "--format", fmt])
        assert code == 0
        out, err = capsys.readouterr()
        assert out == report.render(reports[-1], fmt)
        assert err.splitlines()[-1].startswith("gating failures: 0 (wall time ")
    assert out.startswith("{") and json.loads(out)["config"]["master_seed"] == 5


def test_cli_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text(
        "# smoke campaign\n"
        "master_seed = 7\n"
        "trials_per_checker = 3\n"
        "dims = 2x2,3x2\n"
        "kernel = identity,gaussian\n"
        "theorems = R26\n")
    out = tmp_path / "rep.json"
    code = cli.main(["verify", "--config", str(cfg), "--trials", "2",
                     "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["master_seed"] == 7
    assert data["config"]["trials_per_checker"] == 2  # flag wins
    capsys.readouterr()


def test_cli_explore_and_case(capsys):
    code = cli.main(["explore", "--theorem", "YOUNG2", "--budget", "10",
                     "--trials", "10", "--seed", "3"])
    assert code == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["theorem_id"] == "YOUNG2"

    seed = harness.derive_trial_seed(3, "L21b", 0)
    code = cli.main(["case", "--theorem", "L21b", "--seed", str(seed)])
    assert code == 0
    certs = json.loads(capsys.readouterr().out)
    assert certs and certs[0]["theorem_id"] == "L21b"


def test_cli_error_exit_codes(tmp_path, capsys, monkeypatch):
    campaigns = []
    run_campaign = harness.run_campaign
    monkeypatch.setattr(harness, "run_campaign",
                        lambda config: campaigns.append(config) or run_campaign(config))
    # an unwritable --out fails before any trial runs, not after the campaign
    unwritable = tmp_path / "no_such_dir" / "r.json"
    assert cli.main(["verify", "--theorems", "YOUNG2", "--trials", "2",
                     "--out", str(unwritable)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    bad_seed = tmp_path / "bad.cfg"
    bad_seed.write_text("master_seed = abc\n")
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe master_seed = 1\n")
    no_ids = tmp_path / "no_ids.cfg"
    no_ids.write_text("theorems =\n")
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("master_seed = 1\ntrials_per_checker = 2\nmaster_seed = 2\n")
    rejected = [
        ["verify", "--theorems", "NOPE"],
        ["verify", "--dims", "bogus"],
        ["case", "--theorem", "L21b"],  # no seed
        ["case", "--theorem", "L21b", "--seed", "-5"],
        ["verify", "--config", "/no/such/file"],
        ["verify", "--config", str(bad_seed)],
        ["verify", "--config", str(binary)],
        # a malformed flag is one error line too, not a usage block
        ["verify", "--trials", "abc"],
        ["verify", "--bogus"],
        ["explore", "--budget", "3"],  # no --theorem
        ["nope"],
        # a repeated id would count its trials twice; an empty list is not "all"
        ["verify", "--theorems", "T24a,T24a", "--trials", "2", "--dims", "2x2"],
        ["verify", "--theorems", ","],
        ["verify", "--theorems", ""],
        ["verify", "--config", str(no_ids)],
        # a repeated key is an error, not a silent last-one-wins
        ["verify", "--config", str(repeated)],
        ["explore", "--theorem", "YOUNG2", "--budget", "3", "--config", str(repeated)],
    ]
    # explore and case write no report and pick their own checker: a report
    # setting, as a flag or a config key, is rejected rather than ignored
    for command in (["explore", "--theorem", "YOUNG2", "--budget", "5", "--trials", "3"],
                    ["case", "--theorem", "YOUNG2", "--seed", "5"]):
        for flag, value in (("--out", "/nonexistent/x.json"), ("--format", "json"),
                            ("--theorems", "YOUNG2")):
            rejected.append(command + [flag, value])
            key_file = tmp_path / f"{command[0]}_{flag[2:]}.cfg"
            key_file.write_text(f"{flag[2:]} = {value}\n")
            rejected.append(command + ["--config", str(key_file)])
    # the gate tolerance is fixed in code: neither a flag nor a config key sets it
    for tol in ("1", "nan", "-1", "inf"):
        rejected.append(["verify", "--theorems", "YOUNG2", "--trials", "2", "--tol", tol])
        tol_file = tmp_path / f"tol_{tol}.cfg"
        tol_file.write_text(f"check_tol = {tol}\n")
        rejected.append(["verify", "--config", str(tol_file)])
    # "trials" is a flag name, not a config key: it must not be ignored
    unknown_key = tmp_path / "unknown_key.cfg"
    unknown_key.write_text("trials = 2\ntheorems = YOUNG2\n")
    rejected.append(["verify", "--config", str(unknown_key)])
    for argv in rejected:
        assert cli.main(argv) == cli.EXIT_CONFIG, argv
        out, err = capsys.readouterr()
        assert out == "", argv  # rejected before any trial ran or report printed
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    assert err == "error: unknown config key 'trials'\n"
    # a trial whose space draw uses up SPACE_ATTEMPTS is one error line too
    assert cli.main(["case", "--theorem", "T24a", "--seed", "15963511641939671877",
                     "--dims", "8x8,12x10,16x12"]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: space draw failed after 5 attempts: gram "
                                   "spectrum [6.324e-12, 6.398e+00] below cond floor\n")
    assert campaigns == []
    with pytest.raises(SystemExit) as help_exit:
        cli.main(["verify", "--help"])
    assert help_exit.value.code == 0


def test_cli_case_raises_the_error_a_failed_draw_carries(capsys):
    # campaign_large at seed 42 has trials whose space draw uses up
    # SPACE_ATTEMPTS; berlab case on each such seed draws a batch of one, and
    # its evaluate_draw raises the slot's carried error: one line, exit 2
    w = workloads.WORKLOADS["campaign_large"]
    slots = [(tid, harness.derive_trial_seed(42, tid, i))
             for tid in w.checkers for i in range(w.trials)]
    draws = harness.draw_trial(*zip(*slots), w.config(42))
    failed = [draw for draw in draws if draw.error is not None]
    assert failed and all(type(draw.error) is IllConditioned for draw in failed)
    for draw in failed:
        assert cli.main(["case", "--theorem", draw.theorem_id, "--seed", str(draw.trial_seed),
                         "--dims", "8x8,12x10,16x12"]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {draw.error}\n")
        assert str(draw.error).startswith("space draw failed after 5 attempts: gram spectrum")


def test_cli_failed_verify_keeps_the_previous_report(tmp_path, capsys, monkeypatch):
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--theorems", "YOUNG2", "--trials", "2",
                     "--out", str(out)]) == cli.EXIT_OK
    previous = out.read_bytes()
    assert previous.startswith(b"{")

    def broken(config):
        raise BadParams("checker bug")
    monkeypatch.setattr(harness, "run_campaign", broken)
    capsys.readouterr()
    assert cli.main(["verify", "--theorems", "YOUNG2", "--trials", "3",
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: checker bug\n"
    assert out.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
    # a directory is not a report path: rejected before any trial
    assert cli.main(["verify", "--theorems", "YOUNG2", "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG


def test_cli_verify_leaves_no_debris(tmp_path, capsys, monkeypatch):
    out = tmp_path / "r.json"
    # a failed run on a new path leaves no empty report behind
    def broken(config):
        raise BadParams("checker bug")
    with monkeypatch.context() as m:
        m.setattr(harness, "run_campaign", broken)
        assert cli.main(["verify", "--theorems", "YOUNG2", "--trials", "2",
                         "--out", str(out)]) == cli.EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []
    # an interrupt at the final rename leaves no <out>.tmp, on a new path
    # and over an earlier report
    def interrupted(src, dst):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli.os, "replace", interrupted)
    argv = ["verify", "--theorems", "YOUNG2", "--trials", "2", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_INTERRUPTED
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b'{"earlier": "report"}\n')
    assert cli.main(argv) == cli.EXIT_INTERRUPTED
    assert out.read_bytes() == b'{"earlier": "report"}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
    assert capsys.readouterr().err.splitlines()[-1] == "error: interrupted"


@pytest.mark.parametrize("entry, argv", [
    ("run_campaign", ["verify"]),
    ("explore", ["explore", "--theorem", "T24a", "--budget", "5"]),
])
def test_cli_interrupt_exits_130_with_one_line(tmp_path, capsys, monkeypatch, entry, argv):
    # Ctrl-C mid-run: one error line and 128 + SIGINT, no traceback, and an
    # earlier report left as it was
    out = tmp_path / "r.json"
    out.write_bytes(b'{"earlier": "report"}\n')

    def interrupted(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(harness, entry, interrupted)
    # explore writes no report file, so it takes no --theorems or --out
    report_flags = ["--theorems", "T24a", "--out", str(out)] if entry == "run_campaign" else []
    code = cli.main(argv + ["--trials", "2"] + report_flags)
    assert code == cli.EXIT_INTERRUPTED == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n"
    assert captured.out == ""
    assert out.read_bytes() == b'{"earlier": "report"}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


def test_cli_verify_without_evaluated_trials_exits_2(capsys):
    # every 30-point Gaussian Gram draw is ill-conditioned, so no trial runs
    argv = ["verify", "--theorems", "T24a", "--kernel", "gaussian",
            "--dims", "30x30", "--trials", "3"]
    code = cli.main(argv)
    assert code == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    # the report still holds one empty row per registry run of the checker;
    # the summary table goes to stderr, above the one error line
    table, _, tail = err.partition("gating failures: 0")
    assert tail.splitlines()[-1] == "error: no evaluated trials for T24a"
    assert [line.split()[:3] for line in table.splitlines()] == [
        ["T24a", "joint", "informational"], ["T24a", "pair", "gating"]]
    assert all(line.endswith("trials=   0 failures=  0 min_slack=n/a [n/a]")
               for line in table.splitlines())
    rows = json.loads(out)["results"]
    assert rows == [
        {"theorem_id": "T24a", "convention": conv, "link": 0, "reading": "",
         "mode": mode, "trials": 0, "failures": 0, "anomalies": 3,
         "min_slack": None, "mean_slack": None, "witness": None}
        for conv, mode in (("joint", "informational"), ("pair", "gating"))]
    assert cli.main(argv + ["--format", "csv"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "T24a,joint,0,0,,,", "T24a,pair,0,0,,,"]


# (checker, trial index under small_config(), X shape, calls per draw): one
# modulus stack per operand shape and one kernel-pair grid for all of a
# draw's runs, and no input digest until a certificate is serialized
BLOCK_DRAW_CALLS = (
    ("T24a", 0, (2, 2), {"matrix_abs": 1, "ber_block": 1, "digest_inputs": 0}),
    ("T24a", 3, (3, 2), {"matrix_abs": 2, "ber_block": 1, "digest_inputs": 0}),
    ("INEQ1", 0, (2, 2), {"matrix_abs": 1, "ber_block": 1, "digest_inputs": 0}),
)


def test_block_draw_evaluates_shared_operands_once(monkeypatch):
    # the pair and joint runs share the moduli of X, Y*, Y, X* (INEQ1: of
    # Y, Y, X, X, one stack for its two powers of each), the Berezin grid
    # and the input digest,
    # which is hashed once, when the first certificate is serialized
    config = small_config()
    calls = {}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(numlin, "matrix_abs")
    count(blockops, "ber_block")
    count(theorems, "digest_inputs")
    for tid, index, x_shape, expected in BLOCK_DRAW_CALLS:
        seed = harness.derive_trial_seed(config.master_seed, tid, index)
        draw = draw_one(tid, seed, config)
        assert draw.arrays["X"].shape == x_shape
        calls.update(dict.fromkeys(expected, 0))
        certs = harness.evaluate_draw(draw)
        assert [(c.convention, c.mode) for c in certs] == list(
            theorems.CHECKERS[tid].runs)
        assert calls == expected, (tid, index)
        dicts = [c.to_dict() for c in certs + certs]
        assert calls["digest_inputs"] == 1, (tid, index)
        assert len({d["input_digest"] for d in dicts}) == 1


def test_drawn_operands_are_read_only():
    # a certificate hashes its inputs when first read, so the operands it
    # was evaluated on must not change under it
    config = small_config()
    rng = np.random.default_rng(5)
    for tid in theorems.CHECKERS:
        draw = draw_one(tid, harness.derive_trial_seed(7, tid, 0), config)
        bumped = [harness._bump(draw, harness._draw_bump(draw, rng), 0.5)
                  for _ in range(6)]
        for d in [draw] + bumped:
            assert d.arrays, tid  # a pair's a and b are 0-d arrays
            for arr in d.arrays.values():
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 1.0
                with pytest.raises(ValueError):
                    arr += 1.0
    # the type freezes them, so a draw built by hand is read-only too
    built = harness.TrialDraw("T24a", 0, {}, {"X": np.ones((2, 2), dtype=complex)}, {})
    assert not built.arrays["X"].flags.writeable
    # a bump leaves the operand it copied from as it was
    tid = "T24a"
    draw = draw_one(tid, harness.derive_trial_seed(7, tid, 0), config)
    before = {k: v.copy() for k, v in draw.arrays.items()}
    for _ in range(20):
        harness._bump(draw, harness._draw_bump(draw, rng), 0.5)
    assert all(np.array_equal(draw.arrays[k], v) for k, v in before.items())


def test_lazy_digests_equal_eager_ones(monkeypatch):
    # every certificate of 5 draws per checker, serialized after all of them
    # were evaluated, carries the digest an eager hash of its inputs gives
    config = small_config()
    draws = [draw_one(tid, harness.derive_trial_seed(11, tid, i), config)
             for tid in theorems.CHECKERS for i in range(5)]
    lazy = [harness.evaluate_draw(d) for d in draws]

    def hashed_now(*items):
        hexdigest = theorems.digest_inputs(*items)
        return lambda: hexdigest
    monkeypatch.setattr(theorems, "_bound_digest", hashed_now)
    eager = [harness.evaluate_draw(d) for d in draws]
    for draw, mine, theirs in zip(reversed(draws), reversed(lazy), reversed(eager)):
        assert [c.to_dict() for c in mine] == [c.to_dict() for c in theirs]
        assert all(len(c.input_digest) == 32 for c in mine), draw.theorem_id


def test_cli_violation_exit_code(capsys):
    # T32 is a known-false bound; a wide enough sweep trips it (see the
    # acceptance suite) and must exit 1
    code = cli.main(["verify", "--seed", "7", "--trials", "300",
                     "--theorems", "T32"])
    assert code == cli.EXIT_VIOLATION
    assert "T32" in capsys.readouterr().out
