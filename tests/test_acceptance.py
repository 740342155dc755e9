"""Acceptance suite: the eight campaign-level criteria.

Each criterion prints one PASS/FAIL line.

Criterion 1 checks that the gating verdicts of the default campaign are
sound, rather than that there are none. Two gating checkers, T32 and R33,
encode Aluthge-type bounds that are false on finite kernel models (the
numerical-radius forms are true, but their proof takes a supremum over all
unit vectors, which the kernel set does not provide), so the default
campaign is expected to report gating failures for them. The criterion
asserts, over the default campaign:

1. coverage: every selected checker has a report row, and every gating row
   evaluated at least one trial, so no row is green because nothing ran;
2. replay: for each gating row with failures, replaying its trials from
   their per-trial seeds yields exactly that many violated certificates;
3. confirmation: each violated certificate is reproduced by an oracle in
   this module that recomputes both sides from one SVD of T and Gram-ratio
   Berezin numbers, without the package's polar/Aluthge code. Oracles exist
   only for the documented false bounds T32 and R33; a gating failure of
   any other checker is unconfirmed and fails the criterion;
4. presence: the T32 and R33 rows stay gating and keep failing.

The analytic counterexample family (rank-one u v*) is pinned in
tests/test_theorems.py.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from berlab import blockops, harness, numlin, report, rkhs, theorems
from berlab.errors import BerlabError


def announce(num, ok, detail):
    line = f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def cgauss(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def criterion1_config():
    # master_seed=42, 500 trials, default dims/families/grids
    return harness.CampaignConfig()


GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def golden_sha256():
    """The pinned hash of the 500-trial default report (wall_time_ms zeroed)."""
    entries = json.loads(GOLDEN_PATH.read_text())["entries"]
    [slow] = [e for e in entries if e.get("slow")]
    return slow["sha256"]


@pytest.fixture(scope="module")
def campaign():
    config = criterion1_config()
    started = time.monotonic()
    rep = harness.run_campaign(config)
    elapsed = time.monotonic() - started
    return config, rep, elapsed


def random_space(rng, n):
    family = harness.DEFAULT_FAMILIES[int(rng.integers(3))]
    return harness.draw_space([rng], family, n)[0]


# Bounds documented as false on finite kernel models (README, "A note on
# honesty"); the only gating checkers whose failures criterion 1 accepts.
KNOWN_FALSE = ("T32", "R33")
ORACLE_RANK_TOL = 1e-12


def gram_ratio_ber(space, a):
    """ber(A) as the max over kernels k_j of |<A k_j, k_j>| / <k_j, k_j>."""
    best = 0.0
    for j in range(space.dim):
        k = space.chart[:, j]
        best = max(best, abs(np.conj(k) @ (a @ k)) / (np.conj(k) @ k).real)
    return best


def known_false_oracle(theorem_id, space, t_mat, t):
    """(lhs, rhs) of T32 at exponent t, or of R33, from one SVD of T.

    With T = W diag(s) V* and r the numerical rank, |T|^p = V_r diag(s^p) V_r*
    and U = W_r V_r*, so |T|^0 is the support projection and
    T~_t = |T|^t U |T|^(1-t) is the generalized Aluthge transform.
    """
    w, s, vh = np.linalg.svd(t_mat)
    keep = s > ORACLE_RANK_TOL * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
    w_r, s_r, v_r = w[:, keep], s[keep], vh[keep].conj().T

    def power(p):
        return (v_r * s_r**p) @ v_r.conj().T

    tilde = power(t) @ (w_r @ v_r.conj().T) @ power(1.0 - t)
    if theorem_id == "T32":
        head = 0.25 * np.linalg.norm(power(2.0 * t) + power(2.0 * (1.0 - t)), 2)
    else:
        head = 0.5 * np.linalg.norm(t_mat, 2)
    return gram_ratio_ber(space, t_mat), head + 0.5 * gram_ratio_ber(space, tilde)


def replay_gating_failures(config, row):
    """(trial index, draw, certificate) of every violated certificate of row."""
    found = []
    for i in range(config.trials_per_checker):
        seed = harness.derive_trial_seed(config.master_seed, row["theorem_id"], i)
        try:
            [draw] = harness.draw_trial((row["theorem_id"],), (seed,), config)
            certs = harness.evaluate_draw(draw)
        except BerlabError:
            continue
        found.extend((i, draw, c) for c in certs
                     if c.mode == theorems.GATING and not c.holds
                     and c.convention == row["convention"]
                     and c.params.get("link", 0) == row["link"]
                     and c.params.get("reading", "") == row["reading"])
    return found


def oracle_confirms(draw, cert):
    if cert.theorem_id not in KNOWN_FALSE:
        return False
    lhs, rhs = known_false_oracle(cert.theorem_id, draw.spaces["space"],
                                  draw.arrays["T"], cert.params["t"])
    slack = rhs - lhs
    return (abs(slack - cert.slack) <= 1e-9 * (1.0 + abs(rhs))
            and slack < -theorems.slack_tolerance(rhs))


def test_criterion_1_gating_soundness(campaign):
    config, rep, elapsed = campaign
    gating = [r for r in rep.results if r["mode"] == theorems.GATING]
    missing = sorted(set(config.checkers()) - {r["theorem_id"] for r in rep.results})
    empty = sorted(r["theorem_id"] for r in gating if r["trials"] == 0)

    confirmed, unconfirmed = [], []
    for row in gating:
        if not row["failures"]:
            continue
        replayed = replay_gating_failures(config, row)
        if len(replayed) != row["failures"]:
            unconfirmed.append((row["theorem_id"], "replayed", len(replayed),
                                "of", row["failures"]))
        for i, draw, cert in replayed:
            if oracle_confirms(draw, cert):
                confirmed.append(f"{cert.theorem_id}#{i} {cert.slack:.4f}")
            else:
                unconfirmed.append((cert.theorem_id, i, cert.slack))

    known = [r for r in rep.results if r["theorem_id"] in KNOWN_FALSE]
    present = ({r["theorem_id"] for r in known} == set(KNOWN_FALSE)
               and all(r["mode"] == theorems.GATING and r["failures"] > 0
                       for r in known))

    ok = not missing and not empty and not unconfirmed and present and elapsed <= 300.0
    announce(1, ok,
             f"{rep.gating_failures} gating failures, confirmed witnesses "
             f"[{', '.join(confirmed)}]; {len(unconfirmed)} unconfirmed "
             f"{unconfirmed[:5]}; missing checkers {missing}; empty gating rows "
             f"{empty}; known-false rows gating and failing: {present}; "
             f"{elapsed:.1f}s")


def test_criterion_2_equality_witnesses():
    blk = blockops.offdiag_block(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]))
    t24 = theorems.check_block_runs("T24a", blk, {"r": 1.0, "p": 0.5},
                                     (("pair", theorems.GATING),))[0]
    ok = (abs(t24.lhs - 2.0) <= 1e-12 and abs(t24.rhs - 2.0) <= 1e-12
          and abs(t24.slack) <= 1e-12)

    for a in (0.5, 1.0, 2.0, 3.0):
        for m in (1, 2, 3):
            cert = theorems.check_scalar("YOUNG2", {"m": m}, (a, a))[0]
            ok = ok and cert.slack == 0.0

    blk_i = blockops.offdiag_block(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    c27 = theorems.check_block_runs("C27", blk_i, {}, (("joint", theorems.GATING),))[1]
    ok = ok and abs(c27.slack) <= 1e-12
    announce(2, ok, "T24a pair equality, YOUNG2 a=b, C27 link 2 at X=I")


def test_criterion_3_decomposition_oracles():
    rng = np.random.default_rng(2024)
    worst_polar, worst_iso, worst_fg = 0.0, 0.0, 0.0
    by_kind = {}  # one stacked build per ensemble and size, as a campaign builds them
    for i in range(1000):
        dim = 1 + i % 8
        kind = harness.OPERATOR_KINDS[i % len(harness.OPERATOR_KINDS)]
        seed = int(rng.integers(2**63))
        op = harness._draw_gaussians(np.random.default_rng(seed), kind, dim)
        by_kind.setdefault((kind, dim), []).append(op)
    for ops in by_kind.values():
        for t_mat in harness._build_operators(ops):
            scale = 1.0 + numlin.operator_norm(t_mat)
            u, mod = numlin.polar_decompose(t_mat)
            worst_polar = max(worst_polar,
                              numlin.operator_norm(u @ mod - t_mat) / scale)
            worst_iso = max(worst_iso, numlin.operator_norm(u @ u.conj().T @ u - u))
            ab = numlin.matrix_abs(t_mat)
            for p in (0.25, 0.5, 0.75):
                prod = numlin.matrix_power_psd(ab, p) @ numlin.matrix_power_psd(ab, 1.0 - p)
                worst_fg = max(worst_fg, numlin.operator_norm(prod - ab) / scale)
    ok = worst_polar <= 1e-9 and worst_iso <= 1e-9 and worst_fg <= 1e-9
    announce(3, ok, f"worst defects: polar {worst_polar:.2e}, "
                    f"isometry {worst_iso:.2e}, f*g {worst_fg:.2e} over 1000 draws")


def test_criterion_4_berezin_oracle_equivalence():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(500):
        sp = random_space(rng, int(rng.integers(1, 7)))
        a = cgauss(rng, (sp.dim, sp.dim))
        got = rkhs.berezin_number(sp, a)
        want = gram_ratio_ber(sp, a)
        worst = max(worst, abs(got - want) / (1.0 + want))
    ok = worst <= 1e-10
    announce(4, ok, f"worst chart-vs-Gram-ratio deviation {worst:.2e} over 500 draws")


def test_criterion_5_rotation_identity():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(200):
        sp = random_space(rng, int(rng.integers(1, 7)))
        a = cgauss(rng, (sp.dim, sp.dim))
        ber = rkhs.berezin_number(sp, a)
        rot = rkhs.ber_via_rotations(sp, a, 720)
        worst = max(worst, abs(ber - rot) / (1.0 + ber))
    ok = worst <= 1e-4
    announce(5, ok, f"worst grid-720 rotation deviation {worst:.2e} over 200 draws")


def test_criterion_6_aluthge_consistency():
    rng = np.random.default_rng(2027)
    worst_match, worst_eig = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        x, y = cgauss(rng, (n, n)), cgauss(rng, (n, n))
        big = blockops.assemble(blockops.offdiag_block(x, y))
        scale = 1.0 + numlin.operator_norm(big)
        want_eigs = np.sort_complex(np.linalg.eigvals(big))
        for t in (0.25, 0.5, 0.75):
            closed = blockops.assemble(blockops.aluthge_offdiag(x, y, t))
            direct = blockops.aluthge_general(big, t)
            worst_match = max(worst_match, numlin.operator_norm(closed - direct))
            got_eigs = np.sort_complex(np.linalg.eigvals(direct))
            worst_eig = max(worst_eig,
                            float(np.max(np.abs(got_eigs - want_eigs))) / scale)
    ok = worst_match <= 1e-8 and worst_eig <= 1e-7
    announce(6, ok, f"closed-form defect {worst_match:.2e}, "
                    f"eigenvalue multiset defect {worst_eig:.2e} over 200 pairs")


def test_criterion_7_determinism(campaign):
    config, rep, _ = campaign
    second = harness.run_campaign(criterion1_config())
    d1, d2 = rep.to_dict(), second.to_dict()
    # wall_time_ms is the one report field that cannot be bit-stable
    d1["wall_time_ms"] = d2["wall_time_ms"] = 0
    ok = report.dumps_json(d1) == report.dumps_json(d2)
    # and both are the pinned 500-trial golden report
    digest = hashlib.sha256(report.dumps_json(d1).encode()).hexdigest()
    ok = ok and digest == golden_sha256()

    # every min-slack witness reproduces from its recorded per-trial seed
    checked = 0
    for res in rep.results:
        wit = res["witness"]
        [draw] = harness.draw_trial((res["theorem_id"],), (wit["witness"]["trial_seed"],),
                                    config)
        certs = harness.evaluate_draw(draw)
        match = [c for c in certs
                 if c.convention == res["convention"]
                 and c.params.get("link", 0) == res["link"]
                 and c.params.get("reading") == wit["params"].get("reading")]
        ok = ok and len(match) == 1 and match[0].to_dict() == wit
        checked += 1
    announce(7, ok, f"byte-identical reports modulo wall_time_ms, at the golden hash; "
                    f"{checked} witnesses replayed from recorded seeds")


def test_criterion_8_informational_tracking(campaign):
    _, rep, _ = campaign
    info = {(r["theorem_id"], r["reading"])
            for r in rep.results if r["mode"] == theorems.INFORMATIONAL}
    tracked = {t for t, _ in info}
    ok = {"T311_stmt", "T312_stmt", "C35"} <= tracked
    ok = ok and {("C35", "sum"), ("C35", "adjoint_sum")} <= info
    ok = ok and all(np.isfinite(r["min_slack"]) for r in rep.results)
    # informational rows never count toward the gating failure total
    recount = sum(r["failures"] for r in rep.results if r["mode"] == theorems.GATING)
    ok = ok and recount == rep.gating_failures
    announce(8, ok, f"informational rows tracked: {sorted(tracked)}")
