"""Tests for campaign running, random ensembles, explore, reporting, CLI."""

import hashlib
import json

import numpy as np
import pytest

from berlab import blockops, cli, harness, numlin, report, theorems
from berlab.errors import BadParams, ConfigInvalid


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


def draw_operator(kind, dim, seed):
    return harness._draw_operator(np.random.default_rng(seed), kind, dim)


def test_draw_operator_deterministic():
    a = draw_operator("ginibre", 4, 99)
    b = draw_operator("ginibre", 4, 99)
    assert np.array_equal(a, b)
    c = draw_operator("ginibre", 4, 100)
    assert not np.array_equal(a, c)


def test_ensemble_contracts():
    for seed in range(8):
        psd = draw_operator("psd", 4, seed)
        w = np.linalg.eigvalsh((psd + psd.conj().T) / 2.0)
        assert w.min() >= -1e-12 * max(1.0, w.max())

        u = draw_operator("unitary", 4, seed)
        assert numlin.operator_norm(u.conj().T @ u - np.eye(4)) <= 1e-10

        v = draw_operator("partial_isometry", 4, seed)
        assert numlin.operator_norm(v @ v.conj().T @ v - v) <= 1e-9

        k = draw_operator("contraction", 4, seed)
        assert numlin.operator_norm(k) <= 1.0 + 1e-12

        n = draw_operator("nilpotent", 4, seed)
        assert np.count_nonzero(np.tril(n)) == 0

        h = draw_operator("hermitian", 4, seed)
        assert numlin.operator_norm(h - h.conj().T) <= 1e-14

    with pytest.raises(BadParams):
        draw_operator("cauchy", 3, 0)


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
    d1 = harness.draw_trial("R26", seed, config)
    d2 = harness.draw_trial("R26", seed, config)
    assert d1.params == d2.params
    for key in d1.arrays:
        assert np.array_equal(d1.arrays[key], d2.arrays[key])
    c1 = harness.evaluate_draw(d1, config)
    c2 = harness.evaluate_draw(d2, config)
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
    draw = harness.draw_trial("T24a", wit["witness"]["trial_seed"], config)
    certs = harness.evaluate_draw(draw, config)
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


# sha256 of the explore certificate, one checker per draw path; explore
# perturbs a key chosen among the sorted draw keys, so these pin both the
# RNG call order of draw_trial and the names of the drawn operands
EXPLORE_PINS = {
    "YOUNG2": "8fe251fe54900e0eb8cab34558ec8f54dc7a1c15fafb57dc5701207ca6e4664a",
    "S310": "b270a6c44e2cd2d38e73e2d2c6f368c64a848986c0d3d39ea3fb03a6816b6597",
    "L23": "4eb48c65482e24b6ddcf8780327ec9850968e93591a7d9dff3f470c4a7e49213",
    "BER_SUB": "41f28ec57c3803081abb27a950b169bce782cbf7eb392446cf1ce8fc5900078c",
    "BER_HOM": "4cabbe0f4c3e2e9f730cbf949c489f0ef5a4e5b19bede214b6ab8d38ef54dfa8",
    "L22b": "948ee72844d2cfa1787da087098ee2bccd591a5d95404b781643d508ef605b7a",
    "L21a": "c44a794b88216388d7c11689760b5c69930f66117f4f01c9ba3271b33f71b5ad",
    "C27": "9b4206335209e2bbe2b1dadc508f2ad03589efcd9630efcf0fbf893f6892ad88",
    "T31": "df3932901f9ea955842d475ec1cd7706cfb6ef2c83f9895bce728273bd7c15c2",
    "T36": "c3ef4d733a7eaa6c28242f61315fa89ac1d3d1f6a458a2b29b5e1332a33f72ea",
}


@pytest.mark.parametrize("tid", sorted(EXPLORE_PINS))
def test_explore_pinned_per_draw_path(tid):
    text = report.dumps_json(harness.explore(small_config(), tid, 20).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == EXPLORE_PINS[tid]


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


def test_cli_verify_csv_stdout(capsys):
    code = cli.main(["verify", "--seed", "5", "--trials", "2",
                     "--theorems", "YOUNG2", "--format", "csv"])
    assert code == 0
    assert "theorem_id,convention" in capsys.readouterr().out


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
    nan_tol = tmp_path / "nan_tol.cfg"
    nan_tol.write_text("check_tol = nan\n")
    no_ids = tmp_path / "no_ids.cfg"
    no_ids.write_text("theorems =\n")
    # "trials" is a flag name, not a config key: it must not be ignored
    unknown_key = tmp_path / "unknown_key.cfg"
    unknown_key.write_text("trials = 2\ntheorems = YOUNG2\n")
    assert cli.main(["verify", "--theorems", "NOPE"]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--dims", "bogus"]) == cli.EXIT_CONFIG
    assert cli.main(["case", "--theorem", "L21b"]) == cli.EXIT_CONFIG  # no seed
    assert cli.main(["case", "--theorem", "L21b", "--seed", "-5"]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--config", "/no/such/file"]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--config", str(bad_seed)]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--config", str(binary)]) == cli.EXIT_CONFIG
    for tol in ("nan", "-1", "inf"):
        assert cli.main(["verify", "--theorems", "YOUNG2", "--trials", "2",
                         "--tol", tol]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--config", str(nan_tol)]) == cli.EXIT_CONFIG
    # a repeated id would count its trials twice; an empty list is not "all"
    assert cli.main(["verify", "--theorems", "T24a,T24a", "--trials", "2",
                     "--dims", "2x2"]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--theorems", ","]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--theorems", ""]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--config", str(no_ids)]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--config", str(unknown_key)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before any trial ran or report printed
    err = captured.err
    assert "Traceback" not in err
    assert all(line.startswith("error: ") for line in err.splitlines())
    assert err.splitlines()[-1] == "error: unknown config key 'trials'"
    assert campaigns == []


def test_cli_verify_without_evaluated_trials_exits_2(capsys):
    # every 30-point Gaussian Gram draw is ill-conditioned, so no trial runs
    argv = ["verify", "--theorems", "T24a", "--kernel", "gaussian",
            "--dims", "30x30", "--trials", "3"]
    code = cli.main(argv)
    assert code == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err == "error: no evaluated trials for T24a\n"
    # the report still holds one empty row per registry run of the checker
    table, _, body = out.partition("gating failures: 0")
    assert [line.split()[:3] for line in table.splitlines()] == [
        ["T24a", "joint", "informational"], ["T24a", "pair", "gating"]]
    assert all(line.endswith("trials=   0 failures=  0 min_slack=n/a [n/a]")
               for line in table.splitlines())
    rows = json.loads(body[body.index("{"):])["results"]
    assert rows == [
        {"theorem_id": "T24a", "convention": conv, "link": 0, "reading": "",
         "mode": mode, "trials": 0, "failures": 0, "anomalies": 3,
         "min_slack": None, "mean_slack": None, "witness": None}
        for conv, mode in (("joint", "informational"), ("pair", "gating"))]
    assert cli.main(argv + ["--format", "csv"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "T24a,joint,0,0,,,", "T24a,pair,0,0,,,"]


# (checker, trial index under small_config(), X shape, calls per draw): one
# modulus stack per operand shape, one kernel-pair grid and one input digest
# for all of a draw's runs
BLOCK_DRAW_CALLS = (
    ("T24a", 0, (2, 2), {"matrix_abs": 1, "ber_block": 1, "digest_inputs": 1}),
    ("T24a", 3, (3, 2), {"matrix_abs": 2, "ber_block": 1, "digest_inputs": 1}),
    ("INEQ1", 0, (2, 2), {"matrix_abs": 1, "ber_block": 1, "digest_inputs": 1}),
)


def test_block_draw_evaluates_shared_operands_once(monkeypatch):
    # the pair and joint runs share the moduli of X, Y*, Y, X* (INEQ1: of
    # Y and X, each listed twice), the Berezin grid and the input digest
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
        draw = harness.draw_trial(tid, seed, config)
        assert draw.arrays["X"].shape == x_shape
        calls.update(dict.fromkeys(expected, 0))
        certs = harness.evaluate_draw(draw, config)
        assert [(c.convention, c.mode) for c in certs] == list(
            theorems.CHECKERS[tid].runs)
        assert calls == expected, (tid, index)


def test_cli_violation_exit_code(capsys):
    # T32 is a known-false bound; a wide enough sweep trips it (see the
    # acceptance suite) and must exit 1
    code = cli.main(["verify", "--seed", "7", "--trials", "300",
                     "--theorems", "T32"])
    assert code == cli.EXIT_VIOLATION
    assert "T32" in capsys.readouterr().out
