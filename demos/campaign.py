"""A small verification campaign from the library API.

Runs a handful of checkers over random draws, prints the aggregate slack
table, and reproduces the minimum-slack witness of one checker from its
recorded per-trial seed — the same machinery `berlab verify` and
`berlab case` drive from the command line.

Run:  python demos/campaign.py
"""

from berlab import CampaignConfig, run_campaign
from berlab.harness import draw_trial, evaluate_draw
from berlab.report import result_label


def main():
    config = CampaignConfig(
        master_seed=2024,
        trials_per_checker=100,
        checker_filter=("YOUNG2", "L21b", "R26", "T24a", "C27", "T31"),
    )
    report = run_campaign(config)

    print("checker        conv    mode           trials  min slack    mean slack")
    for row in report.results:
        print(f"{result_label(row):12s}  {row['convention'] or '-':6s}  "
              f"{row['mode']:13s}  {row['trials']:5d}  {row['min_slack']:+.3e}  "
              f"{row['mean_slack']:+.3e}")
    print(f"\ngating failures: {report.gating_failures}, "
          f"wall time {report.wall_time_ms} ms")

    tightest = min((r for r in report.results if r["mode"] == "gating"),
                   key=lambda r: r["min_slack"])
    wit = tightest["witness"]
    print(f"\ntightest gating row: {result_label(tightest)} "
          f"with slack {tightest['min_slack']:+.3e}")
    print(f"replaying trial seed {wit['witness']['trial_seed']} ...")
    [draw] = draw_trial((tightest["theorem_id"],), (wit["witness"]["trial_seed"],), config)
    certs = evaluate_draw(draw)
    again = [c for c in certs if c.convention == tightest["convention"]
             and c.params.get("link", 0) == tightest["link"]][0]
    print(f"reproduced: lhs={again.lhs:.12g} rhs={again.rhs:.12g} "
          f"slack={again.slack:+.3e} (bit-identical: {again.to_dict() == wit})")


if __name__ == "__main__":
    main()
