"""The benchmark's workloads: public berlab entry calls and their output hashes.

Each workload drives the API the way a user does: ``run_campaign`` as
``berlab verify`` runs it, or ``explore`` as ``berlab explore`` runs it.
The benchmark's ``--seed`` selects the master seeds of the calls
(``Workload.seeds``); the program receives nothing else from the benchmark.
"""

import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from berlab import harness, report, theorems  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

LARGE_DIMS = ((8, 8), (12, 10), (16, 12))
# every single-operator and block checker except the rotation sweep (L21c)
LARGE_CHECKERS = tuple(t for t in harness.ALL_CHECKERS
                       if t not in theorems.SCALAR_IDS and t != "L21c")


@dataclass(frozen=True)
class Workload:
    """Entry calls at a fixed size; only the master seeds vary."""

    name: str
    kind: str  # "campaign" or "explore"
    trials: int
    subseeds: int
    budget: int = 0
    dims: tuple = harness.DEFAULT_DIMS
    checkers: tuple = ()

    def seeds(self, seed):
        """Master seeds of one round: ``subseeds`` disjoint per benchmark seed."""
        return [int(seed) * self.subseeds + k for k in range(self.subseeds)]

    def config(self, seed, trials=None):
        return harness.CampaignConfig(
            master_seed=int(seed),
            trials_per_checker=self.trials if trials is None else trials,
            dims=self.dims, checker_filter=self.checkers)

    def attempts(self):
        """evaluate_draw attempts one call makes (anomalous ones included)."""
        if self.kind == "campaign":
            return self.trials * len(self.config(0).checkers())
        return self.trials + self.budget

    def call(self, seed, trials=None, budget=None):
        """Run the entry call once and return its Report or Certificate."""
        cfg = self.config(seed, trials)
        if self.kind == "campaign":
            return harness.run_campaign(cfg)
        return harness.explore(cfg, "T24a", self.budget if budget is None else budget)


# Sizes and the reason for each workload: perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("campaign_default", "campaign", trials=5, subseeds=6),
    Workload("campaign_large", "campaign", trials=5, subseeds=8, dims=LARGE_DIMS,
             checkers=LARGE_CHECKERS),
    Workload("explore_t24a", "explore", trials=25, subseeds=8, budget=100),
)}


def result_hash(workload, out):
    """sha256 of the deterministic report (wall_time_ms zeroed) or certificate."""
    d = out.to_dict()
    if workload.kind == "campaign":
        d["wall_time_ms"] = 0
    return hashlib.sha256(report.dumps_json(d).encode()).hexdigest()


def campaign_problems(workload, outs, anomalies):
    """Structural checks of campaign reports; returns a list of problems.

    ``anomalies`` is the number of BerlabErrors the harness raised while
    producing ``outs``; the reports must account for every one of them.
    """
    problems, reported = [], 0
    checkers = sorted(workload.config(0).checkers())
    for out in outs:
        per_checker = {}
        for row in out.results:
            per_checker[row["theorem_id"]] = row["anomalies"]
            if row["trials"] + row["anomalies"] != workload.trials:
                problems.append(f"{row['theorem_id']}: trials + anomalies != {workload.trials}")
        if sorted(per_checker) != checkers:
            problems.append("report does not cover every selected checker")
        reported += sum(per_checker.values())
    if anomalies != reported:
        problems.append(f"reports count {reported} anomalies, the harness raised {anomalies}")
    return problems


def golden_entries(name=None, slow=False):
    """Pinned (workload, seed, size, sha256) entries from golden.json."""
    entries = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["entries"]
    return [e for e in entries
            if (name is None or e["workload"] == name) and (slow or not e.get("slow"))]


def check_golden(entry):
    """Recompute one pinned entry; returns (ok, observed hash, wall seconds)."""
    workload = WORKLOADS[entry["workload"]]
    start = time.perf_counter()
    out = workload.call(entry["seed"], entry.get("trials"), entry.get("budget"))
    wall = time.perf_counter() - start
    digest = result_hash(workload, out)
    return digest == entry["sha256"], digest, wall
