"""Loosen one gating checker at a time and report which tests catch it.

Run it by hand from the repository root; pytest does not collect it:

    python tests/mutate_bounds.py                    # every gating checker
    python tests/mutate_bounds.py --only T29,C210 -k tight

For each gating checker and each loosening, a child process raises the
right-hand side of that checker's gating certificates, either by
``0.01*(1+|rhs|)`` ("add") or to ``rhs*1.01`` ("scale"), then runs the
suite with ``-x``. By default the hash pins are left out: a hash shows that
bits moved, not that a bound got weaker. The table names the first failing
test of each run, or UNCAUGHT. BER_HOM is an equality, so a shifted
right-hand side breaks it rather than loosens it.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOOSENINGS = {
    "add": lambda rhs: rhs + 0.01 * (1.0 + abs(rhs)),
    "scale": lambda rhs: rhs * 1.01,
}
NO_PINS = "not pinned and not criterion_7"


def child(tid, how, pytest_args):
    """Run pytest in this process with ``tid`` loosened; print the failures as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    from berlab import theorems

    make, loosen = theorems.make_certificate, LOOSENINGS[how]

    def loosened(theorem_id, lhs, rhs, *, mode=theorems.GATING, **kw):
        if theorem_id == tid and mode == theorems.GATING:
            rhs = loosen(float(rhs))
        return make(theorem_id, lhs, rhs, mode=mode, **kw)
    # every checker makes its certificates through this module global
    theorems.make_certificate = loosened

    failed = []

    class Recorder:
        def pytest_runtest_logreport(self, report):
            if report.failed:
                failed.append(report.nodeid)
    pytest.main([*pytest_args, "-x", "-q", "-p", "no:cacheprovider"], plugins=[Recorder()])
    print(json.dumps(failed))


def first_failure(tid, how, pytest_args):
    """The first test that fails with ``tid`` loosened by ``how``, or None."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", tid, how, "--", *pytest_args],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        failed = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{tid} {how}: no result\n{proc.stdout}\n{proc.stderr}") from None
    return failed[0] if failed else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="comma list of gating checker ids")
    parser.add_argument("-k", default=NO_PINS, help="pytest -k expression of the tests run")
    parser.add_argument("--child", nargs=2, metavar=("ID", "HOW"), help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args(argv)
    if args.child:
        child(*args.child, rest[1:] if rest[:1] == ["--"] else rest)
        return 0

    from berlab import theorems

    ids = [tid for tid, c in theorems.CHECKERS.items()
           if any(mode == theorems.GATING for _, mode in c.runs)]
    if args.only:
        ids = [tid for tid in ids if tid in args.only.split(",")]
    uncaught = {how: [] for how in LOOSENINGS}
    print(f"tests: -k {args.k!r}")
    print("| checker | " + " | ".join(LOOSENINGS) + " |")
    print("|---|" + "---|" * len(LOOSENINGS))
    for tid in ids:
        cells = []
        for how in LOOSENINGS:
            test = first_failure(tid, how, ["-k", args.k])
            if test is None:
                uncaught[how].append(tid)
            cells.append(test.split("::")[-1] if test else "UNCAUGHT")
        print(f"| {tid} | " + " | ".join(cells) + " |", flush=True)
    for how, tids in uncaught.items():
        print(f"{how}: {len(tids)} of {len(ids)} uncaught {' '.join(tids)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
