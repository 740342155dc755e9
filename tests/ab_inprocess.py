"""Time two berlab trees against each other in one process, call by call.

Run it by hand from the repository root; pytest does not collect it:

    python tests/ab_inprocess.py OLD NEW --workload campaign_default --rounds 100
    python tests/ab_inprocess.py OLD NEW --workload explore_t24a --rounds 40 --seed 900

OLD and NEW are checkouts of this repository, for example a ``git archive``
of the parent commit and the working tree. Each tree's ``src/berlab`` is
loaded under its own package name, and each tree's
``perfbench/workloads.py`` binds to that package, so both trees run the
same workload definitions as the benchmark does. A round is one benchmark
round of the workload (every master seed of ``Workload.seeds``); the two
trees alternate seed by seed, and which tree goes first alternates by
round. Every call's report or certificate hash must be equal in both trees,
or the script exits 1 before printing any timing.

It prints, per round, the ratio NEW/OLD of the round's summed call times,
then the median ratio, its quartiles and the number of rounds each side
won. A ratio below 1 means NEW is faster. ``--clock cpu`` times each call
by the process's CPU time instead of wall time, which a host that shares
its cores with other work disturbs less.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path


def load_tree(root, tag):
    """The perfbench workloads module of the checkout at ``root``, bound to that
    checkout's berlab loaded as package ``berlab_<tag>``."""
    src = Path(root).resolve() / "src" / "berlab"
    name = f"berlab_{tag}"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    # workloads.py imports "berlab": point that name at this tree while it loads
    saved = sys.modules.get("berlab")
    sys.modules["berlab"] = package
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{tag}", Path(root).resolve() / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["berlab"]
        else:
            sys.modules["berlab"] = saved
    return workloads


def timed_call(workloads, name, seed, clock=time.perf_counter):
    """(seconds, result hash) of one entry call of workload ``name``."""
    workload = workloads.WORKLOADS[name]
    start = clock()
    out = workload.call(seed)
    spent = clock() - start
    return spent, workloads.result_hash(workload, out)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", default="campaign_default")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=900,
                        help="benchmark seed of the first round; round i uses seed + i")
    parser.add_argument("--clock", choices=("wall", "cpu"), default="wall")
    parser.add_argument("--quiet", action="store_true", help="print only the summary")
    args = parser.parse_args(argv)
    clock = time.perf_counter if args.clock == "wall" else time.process_time

    trees = [load_tree(args.old, "old"), load_tree(args.new, "new")]
    workload = trees[0].WORKLOADS[args.workload]
    # one untimed round per tree first: caches, imports and first-call costs
    for tree in trees:
        for seed in workload.seeds(args.seed - 1):
            timed_call(tree, args.workload, seed)
    ratios, totals = [], [[], []]
    for i in range(args.rounds):
        spent = [0.0, 0.0]
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for seed in workload.seeds(args.seed + i):
            digests = {}
            for side in order:
                took, digests[side] = timed_call(trees[side], args.workload, seed, clock)
                spent[side] += took
            if digests[0] != digests[1]:
                print(f"hash mismatch at master seed {seed}: "
                      f"{digests[0][:16]}... != {digests[1][:16]}...")
                return 1
        ratios.append(spent[1] / spent[0])
        for side in (0, 1):
            totals[side].append(spent[side])
        if not args.quiet:
            print(f"round {i:3d} seed {args.seed + i}: old {spent[0]:.4f} s  "
                  f"new {spent[1]:.4f} s  ratio {ratios[-1]:.4f}", flush=True)
    q1, median, q3 = quartiles(ratios)
    won = sum(r < 1.0 for r in ratios)
    print(f"{args.workload}: {args.rounds} rounds, {args.clock} clock, hashes equal; "
          f"old median {statistics.median(totals[0]):.4f} s, "
          f"new median {statistics.median(totals[1]):.4f} s")
    print(f"paired ratio new/old: median {median:.4f} (quartiles {q1:.4f} .. {q3:.4f}); "
          f"new faster in {won}/{args.rounds} rounds, old in {args.rounds - won}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
