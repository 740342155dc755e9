"""Adversarial slack search, including a genuine counterexample.

First drives `explore` toward the equality manifold of a sound bound
(YOUNG2 at a=b), then demonstrates that the Aluthge-based bound

    ber(T) <= 1/4 || |T|^{2t} + |T|^{2(1-t)} ||  +  1/2 ber(T~_t)

is false on finite kernel models: a rank-one T = u v* with small <u, v>
and a kernel well aligned with v pushes the left side above the right.
The harness finds such witnesses by random search; here we build one
directly.

Run:  python demos/tightness.py
"""

import numpy as np

from berlab import CampaignConfig, KernelFamily, build_space, explore
from berlab.theorems import check_single


def main():
    config = CampaignConfig(master_seed=7, trials_per_checker=40)

    print("== hunting the equality manifold of the scalar Young refinement ==")
    start = explore(config, "YOUNG2", 0)
    tuned = explore(config, "YOUNG2", 400)
    print(f"  best random slack : {start.slack:.3e}")
    print(f"  after 400 rounds  : {tuned.slack:.3e} "
          f"(witness a={tuned.witness['a']:.6f}, b={tuned.witness['b']:.6f})")

    print("\n== a bound that is genuinely false on kernel models ==")
    [space] = build_space(KernelFamily("gaussian", {"sigma": 1.0}),
                          [[-2.913518783488913, -0.6539410760925704]])
    t_mat = np.array([[0.0, -0.32 + 0.92j], [0.0, -0.171 + 0.146j]])
    for t in (0.0, 0.5, 1.0):
        cert = check_single("T32", space, t_mat, {"t": t})[0]
        flag = "VIOLATED" if not cert.holds else "holds"
        print(f"  t={t:3.1f}: ber(T)={cert.lhs:.6f}  rhs={cert.rhs:.6f}  "
              f"slack={cert.slack:+.4f}  [{flag}]")
    print("  (the same input defeats the t=1/2 corollary; the harness exits")
    print("   nonzero and records the trial seed so the case is replayable)")


if __name__ == "__main__":
    main()
