"""Tour of finite kernel-space models and Berezin functionals.

Builds the three bundled kernel families, shows how Berezin symbols are
computed through the orthonormal chart, and illustrates the rotation
identity ber(A) = sup_theta ber(Re(e^{i theta} A)) at a finite grid.

Run:  python demos/kernel_spaces.py
"""

import numpy as np

from berlab import (
    KernelFamily,
    ber_via_rotations,
    berezin_number,
    berezin_symbols,
    build_space,
    identity_space,
    operator_norm,
)


def main():
    rng = np.random.default_rng(0)

    print("== identity family: orthonormal kernels ==")
    sp = identity_space(3)
    a = np.diag([1.0, -2.0, 0.5])
    for j, symbol in enumerate(berezin_symbols(sp, a)):
        print(f"  symbol at index {j}: {symbol:.3f}")
    print(f"  ber = {berezin_number(sp, a):.3f}  (max diagonal modulus)")

    print("\n== szego kernel on two disk points ==")
    [sp] = build_space(KernelFamily("szego"), [[0.0, 0.5]])
    print("  gram =")
    print(np.array_str(sp.gram.real, precision=4))
    a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    print(f"  random operator: ber = {berezin_number(sp, a):.4f}, "
          f"norm = {operator_norm(a):.4f}")

    print("\n== gaussian kernel: correlated kernels shrink ber ==")
    fam = KernelFamily("gaussian", {"sigma": 1.0})
    for spread in (4.0, 1.0, 0.25):
        [sp] = build_space(fam, [[0.0, spread]])
        val = berezin_number(sp, a)
        print(f"  points (0, {spread:4.2f}): ber = {val:.4f} "
              f"(gram off-diagonal {sp.gram[0, 1].real:.3f})")

    print("\n== rotation identity at a finite grid ==")
    sp = identity_space(4)
    a = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
    ber = berezin_number(sp, a)
    for grid in (4, 16, 64, 720):
        rot = ber_via_rotations(sp, a, grid)
        print(f"  grid {grid:4d}: sup_theta ber(Re(e^(it)A)) = {rot:.6f} "
              f"(target {ber:.6f})")


if __name__ == "__main__":
    main()
