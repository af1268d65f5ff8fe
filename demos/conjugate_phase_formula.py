"""
The determinant phase of conjugate symplectic matrices
======================================================

Conjugate symplectic matrices (A^* J A = J) have |det(A)| = 1, but the phase
can sit anywhere on the unit circle.  It is recovered from the four subblocks
alone: with C = A11 + A22 and D = A12 - A21,

    det(A) = phase of det(C^2 + D^2 - i(CD - DC)).

The script sweeps scalar-phase matrices (where the answer is analytic) and
random group members (where the LU determinant is the independent oracle).
"""

import math

import numpy as np

import sympdet as sd
from sympdet.linalg import split_seed

# scalar case: A = e^{i theta} I_{2N} has det(A) = e^{2 i N theta}
n = 3
print("theta      formula phase            analytic e^{2iN theta}")
for theta in np.linspace(-1.2, 1.2, 7):
    a = np.exp(1j * theta) * np.eye(2 * n, dtype=np.complex128)
    got = sd.conj_symplectic_det(a)
    want = np.exp(2j * n * theta)
    print(f"{theta:+.3f}   {got.real:+.6f}{got.imag:+.6f}j   "
          f"{want.real:+.6f}{want.imag:+.6f}j")

# random members: formula phase vs the LU oracle phase
print("\nrandom conjugate symplectic draws (N = 6):")
for t in range(5):
    cfg = sd.GeneratorConfig(half_dim=6, target=sd.GroupKind.CONJUGATE_SYMPLECTIC,
                             seed=split_seed(33, t))
    a = sd.generate(cfg)
    formula = sd.conj_symplectic_det(a)
    oracle = sd.log_det(a)
    print(f"  seed {cfg.seed:>20d}: det = {formula.real:+.9f}{formula.imag:+.9f}j, "
          f"angular gap vs LU = {sd.phase_angle(formula, oracle.phase):.2e}, "
          f"| |det| - 1 | = {abs(math.expm1(oracle.log_magnitude)):.2e}")

# a real symplectic matrix is also conjugate symplectic; its phase is 1
a = sd.generate(sd.GeneratorConfig(half_dim=4, seed=77))
print(f"\nreal symplectic input: formula returns {sd.conj_symplectic_det(a)}")
