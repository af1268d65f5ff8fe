"""
Paired-block determinants are nonnegative
=========================================

Two closely related facts drive the determinant-one proofs:

* real pairs: det [[C, D], [-D, C]] = |det(C + iD)|^2 >= 0, via a unitary
  change of basis that block-diagonalizes the embedding;
* complex pairs: det [[C, D], [-conj(D), conj(C)]] >= 0, shown by reducing
  with E = C^{-1} D to det(conj(E) E + I) >= 0.

This script samples both embeddings, including near-singular C, and prints
the worst sign violations and reduction residuals seen.
"""

import numpy as np

import sympdet as sd
from sympdet.linalg import rng_from_seed, random_gaussian, split_seed

# real pairs: determinant equals |det(C + iD)|^2
rng = rng_from_seed(1)
worst_sign, worst_split = 0.0, 0.0
for _ in range(200):
    c = random_gaussian(rng, 4)
    d = random_gaussian(rng, 4)
    pair = sd.BlockPair(c, d, sd.GroupKind.REAL_SYMPLECTIC)
    dd = sd.log_det(sd.embed_pair(pair))
    d_plus, _ = sd.unitary_split_det(pair)
    worst_sign = max(worst_sign, -dd.phase.real)
    worst_split = max(worst_split, dd.rel_diff(d_plus.abs_squared()))
print(f"real pairs (200 draws):  worst -Re(phase) = {worst_sign:.3e}, "
      f"worst |det(C+iD)|^2 gap = {worst_split:.3e}")

# complex pairs: nonnegativity survives near-singular C
tol = sd.DEFAULT_TOLERANCES
for eps in (None, 1e-2, 1e-6):
    worst = 0.0
    for t in range(200):
        rng = rng_from_seed(split_seed(9, t))
        c = random_gaussian(rng, 4, np.complex128)
        d = random_gaussian(rng, 4, np.complex128)
        if eps is not None:
            c[:, -1] = c[:, :-1] @ rng.standard_normal(3)   # rank deficient
            c = eps * np.eye(4, dtype=np.complex128) + c
        worst = max(worst, *sd.sign_slacks(sd.conj_block_det(c, d), tol))
    label = "generic C" if eps is None else f"C = {eps} I + rank-deficient"
    print(f"complex pairs, {label:28s} worst sign slack = {worst:.3e}")

# the reduction through E = C^{-1} D, all identities checked independently
probe = sd.conj_block_reduction(random_gaussian(rng_from_seed(3), 5, np.complex128),
                                random_gaussian(rng_from_seed(4), 5, np.complex128))
print("\nreduction residuals on a well-conditioned draw:")
for name, value in probe.residuals.items():
    print(f"  {name:10s} {value:.3e}")
print(f"  det(conj(E) E + I) = {probe.pair_det.value.real:.6f}  (nonnegative)")
