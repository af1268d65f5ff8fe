"""
Sampling structured matrix groups from elementary factors
=========================================================

Group members are built as products of factors whose membership is exact in
closed form: symmetric/Hermitian shears, block diagonals [[P, 0], [0, P^{-T}]],
the form J, and scalar phases (conjugate group only).  Products stay in the
group up to rounding, every factor's condition number is clamped, and the
whole draw is reproducible from one seed.
"""

import math

import sympdet as sd
from sympdet.linalg import log_det, rng_from_seed, split_seed

cfg = sd.GeneratorConfig(half_dim=4, seed=2026)
print("config:", cfg, "\n")

# each elementary factor passes its residual on its own
rng = rng_from_seed(cfg.seed)
for name in ("shear_lower", "shear_upper", "diag_block", "form"):
    f = sd.elementary_factor(name, cfg, rng)
    r = sd.membership_residual(f, cfg.target)
    print(f"factor {name:12s} scaled residual = {r:.2e}, det = {log_det(f).value.real:+.12f}")

# determinism: the same seed reproduces the matrix byte for byte
a = sd.generate(cfg)
b = sd.generate(cfg)
print("\nsame-seed draws byte-identical:", sd.format_matrix(a) == sd.format_matrix(b))

# determinants of symplectic products are 1; conjugate products stay on the
# unit circle but wander around it
print("\nreal target, 6 seeds: |det - 1| =",
      ["%.1e" % abs(log_det(sd.generate(
          sd.GeneratorConfig(half_dim=4, seed=split_seed(1, t)))).value - 1.0)
       for t in range(6)])

phases = []
for t in range(6):
    c = sd.generate(sd.GeneratorConfig(half_dim=4, seed=split_seed(2, t),
                                       target=sd.GroupKind.CONJUGATE_SYMPLECTIC))
    phases.append(math.atan2(log_det(c).phase.imag, log_det(c).phase.real))
print("conjugate target, det phases (radians):",
      ["%+.3f" % p for p in phases])

# long products at larger sizes stay in the group
big = sd.GeneratorConfig(half_dim=16, num_factors=40, seed=7)
a = sd.generate(big)
print(f"\nN=16, 40 factors: scaled residual = "
      f"{sd.membership_residual(a, big.target):.2e}, "
      f"|det - 1| = {abs(log_det(a).value - 1.0):.2e}")
