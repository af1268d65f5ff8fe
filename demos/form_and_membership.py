"""
The standard form and membership residuals
==========================================

Builds the skew form J, checks its algebraic identities, and shows how the
residual-based membership test separates symplectic matrices from near misses.
"""

import numpy as np

import sympdet as sd

# the 2N x 2N form [[0, I], [-I, 0]] and its exact identities
for n in range(1, 5):
    j = sd.symplectic_form(n)
    print(f"N={n}:  ||J^2 + I|| = {sd.frobenius(j @ j + np.eye(2 * n))}"
          f"   ||J^T + J|| = {sd.frobenius(j.T + j)}"
          f"   det(J) = {sd.log_det(j).value.real}")

# membership is one scaled residual, ||A^T J A - J||_F / (||J||_F ||A||_F^2),
# compared against a ToleranceConfig bound
real = sd.GroupKind.REAL_SYMPLECTIC
tol = sd.DEFAULT_TOLERANCES.membership
j = sd.symplectic_form(2)
print("\nresidual(J)       =", sd.membership_residual(j, real))
print("residual(diag(2)) =", sd.membership_residual(np.diag([2.0, 2.0, 2.0, 2.0]), real))

a = sd.generate(sd.GeneratorConfig(half_dim=2, seed=5))
print("residual(generated member) =", sd.membership_residual(a, real))
print("passes:", sd.membership_residual(a, real) <= tol)

# perturb one entry: the residual jumps by ~the perturbation size
b = a.copy()
b[0, 0] += 1e-4
print("residual(perturbed)        =", sd.membership_residual(b, real))
print("passes:", sd.membership_residual(b, real) <= tol)
