"""How the curvature penalty shapes the fitted weight curves.

Fits the functional-weight model on sine-dependence data (case 3) across
a sweep of penalty strengths and tabulates each fit's total curvature
and held-out quality. Small penalties let beta_1(u) wiggle along the
sine; at the 1e12 extreme the curves are numerically straight lines and
the model collapses to a static stacker with interaction terms.

Usage: python demos/penalty_limits.py
"""

import numpy as np

from dynstack import FitConfig, auc, fit_dynamic, generate_case, select_lambda
from dynstack.stacking import coefficient_curves, default_basis, predict

train = generate_case(3, 2000, 1).to_level1()
test = generate_case(3, 2000, 2).to_level1()
basis = default_basis(train.u)
grid = np.linspace(basis.u_lo, basis.u_hi, 200)

print("\nlambda      curvature(beta_1)   max|2nd diff|   test AUC")
for lam in (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e12):
    model = fit_dynamic(train, lam, basis)
    curves = coefficient_curves(model, grid)
    d2 = np.diff(curves, 2, axis=0)
    curv = float(np.abs(d2[:, 0]).sum())
    score = auc(predict(model, test.z, test.u), test.y)
    print(f"{lam:8.0e}   {curv:17.4f}   {np.abs(d2).max():13.2e}   {score:8.3f}")

lam_star, profile = select_lambda(train, FitConfig(), basis, seed=0)
scores = [s for _, s in profile]
print(f"\n10-fold CV picks lambda = {lam_star:g}")
print("CV profile (lambda -> held-out NLL):")
for (lam, s) in profile[:: max(1, len(profile) // 7)]:
    marker = "  <-- minimum" if s == min(scores) else ""
    print(f"  {lam:10.4g}   {s:10.2f}{marker}")

model = fit_dynamic(train, lam_star, basis)
curves = coefficient_curves(model, grid)
print("\nbeta_1(u) at the CV-chosen lambda vs the generating 3*sin(6u):")
for k in range(0, 200, 25):
    u = grid[k]
    print(f"  u={u:.2f}   fitted {curves[k, 0]:+7.3f}   truth {3 * np.sin(6 * u):+7.3f}")
