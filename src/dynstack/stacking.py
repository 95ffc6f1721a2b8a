"""Level-1 stacking: dataset assembly, dynamic and static generalizers.

The dynamic generalizer is a binary varying-coefficient logistic model:
the logit is ``b0 + sum_j Z_j * beta_j(u)`` where each classifier weight
``beta_j`` is a B-spline expansion over a node covariate ``u``. Fitting
minimizes the negative Bernoulli log-likelihood plus a curvature penalty
``lam * eta' H eta`` (H block-diagonal, intercept unpenalized) by damped
Newton iteration; ``lam`` is picked by cross-validation. Static
baselines share the same data with constant weights and optional ridge
or lasso shrinkage.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .splines import BSplineBasis, assemble_block_penalty, basis_matrix, curvature_penalty, make_basis

__all__ = [
    "Level1Data",
    "FitConfig",
    "DynamicStackModel",
    "StaticStackModel",
    "ConvergenceError",
    "build_level1",
    "fit_dynamic",
    "predict_dynamic",
    "coefficient_curves",
    "select_lambda",
    "fit_static",
    "predict_static",
    "select_strength",
    "write_level1",
    "read_level1",
    "save_model",
    "load_model",
    "sigmoid",
    "STATIC_DESIGNS",
]

STATIC_DESIGNS = ("m1", "m2", "m3")
STATIC_PENALTIES = ("none", "ridge", "lasso")
MAX_NEWTON_ITER = 100
HESSIAN_JITTER = 1e-10


class ConvergenceError(RuntimeError):
    """Optimizer failed to converge."""


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def _neg_loglik(eta: np.ndarray, y: np.ndarray) -> float:
    # log(1 + exp(eta)) - y*eta, stable for large |eta|
    return float((np.logaddexp(0.0, eta) - y * eta).sum())


@dataclass(frozen=True)
class Level1Data:
    """Rows ``(y, Z, u)`` for the level-1 generalizers.

    ``z`` holds, per level-0 classifier, its predicted class probabilities
    with the last class dropped, so the columns are linearly independent
    of the all-ones intercept. ``columns`` records which classifier and
    class each column came from.
    """

    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    columns: list[str]

    def __post_init__(self):
        # check before the cast, which would truncate 0.5 to class 0
        if not np.isin(self.y, (0, 1)).all():
            raise ValueError("y must be binary 0/1")
        y = np.asarray(self.y, dtype=np.int64)
        z = np.atleast_2d(np.asarray(self.z, dtype=float))
        u = np.asarray(self.u, dtype=float)
        if z.shape[0] != len(y) or len(u) != len(y):
            raise ValueError("y, z, u must be aligned")
        if not np.all(np.isfinite(z)):
            row, col = np.argwhere(~np.isfinite(z))[0]
            raise ValueError(
                f"z column {col + 1} holds {z[row, col]} in row {row + 1}; z must be finite"
            )
        if z.min(initial=0.0) < -1e-9 or z.max(initial=0.0) > 1 + 1e-9:
            raise ValueError("z entries must be probabilities in [0, 1]")
        if not np.all(np.isfinite(u)):
            raise ValueError("u must be finite")
        if len(self.columns) != z.shape[1]:
            raise ValueError("one provenance entry per z column required")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", np.clip(z, 0.0, 1.0))
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.z.shape[1]

    def subset(self, idx) -> "Level1Data":
        return Level1Data(self.y[idx], self.z[idx], self.u[idx], self.columns)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for penalized fitting and penalty-strength selection."""

    lambda_grid: np.ndarray = field(
        default_factory=lambda: np.logspace(-4.0, 4.0, 21)
    )
    cv_folds: int = 10
    newton_tol: float = 1e-8

    def __post_init__(self):
        grid = np.sort(np.asarray(self.lambda_grid, dtype=float))
        if grid.size == 0:
            raise ValueError("lambda grid must be nonempty")
        if np.any(grid < 0):
            raise ValueError("lambda grid must be nonnegative")
        if self.cv_folds < 2:
            raise ValueError("cross-validation needs at least 2 folds")
        object.__setattr__(self, "lambda_grid", grid)


# ---------------------------------------------------------------------------
# level-1 dataset assembly


def _cv_fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle cut into contiguous blocks."""
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def build_level1(y, classifiers, u, folds: int = 10, seed: int = 0) -> Level1Data:
    """Assemble held-out level-0 probabilities into level-1 rows.

    Each classifier is an object with ``name``, ``n_classes`` and
    ``heldout_probs(fit_idx, heldout_idx) -> (len(heldout), n_classes)``
    giving predictions for the held-out instances after training without
    them. Instance indices run 0..n-1 in the order of ``y`` and ``u``.
    Every row's Z block is the classifier's prediction from the fold that
    held that row out, minus the last class column.
    """
    y = np.asarray(y, dtype=np.int64)
    u = np.asarray(u, dtype=float)
    n = len(y)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(u) != n:
        raise ValueError("y and u must be aligned")
    fold_idx = _cv_fold_indices(n, folds, seed)

    blocks = []
    columns: list[str] = []
    for clf in classifiers:
        width = clf.n_classes - 1
        out = np.full((n, width), np.nan)
        for j, heldout in enumerate(fold_idx):
            fit_idx = np.setdiff1d(np.arange(n), heldout)
            try:
                probs = clf.heldout_probs(fit_idx, heldout)
            except ValueError as err:
                raise ValueError(
                    f"fold {j + 1} cannot train classifier {clf.name!r} ({err}); "
                    "use larger training folds (a higher fold count) so no "
                    "held-out block swallows a whole class"
                ) from err
            out[heldout] = np.asarray(probs)[:, :width]
        blocks.append(out)
        columns += [f"{clf.name}:class{c}" for c in range(width)]
    z = np.hstack(blocks) if blocks else np.empty((n, 0))
    return Level1Data(y, z, u, columns)


# ---------------------------------------------------------------------------
# shared damped-Newton core


def _solve_spd(a: np.ndarray, g: np.ndarray, jitter: float) -> np.ndarray:
    """Solve ``a x = g`` for symmetric positive (semi)definite ``a``.

    Jacobi-equilibrated Cholesky keeps huge penalty scales solvable; on
    failure the diagonal jitter escalates before falling back to lstsq.
    LAPACK is called directly: the scipy wrappers cost several times the
    factorization at the sizes fitted here.
    """
    d = np.sqrt(np.clip(np.diag(a), 1e-300, None))
    scaled = a / d[:, None] / d[None, :]
    rhs = g / d
    if not (np.isfinite(scaled).all() and np.isfinite(rhs).all()):
        raise ValueError("cannot solve a system holding infs or NaNs")
    bump = jitter
    for _ in range(6):
        c, info = dpotrf(scaled + bump * np.eye(len(g)) if bump else scaled, lower=1, clean=0)
        if info == 0:
            x, info = dpotrs(c, rhs, lower=1)
            if info == 0:
                return x / d
        if info < 0:
            raise ValueError(f"LAPACK rejected argument {-info} of the Cholesky solve")
        bump = max(bump * 100.0, 1e-14)
    x, *_ = np.linalg.lstsq(scaled + bump * np.eye(len(g)), rhs, rcond=None)
    return x / d


def _penalty_eigenbasis(basis: BSplineBasis, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(s, rot)`` with the block curvature penalty equal to ``rot diag(s) rot'``.

    The dynamic model is fitted on the rotated design ``X rot``, where the
    penalty is diagonal. That keeps the Hessian's penalty null space
    (intercept and the linear weight curves) numerically clean even when
    the penalty scale dwarfs the likelihood curvature, e.g. in the
    lambda -> infinity linearization limit. The basis does not depend on
    lambda, so one decomposition serves every fit.
    """
    s, rot = np.linalg.eigh(assemble_block_penalty(curvature_penalty(basis), p))
    # snap the null space to exactly zero so no penalty round-off bleeds in
    return np.where(s > 1e-9 * max(float(s[-1]), 0.0), s, 0.0), rot


def _newton_diag(
    x: np.ndarray,
    y: np.ndarray,
    pen_diag: np.ndarray | None,
    config: FitConfig,
    coef0: np.ndarray | None = None,
):
    """Minimize ``-loglik(X beta) + sum_k pen_diag[k] * beta_k^2`` by damped Newton.

    Returns ``(coef, objective_path, converged)``. Step halving enforces
    a non-increasing objective; convergence is a relative objective
    change below ``config.newton_tol``.
    """
    d = x.shape[1]
    beta = np.zeros(d) if coef0 is None else np.asarray(coef0, dtype=float).copy()

    def objective(b, eta):
        val = _neg_loglik(eta, y)
        if pen_diag is not None:
            val += float(pen_diag @ (b * b))
        return val

    pen2 = None if pen_diag is None else 2.0 * pen_diag
    eta = x @ beta
    f = objective(beta, eta)
    if not np.isfinite(f):
        raise ConvergenceError("non-finite objective at the starting point")
    path = [f]
    converged = False
    for _ in range(MAX_NEWTON_ITER):
        mu = sigmoid(eta)
        grad = -(x.T @ (y - mu))
        w = mu * (1.0 - mu)
        hess = (x * w[:, None]).T @ x
        if pen_diag is not None:
            grad += pen2 * beta
            hess.flat[:: d + 1] += pen2
        step = _solve_spd(hess, -grad, HESSIAN_JITTER)

        t = 1.0
        for _ in range(60):
            cand = beta + t * step
            eta_cand = x @ cand
            f_cand = objective(cand, eta_cand)
            if np.isfinite(f_cand) and f_cand <= f:
                break
            t *= 0.5
        else:
            # no descent left at float precision: already at the optimum
            converged = True
            break
        beta, eta = cand, eta_cand
        path.append(f_cand)
        if abs(f - f_cand) <= config.newton_tol * (1.0 + abs(f)):
            f = f_cand
            converged = True
            break
        f = f_cand
    if not np.isfinite(f):
        raise ConvergenceError("objective diverged to a non-finite value")
    return beta, path, converged


# ---------------------------------------------------------------------------
# one level-1 fit and one cross-validation driver for every generalizer


def _fit(x, y, pen, strength, lasso, config: FitConfig, coef0=None, null_fit=None):
    """Logistic fit with penalty ``strength * sum_k pen[k] * b_k^2``, or
    ``strength * |b|_1`` on the coordinates ``pen`` penalizes when ``lasso``;
    ``pen`` None is plain logistic. ``null_fit`` may pass in
    :func:`_lasso_null_fit` of ``(x, y)``. Returns ``(coef, objective_path, converged)``."""
    if lasso and strength > 0:
        return _lasso_logistic(x, y, strength, coef0, null_fit)
    pen_diag = strength * pen if pen is not None and strength > 0 else None
    return _newton_diag(x, y, pen_diag, config, coef0)


def _fit_checked(x, y, pen, strength, lasso, config: FitConfig):
    """:func:`_fit` for a final model. Without an effective penalty (strength 0,
    or ``pen`` None or all zero as for a degree <= 1 basis) separable classes
    send the coefficients to infinity, so such a fit raises instead."""
    coef, path, converged = _fit(x, y, pen, strength, lasso, config)
    unpenalized = strength == 0 or pen is None or not pen.any()
    if unpenalized and (not converged or np.abs(coef).max() > 1e2):
        raise ConvergenceError(
            "the unpenalized fit diverged; the classes may be separable -- "
            "use ridge, or a curvature penalty for the dynamic model"
        )
    if not converged:
        warnings.warn("Newton reached the iteration cap before converging", stacklevel=3)
    return coef, path, converged


def _assert_valid_folds(y: np.ndarray, fold_idx: list[np.ndarray]) -> None:
    n = len(y)
    for j, heldout in enumerate(fold_idx):
        if len(heldout) == 0 or len(heldout) == n:
            raise ValueError(f"degenerate folds: fold {j + 1} is empty or everything")
        train_y = np.delete(y, heldout)
        if len(np.unique(train_y)) < 2:
            raise ValueError(
                f"degenerate folds: fold {j + 1} leaves a single-class training set"
            )


def _cv_profile(x, y, pen, lasso, config: FitConfig, seed: int):
    """The cross-validation of :func:`select_lambda` and :func:`select_strength`;
    each fold walks the grid warm-starting :func:`_fit` from the last coefficients."""
    fold_idx = _cv_fold_indices(len(y), config.cv_folds, seed)
    _assert_valid_folds(y, fold_idx)
    scores = np.zeros(len(config.lambda_grid))
    all_rows = np.arange(len(y))
    for heldout in fold_idx:
        fit_rows = np.setdiff1d(all_rows, heldout)
        x_fit, y_fit, x_out, y_out = x[fit_rows], y[fit_rows], x[heldout], y[heldout]
        null_fit = _lasso_null_fit(x_fit, y_fit) if lasso else None
        coef = None
        for gi, s in enumerate(config.lambda_grid):
            coef, _, _ = _fit(x_fit, y_fit, pen, s, lasso, config, coef, null_fit)
            scores[gi] += _neg_loglik(x_out @ coef, y_out)

    best = 0
    for gi in range(len(scores)):
        if scores[gi] <= scores[best]:
            best = gi
    report = list(zip(config.lambda_grid.tolist(), scores.tolist()))
    return float(config.lambda_grid[best]), report


# ---------------------------------------------------------------------------
# dynamic (varying-coefficient) generalizer


@dataclass
class DynamicStackModel:
    """Fitted functional-weight stacking model.

    ``coef`` holds the intercept followed by ``p * K`` spline
    coefficients (classifier-major). Prediction clamps the covariate into
    the basis domain, so weight curves stay bounded off the training
    range.
    """

    coef: np.ndarray
    basis: BSplineBasis
    lam: float
    p: int
    columns: list[str]
    converged: bool = True
    objective_path: list[float] = field(default_factory=list, repr=False, compare=False)


def dynamic_design(z: np.ndarray, u: np.ndarray, basis: BSplineBasis) -> np.ndarray:
    """Rows ``(1, Z_1 * B(u), ..., Z_p * B(u))`` of width ``1 + p*K``."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    b = basis_matrix(basis, u)
    n, p = z.shape
    cross = (z[:, :, None] * b[:, None, :]).reshape(n, p * basis.size)
    return np.hstack([np.ones((n, 1)), cross])


def default_basis(u: np.ndarray, interior_knots: int = 6, degree: int = 3) -> BSplineBasis:
    """Cubic basis with uniform interior knots over the training u range."""
    u = np.asarray(u, dtype=float)
    lo, hi = float(u.min()), float(u.max())
    if lo == hi:
        # degenerate covariate: widen so the basis has a real domain
        lo, hi = lo - 0.5, hi + 0.5
    return make_basis(lo, hi, interior_knots, degree)


def fit_dynamic(
    data: Level1Data,
    lam: float,
    basis: BSplineBasis,
    config: FitConfig = FitConfig(),
) -> DynamicStackModel:
    """Fit the varying-coefficient model at a fixed penalty strength."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    width = 1 + data.p * basis.size
    if data.n < width:
        warnings.warn(
            f"{data.n} observations for {width} coefficients; "
            "expect an unstable fit",
            stacklevel=2,
        )
    if lam > 0:
        pen, rot = _penalty_eigenbasis(basis, data.p)
        gamma, path, converged = _fit_checked(
            dynamic_design(data.z, data.u, basis) @ rot, data.y, pen, lam, False, config
        )
        coef = rot @ gamma
    else:
        x = dynamic_design(data.z, data.u, basis)
        coef, path, converged = _fit_checked(x, data.y, None, 0.0, False, config)
    return DynamicStackModel(
        coef=coef,
        basis=basis,
        lam=float(lam),
        p=data.p,
        columns=list(data.columns),
        converged=converged,
        objective_path=path,
    )


def _checked_z(model: DynamicStackModel | StaticStackModel, z, u) -> np.ndarray:
    """``z`` as a float matrix, checked against the model's width and ``u``'s length."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[1] != model.p:
        raise ValueError(f"expected {model.p} z columns, got {z.shape[1]}")
    rows = np.atleast_1d(np.asarray(u)).shape[0]
    if z.shape[0] != rows:
        raise ValueError(f"z has {z.shape[0]} rows, u has {rows}")
    return z


def predict_dynamic(model: DynamicStackModel, z, u) -> np.ndarray:
    """Positive-class probability for rows ``(Z, u)``."""
    z = _checked_z(model, z, u)
    x = dynamic_design(z, u, model.basis)
    return sigmoid(x @ model.coef)


def coefficient_curves(model: DynamicStackModel, u_grid) -> np.ndarray:
    """Evaluate every weight curve ``beta_j`` on ``u_grid``; (n, p)."""
    b = basis_matrix(model.basis, u_grid)
    eta = model.coef[1:].reshape(model.p, model.basis.size)
    return b @ eta.T


def select_lambda(
    data: Level1Data,
    config: FitConfig = FitConfig(),
    basis: BSplineBasis | None = None,
    seed: int = 0,
):
    """Pick the penalty strength by J-fold cross-validation.

    Scores each grid value by the total held-out negative log-likelihood
    over shared folds; ties go to the larger (smoother) lambda. Returns
    ``(lam_star, report)`` with the full ``(lam, score)`` profile.
    """
    if basis is None:
        basis = default_basis(data.u)
    pen, rot = _penalty_eigenbasis(basis, data.p)
    # held-out scores need only X beta, so the fits stay in the rotated basis
    x = dynamic_design(data.z, data.u, basis) @ rot
    return _cv_profile(x, data.y, pen, False, config, seed)


# ---------------------------------------------------------------------------
# static generalizers


@dataclass
class StaticStackModel:
    """Constant-weight stacking model on one of the three designs.

    m1 uses (1, Z); m2 adds the covariate; m3 adds the covariate and its
    interactions with every Z column.
    """

    design: str
    penalty: str
    strength: float
    coef: np.ndarray
    p: int
    columns: list[str]
    converged: bool = True
    objective_path: list[float] = field(default_factory=list, repr=False, compare=False)


def static_design(z: np.ndarray, u: np.ndarray, design: str) -> np.ndarray:
    z = np.atleast_2d(np.asarray(z, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n = z.shape[0]
    ones = np.ones((n, 1))
    if design == "m1":
        return np.hstack([ones, z])
    if design == "m2":
        return np.hstack([ones, z, u[:, None]])
    if design == "m3":
        return np.hstack([ones, z, u[:, None], z * u[:, None]])
    raise ValueError(f"unknown design {design!r}; expected one of {STATIC_DESIGNS}")


def _lasso_working_solve(gram, c, strength, b0):
    """Exact ``argmin_b b'Gb/2 - c'b + strength * |b[1:]|_1``, intercept free.

    Feature-sign search from ``b0``: solve on the signed active set, stop at
    the first sign change (that coefficient leaves the set), or add the worst
    KKT violator once the set is optimal; the step cap only stops round-off cycles.
    """
    b = np.asarray(b0, dtype=float).copy()
    sign = np.concatenate(([0.0], np.sign(b[1:])))
    for _ in range(100 * len(c)):
        idx = np.concatenate(([0], np.flatnonzero(sign)))
        sol = _solve_spd(gram[idx[:, None], idx], c[idx] - strength * sign[idx], 0.0)
        flip = np.flatnonzero(sol * sign[idx] < 0.0)
        if flip.size:
            t = b[idx[flip]] / (b[idx[flip]] - sol[flip])
            k = np.argmin(t)
            b[idx] += t[k] * (sol - b[idx])
            b[idx[flip[k]]] = sign[idx[flip[k]]] = 0.0
            continue
        b[idx] = sol
        grad = gram @ b - c
        viol = np.abs(grad) * (sign == 0.0)
        j = 1 + int(np.argmax(viol[1:]))
        if viol[j] <= strength:
            break
        sign[j] = -np.sign(grad[j])
    return b


def _lasso_null_fit(x, y):
    """``(intercept_only, critical)``: the intercept-only fit, and the strength
    at and above which it is the lasso optimum (it depends on no strength)."""
    ybar = min(max(y.mean(), 1e-12), 1 - 1e-12)
    intercept_only = np.r_[np.log(ybar / (1 - ybar)), np.zeros(x.shape[1] - 1)]
    mu0 = sigmoid(x @ intercept_only)
    return intercept_only, np.abs(x[:, 1:].T @ (y - mu0)).max(initial=0.0)


def _lasso_logistic(x, y, strength, coef0=None, null_fit=None):
    """L1-penalized logistic fit (intercept free).

    Proximal Newton: each outer step solves the weighted least-squares
    working problem with the L1 term exactly, backtracks along the resulting
    direction until the true objective does not increase, and stops when
    the exact subgradient optimality conditions hold.
    """
    intercept_only, critical = _lasso_null_fit(x, y) if null_fit is None else null_fit
    kkt_tol = 1e-8

    def objective(b):
        return _neg_loglik(x @ b, y) + strength * np.abs(b[1:]).sum()

    if critical <= strength + kkt_tol:
        return intercept_only, [objective(intercept_only)], True

    beta = intercept_only if coef0 is None else np.asarray(coef0, dtype=float).copy()
    path = [objective(beta)]
    converged = False
    for _ in range(MAX_NEWTON_ITER):
        eta = x @ beta
        mu = sigmoid(eta)
        grad = -(x.T @ (y - mu))
        active = beta[1:] != 0.0
        stat = np.abs(grad[1:] + strength * np.sign(beta[1:]))
        if (
            abs(grad[0]) <= kkt_tol
            and np.all(stat[active] <= kkt_tol)
            and np.all(np.abs(grad[1:][~active]) <= strength + kkt_tol)
        ):
            converged = True
            break

        # working least-squares problem, solved exactly on its d x d Gram matrix
        w = np.clip(mu * (1.0 - mu), 1e-8, None)
        gram = (x * w[:, None]).T @ x
        target = gram @ beta + (x.T @ (y - mu))  # X'W z_work
        direction = _lasso_working_solve(gram, target, strength, beta) - beta

        # damp the proximal step if the true objective would rise
        t = 1.0
        f_prev = path[-1]
        for _ in range(60):
            cand = beta + t * direction
            f_cand = objective(cand)
            if np.isfinite(f_cand) and f_cand <= f_prev + 1e-12 * (1 + abs(f_prev)):
                break
            t *= 0.5
        else:
            cand = beta + t * direction
            f_cand = objective(cand)
        beta = cand
        path.append(f_cand)
    return beta, path, converged


def fit_static(
    data: Level1Data,
    design: str = "m1",
    penalty: str = "none",
    strength: float | None = None,
    config: FitConfig = FitConfig(),
    cv_seed: int = 0,
) -> StaticStackModel:
    """Fit a constant-weight generalizer.

    ``penalty`` is "none" (plain logistic MLE), "ridge", or "lasso"; the
    intercept is never penalized. Leaving ``strength`` unset with a
    penalty selects it by cross-validation over ``config.lambda_grid``.
    """
    x = static_design(data.z, data.u, design)
    pen = _static_penalty(x.shape[1], penalty)
    if penalty == "none":
        strength = 0.0
    elif strength is None:
        strength, _ = select_strength(data, design, penalty, config, cv_seed)
    elif strength < 0:
        raise ValueError("penalty strength must be >= 0")

    coef, path, converged = _fit_checked(x, data.y, pen, strength, penalty == "lasso", config)
    return StaticStackModel(
        design=design,
        penalty=penalty,
        strength=float(strength),
        coef=coef,
        p=data.p,
        columns=list(data.columns),
        converged=converged,
        objective_path=path,
    )


def _static_penalty(width: int, penalty: str) -> np.ndarray | None:
    """Per-coefficient weights: ridge and lasso act on all but the intercept."""
    if penalty not in STATIC_PENALTIES:
        raise ValueError(f"unknown penalty {penalty!r}; expected one of {STATIC_PENALTIES}")
    return None if penalty == "none" else np.r_[0.0, np.ones(width - 1)]


def select_strength(
    data: Level1Data,
    design: str,
    penalty: str,
    config: FitConfig = FitConfig(),
    seed: int = 0,
):
    """Cross-validated penalty strength for a static design; mirrors
    :func:`select_lambda` (shared folds, held-out likelihood, ties to the
    larger value)."""
    x = static_design(data.z, data.u, design)
    pen = _static_penalty(x.shape[1], penalty)
    return _cv_profile(x, data.y, pen, penalty == "lasso", config, seed)


def predict_static(model: StaticStackModel, z, u) -> np.ndarray:
    """Positive-class probability under the model's design expansion."""
    z = _checked_z(model, z, u)
    x = static_design(z, u, model.design)
    if x.shape[1] != len(model.coef):
        raise ValueError(
            f"design {model.design!r} produces {x.shape[1]} columns but the "
            f"model has {len(model.coef)} coefficients"
        )
    return sigmoid(x @ model.coef)


# ---------------------------------------------------------------------------
# file formats


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_level1(path, data: Level1Data) -> None:
    """Write ``y,z_1..z_p,u`` CSV plus a ``.provenance.txt`` sidecar."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y"] + [f"z_{j + 1}" for j in range(data.p)] + ["u"])
        for i in range(data.n):
            w.writerow(
                [int(data.y[i])] + [_fmt(v) for v in data.z[i]] + [_fmt(data.u[i])]
            )
    with open(path.with_name(path.name + ".provenance.txt"), "w") as fh:
        for j, name in enumerate(data.columns):
            fh.write(f"z_{j + 1} = {name}\n")


def _bad_level1_line(path, width: int, has_y: bool) -> str:
    """Name the first data line that does not hold ``width`` finite numbers
    or, when ``has_y``, whose first field is not exactly 0 or 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rec in filter(None, reader):
            where = f"{path} line {reader.line_num}"
            if len(rec) != width:
                return f"{where}: expected {width} fields, got {len(rec)}"
            try:
                row = np.asarray(rec, dtype=float)
            except ValueError as err:
                return f"{where}: {err}"
            if not np.isfinite(row).all():
                return f"{where}: non-finite value in {rec}"
            if has_y and row[0] not in (0.0, 1.0):
                return f"{where}: y must be 0 or 1, got {rec[0]!r}"
    return f"{path}: no data rows"


def read_level1(path, require_y: bool = True) -> Level1Data:
    """Read a level-1 CSV; picks up the provenance sidecar when present.

    A malformed row raises a ``ValueError`` naming the file and line.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [""])
        if header[-1] != "u" or (require_y and header[0] != "y"):
            raise ValueError(f"{path}: unexpected level-1 header {header!r}")
        rows = [rec for rec in reader if rec]
    has_y = header[0] == "y"
    zcols = len(header) - 1 - int(has_y)
    try:
        body = np.asarray(rows, dtype=float)
        ok = body.ndim == 2 and body.shape[1] == len(header) and np.isfinite(body).all()
        ok = ok and (not has_y or np.isin(body[:, 0], (0.0, 1.0)).all())
    except ValueError:
        ok = False
    if not ok:  # only a bad file pays for the line-by-line search
        raise ValueError(_bad_level1_line(path, len(header), has_y))
    y = body[:, 0].astype(np.int64) if has_y else np.zeros(len(body), dtype=np.int64)
    z = body[:, int(has_y) : int(has_y) + zcols]
    u = body[:, -1]
    columns = [f"z_{j + 1}" for j in range(zcols)]
    sidecar = path.with_name(path.name + ".provenance.txt")
    if sidecar.exists():
        names = []
        for line in sidecar.read_text().splitlines():
            if "=" in line:
                names.append(line.split("=", 1)[1].strip())
        if len(names) == zcols:
            columns = names
    return Level1Data(y, z, u, columns)


def save_model(path, model: DynamicStackModel | StaticStackModel) -> None:
    """Serialize a fitted model to a self-describing text file.

    Reals are written with 17 significant digits so loading reproduces
    the coefficients bit for bit.
    """
    lines = ["dynstack-model 1"]
    if isinstance(model, DynamicStackModel):
        lines += [
            "kind = dynamic",
            f"p = {model.p}",
            f"lambda = {_fmt(model.lam)}",
            f"degree = {model.basis.degree}",
            f"u_lo = {_fmt(model.basis.u_lo)}",
            f"u_hi = {_fmt(model.basis.u_hi)}",
            "knots = " + " ".join(_fmt(v) for v in model.basis.knots),
        ]
    elif isinstance(model, StaticStackModel):
        lines += [
            "kind = static",
            f"p = {model.p}",
            f"design = {model.design}",
            f"penalty = {model.penalty}",
            f"strength = {_fmt(model.strength)}",
        ]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    for name in model.columns:
        lines.append(f"column = {name}")
    lines.append("coef = " + " ".join(_fmt(v) for v in model.coef))
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path) -> DynamicStackModel | StaticStackModel:
    """Read a file written by :func:`save_model`; errors name the file."""
    try:
        return _parse_model(Path(path).read_text().splitlines())
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def _parse_model(text: list[str]) -> DynamicStackModel | StaticStackModel:
    if not text or text[0].strip() != "dynstack-model 1":
        raise ValueError("not a dynstack model file")
    fields: dict[str, str] = {}
    columns: list[str] = []
    for line in text[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "column":
            columns.append(value)
        else:
            fields[key] = value

    def get(key: str) -> str:
        if key not in fields:
            raise ValueError(f"model file has no {key!r} line")
        return fields[key]

    kind = get("kind")
    coef = np.array([float(v) for v in get("coef").split()])
    p = int(get("p"))
    if kind == "dynamic":
        basis = BSplineBasis(
            degree=int(get("degree")),
            knots=np.array([float(v) for v in get("knots").split()]),
            u_lo=float(get("u_lo")),
            u_hi=float(get("u_hi")),
        )
        model = DynamicStackModel(
            coef=coef, basis=basis, lam=float(get("lambda")), p=p, columns=columns
        )
        width = 1 + p * basis.size
    elif kind == "static":
        model = StaticStackModel(
            design=get("design"),
            penalty=get("penalty"),
            strength=float(get("strength")),
            coef=coef,
            p=p,
            columns=columns,
        )
        width = static_design(np.zeros((1, p)), np.zeros(1), model.design).shape[1]
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    if len(coef) != width:
        raise ValueError(
            f"'coef' has {len(coef)} values; a {kind} model with "
            f"p = {p} needs {width}"
        )
    return model
