"""Level-1 stacking: dataset assembly and one model for every generalizer.

The dynamic generalizer is a binary varying-coefficient logistic model:
the logit is ``b0 + sum_j Z_j * beta_j(u)`` where each classifier weight
``beta_j`` is a B-spline expansion over a node covariate ``u``. Fitting
minimizes the negative Bernoulli log-likelihood plus a curvature penalty
``lam * eta' H eta`` (H block-diagonal, intercept unpenalized) by damped
Newton iteration; ``lam`` is picked by cross-validation. The static
baselines are the same model with constant (m1, m2) or straight-line
(m3) weights and optional ridge or lasso shrinkage: every generalizer is
one :class:`StackModel` on one :func:`design_matrix`.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .splines import (
    BSplineBasis,
    assemble_block_penalty,
    basis_matrix,
    curvature_penalty,
    knot_spans,
    make_basis,
)

__all__ = [
    "Level1Data",
    "FitConfig",
    "StackModel",
    "ConvergenceError",
    "build_level1",
    "design_matrix",
    "fit_dynamic",
    "predict",
    "coefficient_curves",
    "default_basis",
    "select_lambda",
    "fit_static",
    "select_strength",
    "write_level1",
    "read_level1",
    "save_model",
    "load_model",
    "sigmoid",
    "STATIC_DESIGNS",
]

STATIC_DESIGNS = ("m1", "m2", "m3")
DESIGNS = (*STATIC_DESIGNS, "dynamic")
MAX_NEWTON_ITER = 100
HESSIAN_JITTER = 1e-10
LASSO_KKT_TOL = 1e-8  # a lasso fit stops when its optimality conditions hold to this
SPAN_HESSIAN_ROWS = 1500  # the rows from which a dynamic fit on knot-span blocks beats a dense one
LAMBDA_GRID = np.logspace(-4.0, 4.0, 21)  # the penalty strengths every cross-validation scores
DEFAULT_KNOTS, DEFAULT_DEGREE = 6, 3  # default_basis: six uniform interior knots, cubic


class ConvergenceError(RuntimeError):
    """Optimizer failed to converge."""


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def _neg_loglik(eta: np.ndarray, y: np.ndarray) -> float:
    # log(1 + exp(eta)) - y*eta by np.logaddexp(0, eta)'s closed form, on numpy's
    # vectorised exp and log1p instead of logaddexp's element-by-element scalar loop
    t = np.exp(-np.abs(eta))
    np.log1p(t, out=t)
    return float((np.maximum(eta, 0.0) + t - y * eta).sum())


def _probabilities(z: np.ndarray) -> bool:
    """Whether every entry of ``z`` lies in [0, 1], up to a 1e-9 round-off."""
    return z.min(initial=0.0) >= -1e-9 and z.max(initial=0.0) <= 1 + 1e-9


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
        if z.shape[1] < 1:
            raise ValueError("z has no columns; level-1 data needs p >= 1")
        if not np.all(np.isfinite(z)):
            row, col = np.argwhere(~np.isfinite(z))[0]
            raise ValueError(
                f"z column {col + 1} holds {z[row, col]} in row {row + 1}; z must be finite"
            )
        if not _probabilities(z):
            raise ValueError("z entries must be probabilities in [0, 1]")
        if not np.all(np.isfinite(u)):
            raise ValueError("u must be finite")
        if len(self.columns) != z.shape[1]:
            raise ValueError("one provenance entry per z column required")
        for name in self.columns:  # the sidecar and the model file store stripped lines
            if name != name.strip() or len(name.splitlines()) != 1:
                raise ValueError(f"provenance name {name!r} is not one line without outer spaces")
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

    cv_folds: int = 10
    newton_tol: float = 1e-8

    def __post_init__(self):
        check_folds(self.cv_folds)


def check_folds(folds: int) -> None:
    """The fold check of every cross-validation, level 0 and level 1."""
    if folds < 2:
        raise ValueError("cross-validation needs at least 2 folds")


# ---------------------------------------------------------------------------
# level-1 dataset assembly


def _cv_fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle cut into contiguous blocks."""
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def build_level1(y, predictors, u, folds: int = 10, seed: int = 0) -> Level1Data:
    """Assemble held-out level-0 probabilities into level-1 rows.

    ``predictors`` maps each level-0 classifier's name to a function
    ``predict(fit_idx, heldout_idx)`` that trains on the ``fit_idx``
    instances and returns class probabilities for the ``heldout_idx``
    ones, one row per instance and one column per class. Instance indices
    run 0..n-1 in the order of ``y`` and ``u``. Every row's Z block is
    the classifier's prediction from the fold that held that row out,
    minus the last class column. Every fold must return the first fold's
    number of classes.
    """
    y = np.asarray(y, dtype=np.int64)
    u = np.asarray(u, dtype=float)
    n = len(y)
    check_folds(folds)
    if len(u) != n:
        raise ValueError("y and u must be aligned")
    fold_idx = _cv_fold_indices(n, folds, seed)

    blocks = []
    columns: list[str] = []
    for name, fn in predictors.items():
        for j, heldout in enumerate(fold_idx):
            fit_idx = np.setdiff1d(np.arange(n), heldout)
            try:
                probs = np.asarray(fn(fit_idx, heldout))
            except ValueError as err:
                raise ValueError(
                    f"fold {j + 1} cannot train classifier {name!r} ({err}); "
                    "use larger training folds (a higher fold count) so no "
                    "held-out block swallows a whole class"
                ) from err
            if j == 0:  # the first fold sets the class count
                out = np.full((n, probs.shape[-1] - 1), np.nan)
            if probs.shape != (len(heldout), out.shape[1] + 1):
                raise ValueError(
                    f"classifier {name!r} returned probabilities of shape {probs.shape} "
                    f"in fold {j + 1}; expected ({len(heldout)}, {out.shape[1] + 1})"
                )
            out[heldout] = probs[:, :-1]
        blocks.append(out)
        columns += [f"{name}:class{c}" for c in range(out.shape[1])]
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
    d = np.sqrt(np.maximum(a.diagonal(), 1e-300))
    scaled = a / d[:, None] / d[None, :]
    rhs = g / d
    if not (np.isfinite(scaled).all() and np.isfinite(rhs).all()):
        raise ValueError("cannot solve a system holding infs or NaNs")
    diag = scaled.diagonal().copy()
    bump = jitter
    for _ in range(6):
        if bump:
            np.fill_diagonal(scaled, diag + bump)  # scaled is a private copy
        c, info = dpotrf(scaled, lower=1, clean=0)
        if info == 0:
            x, info = dpotrs(c, rhs, lower=1)
            if info == 0:
                return x / d
        if info < 0:
            raise ValueError(f"LAPACK rejected argument {-info} of the Cholesky solve")
        bump = max(bump * 100.0, 1e-14)
    np.fill_diagonal(scaled, diag + bump)
    x, *_ = np.linalg.lstsq(scaled, rhs, rcond=None)
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
    carry: dict | None = None,
):
    """Minimize ``-loglik(X beta) + sum_k pen_diag[k] * beta_k^2`` by damped Newton.

    Returns ``(coef, objective_path, converged)``. Step halving enforces
    a non-increasing objective; convergence is a relative objective
    change below ``config.newton_tol``. A step needs only ``x @ b``,
    ``x.T @ r`` and ``X' diag(w) X``, so ``x`` is an ndarray or a
    :class:`_SpanDesign`, which answers the three span by span.

    ``carry`` passes state from one fit to the next along a penalty grid.
    On entry it may hold ``eta`` (``x @ coef0``) with its negative
    log-likelihood ``nll``, and ``hess``, a likelihood Hessian ``X'WX`` of
    ``x`` at a nearby point, which the first step uses in place of a fresh
    one; any positive definite matrix keeps that step a descent direction,
    and the line search still guards it. On return it holds the same three
    for the returned coefficients, ``hess`` being the last one used.
    """
    d, gram = x.shape[1], getattr(x, "gram", None)
    beta = np.zeros(d) if coef0 is None else np.asarray(coef0, dtype=float).copy()
    carry = {} if carry is None else carry

    def penalty(b):
        return 0.0 if pen_diag is None else float(pen_diag @ (b * b))

    pen2 = None if pen_diag is None else 2.0 * pen_diag
    if "eta" in carry:  # popped, so the old vector is freed once the fit moves on
        eta, nll = carry.pop("eta"), carry.pop("nll")
    else:
        eta = x @ beta
        nll = _neg_loglik(eta, y)
    f = nll + penalty(beta)
    if not np.isfinite(f):
        raise ConvergenceError("non-finite objective at the starting point")
    path = [f]
    converged = False
    lik_hess = carry.get("hess")
    for _ in range(MAX_NEWTON_ITER):
        mu = sigmoid(eta)
        grad = x.T @ (mu - y)
        if lik_hess is None:
            w = mu * (1.0 - mu)
            lik_hess = (x * w[:, None]).T @ x if gram is None else gram(w)
        hess = lik_hess
        if pen_diag is not None:
            grad += pen2 * beta
            hess = lik_hess.copy()
            hess.flat[:: d + 1] += pen2
        step = _solve_spd(hess, -grad, HESSIAN_JITTER)
        carry["hess"], lik_hess = lik_hess, None

        t = 1.0
        for _ in range(60):
            cand = beta + t * step
            eta_cand = x @ cand
            nll_cand = _neg_loglik(eta_cand, y)
            f_cand = nll_cand + penalty(cand)
            if math.isfinite(f_cand) and f_cand <= f:
                break
            t *= 0.5
        else:
            # no descent left at float precision: already at the optimum
            converged = True
            break
        beta, eta, nll = cand, eta_cand, nll_cand
        path.append(f_cand)
        if abs(f - f_cand) <= config.newton_tol * (1.0 + abs(f)):
            f = f_cand
            converged = True
            break
        f = f_cand
    if not np.isfinite(f):
        raise ConvergenceError("objective diverged to a non-finite value")
    carry["eta"], carry["nll"] = eta, nll
    return beta, path, converged


# ---------------------------------------------------------------------------
# lasso core


def _lasso_working_solve(gram, c, strength, b0):
    """Exact ``argmin_b b'Gb/2 - c'b + strength * |b[1:]|_1``, intercept free.

    Feature-sign search from ``b0``: solve on the signed active set, stop at
    the first sign change (that coefficient leaves the set), or add the worst
    KKT violator once the set is optimal; the step cap only stops round-off cycles.
    """
    b = np.asarray(b0, dtype=float).copy()
    sign = np.concatenate(([0.0], np.sign(b[1:])))
    act = sign != 0.0  # the signed active set, plus the intercept
    act[0] = True
    for _ in range(100 * len(c)):
        s, ba = sign[act], b[act]
        sol = _solve_spd(gram[act][:, act], c[act] - strength * s, 0.0)
        flip = np.flatnonzero(sol * s < 0.0)
        if flip.size:
            t = ba[flip] / (ba[flip] - sol[flip])
            k = np.argmin(t)
            b[act] = ba + t[k] * (sol - ba)
            j = np.flatnonzero(act)[flip[k]]
            b[j] = sign[j] = 0.0
            act[j] = False
            continue
        b[act] = sol
        grad = gram @ b - c
        viol = np.abs(grad) * ~act
        j = 1 + int(np.argmax(viol[1:]))
        if viol[j] <= strength:
            break
        sign[j] = -np.sign(grad[j])
        act[j] = True
    return b


def _lasso_null_fit(x, y):
    """``(intercept_only, critical)``: the intercept-only fit, and the strength
    at and above which it is the lasso optimum (it depends on no strength)."""
    ybar = min(max(y.mean(), 1e-12), 1 - 1e-12)
    intercept_only = np.r_[np.log(ybar / (1 - ybar)), np.zeros(x.shape[1] - 1)]
    mu0 = sigmoid(x @ intercept_only)
    return intercept_only, np.abs(x[:, 1:].T @ (y - mu0)).max(initial=0.0)


def _lasso_logistic(x, y, strength, coef0=None, null_fit=None, carry=None):
    """L1-penalized logistic fit (intercept free).

    Proximal Newton: each outer step solves the weighted least-squares
    working problem with the L1 term exactly, backtracks along the resulting
    direction until the true objective does not increase, and stops when
    the exact subgradient optimality conditions hold.

    ``carry`` passes state along a strength grid as in :func:`_newton_diag`:
    on entry it may hold ``eta`` (``x @ coef0``) and ``nll`` there, as the
    Newton core leaves them, and also ``mu`` and the likelihood gradient
    ``grad``. A fit that converges leaves all four for the returned
    coefficients, any other fit leaves it empty. At and above the critical
    strength the fit is the intercept-only one, whatever ``coef0``.
    """
    intercept_only, critical = _lasso_null_fit(x, y) if null_fit is None else null_fit
    carry = {} if carry is None else carry
    eta, mu, grad, nll = (carry.pop(k, None) for k in ("eta", "mu", "grad", "nll"))
    carry.clear()  # a Newton fit at strength 0 also leaves its Hessian
    if critical <= strength + LASSO_KKT_TOL:
        return intercept_only, [_neg_loglik(x @ intercept_only, y)], True

    beta = intercept_only if coef0 is None else np.asarray(coef0, dtype=float).copy()
    eta = x @ beta if eta is None else eta
    nll = _neg_loglik(eta, y) if nll is None else nll
    path = [nll + strength * np.abs(beta[1:]).sum()]
    converged = False
    for _ in range(MAX_NEWTON_ITER):
        if mu is None:
            mu = sigmoid(eta)
            grad = x.T @ (mu - y)
        active = beta[1:] != 0.0
        stat = np.abs(grad[1:] + strength * np.sign(beta[1:]))
        if (
            abs(grad[0]) <= LASSO_KKT_TOL
            and (stat[active] <= LASSO_KKT_TOL).all()
            and (np.abs(grad[1:][~active]) <= strength + LASSO_KKT_TOL).all()
        ):
            carry.update(eta=eta, mu=mu, grad=grad, nll=nll)
            converged = True
            break

        # working least-squares problem, solved exactly on its d x d Gram matrix
        w = np.maximum(mu * (1.0 - mu), 1e-8)
        gram = (x * w[:, None]).T @ x
        target = gram @ beta - grad  # X'W z_work
        direction = _lasso_working_solve(gram, target, strength, beta) - beta

        # damp the proximal step if the true objective would rise
        t = 1.0
        f_prev = path[-1]
        for _ in range(61):  # the last try, at t = 2**-60, is taken whatever its value
            cand = beta + t * direction
            eta = x @ cand
            nll = _neg_loglik(eta, y)
            f_cand = nll + strength * np.abs(cand[1:]).sum()
            if math.isfinite(f_cand) and f_cand <= f_prev + 1e-12 * (1 + abs(f_prev)):
                break
            t *= 0.5
        beta, mu = cand, None
        path.append(f_cand)
    return beta, path, converged


# ---------------------------------------------------------------------------
# one model, one design and one fit for every generalizer


@dataclass
class StackModel:
    """A fitted level-1 model: ``logit = design_matrix(z, u, design, basis) @ coef``.

    ``design`` is m1-m3 (constant or straight-line weights) or dynamic
    (spline weight curves on ``basis``). ``penalty`` is none, ridge or lasso
    for m1-m3 and curvature for dynamic, and ``strength`` is its weight. A
    dynamic model clamps ``u`` into the basis domain, so its weight curves
    stay bounded off the training range.
    """

    design: str
    penalty: str
    strength: float
    coef: np.ndarray
    p: int
    columns: list[str]
    basis: BSplineBasis | None = None
    converged: bool = True
    objective_path: list[float] = field(default_factory=list, repr=False, compare=False)


def _check_spec(design: str, penalty: str, strength: float = 0.0) -> None:
    """Raise unless ``design`` is known, ``penalty`` applies to it and
    ``strength`` is finite and >= 0: the contract of every fit and model file."""
    if design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}; expected one of {DESIGNS}")
    allowed = ("curvature",) if design == "dynamic" else ("none", "ridge", "lasso")
    if penalty not in allowed:
        raise ValueError(f"unknown penalty {penalty!r} for design {design!r}; expected {allowed}")
    if not (np.isfinite(strength) and strength >= 0):
        raise ValueError(f"penalty strength must be finite and >= 0, got {strength}")


def dynamic_design(z: np.ndarray, u: np.ndarray, basis: BSplineBasis) -> np.ndarray:
    """Rows ``(1, Z_1 * B(u), ..., Z_p * B(u))`` of width ``1 + p*K``."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    b = basis_matrix(basis, u)
    n, p = z.shape
    out = np.empty((n, 1 + p * basis.size))
    out[:, 0] = 1.0
    cross = out[:, 1:].reshape(n, p, basis.size)
    assert cross.base is out  # a copy would take the products out of ``out``
    np.multiply(z[:, :, None], b[:, None, :], out=cross)
    return out


def design_matrix(z, u, design: str, basis: BSplineBasis | None = None) -> np.ndarray:
    """Level-1 rows of ``design``, intercept first.

    m1 is ``(1, Z)``, m2 adds ``u`` and m3 also adds every ``Z_j * u``;
    dynamic is :func:`dynamic_design` on ``basis``.
    """
    if design == "dynamic":
        if basis is None:
            raise ValueError("the dynamic design needs a spline basis")
        return dynamic_design(z, u, basis)
    if design not in STATIC_DESIGNS:
        raise ValueError(f"unknown design {design!r}; expected one of {DESIGNS}")
    z = np.atleast_2d(np.asarray(z, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))[:, None]
    cols = [np.ones((z.shape[0], 1)), z]
    if design != "m1":
        cols.append(u)
    if design == "m3":
        cols.append(z * u)
    return np.hstack(cols)


def default_basis(
    u: np.ndarray, interior_knots: int = DEFAULT_KNOTS, degree: int = DEFAULT_DEGREE
) -> BSplineBasis:
    """Basis with uniform interior knots over the training u range."""
    u = np.asarray(u, dtype=float)
    lo, hi = float(u.min()), float(u.max())
    if lo == hi:
        # degenerate covariate: widen so the basis has a real domain
        lo, hi = lo - 0.5, hi + 0.5
    return make_basis(lo, hi, interior_knots, degree)


def _problem(data: Level1Data, design: str, penalty: str, basis: BSplineBasis | None = None):
    """``(x, y, pen, rot)``: the design a fit runs on, the responses in its
    row order, its per-coefficient penalty weights (None without a penalty;
    ridge and lasso spare the intercept), and the rotation back to model
    coefficients, ``coef = rot @ fitted``. Only the curvature penalty
    rotates, into its eigenbasis (see :func:`_penalty_eigenbasis`); every
    other ``rot`` is None. Above ``SPAN_HESSIAN_ROWS`` rows the rotated
    design is a :class:`_SpanDesign`, whose rows are in knot-span order.
    """
    x, y = design_matrix(data.z, data.u, design, basis), data.y.astype(float)
    if penalty != "curvature":
        return x, y, None if penalty == "none" else np.r_[0.0, np.ones(x.shape[1] - 1)], None
    pen, rot = _penalty_eigenbasis(basis, data.p)
    if data.n <= SPAN_HESSIAN_ROWS:
        return x @ rot, y, pen, rot
    d, k, span = x.shape[1], basis.size, knot_spans(basis, data.u)
    order = np.argsort(span, kind="stable")
    rows = np.split(order, np.searchsorted(span[order], np.arange(1, k - basis.degree)))
    blocks = []
    for s, r in enumerate(rows):  # the intercept, then columns s..s+degree of each z block
        c = np.r_[0, (k * np.arange(data.p)[:, None] + s + np.arange(1, basis.degree + 2)).ravel()]
        blocks.append((np.asfortranarray(x[np.ix_(r, c)]), c, (c[:, None] * d + c).ravel()))
    return _SpanDesign(blocks, rot, order), y[order], pen, rot


class _SpanDesign:
    """A rotated dynamic design ``x = X rot`` held as knot-span blocks ``X_s`` of ``X``.

    A row whose ``u`` lies in knot span ``s`` is zero outside the intercept
    and the ``degree + 1`` basis columns from ``s`` of each z block, so rows
    sorted by span split into blocks on those ``1 + p * (degree + 1)`` columns
    ``cols_s`` (a banded spline design). ``x @ b`` stacks ``X_s (rot b)[cols_s]``,
    ``x.T @ r`` is ``rot' sum_s scatter(X_s' r_s)`` and ``gram(w)`` is ``rot'
    sum_s scatter(X_s' W_s X_s) rot``. Row ``i`` is data row ``order[i]``; a
    block is ``(X_s, cols_s, the flat positions of cols_s x cols_s)``.
    """

    def __init__(self, blocks, rot, order, transposed=False):
        self.blocks, self.rot, self.order, self.transposed = blocks, rot, order, transposed
        self.shape, self.cuts = (len(order), len(rot)), np.cumsum([0] + [len(b[0]) for b in blocks])

    @property
    def T(self):
        return _SpanDesign(self.blocks, self.rot, self.order, not self.transposed)

    def __matmul__(self, v):
        spans = zip(self.cuts, self.cuts[1:], self.blocks)
        if self.transposed:
            out = np.zeros(len(self.rot))
            for lo, hi, (xs, cols, _) in spans:
                out[cols] += xs.T @ v[lo:hi]
            return self.rot.T @ out
        b, out = self.rot @ v, np.empty(self.shape[0])
        for lo, hi, (xs, cols, _) in spans:
            out[lo:hi] = xs @ b[cols]
        return out

    def gram(self, w):
        total = np.zeros(self.shape[1] ** 2)
        for lo, hi, (xs, _, at) in zip(self.cuts, self.cuts[1:], self.blocks):
            total[at] += ((xs * w[lo:hi, None]).T @ xs).ravel()
        return self.rot.T @ total.reshape(self.rot.shape) @ self.rot

    def take(self, keep):
        """The rows where the boolean ``keep``, in this design's row order, holds."""
        parts = zip(self.blocks, np.split(keep, self.cuts[1:-1]))
        blocks = [(np.asfortranarray(xs[k]), cols, at) for (xs, cols, at), k in parts]
        return _SpanDesign(blocks, self.rot, self.order[keep])


def _fit(x, y, pen, strength, lasso, config: FitConfig, coef0=None, null_fit=None, carry=None):
    """Logistic fit with penalty ``strength * sum_k pen[k] * b_k^2``, or
    ``strength * |b|_1`` on the coordinates ``pen`` penalizes when ``lasso``;
    ``pen`` None is plain logistic. ``null_fit`` may pass in
    :func:`_lasso_null_fit` of ``(x, y)`` and ``carry`` the state of
    :func:`_newton_diag` or :func:`_lasso_logistic`. Returns
    ``(coef, objective_path, converged)``."""
    if lasso and strength > 0:
        return _lasso_logistic(x, y, strength, coef0, null_fit, carry)
    pen_diag = strength * pen if pen is not None and strength > 0 else None
    return _newton_diag(x, y, pen_diag, config, coef0, carry)


def _check_overflow(strength, pen, lasso: bool) -> None:
    """Raise unless the Newton weights ``2 * strength * pen`` of a quadratic penalty are finite."""
    with np.errstate(over="ignore"):
        if pen is not None and not lasso and np.isinf(2.0 * (strength * pen)).any():
            raise ValueError(f"penalty strength {strength} overflows 2 * strength * weight")


def _fit_model(data: Level1Data, design, penalty, strength, config: FitConfig, basis=None):
    """The final :class:`StackModel` fit of :func:`fit_dynamic` and :func:`fit_static`.

    A zero strength fits without a penalty (a dynamic model then stays in
    its own basis). Without an effective penalty (strength 0, or one that
    is all zero as for a degree <= 1 basis) separable classes send the
    coefficients to infinity, so such a fit raises instead.
    """
    _check_spec(design, penalty, strength)
    x, y, pen, rot = _problem(data, design, penalty if strength > 0 else "none", basis)
    _check_overflow(strength, pen, penalty == "lasso")
    if data.n < x.shape[1]:
        warnings.warn(
            f"{data.n} observations for {x.shape[1]} coefficients; expect an unstable fit",
            stacklevel=3,
        )
    coef, path, converged = _fit(x, y, pen, strength, penalty == "lasso", config)
    if (pen is None or not pen.any()) and (not converged or np.abs(coef).max() > 1e2):
        raise ConvergenceError(
            "the unpenalized fit diverged; the classes may be separable -- "
            "use ridge, or a curvature penalty for the dynamic model"
        )
    if not converged:
        warnings.warn("Newton reached the iteration cap before converging", stacklevel=3)
    coef = coef if rot is None else rot @ coef
    return StackModel(
        design, penalty, float(strength), coef, data.p, list(data.columns), basis, converged, path
    )


def _assert_valid_folds(y: np.ndarray, fold_idx: list[np.ndarray]) -> None:
    n, positives = len(y), int(y.sum())  # y is 0/1
    for j, heldout in enumerate(fold_idx):
        if len(heldout) == 0 or len(heldout) == n:
            raise ValueError(f"degenerate folds: fold {j + 1} is empty or everything")
        train_positives = positives - int(y[heldout].sum())
        if train_positives in (0, n - len(heldout)):
            raise ValueError(
                f"degenerate folds: fold {j + 1} leaves a single-class training set"
            )


def _cv_profile(data: Level1Data, design, penalty, config: FitConfig, seed: int, basis=None):
    """The cross-validation of :func:`select_lambda` and :func:`select_strength`.

    Scores each value of :data:`LAMBDA_GRID` by the total held-out negative
    log-likelihood over shared folds; ties go to the larger value. Held-out
    scores need only ``X beta``, so the fits stay in the basis :func:`_problem`
    gives; a fold of a :class:`_SpanDesign` takes its rows out of the blocks
    built once. The grid's largest value is checked for overflow before any fold.
    Each fold walks the grid warm-starting :func:`_fit` from the last
    coefficients and the state the last fit carries (linear predictor,
    log-likelihood, and the likelihood Hessian or gradient). A Newton walk
    starts each fold from the previous fold's first-grid coefficients; a
    lasso walk starts every fold from its intercept-only fit, which is also
    its fit at every strength from the fold's critical one up, so that fit
    is scored once.
    """
    _check_spec(design, penalty)
    x, y, pen, _ = _problem(data, design, penalty, basis)
    lasso = penalty == "lasso"
    _check_overflow(LAMBDA_GRID[-1], pen, lasso)
    fold_idx = _cv_fold_indices(len(y), config.cv_folds, seed)
    _assert_valid_folds(data.y, fold_idx)
    scores = np.zeros(len(LAMBDA_GRID))
    start = None
    for heldout in fold_idx:
        x_fit = carry = None  # drop the last fold's arrays so two never coexist
        keep = np.ones(len(y), dtype=bool)
        keep[heldout] = False
        if isinstance(x, _SpanDesign):
            keep = keep[x.order]
            x_fit, x_out = x.take(keep), x.take(~keep)
        else:  # a column-major fold copy for faster GEMMs
            x_fit, x_out = np.asfortranarray(x[keep]), x[~keep]
        y_fit, y_out = y[keep], y[~keep]
        null_fit = _lasso_null_fit(x_fit, y_fit) if lasso else None
        coef, carry, at_null = None if lasso else start, {}, False
        for gi, s in enumerate(LAMBDA_GRID):
            if not at_null:  # else the last fit was intercept-only, as is this one
                coef, _, _ = _fit(x_fit, y_fit, pen, s, lasso, config, coef, null_fit, carry)
                score = _neg_loglik(x_out @ coef, y_out)
                at_null = lasso and 0 < s and null_fit[1] <= s + LASSO_KKT_TOL
            if gi == 0:
                start = coef
            scores[gi] += score

    best = len(scores) - 1 - int(np.argmin(scores[::-1]))  # ties go to the larger value
    report = list(zip(LAMBDA_GRID.tolist(), scores.tolist()))
    return float(LAMBDA_GRID[best]), report


# ---------------------------------------------------------------------------
# public fits, cross-validations and prediction


def fit_dynamic(
    data: Level1Data,
    lam: float,
    basis: BSplineBasis,
    config: FitConfig = FitConfig(),
) -> StackModel:
    """Fit the varying-coefficient model at a fixed curvature penalty ``lam``."""
    return _fit_model(data, "dynamic", "curvature", lam, config, basis)


def select_lambda(data: Level1Data, config: FitConfig, basis: BSplineBasis, seed: int = 0):
    """Pick the dynamic model's penalty strength on ``basis`` by J-fold cross-validation.

    Returns ``(lam_star, report)`` with the full ``(lam, score)`` profile;
    see :func:`_cv_profile`.
    """
    return _cv_profile(data, "dynamic", "curvature", config, seed, basis)


def fit_static(
    data: Level1Data, design: str, penalty: str, strength: float, config: FitConfig = FitConfig()
) -> StackModel:
    """Fit a static generalizer at a fixed penalty ``strength``.

    ``penalty`` is "none" (plain logistic MLE, ``strength`` ignored),
    "ridge", or "lasso"; the intercept is never penalized.
    """
    return _fit_model(data, design, penalty, 0.0 if penalty == "none" else strength, config)


def select_strength(data: Level1Data, design: str, penalty: str, config: FitConfig, seed: int = 0):
    """Cross-validated penalty strength for a static design; mirrors
    :func:`select_lambda` (shared folds, held-out likelihood, ties to the
    larger value)."""
    return _cv_profile(data, design, penalty, config, seed)


def predict(model: StackModel, z, u) -> np.ndarray:
    """Positive-class probability for rows ``(Z, u)``."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[1] != model.p:
        raise ValueError(f"expected {model.p} z columns, got {z.shape[1]}")
    rows = np.atleast_1d(np.asarray(u)).shape[0]
    if z.shape[0] != rows:
        raise ValueError(f"z has {z.shape[0]} rows, u has {rows}")
    x = design_matrix(z, u, model.design, model.basis)
    if x.shape[1] != len(model.coef):
        raise ValueError(
            f"design {model.design!r} produces {x.shape[1]} columns but the "
            f"model has {len(model.coef)} coefficients"
        )
    return sigmoid(x @ model.coef)


predict_dynamic = predict  # the name perfbench/workloads.py calls


def coefficient_curves(model: StackModel, u_grid) -> np.ndarray:
    """Evaluate every weight curve ``beta_j`` of a dynamic model on ``u_grid``; (n, p)."""
    b = basis_matrix(model.basis, u_grid)
    eta = model.coef[1:].reshape(model.p, model.basis.size)
    return b @ eta.T


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


def _bad_level1_line(path, width: int, has_y: bool) -> str | None:
    """Name the first data line that does not hold ``width`` finite numbers,
    whose z values are not probabilities or, when ``has_y``, whose first
    field is not exactly 0 or 1; None when every line holds them."""
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
            if not _probabilities(row[int(has_y) : -1]):
                return f"{where}: z values must be probabilities in [0, 1], got {rec}"
    return None


def read_level1(path, require_y: bool = True) -> Level1Data:
    """Read a level-1 CSV; picks up the provenance sidecar when present.

    A malformed row raises a ``ValueError`` naming the file and line.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [""])
        has_y = header[0] == "y"
        if header[-1] != "u" or (require_y and not has_y) or len(header) < 2 + has_y:
            raise ValueError(
                f"{path}: unexpected level-1 header {header!r}; expected y,z_1,...,z_p,u, p >= 1"
            )
        rows = [rec for rec in reader if rec]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    zcols = len(header) - 1 - int(has_y)
    columns = [f"z_{j + 1}" for j in range(zcols)]
    sidecar = path.with_name(path.name + ".provenance.txt")
    if sidecar.exists():
        lines = sidecar.read_text().splitlines()
        columns = [line.split("=", 1)[1].strip() for line in lines if "=" in line]
        if len(columns) != zcols:
            raise ValueError(f"{sidecar}: {len(columns)} names for {zcols} z columns")
    try:  # a ragged body, or rows of another width, fail the cast or the reshape
        body = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
        y = body[:, 0] if has_y else np.zeros(len(body), dtype=np.int64)
        return Level1Data(y, body[:, int(has_y) : -1], body[:, -1], columns)
    except ValueError as err:  # only a bad file pays for the line search; else a name is bad
        raise ValueError(_bad_level1_line(path, len(header), has_y) or f"{sidecar}: {err}") from None


def save_model(path, model: StackModel) -> None:
    """Serialize a fitted model to a self-describing ``dynstack-model 2`` file.

    Reals are written with 17 significant digits so loading reproduces
    the coefficients bit for bit.
    """
    lines = [
        "dynstack-model 2",
        f"design = {model.design}",
        f"penalty = {model.penalty}",
        f"strength = {_fmt(model.strength)}",
        f"p = {model.p}",
    ]
    if model.design == "dynamic":
        lines += [
            f"degree = {model.basis.degree}",
            f"u_lo = {_fmt(model.basis.u_lo)}",
            f"u_hi = {_fmt(model.basis.u_hi)}",
            "knots = " + " ".join(_fmt(v) for v in model.basis.knots),
        ]
    lines += [f"column = {name}" for name in model.columns]
    lines.append("coef = " + " ".join(_fmt(v) for v in model.coef))
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path) -> StackModel:
    """Read a file written by :func:`save_model`; errors name the file."""
    try:
        return _parse_model(Path(path).read_text().splitlines())
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def _parse_model(text: list[str]) -> StackModel:
    header = text[0].strip() if text else ""
    if header == "dynstack-model 1":
        raise ValueError(
            "a dynstack-model 1 file, which this version no longer reads; fit the model again"
        )
    if header != "dynstack-model 2":
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

    design, penalty, strength = get("design"), get("penalty"), float(get("strength"))
    _check_spec(design, penalty, strength)
    coef = np.array([float(v) for v in get("coef").split()])
    if not np.isfinite(coef).all():
        raise ValueError("'coef' holds a non-finite value")
    p = int(get("p"))
    if p < 1:
        raise ValueError(f"p = {p}; a model needs p >= 1")
    if len(columns) != p:
        raise ValueError(f"{len(columns)} 'column' lines for p = {p}")
    basis = None
    if design == "dynamic":
        # every basis comes from make_basis, so the file's knots must be its knots
        degree = int(get("degree"))
        knots = np.array([float(v) for v in get("knots").split()])
        interior = max(len(knots) - 2 * degree - 2, 0)
        basis = make_basis(float(get("u_lo")), float(get("u_hi")), interior, degree)
        if not np.array_equal(knots, basis.knots):
            raise ValueError("'knots' are not the clamped uniform knots of [u_lo, u_hi]")
    width = design_matrix(np.zeros((1, p)), np.zeros(1), design, basis).shape[1]
    if len(coef) != width:
        raise ValueError(
            f"'coef' has {len(coef)} values; a {design} model with p = {p} needs {width}"
        )
    return StackModel(design, penalty, strength, coef, p, columns, basis)
