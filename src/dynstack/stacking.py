"""Level-1 stacking: dataset assembly and one model for every generalizer.

The dynamic generalizer is a binary varying-coefficient logistic model:
the logit is ``b0 + sum_j Z_j * beta_j(u)`` where each classifier weight
``beta_j`` is a B-spline expansion over a node covariate ``u``. Fitting
minimizes the negative Bernoulli log-likelihood plus a curvature penalty
``lam * eta' H eta`` (H block-diagonal, intercept unpenalized) by damped
Newton iteration; ``lam`` is picked by cross-validation. The static
baselines are the same model with constant (m1, m2) or straight-line
(m3) weights and optional ridge or lasso shrinkage: every generalizer is
one :class:`StackModel` on one :func:`_design_matrix`, fitted by one damped
proximal-Newton core, :func:`_fit`, and cross-validated by one driver,
:func:`_cv_profile`. A :class:`StackModel` checks its contract when it is
made, so no function that reads one checks it again.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .splines import (
    BSplineBasis,
    assemble_block_penalty,
    basis_matrix,
    curvature_penalty,
    local_basis,
    make_basis,
)

__all__ = [
    "Level1Data",
    "FitConfig",
    "StackModel",
    "ConvergenceError",
    "build_level1",
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
READ_CHUNK_ROWS = 1024  # level-1 CSV rows held as text at once before their float cast
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


class _RowError(ValueError):
    """Level-1 row ``row`` (from 0) breaks the row rule ``detail`` names."""

    def __init__(self, row: int, detail: str):
        super().__init__(f"row {row + 1}: {detail}")
        self.row, self.detail = row, detail


class _SpecError(ValueError):
    """Field ``key`` of a model (design, penalty, strength, p or coef) breaks rule ``detail``."""

    def __init__(self, key: str, detail: str):
        super().__init__(f"{key}: {detail}")
        self.key = key


def _check_rows(z: np.ndarray, u: np.ndarray, y=None) -> None:
    """Raise :class:`_RowError` for the first row that breaks a level-1 row rule:
    ``y``, if given, is 0 or 1; ``z`` lies in [0, 1] to within 1e-9; ``u`` is finite."""
    y = np.zeros(len(u)) if y is None else np.asarray(y)
    outside = ~((z >= -1e-9) & (z <= 1 + 1e-9))  # NaN too
    fault = np.select([~np.isin(y, (0, 1)), outside.any(axis=1), ~np.isfinite(u)], [1, 2, 3])
    if fault.any():
        k = int(np.argmax(fault > 0))
        c = int(np.argmax(outside[k]))
        raise _RowError(k, (f"y must be 0 or 1, got {y[k].item()!r}",
                            f"z column {c + 1} holds {z[k, c].item()!r}; z must lie in [0, 1]",
                            f"u holds {u[k].item()!r}; u must be finite")[fault[k] - 1])


@dataclass(frozen=True)
class Level1Data:
    """Rows ``(y, Z, u)`` for the level-1 generalizers.

    ``z`` holds, per level-0 classifier, its predicted class probabilities
    with the last class dropped, so the columns are linearly independent
    of the all-ones intercept. ``columns`` records which classifier and
    class each column came from. Rows keep the rules of :func:`_check_rows`:
    ``y`` is 0 or 1, ``z`` lies in [0, 1] to within 1e-9 (and is clipped to
    it) and ``u`` is finite; a ``ValueError`` names the first row that does not.
    """

    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    columns: list[str]

    def __post_init__(self):
        z = np.atleast_2d(np.asarray(self.z, dtype=float))
        u = np.asarray(self.u, dtype=float)
        if z.shape[0] != len(self.y) or len(u) != len(self.y):
            raise ValueError("y, z, u must be aligned")
        if z.shape[1] < 1:
            raise ValueError("z has no columns; level-1 data needs p >= 1")
        _check_rows(z, u, self.y)  # before the cast, which would truncate 0.5 to class 0
        if len(self.columns) != z.shape[1]:
            raise ValueError("one provenance entry per z column required")
        for name in self.columns:  # the sidecar and the model file store stripped lines
            if name != name.strip() or len(name.splitlines()) != 1:
                raise ValueError(f"provenance name {name!r} is not one line without outer spaces")
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.int64))
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
    y = np.asarray(y)  # Level1Data checks it is 0 or 1 before its integer cast
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
# pieces of the one damped proximal-Newton core, :func:`_fit`


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


# ---------------------------------------------------------------------------
# one model, one design and one fit for every generalizer


@dataclass(frozen=True)
class StackModel:
    """A fitted level-1 model: ``logit = _design_matrix(z, u, design, basis) @ coef``.

    ``design`` is m1-m3 (constant or straight-line weights) or dynamic
    (spline weight curves on ``basis``). ``penalty`` is none, ridge or lasso
    for m1-m3 and curvature for dynamic, and ``strength`` is its weight. A
    dynamic model clamps ``u`` into the basis domain, so its weight curves
    stay bounded off the training range. A model checks its contract when it
    is made, a ``ValueError`` naming the field that breaks it: :func:`_check_spec`,
    ``p >= 1`` and ``p`` ``columns``, and as many finite ``coef`` as the design has
    columns. No reader of a model checks it again, and ``coef`` is a read-only copy.
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

    def __post_init__(self):
        _check_spec(self.design, self.penalty, self.strength, self.basis)
        coef, p = np.array(self.coef, dtype=float), self.p
        coef.flags.writeable = False  # so no write can break the contract checked here
        if p < 1:
            raise _SpecError("p", f"must be >= 1, got {p}")
        if len(self.columns) != p:  # before the width, whose one-row design has p columns
            raise _SpecError("p", f"{len(self.columns)} column names for p = {p}")
        if not np.isfinite(coef).all():
            raise _SpecError("coef", f"must be finite, got {coef[~np.isfinite(coef)][0]}")
        width = _design_matrix(np.zeros((1, p)), np.zeros(1), self.design, self.basis).shape[1]
        if len(coef) != width:
            need = f"a {self.design} model with p = {p} needs {width}"
            raise _SpecError("coef", f"has {len(coef)} values; {need}")
        object.__setattr__(self, "coef", coef)


def _check_spec(design: str, penalty: str, strength: float, basis: BSplineBasis | None) -> None:
    """Raise :class:`_SpecError` unless ``design`` is known, ``penalty`` applies
    to it, ``strength`` is finite and >= 0 and ``basis`` is given exactly when the
    design is dynamic: the spec of every fit and :class:`StackModel`."""
    if design not in DESIGNS:
        raise _SpecError("design", f"unknown design {design!r}; expected one of {DESIGNS}")
    allowed = ("curvature",) if design == "dynamic" else ("none", "ridge", "lasso")
    if penalty not in allowed:
        raise _SpecError(
            "penalty", f"unknown penalty {penalty!r} for design {design!r}; expected {allowed}"
        )
    if not (np.isfinite(strength) and strength >= 0):
        raise _SpecError("strength", f"penalty strength must be finite and >= 0, got {strength}")
    if penalty == "none" and strength != 0:
        raise _SpecError("strength", f"penalty 'none' takes no strength, got {strength}")
    if (basis is None) == (design == "dynamic"):
        need = "needs a spline basis" if basis is None else "takes no spline basis"
        raise _SpecError("design", f"{design!r} {need}")


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


def _design_matrix(z, u, design: str, basis: BSplineBasis | None = None) -> np.ndarray:
    """Level-1 rows of ``design`` on float arrays ``z``, ``u`` and a checked spec, intercept first.

    m1 is ``(1, Z)``, m2 adds ``u`` and m3 also adds every ``Z_j * u``;
    dynamic is :func:`dynamic_design` on ``basis``.
    """
    if design == "dynamic":
        return dynamic_design(z, u, basis)
    cols = [np.ones((len(z), 1)), z]
    if design != "m1":
        cols.append(u[:, None])
    if design == "m3":
        cols.append(z * u[:, None])
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


def _problem(data: Level1Data, design: str, penalty: str, strength: float, basis=None):
    """``(x, y, pen, rot)`` of a fit at ``strength`` that :func:`_check_spec` and the
    overflow check pass: the design it runs on, the responses in its row order,
    its per-coefficient penalty weights (zero without a penalty; ridge and lasso
    spare the intercept) and the rotation back to model coefficients, ``coef =
    rot @ fitted``. Only a curvature penalty at a positive strength rotates, into
    its eigenbasis (see :func:`_penalty_eigenbasis`); every other ``rot`` is None.
    Above ``SPAN_HESSIAN_ROWS`` rows the rotated design is a :class:`_SpanDesign`,
    whose rows are in knot-span order and whose blocks come from each row's
    :func:`local_basis` values, so no dense design is built.
    """
    _check_spec(design, penalty, strength, basis)
    y, curved = data.y.astype(float), penalty == "curvature" and strength > 0
    spans = curved and data.n > SPAN_HESSIAN_ROWS
    x = None if spans else _design_matrix(data.z, data.u, design, basis)
    if curved:
        pen, rot = _penalty_eigenbasis(basis, data.p)
    else:
        pen, rot = float(penalty in ("ridge", "lasso")) * np.r_[0.0, np.ones(x.shape[1] - 1)], None
    with np.errstate(over="ignore"):  # the Newton weights of a quadratic penalty
        if penalty != "lasso" and np.isinf(2.0 * (strength * pen)).any():
            raise ValueError(f"penalty strength {strength} overflows 2 * strength * weight")
    if not spans:
        return x if rot is None else x @ rot, y, pen, rot
    d, k, (span, values) = len(rot), basis.size, local_basis(basis, data.u)
    order = np.argsort(span, kind="stable")
    rows = np.split(order, np.searchsorted(span[order], np.arange(1, k - basis.degree)))
    blocks = []
    for s, r in enumerate(rows):  # the intercept, then columns s..s+degree of each z block
        c = np.r_[0, (k * np.arange(data.p)[:, None] + s + np.arange(1, basis.degree + 2)).ravel()]
        xs = np.empty((len(r), len(c)), order="F")
        xs[:, 0] = 1.0  # then the products dynamic_design forms, written through a view
        cross = xs[:, 1:].reshape(len(r), data.p, basis.degree + 1)
        np.multiply(data.z[r][:, :, None], values[r][:, None, :], out=cross)
        blocks.append((xs, c, (c[:, None] * d + c).ravel()))
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
    """Minimize ``-loglik(x b) + strength * sum_k pen[k] * b_k^2``, or with
    ``lasso`` ``strength * |b[1:]|_1``, by damped proximal Newton; plain
    logistic is the same fit with a zero ``pen`` or ``strength``.

    Each step minimizes the penalized quadratic model: a Cholesky solve on
    ``H + 2 diag(strength * pen)``, or :func:`_lasso_working_solve` on weights
    floored at 1e-8 for the lasso.
    Step halving keeps the objective from rising (the lasso allows a 1e-12
    relative slack), and a fit with no descent left is at its optimum. A
    quadratic fit stops on a relative objective change below
    ``config.newton_tol``, a lasso fit when its optimality conditions hold,
    and from the critical strength up (``null_fit`` may pass in
    :func:`_lasso_null_fit` of ``(x, y)``) the lasso fit is intercept-only.
    ``x`` is an ndarray or a :class:`_SpanDesign`. Returns ``(coef,
    objective_path, converged)``.

    ``carry`` hands state along a penalty grid. A fit leaves in it ``eta`` =
    ``x @ coef`` with its negative log-likelihood ``nll``, ``mu`` and the
    likelihood gradient ``grad`` there when they were computed, and ``hess``,
    the last likelihood Hessian used; an intercept-only lasso fit leaves it
    empty. A fit handed a carry takes the first four as its start's, and a
    quadratic fit takes its first step on ``hess``: any positive definite
    matrix gives a descent direction, and the line search still guards it.
    """
    carry = {} if carry is None else carry
    # popped, so the old vectors are freed once the fit moves on
    eta, nll, mu, grad, lik_hess = (carry.pop(k, None) for k in ("eta", "nll", "mu", "grad", "hess"))
    lasso = lasso and strength > 0
    if lasso:
        intercept_only, critical = _lasso_null_fit(x, y) if null_fit is None else null_fit
        if critical <= strength + LASSO_KKT_TOL:
            return intercept_only, [_neg_loglik(x @ intercept_only, y)], True
        coef0 = intercept_only if coef0 is None else coef0
        lik_hess = None  # the lasso floors its weights, so it forms its own
    d, gram = x.shape[1], getattr(x, "gram", None)
    beta = np.zeros(d) if coef0 is None else np.asarray(coef0, dtype=float).copy()
    pen_diag = strength * pen

    def objective(b, nll):
        if lasso:
            return nll + strength * np.abs(b[1:]).sum()
        return nll + float(pen_diag @ (b * b))

    if eta is None:
        eta = x @ beta
        nll = _neg_loglik(eta, y)
    f = objective(beta, nll)
    if not math.isfinite(f):
        raise ConvergenceError("non-finite objective at the starting point")
    path, converged = [f], False
    for _ in range(MAX_NEWTON_ITER):
        if mu is None:
            mu = sigmoid(eta)
            grad = x.T @ (mu - y)
        if lasso and abs(grad[0]) <= LASSO_KKT_TOL and (
            np.abs(grad[1:] + strength * np.sign(beta[1:]))
            <= np.where(beta[1:] != 0.0, 0.0, strength) + LASSO_KKT_TOL
        ).all():
            converged = True
            break
        if lik_hess is None:
            w = np.maximum(mu * (1.0 - mu), 1e-8) if lasso else mu * (1.0 - mu)
            lik_hess = (x * w[:, None]).T @ x if gram is None else gram(w)
        if lasso:
            step = _lasso_working_solve(lik_hess, lik_hess @ beta - grad, strength, beta) - beta
        else:
            hess = lik_hess.copy()
            hess.flat[:: d + 1] += 2.0 * pen_diag
            step = _solve_spd(hess, -(grad + 2.0 * pen_diag * beta), HESSIAN_JITTER)
        carry["hess"], lik_hess = lik_hess, None

        t, slack = 1.0, 1e-12 * (1 + abs(f)) if lasso else 0.0
        for _ in range(61):
            cand = beta + t * step
            eta_cand = x @ cand
            nll_cand = _neg_loglik(eta_cand, y)
            f_cand = objective(cand, nll_cand)
            if math.isfinite(f_cand) and f_cand <= f + slack:
                break
            t *= 0.5
        else:  # no descent left at float precision: already at the optimum
            converged = True
            break
        beta, eta, nll, mu = cand, eta_cand, nll_cand, None
        path.append(f_cand)
        done = not lasso and abs(f - f_cand) <= config.newton_tol * (1.0 + abs(f))
        f = f_cand
        if done:
            converged = True
            break
    carry.update(eta=eta, nll=nll)
    if mu is not None:
        carry.update(mu=mu, grad=grad)
    return beta, path, converged


def _fit_model(data: Level1Data, design, penalty, strength, config: FitConfig, basis=None):
    """The final :class:`StackModel` fit of :func:`fit_dynamic` and :func:`fit_static`.

    Without an effective penalty (strength 0, or weights that are all zero
    as for a degree <= 1 basis) separable classes send the coefficients to
    infinity, so such a fit raises instead.
    """
    x, y, pen, rot = _problem(data, design, penalty, strength, basis)
    if data.n < x.shape[1]:
        warnings.warn(
            f"{data.n} observations for {x.shape[1]} coefficients; expect an unstable fit",
            stacklevel=3,
        )
    coef, path, converged = _fit(x, y, pen, strength, penalty == "lasso", config)
    if not (strength * pen).any() and (not converged or np.abs(coef).max() > 1e2):
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
    gives at the grid's largest value, checked for overflow before any fold; a
    fold of a :class:`_SpanDesign` takes its rows out of the blocks built once.
    Each fold walks the grid warm-starting the one Newton core, :func:`_fit`,
    from the last coefficients and the one state every fit carries (linear
    predictor, log-likelihood, the probabilities and likelihood gradient when
    computed, and the last likelihood Hessian). A quadratic-penalty walk
    starts each fold from the previous fold's first-grid coefficients; a
    lasso walk starts every fold from its intercept-only fit, which is also
    its fit at every strength from the fold's critical one up, so that fit
    is scored once.
    """
    if penalty == "none":
        raise ValueError("penalty 'none' has no strength to choose by cross-validation")
    x, y, pen, _ = _problem(data, design, penalty, LAMBDA_GRID[-1], basis)
    lasso = penalty == "lasso"
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

    ``penalty`` is "none" (plain logistic MLE; ``strength`` is None or 0),
    "ridge", or "lasso"; the intercept is never penalized.
    """
    none = penalty == "none" and strength is None  # fit_method passes no strength for it
    return _fit_model(data, design, penalty, 0.0 if none else strength, config)


def select_strength(data: Level1Data, design: str, penalty: str, config: FitConfig, seed: int = 0):
    """Cross-validated ridge or lasso strength for a static design; mirrors
    :func:`select_lambda` (shared folds, held-out likelihood, ties to the
    larger value). Penalty "none" has no strength to choose: a ``ValueError``."""
    return _cv_profile(data, design, penalty, config, seed)


def predict(model: StackModel, z, u) -> np.ndarray:
    """Positive-class probability for rows ``(Z, u)``; a ``ValueError`` names the first
    row with ``z`` outside [0, 1] (to within 1e-9) or a non-finite ``u``."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[1] != model.p:
        raise ValueError(f"expected {model.p} z columns, got {z.shape[1]}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if z.shape[0] != len(u):
        raise ValueError(f"z has {z.shape[0]} rows, u has {len(u)}")
    _check_rows(z, u)  # NaN would pass through every design silently
    return sigmoid(_design_matrix(z, u, model.design, model.basis) @ model.coef)


predict_dynamic = predict  # the name perfbench/workloads.py calls


def coefficient_curves(model: StackModel, u_grid) -> np.ndarray:
    """Evaluate every weight curve ``beta_j`` of a dynamic model on ``u_grid``; (n, p)."""
    if model.design != "dynamic":
        raise ValueError(f"coefficient curves need a dynamic model, not a {model.design} one")
    return basis_matrix(model.basis, u_grid) @ model.coef[1:].reshape(model.p, -1).T


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


def _table(rows, width: int, start: int = 0) -> np.ndarray:
    """``rows`` as a float array; :class:`_RowError` names the first row that
    is not ``width`` numbers, counting the first of ``rows`` as row ``start``."""
    try:  # a ragged body, or rows of another width, fail the cast or the reshape
        return np.asarray(rows, dtype=float).reshape(len(rows), width)
    except ValueError:  # only a bad file pays for the row search
        for k, rec in enumerate(rows, start):
            if len(rec) != width:
                raise _RowError(k, f"expected {width} fields, got {len(rec)}") from None
            try:
                np.asarray(rec, dtype=float)
            except ValueError as err:
                raise _RowError(k, str(err)) from None
        raise


def read_level1(path, require_y: bool = True) -> Level1Data:
    """Read a level-1 CSV; picks up the provenance sidecar when present.

    The first row that is not as many numbers as the header has fields, or breaks
    a row rule of :class:`Level1Data`, raises a ``ValueError`` naming its line.
    Rows are cast to floats ``READ_CHUNK_ROWS`` at a time, so no file is held as text.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or [""]  # no line, or a blank one: no header
        has_y = header[0] == "y"
        if header[-1] != "u" or (require_y and not has_y) or len(header) < 2 + has_y:
            raise ValueError(
                f"{path}: unexpected level-1 header {header!r}; expected y,z_1,...,z_p,u, p >= 1"
            )
        records = ((rec, reader.line_num) for rec in reader if rec)
        chunks, lines, bad = [], array("q"), None  # lines[k]: the file line of row k
        while bad is None and (chunk := list(islice(records, READ_CHUNK_ROWS))):
            try:
                chunks.append(_table([rec for rec, _ in chunk], len(header), len(lines)))
            except _RowError as err:  # raised after the sidecar check, as a bad row is
                bad = err
            lines.extend(line for _, line in chunk)
    if not lines:
        raise ValueError(f"{path}: no data rows")
    zcols = len(header) - 1 - int(has_y)
    columns = [f"z_{j + 1}" for j in range(zcols)]
    sidecar = path.with_name(path.name + ".provenance.txt")
    if sidecar.exists():
        names = sidecar.read_text().splitlines()
        columns = [line.split("=", 1)[1].strip() for line in names if "=" in line]
        if len(columns) != zcols:
            raise ValueError(f"{sidecar}: {len(columns)} names for {zcols} z columns")
    try:
        if bad is not None:
            raise bad
        body, chunks = np.concatenate(chunks), None  # so no second copy meets Level1Data's
        y = body[:, 0] if has_y else np.zeros(len(body), dtype=np.int64)
        return Level1Data(y, body[:, int(has_y) : -1], body[:, -1], columns)
    except _RowError as err:
        raise ValueError(f"{path} line {lines[err.row]}: {err.detail}") from None
    except ValueError as err:  # every row is sound, so a provenance name is bad
        raise ValueError(f"{sidecar}: {err}") from None


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
    """Read a file written by :func:`save_model`; errors name the file, and the line of
    any key that breaks a rule of the file or of :class:`StackModel` (``<path> line N: ...``)."""
    try:
        return _parse_model(Path(path).read_text().splitlines())
    except ValueError as err:  # one naming a line reads "<path> line N: ..."
        raise ValueError(f"{path}{' ' if str(err).startswith('line ') else ': '}{err}") from err


def _parse_model(text: list[str]) -> StackModel:
    header = text[0].strip() if text else ""
    if header == "dynstack-model 1":
        raise ValueError(
            "a dynstack-model 1 file, which this version no longer reads; fit the model again"
        )
    if header != "dynstack-model 2":
        raise ValueError("not a dynstack model file")
    fields: dict[str, tuple[int, str]] = {}  # key: (its line number, its value)
    columns: list[str] = []
    for lineno, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "column":
            columns.append(value)
        elif key in fields:
            raise ValueError(f"line {lineno}: a second {key!r} line")
        elif key not in "design penalty strength p degree u_lo u_hi knots coef".split():
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        else:
            fields[key] = (lineno, value)

    def at(key: str) -> str:  # a rule across keys names the line of one
        return f"line {fields[key][0]}: "

    def get(key: str, parse=str):
        """``parse`` of the ``key`` line's value; its error names that line and key."""
        if key not in fields:
            raise ValueError(f"model file has no {key!r} line")
        try:
            return parse(fields[key][1])
        except ValueError as err:
            raise ValueError(f"{at(key)}{key}: {err}") from None

    def reals(value: str) -> np.ndarray:
        return np.array([float(v) for v in value.split()])

    def finite(value: str) -> float:
        x = float(value)
        if not np.isfinite(x):
            raise ValueError(f"must be finite, got {x}")
        return x

    design, penalty, strength = get("design"), get("penalty"), get("strength", float)
    coef, p, basis = get("coef", reals), get("p", int), None
    if design == "dynamic":
        # every basis comes from make_basis, so the file's knots must be its knots
        degree, knots = get("degree", int), get("knots", reals)
        if degree < 0:
            raise ValueError(f"{at('degree')}degree: must be >= 0, got {degree}")
        u_lo, u_hi = get("u_lo", finite), get("u_hi", finite)
        if u_lo >= u_hi:  # the domain, which the u_hi line closes
            raise ValueError(f"{at('u_hi')}invalid domain [{u_lo}, {u_hi}]: need u_lo < u_hi")
        interior = len(knots) - 2 * degree - 2  # each end knot repeats degree + 1 times
        # too few knots for the degree builds no basis, whatever the degree
        basis = make_basis(u_lo, u_hi, interior, degree) if interior >= 0 else None
        if basis is None or not np.array_equal(knots, basis.knots):
            raise ValueError(
                f"{at('knots')}'knots' are not the clamped uniform knots of [u_lo, u_hi]"
            )
    try:
        return StackModel(design, penalty, strength, coef, p, columns, basis)
    except _SpecError as err:
        raise ValueError(f"{at(err.key)}{err}") from None
