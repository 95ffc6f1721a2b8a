"""B-spline basis construction, evaluation, and curvature penalties.

The basis functions here are the building blocks for functional
classifier weights: each weight curve is a linear combination of the
same clamped B-spline basis, and its roughness is measured by the
integral of the squared second derivative, discretized as a quadratic
form in the basis coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BSplineBasis",
    "make_basis",
    "basis_matrix",
    "knot_spans",
    "curvature_penalty",
    "assemble_block_penalty",
]


@dataclass(frozen=True, eq=False)
class BSplineBasis:
    """Clamped B-spline basis on a fixed interval.

    Attributes
    ----------
    degree : int
        Polynomial degree of the pieces (3 = cubic). Degree 0 yields the
        single-function constant basis when there are no interior knots.
    knots : numpy.ndarray
        Full knot vector with each boundary knot repeated ``degree + 1``
        times. Length equals ``size + degree + 1``.
    u_lo, u_hi : float
        Domain endpoints. Evaluation clamps its argument into this range.
    """

    degree: int
    knots: np.ndarray = field(repr=False)
    u_lo: float
    u_hi: float

    @property
    def size(self) -> int:
        """Number of basis functions (interior knots + degree + 1)."""
        return len(self.knots) - self.degree - 1


def make_basis(u_lo: float, u_hi: float, interior_knots: int, degree: int) -> BSplineBasis:
    """Build a clamped B-spline basis with uniform interior knots over ``[u_lo, u_hi]``.

    Parameters
    ----------
    u_lo, u_hi : float
        Domain; must satisfy ``u_lo < u_hi``.
    interior_knots : int
        Number of interior knots. The basis then has
        ``interior_knots + degree + 1`` functions.
    degree : int
        Spline degree, >= 0. Degree 0 with no interior knots gives the
        constant basis (a single indicator over the domain).
    """
    if not np.isfinite(u_lo) or not np.isfinite(u_hi) or u_lo >= u_hi:
        raise ValueError(f"invalid domain [{u_lo}, {u_hi}]: need u_lo < u_hi")
    if interior_knots < 0:
        raise ValueError("interior_knots must be >= 0")
    if degree < 0:
        raise ValueError("degree must be >= 0")

    interior = np.linspace(u_lo, u_hi, interior_knots + 2)[1:-1]
    knots = np.concatenate(
        [np.full(degree + 1, float(u_lo)), interior, np.full(degree + 1, float(u_hi))]
    )
    return BSplineBasis(degree=degree, knots=knots, u_lo=float(u_lo), u_hi=float(u_hi))


def _find_intervals(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index i per point with ``knots[i] <= x < knots[i+1]``, restricted to
    the non-degenerate interval range (endpoints fold into the last one)."""
    lo = np.searchsorted(knots, knots[0], side="right") - 1
    hi = np.searchsorted(knots, knots[-1], side="left") - 1
    idx = np.searchsorted(knots, x, side="right") - 1
    return np.clip(idx, lo, hi)


def _basis_all(knots: np.ndarray, degree: int, x: np.ndarray) -> np.ndarray:
    """Evaluate every degree-``degree`` B-spline on ``knots`` at points ``x``.

    Vectorized Cox-de Boor triangular recursion; returns an
    ``(len(x), len(knots) - degree - 1)`` matrix with at most
    ``degree + 1`` nonzero entries per row. ``x`` is a float array.
    """
    n = len(x)
    n_funcs = len(knots) - degree - 1
    mu = _find_intervals(knots, x)

    work = np.zeros((n, degree + 1))
    work[:, 0] = 1.0
    left = np.empty((n, degree + 1))
    right = np.empty((n, degree + 1))
    for j in range(1, degree + 1):
        left[:, j] = x - knots[mu + 1 - j]
        right[:, j] = knots[mu + j] - x
        saved = np.zeros(n)
        for r in range(j):
            den = right[:, r + 1] + left[:, j - r]
            # 0/0 -> 0 at degenerate (repeated) knot spans
            temp = np.where(den > 0, work[:, r] / np.where(den > 0, den, 1.0), 0.0)
            work[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        work[:, j] = saved

    out = np.zeros((n, n_funcs))
    cols = mu[:, None] - degree + np.arange(degree + 1)[None, :]
    out[np.arange(n)[:, None], cols] = work
    return out


def _deriv_all(knots: np.ndarray, degree: int, x: np.ndarray, order: int) -> np.ndarray:
    """Order-``order`` derivatives of all degree-``degree`` splines on ``knots``."""
    if order == 0:
        return _basis_all(knots, degree, x)
    n_funcs = len(knots) - degree - 1
    if degree == 0:
        return np.zeros((len(x), n_funcs))
    lower = _deriv_all(knots, degree - 1, x, order - 1)
    den1 = knots[degree : degree + n_funcs] - knots[:n_funcs]
    den2 = knots[degree + 1 : degree + n_funcs + 1] - knots[1 : n_funcs + 1]
    a = np.where(den1 > 0, degree / np.where(den1 > 0, den1, 1.0), 0.0)
    b = np.where(den2 > 0, degree / np.where(den2 > 0, den2, 1.0), 0.0)
    return lower[:, :n_funcs] * a - lower[:, 1 : n_funcs + 1] * b


def basis_matrix(basis: BSplineBasis, u) -> np.ndarray:
    """Evaluate the basis at an array of points.

    Points outside ``[u_lo, u_hi]`` are clamped to the boundary, so the
    returned rows are always well defined. Each row is nonnegative and
    sums to one.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x = np.clip(u, basis.u_lo, basis.u_hi)
    return _basis_all(basis.knots, basis.degree, x)


def knot_spans(basis: BSplineBasis, u) -> np.ndarray:
    """Knot span ``s`` of each point, clamped as in :func:`basis_matrix`.

    Spans count the nonempty knot intervals from 0 to ``size - degree - 1``;
    the basis functions nonzero at a point of span ``s`` are at most
    ``s, ..., s + degree``, the columns :func:`basis_matrix` fills.
    """
    x = np.clip(np.atleast_1d(np.asarray(u, dtype=float)), basis.u_lo, basis.u_hi)
    return _find_intervals(basis.knots, x) - basis.degree


def curvature_penalty(basis: BSplineBasis) -> np.ndarray:
    """Matrix of integrated products of second derivatives.

    Entry ``(m, n)`` is the integral over the domain of
    ``B_m''(x) * B_n''(x)``. Computed exactly with per-knot-interval
    Gauss-Legendre quadrature: the integrand is piecewise polynomial of
    degree ``2 * (degree - 2)``, so ``degree`` nodes per interval suffice.
    For degree <= 1 all second derivatives vanish and the matrix is zero.
    """
    k = basis.size
    if basis.degree <= 1:
        return np.zeros((k, k))

    breaks = np.unique(basis.knots)
    nodes, weights = np.polynomial.legendre.leggauss(max(basis.degree, 2))
    a = breaks[:-1]
    half = (breaks[1:] - a) / 2.0
    # all quadrature points across intervals, flattened
    pts = (a[:, None] + half[:, None] * (nodes[None, :] + 1.0)).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()

    d2 = _deriv_all(basis.knots, basis.degree, pts, 2)
    h = d2.T @ (wts[:, None] * d2)
    return (h + h.T) / 2.0


def assemble_block_penalty(block: np.ndarray, p: int) -> np.ndarray:
    """Block-diagonal penalty for ``p`` weight curves sharing one basis.

    The leading 1x1 block is zero so the constant intercept is never
    penalized; it is followed by ``p`` copies of ``block``.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    k = block.shape[0]
    out = np.zeros((1 + p * k, 1 + p * k))
    for j in range(p):
        lo = 1 + j * k
        out[lo : lo + k, lo : lo + k] = block
    return out
