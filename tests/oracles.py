"""Independent reference implementations used only to check the library.

Everything here deliberately avoids the code paths under test: logistic
fits go through explicit iteratively-reweighted least squares on

``numpy.linalg.lstsq``, AUC enumerates all positive/negative pairs, the
curvature penalty integrates on a dense grid, and graph components come
from plain set expansion. The lasso working problem is solved by trying
every support and sign pattern. The Newton-step linear solve goes
through scipy's ``cho_factor``/``cho_solve`` wrappers, not LAPACK directly.
Collective inference re-scores every visited node on every sweep, once
in float arithmetic (the weighted-vote neighbour average ``wvrn_estimate``,
itself checked against a literal dictionary evaluation) and once in exact
rationals. Edges are read from ``Graph.adjacency()``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import cho_factor, cho_solve


def neg_loglik_reference(eta, y) -> float:
    """``sum(log(1 + exp(eta)) - y * eta)`` through ``np.logaddexp``."""
    eta = np.asarray(eta, dtype=float)
    return float(np.sum(np.logaddexp(0.0, eta) - np.asarray(y) * eta))


def irls_logistic(
    x: np.ndarray, y: np.ndarray, max_iter: int = 200, tol: float = 1e-12, pen=None
):
    """Logistic MLE by iteratively-reweighted least squares, from zero.

    ``pen`` adds ``sum_k pen[k] * b_k^2`` to the negative log-likelihood,
    as rows ``sqrt(2 pen[k]) e_k`` with a zero response appended to each
    weighted least-squares problem.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.zeros(x.shape[1])
    prior = np.empty((0, x.shape[1])) if pen is None else np.diag(np.sqrt(2.0 * np.asarray(pen)))
    for _ in range(max_iter):
        eta = x @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = mu * (1.0 - mu)
        # weighted least squares on the working response
        z = eta + (y - mu) / w
        sw = np.sqrt(w)
        new, *_ = np.linalg.lstsq(
            np.vstack([x * sw[:, None], prior]), np.r_[z * sw, np.zeros(len(prior))], rcond=None
        )
        if np.abs(new - beta).max() < tol:
            return new
        beta = new
    return beta


def lasso_quadratic_bruteforce(gram, c, strength: float) -> np.ndarray:
    """``argmin_b b'Gb/2 - c'b + strength * |b[1:]|_1`` by enumeration.

    Every sign pattern of ``b[1:]`` in {-1, 0, +1} (3^(d-1) of them, the
    intercept always free) fixes a reduced linear system. Its solution is a
    candidate when each coefficient carries its pattern's sign and each
    zero coefficient meets the KKT bound; the lowest objective wins.
    """
    gram = np.asarray(gram, dtype=float)
    c = np.asarray(c, dtype=float)
    d = len(c)
    best, best_val = None, np.inf
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=d - 1):
        signs = np.array((0.0,) + pattern)
        support = np.array([True] + [s != 0.0 for s in pattern])
        b = np.zeros(d)
        b[support] = np.linalg.solve(
            gram[np.ix_(support, support)], c[support] - strength * signs[support]
        )
        if np.any((b * signs <= 0.0) & (signs != 0.0)):
            continue
        resid = gram @ b - c
        if np.any(np.abs(resid[~support]) > strength * (1 + 1e-9) + 1e-12):
            continue
        val = 0.5 * b @ gram @ b - c @ b + strength * np.abs(b[1:]).sum()
        if val < best_val:
            best, best_val = b, val
    return best


def cholesky_solve_reference(a, g, jitter: float) -> np.ndarray:
    """The Newton-step solve of ``a x = g`` through scipy's Cholesky wrappers.

    Same algorithm as the library's: Jacobi equilibration, a diagonal
    jitter that escalates while the factorization fails, then lstsq. The
    same LAPACK routines run underneath, so results agree bit for bit.
    """
    d = np.sqrt(np.clip(np.diag(a), 1e-300, None))
    scaled = a / d[:, None] / d[None, :]
    rhs = g / d
    bump = jitter
    eye = np.eye(len(g))
    for _ in range(6):
        try:
            c = cho_factor(scaled + bump * eye, lower=True)
            return cho_solve(c, rhs) / d
        except np.linalg.LinAlgError:
            bump = max(bump * 100.0, 1e-14)
    x, *_ = np.linalg.lstsq(scaled + bump * eye, rhs, rcond=None)
    return x / d


def cv_walk_reference(x, y, fold_idx, grid, fit) -> np.ndarray:
    """Held-out scores of a cross-validation grid walk with no carried state
    and no shortcut: on each fold, ``fit(x_fit, y_fit, strength, coef0)``
    runs at every grid value from the last value's coefficients (None
    first) and every fit is scored. Fold copies are column-major and the
    score is the library's closed form of the negative log-likelihood,
    so the scores can be compared with the library's bit for bit.
    """
    scores = np.zeros(len(grid))
    for heldout in fold_idx:
        rows = np.setdiff1d(np.arange(len(y)), heldout)
        x_fit, coef = np.asfortranarray(x[rows]), None
        for gi, strength in enumerate(grid):
            coef = fit(x_fit, y[rows], strength, coef)
            eta = x[heldout] @ coef
            loss = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta))) - y[heldout] * eta
            scores[gi] += float(loss.sum())
    return scores


def brute_force_auc(scores, labels) -> float:
    """All-pairs AUC: wins count 1, ties count one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def dense_penalty_matrix(basis, points_per_interval: int = 10_001) -> np.ndarray:
    """Curvature penalty via Simpson's rule on dense knot-aligned grids.

    Simpson integrates the piecewise-quadratic second-derivative products
    of a cubic basis exactly, so at this density the only error is
    round-off; a plain trapezoid at the same density still carries an
    O(h^2) truncation error of about 1e-7 for unit domains.
    """
    from dynstack.splines import _deriv_all

    k = basis.size
    h = np.zeros((k, k))
    breaks = np.unique(basis.knots)
    for a, b in zip(breaks[:-1], breaks[1:]):
        xs = np.linspace(a, b, points_per_interval)
        d2 = _deriv_all(basis.knots, basis.degree, xs, 2)
        for m in range(k):
            for n in range(m, k):
                v = simpson(d2[:, m] * d2[:, n], x=xs)
                h[m, n] += v
                if m != n:
                    h[n, m] += v
    return h


def trapezoid_penalty_matrix(basis, n_points: int = 10_001) -> np.ndarray:
    """Plain dense trapezoid over the whole domain (coarser oracle)."""
    from dynstack.splines import _deriv_all

    xs = np.linspace(basis.u_lo, basis.u_hi, n_points)
    d2 = _deriv_all(basis.knots, basis.degree, xs, 2)
    k = basis.size
    h = np.zeros((k, k))
    for m in range(k):
        for n in range(m, k):
            v = np.trapezoid(d2[:, m] * d2[:, n], xs)
            h[m, n] = v
            h[n, m] = v
    return h


def connected_component_sets(n_nodes: int, edges) -> list[set[int]]:
    """Components by repeated set expansion over an explicit edge list."""
    linked = {i: set() for i in range(n_nodes)}
    for a, b in edges:
        linked[a].add(b)
        linked[b].add(a)
    seen: set[int] = set()
    comps = []
    for start in range(n_nodes):
        if start in seen:
            continue
        comp = {start}
        frontier = {start}
        while frontier:
            frontier = set().union(*(linked[v] for v in frontier)) - comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps


def neighbors(graph, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour indices and the matching edge weights of node ``i``, read
    from the CSR rows of ``graph.adjacency()``."""
    adj = graph.adjacency()
    lo, hi = adj.indptr[i], adj.indptr[i + 1]
    return adj.indices[lo:hi], adj.data[lo:hi]


@dataclass
class LabelState:
    """Per-node class distributions; rows with ``known`` False are null."""

    probs: np.ndarray  # (N, C)
    known: np.ndarray  # (N,) bool

    @classmethod
    def from_labels(cls, labels: np.ndarray, class_count: int) -> "LabelState":
        """Point masses on observed labels, null elsewhere (-1 = unobserved)."""
        n = len(labels)
        probs = np.zeros((n, class_count))
        known = labels >= 0
        probs[np.flatnonzero(known), labels[known]] = 1.0
        return cls(probs, known)


def wvrn_estimate(graph, node: int, state: LabelState) -> np.ndarray | None:
    """Edge-weighted average of the non-null neighbor distributions.

    Returns ``None`` when the node has no neighbors or all of them are
    null; that is an in-band outcome, not an error.
    """
    nbrs, wts = neighbors(graph, node)
    m = state.known[nbrs]
    w = wts[m]
    total = w.sum()
    if total == 0.0:  # no classified neighbour, or only zero-weight edges reach one
        return None
    return (w[:, None] * state.probs[nbrs[m]]).sum(axis=0) / total


def direct_wvrn(adjacency: dict, node: int, distributions: dict) -> np.ndarray | None:
    """Literal weighted-average evaluation from explicit dictionaries.

    ``adjacency`` maps node -> {neighbor: weight}; ``distributions`` maps
    node -> probability list for nodes whose state is known.
    """
    total = 0.0
    acc = None
    for j, w in adjacency.get(node, {}).items():
        if j not in distributions:
            continue
        contrib = w * np.asarray(distributions[j], dtype=float)
        acc = contrib if acc is None else acc + contrib
        total += w
    if acc is None or total == 0.0:
        return None
    return acc / total


def ica_reference(graph, labels, max_iterations: int, order_seed: int):
    """Collective inference by the literal sweep: every visit re-scores.

    Each visited node gets a fresh ``wvrn_estimate`` (itself checked
    against :func:`direct_wvrn`), so the result must equal ``ica_run``'s
    bit for bit; what this checks is that no re-score is skipped wrongly.
    Returns ``(probs, hard_labels, was_null, n_sweeps, converged)``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    c = graph.class_count
    state = LabelState.from_labels(labels, c)
    hard = labels.copy()
    test = np.flatnonzero(labels < 0)
    rng = np.random.default_rng(order_seed)
    sweeps, converged = 0, False
    while sweeps < max_iterations:
        sweeps += 1
        changed = False
        for i in rng.permutation(test):
            est = wvrn_estimate(graph, i, state)
            if est is None:
                continue
            label = int(np.argmax(est))
            changed = changed or label != hard[i]
            hard[i] = label
            state.probs[i] = 0.0
            state.probs[i, label] = 1.0
            state.known[i] = True
        if not changed:
            converged = True
            break
    probs = state.probs.copy()
    was_null = np.zeros(len(labels), dtype=bool)
    for i in test:
        est = wvrn_estimate(graph, i, state)
        if est is None:
            probs[i], was_null[i], hard[i] = 1.0 / c, True, 0
        else:
            probs[i] = est
    return probs, hard, was_null, sweeps, converged


def ica_exact_reference(graph, labels, max_iterations: int, order_seed: int):
    """The literal sweep of :func:`ica_reference` on exact rational scores.

    Every visit re-scores the node from ``Fraction`` sums of its known
    neighbours' edge weights, so the argmax (ties to the lowest class) is
    decided on exact values; each soft output is ``float`` of the exact
    ratio, the correctly rounded neighbour average. Returns
    ``(probs, hard_labels, was_null, n_sweeps, converged)``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    c = graph.class_count
    hard = labels.copy()
    known = labels >= 0
    test = np.flatnonzero(~known)

    def score(i):
        sums, total = [Fraction(0)] * c, Fraction(0)
        for j, w in zip(*neighbors(graph, i)):
            if known[j]:
                sums[hard[j]] += Fraction(float(w))
                total += Fraction(float(w))
        return None if total == 0 else [s / total for s in sums]

    rng = np.random.default_rng(order_seed)
    sweeps, converged = 0, False
    while sweeps < max_iterations:
        sweeps += 1
        changed = False
        for i in rng.permutation(test):
            est = score(i)
            if est is None:
                continue
            label = est.index(max(est))
            changed = changed or label != hard[i]
            hard[i], known[i] = label, True
        if not changed:
            converged = True
            break
    probs = np.zeros((len(labels), c))
    probs[np.flatnonzero(labels >= 0), labels[labels >= 0]] = 1.0
    was_null = np.zeros(len(labels), dtype=bool)
    for i in test:
        est = score(i)
        if est is None:
            probs[i], was_null[i], hard[i] = 1.0 / c, True, 0
        else:
            probs[i] = [float(v) for v in est]
    return probs, hard, was_null, sweeps, converged
