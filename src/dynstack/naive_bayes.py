"""Multinomial naive Bayes over sparse bag-of-words node features.

Works in log space throughout, accepts real-valued term weights (counts
or TF-IDF), and smooths term likelihoods additively so unseen terms
never zero out a class.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import GraphParseError, _merge

# scipy loads in the functions that use it: runs without a graph never import it
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = ["SparseFeatures", "NaiveBayesModel", "parse_feature_file", "fit_nb", "predict_nb"]

ALPHA = 1.0  # additive (Laplace) smoothing of the term weights


@dataclass(frozen=True)
class SparseFeatures:
    """Node-by-term weight matrix plus the interned vocabulary."""

    matrix: csr_matrix
    vocabulary: list[str]

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True)
class NaiveBayesModel:
    log_priors: np.ndarray  # (C,)
    log_likelihoods: np.ndarray  # (C, V)


def parse_feature_file(lines, node_ids) -> SparseFeatures:
    """Parse ``node_id term:weight term:weight ...`` lines.

    Rows align with ``node_ids``; nodes absent from the file get empty
    feature vectors. Terms are interned in first-seen order, and a term
    repeated for one node sums its weights in file order; the first line
    at which such a sum overflows the float range raises.
    """
    index = {nid: i for i, nid in enumerate(node_ids)}
    vocab: dict[str, int] = {}
    rows, cols, vals = [], [], []
    starts = []  # (line number, index of its first weight) per data line
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        starts.append((lineno, len(vals)))
        parts = line.split()
        node_id = parts[0]
        if node_id not in index:
            raise GraphParseError(f"line {lineno}: features for unknown node {node_id!r}")
        for tok in parts[1:]:
            term, sep, weight = tok.rpartition(":")
            if not sep or not term:
                raise GraphParseError(f"line {lineno}: expected term:weight, got {tok!r}")
            try:
                w = float(weight)
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-numeric weight in {tok!r}") from None
            if w < 0 or not np.isfinite(w):
                raise GraphParseError(f"line {lineno}: invalid weight in {tok!r}")
            rows.append(index[node_id])
            cols.append(vocab.setdefault(term, len(vocab)))
            vals.append(w)
    vocabulary, shape = list(vocab), (len(node_ids), len(vocab))
    keys = np.asarray(rows, dtype=np.int64) * shape[1] + np.asarray(cols, dtype=np.int64)
    entries, sums, first = _merge(keys, np.asarray(vals, dtype=float))
    if first is not None:
        lineno = starts[bisect.bisect_right([at for _, at in starts], first) - 1][0]
        term = vocabulary[cols[first]]
        raise GraphParseError(
            f"line {lineno}: the weights of term {term!r} sum to a non-finite value"
        )
    from scipy.sparse import csr_matrix

    # the merged entries are distinct and sorted by node, then term: CSR order already
    node, column = np.divmod(entries, shape[1])
    indptr = np.searchsorted(node, np.arange(shape[0] + 1))
    return SparseFeatures(csr_matrix((sums, column, indptr), shape=shape), vocabulary)


def fit_nb(features: csr_matrix, labels: np.ndarray, n_classes: int) -> NaiveBayesModel:
    """Fit class priors and smoothed term likelihoods on training rows.

    ``features`` holds one row per training node. Every class index in
    ``0..n_classes-1`` must occur in ``labels``; a class with no training
    node cannot be estimated and raises, which is the signal upstream
    cross-validation uses to ask for larger folds. A class whose term
    weights sum past the float range raises too.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, v = features.shape
    if n == 0:
        raise ValueError("empty training set")
    if labels.shape != (n,):
        raise ValueError("labels length must match feature rows")
    counts = np.bincount(labels, minlength=n_classes)
    if np.any(counts == 0):
        missing = np.flatnonzero(counts == 0).tolist()
        raise ValueError(f"no training node for class(es) {missing}")

    log_priors = np.log(counts / n)
    term_counts = np.zeros((n_classes, v))
    for c in range(n_classes):
        rows = features[np.flatnonzero(labels == c)]
        term_counts[c] = np.asarray(rows.sum(axis=0)).ravel()
    smoothed = term_counts + ALPHA
    totals = smoothed.sum(axis=1, keepdims=True)
    if not np.isfinite(totals).all():
        c = int(np.argmax(~np.isfinite(totals[:, 0])))
        t = int(np.argmax(smoothed[c]))
        raise ValueError(f"class {c}: term weights sum past the float range (largest: term {t})")
    log_lik = np.log(smoothed) - np.log(totals)
    return NaiveBayesModel(log_priors, log_lik)


def predict_nb(model: NaiveBayesModel, features: csr_matrix) -> np.ndarray:
    """Per-row class probabilities; empty rows fall back to the priors. A row
    whose weights put every class score out of the float range raises."""
    vocab_size = model.log_likelihoods.shape[1]
    if features.shape[1] != vocab_size:
        raise ValueError(
            f"feature width {features.shape[1]} does not match vocabulary "
            f"size {vocab_size}"
        )
    from scipy.special import logsumexp

    scores = model.log_priors[None, :] + (features @ model.log_likelihoods.T)
    norm = logsumexp(scores, axis=1, keepdims=True)
    if not np.isfinite(norm).all():
        k = int(np.argmax(~np.isfinite(norm[:, 0])))
        raise ValueError(f"row {k}: its feature weights put every class score out of range")
    return np.exp(scores - norm)
