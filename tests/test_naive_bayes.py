import numpy as np
import pytest
from scipy.sparse import csr_matrix

from dynstack.graph import GraphParseError
from dynstack.naive_bayes import fit_nb, parse_feature_file, predict_nb


def features_from(rows, vocab_size):
    mat = np.zeros((len(rows), vocab_size))
    for i, row in enumerate(rows):
        for t, w in row:
            mat[i, t] += w
    return csr_matrix(mat)


class TestParseFeatureFile:
    def test_basic(self):
        f = parse_feature_file(["a w1:2 w2:1", "b w2:3"], ["a", "b"])
        assert f.vocabulary == ["w1", "w2"]
        np.testing.assert_array_equal(f.matrix.toarray(), [[2, 1], [0, 3]])

    def test_missing_nodes_get_empty_rows(self):
        f = parse_feature_file(["a w:1"], ["a", "b"])
        assert f.matrix[1].nnz == 0

    def test_unknown_node_rejected(self):
        with pytest.raises(GraphParseError, match="unknown node"):
            parse_feature_file(["z w:1"], ["a"])

    def test_bad_weight_rejected(self):
        with pytest.raises(GraphParseError):
            parse_feature_file(["a w:x"], ["a"])
        with pytest.raises(GraphParseError):
            parse_feature_file(["a w:-2"], ["a"])
        with pytest.raises(GraphParseError):
            parse_feature_file(["a justaterm"], ["a"])

    def test_term_with_colon(self):
        f = parse_feature_file(["a topic/ai:stats:2"], ["a"])
        assert f.vocabulary == ["topic/ai:stats"]


class TestFitNb:
    def test_smoothed_disjoint_terms(self):
        # one doc per class, each with a single distinct term, alpha=1:
        # own-term likelihood (1+1)/(1+2) = 2/3
        x = features_from([[(0, 1)], [(1, 1)]], 2)
        m = fit_nb(x, np.array([0, 1]), 2, alpha=1.0)
        np.testing.assert_allclose(np.exp(m.log_priors), [0.5, 0.5])
        np.testing.assert_allclose(np.exp(m.log_likelihoods[0]), [2 / 3, 1 / 3])
        np.testing.assert_allclose(np.exp(m.log_likelihoods[1]), [1 / 3, 2 / 3])

    def test_single_class_prior_point_mass(self):
        x = features_from([[(0, 1)], [(0, 2)]], 1)
        m = fit_nb(x, np.array([0, 0]), 1, alpha=1.0)
        np.testing.assert_allclose(np.exp(m.log_priors), [1.0])

    def test_alpha_zero_rejected(self):
        x = features_from([[(0, 1)]], 1)
        with pytest.raises(ValueError, match="alpha"):
            fit_nb(x, np.array([0]), 1, alpha=0.0)

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            fit_nb(csr_matrix((0, 3)), np.array([], dtype=int), 2)

    def test_missing_class_rejected(self):
        x = features_from([[(0, 1)], [(1, 1)]], 2)
        with pytest.raises(ValueError, match="class"):
            fit_nb(x, np.array([0, 0]), 2)

    def test_likelihood_rows_normalized(self):
        rng = np.random.default_rng(8)
        x = csr_matrix(rng.poisson(1.0, (30, 12)).astype(float))
        y = rng.integers(0, 3, 30)
        y[:3] = [0, 1, 2]
        m = fit_nb(x, y, 3, alpha=0.7)
        np.testing.assert_allclose(np.exp(m.log_likelihoods).sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(m.log_priors).sum(), 1.0, atol=1e-12)


class TestPredictNb:
    def _two_class_model(self):
        x = features_from([[(0, 1)], [(1, 1)]], 2)
        return fit_nb(x, np.array([0, 1]), 2, alpha=1.0)

    def test_empty_features_fall_back_to_priors(self):
        m = self._two_class_model()
        probs = predict_nb(m, csr_matrix((1, 2)))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_symmetric_term_is_uninformative(self):
        x = features_from([[(0, 1)], [(0, 1)]], 1)
        m = fit_nb(x, np.array([0, 1]), 2, alpha=1.0)
        probs = predict_nb(m, features_from([[(0, 4)]], 1))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_posterior_hand_computation(self):
        # doc = class-0's term once: posterior ratio (2/3) : (1/3)
        m = self._two_class_model()
        probs = predict_nb(m, features_from([[(0, 1)]], 2))
        np.testing.assert_allclose(probs, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(9)
        x = csr_matrix(rng.poisson(0.8, (40, 15)).astype(float))
        y = rng.integers(0, 4, 40)
        y[:4] = np.arange(4)
        m = fit_nb(x, y, 4)
        probs = predict_nb(m, x)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_weight_scaling_keeps_argmax_under_uniform_priors(self):
        x = features_from([[(0, 3), (1, 1)], [(1, 3), (0, 1)]], 2)
        m = fit_nb(x, np.array([0, 1]), 2, alpha=0.5)
        doc = features_from([[(0, 2), (1, 1)]], 2)
        doc_scaled = features_from([[(0, 2 * 7), (1, 1 * 7)]], 2)
        a = predict_nb(m, doc).argmax()
        b = predict_nb(m, doc_scaled).argmax()
        assert a == b

    def test_no_underflow_for_heavy_documents(self):
        m = self._two_class_model()
        heavy = features_from([[(0, 60_000), (1, 40_000)]], 2)
        probs = predict_nb(m, heavy)
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs[0, 0] > 0.99

    def test_vocab_width_mismatch_rejected(self):
        m = self._two_class_model()
        with pytest.raises(ValueError, match="vocabulary"):
            predict_nb(m, csr_matrix((1, 5)))
