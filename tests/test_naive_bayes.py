import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from dynstack import naive_bayes
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

    def test_repeated_term_summing_to_infinity_rejected(self):
        # each weight is finite, their sum is not; it used to load as inf, and
        # predict_nb then returned NaN probabilities without an error
        lines = ["a t:1 u:2", "# comment", "b u:1e308 t:1", "", "b u:1e308"]
        with pytest.raises(GraphParseError, match="line 5: the weights of term 'u' sum to a non-finite"):
            parse_feature_file(lines, ["a", "b"])
        with pytest.raises(GraphParseError, match="line 1: the weights of term 't' sum"):
            parse_feature_file(["a t:1e308 t:1e308", "b t:1"], ["a", "b"])
        # both sums overflow; b's term t does so first, on line 3
        lines = ["b t:1e308", "a u:1e308", "b t:1e308", "a u:1e308"]
        with pytest.raises(GraphParseError, match="^line 3: the weights of term 't' sum"):
            parse_feature_file(lines, ["a", "b"])


# ids and terms are whitespace-free printable ASCII; ids do not open a comment
# line, and terms may hold ':' since a token splits at its last one
_ids = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=5).filter(
    lambda s: not s.startswith("#")
)
_terms = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=5)


@st.composite
def _feature_files(draw):
    """``(node_ids, lines, tokens)``: every node id, the file's lines, and its
    ``(id, term, weight)`` tokens in file order. A node's term appears up to
    four times, so its summed weight can depend on the order of addition."""
    node_ids = draw(st.lists(_ids, min_size=1, max_size=6, unique=True))
    pairs = st.tuples(st.sampled_from(node_ids), _terms)
    weights = st.floats(0.0, allow_infinity=False, allow_subnormal=True)
    entries = draw(st.lists(pairs, max_size=12, unique=True))
    copies = draw(st.lists(st.integers(0, 3), min_size=len(entries), max_size=len(entries)))
    repeats = [entry for entry, k in zip(entries, copies) for _ in range(k)]
    tokens = draw(st.permutations([(nid, term, draw(weights)) for nid, term in entries + repeats]))
    lines = []
    for k, (nid, term, w) in enumerate(tokens):  # a node's consecutive tokens may share a line
        if k and tokens[k - 1][0] == nid and draw(st.booleans()):
            lines[-1] += f" {term}:{w!r}"
        else:
            lines.append(f"{nid} {term}:{w!r}")
    return node_ids, lines, tokens


class TestFeatureFileRoundTrip:
    @given(case=_feature_files())
    def test_write_then_read_is_exact(self, case):
        node_ids, lines, tokens = case
        vocabulary = list(dict.fromkeys(term for _, term, _ in tokens))
        sums = {}
        for nid, term, w in tokens:
            sums[nid, term] = sums.get((nid, term), 0.0) + w
        expected = np.zeros((len(node_ids), len(vocabulary)))
        for (nid, term), w in sums.items():
            expected[node_ids.index(nid), vocabulary.index(term)] = w
        if not np.isfinite(expected).all():  # finite weights whose sum overflows
            with pytest.raises(GraphParseError, match="sum to a non-finite value"):
                parse_feature_file(lines, node_ids)
            return
        f = parse_feature_file(lines, node_ids)
        assert f.vocabulary == vocabulary
        assert f.matrix.shape == expected.shape
        assert f.matrix.toarray().tobytes() == expected.tobytes()


class TestFitNb:
    def test_smoothed_disjoint_terms(self):
        # one doc per class, each with a single distinct term, ALPHA = 1:
        # own-term likelihood (1+1)/(1+2) = 2/3
        x = features_from([[(0, 1)], [(1, 1)]], 2)
        m = fit_nb(x, np.array([0, 1]), 2)
        np.testing.assert_allclose(np.exp(m.log_priors), [0.5, 0.5])
        np.testing.assert_allclose(np.exp(m.log_likelihoods[0]), [2 / 3, 1 / 3])
        np.testing.assert_allclose(np.exp(m.log_likelihoods[1]), [1 / 3, 2 / 3])

    def test_single_class_prior_point_mass(self):
        x = features_from([[(0, 1)], [(0, 2)]], 1)
        m = fit_nb(x, np.array([0, 0]), 1)
        np.testing.assert_allclose(np.exp(m.log_priors), [1.0])

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            fit_nb(csr_matrix((0, 3)), np.array([], dtype=int), 2)

    def test_missing_class_rejected(self):
        x = features_from([[(0, 1)], [(1, 1)]], 2)
        with pytest.raises(ValueError, match="class"):
            fit_nb(x, np.array([0, 0]), 2)

    def test_likelihood_rows_normalized(self, monkeypatch):
        monkeypatch.setattr(naive_bayes, "ALPHA", 0.7)
        rng = np.random.default_rng(8)
        x = csr_matrix(rng.poisson(1.0, (30, 12)).astype(float))
        y = rng.integers(0, 3, 30)
        y[:3] = [0, 1, 2]
        m = fit_nb(x, y, 3)
        np.testing.assert_allclose(np.exp(m.log_likelihoods).sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(m.log_priors).sum(), 1.0, atol=1e-12)


    def test_term_weights_past_the_float_range_rejected(self):
        # 1e308 + 1e308 overflows: log(inf) - log(inf) made the row NaN
        f = parse_feature_file(["a t:1e308 u:1", "b t:1e308"], ["a", "b"])
        with pytest.raises(ValueError, match=r"^class 0: .* float range \(largest: term 0\)$"):
            fit_nb(f.matrix, np.array([0, 0]), 1)

class TestPredictNb:
    def _two_class_model(self):
        x = features_from([[(0, 1)], [(1, 1)]], 2)
        return fit_nb(x, np.array([0, 1]), 2)

    def test_empty_features_fall_back_to_priors(self):
        m = self._two_class_model()
        probs = predict_nb(m, csr_matrix((1, 2)))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_symmetric_term_is_uninformative(self):
        x = features_from([[(0, 1)], [(0, 1)]], 1)
        m = fit_nb(x, np.array([0, 1]), 2)
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

    def test_weight_scaling_keeps_argmax_under_uniform_priors(self, monkeypatch):
        monkeypatch.setattr(naive_bayes, "ALPHA", 0.5)
        x = features_from([[(0, 3), (1, 1)], [(1, 3), (0, 1)]], 2)
        m = fit_nb(x, np.array([0, 1]), 2)
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

    def test_row_whose_scores_all_leave_the_float_range_rejected(self):
        # every class gives term 0 a log-likelihood below -1, so 1e308 of it
        # scores -inf in both classes and the normalization made the row NaN
        x = features_from([[(k, 1) for k in range(1, 10)]] * 2, 10)
        m = fit_nb(x, np.array([0, 1]), 2)
        doc = features_from([[], [(0, 1e308)]], 10)
        with pytest.raises(ValueError, match="^row 1: "):
            predict_nb(m, doc)
