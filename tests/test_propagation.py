"""Label propagation and error propagation calibration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.graph import (adjacency_from_edges, attach_to_original,
                         symmetric_normalize)
from repro.propagation import (
    error_propagation,
    label_propagation,
    propagate_scores,
    softmax_rows,
)


def two_cluster_operator(num_new=2):
    """The normalized operator of two 4-node cliques with inductive nodes
    hanging off one clique each (the inductive rows last)."""
    edges = []
    for block, offset in ((0, 0), (1, 4)):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append([offset + i, offset + j])
    adjacency = adjacency_from_edges(np.array(edges), 8)
    features = np.zeros((8, 2))
    import scipy.sparse as sp
    inc = sp.csr_matrix(
        (np.ones(num_new), (np.arange(num_new), [0, 4][:num_new])),
        shape=(num_new, 8))
    attached = attach_to_original(adjacency, features, inc,
                                  np.zeros((num_new, 2)))
    return symmetric_normalize(attached.adjacency)


class TestLabelPropagation:
    def test_propagates_cluster_labels(self):
        operator = two_cluster_operator()
        base_labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        scores = label_propagation(operator, base_labels, 2,
                                   prior=np.zeros((2, 2)), alpha=0.9,
                                   iterations=30)
        assert scores.shape == (2, 2)
        assert scores[0].argmax() == 0
        assert scores[1].argmax() == 1

    def test_prior_breaks_isolation(self):
        operator = two_cluster_operator(num_new=1)
        base_labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        prior = np.array([[0.0, 10.0]])
        scores = label_propagation(operator, base_labels, 2, prior=prior,
                                   alpha=0.2, iterations=3)
        # Weak propagation + strong prior: prior should still dominate.
        assert scores[0, 1] > scores[0, 0]

    def test_label_length_validation(self):
        # the prior counts the inductive rows; the labels must cover the rest
        operator = two_cluster_operator()
        for count in (3, 11):
            with pytest.raises(InferenceError):
                label_propagation(operator, np.zeros(count, dtype=int), 2,
                                  prior=np.zeros((2, 2)))

    def test_prior_shape_validation(self):
        operator = two_cluster_operator()
        with pytest.raises(InferenceError):
            label_propagation(operator, np.zeros(8, dtype=int), 2,
                              prior=np.zeros((5, 2)))

    def test_alpha_validation(self):
        operator = two_cluster_operator()
        with pytest.raises(InferenceError):
            label_propagation(operator, np.zeros(8, dtype=int), 2,
                              prior=np.zeros((2, 2)), alpha=1.0)

    def test_clamping_preserves_base_scores(self):
        operator = two_cluster_operator()
        initial = np.zeros((10, 2))
        initial[:8, 0] = 1.0
        out = propagate_scores(operator, initial, np.arange(8),
                               initial[:8], alpha=0.5, iterations=5)
        assert np.allclose(out[:8], initial[:8])


class TestErrorPropagation:
    def test_corrects_systematic_bias(self):
        operator = two_cluster_operator()
        base_labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        # Model systematically under-scores class 0 in cluster one.
        base_logits = np.zeros((8, 2))
        base_logits[:4, 1] = 1.0   # wrong: predicts class 1 in cluster 0
        base_logits[4:, 1] = 5.0   # right in cluster 1
        inductive_logits = np.zeros((2, 2))
        inductive_logits[:, 1] = 1.0  # both lean class 1
        corrected = error_propagation(operator, base_labels, base_logits,
                                      inductive_logits, 2, alpha=0.9,
                                      iterations=30, gamma=1.0)
        # Node 0 attaches to the biased cluster: correction flips it to 0.
        assert corrected[0].argmax() == 0
        # Node 1 attaches to the well-predicted cluster: stays class 1.
        assert corrected[1].argmax() == 1

    def test_zero_error_changes_nothing(self):
        operator = two_cluster_operator()
        base_labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        base_logits = np.full((8, 2), -20.0)
        base_logits[np.arange(8), base_labels] = 20.0
        inductive_logits = np.array([[0.5, 0.2], [0.1, 0.9]])
        corrected = error_propagation(operator, base_labels, base_logits,
                                      inductive_logits, 2, gamma=1.0)
        assert np.allclose(corrected, softmax_rows(inductive_logits), atol=1e-6)

    def test_shape_validation(self):
        operator = two_cluster_operator()
        with pytest.raises(InferenceError):
            error_propagation(operator, np.zeros(8, dtype=int),
                              np.zeros((5, 2)), np.zeros((2, 2)), 2)
        with pytest.raises(InferenceError):
            error_propagation(operator, np.zeros(8, dtype=int),
                              np.zeros((8, 2)), np.zeros((3, 2)), 2)
        with pytest.raises(InferenceError):
            error_propagation(operator, np.zeros(8, dtype=int),
                              np.zeros((8, 2)), np.zeros((2, 2)), 2, alpha=2.0)

    @pytest.mark.parametrize("alpha, iterations, gamma",
                             [(0.8, 20, 1.0), (0.5, 7, 0.3), (0.95, 1, 2.0)])
    def test_matches_the_unclamped_loop_bitwise(self, alpha, iterations,
                                                gamma):
        # EP runs LP's loop with no clamped rows; its scores are the
        # written-out EP recurrence's, bit for bit
        import scipy.sparse as sp

        from repro.tensor.functional import one_hot

        rng = np.random.default_rng(3)
        base = sp.random(30, 30, density=0.2, random_state=4, format="csr")
        incremental = sp.random(5, 30, density=0.3, random_state=5,
                                format="csr")
        attached = attach_to_original(base + base.T, np.zeros((30, 2)),
                                      incremental, np.zeros((5, 2)))
        base_labels = rng.integers(0, 3, size=30)
        base_logits = rng.normal(size=(30, 3))
        inductive_logits = rng.normal(size=(5, 3))

        errors = np.zeros((35, 3))
        errors[:30] = one_hot(base_labels, 3) - softmax_rows(base_logits)
        operator = symmetric_normalize(attached.adjacency, self_loops=True)
        anchor = errors.copy()
        for _ in range(iterations):
            errors = alpha * (operator @ errors) + (1.0 - alpha) * anchor
        expected = softmax_rows(inductive_logits) + gamma * errors[30:]

        corrected = error_propagation(operator, base_labels, base_logits,
                                      inductive_logits, 3, alpha=alpha,
                                      iterations=iterations, gamma=gamma)
        assert np.array_equal(corrected, expected)


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        out = softmax_rows(np.random.default_rng(0).standard_normal((4, 5)))
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_stable_for_large_values(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
