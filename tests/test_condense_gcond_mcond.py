"""GCond and MCond reducers: components and end-to-end behaviour."""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import CondensationError
from repro.condense import (
    GCondConfig,
    GCondReducer,
    MappingMatrix,
    MCondConfig,
    MCondReducer,
    MCondResult,
    PairwiseAdjacency,
    dense_normalize_tensor,
)
from repro.condense import mcond as mcond_module
from repro.condense.gcond import (_classifier_loss, _draw_theta0,
                                  _fit_classifier, pretrain_adjacency_model)
from repro.condense.losses import (
    gradient_matching_loss,
    inductive_loss,
    structure_loss,
    transductive_loss,
)
from repro.condense.mcond import _TransductiveFactors
from repro.graph.datasets import IncrementalBatch
from repro.graph.incremental import attach_to_synthetic
from repro.graph.ops import symmetric_normalize
from repro.graph.sampling import EdgeBatch, sample_edge_batch
from repro.nn.models import SGC
from repro.tensor import (
    Tensor,
    concat,
    gather_rows,
    grad,
    gradcheck,
    gradgradcheck,
    mul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    spmm,
    tensor_sum,
)
from repro.tensor.tensor import make_op
from test_condense_losses_mapping import explicit_structure_loss, taped_normalized

RNG = np.random.default_rng(6)


# ----------------------------------------------------------------------
# Reference generator: Eq. (6) evaluated literally, one concatenated
# ``[x_i; x_j]`` row per ordered pair pushed through the whole MLP.
# ----------------------------------------------------------------------
def _concat_pair_logits(model, features_a, features_b):
    forward_score = model.layer_out(
        relu(model.layer_in(concat([features_a, features_b], axis=1))))
    backward_score = model.layer_out(
        relu(model.layer_in(concat([features_b, features_a], axis=1))))
    return reshape((forward_score + backward_score) * Tensor(0.5), (-1,))


def _concat_forward(model, features):
    n = features.shape[0]
    scores = _concat_pair_logits(model,
                                 gather_rows(features, np.repeat(np.arange(n), n)),
                                 gather_rows(features, np.tile(np.arange(n), n)))
    return mul(sigmoid(reshape(scores, (n, n))), Tensor(1.0 - np.eye(n)))


def _generator(feature_dim, hidden, nodes, seed=0):
    """A model with a non-zero bias (the init is zeros) and features."""
    rng = np.random.default_rng(seed)
    model = PairwiseAdjacency(feature_dim, hidden=hidden, seed=seed)
    model.layer_in.bias.data[:] = 0.1 * rng.standard_normal(hidden)
    model.layer_out.bias.data[:] = 0.1 * rng.standard_normal(1)
    features = Tensor(rng.standard_normal((nodes, feature_dim)),
                      requires_grad=True)
    weights = Tensor(rng.standard_normal((nodes, nodes)))
    return model, features, weights


def _forward_and_grads(forward, model, features, weights):
    adjacency = forward(model, features)
    loss = tensor_sum(mul(adjacency, weights))
    grads = grad(loss, [features] + model.parameters())
    return adjacency.data, [g.data for g in grads]


class TestFactorisedGenerator:
    """The per-node first layer against the literal per-pair MLP."""

    def test_matches_concat_oracle(self):
        model, features, weights = _generator(7, 16, 11)
        ours, our_grads = _forward_and_grads(
            PairwiseAdjacency.forward, model, features, weights)
        ref, ref_grads = _forward_and_grads(
            _concat_forward, model, features, weights)
        assert np.abs(ours - ref).max() < 1e-12
        assert len(our_grads) == 5  # features + the four parameters
        for got, want in zip(our_grads, ref_grads):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_gradcheck_and_gradgradcheck(self):
        # matching differentiates the generator twice
        model, features, weights = _generator(3, 4, 4, seed=1)
        inputs = [features] + model.parameters()

        def loss(x, *params):
            return tensor_sum(mul(model(x), weights))

        assert gradcheck(loss, inputs)
        assert gradgradcheck(loss, inputs)

    def test_pair_logits_agree_with_forward_off_diagonal(self):
        model, features, _ = _generator(5, 8, 9, seed=2)
        rows, cols = np.nonzero(~np.eye(9, dtype=bool))
        logits = model.pair_logits(gather_rows(features, rows),
                                   gather_rows(features, cols))
        assert logits.shape == (rows.size,)
        np.testing.assert_allclose(sigmoid(logits).data,
                                   model(features).data[rows, cols],
                                   rtol=0, atol=1e-13)
        ref = _concat_pair_logits(model, gather_rows(features, rows),
                                  gather_rows(features, cols))
        np.testing.assert_allclose(logits.data, ref.data, rtol=0, atol=1e-12)

    def test_peak_memory_below_a_third_of_the_oracle(self):
        # the reddit-sim budget-82 shape: N'=82 synthetic nodes, d=160
        model, features, weights = _generator(160, 64, 82, seed=3)
        peaks = []
        for forward in (PairwiseAdjacency.forward, _concat_forward):
            tracemalloc.start()
            try:
                _forward_and_grads(forward, model, features, weights)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        ours, oracle = peaks
        assert ours < oracle / 3, (ours, oracle)


class TestPairwiseAdjacency:
    def test_output_symmetric_zero_diagonal(self):
        model = PairwiseAdjacency(4, hidden=8, seed=0)
        features = Tensor(RNG.standard_normal((6, 4)))
        adjacency = model(features).data
        assert np.allclose(adjacency, adjacency.T)
        assert np.allclose(np.diag(adjacency), 0.0)

    def test_output_in_unit_interval(self):
        model = PairwiseAdjacency(4, hidden=8, seed=0)
        adjacency = model(Tensor(RNG.standard_normal((5, 4)))).data
        assert (adjacency >= 0).all() and (adjacency <= 1).all()

    def test_differentiable_in_features(self):
        model = PairwiseAdjacency(3, hidden=8, seed=0)
        features = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        out = tensor_sum(model(features))
        (g,) = grad(out, [features])
        assert g.shape == features.shape

    def test_pretraining_separates_classes(self):
        model = PairwiseAdjacency(4, hidden=16, seed=0)
        rng = np.random.default_rng(0)
        classes = np.repeat([0, 1], 30)
        feats = classes[:, None] * 4.0 + rng.standard_normal((60, 4)) * 0.3
        pretrain_adjacency_model(model, feats, classes, steps=80, rng=rng)
        adjacency = model(Tensor(feats[[0, 1, 30, 31]])).data
        same = adjacency[0, 1]
        cross = adjacency[0, 2]
        assert same > cross

    def test_pretrain_shape_validation(self):
        model = PairwiseAdjacency(2, hidden=4, seed=0)
        with pytest.raises(CondensationError):
            pretrain_adjacency_model(model, np.ones((3, 2)), np.zeros(4))

    def test_pretrain_zero_steps_noop(self):
        model = PairwiseAdjacency(2, hidden=4, seed=0)
        before = model.layer_in.weight.data.copy()
        pretrain_adjacency_model(model, np.ones((3, 2)), np.zeros(3), steps=0)
        assert np.allclose(before, model.layer_in.weight.data)


class TestDenseNormalizeTensor:
    def test_matches_numpy_normalization(self):
        from repro.graph.ops import dense_symmetric_normalize
        adjacency = np.abs(RNG.standard_normal((5, 5)))
        adjacency = 0.5 * (adjacency + adjacency.T)
        np.fill_diagonal(adjacency, 0.0)
        ours = dense_normalize_tensor(Tensor(adjacency)).data
        reference = dense_symmetric_normalize(adjacency, self_loops=True)
        assert np.allclose(ours, reference, atol=1e-6)

    def test_differentiable(self):
        adjacency = Tensor(np.abs(RNG.standard_normal((4, 4))),
                           requires_grad=True)
        out = tensor_sum(dense_normalize_tensor(adjacency))
        (g,) = grad(out, [adjacency])
        assert g.shape == (4, 4)

    def test_rejects_nonsquare(self):
        with pytest.raises(CondensationError):
            dense_normalize_tensor(Tensor(np.ones((2, 3))))


class TestRelay:
    """The deployed :class:`SGC` as condensation's relay, with the loop's
    ``theta_0`` redraw and classifier helpers."""

    def test_sparse_propagation_matches_dense(self, tiny_split):
        graph = tiny_split.original
        relay = SGC(graph.feature_dim, tiny_split.num_classes, k_hops=2)
        operator = symmetric_normalize(graph.adjacency)
        with no_grad():
            const = relay.embed(operator, graph.features).data
        tensor_version = relay.embed(Tensor(operator.toarray()),
                                     Tensor(graph.features)).data
        assert np.allclose(const, tensor_version, atol=1e-8)

    def test_theta0_draw_changes_parameters(self):
        relay = SGC(4, 3, seed=0)
        before = relay.classifier.weight.data.copy()
        _draw_theta0(relay, 99)
        assert not np.allclose(before, relay.classifier.weight.data)
        # seed 0 redraws what the constructor drew
        _draw_theta0(relay, 0)
        assert np.array_equal(before, relay.classifier.weight.data)

    def test_fit_classifier_reduces_loss(self):
        relay = SGC(4, 2, seed=0)
        embedding = np.vstack([RNG.standard_normal((20, 4)) + 3,
                               RNG.standard_normal((20, 4)) - 3])
        labels = np.repeat([0, 1], 20)
        loss_before = _classifier_loss(relay, Tensor(embedding), labels).item()
        _fit_classifier(relay, embedding, labels, steps=50, lr=0.1)
        loss_after = _classifier_loss(relay, Tensor(embedding), labels).item()
        assert loss_after < loss_before


class TestGCondReducer:
    def test_output_structure(self, tiny_split):
        config = GCondConfig(outer_loops=1, match_steps=2,
                             adjacency_pretrain_steps=20, seed=0)
        condensed = GCondReducer(config).reduce(tiny_split, 9)
        assert condensed.num_nodes == 9
        assert condensed.method == "gcond"
        assert condensed.mapping is None  # plain GC cannot attach

    def test_labels_cover_classes_proportionally(self, tiny_split):
        config = GCondConfig(outer_loops=1, match_steps=2,
                             adjacency_pretrain_steps=10, seed=0)
        condensed = GCondReducer(config).reduce(tiny_split, 9)
        assert np.unique(condensed.labels).size == tiny_split.num_classes

    def test_mcond_without_structure_loss_is_gcond(self, tiny_split):
        # one Algorithm 1 loop: without L_str (and with no support draw on
        # tiny-sim) MCond's mapping phase never touches X' or MLP_Phi
        settings = dict(outer_loops=2, match_steps=3,
                        adjacency_pretrain_steps=20, seed=3)
        gcond = GCondReducer(GCondConfig(**settings)).reduce(tiny_split, 9)
        mcond = MCondReducer(MCondConfig(lambda_structure=0.0, mapping_steps=4,
                                         **settings)).reduce(tiny_split, 9)
        assert np.array_equal(gcond.features, mcond.features)
        assert np.array_equal(gcond.adjacency, mcond.adjacency)
        assert mcond.supports_attachment()

    def test_config_validation(self):
        with pytest.raises(CondensationError):
            GCondConfig(outer_loops=0)
        with pytest.raises(CondensationError):
            GCondConfig(k_hops=0)


class TestMCondReducer:
    def test_result_has_histories(self, tiny_mcond_result):
        result = tiny_mcond_result
        assert len(result.mapping_losses) > 0
        assert len(result.transductive_losses) == len(result.mapping_losses)
        assert len(result.inductive_losses) == len(result.mapping_losses)

    def test_mapping_loss_decreases(self, tiny_split):
        config = MCondConfig(outer_loops=1, match_steps=2, mapping_steps=25,
                             adjacency_pretrain_steps=20, seed=0)
        reducer = MCondReducer(config)
        reducer.reduce(tiny_split, 9)
        losses = reducer.last_result.mapping_losses
        assert losses[-1] < losses[0]
        assert reducer._run is None  # M's optimizer and H_sup are released

    def test_condensed_supports_attachment(self, tiny_condensed):
        assert tiny_condensed.supports_attachment()
        assert tiny_condensed.method == "mcond"

    def test_mapping_shape(self, tiny_condensed, tiny_split):
        assert tiny_condensed.mapping.shape == (
            tiny_split.original.num_nodes, tiny_condensed.num_nodes)

    def test_threshold_resweep_without_retraining(self, tiny_mcond_result):
        loose = tiny_mcond_result.condensed_with_threshold(0.0)
        tight = tiny_mcond_result.condensed_with_threshold(0.3)
        assert tight.mapping.nnz <= loose.mapping.nnz

    def test_ablation_flags_skip_losses(self, tiny_split):
        config = MCondConfig(outer_loops=1, match_steps=2, mapping_steps=4,
                             adjacency_pretrain_steps=10,
                             use_inductive_loss=False, seed=0)
        reducer = MCondReducer(config)
        reducer.reduce(tiny_split, 9)
        assert reducer.last_result.inductive_losses == []

    def test_random_init_flag(self, tiny_split):
        config = MCondConfig(outer_loops=1, match_steps=2, mapping_steps=4,
                             adjacency_pretrain_steps=10,
                             class_aware_init=False, seed=0)
        reducer = MCondReducer(config)
        condensed = reducer.reduce(tiny_split, 9)
        assert condensed.supports_attachment()

    def test_config_validation(self):
        with pytest.raises(CondensationError):
            MCondConfig(mapping_steps=0)
        with pytest.raises(CondensationError):
            MCondConfig(lambda_structure=-1.0)

    def test_budget_checks(self, tiny_split):
        with pytest.raises(CondensationError):
            MCondReducer().reduce(tiny_split, 1)

    def test_condenses_what_the_reference_generator_condenses(
            self, tiny_split, monkeypatch):
        config = MCondConfig(outer_loops=2, match_steps=3, mapping_steps=5,
                             adjacency_pretrain_steps=30, seed=5)
        runs = []
        for reference in (False, True):
            with monkeypatch.context() as patch:
                if reference:
                    patch.setattr(PairwiseAdjacency, "forward", _concat_forward)
                    patch.setattr(PairwiseAdjacency, "pair_logits",
                                  _concat_pair_logits)
                    patch.setattr(MCondReducer, "_matching_step",
                                  _two_pass_matching_step)
                reducer = MCondReducer(config)
                condensed = reducer.reduce(tiny_split, 9)
            runs.append((condensed, reducer.last_result))
        (ours, our_result), (ref, ref_result) = runs
        np.testing.assert_allclose(our_result.mapping.normalized_array(),
                                   ref_result.mapping.normalized_array(),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(our_result.synthetic_adjacency_dense,
                                   ref_result.synthetic_adjacency_dense,
                                   rtol=0, atol=1e-9)
        assert np.count_nonzero(ours.adjacency) == np.count_nonzero(ref.adjacency)
        assert ours.mapping.nnz == ref.mapping.nnz


def _two_pass_matching_step(self, relay, propagated, graph, labeled,
                            synthetic_features, adjacency_model, labels_syn,
                            feature_opt, adjacency_opt):
    """Reference matching step: the structure-loss hook gets its own
    generator → normalize → embed pass over the same features and
    parameters instead of sharing the matching loss's embedding."""
    def embed():
        adjacency = adjacency_model(synthetic_features)
        return relay.embed(dense_normalize_tensor(adjacency),
                           synthetic_features)

    original_grads = self._original_gradients(relay, propagated, graph, labeled)
    loss_syn = _classifier_loss(relay, embed(), labels_syn)
    synthetic_grads = grad(loss_syn, relay.parameters(), create_graph=True)
    matching = (gradient_matching_loss(original_grads, synthetic_grads)
                + self._extra_synthetic_loss(embed()))
    grads = grad(matching, [synthetic_features] + adjacency_model.parameters(),
                 allow_unused=True)
    feature_opt.apply_grads(grads[:1])
    adjacency_opt.apply_grads(grads[1:])
    feature_opt.step()
    adjacency_opt.step()


# ----------------------------------------------------------------------
# Reference Eq. 8 hook: the structure loss on the explicit (N, d)
# reconstruction ``M H'``, drawing the same edge batch.
# ----------------------------------------------------------------------
def _explicit_structure_hook(self, embedding):
    config = self.config
    if not config.use_structure_loss or config.lambda_structure == 0:
        return Tensor(0.0)
    run = self._run
    batch = sample_edge_batch(run.adjacency, config.edge_batch_size,
                              run.edge_rng)
    loss = explicit_structure_loss(run.snapshot, embedding, batch)
    return Tensor(config.lambda_structure) * loss


# ----------------------------------------------------------------------
# Reference mapping step: L_M = L_tra + beta * L_ind with the whole of
# Eq. 15, Eq. 10 (explicit residual ``H - M H'``) and the Eq. 11 ``aM``
# on the autodiff tape.
# ----------------------------------------------------------------------
def _taped_mapping_step(self, mapping, mapping_opt, relay, transductive,
                        adjacency_const, synthetic_features, support,
                        support_original, result):
    config = self.config
    normalized = taped_normalized(mapping)
    loss = transductive_loss(transductive.original, transductive.synthetic,
                             normalized)
    result.transductive_losses.append(loss.item())
    if config.use_inductive_loss and config.beta_inductive > 0:
        support_synthetic = self._support_embedding_synthetic(
            relay, adjacency_const, synthetic_features, support,
            spmm(support.incremental, normalized))
        ind = inductive_loss(support_original, support_synthetic)
        result.inductive_losses.append(ind.item())
        loss = loss + Tensor(config.beta_inductive) * ind
    result.mapping_losses.append(loss.item())
    grads = grad(loss, [mapping.raw])
    mapping_opt.apply_grads(grads)
    mapping_opt.step()


class _CaptureGrad:
    """Optimizer stand-in that keeps the gradient a step hands it."""

    def apply_grads(self, grads):
        (self.grad,) = [g.data for g in grads]

    def step(self):
        pass


def _mapping_inputs(num_original=40, num_synthetic=6, feature_dim=5,
                    num_support=7, epsilon=1e-5, random_init=False, seed=0):
    """Everything ``_mapping_step`` reads, at an arbitrary small shape."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, num_original)
    labels_syn = np.arange(num_synthetic) % 3
    if random_init:
        mapping = MappingMatrix.random(num_original, num_synthetic,
                                       epsilon=epsilon, seed=seed)
    else:
        mapping = MappingMatrix.class_aware(labels, labels_syn,
                                            epsilon=epsilon, seed=seed)
    relay = SGC(feature_dim, 3, k_hops=2, seed=seed)
    adjacency = rng.uniform(size=(num_synthetic, num_synthetic))
    adjacency = np.triu(adjacency, 1) + np.triu(adjacency, 1).T
    synthetic_features = rng.standard_normal((num_synthetic, feature_dim))
    synthetic_embed = relay.embed(
        dense_normalize_tensor(Tensor(adjacency)),
        Tensor(synthetic_features)).data
    incremental = sp.random(num_support, num_original, density=0.05,
                            random_state=seed, format="csr")
    incremental.data[:] = 1.0
    intra = sp.random(num_support, num_support, density=0.2,
                      random_state=seed + 1, format="csr")
    intra = ((intra + intra.T) > 0).astype(np.float64).tocsr()
    support = IncrementalBatch(
        features=rng.standard_normal((num_support, feature_dim)),
        incremental=incremental, intra=intra,
        labels=np.zeros(num_support, dtype=np.int64))
    return dict(mapping=mapping, relay=relay,
                propagated=rng.standard_normal((num_original, feature_dim)),
                synthetic_embed=synthetic_embed, adjacency_const=adjacency,
                synthetic_features=synthetic_features, support=support,
                support_original=rng.standard_normal((num_support, feature_dim)))


def _run_step(step, config, inputs):
    """One mapping step with a capturing optimizer: ``(result, g_raw)``."""
    capture = _CaptureGrad()
    result = MCondResult(condensed=None, mapping=inputs["mapping"],
                         synthetic_adjacency_dense=None)
    step(MCondReducer(config), inputs["mapping"], capture, inputs["relay"],
         _TransductiveFactors(inputs["propagated"], inputs["synthetic_embed"]),
         inputs["adjacency_const"], inputs["synthetic_features"],
         inputs["support"], inputs["support_original"], result)
    return result, capture.grad


_LOSS_LISTS = ("transductive_losses", "inductive_losses", "mapping_losses")


class TestClosedFormMappingStep:
    """``MCondReducer._mapping_step`` against the taped oracle step."""

    @pytest.mark.parametrize("config_kwargs, input_kwargs", [
        ({}, {}),
        ({}, {"epsilon": 0.0}),
        ({"use_inductive_loss": False}, {}),
        ({"beta_inductive": 0.0}, {}),
        ({}, {"random_init": True}),
        ({"beta_inductive": 3.0}, {"random_init": True, "epsilon": 0.0}),
    ])
    def test_matches_taped_oracle(self, config_kwargs, input_kwargs):
        config = MCondConfig(**config_kwargs)
        inputs = _mapping_inputs(**input_kwargs)
        # the support block's self-loops are part of what is compared
        assert inputs["support"].intra.diagonal().any()
        ours, our_grad = _run_step(MCondReducer._mapping_step, config, inputs)
        ref, ref_grad = _run_step(_taped_mapping_step, config, inputs)
        for name in _LOSS_LISTS:
            got, want = getattr(ours, name), getattr(ref, name)
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        inductive = config.use_inductive_loss and config.beta_inductive > 0
        assert len(ours.inductive_losses) == int(inductive)
        scale = np.abs(ref_grad).max()
        assert scale > 0
        np.testing.assert_allclose(our_grad, ref_grad, rtol=0,
                                   atol=1e-12 * scale)

    def test_eq10_gradient_gradcheck(self, monkeypatch):
        # identity Eq. 15: the captured gradient is dL_tra/dM itself
        monkeypatch.setattr(MappingMatrix, "normalized_with_vjp",
                            lambda self: (self.raw.data.copy(), np.copy))
        config = MCondConfig(use_inductive_loss=False)
        inputs = _mapping_inputs(num_original=6, num_synthetic=3,
                                 feature_dim=4)
        self._gradcheck_step(config, inputs, "transductive_losses")

    def test_full_step_gradcheck(self):
        config = MCondConfig(beta_inductive=2.0)
        inputs = _mapping_inputs(num_original=12, num_synthetic=4,
                                 feature_dim=3, num_support=5, epsilon=0.05,
                                 random_init=True)
        self._gradcheck_step(config, inputs, "mapping_losses")

    @staticmethod
    def _gradcheck_step(config, inputs, losses):
        def step_loss(raw):
            inputs["mapping"].raw.data[:] = raw.data
            result, g_raw = _run_step(MCondReducer._mapping_step, config, inputs)
            return make_op(np.array(getattr(result, losses)[0]), (raw,),
                           lambda g: (mul(g, Tensor(g_raw)),), "mapping_step")

        raw = Tensor(inputs["mapping"].raw.data.copy(), requires_grad=True)
        assert gradcheck(step_loss, [raw], atol=1e-7, rtol=1e-5)

    def test_reducer_matches_taped_oracle(self, tiny_split, monkeypatch):
        config = MCondConfig(outer_loops=2, match_steps=2, mapping_steps=6,
                             adjacency_pretrain_steps=20, seed=9)
        runs = []
        for reference in (False, True):
            with monkeypatch.context() as patch:
                if reference:
                    patch.setattr(MCondReducer, "_mapping_step",
                                  _taped_mapping_step)
                reducer = MCondReducer(config)
                condensed = reducer.reduce(tiny_split, 9)
            runs.append((condensed, reducer.last_result))
        (ours, our_result), (ref, ref_result) = runs
        np.testing.assert_allclose(our_result.mapping.normalized_array(),
                                   ref_result.mapping.normalized_array(),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(our_result.synthetic_adjacency_dense,
                                   ref_result.synthetic_adjacency_dense,
                                   rtol=0, atol=1e-9)
        for name in _LOSS_LISTS:
            np.testing.assert_allclose(getattr(our_result, name),
                                       getattr(ref_result, name),
                                       rtol=1e-9, atol=0)
        assert np.count_nonzero(ours.adjacency) == np.count_nonzero(ref.adjacency)
        assert ours.mapping.nnz == ref.mapping.nnz

    def test_reducer_matches_explicit_structure_loss(self, tiny_split,
                                                     monkeypatch):
        # the matching steps' Eq. 8 hook against the (N, d) reconstruction
        config = MCondConfig(outer_loops=2, match_steps=3, mapping_steps=4,
                             adjacency_pretrain_steps=20, lambda_structure=1.0,
                             seed=11)
        runs = []
        for reference in (False, True):
            with monkeypatch.context() as patch:
                if reference:
                    patch.setattr(MCondReducer, "_extra_synthetic_loss",
                                  _explicit_structure_hook)
                reducer = MCondReducer(config)
                condensed = reducer.reduce(tiny_split, 9)
            runs.append((condensed, reducer.last_result))
        (ours, our_result), (ref, ref_result) = runs
        np.testing.assert_allclose(ours.features, ref.features,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(our_result.mapping.normalized_array(),
                                   ref_result.mapping.normalized_array(),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(our_result.synthetic_adjacency_dense,
                                   ref_result.synthetic_adjacency_dense,
                                   rtol=0, atol=1e-9)
        assert np.count_nonzero(ours.adjacency) == np.count_nonzero(ref.adjacency)
        assert ours.mapping.nnz == ref.mapping.nnz

    def test_peak_memory_below_a_third_of_the_oracle(self):
        # the reddit-sim budget-82 shape: N=5082, N'=82, d=160, 256
        # supports; measured 32.3 MB against the oracle's 103.6 MB
        inputs = _mapping_inputs(num_original=5082, num_synthetic=82,
                                 feature_dim=160, num_support=256)
        config = MCondConfig()
        peaks = []
        for step in (MCondReducer._mapping_step, _taped_mapping_step):
            tracemalloc.start()
            try:
                _run_step(step, config, inputs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        ours, oracle = peaks
        assert ours < oracle / 3, (ours, oracle)


class TestGramFormPrecision:
    """Eq. 10 and Eq. 8 from ``N'``-sized factors, at their edge cases."""

    def test_eq10_survives_cancellation(self, monkeypatch):
        # identity Eq. 15, so the captured gradient is dL_tra/dM; M in
        # eighths and H' in integers make M H' exact in any summation order
        monkeypatch.setattr(MappingMatrix, "normalized_with_vjp",
                            lambda self: (self.raw.data.copy(), np.copy))
        rng = np.random.default_rng(13)
        num_original, num_synthetic, dim = 40, 5, 4
        normalized = rng.integers(0, 8, (num_original, num_synthetic)) / 8.0
        synthetic_embed = rng.integers(-40, 41, (num_synthetic, dim)) * 1.0
        exact = normalized @ synthetic_embed
        propagated = 50.0 * rng.standard_normal((num_original, dim))
        propagated[:6] = exact[:6]  # R_i = 0
        # R_i ~ 1e-7: the Gram-form rho_i^2 (~1e-13) sits far below the
        # rounding of h2_i (~1e-11), so some round below zero
        propagated[6:24] = exact[6:24] + 1e-7 * rng.standard_normal((18, dim))
        inputs = _mapping_inputs(num_original=num_original,
                                 num_synthetic=num_synthetic, feature_dim=dim)
        inputs.update(mapping=MappingMatrix(normalized),
                      propagated=propagated, synthetic_embed=synthetic_embed)
        config = MCondConfig(use_inductive_loss=False)

        leaf = Tensor(normalized, requires_grad=True)
        want_loss = transductive_loss(propagated, synthetic_embed, leaf)
        (want_grad,) = grad(want_loss, [leaf])
        bound = 1e-12 * np.abs(want_grad.data).max()

        def close(result, g_raw):
            loss = result.transductive_losses[0]
            return (np.isfinite(loss) and np.isfinite(g_raw).all()
                    and loss == pytest.approx(want_loss.item(), rel=1e-12)
                    and np.abs(g_raw - want_grad.data).max() <= bound)

        assert close(*_run_step(MCondReducer._mapping_step, config, inputs))
        # the inputs need the explicit rows: without them they break
        monkeypatch.setattr(mcond_module, "_CANCELLATION", -np.inf)
        assert not close(*_run_step(MCondReducer._mapping_step, config,
                                    inputs))

    def test_eq8_gradcheck_through_the_generator(self):
        # L_str of the Gram form w.r.t. X' and the generator's weights,
        # through A' = MLP(X') -> normalize -> H' = Â'^K X'
        model, features, _ = _generator(3, 4, 4, seed=4)
        relay = SGC(3, 2, k_hops=2, seed=0)
        mapping = MappingMatrix.random(9, 4, seed=1).normalized_array()
        rng = np.random.default_rng(2)
        batch = EdgeBatch(rows=rng.integers(0, 9, 12),
                          cols=rng.integers(0, 9, 12),
                          targets=np.repeat([1.0, 0.0], 6))

        def loss(x, *params):
            embedding = relay.embed(dense_normalize_tensor(model(x)), x)
            return structure_loss(mapping, embedding, batch)

        assert gradcheck(loss, [features] + model.parameters())

    def test_structure_hook_peak_below_one_original_sized_array(self):
        # reddit-sim's shape: N=5082, N'=82, d=160, 512 edges + 512
        # non-edges; the (N, d) reconstruction alone is 6.5 MB.  Measured:
        # 4.7 MB (the (1024, N') tape), oracle 34.1 MB
        num_original, num_synthetic, dim = 5082, 82, 160
        rng = np.random.default_rng(3)
        adjacency = sp.random(num_original, num_original, density=1e-3,
                              random_state=3, format="csr")
        adjacency = ((adjacency + adjacency.T) > 0).astype(np.float64).tocsr()
        mapping = MappingMatrix.random(num_original, num_synthetic, seed=3)
        embedding = Tensor(rng.standard_normal((num_synthetic, dim)),
                           requires_grad=True)
        reducer = MCondReducer(MCondConfig(edge_batch_size=512))
        peaks = []
        for hook in (MCondReducer._extra_synthetic_loss,
                     _explicit_structure_hook):
            reducer._run = SimpleNamespace(
                snapshot=mapping.normalized_array(), adjacency=adjacency,
                edge_rng=np.random.default_rng(0))
            tracemalloc.start()
            try:
                grad(hook(reducer, embedding), [embedding])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        ours, oracle = peaks
        one_array = num_original * dim * 8
        assert ours < one_array < oracle, (ours, one_array, oracle)


class TestTrainingOperatorMatchesServing:
    """The Eq. 11 support embedding MCond trains ``M`` against is the one
    a synthetic deployment serves through (ROADMAP item 2).

    Reference: ``attach_to_synthetic`` -> ``symmetric_normalize`` ->
    K-hop propagation, rows ``[N':]``.  The training side adds
    ``dense_normalize_tensor``'s eps of 1e-9 to every degree (all >= 1,
    from the self-loops), so the two differ by up to about ``K * 1e-9``
    relative.  Measured: at most 7.7e-10 over these cases, and 2.8e-16
    with the eps set to 0.  The declared bound is 1e-8.

    ``intra`` has no diagonal here: where ``intra`` already has a
    self-loop, training adds ``I`` on top (weight 2) and serving keeps
    one (weight 1), a known divergence listed under ROADMAP item 2.
    """

    @pytest.mark.parametrize("k_hops", [1, 2, 3])
    @pytest.mark.parametrize("graph_batch", [False, True])
    def test_equals_the_serving_reference(self, k_hops, graph_batch):
        inputs = _mapping_inputs(num_original=60, num_synthetic=7,
                                 feature_dim=5, num_support=9, seed=k_hops)
        support = inputs["support"]
        if graph_batch:
            intra = sp.triu(support.intra, 1)
            intra = (intra + intra.T).tocsr()
        else:
            intra = sp.csr_matrix((9, 9))
        support = IncrementalBatch(
            features=support.features, incremental=support.incremental,
            intra=intra, labels=support.labels)
        relay = SGC(5, 3, k_hops=k_hops, seed=0)
        adjacency = inputs["adjacency_const"]
        normalized = inputs["mapping"].normalized_array()
        features = inputs["synthetic_features"]
        trained = MCondReducer()._support_embedding_synthetic(
            relay, adjacency, features, support,
            Tensor(support.incremental @ normalized, requires_grad=True)).data

        attached = attach_to_synthetic(adjacency, features,
                                       support.incremental, support.features,
                                       normalized, support.intra)
        with no_grad():
            served = relay.embed(symmetric_normalize(attached.adjacency),
                                 attached.features).data[attached.base_size:]
        assert trained.shape == served.shape
        gap = np.abs(trained - served).max() / np.abs(served).max()
        assert gap <= 1e-8, gap
