"""Mental-health heads, gating, fusion, and the adaptive-weight loss."""

import math

import numpy as np
import pytest

from cmhl import tensor as T
from cmhl.data import LabeledExample, MHLabelSchema, build_vocab, encode_batch
from cmhl.encoder import EncoderConfig
from cmhl.errors import DataError
from cmhl.mh import (
    BETA_INIT,
    MHModel,
    effective_beta,
    final_prediction,
    gate_weights,
    gated_fusion_product,
    mh_head_params,
    mh_heads_forward,
    mh_loss,
)


def make_heads(num_categories=5, hidden=8, gate_dim=4, seed=0):
    return mh_head_params(num_categories, hidden, T.drawn(np.random.default_rng(seed)), gate_dim=gate_dim)


def zeroed(heads):
    for name, t in heads.items():
        if name != "mh.beta_raw":
            t.data[...] = 0.0
    return heads


class TestMhHeads:
    def test_zero_params_uniform(self):
        heads = zeroed(make_heads())
        p_m, z_s = mh_heads_forward(T.tensor(np.ones((2, 8))), heads)
        np.testing.assert_allclose(p_m.data, 1 / 5, atol=1e-15)
        np.testing.assert_allclose(T.softmax(z_s).data, 1 / 3, atol=1e-15)

    def test_default_shapes(self):
        heads = make_heads()
        p_m, z_s = mh_heads_forward(T.tensor(np.zeros((4, 8))), heads)
        assert p_m.shape == (4, 5)
        assert z_s.shape == (4, 3)

    def test_rows_sum_to_one(self):
        heads = make_heads(seed=3)
        h = T.tensor(np.random.default_rng(1).normal(size=(10, 8)))
        p_m, z_s = mh_heads_forward(h, heads)
        np.testing.assert_allclose(p_m.data.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(T.softmax(z_s).data.sum(axis=1), 1.0, atol=1e-9)


class TestGate:
    def test_zero_gate_params_give_half_half(self):
        heads = zeroed(make_heads())
        a = gate_weights(T.tensor(np.random.default_rng(0).dirichlet(np.ones(8), size=3)), heads)
        np.testing.assert_allclose(a.data, 0.5, atol=1e-15)

    def test_weights_sum_to_one_randomized(self):
        heads = make_heads(seed=5)
        rng = np.random.default_rng(6)
        feats = T.tensor(rng.normal(size=(1000, 8)))
        a = gate_weights(feats, heads)
        np.testing.assert_allclose(a.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(a.data > 0.0) and np.all(a.data < 1.0)

    def test_hand_fixture_closed_form(self):
        heads = zeroed(make_heads(gate_dim=1))
        heads["mh.gate.w_in"].data[0, 0] = 1.0  # picks out the first feature
        heads["mh.gate.w_out"].data[0, 0] = 1.0
        feats = np.zeros((1, 8))
        feats[0, 0] = 1.0
        a = gate_weights(T.tensor(feats), heads)
        np.testing.assert_allclose(
            a.data, [[0.7310585786300049, 0.2689414213699951]], atol=1e-12
        )


def blockwise_fusion(feats, gate, sizes):
    """[a_m * diagnosis block, a_s * severity block], written out in NumPy."""
    m, _ = sizes
    return np.concatenate([gate[:, :1] * feats[:, :m], gate[:, 1:] * feats[:, m:]], axis=1)


class TestFusion:
    sizes = (5, 3)

    def test_selection_limit_zeroes_severity_block(self):
        feats = T.tensor(np.random.default_rng(2).dirichlet(np.ones(8), size=2))
        gate = T.tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        fused = gated_fusion_product(feats, gate, self.sizes)
        np.testing.assert_array_equal(fused.data[:, 5:], 0.0)
        np.testing.assert_allclose(fused.data[:, :5], feats.data[:, :5], atol=1e-15)

    def test_even_gate_halves_everything(self):
        feats = T.tensor(np.random.default_rng(3).normal(size=(3, 8)))
        gate = T.tensor(np.full((3, 2), 0.5))
        fused = gated_fusion_product(feats, gate, self.sizes)
        np.testing.assert_allclose(fused.data, feats.data / 2, atol=1e-15)

    def test_two_constructions_agree(self):
        rng = np.random.default_rng(4)
        feats = T.tensor(rng.normal(size=(50, 8)))
        raw = rng.normal(size=(50, 2))
        gate = T.tensor(np.exp(raw) / np.exp(raw).sum(axis=1, keepdims=True))
        fused = gated_fusion_product(feats, gate, self.sizes)
        np.testing.assert_allclose(fused.data, blockwise_fusion(feats.data, gate.data, self.sizes), atol=1e-15)

    def test_preserves_nonnegativity(self):
        rng = np.random.default_rng(7)
        feats = T.tensor(rng.dirichlet(np.ones(8), size=20))
        gate = T.tensor(rng.dirichlet(np.ones(2), size=20))
        fused = gated_fusion_product(feats, gate, self.sizes)
        assert np.all(fused.data >= 0.0)


class TestFinalPrediction:
    def test_zero_fuse_gives_uniform(self):
        heads = zeroed(make_heads())
        out = final_prediction(T.tensor(np.random.default_rng(0).normal(size=(3, 8))), heads)
        np.testing.assert_allclose(T.softmax(out).data, 1 / 5, atol=1e-15)

    def test_simplex_randomized(self):
        heads = make_heads(seed=8)
        rng = np.random.default_rng(9)
        out = final_prediction(T.tensor(rng.normal(size=(1000, 8))), heads)
        np.testing.assert_allclose(T.softmax(out).data.sum(axis=1), 1.0, atol=1e-9)

    def test_gradient_reaches_gate_parameters(self):
        heads = make_heads(seed=10)
        h = T.tensor(np.random.default_rng(11).normal(size=(2, 8)), requires_grad=True)
        p_m, z_s = mh_heads_forward(h, heads)
        feats = T.concat([p_m, T.softmax(z_s)])
        gate = gate_weights(feats, heads)
        fused = gated_fusion_product(feats, gate, (p_m.shape[1], z_s.shape[1]))
        out = final_prediction(fused, heads)
        T.backward(T.cross_entropy(out, [0, 1]))
        assert heads["mh.gate.w_in"].grad is not None
        assert np.abs(heads["mh.gate.w_in"].grad).max() > 0.0
        assert np.abs(heads["mh.w_m"].grad).max() > 0.0
        assert np.abs(heads["mh.w_s"].grad).max() > 0.0


def ce_logits(target_ce, k, rows=1):
    """Rows of logits whose cross-entropy against class 0 is ``target_ce``."""
    rest = (1.0 - math.exp(-target_ce)) / (k - 1)
    return T.tensor(np.tile([-target_ce] + [math.log(rest)] * (k - 1), (rows, 1)))


class TestMhLoss:
    def test_arithmetic_with_default_beta(self):
        heads = make_heads()
        loss = mh_loss(ce_logits(1.0, 5), ce_logits(0.5, 3), np.array([0]), np.array([0]), heads)
        assert loss.item() == pytest.approx(1.0 + 0.4 * 0.5, abs=1e-9)

    def test_all_unlabeled_drops_severity_term(self):
        heads = make_heads()
        heads["mh.beta_raw"].data[...] = 50.0  # absurd beta must not matter
        loss = mh_loss(ce_logits(0.9, 5), ce_logits(0.5, 3), np.array([0]), np.array([-1]), heads)
        assert loss.item() == pytest.approx(0.9, abs=1e-12)

    def test_partial_labels_masked_mean(self):
        heads = make_heads()
        z_s = T.tensor(np.log([[math.exp(-0.5), 0.3, 0.7 - math.exp(-0.5)],
                               [0.2, 0.5, 0.3]]))
        loss = mh_loss(ce_logits(1.0, 5, rows=2), z_s, np.array([0, 0]), np.array([0, -1]), heads)
        assert loss.item() == pytest.approx(1.0 + 0.4 * 0.5, abs=1e-9)

    def test_empty_batch_rejected(self):
        heads = make_heads()
        with pytest.raises(DataError):
            mh_loss(T.tensor(np.zeros((0, 5))), T.tensor(np.zeros((0, 3))),
                    np.array([], dtype=int), np.array([], dtype=int), heads)

    def test_beta_initial_effective_value(self):
        heads = make_heads()
        assert effective_beta(heads).item() == pytest.approx(BETA_INIT, abs=1e-9)

    def test_beta_stays_positive(self):
        heads = make_heads()
        for raw in (-100.0, -5.0, 0.0, 5.0, 100.0):
            heads["mh.beta_raw"].data[...] = raw
            assert effective_beta(heads).item() > 0.0

    def test_beta_gradient_finite_difference(self):
        heads = make_heads()
        z_final = ce_logits(1.0, 5)
        z_s = ce_logits(0.5, 3)

        def fn():
            return mh_loss(z_final, z_s, np.array([0]), np.array([0]), heads)

        err = T.finite_diff_check(fn, {"mh.beta_raw": heads["mh.beta_raw"]})["mh.beta_raw"]
        assert err < 1e-4


def mh_batch():
    examples = [
        LabeledExample(text="heavy fog today", emotion=1, intensity=2),
        LabeledExample(text="quiet spell", emotion=3, intensity=None),
    ]
    vocab = build_vocab(examples, 1)
    return encode_batch(examples, vocab, 5), vocab


class TestMHModel:
    def test_forward_and_loss(self):
        batch, vocab = mh_batch()
        cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=8, dropout=0.0)
        model = MHModel.build(cfg, len(vocab), MHLabelSchema(), seed=1)
        preds = model.forward(batch)
        assert preds.z_final.shape == (2, 5)
        assert model.head.probs(preds).shape == (2, 5)
        assert model.loss(preds, batch).item() > 0.0

    def test_both_terms_reach_encoder(self):
        """Each loss term in isolation produces nonzero encoder gradients."""
        batch, vocab = mh_batch()
        cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=8, dropout=0.0)
        model = MHModel.build(cfg, len(vocab), MHLabelSchema(), seed=2)

        def encoder_grad_norm(loss_fn):
            for t in model.parameters().values():
                t.zero_grad()
            preds = model.forward(batch)
            T.backward(loss_fn(preds))
            return sum(
                float(np.abs(t.grad).sum())
                for t in model.encoder.parameters().values()
                if t.grad is not None
            )

        diag_only = encoder_grad_norm(
            lambda p: T.cross_entropy(p.z_final, batch.labels["primary"])
        )
        sev_only = encoder_grad_norm(
            lambda p: T.cross_entropy(T.gather(p.z_s, [0], axis=0), batch.labels["intensity"][:1])
        )
        assert diag_only > 0.0
        assert sev_only > 0.0

    def test_beta_receives_gradient_in_model_loss(self):
        batch, vocab = mh_batch()
        cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=8, dropout=0.0)
        model = MHModel.build(cfg, len(vocab), MHLabelSchema(), seed=3)
        preds = model.forward(batch)
        T.backward(model.loss(preds, batch))
        assert model.head_params["mh.beta_raw"].grad is not None
        assert abs(float(model.head_params["mh.beta_raw"].grad)) > 0.0
