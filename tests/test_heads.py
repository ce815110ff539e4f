"""Emotion heads and the composite objective: values, properties, gradients."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cmhl import tensor as T
from cmhl.affect import AffectSchema, LossWeights
from cmhl.data import LabeledExample, build_vocab, encode_batch
from cmhl.encoder import EncoderConfig
from cmhl.errors import DataError
from cmhl.heads import (
    EmotionModel,
    EmotionPrediction,
    emotion_heads_forward,
    exclusivity_loss,
    task_loss,
    total_loss,
)


@pytest.fixture(scope="module")
def schema():
    return AffectSchema.default()


def head_params(hidden, seed):
    """The default schema's emotion-head parameters at ``hidden``, drawn from ``seed``."""
    return EmotionModel(AffectSchema.default(), LossWeights()).params(hidden, T.drawn(np.random.default_rng(seed)))


def zero_heads(num_emotions=6, hidden=4):
    """All-zero head parameters for ``num_emotions`` emotions, by checkpoint name."""
    classes = {"e": num_emotions, "v": 3, "i": 2}
    heads = {f"head.w_{h}": T.tensor(np.zeros((hidden, c)), requires_grad=True) for h, c in classes.items()}
    return {**heads, **{f"head.b_{h}": T.tensor(np.zeros(c), requires_grad=True) for h, c in classes.items()}}


def uniform_tau(schema, value):
    """The schema with every opposing-pair threshold at ``value``: a zero scale leaves tau0 alone."""
    return dataclasses.replace(schema, tau0=value, scale=0.0)


def naive_exclusivity(p, schema):
    """Double-loop oracle for a single probability vector."""
    pos_idx, neg_idx = schema.taxonomy.positive, schema.taxonomy.negative
    total = 0.0
    for i in pos_idx:
        for j in neg_idx:
            total += max(0.0, p[i] + p[j] - schema.tau[pos_idx.index(i), neg_idx.index(j)])
    return total


class TestHeadsForward:
    def test_zero_params_give_uniform(self):
        heads = zero_heads()
        preds = emotion_heads_forward(T.tensor(np.random.default_rng(1).normal(size=(3, 4))), heads)
        np.testing.assert_allclose(preds.p_e.data, 1 / 6, atol=1e-15)
        np.testing.assert_allclose(T.softmax(preds.z_v).data, 1 / 3, atol=1e-15)
        np.testing.assert_allclose(T.softmax(preds.z_i).data, 1 / 2, atol=1e-15)

    def test_output_shapes(self):
        heads = head_params(8, 2)
        preds = emotion_heads_forward(T.tensor(np.zeros((5, 8))), heads)
        assert preds.z_e.shape == preds.p_e.shape == (5, 6)
        assert preds.z_v.shape == (5, 3)
        assert preds.z_i.shape == (5, 2)

    def test_hand_computed_two_dim(self):
        heads = zero_heads(num_emotions=2, hidden=2)
        heads["head.w_e"].data[...] = np.eye(2)
        preds = emotion_heads_forward(T.tensor([[1.0, 0.0]]), heads)
        np.testing.assert_allclose(
            preds.p_e.data, [[0.7310585786300049, 0.2689414213699951]], atol=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        from cmhl.errors import ShapeError

        heads = head_params(8, 0)
        with pytest.raises(ShapeError):
            emotion_heads_forward(T.tensor(np.zeros((2, 5))), heads)


def logits_with_loss(target_ce, k):
    """One row of logits whose cross-entropy against class 0 is ``target_ce``:
    the logs of probabilities exp(-target_ce) and an even split of the rest."""
    rest = (1.0 - math.exp(-target_ce)) / (k - 1)
    return T.tensor([[-target_ce] + [math.log(rest)] * (k - 1)])


def prediction(z_e, z_v, z_i):
    return EmotionPrediction(z_e=z_e, z_v=z_v, z_i=z_i, p_e=T.softmax(z_e))


def preds_with_losses(ce_e, ce_v, ce_i):
    """Single-row predictions whose cross-entropies equal the given values."""
    return prediction(logits_with_loss(ce_e, 6), logits_with_loss(ce_v, 3), logits_with_loss(ce_i, 2))


LABELS_ROW = {
    "primary": np.array([0]),
    "valence": np.array([0]),
    "intensity": np.array([0]),
}


class TestTaskLoss:
    def test_weighted_arithmetic(self):
        preds = preds_with_losses(1.0, 0.5, 0.2)
        loss = task_loss(preds, LABELS_ROW, LossWeights(alpha1=0.3, alpha2=0.2))
        assert loss.item() == pytest.approx(1.0 + 0.3 * 0.5 + 0.2 * 0.2, abs=1e-12)
        assert loss.item() == pytest.approx(1.19, abs=1e-12)

    def test_zero_aux_weights_reduce_to_primary(self):
        preds = preds_with_losses(0.7, 0.5, 0.2)
        loss = task_loss(preds, LABELS_ROW, LossWeights(alpha1=0.0, alpha2=0.0))
        assert loss.item() == pytest.approx(0.7, abs=1e-12)

    def test_near_one_hot_gives_near_zero(self):
        preds = preds_with_losses(1e-9, 1e-9, 1e-9)
        loss = task_loss(preds, LABELS_ROW, LossWeights())
        assert loss.item() == pytest.approx(0.0, abs=1e-8)

    def test_missing_aux_labels_rejected(self):
        preds = preds_with_losses(1.0, 0.5, 0.2)
        labels = dict(LABELS_ROW, valence=np.array([-1]))
        with pytest.raises(DataError):
            task_loss(preds, labels, LossWeights())


class TestExclusivityLoss:
    def test_uniform_probs_below_threshold(self, schema):
        p = T.tensor([[1 / 6] * 6])
        tau = uniform_tau(schema, 0.34)
        assert exclusivity_loss(p, tau).item() == pytest.approx(0.0, abs=1e-15)

    def test_one_hot_joy_uniform_tau(self, schema):
        p = np.zeros(6)
        p[schema.names.index("joy")] = 1.0
        tau = uniform_tau(schema, 0.8)
        loss = exclusivity_loss(T.tensor([p]), tau)
        # three joy-negative pairs active at 0.2 each; love pairs contribute 0
        assert loss.item() == pytest.approx(0.6, abs=1e-12)
        assert loss.item() == pytest.approx(naive_exclusivity(p, tau), abs=1e-15)

    def test_simplex_bound_with_tau_at_least_one(self, schema):
        rng = np.random.default_rng(5)
        # a schema clamps every threshold below 1, so a stand-in carries tau = 1
        tau = SimpleNamespace(taxonomy=schema.taxonomy, tau=np.ones(schema.tau.shape))
        for _ in range(100):
            p = rng.dirichlet(np.ones(6))
            assert exclusivity_loss(T.tensor([p]), tau).item() == 0.0

    def test_vectorized_matches_naive_oracle(self, schema):
        rng = np.random.default_rng(9)
        probs = rng.dirichlet(np.ones(6), size=1000)
        vectorized = exclusivity_loss(T.tensor(probs), schema).item()
        oracle = np.mean([naive_exclusivity(p, schema) for p in probs])
        assert vectorized == pytest.approx(oracle, abs=1e-12)

    def test_batch_mean_semantics(self, schema):
        tau = uniform_tau(schema, 0.5)
        p1 = np.zeros(6)
        p1[schema.names.index("joy")] = 1.0
        p2 = np.full(6, 1 / 6)
        single = exclusivity_loss(T.tensor([p1]), tau).item()
        batch = exclusivity_loss(T.tensor(np.stack([p1, p2])), tau).item()
        expected = (single + naive_exclusivity(p2, tau)) / 2
        assert batch == pytest.approx(expected, abs=1e-12)

    def test_hinge_monotone_in_pair_mass(self, schema):
        # moving mass onto an opposing pair never lowers the penalty
        tau = uniform_tau(schema, 0.4)
        joy, anger = schema.names.index("joy"), schema.names.index("anger")
        base = np.full(6, 1 / 6)
        prev = -1.0
        for bump in np.linspace(0.0, 0.3, 7):
            p = base.copy()
            p[joy] += bump
            p[anger] += bump
            p[schema.names.index("surprise")] -= 2 * bump
            value = exclusivity_loss(T.tensor([p]), tau).item()
            assert value >= prev - 1e-12
            prev = value

    def test_nonnegative(self, schema):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            assert exclusivity_loss(T.tensor([p]), schema).item() >= 0.0


class TestTotalLoss:
    def test_lambda_zero_equals_task(self, schema):
        preds = preds_with_losses(1.0, 0.5, 0.2)
        weights = LossWeights(lambda_excl=0.0)
        total = total_loss(preds, LABELS_ROW, weights, schema)
        task = task_loss(preds, LABELS_ROW, weights)
        assert total.item() == pytest.approx(task.item(), abs=1e-15)

    def test_arithmetic(self, schema):
        # task 1.19 plus 0.4 * 0.6 exclusivity = 1.43
        # joy's logit 1000 above the rest: p_e is one-hot joy in float64
        z_e = np.zeros(6)
        z_e[schema.names.index("joy")] = 1000.0
        base = preds_with_losses(1.0, 0.5, 0.2)
        preds = prediction(T.tensor([z_e]), base.z_v, base.z_i)
        labels = {
            "primary": np.array([schema.names.index("joy")]),
            "valence": np.array([0]),
            "intensity": np.array([0]),
        }
        tau = uniform_tau(schema, 0.8)
        value = total_loss(preds, labels, LossWeights(), tau).item()
        ce_e = -math.log(1.0)
        expected = ce_e + 0.3 * 0.5 + 0.2 * 0.2 + 0.4 * 0.6
        assert value == pytest.approx(expected, abs=1e-12)

    def test_gradient_linearity(self, schema):
        """grad(total) equals grad(task) + lambda * grad(exclusivity) elementwise."""
        examples = [
            LabeledExample(text="warm sun", emotion=1, valence=0, intensity=0),
            LabeledExample(text="cold rain", emotion=0, valence=1, intensity=1),
        ]
        vocab = build_vocab(examples, 1)
        batch = encode_batch(examples, vocab, 4)
        cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=8, dropout=0.0)
        model = EmotionModel.build(cfg, len(vocab), schema, LossWeights(), seed=3)

        def grads_for(loss_fn):
            for t in model.parameters().values():
                t.zero_grad()
            preds = model.forward(batch)
            T.backward(loss_fn(preds))
            return {
                k: (np.zeros_like(v.data) if v.grad is None else v.grad.copy())
                for k, v in model.parameters().items()
            }

        lam = model.head.loss_weights.lambda_excl
        g_total = grads_for(lambda p: model.loss(p, batch))
        g_task = grads_for(lambda p: task_loss(p, batch.labels, model.head.loss_weights))
        g_excl = grads_for(lambda p: exclusivity_loss(p.p_e, schema))
        for name in g_total:
            np.testing.assert_allclose(
                g_total[name], g_task[name] + lam * g_excl[name], atol=1e-12, err_msg=name
            )

    def test_total_loss_finite_difference_on_heads(self, schema):
        examples = [LabeledExample(text="bright day", emotion=1, valence=0, intensity=0)]
        vocab = build_vocab(examples, 1)
        batch = encode_batch(examples, vocab, 4)
        cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=8, dropout=0.0)
        model = EmotionModel.build(cfg, len(vocab), schema, LossWeights(), seed=4)
        errors = T.finite_diff_check(lambda: model.loss(model.forward(batch), batch), model.head_params)
        assert list(errors) == list(model.head_params)
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: {err:.3e}"
