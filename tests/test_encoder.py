"""Encoder shapes, masking, normalization, determinism, and gradients."""

import numpy as np
import pytest

from cmhl import tensor as T
from cmhl.data import LabeledExample, build_vocab, encode_batch
from cmhl.encoder import MASK_NEG, Encoder, EncoderConfig
from cmhl.errors import ConfigError, ShapeError


def toy_batch(texts, max_len=6, labels=None):
    examples = [
        LabeledExample(text=t, emotion=(labels[i] if labels else 0)) for i, t in enumerate(texts)
    ]
    vocab = build_vocab(examples, min_freq=1)
    return encode_batch(examples, vocab, max_len), vocab


def toy_encoder(vocab, layers=1, heads=2, hidden=8, ffn=16, seed=0, dropout=0.0):
    cfg = EncoderConfig(
        layers=layers, heads=heads, hidden=hidden, ffn_dim=ffn, max_positions=16, dropout=dropout
    )
    return Encoder(cfg, len(vocab), np.random.default_rng(seed))


def full_sequence_cls(enc, batch):
    """Every block over every position, then row 0: the CLS vector computed
    without cutting the last block to position 0."""
    p = enc.params
    mask_add = (batch.attention_mask.astype(np.float64) - 1.0) * -MASK_NEG
    x = enc.embed(batch)
    for i in range(enc.config.layers):
        xn = T.layer_norm(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"])
        q, k, v = (T.linear(xn, p[f"l{i}.attn.w{c}"], p[f"l{i}.attn.b{c}"]) for c in "qkv")
        ctx = T.attention(q, k, v, mask_add, enc.config.heads)
        x = x + T.linear(ctx, p[f"l{i}.attn.wo"], p[f"l{i}.attn.bo"])
        yn = T.layer_norm(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
        hidden = T.gelu(T.linear(yn, p[f"l{i}.ffn.w1"], p[f"l{i}.ffn.b1"]))
        x = x + T.linear(hidden, p[f"l{i}.ffn.w2"], p[f"l{i}.ffn.b2"])
    return x.data[:, 0]


class TestShapesAndDeterminism:
    def test_embed_shape(self):
        batch, vocab = toy_batch(["one two three", "four"])
        enc = toy_encoder(vocab)
        out = enc.embed(batch)
        assert out.shape == (2, 6, 8)

    def test_eval_forward_deterministic(self):
        batch, vocab = toy_batch(["alpha beta", "gamma"])
        enc = toy_encoder(vocab, dropout=0.3)
        a = enc.forward(batch).data
        b = enc.forward(batch).data
        np.testing.assert_array_equal(a, b)

    def test_train_forward_reproducible_with_seed(self):
        batch, vocab = toy_batch(["alpha beta gamma delta"])
        enc = toy_encoder(vocab, dropout=0.3)
        a = enc.forward(batch, rng=np.random.default_rng(5)).data
        b = enc.forward(batch, rng=np.random.default_rng(5)).data
        np.testing.assert_array_equal(a, b)

    def test_position_order_matters(self):
        # the CLS vector sees the word order through attention over position embeddings
        batch, vocab = toy_batch(["cat dog", "dog cat"])
        enc = toy_encoder(vocab, layers=1)
        out = enc.forward(batch).data
        assert not np.allclose(out[0], out[1])

    def test_id_out_of_range(self):
        batch, vocab = toy_batch(["word"])
        enc = toy_encoder(vocab)
        batch.token_ids[0, 1] = len(vocab) + 5
        with pytest.raises(ShapeError):
            enc.embed(batch)


class TestMaskingAndNorm:
    @staticmethod
    def _qkv_and_mask(seed=0):
        # batch row 1 has two padded keys at positions 2 and 3
        rng = np.random.default_rng(seed)
        qkv = [rng.normal(size=(2, 4, 8)) for _ in range(3)]
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.float64)
        return qkv, (mask - 1.0) * -MASK_NEG

    def test_masked_keys_get_zero_attention(self):
        (q, k, v), mask_add = self._qkv_and_mask()
        base = T.attention(T.tensor(q), T.tensor(k), T.tensor(v), mask_add, 2).data
        k2, v2 = k.copy(), v.copy()
        k2[1, 2:] += 50.0
        v2[1, 2:] = -1e3
        moved = T.attention(T.tensor(q), T.tensor(k2), T.tensor(v2), mask_add, 2).data
        np.testing.assert_allclose(moved, base, rtol=0, atol=1e-9)

    def test_attention_rows_sum_to_one(self):
        # with v = 1 every context row is the sum of that query's probabilities
        (q, k, _), mask_add = self._qkv_and_mask(1)
        out = T.attention(T.tensor(q), T.tensor(k), T.ones(2, 4, 8), mask_add, 2)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-9)

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(1)
        x = T.tensor(rng.normal(2.0, 10.0, size=(2, 4, 64)))
        out = T.layer_norm(x, T.ones(64), T.zeros(64))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-6)

    def test_zero_layers_is_identity(self):
        batch, vocab = toy_batch(["x y z"])
        enc = toy_encoder(vocab, layers=0)
        h0 = enc.embed(batch)
        out = enc.encode(h0, batch.attention_mask)
        np.testing.assert_array_equal(out.data, h0.data[:, 0])


class TestClsPool:
    def test_shape(self):
        batch, vocab = toy_batch(["p q", "r"])
        enc = toy_encoder(vocab)
        pooled = enc.forward(batch)
        assert pooled.shape == (2, 8)

    def test_identity_encoder_returns_cls_embedding(self):
        batch, vocab = toy_batch(["p q r"])
        enc = toy_encoder(vocab, layers=0)
        pooled = enc.forward(batch)
        expected = enc.params["tok_emb"].data[0] + enc.params["pos_emb"].data[0]
        np.testing.assert_allclose(pooled.data[0], expected, atol=1e-15)

    def test_non_cls_token_perturbation_propagates(self):
        # single-coordinate bump: a whole-row constant would vanish in layer norm
        batch, vocab = toy_batch(["m n o p"])
        enc = toy_encoder(vocab, layers=1)
        base = enc.forward(batch).data.copy()
        word_id = batch.token_ids[0, 2]
        enc.params["tok_emb"].data[word_id, 0] += 0.5
        bumped = enc.forward(batch).data
        assert np.abs(base - bumped).max() > 1e-6

    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_matches_full_sequence_reference(self, layers):
        # row 1 is padded from position 2; weights of std 0.5 make attention far from uniform
        batch, vocab = toy_batch(["p q r s t", "u"])
        enc = toy_encoder(vocab, layers=layers)
        rng = np.random.default_rng(layers)
        for tensor in enc.params.values():
            tensor.data[...] = rng.normal(0.0, 0.5, tensor.shape)
        np.testing.assert_allclose(enc.forward(batch).data, full_sequence_cls(enc, batch), rtol=0, atol=1e-12)

    def test_last_block_feed_forward_sees_only_the_cls_row(self, monkeypatch):
        shapes, gelu = [], T.gelu

        def recording_gelu(x):
            shapes.append(x.shape)
            return gelu(x)

        monkeypatch.setattr(T, "gelu", recording_gelu)
        batch, vocab = toy_batch(["p q r", "s"], max_len=5)
        toy_encoder(vocab, layers=2).forward(batch)
        assert shapes == [(2, 5, 16), (2, 1, 16)]


class TestConfigValidation:
    def test_divisibility(self):
        with pytest.raises(ConfigError):
            EncoderConfig(hidden=10, heads=4)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            EncoderConfig(dropout=1.0)


class TestNumericGuards:
    def test_nan_weight_reported_with_layer_index(self):
        from cmhl.errors import NumericError

        batch, vocab = toy_batch(["a b c"])
        enc = toy_encoder(vocab, layers=2)
        enc.params["l1.ffn.w2"].data[0, 0] = np.nan
        with pytest.raises(NumericError, match="layer 1"):
            enc.forward(batch)


class TestEncoderGradients:
    def test_full_forward_finite_difference_every_parameter(self):
        # with two layers, block 0 runs on every position and block 1 on the CLS row only
        batch, vocab = toy_batch(["u v w x", "y z"], max_len=5)
        rng = np.random.default_rng(2)
        weights = T.tensor(rng.normal(size=(2, 8)))

        for layers in (1, 2):
            enc = toy_encoder(vocab, layers=layers, heads=2, hidden=8, ffn=16)
            for name, tensor in enc.params.items():
                err = T.finite_diff_check(lambda _t: (enc.forward(batch) * weights).sum(), tensor)
                assert err < 1e-4, f"layers={layers} {name}: finite-difference error {err:.3e}"
