"""Encoder shapes, masking, normalization, determinism, and gradients; the Model built on it."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from cmhl import tensor as T
from cmhl.affect import LossWeights
from cmhl.data import LabeledExample, build_vocab, encode_batch
from cmhl.encoder import Encoder, EncoderConfig, Model
from cmhl.errors import ConfigError, ShapeError
from cmhl.training import TASKS, read_schema


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
    return Encoder(cfg, len(vocab), T.drawn(np.random.default_rng(seed)))


def full_sequence_cls(enc, batch):
    """An independent padded reference: every block over every position of the
    [B, n, d] batch, built from matmul, softmax and reshapes with an additive
    key mask, then position 0."""
    p, heads = enc.params, enc.config.heads
    ids = batch.token_ids
    b, n = ids.shape
    d = enc.config.hidden
    dk = d // heads
    mask_add = T.tensor(np.where(batch.attention_mask, 0.0, T.MASK_NEG).reshape(b, 1, 1, n))

    def affine(t, w, bias):
        return T.matmul(t, p[w]) + p[bias]

    def split(t):
        return t.reshape(b, n, heads, dk).swapaxes(1, 2)

    x = T.embedding(p["tok_emb"], ids) + T.embedding(p["pos_emb"], np.broadcast_to(np.arange(n), ids.shape))
    for i in range(enc.config.layers):
        xn = T.layer_norm(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"])
        q, k, v = (split(affine(xn, f"l{i}.attn.w{c}", f"l{i}.attn.b{c}")) for c in "qkv")
        probs = T.softmax(T.matmul(q, k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dk)) + mask_add)
        ctx = T.matmul(probs, v).swapaxes(1, 2).reshape(b, n, d)
        x = x + affine(ctx, f"l{i}.attn.wo", f"l{i}.attn.bo")
        yn = T.layer_norm(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
        x = x + affine(T.gelu(affine(yn, f"l{i}.ffn.w1", f"l{i}.ffn.b1")), f"l{i}.ffn.w2", f"l{i}.ffn.b2")
    return x.data[:, 0]


class TestShapesAndDeterminism:
    def test_embed_shape(self):
        batch, vocab = toy_batch(["one two three", "four"])
        enc = toy_encoder(vocab)
        out = enc.embed(batch)
        assert out.shape == (6, 8)  # packed: 4 + 2 real tokens of the [2, 6] batch

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

    @pytest.mark.parametrize("layers", [1, 3])
    def test_dropout_draws_only_for_real_tokens(self, layers):
        # the embedding and every block but the last drop out packed [tokens, d] rows; the last
        # block's two sites drop out the [B, d] CLS rows; no site draws for a pad slot
        batch, vocab = toy_batch(["a b c d e", "f", "g h"], max_len=8)
        tokens, (b, n), d = int(batch.attention_mask.sum()), batch.attention_mask.shape, 8
        assert tokens == 11 < b * n
        rng = np.random.default_rng(17)
        toy_encoder(vocab, layers=layers, dropout=0.2).forward(batch, rng=rng)
        want = np.random.default_rng(17)
        want.random((1 + 2 * (layers - 1)) * tokens * d + 2 * b * d)
        assert rng.bit_generator.state == want.bit_generator.state

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
        # batch row 1 has two padded slots at positions 2 and 3, so 6 packed rows
        rng = np.random.default_rng(seed)
        qkv = [rng.normal(size=(6, 8)) for _ in range(3)]
        return qkv, np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=bool)

    def test_masked_keys_get_zero_attention(self):
        # row 1 attends as if alone in an unpadded batch of width 2
        (q, k, v), mask = self._qkv_and_mask()
        both = T.attention(T.tensor(q), T.tensor(k), T.tensor(v), mask, 2).data
        alone = T.attention(T.tensor(q[4:]), T.tensor(k[4:]), T.tensor(v[4:]), np.ones((1, 2), dtype=bool), 2)
        np.testing.assert_allclose(both[4:], alone.data, rtol=0, atol=1e-15)

    def test_attention_rows_sum_to_one(self):
        # with v = 1 every context row is the sum of that query's probabilities
        (q, k, _), mask = self._qkv_and_mask(1)
        out = T.attention(T.tensor(q), T.tensor(k), T.tensor(np.ones((6, 8))), mask, 2)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-9)

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(1)
        x = T.tensor(rng.normal(2.0, 10.0, size=(2, 4, 64)))
        out = T.layer_norm(x, T.tensor(np.ones(64)), T.tensor(np.zeros(64)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-6)

    def test_zero_layers_is_identity(self):
        batch, vocab = toy_batch(["x y z"])
        enc = toy_encoder(vocab, layers=0)
        h0 = enc.embed(batch)
        out = enc.encode(h0, batch)
        np.testing.assert_array_equal(out.data, h0.data[batch.cls])


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
        assert shapes == [(6, 16), (2, 16)]  # the 4 + 2 real tokens, then the 2 CLS rows

    def test_cls_alone_equals_cls_in_padded_batch(self):
        texts = ["a b c d e f", "g", "h i", "j k l"]
        examples = [LabeledExample(text=t, emotion=0) for t in texts]
        vocab = build_vocab(examples, min_freq=1)
        enc = toy_encoder(vocab, layers=2)
        rng = np.random.default_rng(7)
        for tensor in enc.params.values():
            tensor.data[...] = rng.normal(0.0, 0.5, tensor.shape)
        together = enc.forward(encode_batch(examples, vocab, 9)).data
        for row, ex in enumerate(examples):
            alone = enc.forward(encode_batch([ex], vocab, len(ex.tokens) + 1)).data
            np.testing.assert_allclose(alone[0], together[row], rtol=0, atol=1e-12)

    def test_no_padded_row_reaches_a_gemm(self, monkeypatch):
        # a mid-shaped step: texts of different lengths, dropout on, forward and backward
        rows, linear, rows_matmul = [], T.linear, T._rows_matmul

        def recording_linear(x, w, b):
            rows.append(x.data.reshape(-1, x.shape[-1]).shape[0])
            return linear(x, w, b)

        def recording_rows_matmul(a, w):
            rows.append(a.shape[0])
            return rows_matmul(a, w)

        monkeypatch.setattr(T, "linear", recording_linear)
        monkeypatch.setattr(T, "_rows_matmul", recording_rows_matmul)
        texts = ["a b c d e f g", "h", "i j k", "l m n o p"]
        batch, vocab = toy_batch(texts, max_len=8)
        tokens = int(batch.attention_mask.sum())
        enc = toy_encoder(vocab, layers=3, dropout=0.2)
        out = enc.forward(batch, rng=np.random.default_rng(0))
        T.backward((out * out).sum())
        # blocks 0-1: q, k, v, o, w1, w2 over the tokens; block 2: k and v over the
        # tokens, q, o, w1, w2 over the 4 CLS rows. Each linear is recorded with its
        # forward and its input-gradient product.
        assert tokens == 20 < batch.attention_mask.size
        assert sorted(rows) == sorted([tokens] * 3 * 14 + [4] * 3 * 4)


class TestActivationLifetime:
    """A grad-on forward keeps alive only the arrays some backward closure reads. With the cyclic collector off,
    a result the caller drops and no closure reads is freed by reference counting before ``backward``."""

    def _embed_and_block(self, monkeypatch, keep):
        """Block 0 of a padded two-block encoder with dropout on, from its embeddings, then ``backward``.
        ``keep`` collects every recorded result, or is None. Returns, for each recorded op (in call order),
        whether its result's data was alive just before ``backward``, and the leaf gradients."""
        batch, vocab = toy_batch(["a b c d e f g", "h", "i j k", "l m n o p"], max_len=8)
        assert batch.attention_mask.sum() < batch.attention_mask.size
        enc = toy_encoder(vocab, layers=2, dropout=0.3)
        ops = ("linear", "layer_norm", "gelu", "attention", "dropout")
        made = {op: [] for op in (*ops, "add")}

        def recording(op, fn):
            def record(*args, **kwargs):
                out = fn(*args, **kwargs)
                made[op].append(weakref.ref(out.data))
                if keep is not None:
                    keep.append(out)
                return out

            return record

        rng = np.random.default_rng(4)
        with monkeypatch.context() as m:
            for owner, name, op in (*((T, op, op) for op in ops), (T.Tensor, "__add__", "add")):
                m.setattr(owner, name, recording(op, getattr(owner, name)))
            gc.disable()
            try:
                x = enc.embed(batch, rng=rng)
                out = enc.block(0, x, batch, rng)
                loss = out.sum()
                del x, out
                alive = {op: [ref() is not None for ref in refs] for op, refs in made.items()}
                T.backward(loss)
            finally:
                gc.enable()
        return alive, {name: t.grad.tobytes() for name, t in enc.params.items() if t.grad is not None}

    def test_results_no_closure_reads_die_before_backward(self, monkeypatch):
        alive, _ = self._embed_and_block(monkeypatch, keep=None)
        # linear: k, v, q, the attention output, the FFN's first and second layer; attention keeps q, k and v
        # packed, GELU keeps the FFN's first layer, and the linears that read a layer norm's, attention's or
        # GELU's result keep its recompute recipe instead
        assert alive["linear"] == [True, True, True, False, True, False]
        assert alive["layer_norm"] == [False, False]
        assert alive["gelu"] == [False]
        assert alive["attention"] == [False]
        assert alive["dropout"] == [False, False, False]  # the embeddings', attention's and the FFN's
        assert alive["add"] == [False, False, False]  # the embedding sum, the two residual sums

    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_no_closure_holds_a_recorded_result(self, task):
        """Walked from a two-block model's loss, the backward closures reach leaf parameters (their own vertices)
        and arrays, never a recorded result's Tensor or a constant: only arrays a formula reads outlive the forward."""
        texts = ["a b c d e f g", "h", "i j k", "l m n o p"]
        examples = [LabeledExample(text=t, emotion=i % 3, valence=i % 3, intensity=i % 2) for i, t in enumerate(texts)]
        vocab = build_vocab(examples, min_freq=1)
        batch = encode_batch(examples, vocab, 8)
        cfg = EncoderConfig(layers=2, heads=2, hidden=8, ffn_dim=16, max_positions=8, dropout=0.3)
        model = Model.build(cfg, len(vocab), TASKS[task].record(read_schema(task, None), LossWeights()), 3)
        loss = model.loss(model.forward(batch, rng=np.random.default_rng(0)), batch)
        held, seen, ops = [], set(), set()

        def reach(obj):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, T.Tensor):
                held.append(obj)
            elif isinstance(obj, tuple):
                for item in obj:
                    reach(item)
            elif callable(obj) and getattr(obj, "__closure__", None):
                for cell in obj.__closure__:
                    reach(cell.cell_contents)

        for vertex in T._topo_order(loss._vertex):
            if vertex._backward is not None:
                ops.add(vertex.op)
                reach(vertex._backward)
        assert held and all(t.requires_grad and t._vertex is None and t.op == "leaf" for t in held)
        assert {"linear", "attention", "layer_norm", "gelu", "dropout", "add", "gather", "cross_entropy"} <= ops

    def test_leaf_gradients_do_not_depend_on_what_the_caller_keeps(self, monkeypatch):
        kept = []
        _, held = self._embed_and_block(monkeypatch, keep=kept)
        _, dropped = self._embed_and_block(monkeypatch, keep=None)
        assert kept and held.keys() == dropped.keys() and "l0.attn.wk" in held
        for name in held:
            assert held[name] == dropped[name], name


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
        # with two layers, block 0 runs on every real token and block 1 on the CLS rows only
        batch, vocab = toy_batch(["u v w x", "y z"], max_len=5)
        rng = np.random.default_rng(2)
        weights = T.tensor(rng.normal(size=(2, 8)))

        for layers in (1, 2):
            enc = toy_encoder(vocab, layers=layers, heads=2, hidden=8, ffn=16)
            errors = T.finite_diff_check(lambda: (enc.forward(batch) * weights).sum(), enc.params)
            assert list(errors) == list(enc.params)
            for name, err in errors.items():
                assert err < 1e-4, f"layers={layers} {name}: finite-difference error {err:.3e}"


class TestModel:
    @pytest.mark.parametrize("task", ["emotion", "mental_health"])
    def test_both_tasks_build_the_one_model_type(self, task):
        """``Model.build`` under a task's frozen record returns the one model type,
        whose parameters come from the head's seeded stream: encoder first, then head."""
        cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=8)
        schema = read_schema(task, None)
        model = Model.build(cfg, 10, TASKS[task].record(schema, LossWeights()), 3)
        assert type(model) is Model and model.head.schema is schema
        assert model.head.stream == {"emotion": 1, "mental_health": 2}[task]
        assert model.head.loss_weights == (LossWeights() if task == "emotion" else None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.head.schema = schema
        params = model.parameters()
        make = T.drawn(np.random.default_rng([3, model.head.stream]))
        encoder = Encoder(cfg, 10, make)
        want = {**encoder.parameters(), **model.head.params(8, make)}
        assert list(params) == list(want) == [*model.encoder.parameters(), *model.head_params]
        for name, tensor in want.items():
            np.testing.assert_array_equal(params[name].data, tensor.data, err_msg=name)
