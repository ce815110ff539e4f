"""Compact pre-norm transformer encoder with CLS pooling.

Desk-scale by default (2 layers, 4 heads, hidden 64); the full-scale shape it
mirrors is 12 layers, 12 heads, hidden 768. Learned position embeddings,
GELU feed-forward, additive -1e9 attention masking so gradients stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Batch
from .errors import ConfigError, NumericError, ShapeError

MASK_NEG = -1e9


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    heads: int = 4
    hidden: int = 64
    ffn_dim: int = 256
    max_positions: int = 256
    dropout: float = 0.1

    def __post_init__(self):
        if self.layers < 0 or self.heads < 1 or self.hidden < 1:
            raise ConfigError("encoder dimensions must be positive (layers may be 0)")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")


class Encoder:
    """Token+position embedding, L pre-norm attention/FFN blocks, CLS pooling."""

    def __init__(self, config: EncoderConfig, vocab_size: int, rng: np.random.Generator):
        self.config = config
        self.vocab_size = vocab_size
        d, ffn = config.hidden, config.ffn_dim
        p: dict[str, T.Tensor] = {
            "tok_emb": T.param((vocab_size, d), rng),
            "pos_emb": T.param((config.max_positions, d), rng),
        }
        for i in range(config.layers):
            p[f"l{i}.ln1.g"] = T.ones(d, requires_grad=True)
            p[f"l{i}.ln1.b"] = T.zeros(d, requires_grad=True)
            for name in ("wq", "wk", "wv", "wo"):
                p[f"l{i}.attn.{name}"] = T.param((d, d), rng)
            for name in ("bq", "bk", "bv", "bo"):
                p[f"l{i}.attn.{name}"] = T.zeros(d, requires_grad=True)
            p[f"l{i}.ln2.g"] = T.ones(d, requires_grad=True)
            p[f"l{i}.ln2.b"] = T.zeros(d, requires_grad=True)
            p[f"l{i}.ffn.w1"] = T.param((d, ffn), rng)
            p[f"l{i}.ffn.b1"] = T.zeros(ffn, requires_grad=True)
            p[f"l{i}.ffn.w2"] = T.param((ffn, d), rng)
            p[f"l{i}.ffn.b2"] = T.zeros(d, requires_grad=True)
        self.params = p
        self.last_attention: list[np.ndarray] = []

    def parameters(self) -> dict[str, T.Tensor]:
        return self.params

    def embed(self, batch: Batch, *, training: bool = False, rng=None) -> T.Tensor:
        ids = batch.token_ids
        n = ids.shape[1]
        if n > self.config.max_positions:
            raise ShapeError(f"sequence length {n} exceeds max_positions {self.config.max_positions}")
        if ids.max(initial=0) >= self.vocab_size:
            raise ShapeError(f"token id {ids.max()} outside vocabulary of {self.vocab_size}")
        positions = np.broadcast_to(np.arange(n), ids.shape)
        h = T.embedding(self.params["tok_emb"], ids) + T.embedding(self.params["pos_emb"], positions)
        return T.dropout(h, self.config.dropout, rng, training)

    def encode(self, h0: T.Tensor, mask: np.ndarray, *, training: bool = False, rng=None) -> T.Tensor:
        cfg = self.config
        batch_size, n, d = h0.shape
        if mask.shape != (batch_size, n):
            raise ShapeError(f"mask shape {mask.shape} does not match input {(batch_size, n)}")
        dk = d // cfg.heads
        scale = 1.0 / np.sqrt(dk)
        # 0 at real tokens, MASK_NEG at padding
        mask_add = T.tensor((mask.astype(np.float64) - 1.0).reshape(batch_size, 1, 1, n) * -MASK_NEG)
        x = h0
        self.last_attention = []
        p = self.params
        for i in range(cfg.layers):
            xn = T.layer_norm(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"])

            def heads(t: T.Tensor) -> T.Tensor:
                return t.reshape(batch_size, n, cfg.heads, dk).swapaxes(1, 2)

            q = heads(T.matmul(xn, p[f"l{i}.attn.wq"]) + p[f"l{i}.attn.bq"])
            k = heads(T.matmul(xn, p[f"l{i}.attn.wk"]) + p[f"l{i}.attn.bk"])
            v = heads(T.matmul(xn, p[f"l{i}.attn.wv"]) + p[f"l{i}.attn.bv"])
            scores = T.matmul(q, k.swapaxes(-1, -2)) * scale + mask_add
            att = T.softmax(scores, axis=-1)
            self.last_attention.append(att.data)
            ctx = T.matmul(att, v).swapaxes(1, 2).reshape(batch_size, n, d)
            out = T.matmul(ctx, p[f"l{i}.attn.wo"]) + p[f"l{i}.attn.bo"]
            x = x + T.dropout(out, cfg.dropout, rng, training)

            yn = T.layer_norm(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
            hidden = T.gelu(T.matmul(yn, p[f"l{i}.ffn.w1"]) + p[f"l{i}.ffn.b1"])
            ffn_out = T.matmul(hidden, p[f"l{i}.ffn.w2"]) + p[f"l{i}.ffn.b2"]
            x = x + T.dropout(ffn_out, cfg.dropout, rng, training)

            if not np.all(np.isfinite(x.data)):
                raise NumericError(f"non-finite activations after encoder layer {i}")
        return x

    def forward(self, batch: Batch, *, training: bool = False, rng=None) -> T.Tensor:
        h0 = self.embed(batch, training=training, rng=rng)
        return self.encode(h0, batch.attention_mask, training=training, rng=rng)


def cls_pool(hidden: T.Tensor) -> T.Tensor:
    """Position-0 slice: the aggregate sequence representation."""
    if hidden.data.ndim != 3 or hidden.shape[1] < 1:
        raise ShapeError(f"expected [batch, seq, hidden], got {hidden.shape}")
    return hidden.select(1, 0)
