"""Compact pre-norm transformer encoder that returns the CLS (position 0) vector.

Desk-scale by default (2 layers, 4 heads, hidden 64); the full-scale shape it
mirrors is 12 layers, 12 heads, hidden 768. Learned position embeddings,
GELU feed-forward. Padding-free: the residual stream is one packed [tokens, d]
array of the batch's real tokens (``Batch.attention_mask``'s True slots), so
every per-token op, GEMM and dropout runs on real rows only; ``T.attention``
alone lays the rows out per sample and masks the padded keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Batch
from .errors import ConfigError, NumericError, ShapeError


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    heads: int = 4
    hidden: int = 64
    ffn_dim: int = 256
    max_positions: int = 256
    dropout: float = 0.1

    def __post_init__(self):
        if self.layers < 0 or min(self.heads, self.hidden, self.ffn_dim, self.max_positions) < 1:
            raise ConfigError("encoder dimensions must be positive (layers may be 0)")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")


class Encoder:
    """Token+position embedding, L pre-norm attention/FFN blocks, the [B, d] CLS out; dropout only given ``rng``."""

    def __init__(self, config: EncoderConfig, vocab_size: int, rng: np.random.Generator | None):
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

    def parameters(self) -> dict[str, T.Tensor]:
        return self.params

    def embed(self, batch: Batch, *, rng=None) -> T.Tensor:
        """The [tokens, d] embeddings of the batch's real tokens, packed row-major (``batch.attention_mask``)."""
        ids = batch.token_ids
        n = ids.shape[1]
        if n > self.config.max_positions:
            raise ShapeError(f"sequence length {n} exceeds max_positions {self.config.max_positions}")
        if ids.max(initial=0) >= self.vocab_size:
            raise ShapeError(f"token id {ids.max()} outside vocabulary of {self.vocab_size}")
        tokens = T.embedding(self.params["tok_emb"], ids[batch.attention_mask])
        h = tokens + T.embedding(self.params["pos_emb"], batch.positions)
        return T.dropout(h, self.config.dropout, rng)

    def block(self, i: int, x: T.Tensor, batch: Batch, rng=None) -> T.Tensor:
        """Block ``i`` on the packed [tokens, d] stream ``x``: the next block's input, or the last block's [B, d] CLS
        rows. Only ``x`` and ``rng``'s state carry what precedes it, so kept copies of both stand for all of that."""
        cfg, p = self.config, self.params
        xn = T.layer_norm(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"])
        k, v = (T.linear(xn, p[f"l{i}.attn.w{c}"], p[f"l{i}.attn.b{c}"]) for c in "kv")
        if i == cfg.layers - 1:  # the heads read only the CLS rows: the rest of the block computes just them
            x, xn = T.gather(x, batch.cls, axis=0), T.gather(xn, batch.cls, axis=0)
        q = T.linear(xn, p[f"l{i}.attn.wq"], p[f"l{i}.attn.bq"])
        ctx = T.attention(q, k, v, batch.attention_mask, cfg.heads)
        out = T.linear(ctx, p[f"l{i}.attn.wo"], p[f"l{i}.attn.bo"])
        x = x + T.dropout(out, cfg.dropout, rng)

        yn = T.layer_norm(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
        hidden = T.gelu(T.linear(yn, p[f"l{i}.ffn.w1"], p[f"l{i}.ffn.b1"]))
        ffn_out = T.linear(hidden, p[f"l{i}.ffn.w2"], p[f"l{i}.ffn.b2"])
        x = x + T.dropout(ffn_out, cfg.dropout, rng)

        if not np.isfinite(x.data).all():
            raise NumericError(f"non-finite activations after encoder layer {i}")
        return x

    def encode(self, x: T.Tensor, batch: Batch, *, rng=None, start: int = 0) -> T.Tensor:
        """The [B, d] CLS vectors of ``batch`` from ``x``, the packed [tokens, d] input of block ``start``."""
        for i in range(start, self.config.layers):
            x = self.block(i, x, batch, rng)
        return x if self.config.layers else T.gather(x, batch.cls, axis=0)

    def forward(self, batch: Batch, *, rng=None) -> T.Tensor:
        return self.encode(self.embed(batch, rng=rng), batch, rng=rng)


@dataclass
class Model:
    """The encoder under one task's head record (``heads.EmotionModel`` or ``mh.MHModel``) and its parameters."""

    encoder: Encoder
    head: object
    head_params: dict[str, T.Tensor]

    @classmethod
    def build(cls, config: EncoderConfig, vocab_size: int, head, seed: int | None) -> "Model":
        rng = None if seed is None else np.random.default_rng([seed, head.stream])  # encoder, then head; None: zeros
        return cls(Encoder(config, vocab_size, rng), head, head.params(config.hidden, rng))

    def parameters(self) -> dict[str, T.Tensor]:
        return {**self.encoder.parameters(), **self.head_params}

    def forward(self, batch: Batch, *, rng=None):
        return self.head.forward(self.encoder.forward(batch, rng=rng), self.head_params)

    def loss(self, preds, batch: Batch) -> T.Tensor:
        return self.head.loss(preds, batch, self.head_params)
