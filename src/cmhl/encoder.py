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
from itertools import chain

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
    """Token+position embedding, L pre-norm attention/FFN blocks, the [B, d] CLS out; dropout only given ``rng``.
    ``make(name, shape, fill=None)`` makes each tensor, in checkpoint order, as the lazy layout reaches it:
    ``T.drawn(rng)`` draws, and ``training.model_from_checkpoint`` copies a checkpoint's array once checked."""

    def __init__(self, config: EncoderConfig, vocab_size: int, make):
        self.config = config
        self.vocab_size = vocab_size
        d, ffn = config.hidden, config.ffn_dim
        block = (
            ("ln1.g", (d,), 1.0), ("ln1.b", (d,), 0.0),
            *((f"attn.w{c}", (d, d)) for c in "qkvo"), *((f"attn.b{c}", (d,), 0.0) for c in "qkvo"),
            ("ln2.g", (d,), 1.0), ("ln2.b", (d,), 0.0),
            ("ffn.w1", (d, ffn)), ("ffn.b1", (ffn,), 0.0), ("ffn.w2", (ffn, d)), ("ffn.b2", (d,), 0.0),
        )
        layout = chain(
            (("tok_emb", (vocab_size, d)), ("pos_emb", (config.max_positions, d))),
            ((f"l{i}.{name}", *rest) for i in range(config.layers) for name, *rest in block),
        )
        self.params: dict[str, T.Tensor] = {name: make(name, *rest) for name, *rest in layout}

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
        # names hold results no backward reads until return, so they die together: dying one by one fragmented the heap
        out = T.linear(ctx, p[f"l{i}.attn.wo"], p[f"l{i}.attn.bo"])
        attn = T.dropout(out, cfg.dropout, rng)
        x = x + attn

        yn = T.layer_norm(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
        hidden = T.gelu(T.linear(yn, p[f"l{i}.ffn.w1"], p[f"l{i}.ffn.b1"]))
        ffn_out = T.linear(hidden, p[f"l{i}.ffn.w2"], p[f"l{i}.ffn.b2"])
        mid, ffn = x, T.dropout(ffn_out, cfg.dropout, rng)
        x = mid + ffn

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
    def build(cls, config: EncoderConfig, vocab_size: int, head, seed: int) -> "Model":
        """The model drawn from the head's seeded stream ``[seed, head.stream]``: the encoder, then the head."""
        return cls.made_by(config, vocab_size, head, T.drawn(np.random.default_rng([seed, head.stream])))

    @classmethod
    def made_by(cls, config: EncoderConfig, vocab_size: int, head, make) -> "Model":
        """The model whose tensors ``make(name, shape, fill=None)`` makes, encoder then head, in checkpoint order."""
        return cls(Encoder(config, vocab_size, make), head, head.params(config.hidden, make))

    def parameters(self) -> dict[str, T.Tensor]:
        return {**self.encoder.parameters(), **self.head_params}

    def forward(self, batch: Batch, *, rng=None):
        return self.head.forward(self.encoder.forward(batch, rng=rng), self.head_params)

    def loss(self, preds, batch: Batch) -> T.Tensor:
        return self.head.loss(preds, batch, self.head_params)
