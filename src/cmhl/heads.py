"""Emotion-task heads and the composite objective.

Three heads share the encoder's CLS vector and return logits. The objective
is the label-balanced sum of their softmax cross-entropies plus a hinge
penalty whenever an opposing (positive, negative) emotion pair's primary-head
probabilities sum past that pair's threshold. ``EmotionModel`` is the one
record of the emotion task; its ``build`` returns the ``encoder.Model`` that
runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from . import tensor as T
from .affect import AffectSchema, LossWeights
from .data import UNLABELED, Batch, LabeledExample, load_corpus
from .encoder import Model
from .errors import ConfigError, DataError, ShapeError

N_VALENCE = 3
N_INTENSITY = 2


@dataclass
class EmotionPrediction:
    z_e: T.Tensor  # [batch, num_emotions] logits
    z_v: T.Tensor  # [batch, 3] logits
    z_i: T.Tensor  # [batch, 2] logits
    p_e: T.Tensor  # softmax(z_e)


def emotion_heads_forward(h_cls: T.Tensor, params: dict[str, T.Tensor]) -> EmotionPrediction:
    hidden = params["head.w_e"].shape[0]
    if h_cls.data.ndim != 2 or h_cls.shape[1] != hidden:
        raise ShapeError(f"h_cls {h_cls.shape} does not match head input {hidden}")
    z_e, z_v, z_i = (T.linear(h_cls, params[f"head.w_{h}"], params[f"head.b_{h}"]) for h in "evi")
    return EmotionPrediction(z_e=z_e, z_v=z_v, z_i=z_i, p_e=T.softmax(z_e))


def task_loss(preds: EmotionPrediction, labels: dict[str, np.ndarray], weights: LossWeights) -> T.Tensor:
    """Primary cross-entropy plus weighted valence and intensity terms."""
    for key in ("valence", "intensity"):
        if np.any(labels[key] == UNLABELED):
            raise DataError(f"emotion task requires derived {key} labels on every example")
    return (
        T.cross_entropy(preds.z_e, labels["primary"])
        + weights.alpha1 * T.cross_entropy(preds.z_v, labels["valence"])
        + weights.alpha2 * T.cross_entropy(preds.z_i, labels["intensity"])
    )


def exclusivity_loss(p_e: T.Tensor, schema: AffectSchema) -> T.Tensor:
    """Batch-mean hinge on opposing-pair probability sums above ``schema.tau``; ``p_e`` is [batch, k]."""
    rows = p_e.shape[0]
    pos_idx, neg_idx = schema.taxonomy.positive, schema.taxonomy.negative
    pos = T.gather(p_e, pos_idx, axis=-1).reshape(rows, len(pos_idx), 1)
    neg = T.gather(p_e, neg_idx, axis=-1).reshape(rows, 1, len(neg_idx))
    hinged = T.relu(pos + neg - T.tensor(schema.tau))
    return hinged.sum(axis=2).sum(axis=1).mean()


def total_loss(
    preds: EmotionPrediction, labels: dict[str, np.ndarray], weights: LossWeights, schema: AffectSchema
) -> T.Tensor:
    return task_loss(preds, labels, weights) + weights.lambda_excl * exclusivity_loss(preds.p_e, schema)


@dataclass(frozen=True)
class EmotionModel:
    """The emotion task's record: its name, schema type and preset, and the heads and objective under ``Model``."""

    schema: AffectSchema
    loss_weights: LossWeights
    task: ClassVar[str] = "emotion"  # the name in run configs and manifests
    schema_type: ClassVar[type] = AffectSchema
    preset: ClassVar[MappingProxyType] = MappingProxyType({})  # TrainConfig overrides: none
    stream: ClassVar[int] = 1  # the model's seeded parameter stream

    @classmethod
    def record(cls, schema: AffectSchema, loss_weights: LossWeights | None) -> "EmotionModel":
        if loss_weights is None:
            raise ConfigError(f"task {cls.task!r} needs loss_weights, got null")
        return cls(schema, loss_weights)

    @classmethod
    def build(cls, encoder_config, vocab_size: int, schema: AffectSchema, weights: LossWeights, seed: int) -> Model:
        return Model.build(encoder_config, vocab_size, cls(schema, weights), seed)

    def load(self, path) -> list[LabeledExample]:
        return load_corpus(path, self.schema)[0]  # the module global, looked up at each call

    def params(self, hidden: int, make) -> dict[str, T.Tensor]:
        """Affine projections `[hidden -> classes]` for the three heads, made by checkpoint name (``Encoder``)."""
        k = len(self.schema.taxonomy)
        layout = (
            ("head.w_e", (hidden, k)), ("head.b_e", (k,), 0.0),
            ("head.w_v", (hidden, N_VALENCE)), ("head.b_v", (N_VALENCE,), 0.0),
            ("head.w_i", (hidden, N_INTENSITY)), ("head.b_i", (N_INTENSITY,), 0.0),
        )
        return {name: make(name, *rest) for name, *rest in layout}

    def forward(self, h_cls: T.Tensor, params: dict[str, T.Tensor]) -> EmotionPrediction:
        return emotion_heads_forward(h_cls, params)

    def loss(self, preds: EmotionPrediction, batch: Batch, params: dict[str, T.Tensor]) -> T.Tensor:
        return total_loss(preds, batch.labels, self.loss_weights, self.schema)

    def probs(self, preds: EmotionPrediction) -> T.Tensor:
        return preds.p_e
