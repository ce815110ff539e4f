"""Mental-health variant: diagnosis and severity heads, attention gating,
gated fusion, final prediction, and the adaptive-weight loss.

Both heads read the shared CLS vector. A small bottleneck network turns their
concatenated probabilities into two gate weights that rescale the diagnosis
and severity blocks before the fused head. The severity and fused heads
return logits; the severity term's loss weight is a learnable scalar kept
positive through softplus. ``MHModel`` is the one record of the
mental-health task; its ``build`` returns the ``encoder.Model`` that runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from . import tensor as T
from .data import UNLABELED, Batch, LabeledExample, MHLabelSchema, load_mh_corpus
from .encoder import Model
from .errors import DataError, ShapeError

GATE_DIM = 128
SEVERITY_LEVELS = 3
BETA_INIT = 0.4


def mh_head_params(
    num_categories: int,
    hidden: int,
    make,
    gate_dim: int = GATE_DIM,
    severity_levels: int = SEVERITY_LEVELS,
) -> dict[str, T.Tensor]:
    """Both heads, the gate `[M+S -> gate_dim -> 2]`, the fused head and `beta_raw`, made by checkpoint name;
    `beta_raw` starts at softplus's inverse of `BETA_INIT`, so the effective weight starts exactly there."""
    feat = num_categories + severity_levels
    layout = (
        ("mh.w_m", (hidden, num_categories)), ("mh.b_m", (num_categories,), 0.0),
        ("mh.w_s", (hidden, severity_levels)), ("mh.b_s", (severity_levels,), 0.0),
        ("mh.gate.w_in", (feat, gate_dim)), ("mh.gate.b_in", (gate_dim,), 0.0),
        ("mh.gate.w_out", (gate_dim, 2)), ("mh.gate.b_out", (2,), 0.0),
        ("mh.fuse.w", (feat, num_categories)), ("mh.fuse.b", (num_categories,), 0.0),
        ("mh.beta_raw", (), math.log(math.expm1(BETA_INIT))),
    )
    return {name: make(name, *rest) for name, *rest in layout}


@dataclass
class MHPrediction:
    z_s: T.Tensor  # [batch, 3] severity logits
    z_final: T.Tensor  # [batch, M] fused logits


def mh_heads_forward(h_cls: T.Tensor, params: dict[str, T.Tensor]) -> tuple[T.Tensor, T.Tensor]:
    """Diagnosis probabilities ``p_m`` and severity logits ``z_s``."""
    hidden = params["mh.w_m"].shape[0]
    if h_cls.data.ndim != 2 or h_cls.shape[1] != hidden:
        raise ShapeError(f"h_cls {h_cls.shape} does not match head input {hidden}")
    p_m = T.softmax(T.linear(h_cls, params["mh.w_m"], params["mh.b_m"]))
    z_s = T.linear(h_cls, params["mh.w_s"], params["mh.b_s"])
    return p_m, z_s


def gate_weights(features: T.Tensor, params: dict[str, T.Tensor]) -> T.Tensor:
    """Two softmax weights from the concatenated head outputs."""
    hidden = T.relu(T.linear(features, params["mh.gate.w_in"], params["mh.gate.b_in"]))
    return T.softmax(T.linear(hidden, params["mh.gate.w_out"], params["mh.gate.b_out"]))


def gated_fusion_product(features: T.Tensor, gate: T.Tensor, sizes: tuple[int, int]) -> T.Tensor:
    """[a_m * diagnosis block, a_s * severity block]: the gate repeated blockwise, times the features."""
    m, s = sizes
    return T.gather(gate, [0] * m + [1] * s) * features


def final_prediction(fused: T.Tensor, params: dict[str, T.Tensor]) -> T.Tensor:
    width = params["mh.fuse.w"].shape[0]
    if fused.shape[-1] != width:
        raise ShapeError(f"fused features {fused.shape} do not match {width}")
    return T.linear(fused, params["mh.fuse.w"], params["mh.fuse.b"])


def effective_beta(params: dict[str, T.Tensor]) -> T.Tensor:
    return T.softplus(params["mh.beta_raw"])


def mh_loss(
    z_final: T.Tensor,
    z_s: T.Tensor,
    labels_m: np.ndarray,
    labels_s: np.ndarray,
    params: dict[str, T.Tensor],
) -> T.Tensor:
    """Fused-logit cross-entropy plus the softplus-weighted severity-logit cross-entropy.

    Severity labels of -1 mark intensity-unlabeled examples; those rows are
    dropped from the second term. With no labeled rows the term is absent.
    """
    labels_m = np.asarray(labels_m)
    if labels_m.size == 0:
        raise DataError("mh_loss requires at least one labeled example")
    loss = T.cross_entropy(z_final, labels_m)
    labeled = np.flatnonzero(np.asarray(labels_s) != UNLABELED)
    if labeled.size:
        severity_ce = T.cross_entropy(T.gather(z_s, labeled, axis=0), np.asarray(labels_s)[labeled])
        loss = loss + effective_beta(params) * severity_ce
    return loss


@dataclass(frozen=True)
class MHModel:
    """The mental-health task's record: its name, schema type and preset, and the gated heads and
    adaptive-weight loss under ``Model``."""

    schema: MHLabelSchema
    loss_weights: ClassVar[None] = None  # no fixed loss weights: the severity weight is learned
    task: ClassVar[str] = "mental_health"  # the name in run configs and manifests
    schema_type: ClassVar[type] = MHLabelSchema
    preset: ClassVar[MappingProxyType] = MappingProxyType(dict(  # TrainConfig overrides
        learning_rate=1.5e-5, warmup=400, batch_size=12, grad_accumulation_steps=1, epochs=10,
        early_stop_patience=3, augment=True,
    ))
    stream: ClassVar[int] = 2  # the model's seeded parameter stream

    @classmethod
    def record(cls, schema: MHLabelSchema, loss_weights) -> "MHModel":
        return cls(schema)  # a run config's loss_weights are reported, not read

    @classmethod
    def build(cls, encoder_config, vocab_size: int, labels: MHLabelSchema, seed: int) -> Model:
        return Model.build(encoder_config, vocab_size, cls(labels), seed)

    def load(self, path) -> list[LabeledExample]:
        return load_mh_corpus(path, self.schema)[0]  # the module global, looked up at each call

    def params(self, hidden: int, make) -> dict[str, T.Tensor]:
        return mh_head_params(len(self.schema.categories), hidden, make, severity_levels=self.schema.severity_levels)

    def forward(self, h_cls: T.Tensor, params: dict[str, T.Tensor]) -> MHPrediction:
        """Both heads, the gate, the gated fusion and the final head on the CLS vector."""
        p_m, z_s = mh_heads_forward(h_cls, params)
        features = T.concat([p_m, T.softmax(z_s)])
        gate = gate_weights(features, params)
        fused = gated_fusion_product(features, gate, (p_m.shape[1], z_s.shape[1]))
        return MHPrediction(z_s=z_s, z_final=final_prediction(fused, params))

    def loss(self, preds: MHPrediction, batch: Batch, params: dict[str, T.Tensor]) -> T.Tensor:
        return mh_loss(preds.z_final, preds.z_s, batch.labels["primary"], batch.labels["intensity"], params)

    def probs(self, preds: MHPrediction) -> T.Tensor:
        return T.softmax(preds.z_final)
