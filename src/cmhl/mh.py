"""Mental-health variant: diagnosis and severity heads, attention gating,
gated fusion, final prediction, and the adaptive-weight loss.

Both heads read the shared CLS vector. A small bottleneck network turns their
concatenated probabilities into two gate weights that rescale the diagnosis
and severity blocks before the fused final head. The severity term's loss
weight is a learnable scalar kept positive through softplus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import UNLABELED, Batch, MHLabelSchema
from .encoder import Encoder, cls_pool
from .errors import DataError, ShapeError

GATE_DIM = 128
SEVERITY_LEVELS = 3
BETA_INIT = 0.4


def _beta_raw_init(effective: float) -> float:
    # inverse softplus so the effective weight starts exactly at `effective`
    return math.log(math.expm1(effective))


@dataclass
class MHHeadParams:
    w_m: T.Tensor
    b_m: T.Tensor
    w_s: T.Tensor
    b_s: T.Tensor
    w_gate_in: T.Tensor  # [M+3, gate_dim]
    b_gate_in: T.Tensor
    w_gate_out: T.Tensor  # [gate_dim, 2]
    b_gate_out: T.Tensor
    w_fuse: T.Tensor  # [M+3, M]
    b_fuse: T.Tensor
    beta_raw: T.Tensor

    @classmethod
    def init(
        cls,
        num_categories: int,
        hidden: int,
        rng: np.random.Generator,
        gate_dim: int = GATE_DIM,
        severity_levels: int = SEVERITY_LEVELS,
    ) -> "MHHeadParams":
        feat = num_categories + severity_levels
        return cls(
            w_m=T.param((hidden, num_categories), rng),
            b_m=T.zeros(num_categories, requires_grad=True),
            w_s=T.param((hidden, severity_levels), rng),
            b_s=T.zeros(severity_levels, requires_grad=True),
            w_gate_in=T.param((feat, gate_dim), rng),
            b_gate_in=T.zeros(gate_dim, requires_grad=True),
            w_gate_out=T.param((gate_dim, 2), rng),
            b_gate_out=T.zeros(2, requires_grad=True),
            w_fuse=T.param((feat, num_categories), rng),
            b_fuse=T.zeros(num_categories, requires_grad=True),
            beta_raw=T.tensor(_beta_raw_init(BETA_INIT), requires_grad=True),
        )

    @property
    def num_categories(self) -> int:
        return self.w_m.shape[1]

    @property
    def severity_levels(self) -> int:
        return self.w_s.shape[1]

    @property
    def block_sizes(self) -> tuple[int, int]:
        return (self.num_categories, self.severity_levels)

    def parameters(self) -> dict[str, T.Tensor]:
        return {
            "mh.w_m": self.w_m,
            "mh.b_m": self.b_m,
            "mh.w_s": self.w_s,
            "mh.b_s": self.b_s,
            "mh.gate.w_in": self.w_gate_in,
            "mh.gate.b_in": self.b_gate_in,
            "mh.gate.w_out": self.w_gate_out,
            "mh.gate.b_out": self.b_gate_out,
            "mh.fuse.w": self.w_fuse,
            "mh.fuse.b": self.b_fuse,
            "mh.beta_raw": self.beta_raw,
        }


@dataclass
class MHPrediction:
    p_m: T.Tensor  # [batch, M] diagnosis head
    p_s: T.Tensor  # [batch, 3] severity head
    gate: T.Tensor  # [batch, 2]
    p_final: T.Tensor  # [batch, M] fused prediction


def mh_heads_forward(h_cls: T.Tensor, params: MHHeadParams) -> tuple[T.Tensor, T.Tensor]:
    if h_cls.data.ndim != 2 or h_cls.shape[1] != params.w_m.shape[0]:
        raise ShapeError(f"h_cls {h_cls.shape} does not match head input {params.w_m.shape[0]}")
    p_m = T.softmax(T.matmul(h_cls, params.w_m) + params.b_m)
    p_s = T.softmax(T.matmul(h_cls, params.w_s) + params.b_s)
    return p_m, p_s


def gate_weights(features: T.Tensor, params: MHHeadParams) -> T.Tensor:
    """Two softmax weights from the concatenated head outputs."""
    hidden = T.relu(T.matmul(features, params.w_gate_in) + params.b_gate_in)
    return T.softmax(T.matmul(hidden, params.w_gate_out) + params.b_gate_out)


def gated_fusion(features: T.Tensor, gate: T.Tensor, sizes: tuple[int, int]) -> T.Tensor:
    """Blockwise construction: [a_m * diagnosis block, a_s * severity block]."""
    m, s = sizes
    a_m = gate.select(-1, 0).reshape(gate.shape[0], 1)
    a_s = gate.select(-1, 1).reshape(gate.shape[0], 1)
    return T.concat([a_m * T.gather(features, range(m)), a_s * T.gather(features, range(m, m + s))])


def gated_fusion_product(features: T.Tensor, gate: T.Tensor, sizes: tuple[int, int]) -> T.Tensor:
    """Broadcast construction: expand the gate blockwise, multiply elementwise."""
    return T.repeat_blocks(gate, sizes) * features


def final_prediction(fused: T.Tensor, params: MHHeadParams) -> T.Tensor:
    if fused.shape[-1] != params.w_fuse.shape[0]:
        raise ShapeError(f"fused features {fused.shape} do not match {params.w_fuse.shape[0]}")
    return T.softmax(T.matmul(fused, params.w_fuse) + params.b_fuse)


def effective_beta(params: MHHeadParams) -> T.Tensor:
    return T.softplus(params.beta_raw)


def mh_loss(
    p_final: T.Tensor,
    p_s: T.Tensor,
    labels_m: np.ndarray,
    labels_s: np.ndarray,
    params: MHHeadParams,
) -> T.Tensor:
    """Diagnosis cross-entropy plus the softplus-weighted severity term.

    Severity labels of -1 mark intensity-unlabeled examples; those rows are
    dropped from the second term. With no labeled rows the term is absent.
    """
    labels_m = np.asarray(labels_m)
    if labels_m.size == 0:
        raise DataError("mh_loss requires at least one labeled example")
    loss = T.cross_entropy(p_final, labels_m)
    labeled = np.flatnonzero(np.asarray(labels_s) != UNLABELED)
    if labeled.size:
        severity_ce = T.cross_entropy(T.gather(p_s, labeled, axis=0), np.asarray(labels_s)[labeled])
        loss = loss + effective_beta(params) * severity_ce
    return loss


class MHModel:
    """Encoder plus the gated mental-health heads."""

    task = "mental_health"
    weights = None  # no fixed loss weights: the severity weight is learned

    def __init__(self, encoder: Encoder, heads: MHHeadParams, labels: MHLabelSchema):
        self.encoder = encoder
        self.heads = heads
        self.labels = labels

    @classmethod
    def build(cls, encoder_config, vocab_size: int, labels: MHLabelSchema, seed: int) -> "MHModel":
        rng = np.random.default_rng([seed, 2])
        encoder = Encoder(encoder_config, vocab_size, rng)
        heads = MHHeadParams.init(
            len(labels.categories),
            encoder_config.hidden,
            rng,
            severity_levels=labels.severity_levels,
        )
        return cls(encoder, heads, labels)

    def parameters(self) -> dict[str, T.Tensor]:
        return {**self.encoder.parameters(), **self.heads.parameters()}

    @property
    def num_primary_classes(self) -> int:
        return len(self.labels.categories)

    def forward(self, batch: Batch, *, training: bool = False, rng=None) -> MHPrediction:
        h_cls = cls_pool(self.encoder.forward(batch, training=training, rng=rng))
        p_m, p_s = mh_heads_forward(h_cls, self.heads)
        features = T.concat([p_m, p_s])
        gate = gate_weights(features, self.heads)
        fused = gated_fusion_product(features, gate, self.heads.block_sizes)
        return MHPrediction(p_m=p_m, p_s=p_s, gate=gate, p_final=final_prediction(fused, self.heads))

    def loss(self, preds: MHPrediction, batch: Batch) -> T.Tensor:
        return mh_loss(
            preds.p_final, preds.p_s, batch.labels["primary"], batch.labels["intensity"], self.heads
        )

    def primary_probs(self, preds: MHPrediction) -> T.Tensor:
        return preds.p_final
