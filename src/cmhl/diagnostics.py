"""Built-in gradient verification suites over toy fixtures.

Each suite compares analytic gradients against central finite differences for
one slice of the system: the loss formulas, the encoder stack, or the gating
path. Used by the command-line `gradcheck` and by the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .affect import AffectSchema, LossWeights
from .data import LabeledExample, MHLabelSchema, build_vocab, encode_batch
from .encoder import EncoderConfig
from .errors import ConfigError
from .heads import EmotionModel, emotion_head_params, emotion_heads_forward, exclusivity_loss, task_loss, total_loss
from .mh import MHModel, mh_head_params, mh_loss, mh_predict

TOLERANCE = 1e-4

SCOPES = ("losses", "encoder", "gate", "all")


@dataclass(frozen=True)
class GradCheckRow:
    component: str
    target: str
    error: float

    @property
    def passed(self) -> bool:
        return self.error < TOLERANCE


def _toy_batch():
    examples = [
        LabeledExample(text="glow warm bright", emotion=1, valence=0, intensity=0),
        LabeledExample(text="dust cold gray still", emotion=0, valence=1, intensity=1),
    ]
    vocab = build_vocab(examples, min_freq=1)
    return vocab, encode_batch(examples, vocab, 5)


def _loss_suite(corrupt: bool) -> list[GradCheckRow]:
    schema = AffectSchema.default()
    rng = np.random.default_rng(100)
    rows: list[GradCheckRow] = []
    d = 8
    h_cls = T.tensor(rng.normal(size=(2, d)))
    heads = emotion_head_params(6, d, rng)
    labels = {
        "primary": np.array([1, 0]),
        "valence": np.array([0, 1]),
        "intensity": np.array([0, 1]),
    }
    weights = LossWeights()

    def row(component, target, fn, point, offset=0.0):
        rows.append(GradCheckRow(component, target, T.finite_diff_check(fn, point, grad_offset=offset)))

    # balanced task loss against the shared input and every head parameter
    offset = 1.0 if corrupt else 0.0
    row("task_loss", "h_cls", lambda t: task_loss(emotion_heads_forward(t, heads), labels, weights), h_cls, offset)
    for name, tensor in heads.items():
        row("task_loss", name, lambda t: task_loss(emotion_heads_forward(h_cls, heads), labels, weights), tensor)

    # exclusivity hinge through the softmax that produces the probabilities
    logits = T.tensor(rng.normal(size=(2, 6)))
    row("exclusivity_loss", "logits", lambda t: exclusivity_loss(T.softmax(t), schema), logits)

    # composite objective
    row("total_loss", "h_cls", lambda t: total_loss(emotion_heads_forward(t, heads), labels, weights, schema), h_cls)

    # adaptive-weight objective, including the learnable weight itself
    mh = mh_head_params(5, d, rng, gate_dim=6)
    labels_m = np.array([2, 0])
    labels_s = np.array([1, -1])

    def mh_objective(h):
        pred = mh_predict(h, mh)
        return mh_loss(pred.z_final, pred.z_s, labels_m, labels_s, mh)

    h_mh = T.tensor(rng.normal(size=(2, d)))
    row("mh_loss", "h_cls", mh_objective, h_mh)
    row("mh_loss", "mh.beta_raw", lambda t: mh_objective(h_mh), mh["mh.beta_raw"])
    return rows


def _parameter_rows(component: str, fn, params: dict[str, T.Tensor], corrupt: bool) -> list[GradCheckRow]:
    """One row per parameter that ``fn`` reads; ``corrupt`` offsets the first analytic gradient."""
    offsets = [1.0 if corrupt else 0.0] + [0.0] * len(params)
    return [GradCheckRow(component, name, T.finite_diff_check(fn, tensor, grad_offset=offset))
            for (name, tensor), offset in zip(params.items(), offsets)]


def _encoder_suite(corrupt: bool) -> list[GradCheckRow]:
    schema = AffectSchema.default()
    vocab, batch = _toy_batch()
    cfg = EncoderConfig(layers=2, heads=2, hidden=8, ffn_dim=16, max_positions=8, dropout=0.0)
    model = EmotionModel.build(cfg, len(vocab), schema, LossWeights(), seed=101)

    def fn(_t):
        return model.loss(model.forward(batch), batch)

    return _parameter_rows("encoder_total_loss", fn, model.encoder.parameters(), corrupt)


def _gate_suite(corrupt: bool) -> list[GradCheckRow]:
    vocab, batch = _toy_batch()
    batch.labels["primary"] = np.array([1, 3])
    batch.labels["intensity"] = np.array([2, -1])
    cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=8, dropout=0.0)
    labels = MHLabelSchema()
    model = MHModel.build(cfg, len(vocab), labels, seed=102)
    model.heads = mh_head_params(5, 8, np.random.default_rng(103), gate_dim=6)
    with T.no_grad():  # no head parameter reaches the encoder, so its CLS vector is a constant
        h_cls = model.encoder.forward(batch)

    def fn(_t):
        return model.loss(mh_predict(h_cls, model.heads), batch)

    return _parameter_rows("gate_mh_loss", fn, model.heads, corrupt)


def run_gradcheck(scope: str = "all", corrupt: bool = False) -> list[GradCheckRow]:
    if scope not in SCOPES:
        raise ConfigError(f"scope must be one of {SCOPES}, got {scope!r}")
    rows: list[GradCheckRow] = []
    if scope in ("losses", "all"):
        rows += _loss_suite(corrupt)
        corrupt = False
    if scope in ("encoder", "all"):
        rows += _encoder_suite(corrupt)
        corrupt = False
    if scope in ("gate", "all"):
        rows += _gate_suite(corrupt)
    return rows
