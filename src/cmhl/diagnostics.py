"""Built-in gradient verification suites over toy fixtures.

Each suite builds the cases for one slice of the system: the loss formulas,
the encoder stack, or the gating path. A case is ``(component, {target:
tensor}, objective)``; ``run_gradcheck`` checks each case with one backward
pass and central differences, one row per target. The encoder suite has one
case for the embeddings and one per block, whose loss runs from that block's
input, computed once. Used by `cmhl gradcheck` and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .affect import AffectSchema, LossWeights
from .data import LabeledExample, MHLabelSchema, build_vocab, encode_batch
from .encoder import EncoderConfig
from .errors import ConfigError
from .heads import EmotionModel, emotion_heads_forward, exclusivity_loss, task_loss, total_loss
from .mh import MHModel, mh_head_params, mh_loss

TOLERANCE = 1e-4


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


def _loss_suite():
    schema = AffectSchema.default()
    rng = np.random.default_rng(100)
    d = 8
    h_cls = T.tensor(rng.normal(size=(2, d)))
    weights = LossWeights()
    heads = EmotionModel(schema, weights).params(d, T.drawn(rng))
    labels = {
        "primary": np.array([1, 0]),
        "valence": np.array([0, 1]),
        "intensity": np.array([0, 1]),
    }
    logits = T.tensor(rng.normal(size=(2, 6)))
    mh = mh_head_params(5, d, T.drawn(rng), gate_dim=6)
    labels_m = np.array([2, 0])
    labels_s = np.array([1, -1])
    h_mh = T.tensor(rng.normal(size=(2, d)))

    def mh_objective():
        pred = MHModel(MHLabelSchema()).forward(h_mh, mh)
        return mh_loss(pred.z_final, pred.z_s, labels_m, labels_s, mh)

    return [
        # balanced task loss against the shared input and every head parameter
        ("task_loss", {"h_cls": h_cls, **heads},
         lambda: task_loss(emotion_heads_forward(h_cls, heads), labels, weights)),
        # exclusivity hinge through the softmax that produces the probabilities
        ("exclusivity_loss", {"logits": logits}, lambda: exclusivity_loss(T.softmax(logits), schema)),
        # composite objective
        ("total_loss", {"h_cls": h_cls},
         lambda: total_loss(emotion_heads_forward(h_cls, heads), labels, weights, schema)),
        # adaptive-weight objective, including the learnable weight itself
        ("mh_loss", {"h_cls": h_mh, "mh.beta_raw": mh["mh.beta_raw"]}, mh_objective),
    ]


def _encoder_suite():
    schema = AffectSchema.default()
    vocab, batch = _toy_batch()
    cfg = EncoderConfig(layers=2, heads=2, hidden=8, ffn_dim=16, max_positions=8, dropout=0.0)
    model = EmotionModel.build(cfg, len(vocab), schema, LossWeights(), seed=101)
    encoder, params, heads = model.encoder, model.encoder.parameters(), model.head_params
    with T.no_grad():  # a block's gradients and perturbed losses depend on nothing upstream of its input
        inputs = [encoder.embed(batch)]
        for i in range(cfg.layers - 1):
            inputs.append(encoder.block(i, inputs[i], batch))

    def from_block(i):
        return lambda: model.loss(model.head.forward(encoder.encode(inputs[i], batch, start=i), heads), batch)

    embeddings = {k: params[k] for k in ("tok_emb", "pos_emb")}
    return [("encoder_total_loss", embeddings, lambda: model.loss(model.forward(batch), batch))] + [
        ("encoder_total_loss", {k: t for k, t in params.items() if k.startswith(f"l{i}.")}, from_block(i))
        for i in range(cfg.layers)]


def _gate_suite():
    vocab, batch = _toy_batch()
    batch.labels["primary"] = np.array([1, 3])
    batch.labels["intensity"] = np.array([2, -1])
    cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=8, dropout=0.0)
    labels = MHLabelSchema()
    model = MHModel.build(cfg, len(vocab), labels, seed=102)
    model.head_params = heads = mh_head_params(5, 8, T.drawn(np.random.default_rng(103)), gate_dim=6)
    with T.no_grad():  # no head parameter reaches the encoder, so its CLS vector is a constant
        h_cls = model.encoder.forward(batch)
    return [("gate_mh_loss", heads, lambda: model.loss(model.head.forward(h_cls, heads), batch))]


# an objective takes no argument: it reads its targets, which the check perturbs in place
SUITES = {"losses": _loss_suite, "encoder": _encoder_suite, "gate": _gate_suite}
SCOPES = (*SUITES, "all")


def run_gradcheck(scope: str = "all", corrupt: bool = False) -> list[GradCheckRow]:
    """One row per target of every case in ``scope``; ``corrupt`` offsets the first row's analytic gradient."""
    if scope not in SCOPES:
        raise ConfigError(f"scope must be one of {SCOPES}, got {scope!r}")
    rows: list[GradCheckRow] = []
    for name, suite in SUITES.items():
        if scope not in (name, "all"):
            continue
        for component, targets, objective in suite():
            errors = T.finite_diff_check(objective, targets, grad_offset=1.0 if corrupt and not rows else 0.0)
            rows.extend(GradCheckRow(component, target, error) for target, error in errors.items())
    return rows
