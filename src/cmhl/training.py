"""Optimization loop, evaluation metrics, checkpoint selection, persistence.

AdamW with decoupled weight decay, a linear warmup/decay schedule, gradient
accumulation that averages micro-batch losses before stepping, one evaluation
per epoch, and dual-criteria checkpoint selection (0.7 * macro-F1 +
0.3 * mean confidence) with earliest-epoch tie-break and optional early
stopping.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor as T
from .affect import AffectSchema, LossWeights
from .data import (
    LabeledExample,
    MHLabelSchema,
    Vocabulary,
    augment,
    augmentation_rng,
    encode_batch,
    load_corpus,
    load_mh_corpus,
    split_examples,
    tokenize,
)
from .encoder import EncoderConfig
from .errors import ConfigError, DataError, NumericError
from .heads import EmotionModel
from .mh import MHModel

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

F1_WEIGHT = 0.7
CONFIDENCE_WEIGHT = 0.3

METRICS_COLUMNS = ("epoch", "train_loss", "macro_f1", "macro_recall", "mean_confidence", "combined_score")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-5
    weight_decay: float = 0.01
    warmup: float = 0.1  # fraction of steps in (0,1), or absolute steps when >= 1
    batch_size: int = 16
    grad_accumulation_steps: int = 2
    epochs: int = 5
    max_seq_len: int = 256
    dropout: float = 0.1
    early_stop_patience: int | None = None
    seed: int = 0
    validation_fraction: float = 0.1
    augment: bool = False
    p_synonym: float = 0.1
    p_deletion: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("learning_rate, batch_size, and epochs must be positive")
        if self.grad_accumulation_steps < 1:
            raise ConfigError("grad_accumulation_steps must be >= 1")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1 when set")

    @classmethod
    def emotion_preset(cls) -> "TrainConfig":
        return cls()

    @classmethod
    def mental_health_preset(cls) -> "TrainConfig":
        return cls(
            learning_rate=1.5e-5,
            warmup=400,
            batch_size=12,
            grad_accumulation_steps=1,
            epochs=10,
            dropout=0.15,
            early_stop_patience=3,
            augment=True,
        )

    def warmup_steps(self, total_steps: int) -> int:
        if self.warmup == 0:
            return 0
        if self.warmup < 1:
            return int(round(total_steps * self.warmup))
        return int(self.warmup)


def combined_score(macro_f1: float, mean_confidence: float) -> float:
    return F1_WEIGHT * macro_f1 + CONFIDENCE_WEIGHT * mean_confidence


@dataclass(frozen=True)
class Metrics:
    macro_f1: float
    per_class_recall: tuple[float, ...]
    macro_recall: float
    mean_confidence: float
    combined_score: float

    def to_jsonable(self) -> dict:
        return {**asdict(self), "per_class_recall": list(self.per_class_recall)}

    @classmethod
    def from_jsonable(cls, raw: dict) -> "Metrics":
        return cls(**{**raw, "per_class_recall": tuple(raw["per_class_recall"])})


# -- optimizer -----------------------------------------------------------------


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict,
    lr_t: float,
    decay: float,
    betas: tuple[float, float] = ADAM_BETAS,
    eps: float = ADAM_EPS,
) -> None:
    """One in-place update: decoupled weight decay, then bias-corrected moments."""
    b1, b2 = betas
    state["step"] += 1
    t = state["step"]
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if decay:
            p *= 1.0 - lr_t * decay
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr_t * m_hat / (np.sqrt(v_hat) + eps)


class AdamW:
    def __init__(self, params: dict[str, T.Tensor], weight_decay: float):
        self.params = params
        self.weight_decay = weight_decay
        self.state = {
            "step": 0,
            "m": {k: np.zeros_like(v.data) for k, v in params.items()},
            "v": {k: np.zeros_like(v.data) for k, v in params.items()},
        }

    def step(self, lr_t: float) -> None:
        grads = {
            k: (v.grad if v.grad is not None else np.zeros_like(v.data))
            for k, v in self.params.items()
        }
        adamw_step(
            {k: v.data for k, v in self.params.items()},
            grads,
            self.state,
            lr_t,
            self.weight_decay,
        )

    def zero_grad(self) -> None:
        for v in self.params.values():
            v.zero_grad()


def lr_at(step: int, total_steps: int, warmup_steps: int, lr: float) -> float:
    """Linear ramp 0 -> lr across warmup, then linear decay lr -> 0 at total."""
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1")
    if warmup_steps >= total_steps:
        raise ConfigError(f"warmup ({warmup_steps}) must be shorter than total steps ({total_steps})")
    if step < 0:
        raise ConfigError("step must be >= 0")
    if warmup_steps > 0 and step <= warmup_steps:
        return lr * step / warmup_steps
    if step >= total_steps:
        return 0.0
    return lr * (total_steps - step) / (total_steps - warmup_steps)


# -- evaluation ----------------------------------------------------------------


def predict(model, examples: list[LabeledExample], vocab: Vocabulary, config: TrainConfig):
    """Argmax predictions and max-probability confidences, in input order.

    Eval mode without a graph. Batches are taken in order of token count
    (stable), so each pads only to the longest of near-equal lengths; results
    are scattered back to the order of ``examples``.
    """
    lengths = np.array([len(tokenize(ex.text)) for ex in examples], dtype=np.intp)
    order = np.argsort(lengths, kind="stable")
    preds = np.empty(len(examples), dtype=np.intp)
    confs = np.empty(len(examples))
    with T.no_grad():
        for start in range(0, len(examples), config.batch_size):
            idx = order[start : start + config.batch_size]
            seq = min(config.max_seq_len, 1 + int(lengths[idx].max()))
            batch = encode_batch([examples[i] for i in idx], vocab, max(seq, 2))
            probs = model.primary_probs(model.forward(batch)).data
            preds[idx] = probs.argmax(axis=1)
            confs[idx] = probs.max(axis=1)
    return preds, confs


def _f1_recall(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int):
    f1s, recalls = [], []
    for c in range(num_classes):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
        recalls.append(recall)
    return float(np.mean(f1s)), tuple(recalls)


def evaluate(model, examples: list[LabeledExample], vocab: Vocabulary, config: TrainConfig) -> Metrics:
    if not examples:
        raise DataError("evaluation requires a non-empty example set")
    y_pred, confs = predict(model, examples, vocab, config)
    y_true = np.array([ex.emotion for ex in examples])
    num_classes = model.num_primary_classes
    macro_f1, recalls = _f1_recall(y_true, y_pred, num_classes)
    mean_conf = float(confs.mean())
    return Metrics(
        macro_f1=macro_f1,
        per_class_recall=recalls,
        macro_recall=float(np.mean(recalls)),
        mean_confidence=mean_conf,
        combined_score=combined_score(macro_f1, mean_conf),
    )


def accuracy(model, examples: list[LabeledExample], vocab: Vocabulary, config: TrainConfig) -> float:
    y_pred, _ = predict(model, examples, vocab, config)
    y_true = np.array([ex.emotion for ex in examples])
    return float(np.mean(y_pred == y_true))


def select_checkpoint(history: list[Metrics]) -> int:
    """Index of the maximal combined score; earliest epoch wins ties."""
    if not history:
        raise DataError("cannot select a checkpoint from an empty history")
    return max(range(len(history)), key=lambda i: (history[i].combined_score, -i))


# -- training loop ---------------------------------------------------------------


@dataclass
class TrainResult:
    history: list[Metrics]
    epoch_losses: list[float]
    best_index: int
    best_params: dict[str, np.ndarray]
    stopped_early: bool
    total_steps: int
    steps_taken: int

    @property
    def best_metrics(self) -> Metrics:
        return self.history[self.best_index]


def train(
    model,
    vocab: Vocabulary,
    corpus: list[LabeledExample],
    config: TrainConfig,
    validation: list[LabeledExample] | None = None,
    lexicon: dict[str, tuple[str, ...]] | None = None,
    step_callback=None,
) -> TrainResult:
    """Full training run; returns per-epoch metrics and the best parameter set.

    The corpus is split deterministically by seed unless ``validation`` is
    given or the corpus carries split fields. Micro-batch losses within an
    accumulation group are averaged before the optimizer steps.
    """
    if validation is not None:
        train_examples = [ex for ex in corpus if ex.is_train]
        val_examples = validation
    else:
        train_examples, val_examples = split_examples(corpus, config.seed, config.validation_fraction)
    if not train_examples or not val_examples:
        raise DataError("training requires non-empty train and validation sets")

    params = model.parameters()
    optimizer = AdamW(params, config.weight_decay)

    n = len(train_examples)
    micro_per_epoch = -(-n // config.batch_size)
    steps_per_epoch = -(-micro_per_epoch // config.grad_accumulation_steps)
    total_steps = steps_per_epoch * config.epochs
    warmup = config.warmup_steps(total_steps)
    if warmup >= total_steps:
        raise ConfigError(
            f"warmup resolves to {warmup} steps but the run has only {total_steps}"
        )

    history: list[Metrics] = []
    epoch_losses: list[float] = []
    best_index = -1
    best_score = -np.inf
    best_params: dict[str, np.ndarray] = {}
    stopped_early = False
    global_step = 0

    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, 4, epoch]).permutation(n)
        step_losses: list[float] = []
        for group_start in range(0, micro_per_epoch, config.grad_accumulation_steps):
            group = range(
                group_start,
                min(group_start + config.grad_accumulation_steps, micro_per_epoch),
            )
            group_loss = 0.0
            for micro_idx in group:
                sel = order[micro_idx * config.batch_size : (micro_idx + 1) * config.batch_size]
                chunk = [train_examples[i] for i in sel]
                if config.augment and lexicon:
                    chunk = [
                        augment(
                            ex,
                            augmentation_rng(config.seed, epoch, int(orig)),
                            config.p_synonym,
                            config.p_deletion,
                            lexicon,
                        )
                        for ex, orig in zip(chunk, sel)
                    ]
                seq = min(config.max_seq_len, 1 + max(len(tokenize(ex.text)) for ex in chunk))
                batch = encode_batch(chunk, vocab, max(seq, 2))
                rng = np.random.default_rng([config.seed, 7, epoch, micro_idx])
                preds = model.forward(batch, training=True, rng=rng)
                loss = model.loss(preds, batch) / len(group)
                if not np.isfinite(loss.data):
                    raise NumericError(
                        f"training diverged (non-finite loss) at epoch {epoch + 1}; "
                        f"last completed epoch: {len(history)}"
                    )
                T.backward(loss)
                group_loss += loss.item()
            lr_t = lr_at(global_step, total_steps, warmup, config.learning_rate)
            optimizer.step(lr_t)
            optimizer.zero_grad()
            global_step += 1
            step_losses.append(group_loss)
            if step_callback is not None:
                step_callback(global_step, params)
        epoch_losses.append(float(np.mean(step_losses)))

        metrics = evaluate(model, val_examples, vocab, config)
        history.append(metrics)
        if metrics.combined_score > best_score:
            best_score = metrics.combined_score
            best_index = len(history) - 1
            best_params = {k: v.data.copy() for k, v in params.items()}
        if (
            config.early_stop_patience is not None
            and len(history) - 1 - best_index >= config.early_stop_patience
        ):
            stopped_early = True
            break

    return TrainResult(
        history=history,
        epoch_losses=epoch_losses,
        best_index=best_index,
        best_params=best_params,
        stopped_early=stopped_early,
        total_steps=total_steps,
        steps_taken=global_step,
    )


# -- persistence -----------------------------------------------------------------


@dataclass
class Checkpoint:
    task: str
    encoder_config: EncoderConfig
    train_config: TrainConfig
    loss_weights: LossWeights | None
    vocab: Vocabulary
    schema_json: dict
    epoch: int
    metrics: Metrics | None
    tensors: dict[str, np.ndarray] = field(repr=False, default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, directory: str | Path) -> None:
    """JSON manifest plus one little-endian float64 binary per tensor."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (name, data) in enumerate(sorted(ckpt.tensors.items())):
        fname = f"tensor_{i:04d}.bin"
        (directory / fname).write_bytes(np.ascontiguousarray(data, dtype="<f8").tobytes())
        entries.append({"name": name, "shape": list(data.shape), "dtype": "<f8", "file": fname})
    manifest = {
        "format": 1,
        "task": ckpt.task,
        "epoch": ckpt.epoch,
        "metrics": None if ckpt.metrics is None else ckpt.metrics.to_jsonable(),
        "encoder": asdict(ckpt.encoder_config),
        "train": asdict(ckpt.train_config),
        "loss_weights": None if ckpt.loss_weights is None else asdict(ckpt.loss_weights),
        "vocab": ckpt.vocab.to_jsonable(),
        "schema": ckpt.schema_json,
        "tensors": entries,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))


def load_checkpoint(directory: str | Path) -> Checkpoint:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest.json under {directory}")
    manifest = json.loads(manifest_path.read_text())
    tensors = {}
    for entry in manifest["tensors"]:
        raw = (directory / entry["file"]).read_bytes()
        tensors[entry["name"]] = np.frombuffer(raw, dtype=entry["dtype"]).reshape(entry["shape"]).copy()
    lw = manifest.get("loss_weights")
    return Checkpoint(
        task=manifest["task"],
        encoder_config=EncoderConfig(**manifest["encoder"]),
        train_config=TrainConfig(**manifest["train"]),
        loss_weights=None if lw is None else LossWeights(**lw),
        vocab=Vocabulary.from_jsonable(manifest["vocab"]),
        schema_json=manifest["schema"],
        epoch=manifest["epoch"],
        metrics=None if manifest["metrics"] is None else Metrics.from_jsonable(manifest["metrics"]),
        tensors=tensors,
    )


@dataclass(frozen=True)
class Task:
    """What differs between the emotion and the mental-health pipeline.

    ``load(path, schema)`` returns a corpus's examples; it looks the loader up
    by name at each call, so a wrapper installed on the module global is seen.
    ``build(encoder_config, vocab_size, schema, loss_weights, seed)`` returns
    a fresh model.
    """

    schema_type: type
    preset: Callable[[], TrainConfig]
    load: Callable[..., list[LabeledExample]]
    build: Callable

    def schema(self, path: str | Path | None):
        """The schema in ``path``, or the default one when no path is set."""
        return self.schema_type.from_json(path) if path else self.schema_type.default()


TASKS = {
    "emotion": Task(
        schema_type=AffectSchema,
        preset=TrainConfig.emotion_preset,
        load=lambda path, schema: load_corpus(path, schema)[0],
        build=EmotionModel.build,
    ),
    "mental_health": Task(
        schema_type=MHLabelSchema,
        preset=TrainConfig.mental_health_preset,
        load=lambda path, labels: load_mh_corpus(path, labels)[0],
        build=lambda config, vocab_size, labels, _weights, seed: MHModel.build(config, vocab_size, labels, seed),
    ),
}


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild the model named by the checkpoint and load its tensors."""
    if ckpt.task not in TASKS:
        raise DataError(f"unknown checkpoint task {ckpt.task!r}")
    task = TASKS[ckpt.task]
    schema = task.schema_type.from_jsonable(ckpt.schema_json)
    model = task.build(ckpt.encoder_config, len(ckpt.vocab), schema, ckpt.loss_weights or LossWeights(), 0)

    params = model.parameters()
    missing = set(params) ^ set(ckpt.tensors)
    if missing:
        raise DataError(f"checkpoint tensors do not match the model: {sorted(missing)}")
    for name, tensor in params.items():
        if tensor.data.shape != ckpt.tensors[name].shape:
            raise DataError(
                f"tensor {name!r} shape {ckpt.tensors[name].shape} does not match "
                f"model shape {tensor.data.shape}"
            )
        tensor.data[...] = ckpt.tensors[name]
    return model


def write_metrics_csv(path: str | Path, epoch_losses: list[float], history: list[Metrics]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(METRICS_COLUMNS)
        for i, (loss, m) in enumerate(zip(epoch_losses, history)):
            writer.writerow(
                [i + 1, f"{loss:.10f}", f"{m.macro_f1:.10f}", f"{m.macro_recall:.10f}",
                 f"{m.mean_confidence:.10f}", f"{m.combined_score:.10f}"]
            )
