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
import math
import threading
from collections import deque
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
    default_lexicon,
    encode_batch,
    load_corpus,
    load_mh_corpus,
    split_examples,
    tokenize,
)
from .encoder import EncoderConfig
from .errors import ConfigError, DataError, NumericError, check_fields, read_json_object
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
        if self.max_seq_len < 2:
            raise ConfigError(f"max_seq_len must be >= 2, got {self.max_seq_len}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError(f"validation_fraction must lie in (0, 1), got {self.validation_fraction}")

    @classmethod
    def mental_health_preset(cls) -> "TrainConfig":
        return cls(
            learning_rate=1.5e-5,
            warmup=400,
            batch_size=12,
            grad_accumulation_steps=1,
            epochs=10,
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


def check_seq_len(encoder: EncoderConfig, train: TrainConfig) -> None:
    """A ConfigError unless every padded batch fits the encoder's position table."""
    if train.max_seq_len > encoder.max_positions:
        raise ConfigError(f"max_seq_len {train.max_seq_len} exceeds encoder max_positions {encoder.max_positions}")


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


class AdamW:
    """AdamW over named tensors: decoupled weight decay, then bias-corrected moments.

    ``step(lr_t)`` updates every parameter in place from its ``.grad`` (none
    counts as zero). Each operation of the textbook update runs in its order
    through ``out=`` into one scratch pair sized to the largest parameter,
    allocated per step so it is not resident through the forward pass. A
    non-finite learning rate or gradient raises before any parameter, moment
    or the step count moves.
    """

    def __init__(self, params: dict[str, T.Tensor], weight_decay: float):
        self.params = params
        self.weight_decay = weight_decay
        self.steps = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self, lr_t: float) -> None:
        if not math.isfinite(lr_t):
            raise NumericError(f"non-finite learning rate {lr_t}")
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient for parameter {name!r}")
        b1, b2 = ADAM_BETAS
        self.steps += 1
        t = self.steps
        size = max((p.data.size for p in self.params.values()), default=0)
        scratch_a, scratch_b = np.empty(size), np.empty(size)
        for name, p in self.params.items():
            w = p.data
            g = p.grad if p.grad is not None else np.zeros_like(w)
            if self.weight_decay:
                w *= 1.0 - lr_t * self.weight_decay
            m, v = self.m[name], self.v[name]
            a = scratch_a[: w.size].reshape(w.shape)
            b = scratch_b[: w.size].reshape(w.shape)
            m *= b1
            m += np.multiply(1.0 - b1, g, out=a)
            v *= b2
            np.multiply(1.0 - b2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, 1.0 - b1**t, out=a)  # m_hat, then lr_t * m_hat / (sqrt(v_hat) + eps)
            np.sqrt(np.divide(v, 1.0 - b2**t, out=b), out=b)
            b += ADAM_EPS
            a *= lr_t
            w -= np.divide(a, b, out=a)

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
    (stable), so each pads only to the longest of near-equal lengths. The
    caller walks them from the short end and one helper thread from the long
    end until they meet, so the longest batch only ever runs beside a short
    one. Every batch is that of a serial walk, so the results are identical.
    The first error in either walker stops both and is raised here.
    """
    lengths = np.array([len(tokenize(ex.text)) for ex in examples], dtype=np.intp)
    order = np.argsort(lengths, kind="stable")
    preds, confs = np.empty(len(examples), dtype=np.intp), np.empty(len(examples))
    pending = deque(order[start : start + config.batch_size] for start in range(0, len(examples), config.batch_size))
    lock, errors = threading.Lock(), []

    def walk(from_long_end: bool) -> None:
        try:
            with T.no_grad():  # a new thread does not inherit the caller's grad mode
                while True:
                    with lock:
                        if not pending:
                            return
                        idx = pending.pop() if from_long_end else pending.popleft()
                    seq = min(config.max_seq_len, 1 + int(lengths[idx].max()))
                    batch = encode_batch([examples[i] for i in idx], vocab, max(seq, 2))
                    probs = model.primary_probs(model.forward(batch)).data
                    preds[idx], confs[idx] = probs.argmax(axis=1), probs.max(axis=1)
        except BaseException as exc:  # raised in the caller once the helper has ended
            with lock:
                pending.clear()
            errors.append(exc)

    helper = threading.Thread(target=walk, args=(True,))
    helper.start()
    walk(False)
    helper.join()
    if errors:
        raise errors[0]
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


def score(model, examples: list[LabeledExample], y_pred: np.ndarray, confs: np.ndarray) -> Metrics:
    """Metrics of predictions made by ``predict`` against the examples' labels."""
    if not examples:
        raise DataError("evaluation requires a non-empty example set")
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


def evaluate(model, examples: list[LabeledExample], vocab: Vocabulary, config: TrainConfig) -> Metrics:
    return score(model, examples, *predict(model, examples, vocab, config))


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
    accumulation group are averaged before the optimizer steps. ``config.augment``
    alone decides augmentation; synonyms come from ``lexicon``, or from the
    bundled default lexicon when it is None.
    """
    if config.augment and lexicon is None:
        lexicon = default_lexicon()
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
            try:  # every numeric failure of a step names the epoch it stopped in
                for micro_idx in group:
                    sel = order[micro_idx * config.batch_size : (micro_idx + 1) * config.batch_size]
                    chunk = [train_examples[i] for i in sel]
                    if config.augment:
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
                        raise NumericError("training diverged (non-finite loss)")
                    T.backward(loss)
                    group_loss += loss.item()
                optimizer.step(lr_at(global_step, total_steps, warmup, config.learning_rate))
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch + 1}; last completed epoch: {len(history)}") from None
            optimizer.zero_grad()
            global_step += 1
            step_losses.append(group_loss)
            if step_callback is not None:
                step_callback(global_step, params)
        epoch_losses.append(float(np.mean(step_losses)))

        metrics = evaluate(model, val_examples, vocab, config)
        history.append(metrics)
        best_index = select_checkpoint(history)
        if best_index == len(history) - 1:
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
    """A saved model; ``schema`` is ``schema_json`` parsed by ``task``'s schema type on creation."""

    task: str
    encoder_config: EncoderConfig
    train_config: TrainConfig
    loss_weights: LossWeights | None
    vocab: Vocabulary
    schema_json: dict
    epoch: int
    metrics: Metrics | None
    tensors: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    schema: AffectSchema | MHLabelSchema = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {tuple(TASKS)}, got {self.task!r}")
        self.schema = TASKS[self.task].schema_type.from_jsonable(self.schema_json)


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
    manifest = read_json_object(manifest_path, "checkpoint manifest", DataError)
    if manifest.get("format") != 1:
        raise DataError(f"{manifest_path}: format {manifest.get('format')!r} is not 1")
    try:
        tensors = {}
        for entry in manifest["tensors"]:
            path, shape = directory / entry["file"], tuple(entry["shape"])
            raw, expected = path.read_bytes(), 8 * math.prod(shape)
            if entry["dtype"] != "<f8" or len(raw) != expected:
                raise DataError(f"tensor file {path}: {len(raw)} bytes of {entry['dtype']}, expected {expected} of <f8")
            tensors[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        lw = manifest.get("loss_weights")
        encoder_config = EncoderConfig(**check_fields(EncoderConfig, manifest["encoder"], "encoder"))
        train_config = TrainConfig(**check_fields(TrainConfig, manifest["train"], "train"))
        check_seq_len(encoder_config, train_config)
        return Checkpoint(
            task=manifest["task"],
            encoder_config=encoder_config,
            train_config=train_config,
            loss_weights=None if lw is None else LossWeights(**check_fields(LossWeights, lw, "loss_weights")),
            vocab=Vocabulary.from_jsonable(manifest["vocab"]),
            schema_json=manifest["schema"],
            epoch=manifest["epoch"],
            metrics=None if manifest["metrics"] is None else Metrics.from_jsonable(manifest["metrics"]),
            tensors=tensors,
        )
    except KeyError as exc:
        raise DataError(f"{manifest_path}: missing key {exc}") from None
    except (TypeError, ConfigError) as exc:  # a wrong JSON type; a config or schema value of the wrong type or range
        raise DataError(f"{manifest_path}: malformed value: {exc}") from None


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
        return self.schema_type.from_jsonable(read_json_object(path, "schema")) if path else self.schema_type.default()


TASKS = {
    "emotion": Task(
        schema_type=AffectSchema,
        preset=TrainConfig,
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
    weights = ckpt.loss_weights or LossWeights()
    model = TASKS[ckpt.task].build(ckpt.encoder_config, len(ckpt.vocab), ckpt.schema, weights, 0)

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
