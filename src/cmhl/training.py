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
    split_examples,
)
from .encoder import EncoderConfig, Model
from .errors import ConfigError, DataError, NumericError, read_json_object, read_record
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
        if self.warmup < 0 or (self.warmup >= 1 and self.warmup % 1):
            raise ConfigError(f"warmup must be a fraction in [0, 1) or a whole step count, got {self.warmup}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1 when set")
        if self.max_seq_len < 2:
            raise ConfigError(f"max_seq_len must be >= 2, got {self.max_seq_len}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError(f"validation_fraction must lie in (0, 1), got {self.validation_fraction}")
        for name in ("p_synonym", "p_deletion"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {getattr(self, name)}")

    @classmethod
    def mental_health_preset(cls) -> "TrainConfig":
        return cls(**MHModel.preset)

    def warmup_steps(self, total_steps: int) -> int:
        if self.warmup == 0:
            return 0
        if self.warmup < 1:
            return int(round(total_steps * self.warmup))
        return int(self.warmup)


def combined_score(macro_f1: float, mean_confidence: float) -> float:
    return F1_WEIGHT * macro_f1 + CONFIDENCE_WEIGHT * mean_confidence


def batch_width(chunk: list[LabeledExample], max_seq_len: int) -> int:
    """Row width a batch of ``chunk`` pads to: [CLS] plus its longest token count, within [2, max_seq_len]."""
    return max(2, min(max_seq_len, 1 + max(len(ex.tokens) for ex in chunk)))


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


# -- optimizer -----------------------------------------------------------------


class AdamW:
    """AdamW over named tensors: decoupled weight decay, then bias-corrected moments.

    ``step(lr_t)`` updates every parameter in place from its ``.grad`` (none
    counts as zero). Each operation of the textbook update runs in its order
    through ``out=``, one ``CHUNK``-element slice of each flattened parameter
    at a time, so the slice and two scratch slices stay in cache throughout.
    A non-finite learning rate or gradient raises before any parameter,
    moment or the step count moves.
    """

    CHUNK = 1 << 14  # elements: 128 KiB per array, six of which fit a 2 MiB L2 cache together

    def __init__(self, params: dict[str, T.Tensor], weight_decay: float):
        self.params = params
        self.weight_decay = weight_decay
        self.steps = 0
        self.m = {k: np.zeros(v.data.shape) for k, v in params.items()}  # C order, so flat views alias them
        self.v = {k: np.zeros(v.data.shape) for k, v in params.items()}

    def step(self, lr_t: float) -> None:
        if not math.isfinite(lr_t):
            raise NumericError(f"non-finite learning rate {lr_t}")
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient for parameter {name!r}")
        b1, b2 = ADAM_BETAS
        self.steps += 1
        t = self.steps
        scratch_a, scratch_b = np.empty(self.CHUNK), np.empty(self.CHUNK)
        for name, p in self.params.items():
            w = p.data.reshape(-1)  # a copy when .data is not C-contiguous, written back below
            g = np.zeros(w.size) if p.grad is None else p.grad.reshape(-1)
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            for lo in range(0, w.size, self.CHUNK):
                wc, gc, mc, vc = (x[lo : lo + self.CHUNK] for x in (w, g, m, v))
                a, b = scratch_a[: wc.size], scratch_b[: wc.size]
                if self.weight_decay:
                    wc *= 1.0 - lr_t * self.weight_decay
                mc *= b1
                mc += np.multiply(1.0 - b1, gc, out=a)
                vc *= b2
                np.multiply(1.0 - b2, gc, out=a)
                vc += np.multiply(a, gc, out=a)
                np.divide(mc, 1.0 - b1**t, out=a)  # m_hat, then lr_t * m_hat / (sqrt(v_hat) + eps)
                np.sqrt(np.divide(vc, 1.0 - b2**t, out=b), out=b)
                b += ADAM_EPS
                a *= lr_t
                wc -= np.divide(a, b, out=a)
            if not np.may_share_memory(w, p.data):
                p.data[...] = w.reshape(p.data.shape)

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


def predict(model: Model, examples: list[LabeledExample], vocab: Vocabulary, config: TrainConfig):
    """Argmax predictions and max-probability confidences, in input order.

    Eval mode without a graph. Batches are taken in order of token count
    (stable), so each pads only to the longest of near-equal lengths. The
    caller walks them from the short end and one helper thread from the long
    end until they meet, so the longest batch only ever runs beside a short
    one. Every batch is that of a serial walk, so the results are identical.
    The first error in either walker stops both and is raised here.
    """
    lengths = np.array([len(ex.tokens) for ex in examples], dtype=np.intp)
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
                    chunk = [examples[i] for i in idx]
                    batch = encode_batch(chunk, vocab, batch_width(chunk, config.max_seq_len))
                    probs = model.head.probs(model.forward(batch)).data
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


def score(model: Model, examples: list[LabeledExample], y_pred: np.ndarray, confs: np.ndarray) -> Metrics:
    """Metrics of predictions made by ``predict`` against the examples' labels."""
    if not examples:
        raise DataError("evaluation requires a non-empty example set")
    y_true = np.array([ex.emotion for ex in examples])
    macro_f1, recalls = _f1_recall(y_true, y_pred, len(model.head.schema.names))
    mean_conf = float(confs.mean())
    return Metrics(
        macro_f1=macro_f1,
        per_class_recall=recalls,
        macro_recall=float(np.mean(recalls)),
        mean_confidence=mean_conf,
        combined_score=combined_score(macro_f1, mean_conf),
    )


def evaluate(model: Model, examples: list[LabeledExample], vocab: Vocabulary, config: TrainConfig) -> Metrics:
    return score(model, examples, *predict(model, examples, vocab, config))


def accuracy(model: Model, examples: list[LabeledExample], vocab: Vocabulary, config: TrainConfig) -> float:
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
    steps_taken: int

    @property
    def best_metrics(self) -> Metrics:
        return self.history[self.best_index]


def train(
    model: Model,
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
    train_examples, val_examples = split_examples(corpus, config.seed, config.validation_fraction, validation)

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
                    batch = encode_batch(chunk, vocab, batch_width(chunk, config.max_seq_len))
                    rng = np.random.default_rng([config.seed, 7, epoch, micro_idx])
                    preds = model.forward(batch, rng=rng)
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
        steps_taken=global_step,
    )


# -- persistence -----------------------------------------------------------------


TASKS = {r.task: r for r in (EmotionModel, MHModel)}  # each task's one record, by the name runs use


def task_record(task: str) -> type[EmotionModel] | type[MHModel]:
    if task not in TASKS:
        raise ConfigError(f"task must be one of {tuple(TASKS)}, got {task!r}")
    return TASKS[task]


def read_schema(task: str, path: str | Path | None) -> AffectSchema | MHLabelSchema:
    """Task ``task``'s schema from the JSON file at ``path``, or its default schema when no path is set."""
    return task_record(task).schema_type.from_jsonable(read_json_object(path, "schema") if path else {})


@dataclass
class Checkpoint:
    """A saved model; ``head`` is ``task``'s record of ``schema_json`` and ``loss_weights``, made on creation."""

    task: str
    encoder_config: EncoderConfig
    train_config: TrainConfig
    loss_weights: LossWeights | None
    vocab: Vocabulary
    schema_json: dict
    epoch: int
    metrics: Metrics | None
    tensors: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    head: EmotionModel | MHModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        record = task_record(self.task)
        self.head = record.record(record.schema_type.from_jsonable(self.schema_json), self.loss_weights)
        if self.head.loss_weights != self.loss_weights:
            raise ConfigError(f"loss_weights must be null for task {self.task!r}, got {self.loss_weights}")


@dataclass(frozen=True)
class _TensorEntry:
    """One tensor of a manifest: a bare file name inside the checkpoint, of little-endian float64."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    file: str

    def __post_init__(self):
        if self.file in ("", "..") or "\0" in self.file or Path(self.file).name != self.file:
            raise ConfigError(f"tensor {self.name!r}: file {self.file!r} is not a file name inside the checkpoint")
        if self.dtype != "<f8" or min(self.shape, default=0) < 0:
            raise ConfigError(f"tensor {self.name!r}: {self.dtype!r} of shape {self.shape} is not <f8 of sizes >= 0")


@dataclass(frozen=True)
class _Manifest:
    """A checkpoint manifest (``format`` 1), as written and read; ``schema`` is read by the task's schema type."""

    format: int
    task: str
    epoch: int
    metrics: Metrics | None
    encoder: EncoderConfig
    train: TrainConfig
    loss_weights: LossWeights | None
    vocab: Vocabulary
    schema: dict[str, object]
    tensors: tuple[_TensorEntry, ...]


def save_checkpoint(ckpt: Checkpoint, directory: str | Path) -> None:
    """JSON manifest plus one little-endian float64 binary per tensor."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (name, data) in enumerate(sorted(ckpt.tensors.items())):
        entries.append(_TensorEntry(name, data.shape, "<f8", f"tensor_{i:04d}.bin"))
        (directory / entries[-1].file).write_bytes(np.ascontiguousarray(data, dtype="<f8").tobytes())
    manifest = _Manifest(1, ckpt.task, ckpt.epoch, ckpt.metrics, ckpt.encoder_config, ckpt.train_config,
                         ckpt.loss_weights, ckpt.vocab, ckpt.schema_json, tuple(entries))
    (directory / "manifest.json").write_text(json.dumps(asdict(manifest), indent=1))


def load_checkpoint(directory: str | Path) -> Checkpoint:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest.json under {directory}")
    manifest = read_json_object(manifest_path, "checkpoint manifest", DataError)
    if manifest.get("format") != 1:
        raise DataError(f"{manifest_path}: format {manifest.get('format')!r} is not 1")
    try:
        m = read_record(_Manifest, manifest)
        tensors = {}
        for entry in m.tensors:
            if entry.name in tensors:
                raise DataError(f"tensor {entry.name!r} is listed twice")
            raw = (directory / entry.file).read_bytes()
            if len(raw) != 8 * math.prod(entry.shape):
                raise DataError(f"tensor file {entry.file}: {len(raw)} bytes, expected {8 * math.prod(entry.shape)}")
            tensors[entry.name] = np.frombuffer(raw, dtype="<f8").reshape(entry.shape).copy()
        check_seq_len(m.encoder, m.train)
        return Checkpoint(m.task, m.encoder, m.train, m.loss_weights, m.vocab, m.schema, m.epoch, m.metrics, tensors)
    except ConfigError as exc:  # a key unknown or missing; a value of the wrong type or range
        raise DataError(f"{manifest_path}: malformed value: {exc}") from None
    except (DataError, OSError) as exc:  # a tensor file that is missing, unreadable or of the wrong size
        raise DataError(f"{manifest_path}: {exc}") from None


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    """The model the checkpoint names, each tensor a copy of its array. Each name and shape is checked as the
    layout reaches it, so the first tensor the checkpoint lacks or holds at another shape is named before it
    is allocated; so are tensors the model has no place for."""
    left = dict(ckpt.tensors)

    def make(name: str, shape, fill=None) -> T.Tensor:
        if name not in left:
            raise DataError(f"the model's tensor {name!r} is not in the checkpoint")
        array = left.pop(name)
        if array.shape != tuple(shape):
            raise DataError(f"tensor {name!r} shape {array.shape} does not match model shape {tuple(shape)}")
        return T.Tensor(array.copy(), requires_grad=True)

    model = Model.made_by(ckpt.encoder_config, len(ckpt.vocab), ckpt.head, make)
    if left:
        raise DataError(f"checkpoint tensors the model does not have: {sorted(left)}")
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
