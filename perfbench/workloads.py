"""The benchmark's four closed-loop workloads.

Each workload builds its inputs from the seed in its constructor (that is its
set-up), then ``run_once`` performs one whole operation: one training run,
one ``cmhl eval`` call or one ``cmhl gradcheck`` call. The loop in
``worker.py`` calls it again until the run's time is up. The program sees
only the generated inputs.

Calls into the program go through module attributes (``D.build_vocab``, not
``build_vocab``), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from cmhl import affect as A
from cmhl import cli
from cmhl import data as D
from cmhl import encoder as E
from cmhl import heads as H
from cmhl import mh as M
from cmhl import training as TR

MODEL_SEED = 5

# Six-token texts: three words of the label's class and three fillers.
CLASS_WORDS = {
    "sadness": ("tearful", "lonely", "bereft", "sorrow"),
    "joy": ("cheer", "bliss", "giggle", "festive"),
    "love": ("sweetheart", "adoring", "cuddle", "romance"),
    "anger": ("livid", "outrage", "snapped", "hostile"),
    "fear": ("panic", "creeping", "terror", "quiver"),
    "surprise": ("startle", "abrupt", "stunned", "whoa"),
}
FILLERS = ("i", "feel", "the", "today", "it", "was", "really", "so", "this", "and")

GRADCHECK_ROWS = 56


@dataclasses.dataclass
class Tally:
    """What the timed loop did: latencies, work done and checks made."""

    latencies_ms: list[float] = dataclasses.field(default_factory=list)
    items: int = 0
    busy_s: float = 0.0
    units: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    report: dict = dataclasses.field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def fail(self, what: str, operations: int = 1) -> None:
        self.attempted += operations
        self.failed += operations
        self.errors.append(what)


def emotion_examples(n: int, rng: np.random.Generator, schema: A.AffectSchema, split: str):
    names = schema.taxonomy.emotions
    out = []
    for i in range(n):
        emotion = i % len(names)
        words = list(rng.choice(CLASS_WORDS[names[emotion]], size=3))
        words += list(rng.choice(FILLERS, size=3))
        rng.shuffle(words)
        out.append(D.LabeledExample(
            text=" ".join(words),
            emotion=emotion,
            valence=schema.derive_valence(emotion),
            intensity=schema.derive_intensity(emotion),
            split=split,
        ))
    return out


def eval_lengths(n: int, rng: np.random.Generator) -> np.ndarray:
    """Token counts at the n quantiles of a lognormal (median 20, p90 about
    43, at most 120), in seeded order.

    Every seed gets the same length distribution and only the order, and so
    each batch's padding, varies; random draws would move the total work
    and the peak memory from seed to seed by more than the machine's noise.
    """
    z = np.array([statistics.NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    lengths = np.clip(np.rint(np.exp(math.log(20) + 0.6 * z)), 1, 120).astype(int)
    return rng.permutation(lengths)


def timed_train(model, vocab, train_set, config, validation, lexicon, tally: Tally, on_boundary):
    """``TR.train`` with each optimizer step timed, validation passes excluded.

    A step's latency runs from the end of the previous step (or the call) to
    its ``step_callback``, minus any validation pass in between; the
    boundary hook's own time is excluded too.
    """
    clock = time.perf_counter
    evaluate = TR.evaluate
    validation_s = [0.0]

    def timed_evaluate(*args, **kwargs):
        started = clock()
        try:
            return evaluate(*args, **kwargs)
        finally:
            validation_s[0] += clock() - started

    latencies = []
    mark = [clock(), 0.0]  # step start, validation seconds already charged

    def step_callback(step, params):
        now = clock()
        latencies.append(now - mark[0] - (validation_s[0] - mark[1]))
        on_boundary()
        mark[0], mark[1] = clock(), validation_s[0]

    TR.evaluate = timed_evaluate
    try:
        result = TR.train(
            model, vocab, train_set, config,
            validation=validation, lexicon=lexicon, step_callback=step_callback,
        )
    finally:
        TR.evaluate = evaluate
    tally.latencies_ms += [s * 1e3 for s in latencies]
    tally.busy_s += sum(latencies)
    tally.items += len(train_set) * len(result.epoch_losses)
    return result, validation_s[0]


def timed_cli(argv: list[str], tally: Tally, on_boundary) -> tuple[int, str]:
    """One in-process ``cmhl`` command, timed; returns its exit code and output."""
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    elapsed = time.perf_counter() - started
    on_boundary()
    tally.latencies_ms.append(elapsed * 1e3)
    tally.busy_s += elapsed
    return code, out.getvalue()


class _TrainWorkload:
    """Shared loop body: one whole training run per operation."""

    expected_steps: int

    def build_model(self):
        raise NotImplementedError

    def run_once(self, tally: Tally, on_boundary) -> None:
        # each run trains the model built before it and builds the next one,
        # so every operation does the same work
        model, self.model = self.model, None
        try:
            result, validation_s = timed_train(
                model, self.vocab, self.train_set, self.config, self.val_set,
                self.lexicon, tally, on_boundary,
            )
        except Exception as exc:  # a failed run counts its steps as failed
            tally.fail(f"training run raised {type(exc).__name__}: {exc}", self.expected_steps)
            return
        finally:
            self.model = self.build_model()
        tally.attempted += result.steps_taken
        losses = result.epoch_losses
        tally.check(result.steps_taken == self.expected_steps,
                    f"{result.steps_taken} optimizer steps, expected {self.expected_steps}")
        tally.check(all(math.isfinite(x) for x in losses), f"non-finite epoch loss in {losses}")
        if self.reference_losses is None:
            self.reference_losses = losses
        else:
            tally.check(losses == self.reference_losses,
                        f"same-seed epoch losses differ: {losses} vs {self.reference_losses}")
        self.after_run(result, validation_s, tally)

    def after_run(self, result, validation_s: float, tally: Tally) -> None:
        pass

    def final_checks(self, tally: Tally) -> None:
        pass


class DeskTrain(_TrainWorkload):
    """Emotion task, desk encoder, the C8 corpus shape, three epochs."""

    unit = "optimizer step"

    def __init__(self, seed: int, workdir: Path):
        self.schema = A.AffectSchema.default()
        rng = np.random.default_rng([seed, 1])
        self.train_set = emotion_examples(1500, rng, self.schema, "train")
        self.val_set = emotion_examples(500, rng, self.schema, "validation")
        self.vocab = D.build_vocab(self.train_set, 1)
        self.config = TR.TrainConfig(seed=MODEL_SEED, max_seq_len=32, epochs=3)
        self.lexicon = None
        self.expected_steps = 3 * math.ceil(math.ceil(1500 / 16) / 2)
        self.reference_losses = None
        self.model = self.build_model()

    def build_model(self):
        return H.EmotionModel.build(
            E.EncoderConfig(), len(self.vocab), self.schema, A.LossWeights(), seed=MODEL_SEED
        )

    def after_run(self, result, validation_s, tally):
        # Quality guard: every epoch lowers the training loss. Three epochs
        # at the preset's learning rate move validation macro-F1 anywhere
        # between 0.13 and 0.63 depending on the seed, so it is reported,
        # not gated; for a given seed it is deterministic and can be
        # compared between commits.
        losses = result.epoch_losses
        tally.check(all(b < a for a, b in zip(losses, losses[1:])), f"epoch losses do not fall: {losses}")
        report = tally.report
        report.setdefault("val_macro_f1", result.history[-1].macro_f1)
        report["validation_examples"] = report.get("validation_examples", 0) + len(self.val_set) * len(result.history)
        report["validation_s"] = report.get("validation_s", 0.0) + validation_s


class MidTrain(_TrainWorkload):
    """Mental-health task, 4 x 256 encoder, augmentation on, 12 steps."""

    unit = "optimizer step"

    def __init__(self, seed: int, workdir: Path):
        self.lexicon = D.default_lexicon()
        words = sorted(self.lexicon)
        labels = D.MHLabelSchema()
        rng = np.random.default_rng([seed, 2])
        groups = np.array_split(np.array(words), len(labels.categories))
        examples = []
        for i in range(12 * 8 + 16):
            category = i % len(labels.categories)
            n = int(rng.integers(24, 64))
            own = rng.choice(groups[category], size=n // 2)
            mixed = rng.choice(words, size=n - n // 2)
            tokens = list(own) + list(mixed)
            rng.shuffle(tokens)
            severity = None if rng.random() < 0.25 else int(rng.integers(labels.severity_levels))
            examples.append(D.LabeledExample(text=" ".join(tokens), emotion=category, intensity=severity))
        self.train_set, self.val_set = examples[:96], examples[96:]
        self.labels = labels
        self.vocab = D.build_vocab(self.train_set, 1)
        self.encoder_config = E.EncoderConfig(
            layers=4, heads=4, hidden=256, ffn_dim=1024, max_positions=64, dropout=0.15
        )
        self.config = dataclasses.replace(
            TR.TrainConfig.mental_health_preset(),
            batch_size=8, max_seq_len=64, epochs=1, warmup=0.1,
            early_stop_patience=None, seed=MODEL_SEED,
        )
        self.expected_steps = 12
        self.reference_losses = None
        self.model = self.build_model()

    def build_model(self):
        return M.MHModel.build(self.encoder_config, len(self.vocab), self.labels, seed=MODEL_SEED)


class DeskEval:
    """``cmhl eval`` in process on a desk emotion checkpoint, 4000 lines."""

    unit = "cmhl eval call"
    lines = 4000

    def __init__(self, seed: int, workdir: Path):
        schema = A.AffectSchema.default()
        rng = np.random.default_rng([seed, 3])
        vocab = D.build_vocab(emotion_examples(1500, rng, schema, "train"), 1)
        lengths = eval_lengths(self.lines, rng)
        names = schema.taxonomy.emotions
        self.corpus = workdir / "heldout.jsonl"
        with open(self.corpus, "w", encoding="utf-8") as handle:
            for n in lengths:
                emotion = int(rng.integers(len(names)))
                pool = CLASS_WORDS[names[emotion]] + FILLERS
                handle.write(json.dumps({"text": " ".join(rng.choice(pool, size=n)),
                                         "label": names[emotion]}) + "\n")
        encoder_config = E.EncoderConfig()
        self.config = TR.TrainConfig(seed=MODEL_SEED, max_seq_len=128)
        self.model = H.EmotionModel.build(encoder_config, len(vocab), schema, A.LossWeights(), seed=MODEL_SEED)
        self.vocab, self.schema = vocab, schema
        self.checkpoint = workdir / "checkpoint"
        TR.save_checkpoint(
            TR.Checkpoint(
                task="emotion",
                encoder_config=encoder_config,
                train_config=self.config,
                loss_weights=A.LossWeights(),
                vocab=vocab,
                schema_json=schema.to_jsonable(),
                epoch=0,
                metrics=None,
                tensors={k: v.data for k, v in self.model.parameters().items()},
            ),
            self.checkpoint,
        )
        self.outputs: list[dict] = []

    def run_once(self, tally: Tally, on_boundary) -> None:
        code, out = timed_cli(["eval", str(self.checkpoint), str(self.corpus)], tally, on_boundary)
        tally.items += self.lines
        if tally.check(code == 0, f"cmhl eval exited {code}"):
            self.outputs.append(json.loads(out))

    def final_checks(self, tally: Tally) -> None:
        """Checkpoint round trip: every call equals an in-memory evaluate."""
        examples, _ = D.load_corpus(self.corpus, self.schema)
        expected = json.loads(json.dumps(TR.evaluate(self.model, examples, self.vocab, self.config).to_jsonable()))
        for i, got in enumerate(self.outputs):
            tally.check(got == expected, f"eval call {i} metrics {got} differ from in-memory {expected}")


class GradCheck:
    """``cmhl gradcheck --scope all`` in process; fixtures are built in."""

    unit = "cmhl gradcheck call"

    def __init__(self, seed: int, workdir: Path):
        pass  # the gradient checker's fixtures are fixed; the seed has nothing to feed

    def run_once(self, tally: Tally, on_boundary) -> None:
        code, out = timed_cli(["gradcheck", "--scope", "all"], tally, on_boundary)
        # one "component/target  error  ok|FAIL" line per row, then a summary
        rows = [line.split() for line in out.splitlines()[:-1]]
        tally.items += len(rows)
        for name, error, status in rows:
            tally.check(status == "ok" and float(error) < 1e-4, f"gradcheck row {name}: {error} {status}")
        tally.check(code == 0, f"cmhl gradcheck exited {code}")
        tally.check(len(rows) == GRADCHECK_ROWS, f"{len(rows)} gradcheck rows, expected {GRADCHECK_ROWS}")

    def final_checks(self, tally: Tally) -> None:
        pass


WORKLOADS = {
    "desk_train": DeskTrain,
    "mid_train": MidTrain,
    "desk_eval": DeskEval,
    "gradcheck": GradCheck,
}
