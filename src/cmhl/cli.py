"""Command-line surface: derive-labels, train, eval, gradcheck.

Run configs are flat JSON files; presets are applied per task and overridden
by the file's `train` / `encoder` / `loss_weights` sections. The environment
variable CMHL_SEED overrides the configured seed. Exit codes: 0 success,
2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from .affect import INTENSITY_LABELS, VALENCE_LABELS, LossWeights
from .data import build_vocab, label_index, load_synonyms, scan_jsonl, split_examples
from .diagnostics import SCOPES, TOLERANCE, run_gradcheck
from .encoder import EncoderConfig, Model
from .errors import ConfigError, DataError, NumericError, read_json_object, read_record
from .training import (
    Checkpoint,
    TrainConfig,
    accuracy,
    check_seq_len,
    load_checkpoint,
    model_from_checkpoint,
    predict,
    read_schema,
    save_checkpoint,
    score,
    task_record,
    train,
    write_metrics_csv,
)

SEED_ENV = "CMHL_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclasses.dataclass(frozen=True)
class Paths:
    train: str | None = None
    validation: str | None = None
    schema: str | None = None
    lexicon: str | None = None
    output: str | None = None


@dataclasses.dataclass
class RunConfig:
    """A resolved run config; ``dataclasses.asdict`` of it is the summary's ``config``."""

    task: str = "emotion"
    seed: int = 0
    paths: Paths = Paths()
    train: TrainConfig = TrainConfig()
    encoder: EncoderConfig = EncoderConfig()
    loss_weights: LossWeights = LossWeights()
    vocab_min_freq: int = 1


def load_run_config(path: str | Path) -> RunConfig:
    raw = read_json_object(path, "config")
    cfg = read_record(RunConfig, raw)
    if "seed" in raw.get("train", {}):
        raise ConfigError("set the seed at the top level, not inside 'train'")
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env_seed!r}") from None
    preset = task_record(cfg.task).preset  # the train section overrides the task's preset, not TrainConfig's defaults
    cfg.train = read_record(TrainConfig, {**preset, **raw.get("train", {}), "seed": cfg.seed}, "train")
    return cfg


# -- subcommands -----------------------------------------------------------------


def cmd_derive_labels(args) -> int:
    schema = read_schema("emotion", args.schema)

    def derive(obj: dict) -> str:
        emotion = label_index(obj.get("label"), schema.names, "emotion")
        obj.pop("valence", None)
        obj.pop("intensity", None)
        obj["valence"] = VALENCE_LABELS[schema.derive_valence(emotion)]
        obj["intensity"] = INTENSITY_LABELS[schema.derive_intensity(emotion)]
        return json.dumps(obj)

    lines_out, rejected = scan_jsonl(args.input, derive)
    for line_no, reason in rejected:
        print(f"rejected line {line_no}: {reason}", file=sys.stderr)
    if rejected and not args.skip_bad:
        raise DataError(f"{len(rejected)} rejected line(s); rerun with --skip-bad to drop them")
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines_out) + ("\n" if lines_out else ""))
    print(f"wrote {len(lines_out)} labeled lines to {out_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if not cfg.paths.train:
        raise ConfigError("config must set paths.train")
    if not cfg.paths.output:
        raise ConfigError("config must set paths.output")
    check_seq_len(cfg.encoder, cfg.train)
    out_dir = Path(cfg.paths.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    head = task_record(cfg.task).record(read_schema(cfg.task, cfg.paths.schema), cfg.loss_weights)
    corpus = head.load(cfg.paths.train)
    validation = head.load(cfg.paths.validation) if cfg.paths.validation else None
    train_examples, val_examples = split_examples(corpus, cfg.seed, cfg.train.validation_fraction, validation)

    vocab = build_vocab(train_examples, cfg.vocab_min_freq)
    try:
        model = Model.build(cfg.encoder, len(vocab), head, cfg.seed)
    except MemoryError:  # NumPy refuses a parameter array past what the machine can address
        raise ConfigError(f"the 'encoder' section's model does not fit in memory: {cfg.encoder}") from None

    lexicon = load_synonyms(cfg.paths.lexicon) if cfg.train.augment and cfg.paths.lexicon else None

    started = time.perf_counter()
    result = train(model, vocab, train_examples, cfg.train, validation=val_examples, lexicon=lexicon)
    wall = time.perf_counter() - started
    for name, tensor in model.parameters().items():  # the selected checkpoint, not the last epoch
        tensor.data[...] = result.best_params[name]

    ckpt_dir = out_dir / "checkpoint"
    save_checkpoint(
        Checkpoint(
            task=cfg.task,
            encoder_config=cfg.encoder,
            train_config=cfg.train,
            loss_weights=head.loss_weights,
            vocab=vocab,
            schema_json=head.schema.to_jsonable(),
            epoch=result.best_index + 1,
            metrics=result.best_metrics,
            tensors=result.best_params,
        ),
        ckpt_dir,
    )
    write_metrics_csv(out_dir / "metrics.csv", result.epoch_losses, result.history)

    summary = {
        "task": cfg.task,
        "best_epoch": result.best_index + 1,
        "best_combined_score": result.best_metrics.combined_score,
        "best_macro_f1": result.best_metrics.macro_f1,
        "epochs_run": len(result.history),
        "optimizer_steps": result.steps_taken,
        "stopped_early": result.stopped_early,
        "train_accuracy": accuracy(model, train_examples, vocab, cfg.train),
        "wall_time_s": wall,
        "checkpoint": str(ckpt_dir),
        "config": dataclasses.asdict(cfg),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps({k: summary[k] for k in ("task", "best_epoch", "best_combined_score",
                                              "train_accuracy", "epochs_run", "stopped_early")}, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    try:
        model = model_from_checkpoint(ckpt)
    except DataError as exc:  # the manifest's config sections disagree with its tensor entries
        raise DataError(f"{Path(args.checkpoint) / 'manifest.json'}: {exc}") from None
    examples = model.head.load(args.corpus)

    y_pred, confs = predict(model, examples, ckpt.vocab, ckpt.train_config)
    payload = score(model, examples, y_pred, confs).to_jsonable()
    print(json.dumps(payload, indent=2))
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(json.dumps(payload, indent=2))
    if args.dump_predictions:
        Path(args.dump_predictions).parent.mkdir(parents=True, exist_ok=True)
        with open(args.dump_predictions, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "true_label", "predicted_label", "confidence"])
            names = model.head.schema.names
            for i, (ex, pred, conf) in enumerate(zip(examples, y_pred, confs)):
                writer.writerow([i, names[ex.emotion], names[pred], f"{conf:.10f}"])
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    started = time.perf_counter()
    rows = run_gradcheck(args.scope, corrupt=args.inject_error)
    elapsed = time.perf_counter() - started
    width = max(len(f"{r.component}/{r.target}") for r in rows)
    for r in rows:
        status = "ok" if r.passed else "FAIL"
        print(f"{(r.component + '/' + r.target).ljust(width)}  {r.error:12.3e}  {status}")
    failed = [r for r in rows if not r.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} checks below {TOLERANCE:g} in {elapsed:.1f}s")
    if failed:
        raise NumericError(f"{len(failed)} gradient check(s) exceeded {TOLERANCE:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmhl",
        description="Emotionally consistent multi-task text classification kit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive-labels", help="add derived valence/intensity fields to a corpus")
    p.add_argument("input", help="input JSONL corpus with text and label fields")
    p.add_argument("--schema", help="affect schema JSON (defaults to the built-in six emotions)")
    p.add_argument("--output", required=True, help="output JSONL path")
    p.add_argument("--skip-bad", action="store_true", help="drop rejected lines instead of failing")
    p.set_defaults(func=cmd_derive_labels)

    p = sub.add_parser("train", help="train a model from a JSON run config")
    p.add_argument("--config", required=True, help="run config JSON (task, paths, overrides)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint against a corpus")
    p.add_argument("checkpoint", help="checkpoint directory written by train")
    p.add_argument("corpus", help="JSONL corpus to evaluate")
    p.add_argument("--output", help="also write the metrics JSON to this path")
    p.add_argument("--dump-predictions", help="write per-example argmax and confidence CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--scope", choices=SCOPES, default="all", help="which suite to run")
    p.add_argument(
        "--inject-error",
        action="store_true",
        help="self-test hook: corrupt one gradient so the run must fail",
    )
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
