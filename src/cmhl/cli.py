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
from .encoder import EncoderConfig
from .errors import ConfigError, DataError, NumericError, check_fields, json_object, read_json_object
from .training import (
    TASKS,
    Checkpoint,
    TrainConfig,
    accuracy,
    check_seq_len,
    load_checkpoint,
    model_from_checkpoint,
    predict,
    save_checkpoint,
    score,
    train,
    write_metrics_csv,
)

SEED_ENV = "CMHL_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_PATH_KEYS = ("train", "validation", "schema", "lexicon", "output")


@dataclasses.dataclass
class RunConfig:
    """A resolved run config; ``dataclasses.asdict`` of it is the summary's ``config``."""

    task: str
    seed: int
    paths: dict[str, str | None]
    train: TrainConfig
    encoder: EncoderConfig
    loss_weights: LossWeights
    vocab_min_freq: int


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return value


def _apply_overrides(base, overrides, section: str):
    check_fields(type(base), overrides, section)
    if section == "train" and "seed" in overrides:
        raise ConfigError("set the seed at the top level, not inside 'train'")
    return dataclasses.replace(base, **overrides)


def load_run_config(path: str | Path) -> RunConfig:
    raw = read_json_object(path, "config")
    unknown = set(raw) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    task = raw.get("task", "emotion")
    if not isinstance(task, str) or task not in TASKS:
        raise ConfigError(f"task must be one of {tuple(TASKS)}, got {task!r}")

    paths = dict.fromkeys(_PATH_KEYS)
    paths.update(json_object(raw.get("paths", {}), "paths"))
    if set(paths) - set(_PATH_KEYS):
        raise ConfigError(f"unknown keys in 'paths': {sorted(set(paths) - set(_PATH_KEYS))}")
    for key, value in paths.items():
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"'paths.{key}' must be a string or null, got {value!r}")

    train_config = _apply_overrides(TASKS[task].preset(), raw.get("train", {}), "train")
    encoder_config = _apply_overrides(EncoderConfig(), raw.get("encoder", {}), "encoder")
    loss_weights = _apply_overrides(LossWeights(), raw.get("loss_weights", {}), "loss_weights")

    seed = _integer(raw.get("seed", 0), "seed")
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env_seed!r}") from None

    return RunConfig(
        task=task,
        seed=seed,
        paths=paths,
        train=dataclasses.replace(train_config, seed=seed),
        encoder=encoder_config,
        loss_weights=loss_weights,
        vocab_min_freq=_integer(raw.get("vocab_min_freq", 1), "vocab_min_freq"),
    )


# -- subcommands -----------------------------------------------------------------


def cmd_derive_labels(args) -> int:
    schema = TASKS["emotion"].schema(args.schema)

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
    if not cfg.paths.get("train"):
        raise ConfigError("config must set paths.train")
    if not cfg.paths.get("output"):
        raise ConfigError("config must set paths.output")
    check_seq_len(cfg.encoder, cfg.train)
    out_dir = Path(cfg.paths["output"])
    out_dir.mkdir(parents=True, exist_ok=True)

    task = TASKS[cfg.task]
    schema = task.schema(cfg.paths.get("schema"))
    corpus = task.load(cfg.paths["train"], schema)
    if cfg.paths.get("validation"):
        train_examples = [ex for ex in corpus if ex.is_train]
        val_examples = task.load(cfg.paths["validation"], schema)
    else:
        train_examples, val_examples = split_examples(corpus, cfg.seed, cfg.train.validation_fraction)

    vocab = build_vocab(train_examples, cfg.vocab_min_freq)
    model = task.build(cfg.encoder, len(vocab), schema, cfg.loss_weights, cfg.seed)

    lexicon_path = cfg.paths.get("lexicon")
    lexicon = load_synonyms(lexicon_path) if cfg.train.augment and lexicon_path else None

    started = time.time()
    result = train(model, vocab, train_examples, cfg.train, validation=val_examples, lexicon=lexicon)
    wall = time.time() - started
    for name, tensor in model.parameters().items():  # the selected checkpoint, not the last epoch
        tensor.data[...] = result.best_params[name]

    ckpt_dir = out_dir / "checkpoint"
    save_checkpoint(
        Checkpoint(
            task=cfg.task,
            encoder_config=cfg.encoder,
            train_config=cfg.train,
            loss_weights=model.weights,
            vocab=vocab,
            schema_json=schema.to_jsonable(),
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
    model = model_from_checkpoint(ckpt)
    examples = TASKS[ckpt.task].load(args.corpus, ckpt.schema)

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
            for i, (ex, pred, conf) in enumerate(zip(examples, y_pred, confs)):
                writer.writerow([i, ckpt.schema.names[ex.emotion], ckpt.schema.names[pred], f"{conf:.10f}"])
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    started = time.time()
    rows = run_gradcheck(args.scope, corrupt=args.inject_error)
    elapsed = time.time() - started
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
