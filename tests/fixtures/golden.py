"""Golden outputs of a checkout, for comparing two commits bit for bit.

Prints one line per output: floats as ``float.hex`` and arrays as the
SHA-256 of their bytes.
- desk_train and mid_train: the epoch losses, the final parameters and the
  best-epoch parameters of one seeded training run on perfbench's workload
  inputs;
- desk_eval: the predictions and confidences of ``predict`` on perfbench's
  4,000 eval lines;
- gradcheck: every row of ``run_gradcheck("all")``;
- train: the SHA-256 of every file one seeded ``cmhl train`` run writes
  for each task (checkpoint manifest and tensors, ``metrics.csv`` and
  ``summary.json``) on a small seeded corpus, so that config and manifest
  writing compare across commits. ``summary.json`` is hashed without
  ``wall_time_s``, ``checkpoint`` and ``config.paths.output``.

The inputs are those perfbench builds at seed 3. The script only reads them
and writes nothing outside a temporary directory. Run it from any directory,
naming the checkout whose ``src/`` and ``perfbench/`` it imports (default:
the checkout that holds this file), then ``diff`` two outputs:

    OPENBLAS_NUM_THREADS=1 python tests/fixtures/golden.py [CHECKOUT] > golden.txt
"""
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[2]).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads as W  # noqa: E402

from cmhl import cli  # noqa: E402
from cmhl import data as D  # noqa: E402
from cmhl import diagnostics  # noqa: E402
from cmhl import training as TR  # noqa: E402

SEED = 3


def sha(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def train_files(task: str, workdir: Path):
    """(relative path, SHA-256) of every file ``cmhl train`` writes for ``task`` on 36 seeded lines."""
    names = TR.read_schema(task, None).names
    rng = np.random.default_rng([SEED, 9])
    with open(workdir / "train.jsonl", "w", encoding="utf-8") as handle:
        for i in range(36):
            label = names[i % len(names)]
            row = {"text": " ".join([label, *rng.choice(W.FILLERS, size=4)]), "label": label}
            if task == "mental_health" and i % 2:
                row["intensity"] = int(rng.integers(3))
            handle.write(json.dumps(row) + "\n")
    config = {"task": task, "seed": SEED, "paths": {"train": "train.jsonl", "output": "run"},
              "train": {"epochs": 2, "batch_size": 4, "warmup": 0.1, "max_seq_len": 16},
              "encoder": {"layers": 1, "heads": 2, "hidden": 8, "ffn_dim": 16, "max_positions": 16}}
    (workdir / "run.json").write_text(json.dumps(config))
    cwd = os.getcwd()
    os.chdir(workdir)  # relative paths, so that the summary's config holds no temporary directory
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["train", "--config", "run.json"])
    finally:
        os.chdir(cwd)
    if code:
        raise SystemExit(f"cmhl train exited {code} for task {task}")
    run = workdir / "run"
    summary = json.loads((run / "summary.json").read_text())
    del summary["wall_time_s"], summary["checkpoint"], summary["config"]["paths"]["output"]
    (run / "summary.json").write_text(json.dumps(summary, indent=2))
    for path in sorted(p for p in run.rglob("*") if p.is_file()):
        yield path.relative_to(run).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    print(f"cmhl from {D.__file__}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("desk_train", "mid_train"):
            w = W.WORKLOADS[name](SEED, Path(tmp))
            result = TR.train(w.model, w.vocab, w.train_set, w.config, validation=w.val_set, lexicon=w.lexicon)
            params = w.model.parameters()
            print(name, "losses", *(float(x).hex() for x in result.epoch_losses))
            print(name, "params", sha(params[k].data for k in sorted(params)))
            print(name, "best_params", sha(result.best_params[k] for k in sorted(result.best_params)))
        w = W.WORKLOADS["desk_eval"](SEED, Path(tmp))
        examples, _ = D.load_corpus(w.corpus, w.schema)
        preds, confs = TR.predict(w.model, examples, w.vocab, w.config)
        print("desk_eval predictions", sha([preds.astype(np.int64)]), "confidences", sha([confs]))
    for row in diagnostics.run_gradcheck("all"):
        print("gradcheck", f"{row.component}/{row.target}", float(row.error).hex())
    for task in ("emotion", "mental_health"):
        with tempfile.TemporaryDirectory() as tmp:
            for name, digest in train_files(task, Path(tmp)):
                print("train", task, name, digest)


if __name__ == "__main__":
    main()
