"""How the checkpoints beside this file were made: two toy runs of `cmhl train`
(one per task, hidden 8), then `predict` on ``EVAL`` through each loaded
checkpoint, recorded in ``expected.json`` (confidences as ``float.hex``).

The committed files were written at commit 51f723d, so a test that loads
them checks that checkpoints of that commit still load and predict the same
bits. Regenerating them with a later commit would defeat that check. To see
what this script writes, run it from the root of a checkout into a scratch
directory:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/fixtures/checkpoints/make.py OUTDIR
"""
import json
import shutil
import sys
import tempfile
from pathlib import Path

from cmhl import cli
from cmhl import training as TR
from cmhl.data import LabeledExample

EMOTION = [
    ("i feel so happy and bright today", "joy"), ("what a lovely warm hug", "love"),
    ("tears fall in the lonely night", "sadness"), ("i am furious at that rude man", "anger"),
    ("the dark alley scares me", "fear"), ("whoa that was unexpected", "surprise"),
    ("sunny smiles and cheer all day", "joy"), ("my sweetheart holds my hand", "love"),
    ("grief and sorrow fill the room", "sadness"), ("he snapped and yelled in rage", "anger"),
    ("panic creeps up my spine", "fear"), ("stunned by the sudden news", "surprise"),
]
MH = [
    ("i cannot sleep and worry all night", "anxiety", 2), ("nothing feels worth doing anymore", "depression", 1),
    ("calm walk in the park today", "offmychest", 0), ("my heart races before every meeting", "anxiety", 1),
    ("i stayed in bed all week", "depression", 2), ("work went fine and dinner was good", "offmychest", None),
    ("racing thoughts keep me awake", "anxiety", None), ("empty and tired every morning", "depression", 0),
    ("friends came over for tea", "offmychest", 1), ("the crowd made me shake", "suicidewatch", 2),
    ("deadlines pile up at work", "suicidewatch", 1), ("mood swings from high to low", "bipolar", 2),
]
EVAL = [
    "bright warm cheer", "lonely tears and rage", "whoa a sudden hug", "i feel scared",
    "sleep worry panic night", "calm dinner with friends today and tea", "deadlines", "empty week in bed",
    "unknown words entirely", "so happy so happy so happy",
]


def main(outdir: Path) -> None:
    expected = {"eval_texts": EVAL}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for task, rows, seed in (("emotion", EMOTION, 11), ("mental_health", MH, 12)):
            d = tmp / task
            d.mkdir()
            with open(d / "train.jsonl", "w") as fh:
                for i, row in enumerate(rows):
                    rec = {"text": row[0], "label": row[1], "split": "validation" if i % 4 == 3 else "train"}
                    if task == "mental_health" and row[2] is not None:
                        rec["intensity"] = row[2]
                    fh.write(json.dumps(rec) + "\n")
            cfg = {"task": task, "seed": seed,
                   "paths": {"train": str(d / "train.jsonl"), "output": str(d / "run")},
                   "train": {"epochs": 30, "batch_size": 4, "grad_accumulation_steps": 1, "max_seq_len": 16,
                             "warmup": 0.0, "learning_rate": 0.05, "early_stop_patience": None},
                   "encoder": {"layers": 1, "heads": 2, "hidden": 8, "ffn_dim": 16, "max_positions": 16}}
            (d / "run.json").write_text(json.dumps(cfg))
            assert cli.main(["train", "--config", str(d / "run.json")]) == 0
            target = outdir / task
            if target.exists():
                shutil.rmtree(target)
            shutil.copytree(d / "run" / "checkpoint", target)
            ckpt = TR.load_checkpoint(target)
            model = TR.model_from_checkpoint(ckpt)
            examples = [LabeledExample(text=t, emotion=0) for t in EVAL]
            preds, confs = TR.predict(model, examples, ckpt.vocab, ckpt.train_config)
            expected[task] = {"predictions": [int(p) for p in preds], "confidences": [float(c).hex() for c in confs]}
    (outdir / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve())
