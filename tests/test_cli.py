"""Command-line behavior: derivation, training artifacts, eval, exit codes."""

import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cmhl
import cmhl.cli
import cmhl.training
from cmhl.affect import DEFAULT_COORDS, DEFAULT_EMOTIONS, AffectSchema
from cmhl.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from cmhl.data import MHLabelSchema, load_corpus, split_examples
from cmhl.training import (
    Checkpoint,
    accuracy,
    load_checkpoint,
    model_from_checkpoint,
    predict,
    save_checkpoint,
)

from conftest import long_tail_model, mixed_length_examples, synthetic_emotion_examples, write_corpus_jsonl


def write_lines(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


TOY_ENCODER = {"layers": 1, "heads": 2, "hidden": 8, "ffn_dim": 16, "max_positions": 16}


def toy_config(tmp_path, **overrides):
    config = {
        "task": "emotion",
        "seed": 4,
        "paths": {"train": str(tmp_path / "corpus.jsonl"), "output": str(tmp_path / "run")},
        "train": {"epochs": 2, "max_seq_len": 16},
        "encoder": dict(TOY_ENCODER),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def corpus(tmp_path, default_schema):
    examples = synthetic_emotion_examples(96, 3, default_schema)
    write_corpus_jsonl(tmp_path / "corpus.jsonl", examples, default_schema)
    return tmp_path / "corpus.jsonl"


# JSON values of every type, nested up to two deep; strings and object keys
# are often emotion names, so that some drawn schemas are valid.
_NAMES = st.text(max_size=6) | st.sampled_from(DEFAULT_EMOTIONS)
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _NAMES


def _containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(_NAMES, children, max_size=4)


JSON_VALUES = _SCALARS | _containers(_SCALARS | _containers(_SCALARS))

# One corpus line: any bytes but a line break, or a JSON object with any text, label and split.
CORPUS_LINES = st.binary(max_size=40).filter(lambda b: b"\n" not in b and b"\r" not in b) | st.fixed_dictionaries(
    {"text": JSON_VALUES, "label": JSON_VALUES, "split": JSON_VALUES}
).map(lambda obj: json.dumps(obj, ensure_ascii=False).encode("utf-8"))


class TestDeriveLabels:
    FULL_TABLE = {
        "sadness": ("negative", "low"),
        "joy": ("positive", "high"),
        "love": ("positive", "low"),
        "anger": ("negative", "high"),
        "fear": ("negative", "high"),
        "surprise": ("neutral", "high"),
    }

    def test_joy_line_gains_fields(self, tmp_path):
        write_lines(tmp_path / "in.jsonl", [{"text": "great day", "label": "joy"}])
        rc = main(["derive-labels", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")])
        assert rc == EXIT_OK
        row = json.loads((tmp_path / "out.jsonl").read_text())
        assert row["valence"] == "positive"
        assert row["intensity"] == "high"

    def test_complete_case_sweep(self, tmp_path):
        write_lines(
            tmp_path / "in.jsonl",
            [{"text": f"about {name}", "label": name} for name in self.FULL_TABLE],
        )
        main(["derive-labels", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")])
        for line in (tmp_path / "out.jsonl").read_text().splitlines():
            row = json.loads(line)
            valence, intensity = self.FULL_TABLE[row["label"]]
            assert (row["valence"], row["intensity"]) == (valence, intensity)

    def test_idempotent_byte_for_byte(self, tmp_path):
        write_lines(tmp_path / "in.jsonl", [{"text": "x", "label": "fear"}, {"text": "y", "label": "love"}])
        main(["derive-labels", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "once.jsonl")])
        main(["derive-labels", str(tmp_path / "once.jsonl"), "--output", str(tmp_path / "twice.jsonl")])
        assert (tmp_path / "once.jsonl").read_bytes() == (tmp_path / "twice.jsonl").read_bytes()

    def test_rejected_line_exit_code(self, tmp_path):
        write_lines(tmp_path / "in.jsonl", [{"text": "x", "label": "zeal"}])
        rc = main(["derive-labels", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")])
        assert rc == EXIT_DATA

    def test_skip_bad_keeps_good_lines(self, tmp_path):
        write_lines(
            tmp_path / "in.jsonl",
            [{"text": "x", "label": "zeal"}, {"text": "y", "label": "anger"}],
        )
        rc = main(["derive-labels", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl"), "--skip-bad"])
        assert rc == EXIT_OK
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["label"] == "anger"


    def test_non_object_line_rejected(self, tmp_path, capsys):
        (tmp_path / "in.jsonl").write_text('{"text": "x", "label": "joy"}\n[1, 2]\n')
        argv = ["derive-labels", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")]
        assert main(argv) == EXIT_DATA
        assert "rejected line 2: line is not a JSON object" in capsys.readouterr().err
        assert main(argv + ["--skip-bad"]) == EXIT_OK
        assert [json.loads(line)["label"] for line in (tmp_path / "out.jsonl").read_text().splitlines()] == ["joy"]

    def test_non_utf8_line_rejected(self, tmp_path, capsys):
        (tmp_path / "in.jsonl").write_bytes(b'{"text": "x", "label": "joy"}\n{"text": "caf\xe9", "label": "joy"}\n')
        argv = ["derive-labels", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")]
        assert main(argv) == EXIT_DATA
        assert "rejected line 2: not valid UTF-8" in capsys.readouterr().err
        assert main(argv + ["--skip-bad"]) == EXIT_OK
        assert [json.loads(line)["label"] for line in (tmp_path / "out.jsonl").read_text().splitlines()] == ["joy"]

    def test_boolean_label_rejected(self, tmp_path, capsys):
        write_lines(tmp_path / "in.jsonl", [{"text": "x", "label": True}])
        rc = main(["derive-labels", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")])
        assert rc == EXIT_DATA
        assert "rejected line 1: label missing or malformed: True" in capsys.readouterr().err

    def derive_with_schema(self, tmp_path, fields) -> int:
        """Exit code of derive-labels on a one-line corpus (label index 0) with ``fields`` as the schema file."""
        write_lines(tmp_path / "in.jsonl", [{"text": "x", "label": 0}])
        (tmp_path / "schema.json").write_text(json.dumps(fields))
        return main(["derive-labels", str(tmp_path / "in.jsonl"), "--schema", str(tmp_path / "schema.json"),
                     "--output", str(tmp_path / "out.jsonl")])

    @pytest.mark.parametrize(
        "fields,key",
        [
            ({"tau0": "x"}, "'tau0'"),
            ({"tau0": True}, "'tau0'"),
            ({"scale": None}, "'scale'"),
            ({"emotions": 5}, "'emotions'"),
            ({"positive": "joy"}, "'positive'"),
            ({"negative": ["fear", 3]}, "'negative'"),
            ({"high": ["nope"]}, "'high'"),
            ({"high": [1]}, "'high'"),
            ({"coords": {**DEFAULT_COORDS, "joy": [1]}}, "'coords.joy'"),
            ({"coords": {**DEFAULT_COORDS, "fear": ["a", 0.6]}}, "'coords.fear'"),
            ({"coords": [0.1, 0.2]}, "'coords'"),
        ],
    )
    def test_malformed_schema_field_names_key(self, tmp_path, capsys, fields, key):
        assert self.derive_with_schema(tmp_path, fields) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(sorted(AffectSchema.default().to_jsonable())), value=JSON_VALUES)
    def test_any_schema_value_exits_cleanly(self, tmp_path, capsys, key, value):
        """Whatever one schema key holds, derive-labels succeeds or names a config error; it never raises."""
        assert self.derive_with_schema(tmp_path, {key: value}) in (EXIT_OK, EXIT_CONFIG)
        capsys.readouterr()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=CORPUS_LINES)
    def test_any_corpus_line_exits_cleanly(self, tmp_path, capsys, line):
        """Whatever bytes or JSON object one corpus line holds, derive-labels
        succeeds or rejects that line with exit 3; it never raises."""
        (tmp_path / "in.jsonl").write_bytes(line + b"\n")
        rc = main(["derive-labels", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")])
        err = capsys.readouterr().err
        assert rc == EXIT_OK or (rc == EXIT_DATA and "rejected line 1: " in err)


class TestTrain:
    def test_writes_expected_artifacts(self, tmp_path, corpus):
        rc = main(["train", "--config", str(toy_config(tmp_path))])
        assert rc == EXIT_OK
        run = tmp_path / "run"
        assert (run / "checkpoint" / "manifest.json").exists()
        assert (run / "metrics.csv").exists()
        summary = json.loads((run / "summary.json").read_text())
        assert summary["task"] == "emotion"
        assert summary["epochs_run"] == 2
        assert summary["config"]["seed"] == 4
        assert 0.0 <= summary["train_accuracy"] <= 1.0

    def test_same_seed_identical_metrics(self, tmp_path, corpus):
        cfg = toy_config(tmp_path)
        main(["train", "--config", str(cfg)])
        first = (tmp_path / "run" / "metrics.csv").read_text()
        main(["train", "--config", str(cfg)])
        second = (tmp_path / "run" / "metrics.csv").read_text()
        assert first == second

    def test_env_seed_override(self, tmp_path, corpus, monkeypatch):
        monkeypatch.setenv("CMHL_SEED", "99")
        main(["train", "--config", str(toy_config(tmp_path))])
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"]["seed"] == 99

    def test_unknown_config_key_rejected(self, tmp_path, corpus):
        rc = main(["train", "--config", str(toy_config(tmp_path, optimizer="sgd"))])
        assert rc == EXIT_CONFIG

    def test_unknown_train_override_rejected(self, tmp_path, corpus):
        rc = main(["train", "--config", str(toy_config(tmp_path, train={"epochs": 1, "lr": 1.0}))])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"seed": "abc"}, "'seed'"),
            ({"seed": True}, "'seed'"),
            ({"vocab_min_freq": 1.5}, "'vocab_min_freq'"),
            ({"vocab_min_freq": "2"}, "'vocab_min_freq'"),
            ({"paths": ["x"]}, "'paths'"),
            ({"train": [1]}, "'train'"),
            ({"encoder": "small"}, "'encoder'"),
            ({"paths": {"train": 5}}, "'paths.train'"),
            ({"paths": {"output": ["run"]}}, "'paths.output'"),
            ({"train": {"epochs": "1"}}, "'train.epochs'"),
            ({"train": {"batch_size": 2.0}}, "'train.batch_size'"),
            ({"encoder": {**TOY_ENCODER, "dropout": "0.1"}}, "'encoder.dropout'"),
            ({"loss_weights": {"alpha1": "0.3"}}, "'loss_weights.alpha1'"),
            ({"train": {"augment": "yes"}}, "'train.augment'"),
            ({"train": {"early_stop_patience": 1.5}}, "'train.early_stop_patience'"),
            ({"train": {"max_seq_len": 0}}, "max_seq_len"),
            ({"train": {"max_seq_len": 1}}, "max_seq_len"),
            ({"train": {"validation_fraction": 0}}, "validation_fraction"),
            ({"train": {"validation_fraction": -0.5}}, "validation_fraction"),
            ({"train": {"validation_fraction": 1.0}}, "validation_fraction"),
            ({"train": {"validation_fraction": 1.5}}, "validation_fraction"),
            ({"train": {"dropout": 0.3}}, "'dropout'"),  # dropout is set in the encoder section
            ({"train": {"max_seq_len": 32}}, "max_seq_len 32 exceeds encoder max_positions 16"),
            ({"train": {"warmup": float("nan")}}, "'train.warmup' must be a finite number"),
            ({"train": {"warmup": float("inf")}}, "'train.warmup' must be a finite number"),
            ({"train": {"learning_rate": float("inf")}}, "'train.learning_rate' must be a finite number"),
            ({"train": {"weight_decay": float("nan")}}, "'train.weight_decay' must be a finite number"),
            ({"loss_weights": {"alpha1": float("nan")}}, "'loss_weights.alpha1' must be a finite number"),
        ],
    )
    def test_malformed_top_level_value(self, tmp_path, corpus, capsys, overrides, key):
        assert main(["train", "--config", str(toy_config(tmp_path, **overrides))]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_nonfinite_mid_run_exits_numeric(self, tmp_path, corpus, capsys, monkeypatch):
        """A value that turns non-finite in epoch 2 ends in exit 4, not a traceback, and leaves no checkpoint."""
        lr_at = cmhl.training.lr_at

        def nan_from_epoch_two(step, total_steps, warmup_steps, lr):
            # the run has two epochs of total_steps // 2 optimizer steps
            return float("nan") if step >= total_steps // 2 else lr_at(step, total_steps, warmup_steps, lr)

        monkeypatch.setattr(cmhl.training, "lr_at", nan_from_epoch_two)
        assert main(["train", "--config", str(toy_config(tmp_path))]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "Traceback" not in err
        assert "non-finite learning rate nan at epoch 2; last completed epoch: 1" in err
        assert not (tmp_path / "run" / "checkpoint" / "manifest.json").exists()

    def test_list_split_value_is_data_error(self, tmp_path, corpus, capsys):
        with open(corpus, "a") as handle:
            handle.write(json.dumps({"text": "sudden gasp", "label": "surprise", "split": ["train"]}) + "\n")
        assert main(["train", "--config", str(toy_config(tmp_path))]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and 'line 97: split ["train"]' in err

    def test_non_utf8_corpus_line_is_data_error(self, tmp_path, corpus, capsys):
        with open(corpus, "ab") as handle:
            handle.write(b'{"text": "caf\xe9", "label": "joy"}\n')
        assert main(["train", "--config", str(toy_config(tmp_path))]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 97: not valid UTF-8" in err

    def test_non_utf8_config_names_file(self, tmp_path, capsys):
        (tmp_path / "config.json").write_bytes(b'{"task": "emotion", "seed": "\xe9"}')
        assert main(["train", "--config", str(tmp_path / "config.json")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"config file {tmp_path / 'config.json'} is not valid JSON" in err

    def test_non_utf8_lexicon_names_file(self, tmp_path, corpus, capsys):
        (tmp_path / "lexicon.txt").write_bytes(b"glad, happy\ncaf\xe9, coffee\n")
        paths = {"train": str(corpus), "output": str(tmp_path / "run"), "lexicon": str(tmp_path / "lexicon.txt")}
        config = toy_config(tmp_path, paths=paths, train={"epochs": 1, "max_seq_len": 16, "augment": True})
        assert main(["train", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"lexicon file {tmp_path / 'lexicon.txt'} is not valid UTF-8" in err

    def test_config_not_an_object(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text("[1, 2]")
        assert main(["train", "--config", str(tmp_path / "config.json")]) == EXIT_CONFIG
        assert str(tmp_path / "config.json") in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["emotion", "mental_health"])
    def test_malformed_schema_names_file(self, tmp_path, corpus, capsys, task):
        schema = tmp_path / "schema.json"
        schema.write_text("{oops")
        paths = {"train": str(corpus), "output": str(tmp_path / "run"), "schema": str(schema)}
        assert main(["train", "--config", str(toy_config(tmp_path, task=task, paths=paths))]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"schema file {schema} is not valid JSON" in err

    def test_summary_reproducible_across_hash_seeds(self, tmp_path, corpus):
        """Two processes with different string hashing write the same summary."""
        cfg = toy_config(tmp_path, train={"epochs": 1, "max_seq_len": 16})
        env = dict(os.environ, PYTHONPATH=str(Path(cmhl.__file__).parents[1]))
        summaries = []
        for hash_seed in ("1", "2"):
            subprocess.run(
                [sys.executable, "-m", "cmhl.cli", "train", "--config", str(cfg)],
                env=dict(env, PYTHONHASHSEED=hash_seed), check=True, capture_output=True,
            )
            summary = json.loads((tmp_path / "run" / "summary.json").read_text())
            summary.pop("wall_time_s")
            summaries.append(json.dumps(summary))
        assert summaries[0] == summaries[1]
        assert list(json.loads(summaries[0])["config"]["paths"]) == [
            "train", "validation", "schema", "lexicon", "output",
        ]

    def test_missing_corpus_is_data_error(self, tmp_path, corpus):
        cfg = toy_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["paths"]["train"] = str(tmp_path / "missing.jsonl")
        cfg.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg)]) == EXIT_DATA

    def test_train_accuracy_is_the_checkpoints(self, tmp_path, corpus, default_schema):
        """With early stopping after a worse epoch, the summary scores the
        saved checkpoint on the training split, not the last epoch's weights."""
        train = {"epochs": 6, "max_seq_len": 16, "learning_rate": 0.03, "warmup": 0, "early_stop_patience": 1}
        assert main(["train", "--config", str(toy_config(tmp_path, train=train))]) == EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["stopped_early"] and summary["best_epoch"] < summary["epochs_run"]
        ckpt = load_checkpoint(tmp_path / "run" / "checkpoint")
        train_split, _ = split_examples(load_corpus(corpus, default_schema)[0], 4, ckpt.train_config.validation_fraction)
        expected = accuracy(model_from_checkpoint(ckpt), train_split, ckpt.vocab, ckpt.train_config)
        assert summary["train_accuracy"] == expected


MH_WORDS = {
    "depression": ("empty", "numb", "worthless"),
    "anxiety": ("racing", "panic", "restless"),
    "bipolar": ("swings", "manic", "crash"),
    "suicidewatch": ("ending", "goodbye", "burden"),
    "offmychest": ("confession", "secret", "venting"),
}


def write_mh_corpus(path, n, seed=0):
    import numpy as np

    rng = np.random.default_rng(seed)
    names = list(MH_WORDS)
    rows = []
    for i in range(n):
        name = names[i % len(names)]
        words = list(rng.choice(MH_WORDS[name], size=2)) + ["today", "post"]
        rng.shuffle(words)
        row = {"text": " ".join(words), "label": name}
        if i % 2 == 0:
            row["intensity"] = i % 3
        rows.append(row)
    write_lines(path, rows)


class TestTrainMentalHealth:
    def test_mh_preset_run(self, tmp_path):
        """Full mental-health preset: augmentation, warmup 400, patience 3."""
        write_mh_corpus(tmp_path / "mh.jsonl", 660)
        config = {
            "task": "mental_health",
            "seed": 1,
            "paths": {"train": str(tmp_path / "mh.jsonl"), "output": str(tmp_path / "run")},
            "train": {"max_seq_len": 16},
            "encoder": dict(TOY_ENCODER),
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        rc = main(["train", "--config", str(tmp_path / "config.json")])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["task"] == "mental_health"
        assert summary["epochs_run"] <= 10
        assert main(["eval", str(tmp_path / "run" / "checkpoint"), str(tmp_path / "mh.jsonl")]) == EXIT_OK


    @pytest.mark.parametrize(
        "fields,name",
        [
            ({"categories": "abc"}, "'categories'"),
            ({"categories": ["low", 2]}, "'categories'"),
            ({"intensity_field": 3}, "'intensity_field'"),
            ({"severity_levels": "x"}, "'severity_levels'"),
            ({"severity_levels": True}, "'severity_levels'"),
            ({"severity_levels": 0}, "'severity_levels'"),
            ({"severity_levels": 2.0}, "'severity_levels'"),
        ],
    )
    def test_malformed_label_schema_field(self, tmp_path, capsys, fields, name):
        write_mh_corpus(tmp_path / "mh.jsonl", 30)
        (tmp_path / "labels.json").write_text(json.dumps(fields))
        config = {
            "task": "mental_health",
            "paths": {"train": str(tmp_path / "mh.jsonl"), "schema": str(tmp_path / "labels.json"),
                      "output": str(tmp_path / "run")},
            "train": {"max_seq_len": 16},
            "encoder": dict(TOY_ENCODER),
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "config.json")]) == EXIT_CONFIG
        assert name in capsys.readouterr().err

    def test_non_integer_severity_rejected(self, tmp_path, capsys):
        write_mh_corpus(tmp_path / "mh.jsonl", 30)
        with open(tmp_path / "mh.jsonl", "a") as handle:
            handle.write(json.dumps({"text": "calm today", "label": "anxiety", "intensity": "high"}) + "\n")
        config = {
            "task": "mental_health",
            "paths": {"train": str(tmp_path / "mh.jsonl"), "output": str(tmp_path / "run")},
            "train": {"max_seq_len": 16},
            "encoder": dict(TOY_ENCODER),
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "config.json")]) == EXIT_DATA
        assert 'line 31: severity "high"' in capsys.readouterr().err

    def test_custom_label_schema_round_trip(self, tmp_path):
        """A checkpoint trained with non-default categories and severity
        levels restores the same schema and the same tensors."""
        rows = [{"text": f"{name} mood {i % 5}", "label": name, "sev": i % 4}
                for i, name in enumerate(["low", "mid", "high"] * 30)]
        write_lines(tmp_path / "mh.jsonl", rows)
        labels = MHLabelSchema(categories=("low", "mid", "high"), intensity_field="sev", severity_levels=4)
        (tmp_path / "labels.json").write_text(json.dumps(labels.to_jsonable()))
        config = {
            "task": "mental_health",
            "seed": 3,
            "paths": {"train": str(tmp_path / "mh.jsonl"), "schema": str(tmp_path / "labels.json"),
                      "output": str(tmp_path / "run")},
            "train": {"epochs": 2, "warmup": 0, "max_seq_len": 16},
            "encoder": dict(TOY_ENCODER),
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "config.json")]) == EXIT_OK

        ckpt = load_checkpoint(tmp_path / "run" / "checkpoint")
        model = model_from_checkpoint(ckpt)
        assert model.labels == labels
        assert model.heads["mh.w_m"].shape[1] == 3 and model.heads["mh.w_s"].shape[1] == 4
        params = model.parameters()
        assert set(params) == set(ckpt.tensors)
        for name, tensor in params.items():
            assert np.array_equal(tensor.data, ckpt.tensors[name]), name
        assert main(["eval", str(tmp_path / "run" / "checkpoint"), str(tmp_path / "mh.jsonl")]) == EXIT_OK


class TestEval:
    @pytest.fixture
    def trained(self, tmp_path, corpus):
        main(["train", "--config", str(toy_config(tmp_path))])
        return tmp_path / "run" / "checkpoint"

    def test_eval_twice_identical(self, tmp_path, corpus, trained, capsys):
        main(["eval", str(trained), str(corpus)])
        first = capsys.readouterr().out
        main(["eval", str(trained), str(corpus)])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {
            "macro_f1", "per_class_recall", "macro_recall", "mean_confidence", "combined_score",
        }

    def test_unknown_label_names_offender(self, tmp_path, corpus, trained, capsys):
        write_lines(tmp_path / "bad.jsonl", [{"text": "x", "label": "nostalgia"}])
        rc = main(["eval", str(trained), str(tmp_path / "bad.jsonl")])
        assert rc == EXIT_DATA
        assert "nostalgia" in capsys.readouterr().err

    def test_dump_predictions(self, tmp_path, corpus, trained, default_schema):
        # mixed lengths, so eval's length-sorted batches permute the corpus
        examples = mixed_length_examples(synthetic_emotion_examples(40, 9, default_schema))
        write_corpus_jsonl(tmp_path / "mixed.jsonl", examples, default_schema)
        out = tmp_path / "preds.csv"
        rc = main(["eval", str(trained), str(tmp_path / "mixed.jsonl"), "--dump-predictions", str(out)])
        assert rc == EXIT_OK
        assert out.read_text().splitlines()[0] == "index,true_label,predicted_label,confidence"
        ckpt = load_checkpoint(trained)
        model = model_from_checkpoint(ckpt)
        names = default_schema.taxonomy.emotions
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(examples)
        for i, (row, ex) in enumerate(zip(rows, examples)):
            pred, conf = predict(model, [ex], ckpt.vocab, ckpt.train_config)
            assert row["index"] == str(i)
            assert row["true_label"] == names[ex.emotion]
            assert row["predicted_label"] == names[pred[0]]
            assert float(row["confidence"]) == pytest.approx(conf[0], abs=1e-9)

    @pytest.mark.parametrize(
        "corruption",
        ["malformed_json", "missing_key", "short_tensor", "unknown_format", "wrong_type",
         "float_batch_size", "float_layers", "negative_layers", "validation_fraction_one", "train_dropout",
         "seq_len_past_positions", "schema_tau0_string", "schema_emotions_int", "unknown_task", "not_utf8",
         "nan_learning_rate", "infinite_alpha1"],
    )
    def test_corrupt_checkpoint_exits_data_error(self, tmp_path, corpus, trained, capsys, corruption):
        manifest_path = trained / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if corruption == "malformed_json":
            manifest_path.write_text(manifest_path.read_text()[:-10])
            offender = "manifest.json"
        elif corruption == "not_utf8":
            manifest_path.write_bytes(manifest_path.read_bytes().replace(b'"emotion"', b'"\xe9motion"', 1))
            offender = f"checkpoint manifest file {manifest_path} is not valid JSON"
        elif corruption == "missing_key":
            del manifest["vocab"]
            manifest_path.write_text(json.dumps(manifest))
            offender = "'vocab'"
        elif corruption == "short_tensor":
            tensor_file = trained / manifest["tensors"][0]["file"]
            tensor_file.write_bytes(tensor_file.read_bytes()[:-8])
            offender = manifest["tensors"][0]["file"]
        elif corruption == "unknown_format":
            manifest["format"] = 99
            manifest_path.write_text(json.dumps(manifest))
            offender = "format 99"
        elif corruption == "wrong_type":
            manifest["train"]["bogus"] = 1
            manifest_path.write_text(json.dumps(manifest))
            offender = "'bogus'"
        elif corruption == "train_dropout":  # as written before dropout became the encoder's alone
            manifest["train"]["dropout"] = 0.1
            manifest_path.write_text(json.dumps(manifest))
            offender = "'dropout'"
        elif corruption.startswith("schema_"):  # parsed inside the manifest's error mapping, not as a config error
            key, value = {"schema_tau0_string": ("tau0", "x"), "schema_emotions_int": ("emotions", 3)}[corruption]
            manifest["schema"][key] = value
            manifest_path.write_text(json.dumps(manifest))
            offender = f"manifest.json: malformed value: {key!r}"
        elif corruption == "unknown_task":
            manifest["task"] = "bogus"
            manifest_path.write_text(json.dumps(manifest))
            offender = "manifest.json: malformed value: task must be one of ('emotion', 'mental_health'), got 'bogus'"
        else:  # a config field of the wrong type or range
            section, key, value, offender = {
                "float_batch_size": ("train", "batch_size", 2.5, "'train.batch_size'"),
                "float_layers": ("encoder", "layers", 1.5, "'encoder.layers'"),
                "negative_layers": ("encoder", "layers", -1, "encoder dimensions must be positive"),
                "validation_fraction_one": ("train", "validation_fraction", 1.0, "validation_fraction"),
                "seq_len_past_positions": ("train", "max_seq_len", 32, "max_seq_len 32 exceeds encoder max_positions 16"),
                "nan_learning_rate": ("train", "learning_rate", float("nan"), "'train.learning_rate' must be a finite"),
                "infinite_alpha1": ("loss_weights", "alpha1", float("inf"), "'loss_weights.alpha1' must be a finite"),
            }[corruption]
            manifest[section][key] = value
            manifest_path.write_text(json.dumps(manifest))
        assert main(["eval", str(trained), str(corpus)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and offender in err

    def test_one_predict_pass(self, tmp_path, corpus, trained, monkeypatch):
        """The metrics and ``--dump-predictions`` share one prediction pass."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return predict(*args, **kwargs)

        monkeypatch.setattr(cmhl.training, "predict", counted)
        monkeypatch.setattr(cmhl.cli, "predict", counted)
        argv = ["eval", str(trained), str(corpus), "--dump-predictions", str(tmp_path / "preds.csv")]
        assert main(argv) == EXIT_OK
        assert len(calls) == 1

    def test_nonfinite_long_batch_exits_numeric(self, tmp_path, default_schema, capsys):
        """NaN positions past 100 fail only the longest batch, where the helper walker starts."""
        model, vocab, examples, config = long_tail_model(default_schema, nan_from=101)
        write_corpus_jsonl(tmp_path / "long.jsonl", examples, default_schema)
        save_checkpoint(
            Checkpoint(task="emotion", encoder_config=model.encoder.config, train_config=config,
                       loss_weights=model.weights, vocab=vocab, schema_json=default_schema.to_jsonable(), epoch=0,
                       metrics=None, tensors={k: v.data for k, v in model.parameters().items()}),
            tmp_path / "checkpoint",
        )
        threads = threading.active_count()
        assert main(["eval", str(tmp_path / "checkpoint"), str(tmp_path / "long.jsonl")]) == EXIT_NUMERIC
        assert threading.active_count() == threads
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "non-finite" in err and "Traceback" not in err

    def test_output_file(self, tmp_path, corpus, trained):
        out = tmp_path / "metrics.json"
        main(["eval", str(trained), str(corpus), "--output", str(out)])
        assert 0.0 <= json.loads(out.read_text())["combined_score"] <= 1.0


class TestGradcheckCommand:
    def test_losses_scope_passes(self, capsys):
        rc = main(["gradcheck", "--scope", "losses"])
        assert rc == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_injected_error_fails(self, capsys):
        rc = main(["gradcheck", "--scope", "losses", "--inject-error"])
        assert rc == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out


class TestHelp:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("derive-labels", ["--schema", "--output", "--skip-bad"]),
            ("train", ["--config"]),
            ("eval", ["--output", "--dump-predictions"]),
            ("gradcheck", ["--scope", "--inject-error"]),
        ],
    )
    def test_every_flag_documented(self, command, flags, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text
