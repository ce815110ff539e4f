"""Command-line behavior: derivation, training artifacts, eval, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cmhl
from cmhl.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from cmhl.data import MHLabelSchema
from cmhl.training import load_checkpoint, model_from_checkpoint, predict

from conftest import mixed_length_examples, synthetic_emotion_examples, write_corpus_jsonl


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

    def test_boolean_label_rejected(self, tmp_path, capsys):
        write_lines(tmp_path / "in.jsonl", [{"text": "x", "label": True}])
        rc = main(["derive-labels", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")])
        assert rc == EXIT_DATA
        assert "rejected line 1: label missing or malformed: True" in capsys.readouterr().err


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
        ],
    )
    def test_malformed_top_level_value(self, tmp_path, corpus, capsys, overrides, key):
        assert main(["train", "--config", str(toy_config(tmp_path, **overrides))]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

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
        assert model.heads.block_sizes == (3, 4)
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
