"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from cmhl import tensor as T
from cmhl import training
from cmhl.affect import LossWeights
from cmhl.cli import EXIT_NUMERIC, EXIT_OK, main
from cmhl.data import build_vocab, encode_batch, LabeledExample
from cmhl.diagnostics import run_gradcheck
from cmhl.encoder import EncoderConfig
from cmhl.heads import EmotionModel, exclusivity_loss
from cmhl.mh import gate_weights, gated_fusion_product, mh_head_params
from cmhl.training import (
    Checkpoint,
    Metrics,
    TrainConfig,
    combined_score,
    evaluate,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    select_checkpoint,
    train,
)

from conftest import CLASS_WORDS, contradiction_examples, synthetic_emotion_examples, write_corpus_jsonl


def report(number, name):
    print(f"\nACCEPTANCE {number} {name}: PASS")


def test_c1_gradient_correctness(capsys):
    started = time.time()
    rows = run_gradcheck("all")
    elapsed = time.time() - started
    worst = max(r.error for r in rows)
    assert all(r.passed for r in rows), [r for r in rows if not r.passed]
    assert worst < 1e-4
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
    # the command-line path agrees, and the negative control fails
    assert main(["gradcheck", "--scope", "all"]) == EXIT_OK
    assert main(["gradcheck", "--scope", "losses", "--inject-error"]) == EXIT_NUMERIC
    capsys.readouterr()
    report(1, f"gradient correctness (worst {worst:.2e}, {elapsed:.1f}s)")


def test_c2_affect_label_derivation(default_schema):
    expected = {
        "sadness": (1, 1),  # negative, low
        "joy": (0, 0),  # positive, high
        "love": (0, 1),  # positive, low
        "anger": (1, 0),  # negative, high
        "fear": (1, 0),  # negative, high
        "surprise": (2, 0),  # neutral, high
    }
    for name, (valence, intensity) in expected.items():
        idx = default_schema.names.index(name)
        first = (default_schema.derive_valence(idx), default_schema.derive_intensity(idx))
        second = (default_schema.derive_valence(idx), default_schema.derive_intensity(idx))
        assert first == (valence, intensity), name
        assert first == second, "derivation must be idempotent"
    report(2, "complete valence/intensity case sweep, idempotent")


def test_c3_exclusivity_oracle(default_schema):
    taxonomy = default_schema.taxonomy
    pos_idx, neg_idx = taxonomy.positive, taxonomy.negative
    rng = np.random.default_rng(33)
    probs = rng.dirichlet(np.ones(6), size=1000)

    vectorized = exclusivity_loss(T.tensor(probs), default_schema).item()
    naive = 0.0
    for p in probs:
        for i in pos_idx:
            for j in neg_idx:
                naive += max(0.0, p[i] + p[j] - default_schema.tau[pos_idx.index(i), neg_idx.index(j)])
    naive /= len(probs)
    assert abs(vectorized - naive) < 1e-12

    # a schema clamps every threshold below 1, so a stand-in carries tau = 1
    saturated = SimpleNamespace(taxonomy=taxonomy, tau=np.ones((len(pos_idx), len(neg_idx))))
    for p in probs[:200]:
        assert exclusivity_loss(T.tensor([p]), saturated).item() == 0.0
    report(3, f"vectorized vs naive oracle (|diff| = {abs(vectorized - naive):.2e}), simplex bound exact")


def test_c4_gating_algebra():
    heads = mh_head_params(5, 8, T.drawn(np.random.default_rng(44)), gate_dim=16)
    rng = np.random.default_rng(45)
    feats = T.tensor(rng.normal(size=(1000, 8)))
    gate = gate_weights(feats, heads)
    sums = gate.data.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-9

    # the blockwise construction, written out in NumPy
    block = np.concatenate([gate.data[:, :1] * feats.data[:, :5], gate.data[:, 1:] * feats.data[:, 5:]], axis=1)
    broadcast = gated_fusion_product(feats, gate, (5, 3))
    gap = np.abs(block - broadcast.data).max()
    assert gap < 1e-15
    report(4, f"gate sums within 1e-9, constructions agree ({gap:.1e})")


def metrics_row(f1, conf):
    return Metrics(
        macro_f1=f1, per_class_recall=(f1,), macro_recall=f1,
        mean_confidence=conf, combined_score=combined_score(f1, conf),
    )


def test_c5_checkpoint_selection_and_early_stop(default_schema, monkeypatch):
    assert combined_score(0.9, 0.8) == pytest.approx(0.87)
    history = [metrics_row(0.92, 0.60), metrics_row(0.88, 0.95)]
    assert [m.combined_score for m in history] == pytest.approx([0.824, 0.901])
    assert select_checkpoint(history) == 1
    assert select_checkpoint([metrics_row(0.8, 0.8), metrics_row(0.8, 0.8)]) == 0

    rng = np.random.default_rng(55)
    for _ in range(200):
        hist = [metrics_row(rng.random(), rng.random()) for _ in range(int(rng.integers(1, 10)))]
        idx = select_checkpoint(hist)
        assert hist[idx].combined_score == max(m.combined_score for m in hist)

    # early stopping: patience 3 after combined scores [.5, .6, .59, .58, .57]
    scores = iter([0.5, 0.6, 0.59, 0.58, 0.57, 0.99])
    monkeypatch.setattr(training, "evaluate", lambda *a, **k: metrics_row(next(scores), 0.0))
    examples = synthetic_emotion_examples(16, 0, default_schema)
    vocab = build_vocab(examples, 1)
    cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=16, dropout=0.0)
    model = EmotionModel.build(cfg, len(vocab), default_schema, LossWeights(), seed=0)
    config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=10, warmup=0,
                         early_stop_patience=3, seed=0, max_seq_len=16)
    result = train(model, vocab, examples, config)
    assert len(result.history) == 5, "stops after the fifth epoch"
    assert result.best_index == 1, "best checkpoint is epoch 2"
    assert result.stopped_early
    report(5, "dual-criteria selection and early-stopping walk-throughs")


def test_c6_grad_accumulation_equivalence(default_schema):
    examples = synthetic_emotion_examples(160, 6, default_schema)
    trajectories = []
    for batch_size, accum in ((8, 2), (16, 1)):
        vocab = build_vocab(examples, 1)
        cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=16, dropout=0.0)
        model = EmotionModel.build(cfg, len(vocab), default_schema, LossWeights(), seed=6)
        config = TrainConfig(batch_size=batch_size, grad_accumulation_steps=accum, epochs=1,
                             warmup=0, seed=6, max_seq_len=16)
        snaps = []
        train(model, vocab, examples, config, validation=examples[:8],
              step_callback=lambda s, p: snaps.append({k: v.data.copy() for k, v in p.items()}))
        trajectories.append(snaps)
    a, b = trajectories
    assert len(a) == len(b) == 10
    worst = 0.0
    for step in range(10):
        for name in a[step]:
            gap = np.abs(a[step][name] - b[step][name]).max()
            worst = max(worst, gap)
            assert gap < 1e-9, f"step {step + 1}, {name}: {gap:.2e}"
    report(6, f"batch 8 x accum 2 == batch 16 x accum 1 over 10 steps (max gap {worst:.1e})")


def overfit_corpus(schema):
    """Deterministic 64-example fixture: three stable keywords per class."""
    names = schema.taxonomy.emotions
    out = []
    for i in range(64):
        name = names[i % 6]
        emotion = schema.names.index(name)
        out.append(
            LabeledExample(
                text=" ".join(CLASS_WORDS[name][:3]),
                emotion=emotion,
                valence=schema.derive_valence(emotion),
                intensity=schema.derive_intensity(emotion),
            )
        )
    return out


def test_c7_overfit_sanity(default_schema, tmp_path, capsys):
    corpus_path = tmp_path / "overfit.jsonl"
    write_corpus_jsonl(corpus_path, overfit_corpus(default_schema), default_schema)
    config = {
        "task": "emotion",
        "seed": 2,
        "paths": {
            "train": str(corpus_path),
            "validation": str(corpus_path),
            "output": str(tmp_path / "run"),
        },
        # emotion preset minus warmup; 150 epochs x 2 steps = 300 optimizer steps
        "train": {"warmup": 0, "epochs": 150, "max_seq_len": 32},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    started = time.time()
    assert main(["train", "--config", str(tmp_path / "config.json")]) == EXIT_OK
    elapsed = time.time() - started
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["optimizer_steps"] <= 300
    assert summary["train_accuracy"] >= 0.95, summary["train_accuracy"]
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"

    # evaluating the saved checkpoint on the fixture reproduces the fit
    assert main(["eval", str(tmp_path / "run" / "checkpoint"), str(corpus_path),
                 "--output", str(tmp_path / "eval.json")]) == EXIT_OK
    metrics = json.loads((tmp_path / "eval.json").read_text())
    assert metrics["macro_f1"] >= 0.95
    capsys.readouterr()
    report(7, f"train accuracy {summary['train_accuracy']:.3f} in "
              f"{summary['optimizer_steps']} steps, {elapsed:.0f}s")


def test_c8_desk_scale_directional_run(default_schema):
    started = time.time()
    examples = synthetic_emotion_examples(2000, 77, default_schema)
    examples = [dataclasses.replace(ex, split="train" if i < 1500 else "validation") for i, ex in enumerate(examples)]
    vocab = build_vocab(examples[:1500], 1)
    model = EmotionModel.build(EncoderConfig(), len(vocab), default_schema, LossWeights(), seed=5)
    config = TrainConfig(seed=5, max_seq_len=32)  # full emotion preset
    result = train(model, vocab, examples, config)
    best_f1 = result.best_metrics.macro_f1
    assert best_f1 >= 0.35, f"validation macro-F1 {best_f1:.3f}"
    assert best_f1 > 0.16, "must beat the uniform-random six-class baseline"

    # the exclusivity constraint lowers joint joy+anger mass on ambiguous text
    def joy_anger_mass(lam):
        fixture = contradiction_examples(64, 21, default_schema)
        v = build_vocab(fixture, 1)
        m = EmotionModel.build(
            EncoderConfig(), len(v), default_schema, LossWeights(lambda_excl=lam), seed=13
        )
        cfg = TrainConfig(learning_rate=1e-2, warmup=0, epochs=20, seed=13, max_seq_len=32)
        train(m, v, fixture, cfg, validation=fixture)
        batch = encode_batch(fixture, v, 10)
        pe = m.forward(batch).p_e.data
        joy = default_schema.names.index("joy")
        anger = default_schema.names.index("anger")
        return float((pe[:, joy] + pe[:, anger]).mean())

    constrained = joy_anger_mass(0.4)
    unconstrained = joy_anger_mass(0.0)
    assert constrained < unconstrained, (constrained, unconstrained)
    elapsed = time.time() - started
    assert elapsed < 1200.0, f"directional run took {elapsed:.0f}s"
    report(8, f"val macro-F1 {best_f1:.3f} >= 0.35; joy+anger mass "
              f"{constrained:.4f} < {unconstrained:.4f}; {elapsed:.0f}s")


def test_c9_persistence(default_schema, tmp_path):
    examples = synthetic_emotion_examples(48, 9, default_schema)
    vocab = build_vocab(examples, 1)
    cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=16, dropout=0.0)
    model = EmotionModel.build(cfg, len(vocab), default_schema, LossWeights(), seed=9)
    config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=2, warmup=0,
                         seed=9, max_seq_len=16)
    train(model, vocab, examples, config, validation=examples[:16])
    before = evaluate(model, examples[:16], vocab, config)

    save_checkpoint(
        Checkpoint(
            task="emotion",
            encoder_config=cfg,
            train_config=config,
            loss_weights=model.head.loss_weights,
            vocab=vocab,
            schema_json=default_schema.to_jsonable(),
            epoch=2,
            metrics=before,
            tensors={k: v.data for k, v in model.parameters().items()},
        ),
        tmp_path / "ckpt",
    )
    restored = model_from_checkpoint(load_checkpoint(tmp_path / "ckpt"))
    after = evaluate(restored, examples[:16], vocab, config)
    for field in ("macro_f1", "macro_recall", "mean_confidence", "combined_score"):
        assert abs(getattr(after, field) - getattr(before, field)) < 1e-12, field
    report(9, "save -> load -> evaluate reproduces metrics within 1e-12")
