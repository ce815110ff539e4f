"""Optimizer, schedule, metrics, selection, early stopping, persistence."""

import json
import os
import platform
import re
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cmhl import data as data_module
from cmhl import tensor as T
from cmhl import training
from cmhl.affect import LossWeights
from cmhl.data import LabeledExample, MHLabelSchema, augment, build_vocab, default_lexicon, encode_batch, tokenize
from cmhl.encoder import EncoderConfig, Model
from cmhl.errors import ConfigError, DataError, NumericError, read_record
from cmhl.heads import EmotionModel
from cmhl.mh import MHModel
from cmhl.training import (
    TASKS,
    AdamW,
    Checkpoint,
    Metrics,
    TrainConfig,
    combined_score,
    evaluate,
    load_checkpoint,
    lr_at,
    model_from_checkpoint,
    predict,
    read_schema,
    save_checkpoint,
    select_checkpoint,
    task_record,
    train,
    write_metrics_csv,
)

from conftest import long_tail_model, mixed_length_examples, synthetic_emotion_examples


def optimizer(values: dict, grads: dict, decay: float = 0.0) -> AdamW:
    """AdamW over fresh tensors holding ``values``, each with its ``.grad`` from ``grads`` (None: no gradient)."""
    params = {k: T.tensor(np.array(v, dtype=np.float64), requires_grad=True) for k, v in values.items()}
    for k, g in grads.items():
        params[k].grad = None if g is None else np.array(g, dtype=np.float64)
    return AdamW(params, weight_decay=decay)


class TestAdamW:
    def test_zero_gradient_zero_decay_leaves_params(self):
        opt = optimizer({"x": 1.5}, {"x": 0.0})
        opt.step(1e-3)
        assert opt.params["x"].item() == pytest.approx(1.5)

    def test_first_step_magnitude_matches_lr(self):
        opt = optimizer({"x": 0.0}, {"x": 1.0})
        opt.step(1e-3)
        # bias-corrected m_hat / sqrt(v_hat) equals 1 on the first step
        assert abs(opt.params["x"].item()) == pytest.approx(1e-3, rel=1e-6)

    def test_decoupled_decay_pure_shrink(self):
        opt = optimizer({"x": 2.0}, {"x": 0.0}, decay=0.5)
        opt.step(0.1)
        assert opt.params["x"].item() == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_missing_gradient_still_decays(self):
        """A parameter without ``.grad`` decays like one with a zero gradient, and its moments stay 0."""
        opt = optimizer({"x": 2.0, "y": 1.0}, {"x": None, "y": 0.5}, decay=0.5)
        opt.step(0.1)
        assert opt.params["x"].item() == 2.0 * (1 - 0.1 * 0.5)
        assert opt.m["x"] == 0.0 and opt.v["x"] == 0.0
        assert opt.m["y"] != 0.0 and opt.v["y"] != 0.0

    def test_nan_gradient_aborts_with_name(self):
        opt = optimizer({"x": 0.0}, {"x": np.nan})
        with pytest.raises(NumericError, match="x"):
            opt.step(1e-3)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_nonfinite_lr_rejected_before_any_parameter_moves(self, lr):
        opt = optimizer({"a": [1.0, -2.0], "b": 0.5}, {"a": [0.1, 0.2], "b": -0.3}, decay=0.01)
        opt.steps = 3
        for k in opt.params:
            opt.m[k].fill(0.01)
            opt.v[k].fill(0.02)
        before = {k: v.data.copy() for k, v in opt.params.items()}
        with pytest.raises(NumericError, match="non-finite learning rate"):
            opt.step(lr)
        for k, v in opt.params.items():
            assert v.data.tobytes() == before[k].tobytes(), k
            assert np.all(opt.m[k] == 0.01) and np.all(opt.v[k] == 0.02), k
        assert opt.steps == 3

    def test_nonfinite_gradient_rejected_before_any_parameter_moves(self):
        """A NaN gradient for a later parameter leaves the earlier one, its moments and the step count alone."""
        opt = optimizer({"a": 1.0, "b": 2.0}, {"a": 0.5, "b": np.nan}, decay=0.01)
        with pytest.raises(NumericError, match="'b'"):
            opt.step(1e-3)
        assert opt.params["a"].item() == 1.0 and opt.params["b"].item() == 2.0
        assert opt.m["a"] == 0.0 and opt.v["a"] == 0.0
        assert opt.steps == 0

    def test_wrapper_consumes_tensor_grads(self):
        t = T.tensor(1.0, requires_grad=True)
        opt = AdamW({"w": t}, weight_decay=0.0)
        T.backward(t * t)
        opt.step(1e-2)
        opt.zero_grad()
        assert t.item() != 1.0
        assert t.grad is None

    def test_bit_identical_to_textbook_update(self):
        """Parameters and both moments equal a plain per-parameter update exactly: 0-d, small, on each
        side of a chunk boundary, several chunks and a tail, and a transposed view, updated in place."""
        rng = np.random.default_rng(21)
        c = AdamW.CHUNK
        shapes = {"s": (), "v": (7,), "m": (5, 3), "t": (2, 3, 4),
                  "c-1": (c - 1,), "c": (c,), "c+1": (c + 1,), "3c+7": (3 * c + 7,), "view": (130, 200)}
        opt = optimizer({k: rng.normal(size=s) for k, s in shapes.items()}, {}, decay=0.01)
        base = rng.normal(size=shapes["view"][::-1])
        opt.params["view"].data = base.T  # not C-contiguous: a flat copy of it would leave the parameter alone
        ref = {k: [p.data.copy(), np.zeros(shapes[k]), np.zeros(shapes[k])] for k, p in opt.params.items()}
        b1, b2 = training.ADAM_BETAS
        eps = training.ADAM_EPS
        for t, lr in enumerate([3e-2, 1e-2, 2e-3, 5e-4], start=1):
            grads = {k: rng.normal(scale=10.0 ** -t, size=s) for k, s in shapes.items()}
            for k, g in grads.items():
                opt.params[k].grad = g.copy()
            opt.step(lr)
            for k, (p, m, v) in ref.items():
                g = grads[k]
                p = p * (1.0 - lr * 0.01)
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1**t)
                v_hat = v / (1.0 - b2**t)
                ref[k] = [p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v]
        assert opt.steps == 4 and opt.params["view"].data.base is base
        assert np.array_equal(base.T, ref["view"][0])
        for k, (p, m, v) in ref.items():
            assert np.array_equal(opt.params[k].data, p), k
            assert np.array_equal(opt.m[k], m), k
            assert np.array_equal(opt.v[k], v), k


STEADY_STEPS = """
import resource, numpy as np
from cmhl import tensor as T
from cmhl.data import LabeledExample, MHLabelSchema, build_vocab, encode_batch
from cmhl.encoder import EncoderConfig
from cmhl.mh import MHModel
from cmhl.training import AdamW
rng = np.random.default_rng(0)
words = [f"w{i}" for i in range(200)]
examples = [LabeledExample(text=" ".join(rng.choice(words, 47)), emotion=i % 5, intensity=i % 3) for i in range(8)]
vocab = build_vocab(examples, 1)
batch = encode_batch(examples, vocab, 48)
config = EncoderConfig(layers=2, heads=4, hidden=128, ffn_dim=512, max_positions=48, dropout=0.1)
model = MHModel.build(config, len(vocab), MHLabelSchema(), seed=0)
opt = AdamW(model.parameters(), weight_decay=0.01)
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    T.backward(model.loss(model.forward(batch, rng=np.random.default_rng(1)), batch))
    opt.step(1e-3)
    opt.zero_grad()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc policy is glibc's")
def test_steady_training_steps_reuse_freed_pages():
    """Five identical fwd+bwd+AdamW steps (MH model, 2 x 128, batch 8 x 48) in a fresh process: after
    the first, each step takes fewer than 100 minor page faults, because glibc keeps what the last step
    freed (without the policy it returns it and the next step faults it back in, 800 to 4,500 faults)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", STEADY_STEPS], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 5 and all(f < 100 for f in faults[1:]), faults


class TestLrSchedule:
    def test_step_zero_is_zero(self):
        assert lr_at(0, 1000, 100, 2e-5) == 0.0

    def test_ramp_apex(self):
        assert lr_at(100, 1000, 100, 2e-5) == pytest.approx(2e-5)

    def test_halfway_down_decay(self):
        assert lr_at(550, 1000, 100, 2e-5) == pytest.approx(1e-5)

    def test_warmup_must_be_shorter_than_run(self):
        with pytest.raises(ConfigError):
            lr_at(0, 100, 100, 1e-3)

    def test_zero_warmup_starts_at_peak(self):
        assert lr_at(0, 100, 0, 1e-3) == pytest.approx(1e-3)

    def test_piecewise_linear_continuity(self):
        total, warmup, lr = 250, 40, 3e-4
        bound = lr / min(warmup, total - warmup) + 1e-15
        values = [lr_at(s, total, warmup, lr) for s in range(total + 1)]
        for a, b in zip(values, values[1:]):
            assert abs(b - a) <= bound


class StubModel:
    """Returns pre-set probability rows in corpus order; its head reads them as the primary probabilities."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)
        self.cursor = 0
        self.head = SimpleNamespace(schema=SimpleNamespace(names=tuple(range(self.probs.shape[1]))), probs=T.tensor)

    def forward(self, batch, rng=None):
        rows = self.probs[self.cursor : self.cursor + len(batch.token_ids)]
        self.cursor += len(batch.token_ids)
        return rows


def stub_examples(labels):
    return [LabeledExample(text=f"t{i}", emotion=int(y)) for i, y in enumerate(labels)]


def stub_vocab():
    return build_vocab([LabeledExample(text="t0 t1 t2 t3", emotion=0)], min_freq=1)


class TestEvaluate:
    config = TrainConfig(batch_size=4, epochs=1)

    def test_perfect_predictions(self):
        model = StubModel([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.3, 0.7]])
        metrics = evaluate(model, stub_examples([0, 0, 1, 1]), stub_vocab(), self.config)
        assert metrics.macro_f1 == 1.0
        assert metrics.macro_recall == 1.0
        assert metrics.per_class_recall == (1.0, 1.0)

    def test_symmetric_confusion_gives_half(self):
        # TP=1, FP=1, FN=1, TN=1 per class
        model = StubModel([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1], [0.1, 0.9]])
        metrics = evaluate(model, stub_examples([0, 0, 1, 1]), stub_vocab(), self.config)
        assert metrics.macro_f1 == pytest.approx(0.5)

    def test_mean_confidence(self):
        model = StubModel([[0.9, 0.1], [0.3, 0.7]])
        metrics = evaluate(model, stub_examples([0, 1]), stub_vocab(), self.config)
        assert metrics.mean_confidence == pytest.approx(0.8)
        assert metrics.combined_score == pytest.approx(0.7 * 1.0 + 0.3 * 0.8)

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            evaluate(StubModel([[1.0, 0.0]]), [], stub_vocab(), self.config)

    def test_combined_score_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            f1, conf = rng.random(), rng.random()
            assert 0.0 <= combined_score(f1, conf) <= 1.0


def metrics_row(f1, conf):
    return Metrics(
        macro_f1=f1,
        per_class_recall=(f1,),
        macro_recall=f1,
        mean_confidence=conf,
        combined_score=combined_score(f1, conf),
    )


class TestSelectCheckpoint:
    def test_weighted_sum_value(self):
        assert combined_score(0.9, 0.8) == pytest.approx(0.87)

    def test_single_entry(self):
        assert select_checkpoint([metrics_row(1.0, 1.0)]) == 0

    def test_confident_model_wins(self):
        history = [metrics_row(0.92, 0.60), metrics_row(0.88, 0.95)]
        assert history[0].combined_score == pytest.approx(0.824)
        assert history[1].combined_score == pytest.approx(0.901)
        assert select_checkpoint(history) == 1

    def test_tie_breaks_earliest(self):
        history = [metrics_row(0.8, 0.8), metrics_row(0.8, 0.8)]
        assert select_checkpoint(history) == 0

    def test_selector_is_argmax_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            history = [metrics_row(rng.random(), rng.random()) for _ in range(rng.integers(1, 12))]
            idx = select_checkpoint(history)
            best = max(m.combined_score for m in history)
            assert history[idx].combined_score == best
            assert all(m.combined_score < best for m in history[:idx])

    def test_empty_history_rejected(self):
        with pytest.raises(DataError):
            select_checkpoint([])


def tiny_model_and_corpus(default_schema, n=32, seed=0):
    examples = synthetic_emotion_examples(n, seed, default_schema)
    vocab = build_vocab(examples, min_freq=1)
    cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=16, dropout=0.0)
    model = EmotionModel.build(cfg, len(vocab), default_schema, LossWeights(), seed=seed)
    return model, vocab, examples


def serial_predict(model, examples, vocab, config):
    """The one-thread walk over length-sorted batches that ``predict`` must match bit for bit."""
    lengths = np.array([len(tokenize(ex.text)) for ex in examples], dtype=np.intp)
    order = np.argsort(lengths, kind="stable")
    preds, confs = np.empty(len(examples), dtype=np.intp), np.empty(len(examples))
    with T.no_grad():
        for start in range(0, len(examples), config.batch_size):
            idx = order[start : start + config.batch_size]
            seq = min(config.max_seq_len, 1 + int(lengths[idx].max()))
            probs = model.head.probs(model.forward(encode_batch([examples[i] for i in idx], vocab, max(seq, 2)))).data
            preds[idx], confs[idx] = probs.argmax(axis=1), probs.max(axis=1)
    return preds, confs


def log_forwards(model, monkeypatch):
    """Record (in the calling thread?, padded length, returned?) for every forward.

    Each walker's first forward waits for the other's: the caller's until the
    helper's has ended, the helper's until the caller's has begun. So each
    thread runs a batch, even one that would otherwise take them all, and the
    helper's first batch is logged first; ``predict`` needs two or more.
    """
    log, caller_began, helper_ended = [], threading.Event(), threading.Event()
    forward = model.forward

    def logged(batch, **kwargs):
        caller = threading.current_thread() is threading.main_thread()
        if caller:
            caller_began.set()
            assert helper_ended.wait(timeout=60)
        else:
            assert caller_began.wait(timeout=60)
        try:
            out = forward(batch, **kwargs)
            log.append((caller, batch.token_ids.shape[1], True))
            return out
        except Exception:
            log.append((caller, batch.token_ids.shape[1], False))
            raise
        finally:
            if not caller:
                helper_ended.set()

    monkeypatch.setattr(model, "forward", logged)
    return log


class TestPredict:
    def test_mixed_lengths_come_back_in_input_order(self, default_schema):
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=30, seed=2)
        examples = mixed_length_examples(examples)
        config = TrainConfig(batch_size=4, max_seq_len=16)
        preds, confs = predict(model, examples, vocab, config)
        singles = [predict(model, [ex], vocab, config) for ex in examples]
        np.testing.assert_array_equal(preds, [p[0] for p, _ in singles])
        # padding to a longer batch moves confidences only at the last-bit level
        np.testing.assert_allclose(confs, [c[0] for _, c in singles], rtol=0, atol=1e-15)
        assert np.ptp(confs) > 1e-6

    @pytest.mark.parametrize("n,batches", [(0, 0), (3, 1), (8, 2), (19, 5)])
    def test_bit_identical_to_serial_walk(self, default_schema, n, batches):
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=max(n, 1), seed=2)
        examples = mixed_length_examples(examples)[:n]
        config = TrainConfig(batch_size=4, max_seq_len=16)
        assert -(-n // config.batch_size) == batches
        threads = threading.active_count()
        preds, confs = predict(model, examples, vocab, config)
        assert threading.active_count() == threads
        ref_preds, ref_confs = serial_predict(model, examples, vocab, config)
        np.testing.assert_array_equal(preds, ref_preds)
        assert confs.tobytes() == ref_confs.tobytes()

    def test_long_tail_matches_serial_walk(self, default_schema, monkeypatch):
        model, vocab, examples, config = long_tail_model(default_schema)
        ref_preds, ref_confs = serial_predict(model, examples, vocab, config)
        log = log_forwards(model, monkeypatch)
        preds, confs = predict(model, examples, vocab, config)
        np.testing.assert_array_equal(preds, ref_preds)
        assert confs.tobytes() == ref_confs.tobytes()
        # the helper starts at the long end, the caller at the short end
        assert log[0] == (False, 121, True) and {caller for caller, _, _ in log} == {True, False}

    def test_helper_error_reaches_caller(self, default_schema, monkeypatch):
        """NaN positions past 100 fail only the long-end batch, which the helper runs."""
        model, vocab, examples, config = long_tail_model(default_schema, nan_from=101)
        log = log_forwards(model, monkeypatch)
        threads = threading.active_count()
        with pytest.raises(NumericError, match="non-finite"):
            predict(model, examples, vocab, config)
        assert threading.active_count() == threads
        assert [entry for entry in log if not entry[2]] == [(False, 121, False)]
        assert all(returned for caller, _, returned in log if caller)

    def test_every_batch_runs_once_under_fast_switching(self, default_schema, monkeypatch):
        """Three concurrent calls (six walkers on two cores) with a 1 us switch interval."""
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=60, seed=2)
        examples = mixed_length_examples(examples)
        config = TrainConfig(batch_size=1, max_seq_len=16)
        ref_preds, ref_confs = serial_predict(model, examples, vocab, config)
        forward, count_lock, forwards = model.forward, threading.Lock(), [0]

        def counted(batch, **kwargs):
            with count_lock:
                forwards[0] += 1
            return forward(batch, **kwargs)

        monkeypatch.setattr(model, "forward", counted)
        results = [None] * 3

        def call(i):
            results[i] = predict(model, examples, vocab, config)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert forwards[0] == 3 * len(examples)
        for preds, confs in results:
            np.testing.assert_array_equal(preds, ref_preds)
            assert confs.tobytes() == ref_confs.tobytes()

    def test_no_graph_in_either_thread(self, default_schema, monkeypatch):
        model, vocab, examples, config = long_tail_model(default_schema)
        log_forwards(model, monkeypatch)
        graph_threads, tensor_threads = [], set()
        init = T.Tensor.__init__

        def recorded(tensor, data, requires_grad=False, _parents=(), op="leaf"):
            init(tensor, data, requires_grad, _parents, op)
            tensor_threads.add(threading.current_thread().name)
            if requires_grad:
                graph_threads.append(threading.current_thread().name)

        monkeypatch.setattr(T.Tensor, "__init__", recorded)
        predict(model, examples, vocab, config)
        assert len(tensor_threads) == 2 and graph_threads == []


class TestTokenizeOnce:
    """An example is tokenized when it is made; batching reads its ``tokens``."""

    @pytest.fixture
    def tokenize_calls(self, monkeypatch):
        calls = []

        def counted(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(data_module, "tokenize", counted)
        return calls

    @pytest.mark.parametrize("augmenting, expected", [(False, 0), (True, 24)], ids=["plain", "augment"])
    def test_train_epoch(self, default_schema, tokenize_calls, augmenting, expected):
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=32)
        tokenize_calls.clear()
        config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=1, warmup=0, seed=0,
                             max_seq_len=16, augment=augmenting)
        train(model, vocab, examples[:24], config, validation=examples[24:])
        assert len(tokenize_calls) == expected  # an augmented example is a new text, tokenized once

    def test_predict(self, default_schema, tokenize_calls):
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=32)
        tokenize_calls.clear()
        predict(model, examples, vocab, TrainConfig(batch_size=4, max_seq_len=16))
        assert tokenize_calls == []

    def test_training_does_not_tokenize(self):
        assert not hasattr(training, "tokenize")


class TestTrainLoop:
    def test_fixed_seed_reproducible(self, default_schema):
        losses = []
        for _ in range(2):
            model, vocab, examples = tiny_model_and_corpus(default_schema)
            config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=2,
                                 warmup=0.1, seed=3, max_seq_len=16)
            result = train(model, vocab, examples, config)
            losses.append(result.epoch_losses)
        assert losses[0] == losses[1]

    @pytest.mark.parametrize("lexicon", [None, {}], ids=["none", "empty"])
    def test_augment_alone_decides_augmentation(self, default_schema, monkeypatch, lexicon):
        """With ``augment`` on, every training example is augmented; no lexicon means the bundled one."""
        seen = []

        def counting_augment(example, rng, p_syn, p_del, lex):
            seen.append(lex)
            return augment(example, rng, p_syn, p_del, lex)

        monkeypatch.setattr(training, "augment", counting_augment)
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=16)
        config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=2, warmup=0, seed=0,
                             max_seq_len=16, augment=True)
        train(model, vocab, examples, config, validation=examples[:4], lexicon=lexicon)
        assert len(seen) == 2 * len(examples)
        assert all(lex == (default_lexicon() if lexicon is None else {}) for lex in seen)

    def test_early_stopping_walkthrough(self, default_schema, monkeypatch):
        scores = iter([0.5, 0.6, 0.59, 0.58, 0.57, 0.99])
        monkeypatch.setattr(
            training, "evaluate", lambda *a, **k: metrics_row(next(scores), 0.0)
        )
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=16)
        config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=10,
                             warmup=0, early_stop_patience=3, seed=0, max_seq_len=16)
        result = train(model, vocab, examples, config)
        assert len(result.history) == 5
        assert result.best_index == 1
        assert result.stopped_early

    def test_early_stop_needs_patience_plus_one_evals(self, default_schema, monkeypatch):
        # strictly decreasing scores: earliest possible stop is patience + 1 epochs
        scores = iter([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
        monkeypatch.setattr(
            training, "evaluate", lambda *a, **k: metrics_row(next(scores), 0.0)
        )
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=16)
        config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=6,
                             warmup=0, early_stop_patience=2, seed=0, max_seq_len=16)
        result = train(model, vocab, examples, config)
        assert len(result.history) == 3
        assert result.stopped_early

    def test_accumulation_matches_large_batch(self, default_schema):
        """batch 8 x accum 2 tracks batch 16 x accum 1 step for step."""
        n_examples, steps = 64, 4
        trajectories = []
        for batch_size, accum in ((8, 2), (16, 1)):
            model, vocab, examples = tiny_model_and_corpus(default_schema, n=n_examples, seed=5)
            config = TrainConfig(
                batch_size=batch_size, grad_accumulation_steps=accum, epochs=1,
                warmup=0, seed=5, max_seq_len=16,
            )
            snaps = []
            train(model, vocab, examples, config, validation=examples[:8],
                  step_callback=lambda s, p: snaps.append({k: v.data.copy() for k, v in p.items()}))
            trajectories.append(snaps)
        a, b = trajectories
        assert len(a) == len(b) == steps
        for step in range(steps):
            for name in a[step]:
                np.testing.assert_allclose(a[step][name], b[step][name], atol=1e-9, err_msg=name)

    def test_divergence_reports_last_good_epoch(self, default_schema, monkeypatch):
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=16)
        poisoned = T.tensor(float("nan"))
        monkeypatch.setattr(model, "loss", lambda preds, batch: poisoned, raising=False)
        config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=2,
                             warmup=0, seed=0, max_seq_len=16)
        with pytest.raises(NumericError, match="last completed epoch: 0"):
            train(model, vocab, examples, config)

    def test_best_index_matches_selector(self, default_schema):
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=24, seed=4)
        config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=3,
                             warmup=0, seed=4, max_seq_len=16)
        result = train(model, vocab, examples, config)
        assert result.best_index == select_checkpoint(result.history)

    def test_preset_values_pinned(self):
        emotion = TrainConfig(**EmotionModel.preset)
        assert (emotion.learning_rate, emotion.weight_decay) == (2e-5, 0.01)
        assert (emotion.warmup, emotion.batch_size) == (0.1, 16)
        assert (emotion.grad_accumulation_steps, emotion.epochs) == (2, 5)
        assert emotion.max_seq_len == 256
        assert emotion.early_stop_patience is None and not emotion.augment
        mh = TrainConfig.mental_health_preset()
        assert (mh.learning_rate, mh.batch_size, mh.epochs) == (1.5e-5, 12, 10)
        assert (mh.warmup, mh.early_stop_patience) == (400, 3)
        assert not hasattr(mh, "dropout")  # dropout is the encoder's: EncoderConfig.dropout
        assert mh.max_seq_len == 256 and mh.augment
        assert (mh.p_synonym, mh.p_deletion) == (0.1, 0.1)

    def test_augmentation_probabilities_in_unit_interval(self):
        for name in ("p_synonym", "p_deletion"):
            for bad in (1.5, -0.1, 1.0000001):
                with pytest.raises(ConfigError, match=name):
                    TrainConfig(**{name: bad})
            assert getattr(TrainConfig(**{name: 0.0}), name) == 0.0
            assert getattr(TrainConfig(**{name: 1.0}), name) == 1.0

    def test_warmup_longer_than_run_rejected(self, default_schema):
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=16)
        config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=1,
                             warmup=400, seed=0, max_seq_len=16)
        with pytest.raises(ConfigError):
            train(model, vocab, examples, config)

    def test_seeded_streams_are_pairwise_distinct(self, default_schema, monkeypatch):
        """Every generator a seeded run draws from (the split, both tasks' model streams, each
        epoch's shuffle, each example's augmentation, each micro-batch's dropout) starts from its
        own state, over seeds 0-2, eight epochs and seven training examples."""
        make, made = np.random.default_rng, []

        def recording(seed=None):
            rng = make(seed)
            made.append((seed, rng.bit_generator.state["state"]["state"]))
            return rng

        examples = synthetic_emotion_examples(8, 0, default_schema)
        vocab = build_vocab(examples, min_freq=1)
        monkeypatch.setattr(np.random, "default_rng", recording)
        cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=16)
        for seed in range(3):
            MHModel.build(cfg, len(vocab), MHLabelSchema(), seed)
            model = EmotionModel.build(cfg, len(vocab), default_schema, LossWeights(), seed)
            train(model, vocab, examples, TrainConfig(batch_size=4, grad_accumulation_steps=1, epochs=8, warmup=0,
                                                      seed=seed, max_seq_len=16, augment=True))
        by_state = {}
        for seed, state in made:
            by_state.setdefault(state, []).append(seed)
        shared = [seeds for seeds in by_state.values() if len(seeds) > 1]
        assert shared == [], f"{len(shared)} states drawn by more than one stream: {shared}"

    def test_best_params_snapshot_differs_from_final(self, default_schema, monkeypatch):
        # degrading scores: best params are epoch 1, final params are later
        scores = iter([0.9, 0.1, 0.1])
        monkeypatch.setattr(
            training, "evaluate", lambda *a, **k: metrics_row(next(scores), 0.0)
        )
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=16)
        config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=3,
                             warmup=0, seed=1, max_seq_len=16)
        result = train(model, vocab, examples, config)
        assert result.best_index == 0
        current = model.parameters()
        assert any(
            not np.array_equal(result.best_params[k], current[k].data) for k in result.best_params
        )


class TestTaskRecords:
    """``TASKS`` maps each task's name to its one record: schema type, preset, loader and heads."""

    LINES = {
        "emotion": [{"text": "so glad", "label": "joy"}, {"text": "dark rain", "label": 0, "split": "validation"}],
        "mental_health": [{"text": "cannot sleep", "label": "anxiety", "intensity": 2},
                          {"text": "tired again", "label": "depression", "split": "validation"}],
    }

    @pytest.mark.parametrize("record", TASKS.values(), ids=TASKS)
    def test_record_is_its_task(self, record):
        assert TASKS[record.task] is record and task_record(record.task) is record
        presets = {"emotion": TrainConfig(), "mental_health": TrainConfig.mental_health_preset()}
        assert TrainConfig(**record.preset) == presets[record.task]
        assert type(read_schema(record.task, None)) is record.schema_type

    def test_unknown_task_names_the_known_ones(self):
        with pytest.raises(ConfigError, match=r"task must be one of \('emotion', 'mental_health'\), got 'bogus'"):
            task_record("bogus")

    @pytest.mark.parametrize("record", TASKS.values(), ids=TASKS)
    def test_load_is_the_module_loader(self, record, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in self.LINES[record.task]))
        schema = read_schema(record.task, None)
        loader = {"emotion": data_module.load_corpus, "mental_health": data_module.load_mh_corpus}[record.task]
        examples = record.record(schema, LossWeights()).load(path)
        assert len(examples) == 2 and examples == loader(path, schema)[0]

    @pytest.mark.parametrize("record", TASKS.values(), ids=TASKS)
    def test_checkpoint_loads_the_record_it_was_saved_from(self, record, tmp_path):
        schema = {"emotion": read_schema("emotion", None),
                  "mental_health": MHLabelSchema(("low", "high"), "sev", 4)}[record.task]
        head = record.record(schema, LossWeights(alpha1=0.25))
        cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=16)
        vocab = build_vocab([LabeledExample(text="a b", emotion=0)])
        model = Model.build(cfg, len(vocab), head, 0)
        save_checkpoint(Checkpoint(task=record.task, encoder_config=cfg, train_config=TrainConfig(max_seq_len=16),
                                   loss_weights=head.loss_weights, vocab=vocab, schema_json=schema.to_jsonable(),
                                   epoch=1, metrics=None, tensors={k: v.data for k, v in model.parameters().items()}),
                        tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert type(loaded.head) is record and loaded.head == head
        assert model_from_checkpoint(loaded).head == head


class TestPersistence:
    @pytest.mark.parametrize("task", ["emotion", "mental_health"])
    def test_checkpoint_of_an_earlier_commit_predicts_the_same_bits(self, task):
        """``tests/fixtures/checkpoints`` holds one toy checkpoint per task and
        their predictions, all written at commit 51f723d (see ``make.py`` there)."""
        fixtures = Path(__file__).parent / "fixtures" / "checkpoints"
        expected = json.loads((fixtures / "expected.json").read_text())
        ckpt = load_checkpoint(fixtures / task)
        assert ckpt.task == task
        examples = [LabeledExample(text=text, emotion=0) for text in expected["eval_texts"]]
        preds, confs = predict(model_from_checkpoint(ckpt), examples, ckpt.vocab, ckpt.train_config)
        assert preds.tolist() == expected[task]["predictions"]
        assert [c.hex() for c in confs.tolist()] == expected[task]["confidences"]

    def test_checkpoint_round_trip_bitexact_eval(self, default_schema, tmp_path):
        model, vocab, examples = tiny_model_and_corpus(default_schema, n=24, seed=7)
        config = TrainConfig(batch_size=8, grad_accumulation_steps=1, epochs=1,
                             warmup=0, seed=7, max_seq_len=16)
        result = train(model, vocab, examples, config, validation=examples[:8])
        before = evaluate(model, examples[:8], vocab, config)

        ckpt = Checkpoint(
            task="emotion",
            encoder_config=model.encoder.config,
            train_config=config,
            loss_weights=model.head.loss_weights,
            vocab=vocab,
            schema_json=default_schema.to_jsonable(),
            epoch=result.best_index + 1,
            metrics=result.best_metrics,
            tensors={k: v.data for k, v in model.parameters().items()},
        )
        save_checkpoint(ckpt, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        restored = model_from_checkpoint(loaded)
        after = evaluate(restored, examples[:8], loaded.vocab, loaded.train_config)

        assert abs(after.macro_f1 - before.macro_f1) < 1e-12
        assert abs(after.mean_confidence - before.mean_confidence) < 1e-12
        assert abs(after.combined_score - before.combined_score) < 1e-12
        assert loaded.epoch == result.best_index + 1

        fixtures = Path(__file__).parent / "fixtures" / "checkpoints"  # and both tasks' manifests of 51f723d
        for directory in (tmp_path / "ckpt", fixtures / "emotion", fixtures / "mental_health"):
            manifest = read_record(training._Manifest, json.loads((directory / "manifest.json").read_text()))
            assert read_record(training._Manifest, json.loads(json.dumps(asdict(manifest)))) == manifest

    def test_tensor_mismatch_detected(self, default_schema):
        """A tensor the model needs but the checkpoint lacks, one the model has no place for, and one of
        another shape are each named."""
        model, vocab, _ = tiny_model_and_corpus(default_schema, n=8, seed=2)
        tensors = {k: v.data for k, v in model.parameters().items()}
        cases = {
            "the model's tensor 'head.w_e' is not in the checkpoint":
                {k: v for k, v in tensors.items() if k != "head.w_e"},
            "checkpoint tensors the model does not have: ['head.extra']": {**tensors, "head.extra": np.zeros(2)},
            "tensor 'l0.ffn.w2' shape (16, 9) does not match model shape (16, 8)":
                {**tensors, "l0.ffn.w2": np.zeros((16, 9))},
        }
        for message, held in cases.items():
            ckpt = Checkpoint(task="emotion", encoder_config=model.encoder.config,
                              train_config=TrainConfig(max_seq_len=16), loss_weights=model.head.loss_weights,
                              vocab=vocab, schema_json=default_schema.to_jsonable(), epoch=1, metrics=None,
                              tensors=held)
            with pytest.raises(DataError, match=re.escape(message)):
                model_from_checkpoint(ckpt)

    def test_loaded_tensors_are_copies_of_the_checkpoint(self, default_schema):
        """A loaded model's tensors hold the checkpoint's arrays bit for bit, in the model's own memory."""
        model, vocab, _ = tiny_model_and_corpus(default_schema, n=8, seed=2)
        ckpt = Checkpoint(task="emotion", encoder_config=model.encoder.config,
                          train_config=TrainConfig(max_seq_len=16), loss_weights=model.head.loss_weights,
                          vocab=vocab, schema_json=default_schema.to_jsonable(), epoch=1, metrics=None,
                          tensors={k: v.data for k, v in model.parameters().items()})
        loaded = model_from_checkpoint(ckpt).parameters()
        assert list(loaded) == list(model.parameters())
        for name, tensor in loaded.items():
            held = ckpt.tensors[name]
            assert tensor.requires_grad and tensor.data.dtype == held.dtype and tensor.shape == held.shape, name
            assert tensor.data.tobytes() == held.tobytes() and not np.shares_memory(tensor.data, held), name

    def test_metrics_csv_columns(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [0.5], [metrics_row(0.8, 0.6)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,macro_f1,macro_recall,mean_confidence,combined_score"
        assert lines[1].startswith("1,0.5")

    def test_checkpoint_wire_format(self, default_schema, tmp_path):
        """Manifest layout and little-endian float64 tensor files."""
        import json

        model, vocab, examples = tiny_model_and_corpus(default_schema, n=8, seed=3)
        config = TrainConfig(batch_size=8, epochs=1, warmup=0, seed=3, max_seq_len=16)
        ckpt = Checkpoint(
            task="emotion",
            encoder_config=model.encoder.config,
            train_config=config,
            loss_weights=model.head.loss_weights,
            vocab=vocab,
            schema_json=default_schema.to_jsonable(),
            epoch=1,
            metrics=None,
            tensors={k: v.data for k, v in model.parameters().items()},
        )
        save_checkpoint(ckpt, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert set(manifest) == {
            "format", "task", "epoch", "metrics", "encoder", "train",
            "loss_weights", "vocab", "schema", "tensors",
        }
        for entry in manifest["tensors"]:
            assert entry["dtype"] == "<f8"
            blob = (tmp_path / "ckpt" / entry["file"]).read_bytes()
            assert len(blob) == int(np.prod(entry["shape"])) * 8
            np.testing.assert_array_equal(
                np.frombuffer(blob, dtype="<f8").reshape(entry["shape"]),
                ckpt.tensors[entry["name"]],
            )
