"""Toy-size self-test of the benchmark harness; runs in a few seconds.

    python3 perfbench/selftest.py

Checks that every metric name the harness emits is declared in
``BENCHMARK.json``, that span self times are non-negative and add up to
their parent span, and that ``data.pad_fraction`` on a hand-built batch
equals its known value. Exits 1 on the first failed check.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer  # noqa: E402


def toy_training(tracer: Tracer) -> None:
    """One tiny emotion training run, traced like a workload."""
    from cmhl import affect as A
    from cmhl import data as D
    from cmhl import encoder as E
    from cmhl import heads as H
    from cmhl import training as TR

    schema = A.AffectSchema.default()
    examples = [
        D.LabeledExample(text=text, emotion=e, valence=schema.derive_valence(e),
                         intensity=schema.derive_intensity(e))
        for e, text in enumerate(["glad sun", "dark rain falls", "warm hug", "loud door", "cold night", "oh wow"])
    ]
    vocab = D.build_vocab(examples, 1)
    config = E.EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, max_positions=16, dropout=0.1)
    model = H.EmotionModel.build(config, len(vocab), schema, A.LossWeights(), seed=1)
    tracer.mark_loop_start()
    TR.train(model, vocab, examples, TR.TrainConfig(batch_size=2, grad_accumulation_steps=1, epochs=1,
                                                    warmup=0, max_seq_len=16, seed=1),
             validation=examples[:2], step_callback=lambda step, params: tracer.sample_live_tensors())
    tracer.mark_loop_end()


def check_names(tracer: Tracer) -> None:
    spec = run.declared()
    layer = set(tracer.layer_metrics(1)) | {"trace.overhead_ms", "trace.overhead_frac"}
    declared_layer = {m["name"] for m in spec["per_layer"]}
    assert layer == declared_layer, (sorted(layer - declared_layer), sorted(declared_layer - layer))

    fake = {"peak_rss_mib": 1.0, "tally": {"items": 4, "busy_s": 2.0, "latencies_ms": [1.0, 3.0],
                                           "attempted": 3, "failed": 0, "report": {}}}
    e2e = run.end_to_end(fake, [0.5])
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    assert set(e2e) == declared_e2e, (sorted(e2e), sorted(declared_e2e))
    report = run.report_values("gradcheck", fake, e2e)
    assert set(report) == {name for name, _ in run.REPORT_NAMES}, sorted(report)


def check_self_times(tracer: Tracer) -> None:
    # a hand-built tree first: outer(inner, inner) with known sleeps
    toy = Tracer("toy")
    inner = toy.wrap("toy.inner", lambda: time.sleep(0.002))
    outer = toy.wrap("toy.outer", lambda: (time.sleep(0.003), inner(), inner()))
    outer()
    self_s = toy.self_times()
    assert toy.parents == [-1, 0, 0], toy.parents
    assert self_s[0] >= 0.003 and all(s >= 0.002 for s in self_s[1:]), self_s

    for trace in (toy, tracer):
        self_s = trace.self_times()
        assert min(self_s) >= -1e-12, min(self_s)
        subtree = list(self_s)
        for i in reversed(range(len(self_s))):  # children start after parents
            if trace.parents[i] >= 0:
                subtree[trace.parents[i]] += subtree[i]
        for i, parent in enumerate(trace.parents):
            if parent < 0:
                duration = trace.ends[i] - trace.starts[i]
                assert abs(subtree[i] - duration) <= 1e-9 * max(1.0, duration), (i, subtree[i], duration)


def check_pad_fraction() -> None:
    from cmhl import data as D

    tracer = Tracer("pad")
    tracer.install()
    try:
        examples = [D.LabeledExample(text="a b c", emotion=0), D.LabeledExample(text="a", emotion=1)]
        vocab = D.build_vocab(examples, 1)
        # rows: [CLS a b c PAD] and [CLS a PAD PAD PAD] -> 4 of 10 positions padded
        D.encode_batch(examples, vocab, 5)
    finally:
        tracer.uninstall()
    value = tracer.layer_metrics(1)["data.pad_fraction"]
    assert value == 0.4, value


def main() -> int:
    tracer = Tracer("selftest")
    tracer.install()
    try:
        toy_training(tracer)
    finally:
        tracer.uninstall()
    assert tracer.starts, "the toy run recorded no spans"
    for check in (lambda: check_names(tracer), lambda: check_self_times(tracer), check_pad_fraction):
        check()
    print("perfbench selftest: metric names declared, self times consistent, pad fraction exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
