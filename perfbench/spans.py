"""Spans around the calls into each ``cmhl`` module, and the per-layer metrics
derived from them.

The tracer wraps public names where their callers look them up: every
``cmhl`` module attribute (and class attribute) that is the original object
is replaced by a timing wrapper, so ``T.matmul`` inside the encoder and
``matmul`` inside ``Tensor.__matmul__`` both land in the span
``tensor.matmul``. Nothing under ``src/`` changes. Spans live in memory as
(name, start, end, parent) records and are written out when the run ends.

``Tensor.__init__`` is wrapped for counting only: a span per tensor would
dominate the traced run.
"""

from __future__ import annotations

import gc
import gzip
import math
import sys
import time
from collections import defaultdict

# (module, owner, attribute, span name). ``owner`` is None for module-level
# functions, else the class whose attribute is wrapped.
FUNCTIONS = (
    ("cmhl.tensor", None, "matmul", "tensor.matmul"),
    ("cmhl.tensor", None, "softmax", "tensor.softmax"),
    ("cmhl.tensor", None, "layer_norm", "tensor.layer_norm"),
    ("cmhl.tensor", None, "gelu", "tensor.gelu"),
    ("cmhl.tensor", None, "dropout", "tensor.dropout"),
    ("cmhl.tensor", None, "embedding", "tensor.embedding"),
    ("cmhl.tensor", None, "cross_entropy", "tensor.cross_entropy"),
    ("cmhl.tensor", None, "backward", "tensor.backward"),
    ("cmhl.tensor", None, "finite_diff_check", "tensor.finite_diff_check"),
    ("cmhl.data", None, "tokenize", "data.tokenize"),
    ("cmhl.data", None, "encode_batch", "data.encode_batch"),
    ("cmhl.data", None, "augment", "data.augment"),
    ("cmhl.data", None, "load_corpus", "data.load_corpus"),
    ("cmhl.data", None, "load_mh_corpus", "data.load_mh_corpus"),
    ("cmhl.data", None, "build_vocab", "data.build_vocab"),
    ("cmhl.affect", "AffectSchema", "build", "affect.build"),
    ("cmhl.encoder", "Encoder", "embed", "encoder.embed"),
    ("cmhl.encoder", "Encoder", "encode", "encoder.encode"),
    ("cmhl.heads", None, "emotion_heads_forward", "heads.forward"),
    ("cmhl.heads", None, "total_loss", "heads.total_loss"),
    ("cmhl.heads", None, "exclusivity_loss", "heads.exclusivity_loss"),
    ("cmhl.mh", None, "mh_heads_forward", "mh.heads_forward"),
    ("cmhl.mh", None, "gate_weights", "mh.gate_weights"),
    ("cmhl.mh", None, "gated_fusion_product", "mh.gated_fusion_product"),
    ("cmhl.mh", None, "final_prediction", "mh.final_prediction"),
    ("cmhl.mh", None, "mh_loss", "mh.loss"),
    ("cmhl.training", "AdamW", "step", "training.adamw"),
    ("cmhl.training", None, "predict", "training.predict"),
    ("cmhl.training", None, "evaluate", "training.evaluate"),
    ("cmhl.training", None, "save_checkpoint", "training.save_checkpoint"),
    ("cmhl.training", None, "load_checkpoint", "training.load_checkpoint"),
    ("cmhl.training", None, "model_from_checkpoint", "training.model_from_checkpoint"),
    ("cmhl.diagnostics", None, "run_gradcheck", "diagnostics.run_gradcheck"),
    ("cmhl.cli", None, "main", "cli.main"),
)

MODULES = ("tensor", "data", "affect", "encoder", "heads", "mh", "training", "diagnostics", "cli")

# per-layer metric -> span names whose inclusive time it sums
TIME_METRICS = {
    "tensor.backward_s": ("tensor.backward",),
    "tensor.matmul_s": ("tensor.matmul",),
    "tensor.softmax_s": ("tensor.softmax",),
    "tensor.layer_norm_s": ("tensor.layer_norm",),
    "tensor.gelu_s": ("tensor.gelu",),
    "tensor.dropout_s": ("tensor.dropout",),
    "tensor.embedding_s": ("tensor.embedding",),
    "tensor.cross_entropy_s": ("tensor.cross_entropy",),
    "tensor.finite_diff_check_s": ("tensor.finite_diff_check",),
    "data.tokenize_s": ("data.tokenize",),
    "data.encode_batch_s": ("data.encode_batch",),
    "data.augment_s": ("data.augment",),
    "data.load_corpus_s": ("data.load_corpus", "data.load_mh_corpus"),
    "data.build_vocab_s": ("data.build_vocab",),
    "affect.build_s": ("affect.build",),
    "encoder.embed_s": ("encoder.embed",),
    "encoder.encode_s": ("encoder.encode",),
    "heads.forward_s": ("heads.forward",),
    "heads.total_loss_s": ("heads.total_loss",),
    "heads.exclusivity_loss_s": ("heads.exclusivity_loss",),
    "mh.heads_forward_s": ("mh.heads_forward",),
    "mh.gate_s": ("mh.gate_weights", "mh.gated_fusion_product"),
    "mh.final_s": ("mh.final_prediction",),
    "mh.loss_s": ("mh.loss",),
    "training.adamw_s": ("training.adamw",),
    "training.predict_s": ("training.predict",),
    "training.evaluate_s": ("training.evaluate",),
    "training.save_checkpoint_s": ("training.save_checkpoint",),
    "training.load_checkpoint_s": ("training.load_checkpoint",),
    "training.model_from_checkpoint_s": ("training.model_from_checkpoint",),
    "diagnostics.run_gradcheck_s": ("diagnostics.run_gradcheck",),
    "cli.main_s": ("cli.main",),
}

CALL_METRICS = {
    "tensor.matmul_calls": "tensor.matmul",
    "tensor.finite_diff_check_calls": "tensor.finite_diff_check",
    "data.tokenize_calls": "data.tokenize",
}

# counters kept by the wrappers themselves
COUNTERS = (
    "tensor.nodes",
    "tensor.eval_grad_nodes",
    "data.rejected_lines",
    "training.nonfinite_steps",
    "diagnostics.rows",
    "diagnostics.rows_failed",
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {name: "s" for name in TIME_METRICS}
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update({name: "count" for name in CALL_METRICS})
    units.update({name: "count" for name in COUNTERS})
    units.update({
        "data.pad_fraction": "ratio",
        "tensor.live_mib_max": "MiB",
        "trace.spans": "count",
        "trace.overhead_ms": "ms",
        "trace.overhead_frac": "ratio",
    })
    return units


class Tracer:
    """In-memory span recorder.

    Spans are stored in start order; ``parents[i]`` is the index of the span
    that was open when span ``i`` started, or -1.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        # padded and total positions of every encoded batch ride along
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS + ("padded", "positions"), 0)
        self.live_mib_max = 0.0
        self.predict_depth = 0
        self.loop_start, self.loop_end = float("-inf"), float("inf")
        self.setup_counts = dict(self.counts)
        self.loop_counts: dict[str, int] | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs outside the span."""
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def mark_loop_start(self) -> None:
        """Spans and counts from here on belong to the timed loop."""
        self.loop_start = time.perf_counter()
        self.setup_counts = dict(self.counts)

    def mark_loop_end(self) -> None:
        """Spans and counts from here on (correctness checks) are left out."""
        self.loop_end = time.perf_counter()
        self.loop_counts = dict(self.counts)

    def sample_live_tensors(self) -> None:
        """Largest .data + .grad MiB held by live tensors, without collecting."""
        from cmhl.tensor import Tensor

        total = 0
        for obj in gc.get_objects():
            if type(obj) is Tensor:
                total += obj.data.nbytes
                if obj.grad is not None:
                    total += obj.grad.nbytes
        self.live_mib_max = max(self.live_mib_max, total / 2**20)

    # -- installation ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapped) -> None:
        # the benchmark's own files call through module attributes, so only
        # the program's modules hold direct references
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cmhl" or mod_name.startswith("cmhl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced name; the ``cmhl`` modules must be imported."""
        import cmhl.cli  # noqa: F401  (imports every traced module)
        from cmhl.tensor import Tensor

        counts = self.counts
        hooks = {
            "data.encode_batch": self._count_padding,
            "data.load_corpus": self._count_rejected,
            "data.load_mh_corpus": self._count_rejected,
            "heads.total_loss": self._count_nonfinite,
            "mh.loss": self._count_nonfinite,
            "diagnostics.run_gradcheck": self._count_rows,
        }
        for module_name, owner_name, attr, span in FUNCTIONS:
            module = sys.modules[module_name]
            if owner_name is None:
                original = getattr(module, attr)
                wrapped = self.wrap(span, original, hooks.get(span))
                if span == "training.predict":
                    wrapped = self._mark_predict(wrapped)
                self._replace_everywhere(original, wrapped)
            else:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                self._restore.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(span, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(span, raw))

        original_init = Tensor.__init__

        def counted_init(tensor, data, requires_grad=False, _parents=(), op="leaf"):
            original_init(tensor, data, requires_grad, _parents, op)
            counts["tensor.nodes"] += 1
            if requires_grad and self.predict_depth:
                counts["tensor.eval_grad_nodes"] += 1

        self._restore.append((Tensor, "__init__", original_init))
        Tensor.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _mark_predict(self, fn):
        def predict(*args, **kwargs):
            self.predict_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.predict_depth -= 1

        predict.__name__ = fn.__name__
        predict.__doc__ = fn.__doc__
        return predict

    def _count_padding(self, args, batch) -> None:
        mask = batch.attention_mask
        self.counts["positions"] += int(mask.size)
        self.counts["padded"] += int(mask.size - mask.sum())

    def _count_rejected(self, args, result) -> None:
        self.counts["data.rejected_lines"] += len(result[1])

    def _count_nonfinite(self, args, loss) -> None:
        # the training loop raises on a non-finite loss before backward runs,
        # so the losses are checked where the objectives return them
        if not math.isfinite(float(loss.data)):
            self.counts["training.nonfinite_steps"] += 1

    def _count_rows(self, args, rows) -> None:
        self.counts["diagnostics.rows"] += len(rows)
        self.counts["diagnostics.rows_failed"] += sum(not r.passed for r in rows)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.starts))]

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer metrics for one unit of work.

        Spans and counts from before ``mark_loop_start`` belong to set-up and
        count once. Those of the timed loop are divided by ``units``, the
        number of whole operations it ran (training runs, eval calls or
        gradcheck calls), so that the numbers do not grow when the program
        gets faster and fits more work into a run. Those after
        ``mark_loop_end`` (correctness checks) are left out.
        """
        units = max(units, 1)
        incl = (defaultdict(float), defaultdict(float))
        calls = (defaultdict(int), defaultdict(int))
        own = (defaultdict(float), defaultdict(float))
        for i, self_s in enumerate(self.self_times()):
            if self.starts[i] >= self.loop_end:
                continue
            phase = int(self.starts[i] >= self.loop_start)
            name = self.names[i]
            incl[phase][name] += self.ends[i] - self.starts[i]
            calls[phase][name] += 1
            own[phase][name.split(".", 1)[0]] += self_s

        def per_unit(pair, key):
            return pair[0][key] + pair[1][key] / units

        setup, end = self.setup_counts, self.loop_counts or self.counts
        counts = {n: setup[n] + (end[n] - setup[n]) / units for n in end}
        out = {metric: sum(per_unit(incl, s) for s in spans) for metric, spans in TIME_METRICS.items()}
        out.update({f"{m}.self_s": per_unit(own, m) for m in MODULES})
        out.update({metric: per_unit(calls, span) for metric, span in CALL_METRICS.items()})
        out.update({n: counts[n] for n in COUNTERS})
        out["data.pad_fraction"] = end["padded"] / end["positions"] if end["positions"] else 0.0
        out["tensor.live_mib_max"] = self.live_mib_max
        out["trace.spans"] = sum(calls[0].values()) + sum(calls[1].values()) / units
        return out

    def write(self, path) -> None:
        """Spans as gzip CSV: run id, span index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("run_id,span,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                handle.write(
                    f"{self.run_id},{i},{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n"
                )
