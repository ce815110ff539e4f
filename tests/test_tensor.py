"""Core tensor and autodiff behavior: closed-form values, linearity, finite differences."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from cmhl import tensor as T
from cmhl.errors import DataError, DeterminismError, NumericError, ShapeError


class TestSoftmax:
    def test_identical_logits_give_uniform(self):
        out = T.softmax(T.tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_two_logit_closed_form(self):
        # e/(e+1) and 1/(e+1)
        out = T.softmax(T.tensor([[1.0, 0.0]]))
        np.testing.assert_allclose(
            out.data, [[0.7310585786300049, 0.2689414213699951]], atol=1e-12
        )

    def test_large_logits_do_not_overflow(self):
        out = T.softmax(T.tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(7)
        logits = rng.uniform(-50.0, 50.0, size=(1000, 6))
        out = T.softmax(T.tensor(logits))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_entries_strictly_inside_unit_interval(self):
        # logit gaps < 36 keep entries representable strictly inside (0, 1)
        rng = np.random.default_rng(8)
        out = T.softmax(T.tensor(rng.uniform(-15.0, 15.0, size=(1000, 6))))
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            T.softmax(T.tensor([[np.nan, 0.0]]))


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        logits = T.tensor([[30.0, 0.0, 0.0]])
        assert T.cross_entropy(logits, [0]).item() == pytest.approx(0.0, abs=1e-11)

    def test_uniform_six_classes(self):
        logits = T.tensor([[0.7] * 6])
        assert T.cross_entropy(logits, [3]).item() == pytest.approx(math.log(6.0), abs=1e-12)

    def test_mean_of_two_rows(self):
        logits = T.tensor([[1000.0, 0.0], [2.5, 2.5]])
        # losses 0 and ln 2, mean = 0.34657...
        assert T.cross_entropy(logits, [0, 0]).item() == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12
        )

    def test_nonnegative_and_exact_single_row(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.normal(scale=3.0, size=(1, 4))
            label = int(rng.integers(0, 4))
            loss = T.cross_entropy(T.tensor(z), [label]).item()
            assert loss >= 0.0
            assert loss == pytest.approx(-math.log(softmax_rows(z)[0, label]), rel=1e-12)

    def test_matches_log_softmax_up_to_large_gaps(self):
        """Each row gives -ln softmax(z)[label] wherever that probability is a
        normal float, and a finite loss between the gap and the gap + ln k
        where it underflows (logit gaps up to 2e3)."""
        rng = np.random.default_rng(12)
        for _ in range(300):
            z = rng.uniform(-1.0, 1.0, size=(1, 5)) * rng.choice([1.0, 30.0, 1e3])
            label = int(rng.integers(0, 5))
            loss = T.cross_entropy(T.tensor(z), [label]).item()
            assert math.isfinite(loss)
            p = softmax_rows(z)[0, label]
            if p > 1e-300:
                assert loss == pytest.approx(-math.log(p), rel=1e-12, abs=1e-12)
            else:
                gap = z.max() - z[0, label]
                assert gap <= loss <= gap + math.log(5)

    def test_confidently_wrong_row_keeps_its_gradient(self):
        """At a logit gap of 30 against the label the loss is the gap and the
        label logit's gradient is -1: no clamp cuts it to 0."""
        logits = T.tensor([[0.0, 30.0]], requires_grad=True)
        loss = T.cross_entropy(logits, [0])
        assert loss.item() == pytest.approx(30.0, rel=1e-12)
        T.backward(loss)
        assert logits.grad[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert logits.grad[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            T.cross_entropy(T.tensor([[0.5, 0.5]]), [2])


class TestBackward:
    def test_square_gradient(self):
        x = T.tensor(3.0, requires_grad=True)
        T.backward(x * x)
        assert x.grad == pytest.approx(6.0)

    def test_weighted_sum_linearity(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(4, 3))
        weights_a = rng.normal(size=(4, 3))
        weights_b = rng.normal(size=(4, 3))

        def grads_of(scale):
            x = T.tensor(data, requires_grad=True)
            loss1 = (x * T.tensor(weights_a)).sum()
            loss2 = ((x * x) * T.tensor(weights_b)).sum()
            T.backward(loss1 + scale * loss2)
            return x.grad.copy()

        combined = grads_of(0.4)
        g1 = grads_of(0.0)
        x = T.tensor(data, requires_grad=True)
        T.backward(((x * x) * T.tensor(weights_b)).sum())
        g2 = x.grad
        np.testing.assert_allclose(combined, g1 + 0.4 * g2, atol=1e-12)

    def test_softmax_ce_gradient_closed_form(self):
        logits = T.tensor([[1.0, 0.0]], requires_grad=True)
        T.backward(T.cross_entropy(logits, [0]))
        np.testing.assert_allclose(
            logits.grad, [[-0.2689414213699951, 0.2689414213699951]], atol=1e-12
        )

    def test_backward_rejects_non_scalar(self):
        x = T.tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            T.backward(x * 2.0)

    def test_grad_accumulates_across_calls(self):
        x = T.tensor(2.0, requires_grad=True)
        T.backward(x * x)
        T.backward(x * x)
        assert x.grad == pytest.approx(8.0)


class TestGraphLifetime:
    def test_backward_frees_interior_nodes(self):
        rng = np.random.default_rng(5)
        x = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = T.tensor(rng.normal(size=(4, 2)), requires_grad=True)
        gc.disable()
        try:
            h = T.matmul(x, w)
            act = T.gelu(h)
            loss = (act * h).sum()
            h_data = weakref.ref(h.data)
            del h
            T.backward(loss)
            assert act.grad is None
            assert loss.grad is None
            assert x.grad is not None and w.grad is not None
            del act, loss
            # no cyclic collection: reference counting alone frees the graph
            assert h_data() is None
        finally:
            gc.enable()

    def test_abandoned_graph_freed_without_collector(self):
        """A graph dropped before ``backward`` holds no reference cycle, so
        reference counting alone frees its activations."""
        rng = np.random.default_rng(6)
        x = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w, b = T.tensor(rng.normal(size=(4, 5))), T.tensor(rng.normal(size=5))
        gc.disable()
        try:
            h = T.relu(T.linear(x, w, b))
            loss = T.softmax(h).sum()
            assert loss.requires_grad
            h_data = weakref.ref(h.data)  # Tensor has __slots__ and no weakref slot
            del h, loss
            assert h_data() is None
        finally:
            gc.enable()

    def test_second_backward_on_consumed_graph_raises(self):
        x = T.tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        T.backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            T.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_backward_through_consumed_subgraph_raises(self):
        x = T.tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        T.backward(y.sum())
        with pytest.raises(RuntimeError, match="consumed"):
            T.backward((y * 3.0).sum())
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])


class TestNoGrad:
    def test_nodes_record_no_graph(self):
        x = T.tensor([[1.0, 2.0]], requires_grad=True)
        w = T.tensor([[1.0], [3.0]], requires_grad=True)
        with T.no_grad():
            outs = [x * 2.0, T.matmul(x, w), T.softmax(x), (x + x).sum()]
            leaf = T.tensor(1.0, requires_grad=True)
        for out in outs:
            assert not out.requires_grad
            assert out._backward is None
            assert out._parents == ()
        assert leaf.requires_grad
        assert (x * 2.0).requires_grad

    def test_mode_restored_after_exception(self):
        x = T.tensor(1.0, requires_grad=True)
        with pytest.raises(ValueError):
            with T.no_grad():
                raise ValueError("inside")
        assert (x * x).requires_grad

    def test_mode_restored_after_nesting(self):
        x = T.tensor(1.0, requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not (x * x).requires_grad
            assert not (x * x).requires_grad
        assert (x * x).requires_grad


class TestMatmulWeightGradient:
    """``[..., d] @ [d, k]``: the weight gradient sums the per-batch products."""

    rng = np.random.default_rng(11)

    @pytest.mark.parametrize("a_shape", [(3, 5, 4), (2, 3, 5, 4)])
    def test_matches_batched_then_summed(self, a_shape):
        a_data = self.rng.normal(size=a_shape)
        b_data = self.rng.normal(size=(4, 2))
        upstream = self.rng.normal(size=a_shape[:-1] + (2,))
        a = T.tensor(a_data, requires_grad=True)
        b = T.tensor(b_data, requires_grad=True)
        T.backward((T.matmul(a, b) * T.tensor(upstream)).sum())
        batched = np.matmul(a_data.swapaxes(-1, -2), upstream)
        np.testing.assert_allclose(b.grad, batched.reshape(-1, 4, 2).sum(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.grad, np.matmul(upstream, b_data.T), rtol=0, atol=1e-12)

    def test_finite_differences_both_operands(self):
        a = T.tensor(self.rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = T.tensor(self.rng.normal(size=(4, 2)), requires_grad=True)
        w = T.tensor(self.rng.normal(size=(2, 3, 2)))
        _check(lambda t: (T.matmul(t, b) * w).sum(), a)
        _check(lambda t: (T.matmul(a, t) * w).sum(), b)

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 4), (2, 4, 2)), ((2, 3, 4), (1, 4, 2))])
    def test_broadcast_weight_takes_general_path(self, a_shape, b_shape):
        a = T.tensor(self.rng.normal(size=a_shape), requires_grad=True)
        b = T.tensor(self.rng.normal(size=b_shape), requires_grad=True)
        w = T.tensor(self.rng.normal(size=np.broadcast_shapes(a_shape[:-1] + (2,), b_shape[:-2] + (1, 2))))
        _check(lambda t: (T.matmul(t, b) * w).sum(), a)
        _check(lambda t: (T.matmul(a, t) * w).sum(), b)
        assert b.grad.shape == b_shape


def _grads(build, inputs, upstream):
    """Value of ``build(*inputs)`` and the gradient of ``sum(out * upstream)``
    with respect to each input (None for inputs without requires_grad)."""
    out = build(*inputs)
    value = out.data.copy()
    T.backward((out * T.tensor(upstream)).sum())
    return value, [t.grad for t in inputs]


def _fresh(arrays, requires):
    return [T.tensor(a, requires_grad=r) for a, r in zip(arrays, requires)]


class TestLinear:
    """``linear`` equals the unfused ``matmul(x, w) + b`` composition."""

    rng = np.random.default_rng(12)

    @pytest.mark.parametrize("min_macs", [0, 1 << 62], ids=["2d_gemm", "stacked"])
    @pytest.mark.parametrize("x_shape", [(5, 4), (3, 5, 4)])
    def test_matches_matmul_plus_bias(self, x_shape, min_macs, monkeypatch):
        monkeypatch.setattr(T, "_GEMM_2D_MIN_MACS", min_macs)
        arrays = [self.rng.normal(size=x_shape), self.rng.normal(size=(4, 3)), self.rng.normal(size=3)]
        upstream = self.rng.normal(size=x_shape[:-1] + (3,))
        fused = _grads(T.linear, _fresh(arrays, [True] * 3), upstream)
        unfused = _grads(lambda x, w, b: T.matmul(x, w) + b, _fresh(arrays, [True] * 3), upstream)
        np.testing.assert_allclose(fused[0], unfused[0], rtol=0, atol=1e-12)
        for got, want in zip(fused[1], unfused[1]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_finite_differences_every_input(self):
        x, w, b = _fresh([self.rng.normal(size=(2, 3, 4)), self.rng.normal(size=(4, 2)),
                          self.rng.normal(size=2)], [True] * 3)
        up = T.tensor(self.rng.normal(size=(2, 3, 2)))
        _check(lambda t: (T.linear(t, w, b) * up).sum(), x)
        _check(lambda t: (T.linear(x, t, b) * up).sum(), w)
        _check(lambda t: (T.linear(x, w, t) * up).sum(), b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.linear(T.ones(2, 3), T.ones(4, 2), T.ones(2))
        with pytest.raises(ShapeError):
            T.linear(T.ones(2, 4), T.ones(4, 2), T.ones(3))


def _unfused_attention(q, k, v, mask_add, heads):
    """The reshape / swapaxes / matmul / softmax composition ``attention`` fuses."""
    batch, n, d = q.shape
    dk = d // heads

    def split(t):
        return t.reshape(batch, n, heads, dk).swapaxes(1, 2)

    scores = T.matmul(split(q), split(k).swapaxes(-1, -2)) * (1.0 / np.sqrt(dk))
    probs = T.softmax(scores + T.tensor(mask_add.reshape(batch, 1, 1, n)))
    return T.matmul(probs, split(v)).swapaxes(1, 2).reshape(batch, n, d)


class TestAttention:
    """``attention`` equals the unfused composition, values and gradients."""

    rng = np.random.default_rng(13)
    # row 1 pads its last two keys, row 2 pads one
    mask_add = (np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]], dtype=np.float64) - 1.0) * 1e9

    def _qkv(self):
        return [self.rng.normal(size=(3, 4, 6)) for _ in range(3)]

    @pytest.mark.parametrize(
        "requires", [(True, True, True), (True, False, False), (False, True, False), (False, False, True)]
    )
    def test_matches_unfused_composition(self, requires):
        arrays = self._qkv()
        upstream = self.rng.normal(size=(3, 4, 6))
        fused = _grads(lambda q, k, v: T.attention(q, k, v, self.mask_add, 2), _fresh(arrays, requires), upstream)
        unfused = _grads(
            lambda q, k, v: _unfused_attention(q, k, v, self.mask_add, 2), _fresh(arrays, requires), upstream
        )
        np.testing.assert_allclose(fused[0], unfused[0], rtol=0, atol=1e-12)
        for got, want, needed in zip(fused[1], unfused[1], requires):
            if needed:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            else:
                assert got is None and want is None

    def test_finite_differences_every_input(self):
        q, k, v = _fresh(self._qkv(), [True] * 3)
        up = T.tensor(self.rng.normal(size=(3, 4, 6)))
        _check(lambda t: (T.attention(t, k, v, self.mask_add, 3) * up).sum(), q)
        _check(lambda t: (T.attention(q, t, v, self.mask_add, 3) * up).sum(), k)
        _check(lambda t: (T.attention(q, k, t, self.mask_add, 3) * up).sum(), v)

    def test_one_query_equals_row_zero_of_all_queries(self):
        q, k, v = self._qkv()
        full = T.attention(T.tensor(q), T.tensor(k), T.tensor(v), self.mask_add, 2).data
        first = T.attention(T.tensor(q[:, :1]), T.tensor(k), T.tensor(v), self.mask_add, 2)
        assert first.shape == (3, 1, 6)
        np.testing.assert_allclose(first.data, full[:, :1], rtol=0, atol=1e-15)

    def test_finite_differences_one_query_over_four_keys(self):
        # m = 1, n = 4; rows 1 and 2 of the batch pad some keys
        q, k, v = _fresh([self.rng.normal(size=(3, m, 6)) for m in (1, 4, 4)], [True] * 3)
        up = T.tensor(self.rng.normal(size=(3, 1, 6)))
        _check(lambda t: (T.attention(t, k, v, self.mask_add, 3) * up).sum(), q)
        _check(lambda t: (T.attention(q, t, v, self.mask_add, 3) * up).sum(), k)
        _check(lambda t: (T.attention(q, k, t, self.mask_add, 3) * up).sum(), v)
        assert q.grad.shape == (3, 1, 6) and k.grad.shape == v.grad.shape == (3, 4, 6)

    def test_nonfinite_scores_rejected(self):
        q, k, v = self._qkv()
        q[0, 1, 2] = np.inf
        with pytest.raises(NumericError, match="non-finite logits"):
            T.attention(T.tensor(q), T.tensor(k), T.tensor(v), self.mask_add, 2)

    def test_shape_mismatch_rejected(self):
        q, k, v = self._qkv()
        with pytest.raises(ShapeError):
            T.attention(T.tensor(q), T.tensor(k), T.tensor(v), self.mask_add, 4)
        with pytest.raises(ShapeError):
            T.attention(T.tensor(q), T.tensor(k), T.tensor(v), self.mask_add[:2], 2)
        with pytest.raises(ShapeError):  # keys and values of different lengths
            T.attention(T.tensor(q[:, :1]), T.tensor(k), T.tensor(v[:, :3]), self.mask_add, 2)
        with pytest.raises(ShapeError):  # a mask over the 1 query, not the 4 keys
            T.attention(T.tensor(q[:, :1]), T.tensor(k), T.tensor(v), self.mask_add[:, :1], 2)
        with pytest.raises(ShapeError):  # queries of another width than the keys
            T.attention(T.tensor(q[..., :4]), T.tensor(k), T.tensor(v), self.mask_add, 2)


class TestGradientOwnership:
    """First gradient contributions are adopted or copied, never shared."""

    rng = np.random.default_rng(14)

    def _leaves(self):
        shapes = {"x": (2, 3), "a": (2, 3), "b": (2, 3), "p": (2, 3), "r": (6,), "h": (4, 3), "w": (3, 2),
                  "bias": (2,), "s": ()}
        return {name: T.tensor(self.rng.normal(size=s), requires_grad=True) for name, s in shapes.items()}

    @staticmethod
    def _loss(t, c):
        """x + x; a + b of equal shapes; an interior node plus a leaf where the
        interior node feeds a second consumer; a reshape and a linear input
        that each feed two consumers; a 0-d leaf."""
        pb = t["p"] * c[0]
        loss = ((t["x"] + t["x"]) * c[1]).sum()
        loss = loss + ((t["a"] + t["b"]) * c[2]).sum()
        loss = loss + ((pb + t["b"]) * c[3]).sum() + (pb * c[4]).sum()
        shaped = t["r"].reshape(2, 3)
        loss = loss + (shaped * c[5]).sum() + (shaped * shaped).sum()
        loss = loss + (T.linear(t["h"], t["w"], t["bias"]) * c[6]).sum() + (t["h"] * t["h"]).sum()
        return loss + T.softplus(t["s"]) * c[7]

    def _run(self, leaves, micro_batches):
        for consts in micro_batches:
            T.backward(self._loss(leaves, [T.tensor(a) for a in consts]))
        return {name: t.grad for name, t in leaves.items()}

    def test_no_shared_buffers_and_zero_fill_values(self, monkeypatch):
        shapes = [(2, 3)] * 6 + [(4, 2), ()]
        micro_batches = [[self.rng.normal(size=s) for s in shapes] for _ in range(2)]
        leaves = self._leaves()
        start = {name: t.data.copy() for name, t in leaves.items()}
        grads = self._run(leaves, micro_batches)
        names = sorted(grads)
        assert all(type(g) is np.ndarray for g in grads.values())
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                assert not np.shares_memory(grads[first], grads[second]), (first, second)

        def zero_fill(tensor, g, owned):
            if tensor.grad is None:
                tensor.grad = np.zeros_like(tensor.data)
            tensor.grad += g

        monkeypatch.setattr(T.Tensor, "_accumulate", zero_fill)
        reference = {name: T.tensor(data, requires_grad=True) for name, data in start.items()}
        expected = self._run(reference, micro_batches)
        for name in names:
            np.testing.assert_array_equal(grads[name], expected[name], err_msg=name)
        # leaf gradients sum over the two micro-batches
        first, second = (
            self._run({name: T.tensor(d, requires_grad=True) for name, d in start.items()}, [consts])
            for consts in micro_batches
        )
        for name in names:
            np.testing.assert_allclose(grads[name], first[name] + second[name], rtol=0, atol=1e-12)


class TestComputationRecord:
    """The order ``backward`` walks in reverse records the computation."""

    def test_inputs_precede_consumers(self):
        x = T.tensor([[1.0, 2.0]], requires_grad=True)
        y = T.softmax(x * 2.0 + 1.0)
        order = T._topo_order(y.sum())
        position = {id(node): i for i, node in enumerate(order)}
        assert len(position) == len(order) == 7  # x, 2.0, mul, 1.0, add, softmax, sum
        for node in order:
            assert all(position[id(p)] < position[id(node)] for p in node._parents)

    def test_ops_named(self):
        x = T.tensor([[1.0, 2.0]], requires_grad=True)
        assert [node.op for node in T._topo_order(T.relu(x).sum())] == ["leaf", "relu", "sum"]


class TestFiniteDiffCheck:
    def test_square_function(self):
        err = T.finite_diff_check(lambda t: t * t, T.tensor(3.0))
        assert err < 1e-8

    def test_nondeterministic_fn_detected(self):
        rng = np.random.default_rng(0)

        def noisy(t):
            return t * float(rng.random())

        with pytest.raises(DeterminismError):
            T.finite_diff_check(noisy, T.tensor(1.0))

    def test_grad_offset_hook_breaks_check(self):
        err = T.finite_diff_check(lambda t: t * t, T.tensor(3.0), grad_offset=1.0)
        assert err > 1e-4


def _check(fn, point, tol=1e-4):
    err = T.finite_diff_check(fn, point)
    assert err < tol, f"finite-difference error {err:.3e}"


class TestPrimitiveGradients:
    """Every primitive matches central differences on random small shapes."""

    rng = np.random.default_rng(42)

    def test_matmul(self):
        a = T.tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        b = self.rng.normal(size=(4, 2))
        w = self.rng.normal(size=(3, 2))
        _check(lambda t: (T.matmul(t, T.tensor(b)) * T.tensor(w)).sum(), a)

    def test_matmul_batched(self):
        a = T.tensor(self.rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = self.rng.normal(size=(2, 4, 3))
        _check(lambda t: T.matmul(t, T.tensor(b)).sum(), a)

    def test_add_broadcast_bias(self):
        bias = T.tensor(self.rng.normal(size=4), requires_grad=True)
        x = self.rng.normal(size=(3, 4))
        w = self.rng.normal(size=(3, 4))
        _check(lambda t: ((T.tensor(x) + t) * T.tensor(w)).sum(), bias)

    def test_elementwise_product(self):
        a = T.tensor(self.rng.normal(size=(2, 5)), requires_grad=True)
        b = self.rng.normal(size=(2, 5))
        _check(lambda t: (t * T.tensor(b) * t).sum(), a)

    def test_layer_norm_all_inputs(self):
        x = T.tensor(self.rng.normal(size=(2, 3, 6)), requires_grad=True)
        gain = T.tensor(self.rng.normal(1.0, 0.1, size=6), requires_grad=True)
        bias = T.tensor(self.rng.normal(size=6), requires_grad=True)
        w = self.rng.normal(size=(2, 3, 6))
        _check(lambda t: (T.layer_norm(t, gain, bias) * T.tensor(w)).sum(), x)
        _check(lambda t: (T.layer_norm(x, t, bias) * T.tensor(w)).sum(), gain)
        _check(lambda t: (T.layer_norm(x, gain, t) * T.tensor(w)).sum(), bias)

    def test_gelu(self):
        x = T.tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        _check(lambda t: T.gelu(t).sum(), x)

    def test_relu(self):
        # offset away from the kink where central differences are invalid
        x = T.tensor(self.rng.normal(size=(4, 3)) + 0.5, requires_grad=True)
        w = T.tensor(self.rng.normal(size=(4, 3)))
        _check(lambda t: (T.relu(t) * w).sum(), x)

    def test_softplus(self):
        x = T.tensor(self.rng.normal(size=(3, 3)), requires_grad=True)
        _check(lambda t: T.softplus(t).sum(), x)

    def test_softmax_through_weights(self):
        x = T.tensor(self.rng.normal(size=(3, 5)), requires_grad=True)
        w = self.rng.normal(size=(3, 5))
        _check(lambda t: (T.softmax(t) * T.tensor(w)).sum(), x)

    def test_embedding(self):
        table = T.tensor(self.rng.normal(size=(7, 4)), requires_grad=True)
        ids = np.array([[0, 3, 3], [6, 1, 0]])
        w = self.rng.normal(size=(2, 3, 4))
        _check(lambda t: (T.embedding(t, ids) * T.tensor(w)).sum(), table)

    def test_dropout_eval_is_identity(self):
        x = T.tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        rng = np.random.default_rng(0)
        out = T.dropout(x, 0.5, rng, training=False)
        assert out is x
        _check(lambda t: T.dropout(t, 0.5, rng, training=False).sum(), x)

    def test_dropout_train_gradient(self):
        x = T.tensor(self.rng.normal(size=(5, 5)), requires_grad=True)

        def fn(t):
            return T.dropout(t, 0.4, np.random.default_rng(123), training=True).sum()

        _check(fn, x)

    def test_concat(self):
        a = T.tensor(self.rng.normal(size=(2, 3)), requires_grad=True)
        b = self.rng.normal(size=(2, 2))
        w = self.rng.normal(size=(2, 5))
        _check(lambda t: (T.concat([t, T.tensor(b)]) * T.tensor(w)).sum(), a)

    def test_gather(self):
        x = T.tensor(self.rng.normal(size=(3, 6)), requires_grad=True)
        _check(lambda t: T.gather(t, [1, 4, 4], axis=-1).sum(), x)

    def test_cross_entropy_logits(self):
        logits = T.tensor(self.rng.normal(scale=3.0, size=(3, 4)), requires_grad=True)
        _check(lambda t: T.cross_entropy(t, [0, 2, 1]), logits)

    def test_mean_and_sum_axes(self):
        x = T.tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        w = T.tensor(self.rng.normal(size=4))
        _check(lambda t: t.mean(), x)
        _check(lambda t: (t.sum(axis=0) * w).sum(), x)

    def test_reshape_swapaxes(self):
        x = T.tensor(self.rng.normal(size=(2, 6)), requires_grad=True)
        w = self.rng.normal(size=(3, 2, 2))
        _check(lambda t: (t.reshape(2, 3, 2).swapaxes(0, 1) * T.tensor(w)).sum(), x)


class TestErf:
    """The owned Cephes erf behind ``T.gelu``, checked against ``math.erf``."""

    rng = np.random.default_rng(7)

    @staticmethod
    def reference(x):
        return np.array([math.erf(v) for v in np.ravel(x)]).reshape(np.shape(x))

    @pytest.mark.parametrize("scale", [None, 0.3, 1.0, 2.0, 5.0])
    def test_within_3_ulp_of_math_erf(self, scale):
        x = np.linspace(-7.0, 7.0, 28001) if scale is None else self.rng.normal(0.0, scale, 20000)
        want = self.reference(x)
        ulps = np.abs(T._erf(x) - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 3.0

    def test_exact_values_without_warnings(self):
        one = float.fromhex("0x1.af767a741088ap-1")  # Cephes' erf(1); math.erf(1) is one ulp above
        cases = [  # a list, since 0.0 and -0.0 are one dict key
            (0.0, 0.0), (-0.0, -0.0), (1.0, one), (-1.0, -one),
            (float(np.nextafter(1.0, 2.0)), float.fromhex("0x1.af767a741088cp-1")),
            (float(np.nextafter(1.0, 0.0)), one),
            (6.0, 1.0), (-6.0, -1.0), (8.0, 1.0), (-8.0, -1.0), (1e300, 1.0), (-1e300, -1.0),
            (math.inf, 1.0), (-math.inf, -1.0),
            (1e-310, math.erf(1e-310)),  # subnormal in and out
        ]
        x = np.array([v for v, _ in cases] + [math.nan])
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T._erf(x)
        assert [v.hex() for v in got[:-1].tolist()] == [want.hex() for _, want in cases]
        assert math.isnan(got[-1])

    def test_odd_bitwise(self):
        x = np.concatenate([self.rng.normal(0.0, 3.0, 5000), [0.0, 1.0, 6.0, 1e300, math.inf]])
        assert T._erf(-x).tobytes() == (-T._erf(x)).tobytes()

    def test_independent_of_blocks(self):
        """An array longer than one block equals its two halves computed apart; the shape is kept."""
        x = self.rng.normal(0.0, 2.0, (3, T._ERF_BLOCK))
        half = x.size // 2 + 5  # off any block boundary
        flat = x.reshape(-1)
        got = T._erf(x)
        assert got.shape == x.shape
        assert got.tobytes() == np.concatenate([T._erf(flat[:half]), T._erf(flat[half:])]).tobytes()

    def test_gelu_forward_matches_math_erf(self):
        """Within 1e-15 relative to |x|: for x far below 0, 1 + erf cancels, so both keep only erf's absolute error."""
        x = np.concatenate([np.linspace(-8.0, 8.0, 4001), self.rng.normal(0.0, 2.0, 4000)])
        want = x * 0.5 * (1.0 + self.reference(x / math.sqrt(2.0)))
        got = T.gelu(T.tensor(x)).data
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(x))


class TestLayerNormReference:
    def test_forward_equals_mean_var_formula(self):
        """The direct reductions give bit for bit what ``np.mean`` and ``np.var`` give."""
        rng = np.random.default_rng(3)
        x, gain, bias = rng.normal(2.0, 3.0, (4, 5, 24)), rng.normal(1.0, 0.1, 24), rng.normal(size=24)
        mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        want = (x - mu) * (1.0 / np.sqrt(var + T.LAYERNORM_EPS)) * gain + bias
        got = T.layer_norm(T.tensor(x), T.tensor(gain), T.tensor(bias)).data
        assert got.tobytes() == want.tobytes()


class TestGather:
    """``gather`` is the only read by integer index: embedding rows, the CLS
    position, the exclusivity pairs and the gate's block repeat."""

    rng = np.random.default_rng(15)

    @pytest.mark.parametrize(
        "shape,indices,axis",
        [
            ((5, 3), [4, 0, 4, 2, 4], 0),  # repeated rows
            ((3, 2), [0, 0, 0, 0, 1, 1, 1], -1),  # the gate's block repeat
            ((2, 4, 3), 0, 1),  # the CLS position: a 0-d index drops the axis
            ((6, 2), [[1, 5, 1], [5, 5, 0]], 0),  # a 2-D index array, as in embedding
        ],
        ids=["repeated_rows", "block_repeat", "cls_position", "index_array"],
    )
    def test_repeated_indices_match_finite_differences(self, shape, indices, axis):
        x = T.tensor(self.rng.normal(size=shape), requires_grad=True)
        w = T.tensor(self.rng.normal(size=np.take(x.data, indices, axis=axis).shape))
        _check(lambda t: (T.gather(t, indices, axis=axis) * w).sum(), x)

    def test_block_repeat_values(self):
        out = T.gather(T.tensor([[2.0, 3.0], [5.0, 7.0]]), [0, 0, 0, 1, 1])
        np.testing.assert_array_equal(out.data, [[2.0, 2.0, 2.0, 3.0, 3.0], [5.0, 5.0, 5.0, 7.0, 7.0]])

    @pytest.mark.parametrize("indices,axis", [([0, 4], 0), ([-1], 0), ([3], -1), ([0, -3], -1), (-1, 1)])
    def test_out_of_range_raises(self, indices, axis):
        x = T.tensor(np.zeros((4, 3)), requires_grad=True)
        with pytest.raises(ShapeError, match="out of range"):
            T.gather(x, indices, axis=axis)

    @pytest.mark.parametrize("ids", [[[0, 7]], [[-1, 2]]])
    def test_out_of_range_embedding_id_raises(self, ids):
        with pytest.raises(ShapeError, match="out of range"):
            T.embedding(T.tensor(np.zeros((7, 2)), requires_grad=True), np.array(ids))

    def test_micro_batches_add_in_place(self):
        """A second micro-batch adds each row term into the first one's
        gradient in turn, so g1 + a + b is not rounded as g1 + (a + b)."""
        table = T.tensor(self.rng.normal(size=(3, 8)), requires_grad=True)
        ids = [self.rng.integers(0, 3, size=(4, 16)) for _ in range(2)]
        weights = [self.rng.normal(size=(4, 16, 8)) * 10.0 ** self.rng.integers(-3, 4, size=(4, 16, 1))
                   for _ in range(2)]

        def micro_batch(i):
            T.backward((T.embedding(table, ids[i]) * T.tensor(weights[i])).sum())

        micro_batch(0)
        expected = table.grad.copy()
        micro_batch(1)
        np.add.at(expected, ids[1], weights[1])
        np.testing.assert_array_equal(table.grad, expected)
