"""Dense float64 tensors with reverse-mode automatic differentiation.

The primitive set is exactly what the model needs: matmul, the fused affine
map ``linear`` (``x @ w + b``), fused multi-head ``attention``, add,
elementwise product, reductions, reshaping, ``gather`` (the one read by
integer index, which ``embedding`` wraps), ReLU, GELU, softplus, softmax,
layer norm, dropout, concatenation, and cross-entropy of logits. NumPy is the
only dependency: GELU's erf is Cephes' (Moshier, 1989), in blocked NumPy passes.
Every primitive hands ``_node`` a backward closure that takes the gradient
of its result and adds into its inputs' ``.grad``; gradients accumulate into
leaves' ``.grad`` so micro-batch accumulation works without extra bookkeeping.
No closure refers to the node it belongs to, so a graph holds no reference
cycle and one that is never walked is freed by reference counting alone.
``backward`` consumes the graph it walks, freeing each interior node as soon as
it has propagated, and inside ``no_grad()`` no graph is recorded at all.

A node's first gradient contribution becomes its ``.grad`` unfilled: an
array its backward closure has just computed is adopted, and a view of the
consumer's gradient (``add``, ``reshape``, ``swapaxes``, ``sum``, ``concat``)
is copied, so no two ``.grad`` arrays share memory. Only ``gather`` zero-fills
a ``.grad``, because its backward adds into it in place.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DeterminismError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "tensor",
    "param",
    "zeros",
    "ones",
    "matmul",
    "linear",
    "attention",
    "concat",
    "gather",
    "relu",
    "gelu",
    "softplus",
    "softmax",
    "layer_norm",
    "dropout",
    "embedding",
    "cross_entropy",
    "backward",
    "no_grad",
    "finite_diff_check",
]

LAYERNORM_EPS = 1e-5
FD_EPS = 1e-5  # central-difference step of finite_diff_check

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_GRAD_ENABLED = contextvars.ContextVar("cmhl_grad_enabled", default=True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional float64 value, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward: Callable[[np.ndarray], None] | None = None
        self.op = op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray, owned: bool) -> None:
        """Add ``g`` into ``.grad``; a first ``g`` is adopted if ``owned`` (fresh, unshared), else copied."""
        if self.grad is not None:
            self.grad += g
        else:
            self.grad = np.asarray(g) if owned else g.copy()  # NumPy returns 0-d results as scalars

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def back(g: np.ndarray) -> None:
            # _unbroadcast returns a view of g unless it had to sum
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape), self.shape != g.shape)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape), other.shape != g.shape)

        return _node(np.add(self.data, other.data), (self, other), "add", back)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def back(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape), True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape), True)

        return _node(np.multiply(self.data, other.data), (self, other), "mul", back)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __truediv__(self, scalar: float) -> "Tensor":
        return self * (1.0 / float(scalar))

    # -- shape manipulation -------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        def back(g: np.ndarray) -> None:
            self._accumulate(g.reshape(self.shape), False)

        return _node(self.data.reshape(shape), (self,), "reshape", back)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def back(g: np.ndarray) -> None:
            self._accumulate(g.swapaxes(a, b), False)

        return _node(self.data.swapaxes(a, b), (self,), "swapaxes", back)

    def sum(self, axis: int | None = None) -> "Tensor":
        def back(g: np.ndarray) -> None:
            grad = g if axis is None else np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(grad, self.shape), False)

        return _node(self.data.sum(axis=axis), (self,), "sum", back)

    def mean(self) -> "Tensor":
        return self.sum() / self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _node(data: np.ndarray, parents: tuple, op: str, back: Callable[[np.ndarray], None]) -> Tensor:
    """The result ``data`` of primitive ``op`` on ``parents``, whose gradient ``back(g)`` propagates.

    The node records its parents and ``back`` only when grad mode is on and
    some parent requires a gradient; otherwise ``back`` is dropped.
    """
    requires = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires, parents if requires else (), op)
    out._backward = back if requires else None
    return out


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block.

    Results of primitives carry ``requires_grad=False``, no parents and no
    backward closure, so forward-only passes hold no memory for a backward
    that never runs. Leaves keep their own ``requires_grad``. The previous
    mode is restored on exit, also after an exception and when nested.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def param(shape: Sequence[int], rng: np.random.Generator) -> Tensor:
    """Trainable tensor initialized from normal(0, 0.02)."""
    return Tensor(rng.normal(0.0, 0.02, size=tuple(shape)), requires_grad=True)


# -- primitives --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = np.matmul(g, b.data.swapaxes(-1, -2))
            a._accumulate(_unbroadcast(ga, a.shape), True)
        if b.requires_grad:
            gb = np.matmul(a.data.swapaxes(-1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape), True)

    return _node(np.matmul(a.data, b.data), (a, b), "matmul", back)


# `linear` runs products below this many multiply-adds as NumPy's stacked
# matmul, one GEMM per sample, not as one 2-D GEMM that OpenBLAS threads: its
# second thread gains little there and stalls whenever the other core is busy
# (a desk-encoder `cmhl eval` ran 2.4x slower beside one busy process). A
# [B, 1, d] input is one 2-D GEMM at any size: stacked, it would be B GEMVs.
_GEMM_2D_MIN_MACS = 1 << 24


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` as one node: ``w`` is [d, k], ``b`` is [k]. The weight
    gradient, and large products, are 2-D GEMMs over the leading rows of ``x``."""
    d, k = w.data.shape
    if x.data.shape[-1] != d or b.data.shape != (k,):
        raise ShapeError(f"linear shapes differ: {x.shape} @ {w.shape} + {b.shape}")
    rows = x.data.reshape(-1, d)
    stacked = rows.size * k < _GEMM_2D_MIN_MACS and x.data.shape[-2:-1] != (1,)
    y = np.matmul(x.data, w.data) if stacked else (rows @ w.data).reshape(*x.data.shape[:-1], k)
    y += b.data

    def back(g: np.ndarray) -> None:
        g2 = g.reshape(-1, k)
        if x.requires_grad:
            gx = np.matmul(g, w.data.T) if stacked else (g2 @ w.data.T).reshape(x.data.shape)
            x._accumulate(gx, True)
        if w.requires_grad:
            w._accumulate(rows.T @ g2, True)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0), True)

    return _node(y, (x, w, b), "linear", back)


def attention(q: Tensor, k: Tensor, v: Tensor, mask_add: np.ndarray, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of [B, m, d] queries over [B, n, d] keys and values, as one node.

    ``mask_add`` is a constant [B, n] added to every score of each key (0 at
    real tokens, a large negative number at padding). Scores are scaled by
    1/sqrt(d / heads); the backward keeps only the [B, heads, m, n] softmax.
    """
    batch, _, d = q.data.shape
    n = k.data.shape[1] if k.data.ndim == 3 else -1
    if k.shape != (batch, n, d) or v.shape != k.shape or d % heads or np.shape(mask_add) != (batch, n):
        raise ShapeError(f"attention needs [B, m, d] q, equal [B, n, d] k and v, d divisible by {heads}, a [B, n] mask")
    dk = d // heads
    scale = 1.0 / np.sqrt(dk)

    def split(a: np.ndarray) -> np.ndarray:
        return a.reshape(batch, a.shape[1], heads, dk).swapaxes(1, 2)

    def merge(a: np.ndarray) -> np.ndarray:
        return a.swapaxes(1, 2).reshape(batch, a.shape[2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    probs = np.matmul(qh, kh.swapaxes(-1, -2))
    probs *= scale
    probs += mask_add.reshape(batch, 1, 1, n)
    if not np.isfinite(probs).all():
        raise NumericError("softmax received non-finite logits")
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def back(g: np.ndarray) -> None:
        gh = split(g)
        if v.requires_grad:
            v._accumulate(merge(np.matmul(probs.swapaxes(-1, -2), gh)), True)
        if q.requires_grad or k.requires_grad:
            ds = np.matmul(gh, vh.swapaxes(-1, -2))
            ds -= (ds * probs).sum(axis=-1, keepdims=True)
            ds *= probs
            ds *= scale
            if q.requires_grad:
                q._accumulate(merge(np.matmul(ds, kh)), True)
            if k.requires_grad:
                k._accumulate(merge(np.matmul(ds.swapaxes(-1, -2), qh)), True)

    return _node(merge(np.matmul(probs, vh)), (q, k, v), "attention", back)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join along the last axis."""
    parts = tuple(tensors)

    def back(g: np.ndarray) -> None:
        splits = np.cumsum([t.data.shape[-1] for t in parts])[:-1]
        pieces = np.split(g, splits, axis=-1)
        for t, piece in zip(parts, pieces):
            if t.requires_grad:
                t._accumulate(piece, False)

    return _node(np.concatenate([t.data for t in parts], axis=-1), parts, "concat", back)


def gather(x: Tensor, indices, axis: int = -1) -> Tensor:
    """Read ``x`` at integer ``indices`` along ``axis``; the axis is replaced
    by the axes of ``indices``, and an index may repeat."""
    idx = np.asarray(indices, dtype=np.intp)
    axis %= x.data.ndim
    size = x.data.shape[axis]
    # viewed as unsigned, a negative index exceeds every axis size
    if idx.size and idx.view(np.uintp).max() >= size:
        bad = idx[(idx < 0) | (idx >= size)].flat[0]
        raise ShapeError(f"gather index {bad} out of range for axis {axis} of size {size}")

    def back(g: np.ndarray) -> None:
        # in place, so repeated indices and micro-batches add up one term at a time
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, (slice(None),) * axis + (idx,), g)

    return _node(x.data.take(idx, axis=axis), (x,), "gather", back)


def relu(x: Tensor) -> Tensor:
    def back(g: np.ndarray) -> None:
        x._accumulate(g * (x.data > 0.0), True)

    return _node(np.maximum(x.data, 0.0), (x,), "relu", back)


# Cephes' erf (Moshier, 1989): x T(x^2) / U(x^2) for |x| <= 1, else sign(x) (1 - exp(-x^2) P(|x|) / Q(|x|))
_ERF_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051, 55592.30130103949)
_ERF_U = (33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095, 49267.39426086359)
_ERF_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814, 196.5208329560771,
          526.4451949954773, 934.5285271719576, 1027.5518868951572, 557.5353353693994)
_ERF_Q = (13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055, 1823.9091668790973,
          2246.3376081871097, 1656.6630919416134, 557.5353408177277)
_ERF_BLOCK = 1 << 15  # elements; the five 256 KiB arrays of a block fit a 2 MiB L2 cache together


def _horner(z: np.ndarray, coefs: tuple, monic: bool) -> np.ndarray:
    """Horner's scheme at ``z``: ``coefs`` from the highest degree down, after a leading 1 if ``monic`` (U, Q)."""
    out = z + coefs[0] if monic else z * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        out *= z
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float64 array within 3 ulp; exactly +-1 from |x| = 6 on, where 1 - erfc(x) rounds to 1."""
    flat = x.reshape(-1)
    res = np.empty(flat.size)
    # the |x| <= 1 branch may overflow where its result is replaced; a tiny x underflows, rightly
    with np.errstate(over="ignore", under="ignore"):
        for lo in range(0, flat.size, _ERF_BLOCK):
            xb, yb = flat[lo:lo + _ERF_BLOCK], res[lo:lo + _ERF_BLOCK]
            z = xb * xb
            (big,) = np.nonzero(z > 1.0)  # indices, which gather and scatter far faster than a mask
            np.minimum(z, 1.0, out=z)
            np.multiply(xb, _horner(z, _ERF_T, False), out=yb)
            yb /= _horner(z, _ERF_U, True)
            if big.size:
                xv = xb[big]
                a = np.minimum(np.abs(xv), 6.0)
                e = np.exp(-(a * a)) * _horner(a, _ERF_P, False)
                e /= _horner(a, _ERF_Q, True)
                yb[big] = np.copysign(np.subtract(1.0, e, out=e), xv, out=e)
    return res.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x), with Phi(x) = (1 + erf(x / sqrt(2))) / 2 from the owned Cephes ``_erf``."""
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))

    def back(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        x._accumulate(g * (cdf + x.data * pdf), True)

    return _node(x.data * cdf, (x,), "gelu", back)


def softplus(x: Tensor) -> Tensor:
    def back(g: np.ndarray) -> None:
        sig = 1.0 / (1.0 + np.exp(-x.data))
        x._accumulate(g * sig, True)

    return _node(np.logaddexp(0.0, x.data), (x,), "softplus", back)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis with max-subtraction for overflow safety."""
    if not np.isfinite(x.data).all():
        raise NumericError("softmax received non-finite logits")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    y = exp / exp.sum(axis=-1, keepdims=True)

    def back(g: np.ndarray) -> None:
        dot = (g * y).sum(axis=-1, keepdims=True)
        x._accumulate(y * (g - dot), True)

    return _node(y, (x,), "softmax", back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    n = x.data.shape[-1]  # the reductions np.mean and np.var run, without their Python wrappers
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    istd = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = xc * istd

    def back(g: np.ndarray) -> None:
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape), True)
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape), bias.shape != g.shape)
        if x.requires_grad:
            dxhat = g * gain.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True)
            term -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(istd * term, True)

    return _node(xhat * gain.data + bias.data, (x, gain, bias), "layer_norm", back)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity in evaluation mode."""
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    scale = keep / (1.0 - rate)

    def back(g: np.ndarray) -> None:
        x._accumulate(g * scale, True)

    return _node(x.data * scale, (x,), "dropout", back)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into ``weight`` by integer id array."""
    return gather(weight, ids, axis=0)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over rows of logsumexp(z) - z[label] for [rows, k] ``logits`` z; no probability is clamped."""
    labels = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [rows, classes], got {logits.shape}")
    rows, k = logits.data.shape
    if labels.shape != (rows,):
        raise ShapeError(f"expected {rows} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise DataError(f"label {bad} out of range for {k} classes")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)

    def back(g: np.ndarray) -> None:
        grad = exp / total[:, None]
        grad[np.arange(rows), labels] -= 1.0
        grad *= float(g) / rows
        logits._accumulate(grad, True)

    return _node(np.mean(np.log(total) - shifted[np.arange(rows), labels]), (logits,), "cross_entropy", back)


# -- backward pass ------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into ``.grad`` of every leaf ``loss`` depends on.

    Each node's closure is called with the node's ``.grad``. The graph is
    consumed: once an interior node has propagated, its ``.grad``, backward
    closure and parents are dropped, so the activations it kept are freed
    during the walk even while the caller still holds ``loss``. Only leaves
    keep ``.grad``. Calling ``backward`` again on any part of a consumed
    graph raises RuntimeError.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    for node in order:
        if node.requires_grad and node.op != "leaf" and node._backward is None:
            raise RuntimeError(
                f"backward reached a {node.op!r} node whose graph an earlier backward already consumed"
            )
    loss._accumulate(np.ones_like(loss.data), True)
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._parents = ()


# -- gradient verification -----------------------------------------------------


def finite_diff_check(fn: Callable[[Tensor], Tensor], point: Tensor, grad_offset: float = 0.0) -> float:
    """Max relative error between analytic and central-difference gradients, step ``FD_EPS``.

    ``fn`` must be a deterministic map from ``point`` to a scalar Tensor; two
    forward passes are compared to detect nondeterminism. ``grad_offset``
    perturbs the analytic gradient before comparison and exists purely as a
    negative-control hook for self-tests.
    """
    with no_grad():
        first = np.array(fn(point).data, copy=True)
        second = fn(point).data
    if not np.array_equal(first, second):
        raise DeterminismError("fn produced different values on identical inputs")

    point.requires_grad = True
    point.zero_grad()
    backward(fn(point))
    analytic = point.grad.copy() + grad_offset

    flat = point.data.reshape(-1)
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + FD_EPS
            f_plus = float(fn(point).data)
            flat[i] = saved - FD_EPS
            f_minus = float(fn(point).data)
            flat[i] = saved
            numeric[i] = (f_plus - f_minus) / (2.0 * FD_EPS)

    denom = np.maximum(1.0, np.abs(analytic.reshape(-1)))
    return float(np.max(np.abs(analytic.reshape(-1) - numeric) / denom)) if flat.size else 0.0
