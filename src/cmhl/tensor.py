"""Dense float64 tensors with reverse-mode automatic differentiation.

The primitive set is exactly what the model needs: matmul, the fused affine
map ``linear`` (``x @ w + b``), fused multi-head ``attention``, add,
elementwise product, reductions, reshaping, ``gather`` (the one read by
integer index, which ``embedding`` wraps), ReLU, GELU, softplus, softmax,
layer norm, dropout, concatenation, and cross-entropy of logits. NumPy is the
only dependency: GELU's erf is Cephes' (Moshier, 1989), in blocked NumPy passes.
A recorded result is the ``Tensor`` the caller holds, with its ``data``, and a
graph vertex (``_Vertex``): its ``.grad``, its parents' vertices, its op and the
backward closure the primitive hands ``_node``. A leaf that requires grad is its
own vertex. A closure adds its result's gradient into its inputs' vertices and
keeps only the arrays its formula reads, so data lives only while the caller or
a closure holds it. Leaves' ``.grad`` accumulate over micro-batches. No closure
refers to its own vertex, so a graph never walked is freed by reference counting
alone; ``backward`` consumes the graph it walks; ``no_grad()`` records none.

A node's first gradient contribution becomes its ``.grad`` unfilled: an
array its backward closure has just computed is adopted, and a view of the
consumer's gradient (``add``, ``reshape``, ``swapaxes``, ``sum``, ``concat``)
is copied, so no two ``.grad`` arrays share memory. Only ``gather`` zero-fills
a vertex's ``.grad``, because its backward adds into it in place.

Importing the module sets glibc's malloc policy for the whole process, once
(``_MALLOC_POLICY``: one arena, arrays below 32 MiB from the heap, 128 MiB of
freed heap kept), so a training step reuses the pages the last one freed. It
applies to glibc only; a host program with its own malloc tuning must redo it.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import math
import os
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DeterminismError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "tensor",
    "drawn",
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
MASK_NEG = -1e9  # attention's score for a padded key: its probability underflows to 0, and no gradient is inf
FD_EPS = 1e-5  # central-difference step of finite_diff_check

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_GRAD_ENABLED = contextvars.ContextVar("cmhl_grad_enabled", default=True)

_MALLOC_POLICY = ((-8, 1), (-3, 32 << 20), (-1, 128 << 20))  # M_ARENA_MAX, M_MMAP_THRESHOLD (max), M_TRIM_THRESHOLD


def _keep_freed_memory(libc) -> None:
    """Set ``_MALLOC_POLICY`` through ``libc.mallopt``; a no-op where ``libc`` has none."""
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)  # int mallopt(int param, int value)
        for option, value in _MALLOC_POLICY:
            libc.mallopt(option, value)


_keep_freed_memory(ctypes.CDLL(None) if os.name == "posix" else None)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions; ``grad`` itself if it has ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class _Vertex:
    """A recorded result's ``.grad``, parents' vertices, backward closure and op; its ``Tensor`` holds the data."""

    __slots__ = ("grad", "_parents", "_backward", "op")

    def __init__(self, parents: tuple, op: str):
        self.grad, self._parents, self._backward, self.op = None, parents, None, op

    def _accumulate(self, g: np.ndarray, owned: bool) -> None:
        """Add ``g`` into ``.grad``; a first ``g`` is adopted if ``owned`` (fresh, unshared), else copied."""
        if self.grad is not None:
            self.grad += g
        else:
            self.grad = np.asarray(g) if owned else g.copy()  # NumPy returns 0-d results as scalars


class Tensor:
    """N-dimensional float64 value, optionally tracked for gradients. A leaf that requires grad is its own vertex
    (no parents or closure: the class defaults); a result recorded on ``_parents`` holds its own in ``_vertex``."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_vertex")
    _parents, _backward = (), None
    _accumulate = _Vertex._accumulate

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.op = op
        self._vertex = _Vertex(_parents, op) if _parents else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        s_shape, o_shape = self.data.shape, other.data.shape

        def back(g: np.ndarray, sv, ov) -> None:
            # _unbroadcast returns g itself unless it had to sum
            if sv is not None:
                sv._accumulate(_unbroadcast(g, s_shape), s_shape != g.shape)
            if ov is not None:
                ov._accumulate(_unbroadcast(g, o_shape), o_shape != g.shape)

        return _node(np.add(self.data, other.data), (self, other), "add", back)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data

        def back(g: np.ndarray, sv, ov) -> None:
            if sv is not None:
                sv._accumulate(_unbroadcast(g * b, a.shape), True)
            if ov is not None:
                ov._accumulate(_unbroadcast(g * a, b.shape), True)

        return _node(np.multiply(a, b), (self, other), "mul", back)

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
        own = self.shape

        def back(g: np.ndarray, xv) -> None:
            xv._accumulate(g.reshape(own), False)

        return _node(self.data.reshape(shape), (self,), "reshape", back)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def back(g: np.ndarray, xv) -> None:
            xv._accumulate(g.swapaxes(a, b), False)

        return _node(self.data.swapaxes(a, b), (self,), "swapaxes", back)

    def sum(self, axis: int | None = None) -> "Tensor":
        own = self.shape

        def back(g: np.ndarray, xv) -> None:
            grad = g if axis is None else np.expand_dims(g, axis)
            xv._accumulate(np.broadcast_to(grad, own), False)

        return _node(self.data.sum(axis=axis), (self,), "sum", back)

    def mean(self) -> "Tensor":
        return self.sum() / self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _node(data: np.ndarray, inputs: tuple, op: str, back: Callable[..., None]) -> Tensor:
    """The result ``data`` of primitive ``op`` on ``inputs``. When grad mode is on and some input requires a
    gradient, its vertex records theirs (None for an input that takes none) and ``back(g, *vertices)``, which adds
    into them and reads no input Tensor, only arrays it kept; otherwise ``back`` is dropped."""
    if not _GRAD_ENABLED.get():
        return Tensor(data, False, (), op)
    vertices = tuple([(t._vertex or t) if t.requires_grad else None for t in inputs])
    parents = tuple([v for v in vertices if v is not None])
    out = Tensor(data, bool(parents), parents, op)
    if parents:
        out._vertex._backward = lambda g: back(g, *vertices)
    return out


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block.

    Results of primitives carry ``requires_grad=False`` and no vertex, so no
    parents and no backward closure: forward-only passes hold no memory for a
    backward that never runs. Leaves keep their own ``requires_grad``. The previous
    mode is restored on exit, also after an exception and when nested.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def drawn(rng: np.random.Generator) -> Callable[..., Tensor]:
    """The maker of a model's trainable tensors for training: ``make(name, shape, fill=None)`` draws the tensor
    from normal(0, 0.02) out of ``rng``, in call order, or fills it with ``fill`` and draws nothing. ``name``, the
    tensor's checkpoint name, is the loader's to check (``training.model_from_checkpoint``)."""

    def make(name: str, shape: Sequence[int], fill: float | None = None) -> Tensor:
        data = rng.normal(0.0, 0.02, size=tuple(shape)) if fill is None else np.full(tuple(shape), fill)
        return Tensor(data, requires_grad=True)

    return make


# -- primitives --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def back(g: np.ndarray, av, bv) -> None:
        if av is not None:
            av._accumulate(_unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape), True)
        if bv is not None:
            bv._accumulate(_unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bd.shape), True)

    return _node(np.matmul(ad, bd), (a, b), "matmul", back)


_GEMM_2D_MIN_MACS = 1 << 24
_BLOCK_MACS = 1 << 17


def _rows_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for [m, d] ``a``: one 2-D GEMM from ``_GEMM_2D_MIN_MACS`` multiply-adds on or within one
    block of ``_BLOCK_MACS``, else one stacked matmul over the full row blocks plus one for the rest. A small
    2-D GEMM that OpenBLAS threads gains little from its second thread and stalls whenever the other core
    is busy: a desk-encoder ``cmhl eval`` ran 2.4x slower beside one busy process, and 2x slower alone."""
    (m, d), k = a.shape, w.shape[1]
    block = max(1, _BLOCK_MACS // (d * k))
    if m <= block or m * d * k >= _GEMM_2D_MIN_MACS:
        return a @ w
    full = m - m % block
    out = np.empty((m, k))
    np.matmul(a[:full].reshape(-1, block, d), w, out=out[:full].reshape(-1, block, k))
    np.matmul(a[full:], w, out=out[full:])  # an empty remainder writes nothing
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` as one node over the rows of ``x``: ``w`` is [d, k], ``b`` is [k].
    The weight gradient is one 2-D GEMM; the forward and the input gradient are ``_rows_matmul``."""
    d, k = w.data.shape
    if x.data.shape[-1] != d or b.data.shape != (k,):
        raise ShapeError(f"linear shapes differ: {x.shape} @ {w.shape} + {b.shape}")
    rows, wd, x_shape = x.data.reshape(-1, d), w.data, x.data.shape
    y = _rows_matmul(rows, wd)
    y += b.data

    def back(g: np.ndarray, xv, wv, bv) -> None:
        g2 = g.reshape(-1, k)
        if xv is not None:
            xv._accumulate(_rows_matmul(g2, wd.T).reshape(x_shape), True)
        if wv is not None:
            wv._accumulate(rows.T @ g2, True)
        if bv is not None:
            bv._accumulate(np.add.reduce(g2, axis=0), True)

    return _node(y.reshape(*x_shape[:-1], k), (x, w, b), "linear", back)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over packed [tokens, d] rows, as one node.

    ``mask`` is a padded batch's [B, n] grid, True at its real tokens (an
    integer mask is read as booleans). ``k`` and ``v`` pack its True slots
    row-major; ``q`` is packed the same way or is one [B, d] row per sample,
    querying as its slot 0. Inside the node each operand is [B, heads, n, dk]
    with zero rows at pad slots, and every score of a padded key gets
    ``MASK_NEG`` added, so its probability is exactly 0; q's rows come out.
    Scores are scaled by 1/sqrt(d / heads); the backward keeps the softmax and the per-head q, k and v grids.
    """
    mask = np.asarray(mask, dtype=bool)
    (tokens, d), m = k.data.shape[-2:], q.data.shape[0]
    if (k.data.ndim != 2 or mask.ndim != 2 or v.shape != k.shape or q.data.shape[1:] != (d,) or d % heads
            or m not in (tokens, mask.shape[0]) or np.count_nonzero(mask) != tokens):
        raise ShapeError(f"attention needs [tokens or B, d] q, [tokens, d] k and v, d divisible by {heads}, "
                         "and a [B, n] mask with one True slot per token")
    (batch, n), dk = mask.shape, d // heads
    real, packed, padded = mask.reshape(-1), m == tokens, tokens < mask.size
    scale = 1.0 / np.sqrt(dk)

    def split(a: np.ndarray, grid: bool) -> np.ndarray:
        if grid and padded:
            a, rows = np.zeros((batch * n, d)), a
            a[real] = rows
        return a.reshape(batch, n if grid else 1, heads, dk).swapaxes(1, 2)

    def merge(a: np.ndarray, grid: bool) -> np.ndarray:
        rows = a.swapaxes(1, 2).reshape(-1, d)
        return rows[real] if grid and padded else rows

    qh, kh, vh = split(q.data, packed), split(k.data, True), split(v.data, True)
    with np.errstate(invalid="ignore"):  # inf * 0 at a pad slot is nan: the finiteness check raises
        probs = np.matmul(qh, kh.swapaxes(-1, -2))
    probs *= scale
    probs += np.where(mask, 0.0, MASK_NEG).reshape(batch, 1, 1, n)
    if not np.isfinite(probs).all():
        raise NumericError("softmax received non-finite logits")
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)

    def back(g: np.ndarray, qv, kv, vv) -> None:
        gh = split(g, packed)
        if vv is not None:
            vv._accumulate(merge(np.matmul(probs.swapaxes(-1, -2), gh), True), True)
        if qv is not None or kv is not None:
            ds = np.matmul(gh, vh.swapaxes(-1, -2))
            ds -= np.add.reduce(ds * probs, axis=-1, keepdims=True)
            ds *= probs
            ds *= scale
            if qv is not None:
                qv._accumulate(merge(np.matmul(ds, kh), packed), True)
            if kv is not None:
                kv._accumulate(merge(np.matmul(ds.swapaxes(-1, -2), qh), True), True)

    return _node(merge(np.matmul(probs, vh), packed), (q, k, v), "attention", back)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join along the last axis."""
    parts = tuple(tensors)
    widths = [t.data.shape[-1] for t in parts]

    def back(g: np.ndarray, *vertices) -> None:
        for vertex, piece in zip(vertices, np.split(g, np.cumsum(widths)[:-1], axis=-1)):
            if vertex is not None:
                vertex._accumulate(piece, False)

    return _node(np.concatenate([t.data for t in parts], axis=-1), parts, "concat", back)


def gather(x: Tensor, indices, axis: int = -1) -> Tensor:
    """Read ``x`` at integer ``indices`` along ``axis``; the axis is replaced
    by the axes of ``indices``, and an index may repeat."""
    idx = np.asarray(indices, dtype=np.intp)
    axis %= x.data.ndim
    shape, size = x.data.shape, x.data.shape[axis]
    # viewed as unsigned, a negative index exceeds every axis size
    if idx.size and idx.view(np.uintp).max() >= size:
        bad = idx[(idx < 0) | (idx >= size)].flat[0]
        raise ShapeError(f"gather index {bad} out of range for axis {axis} of size {size}")

    def back(g: np.ndarray, xv) -> None:
        # in place, so repeated indices and micro-batches add up one term at a time
        if xv.grad is None:
            xv.grad = np.zeros(shape)
        np.add.at(xv.grad, (slice(None),) * axis + (idx,), g)

    return _node(x.data.take(idx, axis=axis), (x,), "gather", back)


def relu(x: Tensor) -> Tensor:
    xd = x.data

    def back(g: np.ndarray, xv) -> None:
        xv._accumulate(g * (xd > 0.0), True)

    return _node(np.maximum(xd, 0.0), (x,), "relu", back)


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
            if big.size:
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
    xd = x.data
    cdf = _erf(xd * _INV_SQRT2)  # then (1 + erf) / 2 in place, in erf's fresh array
    np.multiply(np.add(cdf, 1.0, out=cdf), 0.5, out=cdf)

    def back(g: np.ndarray, xv) -> None:
        grad = xd * -0.5  # the pdf term x * exp(-x^2 / 2) / sqrt(2 pi), then + cdf and * g, in one buffer
        np.exp(np.multiply(grad, xd, out=grad), out=grad)
        grad *= _INV_SQRT2PI
        grad *= xd
        grad += cdf
        grad *= g
        xv._accumulate(grad, True)

    return _node(xd * cdf, (x,), "gelu", back)


def softplus(x: Tensor) -> Tensor:
    xd = x.data

    def back(g: np.ndarray, xv) -> None:
        sig = 1.0 / (1.0 + np.exp(-xd))
        xv._accumulate(g * sig, True)

    return _node(np.logaddexp(0.0, xd), (x,), "softplus", back)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis with max-subtraction for overflow safety."""
    if not np.isfinite(x.data).all():
        raise NumericError("softmax received non-finite logits")
    shifted = x.data - np.maximum.reduce(x.data, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    y = exp / np.add.reduce(exp, axis=-1, keepdims=True)

    def back(g: np.ndarray, xv) -> None:
        dot = np.add.reduce(g * y, axis=-1, keepdims=True)
        xv._accumulate(y * (g - dot), True)

    return _node(y, (x,), "softmax", back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    n = x.data.shape[-1]  # the reductions np.mean and np.var run, without their Python wrappers
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    istd = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = np.multiply(xc, istd, out=xc)
    gd, b_shape = gain.data, bias.shape

    def back(g: np.ndarray, xv, gv, bv) -> None:
        if gv is not None:
            gv._accumulate(_unbroadcast(g * xhat, gd.shape), True)
        if bv is not None:
            bv._accumulate(_unbroadcast(g, b_shape), b_shape != g.shape)
        if xv is not None:  # the means as np.mean takes them, as in the forward
            dxhat = g * gd
            term = dxhat - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
            term -= xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n)
            xv._accumulate(istd * term, True)

    out = xhat * gd
    out += bias.data
    return _node(out, (x, gain, bias), "layer_norm", back)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout with a keep-mask drawn from ``rng`` at ``x``'s shape; the identity without ``rng``."""
    if rng is None or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    inv = 1.0 / (1.0 - rate)

    def back(g: np.ndarray, xv) -> None:
        xv._accumulate(g * keep * inv, True)

    out = x.data * keep  # then * inv in place: the bits of x * (keep / (1 - rate))
    out *= inv
    return _node(out, (x,), "dropout", back)


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

    def back(g: np.ndarray, xv) -> None:
        grad = exp / total[:, None]
        grad[np.arange(rows), labels] -= 1.0
        grad *= float(g) / rows
        xv._accumulate(grad, True)

    return _node(np.mean(np.log(total) - shifted[np.arange(rows), labels]), (logits,), "cross_entropy", back)


# -- backward pass ------------------------------------------------------------


def _topo_order(root: _Vertex | Tensor) -> list:
    order: list = []
    seen: set[int] = set()
    stack: list[tuple] = [(root, False)]
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

    Each vertex's closure is called with the vertex's ``.grad``. The graph is
    consumed: once a recorded vertex has propagated, its ``.grad``, closure
    and parents are dropped, so the arrays its closure kept are freed during
    the walk even while the caller still holds ``loss``. Only leaves keep
    ``.grad``. Calling ``backward`` again on any part of a consumed graph
    raises RuntimeError.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss._vertex or loss
    order = _topo_order(root)
    for node in order:
        if type(node) is _Vertex and node._backward is None:
            raise RuntimeError(f"backward reached a {node.op!r} node whose graph an earlier backward already consumed")
    root._accumulate(np.ones_like(loss.data), True)
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._parents = ()


# -- gradient verification -----------------------------------------------------


def finite_diff_check(fn: Callable[[], Tensor], targets: dict[str, Tensor], grad_offset: float = 0.0) -> dict:
    """Each target's max relative error between analytic and central-difference gradients, step ``FD_EPS``.

    ``fn`` is a deterministic no-argument objective giving a scalar Tensor. It reads ``targets``, which the check
    perturbs in place, element by element in C order whatever their memory layout. Two forward passes detect
    nondeterminism; one ``backward`` gives every analytic gradient into the targets, each marked as requiring grad
    and so its own vertex; a last forward pass must equal the first bit for bit, so every perturbation was restored.
    ``grad_offset`` perturbs the first target's analytic gradient before comparison and exists purely as a
    negative-control hook for self-tests.
    """
    with no_grad():
        first = np.array(fn().data, copy=True)
        if not np.array_equal(first, fn().data):
            raise DeterminismError("fn produced different values on identical inputs")
    for point in targets.values():
        point.requires_grad, point.grad = True, None
    backward(fn())
    errors: dict[str, float] = {}
    with no_grad():
        for name, point in targets.items():
            analytic, data = point.grad.reshape(-1) + (0.0 if errors else grad_offset), point.data
            numeric = np.zeros(data.size)
            for i in range(data.size):
                saved = data.flat[i]
                data.flat[i] = saved + FD_EPS
                f_plus = float(fn().data)
                data.flat[i] = saved - FD_EPS
                f_minus = float(fn().data)
                data.flat[i] = saved
                numeric[i] = (f_plus - f_minus) / (2.0 * FD_EPS)
            denom = np.maximum(1.0, np.abs(analytic))
            errors[name] = float(np.max(np.abs(analytic - numeric) / denom)) if data.size else 0.0
        if not np.array_equal(first, fn().data):
            raise DeterminismError("fn changed value over the check: a perturbation was not restored")
    return errors
