"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value in this package flows through the `Tensor` class below: a thin,
row-major, C-contiguous float64 wrapper around a numpy array.  Operations on
tensors record a computation graph (parent links plus a vector-Jacobian
closure per node) whenever gradients are live; `backward` replays that graph
in reverse topological order.  A central-difference oracle
(`finite_diff_grad`) is provided so every analytic gradient in the package
can be checked against an independent numerical one.

The module also owns two pieces of cross-cutting instrumentation:

* a thread-local grad switch (`no_grad`) so inference and benchmarking never
  pay for graph construction, and
* a thread-local FLOP meter (`count_flops`) that primitives report into,
  used by the profiler to count the real work of a forward pass.

FLOP convention (fixed, documented, applied uniformly): a fused
multiply-add is 2 FLOPs, so a matmul of [m,k]x[k,n] costs 2*m*k*n.
Element-wise transcendentals and composites are charged per element via the
`FLOP_COST` table below.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np
from scipy.special import erf as _erf
from scipy.special import expit as _expit

__all__ = [
    "Tensor",
    "GradTape",
    "HybridSeqError",
    "ShapeError",
    "ContractError",
    "NumericError",
    "FlopMeter",
    "count_flops",
    "meter_add",
    "no_grad",
    "is_grad_enabled",
    "backward",
    "finite_diff_grad",
    "new_rng",
    "tensor",
    "zeros",
    "randn",
    "matmul",
    "bmatmul",
    "einsum2",
    "transpose",
    "permute",
    "reshape",
    "concat_rows",
    "concat_cols",
    "slice_rows",
    "slice_cols",
    "index_rows",
    "take_along_rows",
    "cumsum0",
    "add",
    "sub",
    "mul",
    "div",
    "tsum",
    "tmean",
    "exp",
    "expm1",
    "log",
    "sqrt",
    "custom_op",
    "tanh",
    "sigmoid",
    "silu",
    "softplus",
    "gelu",
    "softmax_rows",
    "log_softmax_rows",
    "layer_norm",
    "FLOP_COST",
]


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------


class HybridSeqError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(HybridSeqError):
    """Operand shapes violate an operation's dimension contract."""


class ContractError(HybridSeqError):
    """A documented precondition was violated by the caller."""


class NumericError(HybridSeqError):
    """A computation produced NaN/Inf or otherwise left the finite domain."""


# --------------------------------------------------------------------------
# Thread-local mode switches: grad recording and FLOP metering
# --------------------------------------------------------------------------

_LOCAL = threading.local()


def _local_state():
    if not hasattr(_LOCAL, "grad_enabled"):
        _LOCAL.grad_enabled = True
        _LOCAL.meter = None
    return _LOCAL


def is_grad_enabled() -> bool:
    return _local_state().grad_enabled


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / benchmarking)."""
    st = _local_state()
    prev = st.grad_enabled
    st.grad_enabled = False
    try:
        yield
    finally:
        st.grad_enabled = prev


# Per-element FLOP charges for non-matmul primitives.  Values are a fixed
# accounting convention, not hardware truth; they only need to be applied
# consistently by both the meter and the analytic cost model.
FLOP_COST = {
    "add": 1,
    "sub": 1,
    "mul": 1,
    "div": 1,
    "neg": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "tanh": 5,
    "sigmoid": 4,
    "silu": 5,
    "softplus": 3,
    "gelu": 8,
    "sum": 1,
    "cumsum": 1,
    "softmax": 5,
    "log_softmax": 5,
    "layer_norm": 8,
}


class FlopMeter:
    """Accumulates floating-point operation counts reported by primitives."""

    __slots__ = ("total", "by_kind")

    def __init__(self):
        self.total = 0.0
        self.by_kind: dict[str, float] = {}

    def add(self, kind: str, n: float) -> None:
        self.total += n
        self.by_kind[kind] = self.by_kind.get(kind, 0.0) + n

    def reset(self) -> None:
        self.total = 0.0
        self.by_kind.clear()


@contextmanager
def count_flops():
    """Install a fresh FlopMeter for the block and yield it."""
    st = _local_state()
    prev = st.meter
    meter = FlopMeter()
    st.meter = meter
    try:
        yield meter
    finally:
        st.meter = prev


def meter_add(kind: str, n: float) -> None:
    """Report `n` FLOPs of the given kind to the active meter, if any.

    Public so that fused fast paths (e.g. blocked attention) can report the
    same counts as the equivalent primitive composition would.
    """
    meter = _local_state().meter
    if meter is not None:
        meter.add(kind, n)


def _meter_elementwise(kind: str, n_elements: int) -> None:
    meter = _local_state().meter
    if meter is not None:
        meter.add(kind, FLOP_COST[kind] * n_elements)


# --------------------------------------------------------------------------
# Tensor
# --------------------------------------------------------------------------


class Tensor:
    """A row-major contiguous float64 array with optional grad tracking.

    Tensors are immutable once built (the backing array is never written in
    place by any operation); graphs are encoded as parent references plus a
    per-node VJP closure mapping the output adjoint to parent adjoints.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if _vjp is None and not np.all(np.isfinite(arr)):
            raise NumericError("tensor constructed from non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._vjp = _vjp

    # -- introspection ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def new_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox); callers thread it explicitly."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def randn(rng: np.random.Generator, *shape, std: float = 1.0, requires_grad: bool = False) -> Tensor:
    return Tensor(rng.standard_normal(shape) * std, requires_grad=requires_grad)


# --------------------------------------------------------------------------
# Graph construction helpers
# --------------------------------------------------------------------------


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """Wrap an op result; record the graph only when grads are live."""
    if is_grad_enabled() and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp)
    return _leaf(data)


def _leaf(data: np.ndarray) -> Tensor:
    t = object.__new__(Tensor)
    arr = np.asarray(data, dtype=np.float64)
    t.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
    t.requires_grad = False
    t.grad = None
    t._parents = ()
    t._vjp = None
    return t


def custom_op(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """Build a tensor from a hand-written primitive.

    `vjp(g)` must return one gradient (or None) per parent, computed in raw
    numpy.  Used for fused operations whose reverse pass is cheaper or
    numerically cleaner written by hand (e.g. the state-space scan).
    """
    return _node(np.asarray(data, dtype=np.float64), tuple(parents), vjp)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# --------------------------------------------------------------------------
# Arithmetic primitives
# --------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data + b.data
    _meter_elementwise("add", out.size)

    def vjp(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _node(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data - b.data
    _meter_elementwise("sub", out.size)

    def vjp(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data * b.data
    _meter_elementwise("mul", out.size)
    ad, bd = a.data, b.data

    def vjp(g):
        return (_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape))

    return _node(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data / b.data
    _meter_elementwise("div", out.size)
    ad, bd = a.data, b.data

    def vjp(g):
        return (
            _unbroadcast(g / bd, a.shape),
            _unbroadcast(-g * ad / (bd * bd), b.shape),
        )

    return _node(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """Strict 2-D matrix product [m,k] x [k,n] -> [m,n]."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if a.shape[0] == 1:
        # numpy hands a one-row product to gemv, which rounds differently
        # from gemm; two rows keep it on gemm, so a row's result does not
        # depend on how many rows share the call (stream chaining relies
        # on that)
        out = (np.concatenate([a.data, a.data]) @ b.data)[:1]
    else:
        out = a.data @ b.data
    meter_add("matmul", 2.0 * a.shape[0] * a.shape[1] * b.shape[1])
    ad, bd = a.data, b.data

    def vjp(g):
        return (g @ bd.T, ad.T @ g)

    return _node(out, (a, b), vjp)


def bmatmul(a, b) -> Tensor:
    """Batched matrix product [..., m, k] x [..., k, n] -> [..., m, n].

    Leading (batch) axes broadcast as in `np.matmul`; each batch element is
    one BLAS call, so this is the form to reach for when a contraction has
    shared batch axes (einsum2 would loop in C without BLAS).
    """
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"bmatmul expects operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"bmatmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)
    meter_add("matmul", 2.0 * out.size * a.shape[-1])
    ad, bd = a.data, b.data

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return _node(out, (a, b), vjp)


def _parse_einsum2(spec: str):
    lhs, out = spec.replace(" ", "").split("->")
    sa, sb = lhs.split(",")
    for s in (sa, sb, out):
        if len(set(s)) != len(s):
            raise ShapeError(f"einsum2 does not support repeated indices: {spec!r}")
    if not set(out) <= (set(sa) | set(sb)):
        raise ShapeError(f"einsum2 output index not in inputs: {spec!r}")
    return sa, sb, out


def einsum2(spec: str, a, b) -> Tensor:
    """Binary einsum contraction with reverse-mode support.

    Restricted to specs without repeated indices inside one operand, which
    covers every contraction this package needs.
    """
    a, b = _coerce(a), _coerce(b)
    sa, sb, out_spec = _parse_einsum2(spec)
    if len(sa) != a.ndim or len(sb) != b.ndim:
        raise ShapeError(f"einsum2 spec {spec!r} does not match operand ranks")
    out = np.einsum(spec, a.data, b.data)
    dims: dict[str, int] = {}
    for s, t in ((sa, a), (sb, b)):
        for ch, n in zip(s, t.shape):
            dims[ch] = n
    work = 1.0
    for ch in set(sa) | set(sb):
        work *= dims[ch]
    meter_add("matmul", 2.0 * work)
    ad, bd = a.data, b.data

    def vjp(g):
        ga = np.einsum(f"{out_spec},{sb}->{sa}", g, bd)
        gb = np.einsum(f"{out_spec},{sa}->{sb}", g, ad)
        return (ga, gb)

    return _node(out, (a, b), vjp)


def transpose(a) -> Tensor:
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeError("transpose expects a 2-D tensor")
    out = a.data.T

    def vjp(g):
        return (g.T,)

    return _node(out, (a,), vjp)


def permute(a, axes) -> Tensor:
    """Reorder axes (`np.transpose` with explicit axes); copies to row-major."""
    a = _coerce(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of {a.ndim} axes")
    out = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _node(out, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    out = a.data.reshape(shape)
    orig = a.shape

    def vjp(g):
        return (g.reshape(orig),)

    return _node(out, (a,), vjp)


def concat_rows(parts) -> Tensor:
    """Concatenate along axis 0."""
    parts = [_coerce(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.shape[0] for p in parts]

    def vjp(g):
        grads = []
        off = 0
        for n in sizes:
            grads.append(g[off : off + n])
            off += n
        return tuple(grads)

    return _node(out, tuple(parts), vjp)


def concat_cols(parts) -> Tensor:
    """Concatenate 2-D tensors along axis 1."""
    parts = [_coerce(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=1)
    sizes = [p.shape[1] for p in parts]

    def vjp(g):
        grads = []
        off = 0
        for n in sizes:
            grads.append(g[:, off : off + n])
            off += n
        return tuple(grads)

    return _node(out, tuple(parts), vjp)


def slice_rows(a, lo: int, hi: int) -> Tensor:
    a = _coerce(a)
    out = a.data[lo:hi].copy()
    shape = a.shape

    def vjp(g):
        ga = np.zeros(shape)
        ga[lo:hi] = g
        return (ga,)

    return _node(out, (a,), vjp)


def slice_cols(a, lo: int, hi: int) -> Tensor:
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeError("slice_cols expects a 2-D tensor")
    out = a.data[:, lo:hi].copy()
    shape = a.shape

    def vjp(g):
        ga = np.zeros(shape)
        ga[:, lo:hi] = g
        return (ga,)

    return _node(out, (a,), vjp)


def index_rows(a, ids) -> Tensor:
    """Gather rows by integer index (embedding lookup); VJP scatter-adds."""
    a = _coerce(a)
    idx = np.asarray(ids, dtype=np.intp)
    out = a.data[idx].copy()
    shape = a.shape

    def vjp(g):
        ga = np.zeros(shape)
        np.add.at(ga, idx, g)
        return (ga,)

    return _node(out, (a,), vjp)


def take_along_rows(a, idx) -> Tensor:
    """Per-row column gather: out[i, j] = a[i, idx[i, j]]."""
    a = _coerce(a)
    ind = np.asarray(idx, dtype=np.intp)
    if a.ndim != 2 or ind.ndim != 2 or ind.shape[0] != a.shape[0]:
        raise ShapeError("take_along_rows expects a [m,n] tensor and [m,k] indices")
    out = np.take_along_axis(a.data, ind, axis=1)
    shape = a.shape

    def vjp(g):
        ga = np.zeros(shape)
        np.add.at(ga, (np.arange(shape[0])[:, None], ind), g)
        return (ga,)

    return _node(out, (a,), vjp)


def cumsum0(a) -> Tensor:
    """Inclusive cumulative sum along axis 0."""
    a = _coerce(a)
    out = np.cumsum(a.data, axis=0)
    _meter_elementwise("cumsum", out.size)

    def vjp(g):
        return (np.flip(np.cumsum(np.flip(g, axis=0), axis=0), axis=0),)

    return _node(out, (a,), vjp)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    _meter_elementwise("sum", a.size)
    shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _node(np.asarray(out), (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    if axis is None:
        denom = a.size
    else:
        denom = a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / denom)


# --------------------------------------------------------------------------
# Element-wise nonlinearities
# --------------------------------------------------------------------------


def _unary(a, out: np.ndarray, dfn, kind: str) -> Tensor:
    _meter_elementwise(kind, out.size)

    def vjp(g):
        return (g * dfn(),)

    return _node(out, (a,), vjp)


def exp(a) -> Tensor:
    a = _coerce(a)
    out = np.exp(a.data)
    return _unary(a, out, lambda: out, "exp")


def log(a) -> Tensor:
    a = _coerce(a)
    out = np.log(a.data)
    ad = a.data
    return _unary(a, out, lambda: 1.0 / ad, "log")


def expm1(a) -> Tensor:
    """e^x - 1, accurate near x = 0."""
    a = _coerce(a)
    out = np.expm1(a.data)
    return _unary(a, out, lambda: out + 1.0, "exp")


def sqrt(a) -> Tensor:
    a = _coerce(a)
    out = np.sqrt(a.data)
    return _unary(a, out, lambda: 0.5 / out, "sqrt")


def tanh(a) -> Tensor:
    a = _coerce(a)
    out = np.tanh(a.data)
    return _unary(a, out, lambda: 1.0 - out * out, "tanh")


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    out = _sigmoid_np(a.data)
    return _unary(a, out, lambda: out * (1.0 - out), "sigmoid")


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # scipy's logistic is overflow-free in both tails and needs no masks.
    return _expit(x)


def silu(a) -> Tensor:
    a = _coerce(a)
    s = _sigmoid_np(a.data)
    out = a.data * s
    ad = a.data
    return _unary(a, out, lambda: s + ad * s * (1.0 - s), "silu")


def softplus(a) -> Tensor:
    """log(1 + e^x), computed without overflow for large |x|."""
    a = _coerce(a)
    ad = a.data
    out = np.logaddexp(0.0, ad)
    s = _sigmoid_np(ad)
    return _unary(a, out, lambda: s, "softplus")


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    a = _coerce(a)
    ad = a.data
    phi = 0.5 * (1.0 + _erf(ad / _SQRT2))
    out = ad * phi

    def dfn():
        return phi + ad * _INV_SQRT_2PI * np.exp(-0.5 * ad * ad)

    return _unary(a, out, dfn, "gelu")


# --------------------------------------------------------------------------
# Fused row-wise primitives
# --------------------------------------------------------------------------


def softmax_rows(a, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax with optional boolean keep-mask.

    mask[i, j] == True means entry (i, j) participates; masked entries come
    out exactly 0.  Stabilized by subtracting the row max over unmasked
    entries.  A fully masked row is a contract violation.
    """
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeError("softmax_rows expects a 2-D tensor")
    x = a.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise ShapeError(f"mask shape {mask.shape} != input shape {x.shape}")
        if not mask.any(axis=1).all():
            bad = int(np.argmin(mask.any(axis=1)))
            raise ContractError(f"softmax_rows: row {bad} is fully masked")
        x = np.where(mask, x, -np.inf)
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    if mask is not None:
        e = np.where(mask, e, 0.0)
    p = e / e.sum(axis=1, keepdims=True)
    _meter_elementwise("softmax", p.size)

    def vjp(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return _node(p, (a,), vjp)


def log_softmax_rows(a) -> Tensor:
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeError("log_softmax_rows expects a 2-D tensor")
    x = a.data
    m = x.max(axis=1, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    p = np.exp(out)
    _meter_elementwise("log_softmax", out.size)

    def vjp(g):
        return (g - p * g.sum(axis=1, keepdims=True),)

    return _node(out, (a,), vjp)


def layer_norm(a, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ContractError("layer_norm: eps must be positive")
    a, gain, bias = _coerce(a), _coerce(gain), _coerce(bias)
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm: gain/bias must have shape [last_dim]")
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out = xhat * gain.data + bias.data
    _meter_elementwise("layer_norm", out.size)
    gd = gain.data

    def vjp(g):
        dxhat = g * gd
        red = tuple(range(x.ndim - 1))
        dgain = (g * xhat).sum(axis=red)
        dbias = g.sum(axis=red)
        mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
        return (dx, dgain, dbias)

    return _node(out, (a, gain, bias), vjp)


# --------------------------------------------------------------------------
# Reverse pass
# --------------------------------------------------------------------------


class GradTape:
    """Topologically ordered record of the graph reaching one root tensor.

    `nodes` lists every recorded tensor with all parents preceding it;
    `adjoints` holds one buffer per node, filled in by `run()`.
    """

    def __init__(self, root: Tensor):
        self.root = root
        self.nodes: list[Tensor] = []
        self.adjoints: dict[int, np.ndarray] = {}
        visited: set[int] = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.nodes.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

    def run(self) -> dict[int, np.ndarray]:
        """Propagate adjoints from the root back to every reachable node."""
        adj = self.adjoints
        adj[id(self.root)] = np.ones_like(self.root.data)
        for node in reversed(self.nodes):
            g = adj.get(id(node))
            if g is None or node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None:
                    continue
                cur = adj.get(id(p))
                adj[id(p)] = pg if cur is None else cur + pg
        return adj


def backward(loss: Tensor, accumulate: bool = False) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Populates `.grad` on every reachable requires_grad leaf and returns a
    map from those leaves to their adjoints.  With accumulate=True existing
    `.grad` buffers are added to instead of replaced.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape = GradTape(loss)
    adj = tape.run()
    grads: dict[Tensor, np.ndarray] = {}
    for node in tape.nodes:
        if node.requires_grad and node._vjp is None:
            g = adj.get(id(node))
            if g is None:
                continue
            g = g.reshape(node.shape)
            if accumulate and node.grad is not None:
                node.grad = node.grad + g
            else:
                node.grad = g.copy()
            grads[node] = node.grad
    return grads


def finite_diff_grad(f, x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle: (f(x+h e_i) - f(x-h e_i)) / 2h.

    `f` maps a Tensor to a scalar (float or 0-d Tensor).  Evaluations run
    with grad disabled; the function must not retain references to the
    probe tensors.
    """

    def evaluate(arr: np.ndarray) -> float:
        with no_grad():
            out = f(Tensor(arr))
        return out.item() if isinstance(out, Tensor) else float(out)

    base = x.data
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        probe = base.copy().reshape(-1)
        probe[i] += h
        fp = evaluate(probe.reshape(base.shape))
        probe[i] -= 2 * h
        fm = evaluate(probe.reshape(base.shape))
        flat[i] = (fp - fm) / (2.0 * h)
    return grad
