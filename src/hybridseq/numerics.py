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
    "first_bad_row",
    "backward",
    "finite_diff_grad",
    "new_rng",
    "matmul",
    "matmul_t",
    "rows_product",
    "bmatmul",
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
    "exp",
    "expm1",
    "custom_op",
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

class _ModeState(threading.local):
    """Per-thread switches; a thread that sets neither reads these defaults."""

    grad_enabled = True
    meter = None


_LOCAL = _ModeState()


def is_grad_enabled() -> bool:
    return _LOCAL.grad_enabled


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / benchmarking)."""
    prev = _LOCAL.grad_enabled
    _LOCAL.grad_enabled = False
    try:
        yield
    finally:
        _LOCAL.grad_enabled = prev


def first_bad_row(*arrays: np.ndarray) -> int | None:
    """Index of the first row that is non-finite in any of the arrays."""
    if all(np.isfinite(a).all() for a in arrays):
        return None
    bad = np.zeros(arrays[0].shape[0], dtype=bool)
    for a in arrays:
        bad |= ~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


# Per-element FLOP charges for non-matmul primitives.  Values are a fixed
# accounting convention, not hardware truth; they only need to be applied
# consistently by both the meter and the analytic cost model.
FLOP_COST = {
    "add": 1,
    "sub": 1,
    "mul": 1,
    "div": 1,
    "exp": 1,
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


@contextmanager
def count_flops():
    """Install a fresh FlopMeter for the block and yield it."""
    prev = _LOCAL.meter
    meter = _LOCAL.meter = FlopMeter()
    try:
        yield meter
    finally:
        _LOCAL.meter = prev


def meter_add(kind: str, n: float) -> None:
    """Report `n` FLOPs of the given kind to the active meter, if any.

    Public so that fused fast paths (e.g. blocked attention) can report the
    same counts as the equivalent primitive composition would.
    """
    meter = _LOCAL.meter
    if meter is not None:
        meter.add(kind, n)


def _meter_elementwise(kind: str, n_elements: int) -> None:
    meter = _LOCAL.meter
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
        if _vjp is None and not np.isfinite(arr).all():
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

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def new_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox); callers thread it explicitly."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# --------------------------------------------------------------------------
# Graph construction helpers
# --------------------------------------------------------------------------


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """Wrap an op result; record the graph only when grads are live."""
    if _LOCAL.grad_enabled and any(p.requires_grad for p in parents):
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

    `vjp(g)` must return one gradient per parent, computed in raw numpy,
    and None (without computing it) for a parent whose `requires_grad` is
    False.  Used for fused operations whose reverse pass is cheaper or
    numerically cleaner written by hand (e.g. the state-space scan).
    """
    return _node(np.asarray(data, dtype=np.float64), tuple(parents), vjp)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad is None or grad.shape == shape:
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
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data - b.data
    _meter_elementwise("sub", out.size)

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data * b.data
    _meter_elementwise("mul", out.size)
    ad, bd = a.data, b.data

    def vjp(g):
        return (_unbroadcast(g * bd, a.shape) if a.requires_grad else None,
                _unbroadcast(g * ad, b.shape) if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data / b.data
    _meter_elementwise("div", out.size)
    ad, bd = a.data, b.data

    def vjp(g):
        return (
            _unbroadcast(g / bd, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * ad / (bd * bd), b.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), vjp)


def rows_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D arrays, with each row rounded as in a product of many
    rows.  numpy hands a one-row product to gemv, which rounds differently
    from gemm; two rows keep it on gemm, so a row's result does not depend
    on how many rows share the call.  That keeps decode's one-row keys and
    values bit-identical to the rows prefill projects."""
    return (np.concatenate([a, a]) @ b)[:1] if a.shape[0] == 1 else a @ b


def matmul(a, b) -> Tensor:
    """Strict 2-D matrix product [m,k] x [k,n] -> [m,n]."""
    a, b = _coerce(a), _coerce(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} x {bd.shape}")
    out = rows_product(ad, bd)
    meter_add("matmul", 2.0 * ad.shape[1] * out.size)

    def vjp(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def matmul_t(a, b) -> Tensor:
    """a @ b^T for 2-D operands [m,k] x [n,k] -> [m,n], reading b in place
    (a tied output head multiplies by the embedding table this way)."""
    a, b = _coerce(a), _coerce(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[1]:
        raise ShapeError(f"matmul_t expects [m,k] x [n,k], got {ad.shape} and {bd.shape}")
    out = rows_product(ad, bd.T)
    meter_add("matmul", 2.0 * ad.shape[1] * out.size)

    def vjp(g):  # b's gradient rounds as matmul(a, permute(b, (1, 0))) gives it
        return (g @ bd if a.requires_grad else None,
                (ad.T @ g).T if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def bmatmul(a, b) -> Tensor:
    """Batched matrix product [..., m, k] x [..., k, n] -> [..., m, n].

    Leading (batch) axes broadcast as in `np.matmul`; each batch element is
    one BLAS call, so this is the form to reach for when a contraction has
    shared batch axes.
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
        ga = np.matmul(g, np.swapaxes(bd, -1, -2)) if a.requires_grad else None
        gb = np.matmul(np.swapaxes(ad, -1, -2), g) if b.requires_grad else None
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return _node(out, (a, b), vjp)


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
    """Concatenate along axis 0; a part whose adjoint rows are all zero gets none."""
    parts = [_coerce(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.shape[0] for p in parts]

    def vjp(g):
        grads = []
        off = 0
        for p, n in zip(parts, sizes):
            gp = g[off : off + n]
            grads.append(gp if p.requires_grad and gp.any() else None)
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
        for p, n in zip(parts, sizes):
            grads.append(g[:, off : off + n] if p.requires_grad else None)
            off += n
        return tuple(grads)

    return _node(out, tuple(parts), vjp)


class _RowSlice:
    """The adjoint of a row slice: `g` in rows lo:hi of the parent, zero
    elsewhere.  `GradTape.run` adds it in place instead of building the
    parent-sized array."""

    __slots__ = ("lo", "hi", "g")

    def __init__(self, lo: int, hi: int, g: np.ndarray):
        self.lo, self.hi, self.g = lo, hi, g


def slice_rows(a, lo: int, hi: int) -> Tensor:
    a = _coerce(a)
    out = a.data[lo:hi].copy()

    def vjp(g):
        return (_RowSlice(lo, hi, g),)

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


def tsum(a) -> Tensor:
    """The sum of every element, a 0-d tensor."""
    a = _coerce(a)
    out = a.data.sum()
    _meter_elementwise("sum", a.size)
    shape = a.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _node(np.asarray(out), (a,), vjp)


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


def expm1(a) -> Tensor:
    """e^x - 1, accurate near x = 0."""
    a = _coerce(a)
    out = np.expm1(a.data)
    return _unary(a, out, lambda: out + 1.0, "exp")


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    out = _sigmoid_np(a.data)
    return _unary(a, out, lambda: out * (1.0 - out), "sigmoid")


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) in place, without masks: below x = -709 the exponential
    # overflows to inf and 1 / inf is the exact limit, 0.
    out = np.negative(x, out=np.empty(np.shape(x)))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


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

# erf's rational approximations from Cephes `ndtr.c` (S. L. Moshier), each
# evaluated by Horner's rule from its first entry: x T(x^2) / U(x^2) for
# |x| <= 1 and 1 - e^(-x^2) P(|x|) / Q(|x|) for 1 < |x| < 8.  U and Q are
# monic.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERF_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
          3.54937778887819891062E2, 9.75708501743205489753E2, 1.82390916687909736289E3,
          2.24633760818710981792E3, 1.65666309194161350182E3, 5.57535340817727675546E2)
# Values per call of `_erf`.  Its temporaries are [4 * tile] arrays, and a
# tile this size keeps each one cache-sized.
_ERF_TILE = 2048
# The four polynomials run as one Horner over [value, (T, U, P, Q)], with
# T and U padded by leading zeros, which leaves every result exact.  Row k
# holds entry k of each for every value of a tile, so the first 4n entries
# of a row serve any n values and every operand is contiguous.
_ERF_COEF = np.tile(
    np.array([(0.0,) * (9 - len(c)) + c for c in (_ERF_T, _ERF_U, _ERF_P, _ERF_Q)]).T,
    (1, _ERF_TILE))


# Constants of the per-tile numpy calls below, as 0-d arrays: numpy takes a
# Python float operand through a slower scalar path.
_ONE, _HALF, _EIGHT, _SQRT2_0D = (np.array(v) for v in (1.0, 0.5, 8.0, _SQRT2))


def _erf(z: np.ndarray) -> np.ndarray:
    """erf of a 1-D float64 array of at most `_ERF_TILE` values, by Cephes'
    algorithm (the one `scipy.special.erf` runs) in numpy alone.  Each value's
    result depends on that value only.  Both branches run on every value,
    from |z| clamped to [0, 8], so no value overflows or warns; past
    |z| = 5.9 the second rounds to exactly 1.  -0 and NaN pass through.

    A call is 30 numpy calls whatever its size, and on one row their
    dispatch, not their arithmetic, sets its time.  16 are the Horner
    steps: one call per rounded operation, so that each result rounds as
    Cephes' does."""
    n = z.shape[0]
    c = np.abs(z)
    np.minimum(c, _EIGHT, out=c)
    small = c <= _ONE  # the first branch's values; False for NaN
    cc = c * c
    # one Horner argument for all four polynomials: z^2 where |z| <= 1, else
    # min(|z|, 8); each branch reads only the values it is taken for
    arg = np.minimum(cc, c).repeat(4)
    coef = _ERF_COEF[:, : 4 * n]
    acc = arg * coef[0]
    acc += coef[1]
    for k in range(2, 9):
        acc *= arg
        acc += coef[k]
    m = np.empty(2 * n)  # per value: the first branch's factor, the second's
    m[0::2] = c
    np.negative(cc, out=cc)
    np.exp(cc, out=m[1::2])
    m *= acc[0::2]
    m /= acc[1::2]  # per value: |z| T / U, e^(-z^2) P / Q
    out = m[1::2]
    np.subtract(_ONE, out, out=out)
    np.copyto(out, m[0::2], where=small)
    return np.copysign(out, z)


def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit, x Phi(x) with Phi(x) = (1 + erf(x /
    sqrt 2)) / 2 (Hendrycks & Gimpel, arXiv 1606.08415).

    erf is `_erf`, Cephes' algorithm in numpy.  Against `scipy.special.erf`
    (numpy 2.4 on an AVX-512 Xeon) it is bit-identical on 99.95% of 4e6
    uniform points in [-7, 7] and on every |x| <= 1, and 1 ulp off on the
    rest, all in 1 < |x| < 2.9, where numpy's exp rounds differently from
    libm's.  The input is walked `_ERF_TILE` values at a time, so a no-grad
    GELU holds its output and one tile of temporaries; under grad Phi is
    kept for the reverse pass.  Each value's result is the same alone or
    inside any block."""
    a = _coerce(a)
    ad = a.data
    out = np.empty(ad.shape)
    phi = np.empty(ad.shape) if _LOCAL.grad_enabled and a.requires_grad else None
    flat, out_flat = ad.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _ERF_TILE):
        x = flat[lo : lo + _ERF_TILE]
        p = _erf(x / _SQRT2_0D)
        p += _ONE
        p *= _HALF
        np.multiply(x, p, out=out_flat[lo : lo + _ERF_TILE])
        if phi is not None:
            phi.reshape(-1)[lo : lo + _ERF_TILE] = p

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
    # sum / d rounds as np.mean does (test-pinned) without its Python wrapper
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out = xhat * gain.data + bias.data
    _meter_elementwise("layer_norm", out.size)
    gd = gain.data

    def vjp(g):
        red = tuple(range(x.ndim - 1))
        dgain = (g * xhat).sum(axis=red) if gain.requires_grad else None
        dbias = g.sum(axis=red) if bias.requires_grad else None
        dx = None
        if a.requires_grad:
            dxhat = g * gd
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
        """Propagate adjoints from the root back to every reachable node.

        A row-slice adjoint is added in place into a buffer only the tape
        holds; an adjoint a VJP handed over may be shared (`add` gives the
        same array to both parents), so it is copied before the first such
        write."""
        adj = self.adjoints
        owned: set[int] = set()  # ids whose buffer no other adjoint shares
        adj[id(self.root)] = np.ones_like(self.root.data)
        for node in reversed(self.nodes):
            g = adj.get(id(node))
            if g is None or node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None:
                    continue
                key = id(p)
                cur = adj.get(key)
                if isinstance(pg, _RowSlice):
                    if cur is None:
                        cur = adj[key] = np.zeros(p.shape)
                        cur[pg.lo : pg.hi] = pg.g
                        owned.add(key)
                        continue
                    if key not in owned:
                        cur = adj[key] = cur.copy()
                        owned.add(key)
                    cur[pg.lo : pg.hi] += pg.g
                elif cur is None:
                    adj[key] = pg
                else:
                    adj[key] = cur + pg
                    owned.add(key)
        return adj


def backward(loss: Tensor, accumulate: bool = False) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Populates `.grad` on every reachable requires_grad leaf and returns a
    map from those leaves to their adjoints (zeros where no adjoint reached
    one).  With accumulate=True existing `.grad` buffers are added to
    instead of replaced.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape = GradTape(loss)
    adj = tape.run()
    grads: dict[Tensor, np.ndarray] = {}
    for node in tape.nodes:
        if node.requires_grad and node._vjp is None:
            g = adj.get(id(node))
            g = np.zeros(node.shape) if g is None else g.reshape(node.shape)
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
