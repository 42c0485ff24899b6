"""State-space sequence primitives: discretization, selective scans, blocks.

Two block variants are supported:

* ``mamba1`` -- per-channel diagonal state matrix (n_state 16 by default),
  zero-order-hold discretization of both the decay and the input path.
* ``mamba2`` -- scalar-times-identity state matrix per head (n_state 64,
  multi-head), decay discretized exactly, input path by the Euler step
  ``b_bar = delta * B``; this structure admits the chunked, matmul-bound
  state-space-dual scan (`scan_chunked_ssd`).

Both variants share the selective parameterization: the step size, input
projection and readout (delta_t, B_t, C_t) are functions of the current
input.

Which scan runs where:

* `mamba_block_forward` runs mamba2 on the chunked core `_ssd_scan` (chunk
  `SSD_CHUNK`) in prefill, evaluation and training alike; it is built from
  `numerics` ops, so it records a graph under grad and meters its FLOPs.
  mamba1 runs on `scan_sequential`.
* `scan_sequential` -- the per-token recurrence, with the fused
  `linear_recurrence` primitive on the recorded path -- is the oracle the
  chunked core is tested against; no mamba2 path depends on it.

`SSMState` carries the hidden state `h`, the convolution tail and, after a
chunked scan, the open chunk (`OpenChunk`: the state at the chunk's start
plus its consumed rows of dA, B and x*delta).  The chunk grid is anchored at
absolute positions and every chunk is evaluated at full width, so for a
fixed chunk size a stream scanned in pieces is bit-identical to one scanned
whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as ng
from .numerics import ContractError, NumericError, Tensor

__all__ = [
    "MAMBA1",
    "MAMBA2",
    "SSMParams",
    "SSMState",
    "OpenChunk",
    "hippo_init",
    "zoh_discretize",
    "linear_recurrence",
    "scan_sequential",
    "scan_chunked_ssd",
    "mamba_block_forward",
    "init_ssm_params",
]

MAMBA1 = "mamba1"
MAMBA2 = "mamba2"

CONV_WIDTH = 4
EXPAND = 2
SSD_CHUNK = 64  # rows per chunk of the mamba2 block's scan
_SSD_GROUP = 16  # chunks the chunked scan evaluates at once


# --------------------------------------------------------------------------
# Parameters and state
# --------------------------------------------------------------------------


@dataclass
class SSMParams:
    """Parameters of one state-space block.

    `a_log` stores log(-a); the state matrix entries are recovered as
    a = -exp(a_log), which keeps them strictly negative under any gradient
    update.  Shape of `a_log` is [d_inner, n_state] for mamba1 and
    [n_heads] for mamba2.
    """

    variant: str
    d_model: int
    d_inner: int
    n_state: int
    n_heads: int
    norm_gain: Tensor
    norm_bias: Tensor
    w_in: Tensor  # [d_model, 2*d_inner] -> [ssm branch | gate branch]
    conv_w: Tensor  # [CONV_WIDTH, d_inner]; row CONV_WIDTH-1 taps the current token
    w_delta: Tensor  # [d_inner, n_delta]; n_delta = d_inner (m1) or n_heads (m2)
    delta_bias: Tensor  # [n_delta]
    w_b: Tensor  # [d_inner, n_state]
    w_c: Tensor  # [d_inner, n_state]
    a_log: Tensor
    w_out: Tensor  # [d_inner, d_model]

    @property
    def head_dim(self) -> int:
        return self.d_inner // self.n_heads

    @property
    def n_delta(self) -> int:
        return self.d_inner if self.variant == MAMBA1 else self.n_heads

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.norm.gain": self.norm_gain,
            f"{prefix}.norm.bias": self.norm_bias,
            f"{prefix}.w_in": self.w_in,
            f"{prefix}.conv_w": self.conv_w,
            f"{prefix}.w_delta": self.w_delta,
            f"{prefix}.delta_bias": self.delta_bias,
            f"{prefix}.w_b": self.w_b,
            f"{prefix}.w_c": self.w_c,
            f"{prefix}.a_log": self.a_log,
            f"{prefix}.w_out": self.w_out,
        }


@dataclass
class OpenChunk:
    """The unfinished chunk of a chunked scan: the state at its start
    boundary and the rows it has consumed so far."""

    h: np.ndarray  # [n_heads, head_dim, n_state]
    da: np.ndarray  # [r, n_heads]
    b: np.ndarray  # [r, n_state]
    xdt: np.ndarray  # [r, n_heads, head_dim]

    def copy(self) -> "OpenChunk":
        return OpenChunk(self.h.copy(), self.da.copy(), self.b.copy(), self.xdt.copy())


@dataclass
class SSMState:
    """Running state of one block: SSM hidden state plus convolution tail,
    and the open chunk of the chunked scan (None at a chunk boundary)."""

    h: np.ndarray  # [n_heads, head_dim, n_state]
    conv_tail: np.ndarray  # [CONV_WIDTH-1, d_inner], most recent input last
    position: int = 0
    open_chunk: OpenChunk | None = None

    def copy(self) -> "SSMState":
        oc = None if self.open_chunk is None else self.open_chunk.copy()
        return SSMState(self.h.copy(), self.conv_tail.copy(), self.position, oc)


def init_state(params: SSMParams) -> SSMState:
    return SSMState(
        h=np.zeros((params.n_heads, params.head_dim, params.n_state)),
        conv_tail=np.zeros((CONV_WIDTH - 1, params.d_inner)),
        position=0,
    )


def hippo_init(n_state: int) -> np.ndarray:
    """Real diagonal initialization a_n = -(n+1), n = 0..n_state-1."""
    if n_state < 1:
        raise ContractError("hippo_init: n_state must be >= 1")
    return -np.arange(1.0, n_state + 1.0)


def _inv_softplus(y: np.ndarray) -> np.ndarray:
    return np.log(np.expm1(y))


def init_ssm_params(
    rng: np.random.Generator,
    d_model: int,
    variant: str,
    n_state: int | None = None,
    n_heads: int | None = None,
    out_init_std: float = 0.0,
) -> SSMParams:
    """Build a block; `w_out` defaults to zeros so a fresh block starts as
    the identity map (pure residual), which keeps a newly grafted block from
    disturbing a pretrained stack."""
    if variant not in (MAMBA1, MAMBA2):
        raise ContractError(f"unknown ssm variant {variant!r}")
    d_inner = EXPAND * d_model
    if n_state is None:
        n_state = 16 if variant == MAMBA1 else 64
    if n_heads is None:
        n_heads = 1 if variant == MAMBA1 else 4
    if variant == MAMBA1 and n_heads != 1:
        raise ContractError("mamba1 is single-head")
    if d_inner % n_heads != 0:
        raise ContractError("n_heads must divide the expanded width")

    n_delta = d_inner if variant == MAMBA1 else n_heads
    std_in = 1.0 / math.sqrt(d_model)
    std_inner = 1.0 / math.sqrt(d_inner)

    if variant == MAMBA1:
        a_log = np.log(-np.broadcast_to(hippo_init(n_state), (d_inner, n_state)))
    else:
        a_log = np.log(np.arange(1.0, n_heads + 1.0))

    # delta at init lands in [1e-3, 1e-1] (log-uniform), standard for
    # selective scans; the delta projection is kept small so the bias
    # dominates at initialization.
    dt = np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), size=n_delta))

    def t(arr):
        return Tensor(arr, requires_grad=True)

    return SSMParams(
        variant=variant,
        d_model=d_model,
        d_inner=d_inner,
        n_state=n_state,
        n_heads=n_heads,
        norm_gain=t(np.ones(d_model)),
        norm_bias=t(np.zeros(d_model)),
        w_in=t(rng.standard_normal((d_model, 2 * d_inner)) * std_in),
        conv_w=t(rng.standard_normal((CONV_WIDTH, d_inner)) * 0.5),
        w_delta=t(rng.standard_normal((d_inner, n_delta)) * (0.1 * std_inner)),
        delta_bias=t(_inv_softplus(dt)),
        w_b=t(rng.standard_normal((d_inner, n_state)) * std_inner),
        w_c=t(rng.standard_normal((d_inner, n_state)) * std_inner),
        a_log=t(a_log),
        w_out=t(rng.standard_normal((d_inner, d_model)) * out_init_std),
    )


# --------------------------------------------------------------------------
# Discretization
# --------------------------------------------------------------------------


def zoh_discretize(a, b, delta):
    """Zero-order-hold discretization of h' = a h + b u over step `delta`.

    Returns (a_bar, b_bar) with a_bar = exp(delta a) and
    b_bar = ((exp(delta a) - 1) / a) b, evaluated through expm1 so the
    a -> 0 limit b_bar -> delta b holds to machine precision.  Accepts
    scalars or broadcasting arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if np.any(delta <= 0):
        raise ContractError("zoh_discretize: delta must be positive")
    x = delta * a
    a_bar = np.exp(x)
    # expm1(x)/x -> 1 as x -> 0; guard the exact-zero case.
    ratio = np.where(x == 0.0, 1.0, np.expm1(x) / np.where(x == 0.0, 1.0, x))
    b_bar = delta * ratio * b
    if a_bar.ndim == 0:
        return float(a_bar), float(b_bar)
    return a_bar, b_bar


# --------------------------------------------------------------------------
# Fused linear recurrence (the scan core)
# --------------------------------------------------------------------------


def linear_recurrence(decay, inputs, h0: np.ndarray) -> Tensor:
    """All states of S_t = decay_t * S_{t-1} + inputs_t, S_0 = h0.

    `inputs` is [T, *state]; `decay` is [T, *broadcastable-to-state].  The
    initial state is a constant (no gradient flows to it).  Returns the
    stacked states [T, *state].  One graph node regardless of T.
    """
    decay = decay if isinstance(decay, Tensor) else Tensor(decay)
    inputs = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    e, u = decay.data, inputs.data
    T = u.shape[0]
    if e.shape[0] != T:
        raise ContractError("linear_recurrence: decay and inputs disagree on T")
    out = np.empty_like(u)
    s = h0
    for t in range(T):
        s = e[t] * s + u[t]
        out[t] = s
    ng.meter_add("mul", 2.0 * u.size)

    def vjp(g):
        gu = np.empty_like(u)
        ge = np.zeros_like(np.broadcast_to(e, u.shape))
        a = np.zeros_like(u[0])
        for t in range(T - 1, -1, -1):
            a = a + g[t]
            gu[t] = a
            ge[t] = a * (out[t - 1] if t > 0 else h0)
            a = e[t] * a
        return (ng._unbroadcast(ge, e.shape), gu)

    return ng.custom_op(out, (decay, inputs), vjp)


# --------------------------------------------------------------------------
# Selective scans
# --------------------------------------------------------------------------


def _selective_inputs(params: SSMParams, x: Tensor):
    """Input-dependent delta/B/C projections, shared by every scan path."""
    delta = ng.softplus(ng.matmul(x, params.w_delta) + params.delta_bias)
    b = ng.matmul(x, params.w_b)
    c = ng.matmul(x, params.w_c)
    return delta, b, c


def _recording(params: SSMParams, x: Tensor) -> bool:
    return ng.is_grad_enabled() and (x.requires_grad or params.w_in.requires_grad)


def scan_sequential(params: SSMParams, x: Tensor, state: SSMState | None = None):
    """Exact left-to-right selective scan over x [T, d_inner].

    Returns (y [T, d_inner], final SSMState).  The returned state allows
    seamless continuation: scanning a split sequence with the carried state
    reproduces the monolithic scan.
    """
    if state is None:
        state = init_state(params)
    T = x.shape[0]
    h, p, n = params.n_heads, params.head_dim, params.n_state
    if T == 0:
        return ng.slice_rows(x, 0, 0), state.copy()

    delta, b, c = _selective_inputs(params, x)

    if _recording(params, x):
        a_neg = ng.mul(ng.exp(params.a_log), -1.0)
        if params.variant == MAMBA1:
            # dA[t,c,n] = delta[t,c] * a[c,n]; full ZOH on the input path.
            da = ng.einsum2("tc,cn->tcn", delta, a_neg)
            e = ng.exp(da)
            coeff = ng.div(ng.expm1(da), a_neg)
            u = ng.mul(
                ng.mul(coeff, ng.reshape(b, (T, 1, n))), ng.reshape(x, (T, params.d_inner, 1))
            )
            s_all = linear_recurrence(e, u, state.h.reshape(params.d_inner, n))
            y = ng.einsum2("tcn,tn->tc", s_all, c)
            h_final = s_all.data[-1].reshape(h, p, n)
        else:
            # dA[t,h] = delta[t,h] * a[h]; Euler input path b_bar = delta*B.
            da = ng.einsum2("th,h->th", delta, a_neg)
            e = ng.reshape(ng.exp(da), (T, h, 1, 1))
            x3 = ng.reshape(x, (T, h, p))
            xdt = ng.mul(x3, ng.reshape(delta, (T, h, 1)))
            u = ng.einsum2("thp,tn->thpn", xdt, b)
            s_all = linear_recurrence(e, u, state.h)
            y3 = ng.einsum2("thpn,tn->thp", s_all, c)
            y = ng.reshape(y3, (T, params.d_inner))
            h_final = s_all.data[-1]
        if not np.all(np.isfinite(s_all.data)):
            bad = int(np.argwhere(~np.isfinite(s_all.data).reshape(T, -1).all(axis=1))[0, 0])
            raise NumericError(f"scan produced non-finite state at token {state.position + bad}")
    else:
        y_np, h_final = _scan_streaming(
            params, x.data, delta.data, b.data, c.data, state.h, state.position
        )
        y = Tensor(y_np)

    new_state = SSMState(h=h_final.copy(), conv_tail=state.conv_tail.copy(),
                         position=state.position + T)
    return y, new_state


def _scan_streaming(params, x, delta, b, c, h0, position):
    """No-graph scan: per-step updates without materializing [T, ...] buffers."""
    T = x.shape[0]
    hh, p, n = params.n_heads, params.head_dim, params.n_state
    a_neg = -np.exp(params.a_log.data)
    y = np.empty((T, params.d_inner))
    if params.variant == MAMBA1:
        s = h0.reshape(params.d_inner, n)
        per_step = params.d_inner * n * 9 + params.d_inner * n * 2
        for t in range(T):
            da = delta[t][:, None] * a_neg
            e = np.exp(da)
            u = (np.expm1(da) / a_neg) * b[t][None, :] * x[t][:, None]
            s = e * s + u
            yt = s @ c[t]
            if not np.isfinite(yt).all():
                raise NumericError(f"scan produced non-finite state at token {position + t}")
            y[t] = yt
        h_final = s.reshape(hh, p, n)
    else:
        s = h0.copy()
        per_step = hh * p * n * 5 + hh * p * n * 2
        for t in range(T):
            e = np.exp(delta[t] * a_neg)
            u = (delta[t][:, None] * x[t].reshape(hh, p))[:, :, None] * b[t][None, None, :]
            s = e[:, None, None] * s + u
            yt = (s @ c[t]).reshape(-1)
            if not np.isfinite(yt).all():
                raise NumericError(f"scan produced non-finite state at token {position + t}")
            y[t] = yt
        h_final = s
    ng.meter_add("mul", float(per_step) * T)
    return y, h_final


def _boundary_states(decay: Tensor, s: Tensor, h0: Tensor) -> Tensor:
    """States at the chunk boundaries: H_0 = h0, H_{k+1} = decay_k H_k + S_k.

    `decay` is [K, heads], `s` is [K, heads, ...] and `h0` is [heads, ...].
    Returns H_0..H_K, [K+1, heads, ...], as one graph node.
    """
    e, u = decay.data, s.data
    K = u.shape[0]
    e_b = e.reshape(e.shape + (1,) * (u.ndim - e.ndim))
    out = np.empty((K + 1,) + u.shape[1:])
    out[0] = h0.data
    for k in range(K):
        out[k + 1] = e_b[k] * out[k] + u[k]
    ng.meter_add("mul", 2.0 * u.size)

    def vjp(g):
        gs = np.empty_like(u)
        ge = np.empty_like(e)
        acc = g[K]
        for k in range(K - 1, -1, -1):
            gs[k] = acc
            ge[k] = (acc * out[k]).reshape(e.shape[1], -1).sum(axis=1)
            acc = e_b[k] * acc + g[k]
        return (ge, gs, acc)

    return ng.custom_op(out, (decay, s, h0), vjp)


def _first_bad_row(*arrays: np.ndarray) -> int | None:
    """Index of the first row that is non-finite in any of the arrays."""
    with np.errstate(invalid="ignore", over="ignore"):
        if all(np.isfinite(a.sum()) for a in arrays):  # NaN and inf survive a sum
            return None
    bad = np.zeros(arrays[0].shape[0], dtype=bool)
    for a in arrays:
        bad |= ~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def _ssd_chunks(da: Tensor, b: Tensor, c: Tensor, xdt: Tensor, h0: Tensor, q: int):
    """Whole chunks of the scan, from the state h0 [heads, n_state, head_dim].

    Takes the rows of dA [K*q, heads], B and C [K*q, n_state] and x*delta
    [K*q, heads, head_dim].  Returns (y [K*q, heads*head_dim], the state at
    each chunk's start [K, heads, n_state, head_dim], the end state).
    """
    K = da.shape[0] // q
    hh, n, p = h0.shape

    # chunk-local inclusive cumulative log-decay; row axis first for cumsum0
    cum_q = ng.cumsum0(ng.permute(ng.reshape(da, (K, q, hh)), (1, 0, 2)))  # [q, K, h]
    total = ng.slice_rows(cum_q, q - 1, q)  # [1, K, h], log-decay over each chunk
    cum = ng.permute(cum_q, (1, 2, 0))  # [K, h, q]
    b_t = ng.permute(ng.reshape(b, (K, q, n)), (0, 2, 1))  # [K, n, q]
    c_k = ng.reshape(c, (K, q, n))
    xh = ng.permute(ng.reshape(xdt, (K, q, hh, p)), (0, 2, 1, 3))  # [K, h, q, p]

    # intra-chunk: decay(t, s) = exp(cum_t - cum_s) for s <= t.  The diffs
    # above the diagonal are positive and may overflow, so they are zeroed
    # before exp; the causal mask itself goes on the head-shared scores.
    lower = np.tril(np.ones((q, q)))
    diff = ng.sub(ng.reshape(cum, (K, hh, q, 1)), ng.reshape(cum, (K, hh, 1, q)))
    scores = ng.mul(ng.bmatmul(c_k, b_t), lower)  # [K, q, q]
    w = ng.mul(ng.exp(ng.mul(diff, lower)), ng.reshape(scores, (K, 1, q, q)))
    y = ng.bmatmul(w, xh)

    # chunk boundaries: each chunk's own contribution to its end state,
    # S_k = sum_s exp(total - cum_s) B_s (x dt)_s, kept as [K, h, n, p]
    to_end = ng.permute(ng.exp(ng.sub(total, cum_q)), (1, 2, 0))  # [K, h, q]
    s_k = ng.bmatmul(ng.reshape(b_t, (K, 1, n, q)), ng.mul(xh, ng.reshape(to_end, (K, hh, q, 1))))
    states = _boundary_states(ng.exp(ng.reshape(total, (K, hh))), s_k, h0)
    starts = ng.slice_rows(states, 0, K)

    # read out the state carried into each chunk: C_t exp(cum_t) H_k
    y_state = ng.bmatmul(ng.reshape(c_k, (K, 1, q, n)), starts)
    y = ng.add(y, ng.mul(y_state, ng.reshape(ng.exp(cum), (K, hh, q, 1))))
    y = ng.reshape(ng.permute(y, (0, 2, 1, 3)), (K * q, hh * p))
    return y, starts, ng.reshape(ng.slice_rows(states, K, K + 1), (hh, n, p))


def _ssd_scan(params: SSMParams, x: Tensor, state: SSMState, chunk: int):
    """Chunked state-space-dual scan of mamba2 over x [T, d_inner].

    Within a chunk the scan is a masked matrix form, y = (L o C B^T) (x dt)
    with L[t, s] = exp(sum of dA over s+1..t); between chunks only the
    boundary states are passed on (Mamba-2, arXiv 2405.21060, sec. 6), so
    nothing of size [T, heads, head_dim, n_state] is kept, with or without
    grad.  Each chunk is laid out head-major, so every contraction is one
    batched matmul, and at most `_SSD_GROUP` chunks are evaluated at once,
    which bounds the working set at long inputs.

    The grid continues `state`: its open chunk is finished first, every
    chunk is evaluated at full width with zero rows after the input, and
    the unfinished last chunk is carried in the returned state.  Returns
    (y [T, d_inner], SSMState).  Raises NumericError naming the first token
    whose inputs (dA, B, C, x dt) or output are non-finite, or the last
    token when only the final state is.
    """
    if params.variant != MAMBA2:
        raise ContractError("the chunked scan requires the mamba2 variant")
    if chunk <= 0:
        raise ContractError("chunked scan: chunk size must be positive")
    T = x.shape[0]
    hh, p, n = params.n_heads, params.head_dim, params.n_state
    if T == 0:
        return ng.slice_rows(x, 0, 0), state.copy()

    delta, b, c = _selective_inputs(params, x)
    a_neg = ng.mul(ng.exp(params.a_log), -1.0)
    da = ng.mul(delta, a_neg)  # [T, h], all entries < 0
    xdt = ng.mul(ng.reshape(x, (T, hh, p)), ng.reshape(delta, (T, hh, 1)))  # [T, h, p]
    bad = _first_bad_row(da.data, b.data, c.data, xdt.data)
    if bad is not None:
        raise NumericError(f"scan produced non-finite state at token {state.position + bad}")

    oc = state.open_chunk
    if oc is None:
        oc = OpenChunk(state.h, np.zeros((0, hh)), np.zeros((0, n)), np.zeros((0, hh, p)))
    r = oc.da.shape[0]
    q = chunk
    rows = -(-(r + T) // q) * q
    pad = rows - (r + T)

    def frame(carried: np.ndarray, t: Tensor) -> Tensor:
        # the open chunk's rows first, zero rows up to the chunk grid last
        parts = [Tensor(carried)] if r else []
        parts.append(t)
        if pad:
            parts.append(Tensor(np.zeros((pad,) + t.shape[1:])))
        return ng.concat_rows(parts) if len(parts) > 1 else t

    # carried rows read out nothing: their outputs were returned already
    framed = [frame(oc.da, da), frame(oc.b, b), frame(np.zeros((r, n)), c), frame(oc.xdt, xdt)]
    h = Tensor(oc.h.transpose(0, 2, 1))
    # allocated before the chunk temporaries: a small array that outlives
    # the call, allocated after them, can land among their freed blocks and
    # keep the allocator from returning that memory (peak RSS +6 MB at M=8192)
    h_final = np.empty((hh, p, n))
    ys, step = [], _SSD_GROUP * q
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        group = framed if step >= rows else [ng.slice_rows(t, lo, hi) for t in framed]
        y_g, starts, h = _ssd_chunks(*group, h, q)
        ys.append(y_g)
    y = ys[0] if len(ys) == 1 else ng.concat_rows(ys)
    if r or pad:
        y = ng.slice_rows(y, r, r + T)

    bad = _first_bad_row(y.data)
    h_final[...] = h.data.transpose(0, 2, 1)
    if bad is None and not np.all(np.isfinite(h_final)):
        bad = T - 1
    if bad is not None:
        raise NumericError(f"scan produced non-finite state at token {state.position + bad}")

    open_chunk = None
    if pad:
        lo, hi = rows - q, rows - pad
        open_chunk = OpenChunk(starts.data[-1].transpose(0, 2, 1).copy(),
                               *(t.data[lo:hi].copy() for t in (framed[0], framed[1], framed[3])))
    new_state = SSMState(h=h_final, conv_tail=state.conv_tail.copy(),
                         position=state.position + T, open_chunk=open_chunk)
    return y, new_state


def scan_chunked_ssd(params: SSMParams, x: Tensor, chunk: int) -> Tensor:
    """Chunked parallel scan (state-space dual form) from a zero state,
    mamba2 only: the output of `_ssd_scan`, numerically equivalent to
    `scan_sequential`."""
    return _ssd_scan(params, x, init_state(params), chunk)[0]


# --------------------------------------------------------------------------
# Full block
# --------------------------------------------------------------------------


def causal_conv4(params: SSMParams, xz: Tensor, tail: np.ndarray) -> Tensor:
    """Depthwise causal convolution of width 4 over time.

    y[t] = sum_j conv_w[j] * x_full[t + j] where x_full prepends the 3-row
    tail; conv_w's last row therefore multiplies the current token.
    """
    T = xz.shape[0]
    x_full = ng.concat_rows([Tensor(tail), xz])
    taps = []
    for j in range(CONV_WIDTH):
        w_j = ng.slice_rows(params.conv_w, j, j + 1)  # [1, d_inner] broadcasts
        taps.append(ng.mul(ng.slice_rows(x_full, j, j + T), w_j))
    y = taps[0]
    for t in taps[1:]:
        y = ng.add(y, t)
    return y


def mamba_block_forward(params: SSMParams, x: Tensor, state: SSMState | None = None):
    """Full residual block over x [T, d_model].

    pre-LN -> input projection (expand x2, splitting an SSM branch and a
    gate branch) -> width-4 causal depthwise convolution -> SiLU ->
    selective scan -> SiLU-gated multiply -> output projection -> residual.
    Causal end to end; the returned state resumes the stream.
    """
    if x.shape[1] != params.d_model:
        raise ContractError(
            f"block width mismatch: input {x.shape[1]}, block {params.d_model}"
        )
    if state is None:
        state = init_state(params)
    T = x.shape[0]

    x_ln = ng.layer_norm(x, params.norm_gain, params.norm_bias)
    proj = ng.matmul(x_ln, params.w_in)
    xz = ng.slice_cols(proj, 0, params.d_inner)
    gate = ng.slice_cols(proj, params.d_inner, 2 * params.d_inner)

    conv_out = causal_conv4(params, xz, state.conv_tail)
    u = ng.silu(conv_out)

    if params.variant == MAMBA2:
        y_ssm, new_state = _ssd_scan(params, u, state, SSD_CHUNK)
    else:
        y_ssm, new_state = scan_sequential(params, u, state)

    gated = ng.mul(y_ssm, ng.silu(gate))
    out = ng.matmul(gated, params.w_out)
    y = ng.add(x, out)

    # carry the last 3 raw branch inputs for seamless convolution chaining
    stacked = np.concatenate([state.conv_tail, xz.data], axis=0)
    new_state.conv_tail = stacked[stacked.shape[0] - (CONV_WIDTH - 1):].copy()
    return y, new_state
