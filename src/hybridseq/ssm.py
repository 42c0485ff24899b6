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

* `run_groups` is the one loop over row groups of `GROUP_ROWS`
  (`_SSD_GROUP * SSD_CHUNK`) rows: it slices each group from the stream
  and passes it through a list of stages in turn.  A `BlockRun` is one
  block as such a stage: it runs the whole body (`_block_rows`: norm,
  projection, convolution, scan, gate, output projection, residual) on a
  group and hands the next group the SSM state and the convolution tail
  (the last 3 raw branch inputs) as graph nodes, so gradients cross group
  boundaries.  Under grad each call is one node that keeps only the
  group's inputs and outputs; its reverse pass records the body again on
  them, one group at a time.  The hybrid model runs one stage per layer,
  so a group passes through every layer before the next one starts;
  `mamba_block_forward` takes a whole stream from a zero state as the
  one-stage case and joins the groups' outputs.  No matrix product in the
  block sees more than one group's rows.
* Within a group, mamba2 runs the chunked core (`_ssd_rows`) and mamba1
  the per-step scan (`_sequential_rows`), in prefill, evaluation and
  training alike.  Both walk the group `SSD_CHUNK` rows at a time, and
  both carry the state as [heads, n_state, head_dim], mamba1 being one
  head of head_dim d_inner; `_scan_start` lays out a = -exp(a_log) and the
  zero state once per call.  Both are built from `numerics` ops, so they
  record a graph under grad, meter their FLOPs, and run the same code
  without grad.  Both take the state the group before left and the
  group's offset in the stream, which a `NumericError` adds to the index
  of the first bad row to name its token.
* Within a chunk the chunked core mixes the rows through one op,
  `_decay_mix`, which builds the per-head decay-masked weights of every
  chunk it is given in one pass (in the block, the `_SSD_GROUP` chunks of
  one group) and recomputes them in its reverse pass; a recorded call
  keeps no [chunks, heads, q, q] array.  The row group is the only tile.
* `linear_recurrence` is the one hand-written recurrence (and VJP) in this
  module.  The per-step scan runs it over the rows of a chunk, between a
  broadcast product for its inputs and one batched readout against C; the
  chunked core runs it to pass the state from chunk to chunk.
* `scan_sequential` is also the oracle the chunked core is tested against;
  it shares only `_selective_inputs` and `linear_recurrence` with it.
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
    "hippo_init",
    "zoh_discretize",
    "linear_recurrence",
    "scan_sequential",
    "scan_chunked_ssd",
    "GROUP_ROWS",
    "BlockRun",
    "run_groups",
    "mamba_block_forward",
    "init_ssm_params",
]

MAMBA1 = "mamba1"
MAMBA2 = "mamba2"

CONV_WIDTH = 4
EXPAND = 2
SSD_CHUNK = 64  # rows per chunk of both scans
_SSD_GROUP = 4  # chunks per row group of the block
GROUP_ROWS = _SSD_GROUP * SSD_CHUNK  # rows per group of `run_groups`


# --------------------------------------------------------------------------
# Parameters
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


def hippo_init(n_state: int) -> np.ndarray:
    """Real diagonal initialization a_n = -(n+1), n = 0..n_state-1."""
    if n_state < 1:
        raise ContractError("hippo_init: n_state must be >= 1")
    return -np.arange(1.0, n_state + 1.0)


def _inv_softplus(y: np.ndarray) -> np.ndarray:
    return np.log(np.expm1(y))


def _default_sizes(variant: str) -> tuple[int, int]:
    """The block's (n_state, heads) where a caller gives none: mamba1 keeps
    16 states per channel in one head, mamba2 64 per head in 4 heads."""
    return (16, 1) if variant == MAMBA1 else (64, 4)


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
    default_state, default_heads = _default_sizes(variant)
    n_state = default_state if n_state is None else n_state
    n_heads = default_heads if n_heads is None else n_heads
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


def linear_recurrence(decay, inputs, h0) -> Tensor:
    """All states of S_t = decay_t * S_{t-1} + inputs_t, S_0 = h0.

    `inputs` is [T, *state]; `decay` is [T, *broadcastable-to-state], with
    as many axes; `h0` is the initial state, an array or a Tensor.  Returns
    the stacked states [T, *state] as one graph node regardless of T.  The
    reverse pass carries the adjoint back through every step (summing a
    broadcast decay's gradient per step); what is left of it after the
    first step is the gradient of `h0`.
    """
    decay, inputs, h0 = (ng._coerce(t) for t in (decay, inputs, h0))
    e, u, s = decay.data, inputs.data, h0.data
    T = u.shape[0]
    if e.shape[0] != T or e.ndim != u.ndim:
        raise ContractError("linear_recurrence: decay and inputs disagree on T or rank")
    out = np.empty_like(u)
    for t in range(T):  # in place: S_t = decay_t * S_{t-1}, then += inputs_t
        s = np.multiply(e[t], s, out=out[t])
        s += u[t]
    ng.meter_add("mul", 2.0 * u.size)

    def vjp(g):
        gu = np.empty_like(u) if inputs.requires_grad else None
        ge = np.empty_like(e) if decay.requires_grad else None
        bcast = tuple(i - 1 for i in range(1, u.ndim) if e.shape[i] != u.shape[i])
        gs, prod = np.empty_like(u[0]), np.empty_like(u[0])
        a = np.zeros_like(u[0])  # adjoint of S_t carried in from step t+1
        for t in range(T - 1, -1, -1):
            gs = np.add(a, g[t], out=gs if gu is None else gu[t])  # adjoint of S_t
            if ge is not None:
                np.multiply(gs, out[t - 1] if t > 0 else h0.data, out=prod if bcast else ge[t])
                if bcast:
                    np.sum(prod, axis=bcast, keepdims=True, out=ge[t])
            np.multiply(e[t], gs, out=a)
        return (ge, gu, ng._unbroadcast(a, h0.shape) if h0.requires_grad else None)

    return ng.custom_op(out, (decay, inputs, h0), vjp)


# --------------------------------------------------------------------------
# Selective scans
# --------------------------------------------------------------------------


def _selective_inputs(params: SSMParams, x: Tensor):
    """Input-dependent delta/B/C projections, shared by every scan path."""
    delta = ng.softplus(ng.matmul(x, params.w_delta) + params.delta_bias)
    b = ng.matmul(x, params.w_b)
    c = ng.matmul(x, params.w_c)
    return delta, b, c


def _scan_start(params: SSMParams):
    """a = -exp(a_log) laid out as the scans read it, and the zero state.

    Every scan carries its state as [heads, n_state, head_dim]; mamba1 is
    one head of head_dim d_inner, so its a comes as [n_state, d_inner], and
    mamba2's per-head a as [heads]."""
    a_log = ng.permute(params.a_log, (1, 0)) if params.variant == MAMBA1 else params.a_log
    a_neg = ng.mul(ng.exp(a_log), -1.0)
    return a_neg, Tensor(np.zeros((params.n_heads, params.n_state, params.head_dim)))


def _scan_rows(params: SSMParams, a_neg: Tensor, x: Tensor, s0: Tensor):
    """The recurrence over a few rows from the state s0 [heads, n_state,
    head_dim]: (y, every state)."""
    T = x.shape[0]
    delta, b, c = _selective_inputs(params, x)
    h, n, p = s0.shape
    if params.variant == MAMBA1:
        # dA[t,0,n,c] = delta[t,c] * a[n,c]; full ZOH on the input path.
        da = ng.mul(ng.reshape(delta, (T, 1, 1, p)), a_neg)
        coeff = ng.div(ng.expm1(da), a_neg)
        u = ng.mul(ng.mul(coeff, ng.reshape(b, (T, 1, n, 1))), ng.reshape(x, (T, 1, 1, p)))
    else:
        # dA[t,h] = delta[t,h] * a[h]; Euler input path b_bar = delta*B.
        da = ng.reshape(ng.mul(delta, a_neg), (T, h, 1, 1))
        xdt = ng.mul(ng.reshape(x, (T, h, 1, p)), ng.reshape(delta, (T, h, 1, 1)))
        u = ng.mul(xdt, ng.reshape(b, (T, 1, n, 1)))
    s_all = linear_recurrence(ng.exp(da), u, s0)
    # y[t] = C_t S_t, one [1, n] x [n, head_dim] product per row and head
    y = ng.bmatmul(ng.reshape(c, (T, 1, 1, n)), s_all)
    return ng.reshape(y, (T, h * p)), s_all


def _sequential_rows(params: SSMParams, a_neg: Tensor, x: Tensor, s: Tensor, position: int):
    """`scan_sequential`'s body: the rows x [T >= 1, d_inner] of the stream
    at `position` from the state s, a Tensor [heads, n_state, head_dim],
    scanned `SSD_CHUNK` rows at a time.  Returns (y, the end state laid out
    as s)."""
    T = x.shape[0]
    ys = []
    for lo in range(0, T, SSD_CHUNK):
        hi = min(lo + SSD_CHUNK, T)
        y, s_all = _scan_rows(params, a_neg, ng.slice_rows(x, lo, hi), s)
        bad = ng.first_bad_row(s_all.data, y.data)
        if bad is not None:
            raise NumericError(f"scan produced non-finite state at token {position + lo + bad}")
        s = ng.reshape(ng.slice_rows(s_all, hi - lo - 1, hi - lo), s.shape)
        ys.append(y)
    return ng.concat_rows(ys), s


def scan_sequential(params: SSMParams, x: Tensor) -> Tensor:
    """Exact left-to-right selective scan over x [T, d_inner] from a zero
    state; returns y [T, d_inner].

    The rows are scanned one `SSD_CHUNK` at a time, the chunked scan's
    chunk; each chunk starts from the last state of the one before, passed
    on as a graph node, so gradients cross the chunk boundaries and,
    without grad, only one chunk of per-step states is alive at a time.
    """
    if x.shape[0] == 0:
        raise ContractError("the scan needs at least one row")
    a_neg, s0 = _scan_start(params)
    return _sequential_rows(params, a_neg, x, s0, 0)[0]


def _decay_mix(cum: Tensor, cb: Tensor, xh: Tensor) -> Tensor:
    """The intra-chunk mix y = (exp(L o (cum_t - cum_s)) o L o C B^T) xh as
    one graph node, with L the causal (lower-triangle) mask.

    Takes each chunk's inclusive cumulative log-decay cum [K, heads, q], its
    scores C B^T [K, q, q] and x*delta xh [K, heads, q, head_dim].  The
    diffs above the diagonal are positive and may overflow, so they are
    zeroed before exp; the causal mask itself goes on the head-shared
    scores.  The weights of all K chunks are built in one pass, in place in
    the order of the op composition (sub, mask, exp, times the masked
    scores), so the output and the metered FLOPs equal the composition's;
    the block's row groups bound K.  The reverse pass recomputes the weights
    from the inputs (as FlashAttention recomputes its tiles, arXiv
    2205.14135), so a recorded call keeps no [K, heads, q, q] array.
    """
    c, s, x = cum.data, cb.data, xh.data
    K, hh, q = c.shape
    lower = np.tril(np.ones((q, q)))

    def weights():
        """exp(L o diff) [K, heads, q, q] and L o C B^T [K, 1, q, q]."""
        e = np.subtract(c[:, :, :, None], c[:, :, None, :])
        e *= lower
        np.exp(e, out=e)
        return e, np.multiply(s[:, None], lower)

    w, m = weights()
    w *= m
    y = np.matmul(w, x)
    qq = float(K) * q * q
    ng.meter_add("sub", ng.FLOP_COST["sub"] * qq * hh)
    ng.meter_add("mul", ng.FLOP_COST["mul"] * qq * (2 * hh + 1))
    ng.meter_add("exp", ng.FLOP_COST["exp"] * qq * hh)
    ng.meter_add("matmul", 2.0 * qq * hh * x.shape[3])

    def vjp(g):
        # with W = E o M: dxh = W^T g, dW = g xh^T, d(C B^T) =
        # L o sum_heads(dW o E), and dcum_t = rowsum_t(dD) - colsum_t(dD)
        # for dD = dW o M o E (M = L o C B^T is zero above the diagonal)
        e, m = weights()
        dw = np.matmul(g, x.transpose(0, 1, 3, 2))
        gc = gs = gx = None
        if xh.requires_grad:
            gx = np.matmul((e * m).transpose(0, 1, 3, 2), g)
        if cum.requires_grad:
            t = dw * m
            t *= e
            gc = t.sum(axis=3) - t.sum(axis=2)
        if cb.requires_grad:
            dw *= e
            gs = dw.sum(axis=1)
            gs *= lower
        return gc, gs, gx

    return ng.custom_op(y, (cum, cb, xh), vjp)


def _ssd_chunks(da: Tensor, b: Tensor, c: Tensor, xdt: Tensor, h0: Tensor, q: int):
    """Whole chunks of the scan, from the state h0 [heads, n_state, head_dim].

    Takes the rows of dA [K*q, heads], B and C [K*q, n_state] and x*delta
    [K*q, heads, head_dim].  Returns (y [K*q, heads*head_dim], the end
    state).
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

    y = _decay_mix(cum, ng.bmatmul(c_k, b_t), xh)  # intra-chunk

    # chunk boundaries: each chunk's own contribution to its end state,
    # S_k = sum_s exp(total - cum_s) B_s (x dt)_s, kept as [K, h, n, p];
    # the state passes on as H_{k+1} = exp(total_k) H_k + S_k
    to_end = ng.permute(ng.exp(ng.sub(total, cum_q)), (1, 2, 0))  # [K, h, q]
    s_k = ng.bmatmul(ng.reshape(b_t, (K, 1, n, q)), ng.mul(xh, ng.reshape(to_end, (K, hh, q, 1))))
    ends = linear_recurrence(ng.exp(ng.reshape(total, (K, hh, 1, 1))), s_k, h0)
    # the state entering each chunk: h0, then the first K - 1 boundary states
    starts = ng.concat_rows([ng.reshape(h0, (1, hh, n, p)), ng.slice_rows(ends, 0, K - 1)])

    # read out the state carried into each chunk: C_t exp(cum_t) H_k
    y_state = ng.bmatmul(ng.reshape(c_k, (K, 1, q, n)), starts)
    y = ng.add(y, ng.mul(y_state, ng.reshape(ng.exp(cum), (K, hh, q, 1))))
    y = ng.reshape(ng.permute(y, (0, 2, 1, 3)), (K * q, hh * p))
    return y, ng.reshape(ng.slice_rows(ends, K - 1, K), (hh, n, p))


def _ssd_rows(params: SSMParams, a_neg: Tensor, x: Tensor, h: Tensor, position: int,
              chunk: int):
    """The chunked scan over the rows x [T >= 1, d_inner] of the stream at
    `position`, as `scan_chunked_ssd` describes, from the state h, a Tensor
    laid out as the chunks carry it, [heads, n_state, head_dim].  The last
    chunk is filled up with zero rows, so every chunk is evaluated at full
    width.  Returns (y, the end state laid out as h)."""
    T = x.shape[0]
    hh, p = params.n_heads, params.head_dim
    delta, b, c = _selective_inputs(params, x)
    da = ng.mul(delta, a_neg)  # [T, h], all entries < 0
    xdt = ng.mul(ng.reshape(x, (T, hh, p)), ng.reshape(delta, (T, hh, 1)))  # [T, h, p]
    bad = ng.first_bad_row(da.data, b.data, c.data, xdt.data)
    if bad is not None:
        raise NumericError(f"scan produced non-finite state at token {position + bad}")

    pad = -T % chunk
    rows = (da, b, c, xdt)
    if pad:
        rows = [ng.concat_rows([t, Tensor(np.zeros((pad,) + t.shape[1:]))]) for t in rows]
    y, h = _ssd_chunks(*rows, h, chunk)
    if pad:
        y = ng.slice_rows(y, 0, T)

    bad = ng.first_bad_row(y.data)
    if bad is None and not np.all(np.isfinite(h.data)):
        bad = T - 1
    if bad is not None:
        raise NumericError(f"scan produced non-finite state at token {position + bad}")
    return y, h


def scan_chunked_ssd(params: SSMParams, x: Tensor, chunk: int) -> Tensor:
    """Chunked state-space-dual scan of mamba2 over x [T, d_inner] from a
    zero state; numerically equivalent to `scan_sequential`.

    Within a chunk the scan is a masked matrix form, y = (L o C B^T) (x dt)
    with L[t, s] = exp(sum of dA over s+1..t); between chunks only the
    boundary states are passed on (Mamba-2, arXiv 2405.21060, sec. 6), so
    nothing of size [T, heads, head_dim, n_state] is kept, with or without
    grad.  Each chunk is laid out head-major, so every contraction is one
    batched matmul.  All chunks of x are evaluated at once, so a call over
    a whole stream holds the per-head mix weights [K, heads, q, q] of all
    its K chunks; the block bounds the working set by cutting its rows into
    groups of `_SSD_GROUP` chunks before the scan.

    Returns y [T, d_inner].  Raises NumericError naming the first token
    whose inputs (dA, B, C, x dt) or output are non-finite, or the last
    token when only the final state is.
    """
    if params.variant != MAMBA2:
        raise ContractError("the chunked scan requires the mamba2 variant")
    if chunk <= 0:
        raise ContractError("chunked scan: chunk size must be positive")
    if x.shape[0] == 0:
        raise ContractError("the scan needs at least one row")
    a_neg, h0 = _scan_start(params)
    return _ssd_rows(params, a_neg, x, h0, 0, chunk)[0]


# --------------------------------------------------------------------------
# Full block
# --------------------------------------------------------------------------


def causal_conv4(params: SSMParams, xz: Tensor, tail) -> Tensor:
    """Depthwise causal convolution of width 4 over time, as one graph node.

    y[t] = sum_j conv_w[j] * x_full[t + j] where x_full prepends the 3-row
    tail (an array or a Tensor); conv_w's last row therefore multiplies the
    current token.  Tap j reads its first min(3 - j, T) rows from the tail
    and the rest from xz, and the taps are summed in place in the order
    ((t0 + t1) + t2) + t3, so the output equals the op-by-op sum bit for
    bit.  The reverse pass returns the gradients of xz, conv_w and the tail.
    """
    tail = tail if isinstance(tail, Tensor) else Tensor(tail)
    conv_w = params.conv_w
    x, w, tl = xz.data, conv_w.data, tail.data
    T = x.shape[0]
    y = np.empty_like(x)
    tap = np.empty_like(x)
    for j in range(CONV_WIDTH):
        k = min(CONV_WIDTH - 1 - j, T)
        out = y if j == 0 else tap
        np.multiply(tl[j : j + k], w[j], out=out[:k])
        np.multiply(x[: T - k], w[j], out=out[k:])
        if j:
            y += tap
    ng.meter_add("mul", ng.FLOP_COST["mul"] * CONV_WIDTH * x.size)
    ng.meter_add("add", ng.FLOP_COST["add"] * (CONV_WIDTH - 1) * x.size)

    def vjp(g):
        gx = np.zeros_like(x) if xz.requires_grad else None
        gw = np.empty_like(w) if conv_w.requires_grad else None
        gt = np.zeros_like(tl) if tail.requires_grad else None
        prod = np.empty_like(x)
        for j in range(CONV_WIDTH):
            k = min(CONV_WIDTH - 1 - j, T)
            if gx is not None:
                gx[: T - k] += g[k:] * w[j]
            if gt is not None:
                gt[j : j + k] += g[:k] * w[j]
            if gw is not None:
                np.multiply(g[:k], tl[j : j + k], out=prod[:k])
                np.multiply(g[k:], x[: T - k], out=prod[k:])
                gw[j] = prod.sum(axis=0)
        return gx, gw, gt

    return ng.custom_op(y, (xz, conv_w, tail), vjp)


def _block_rows(params: SSMParams, a_neg: Tensor, x: Tensor, s: Tensor, tail,
                position: int):
    """The block body over the rows x of one group, at `position` in the
    stream, from the SSM state s [heads, n_state, head_dim] and the
    convolution tail (the 3 raw branch inputs before x).
    Returns (output, SSM state, tail) for the next group; s and the tail
    come back as Tensors."""
    proj = ng.matmul(ng.layer_norm(x, params.norm_gain, params.norm_bias), params.w_in)
    xz = ng.slice_cols(proj, 0, params.d_inner)
    gate = ng.slice_cols(proj, params.d_inner, 2 * params.d_inner)
    u = ng.silu(causal_conv4(params, xz, tail))
    # the last 3 raw branch inputs resume the convolution in the next group
    T, k = xz.shape[0], CONV_WIDTH - 1
    if T >= k:
        tail = ng.slice_rows(xz, T - k, T)
    else:
        tail = ng.concat_rows([ng.slice_rows(tail, T, k), xz])
    # without grad nothing else holds these; letting them go before the scan
    # lowers the block's peak (a recorded graph keeps them either way)
    del proj, xz

    if params.variant == MAMBA2:
        y_ssm, s = _ssd_rows(params, a_neg, u, s, position, SSD_CHUNK)
    else:
        y_ssm, s = _sequential_rows(params, a_neg, u, s, position)

    gated = ng.mul(y_ssm, ng.silu(gate))
    out = ng.matmul(gated, params.w_out)
    return ng.add(x, out), s, tail


class BlockRun:
    """One block's pass over a stream, one row group per call: each call
    runs the body (`_block_rows`) on the group's rows from the SSM state and
    convolution tail the call before left, starting from a zero state.

    Under grad a call is one graph node (`numerics._recomputed`) whose
    output packs the rows, the state and the tail, read through views; it
    keeps only the group's inputs and that output, and its reverse pass
    records the body again on the same inputs, so one group's body is
    alive at a time.  A call no adjoint reaches is never recomputed."""

    def __init__(self, params: SSMParams):
        self.params = params
        self.a_neg, self.s = _scan_start(params)
        self.tail = np.zeros((CONV_WIDTH - 1, params.d_inner))

    def __call__(self, x: Tensor, position: int) -> Tensor:
        params = self.params
        if not ng.is_grad_enabled():
            y, self.s, self.tail = _block_rows(params, self.a_neg, x, self.s, self.tail,
                                               position)
            return y

        def body(a_neg, x, s, tail):
            out = _block_rows(params, a_neg, x, s, tail, position)
            return ng.concat_rows([ng.reshape(t, (-1,)) for t in out])

        packed = ng._recomputed(body, (self.a_neg, x, self.s, self.tail),
                                params.named("").values())
        y, self.s, self.tail = ng._split_flat(
            packed, (x.shape, self.s.shape, (CONV_WIDTH - 1, params.d_inner)))
        return y


def run_groups(x: Tensor, rows: int, stages, out: list | None = None) -> None:
    """The first `rows` rows of x, one group of `GROUP_ROWS` at a time,
    through every stage in turn.

    Each group is sliced straight from x; a stage is called as
    stage(group rows, the group's first row) and returns the rows the next
    stage takes.  With `out` the last stage's rows of each group are
    appended to it.  So, without grad, only one group's rows and
    temporaries are alive at a time, whatever the number of stages; under
    grad the calls record one graph, with whatever a stage carries from one
    group to the next as its nodes."""
    for lo in range(0, rows, GROUP_ROWS):
        y = ng.slice_rows(x, lo, min(lo + GROUP_ROWS, rows))
        for stage in stages:
            y = stage(y, lo)
        if out is not None:
            out.append(y)


def mamba_block_forward(params: SSMParams, x: Tensor) -> Tensor:
    """Full residual block over a whole stream x [T, d_model] from a zero
    state.

    pre-LN -> input projection (expand x2, splitting an SSM branch and a
    gate branch) -> width-4 causal depthwise convolution -> SiLU ->
    selective scan -> SiLU-gated multiply -> output projection -> residual.
    Causal end to end.

    The one-stage case of `run_groups`: the body runs over groups of
    `GROUP_ROWS` rows (`BlockRun`), each starting from the SSM state and
    convolution tail the group before left, passed on as graph nodes, and
    the groups' outputs are joined.
    """
    if x.shape[1] != params.d_model:
        raise ContractError(
            f"block width mismatch: input {x.shape[1]}, block {params.d_model}"
        )
    if x.shape[0] == 0:
        raise ContractError("the block needs at least one row")
    ys: list[Tensor] = []
    run_groups(x, x.shape[0], [BlockRun(params)], ys)
    return ng.concat_rows(ys)
