"""Attention paths: causal self-attention, cross-attention, and the blend.

Two text-update routes live here:

* `causal_self_attention` -- multi-head scaled dot-product over one stream
  with a strict causal mask (each position sees itself and its prefix).
  The baseline runs it over the whole video-first stream, so text token j
  attends over all video tokens plus text tokens 1..j.
* `blended_text_update` -- the hybrid text path: a convex combination,
  weighted by a scalar blend weight, of full cross-attention onto the video
  tokens and causal self-attention among the text tokens.

`init_cross_from_self` deep-copies a self-attention parameter set into a
fresh cross-attention one; immediately after the copy the cross pre-softmax
scores coincide bit-for-bit with the video columns of the joint path's
score matrix (the two paths then diverge only through their softmax
normalization sets).

Keys and values come from one projection, `key_value_rows`, whether an op
projects them itself, takes them projected (the hybrid's training pass
joins its video keys and values from row groups) or reads them from a
cache.  Every cache is a `KVRows`, one head-major buffer appended in
order from `key_value_heads`: the video cache a prefill appends once per
row group, and the self caches that `model` grows.  Attention only reads
a cache; it never grows one.

Every op runs one kernel, `_attend`, with gradients on or off: training,
prefill, cross-attention and both decode branches.  It takes query rows in
tiles of `SCORE_BUDGET // (n_heads * Lk)` rows, so its [n_heads, rows, Lk]
score tile stays cache-sized at every key length, and it evaluates all
heads of a tile with one batched matmul for the scores and one for the
values.  The softmax is exact, and the full score rectangle is computed,
masked entries included.  Under grad the kernel is one graph node
(`_attention`) between `numerics.matmul` projections; it keeps the
probabilities of every head for its hand-written reverse pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as ng
from .numerics import ContractError, NumericError, ShapeError, Tensor

__all__ = [
    "AttentionParams",
    "KVRows",
    "init_attention_params",
    "init_cross_from_self",
    "causal_self_attention",
    "cross_attention",
    "blended_text_update",
    "build_video_kv_cache",
    "key_value_rows",
    "key_value_heads",
    "cross_attention_scores",
    "joint_text_scores",
]

SCORE_BUDGET = 1 << 18  # score elements per query tile of the no-grad kernel (2 MiB)


@dataclass
class AttentionParams:
    """Projection weights for one attention layer plus the blend weight.

    `alpha_raw` is the pre-sigmoid parameterization of the blend weight, so
    sigmoid(alpha_raw) in (0, 1) holds structurally under gradient updates.
    It is read from the self-attention parameter set of a hybrid layer; on a
    cross-attention set it is inert.
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    n_heads: int
    alpha_raw: Tensor

    @property
    def d(self) -> int:
        return self.w_q.shape[0]

    @property
    def head_dim(self) -> int:
        return self.d // self.n_heads

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.w_q": self.w_q,
            f"{prefix}.w_k": self.w_k,
            f"{prefix}.w_v": self.w_v,
            f"{prefix}.w_o": self.w_o,
        }


@dataclass
class KVRows:
    """Head-major keys and values, [n_heads, capacity, head_dim] each.

    Rows 0..filled-1 are written, in order (`append`), and a written row
    never changes, so any number of readers can share the buffer.
    """

    k: np.ndarray
    v: np.ndarray
    filled: int = 0

    @property
    def capacity(self) -> int:
        return self.k.shape[1]

    @classmethod
    def empty(cls, params: AttentionParams, capacity: int) -> "KVRows":
        """A buffer with room for `capacity` rows of `params`' heads, none
        of them written."""
        k = np.empty((params.n_heads, capacity, params.head_dim))
        return cls(k, np.empty_like(k))

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write r rows ([n_heads, r, head_dim] each) after the filled ones;
        ContractError if they do not fit."""
        end = self.filled + k_new.shape[1]
        if end > self.capacity:
            raise ContractError(f"KVRows: {end} rows do not fit a capacity of {self.capacity}")
        self.k[:, self.filled : end] = k_new
        self.v[:, self.filled : end] = v_new
        self.filled = end


def init_attention_params(
    rng: np.random.Generator, d: int, n_heads: int, alpha_raw: float = 0.0
) -> AttentionParams:
    if d % n_heads != 0:
        raise ContractError(f"width {d} not divisible by {n_heads} heads")
    std = 1.0 / math.sqrt(d)

    def t(shape):
        return Tensor(rng.standard_normal(shape) * std, requires_grad=True)

    return AttentionParams(
        w_q=t((d, d)),
        w_k=t((d, d)),
        w_v=t((d, d)),
        w_o=t((d, d)),
        n_heads=n_heads,
        alpha_raw=Tensor(np.asarray(alpha_raw, dtype=np.float64), requires_grad=True),
    )


def init_cross_from_self(params_s: AttentionParams) -> AttentionParams:
    """Deep-copy the projection weights; subsequent training diverges freely."""
    def cp(t: Tensor) -> Tensor:
        return Tensor(t.data.copy(), requires_grad=True)

    return AttentionParams(
        w_q=cp(params_s.w_q),
        w_k=cp(params_s.w_k),
        w_v=cp(params_s.w_v),
        w_o=cp(params_s.w_o),
        n_heads=params_s.n_heads,
        alpha_raw=cp(params_s.alpha_raw),
    )


# --------------------------------------------------------------------------
# Core multi-head attention over key/value blocks
# --------------------------------------------------------------------------


def _check_width(params: AttentionParams, x: Tensor, what: str) -> None:
    if x.ndim != 2 or x.shape[1] != params.d:
        raise ShapeError(f"{what} must be [*, {params.d}], got {x.shape}")


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """View [L, n_heads * head_dim] rows as [n_heads, L, head_dim]."""
    return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)


def _merged(h: np.ndarray) -> np.ndarray:
    """[n_heads, L, head_dim] as [L, n_heads * head_dim] rows (a copy)."""
    return h.transpose(1, 0, 2).reshape(h.shape[1], -1)


def _attend(qh: np.ndarray, kt: np.ndarray, vh: np.ndarray,
            allowed_upto: np.ndarray, what: str,
            probs: np.ndarray | None = None) -> np.ndarray:
    """The multi-head attention kernel; returns the merged heads, [Lq, d].

    `qh` is [n_heads, Lq, head_dim], `kt` the keys transposed,
    [n_heads, head_dim, Lk], and `vh` [n_heads, Lk, head_dim]; views are
    fine.  Query row i sees key columns 0..allowed_upto[i].  Rows are taken
    in tiles sized so that one [n_heads, rows, Lk] score tile holds at most
    SCORE_BUDGET values.  Columns past a tile's last allowed column are
    filled with -inf by slice, and only the [rows, last - first] band
    between its first and last allowed column needs a mask, which
    `np.copyto` applies to every head through a broadcast `where`.  With
    `probs` ([n_heads, Lq, Lk]) the probabilities are computed in place
    there.  Raises NumericError naming `what` and the first query row whose
    output is not finite.
    """
    nh, lq, dh = qh.shape
    lk = kt.shape[2]
    scale = 1.0 / math.sqrt(dh)
    rows = max(1, SCORE_BUDGET // (nh * lk))
    out = np.empty((lq, nh, dh))
    for lo in range(0, lq, rows):
        hi = min(lo + rows, lq)
        allowed = allowed_upto[lo:hi]
        first, last = int(allowed.min()) + 1, int(allowed.max()) + 1
        s = np.matmul(qh[:, lo:hi], kt, out=None if probs is None else probs[:, lo:hi])
        s *= scale
        if last < lk:
            s[:, :, last:] = -np.inf
        if first < last:
            cols = np.arange(first, last)
            np.copyto(s[:, :, first:last], -np.inf, where=cols[None] > allowed[:, None])
        s -= s.max(axis=2, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=2, keepdims=True)
        np.matmul(s, vh, out=out[lo:hi].transpose(1, 0, 2))
    ng.meter_add("matmul", 2.0 * lq * lk * dh * nh * 2)
    ng.meter_add("softmax", ng.FLOP_COST["softmax"] * float(lq) * lk * nh)
    if not np.isfinite(out).all():
        finite = np.isfinite(out).all(axis=(1, 2))
        raise NumericError(
            f"{what}: non-finite output at query row {int(np.argmin(finite))}"
        )
    return out.reshape(lq, nh * dh)


def _attention(q: Tensor, k, v, n_heads: int, allowed_upto: np.ndarray,
               what: str) -> Tensor:
    """`_attend` over projected query rows q [Lq, d], one graph node.

    `k` and `v` are projected rows [Lk, d], or a cache's head arrays
    [n_heads, Lk, head_dim], which are constants.  A recorded call keeps
    every head's probabilities P for the reverse pass (FlashAttention, arXiv
    2205.14135, appendix B), per head: dV = P^T dO,
    dS = P o (dO V^T - rowsum(dO o O)) * scale, dQ = dS K, dK = dS^T Q."""
    cached = isinstance(k, np.ndarray)
    parents = (q,) if cached else (q, k, v)
    k_grad, v_grad = (False, False) if cached else (k.requires_grad, v.requires_grad)
    qh = _heads(q.data, n_heads)
    kh, vh = (k, v) if cached else (_heads(k.data, n_heads), _heads(v.data, n_heads))
    recorded = ng.is_grad_enabled() and any(p.requires_grad for p in parents)
    probs = np.empty((n_heads, qh.shape[1], kh.shape[1])) if recorded else None
    out = _attend(qh, kh.transpose(0, 2, 1), vh, allowed_upto, what, probs)
    scale = 1.0 / math.sqrt(qh.shape[2])

    def vjp(g):
        gh = _heads(g, n_heads)
        gq = gk = gv = None
        if v_grad:
            gv = _merged(np.matmul(probs.transpose(0, 2, 1), gh))
        if q.requires_grad or k_grad:
            ds = np.matmul(gh, vh.transpose(0, 2, 1))
            ds -= np.sum(gh * _heads(out, n_heads), axis=2, keepdims=True)
            ds *= probs
            ds *= scale
            if q.requires_grad:
                gq = _merged(np.matmul(ds, kh))
            if k_grad:
                gk = _merged(np.matmul(ds.transpose(0, 2, 1), qh))
        return (gq, gk, gv)[: len(parents)]

    return ng.custom_op(out, parents, vjp)


def _mha(params, q_x: Tensor, kv, allowed_upto: np.ndarray, what: str) -> Tensor:
    """Rows q_x attending over `kv`, the (k, v) pair `_attention` takes."""
    out = _attention(ng.matmul(q_x, params.w_q), *kv, params.n_heads, allowed_upto, what)
    return ng.matmul(out, params.w_o)


def key_value_rows(params, x: Tensor) -> tuple[Tensor, Tensor]:
    """The keys and values of rows x, [L, d] each."""
    return ng.matmul(x, params.w_k), ng.matmul(x, params.w_v)


# --------------------------------------------------------------------------
# Public attention operations
# --------------------------------------------------------------------------


def causal_self_attention(params: AttentionParams, x: Tensor, cache=None) -> Tensor:
    """Multi-head causal self-attention over x [L, d]; position i attends
    to positions 1..i, scaled by 1/sqrt(head_dim).

    Without `cache` the call projects x's keys and values itself.  With a
    cache whose last L rows are x's keys and values (`text_k` / `text_v`,
    [n_heads, n, head_dim], as prefill and decode grow them), each row of x
    attends over the cache up to itself, and nothing is projected."""
    _check_width(params, x, "input")
    if x.shape[0] < 1:
        raise ContractError("causal_self_attention: need at least one position")
    if cache is None:
        kv, start = key_value_rows(params, x), 0
    else:
        kv, start = (cache.text_k, cache.text_v), cache.n - x.shape[0]
    return _mha(params, x, kv, start + np.arange(x.shape[0]), "causal self-attention")


def key_value_heads(params: AttentionParams, x: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """The keys and values of rows x as [n_heads, L, head_dim] views."""
    k, v = key_value_rows(params, x)
    return _heads(k.data, params.n_heads), _heads(v.data, params.n_heads)


def build_video_kv_cache(params_c: AttentionParams, video: Tensor) -> KVRows:
    """The cache of the normed video rows `video`, projected in one call;
    the cross branch and every decode step read it without projecting
    again.  (A hybrid prefill fills its caches a row group at a time.)"""
    _check_width(params_c, video, "video")
    cache = KVRows.empty(params_c, video.shape[0])
    cache.append(*key_value_heads(params_c, video))
    return cache


def cross_attention(params_c: AttentionParams, text_q: Tensor, video) -> Tensor:
    """Every text query attends over all video keys/values (non-causal).

    `video` may be the normed video rows, a [M, d] tensor whose keys and
    values the call projects; their projected keys and values, a pair of
    [M, d] tensors; or a KVRows (no-grad prefill and decode), whose
    written keys and values the call reads as constants.  Gradients flow
    through the first two.
    """
    _check_width(params_c, text_q, "text")
    if isinstance(video, KVRows):
        m = video.filled
        kv = video.k[:, :m], video.v[:, :m]
    else:
        if not isinstance(video, tuple):
            _check_width(params_c, video, "video")
            video = key_value_rows(params_c, video)
        kv, m = video, video[0].shape[0]
    if m == 0:
        raise ContractError(
            "cross_attention: no video tokens; text-only sequences bypass the cross branch"
        )
    return _mha(params_c, text_q, kv, np.full(text_q.shape[0], m - 1), "cross-attention")


def blended_text_update(
    params_s: AttentionParams,
    params_c: AttentionParams,
    alpha,
    video: Tensor,
    text: Tensor,
    cache=None,
) -> Tensor:
    """Hybrid text update: (1 - alpha) * cross-attention + alpha * causal
    self-attention, with one scalar blend weight shared by the layer.

    `video` takes any form `cross_attention` takes (which rejects an empty
    one); `cache` goes to the self branch (see `causal_self_attention`)."""
    if text.shape[0] < 1:
        raise ContractError("blended_text_update requires at least one text token")
    cross = cross_attention(params_c, text, video)
    self_o = causal_self_attention(params_s, text, cache)
    one_minus = ng.sub(1.0, alpha)
    return ng.add(ng.mul(one_minus, cross), ng.mul(alpha, self_o))


# --------------------------------------------------------------------------
# Score introspection (pre-softmax logits)
# --------------------------------------------------------------------------


def _scores_per_head(params: AttentionParams, q_x: np.ndarray, k_x: np.ndarray):
    q = _heads(q_x @ params.w_q.data, params.n_heads)
    k = _heads(k_x @ params.w_k.data, params.n_heads)
    return np.matmul(q, k.transpose(0, 2, 1)) * (1.0 / math.sqrt(params.head_dim))


def cross_attention_scores(
    params_c: AttentionParams, text: Tensor, video: Tensor
) -> np.ndarray:
    """Pre-softmax cross logits, [n_heads, N, M]."""
    return _scores_per_head(params_c, text.data, video.data)


def joint_text_scores(
    params_s: AttentionParams, video: Tensor, text: Tensor
) -> np.ndarray:
    """Pre-softmax logits of the baseline joint text path, [n_heads, N, M+N].

    Columns 0..M-1 score the video tokens, M..M+N-1 the text tokens; the
    causal mask is not applied here (it zeroes weights, not logits).
    """
    vid = _scores_per_head(params_s, text.data, video.data)
    txt = _scores_per_head(params_s, text.data, text.data)
    return np.concatenate([vid, txt], axis=2)
