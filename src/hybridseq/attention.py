"""Attention paths: causal self-attention, cross-attention, and the blend.

Three text-update routes live here:

* `causal_self_attention` -- multi-head scaled dot-product over one stream
  with a strict causal mask (each position sees itself and its prefix).
* `joint_causal_attention_text` -- the baseline-decoder text path: text
  token j attends over all video tokens plus text tokens 1..j.
* `blended_text_update` -- the hybrid text path: a convex combination,
  weighted by a scalar blend weight, of full cross-attention onto the video
  tokens and causal self-attention among the text tokens.

`init_cross_from_self` deep-copies a self-attention parameter set into a
fresh cross-attention one; immediately after the copy the cross pre-softmax
scores coincide bit-for-bit with the video columns of the joint path's
score matrix (the two paths then diverge only through their softmax
normalization sets).

Every op has two execution modes sharing one math definition: a graph-
recording mode built from tensor primitives, and one numpy kernel,
`_attend`, used when gradients are off.  `_attend` serves prefill, cross-
attention and both decode branches.  It takes query rows in tiles of
`SCORE_BUDGET // (n_heads * Lk)` rows, so its [n_heads, rows, Lk] score
tile stays cache-sized at every key length, and it evaluates all heads of a
tile with one batched matmul for the scores and one for the values.  The
softmax is exact, and the full score rectangle is computed, masked
entries included, so both modes report identical FLOP counts to the meter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as ng
from .numerics import ContractError, NumericError, ShapeError, Tensor

__all__ = [
    "AttentionParams",
    "VideoKVCache",
    "init_attention_params",
    "init_cross_from_self",
    "causal_self_attention",
    "joint_causal_attention_text",
    "cross_attention",
    "blended_text_update",
    "build_video_kv_cache",
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
class VideoKVCache:
    """Projected keys/values over all video tokens, [n_heads, M, head_dim].

    Computed once per sequence and treated as read-only while text decodes.
    """

    k: np.ndarray
    v: np.ndarray

    @property
    def m(self) -> int:
        return self.k.shape[1]


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


def _recording(params: AttentionParams, *tensors: Tensor) -> bool:
    if not ng.is_grad_enabled():
        return False
    return params.w_q.requires_grad or any(t.requires_grad for t in tensors)


def _check_width(params: AttentionParams, x: Tensor, what: str) -> None:
    if x.ndim != 2 or x.shape[1] != params.d:
        raise ShapeError(f"{what} must be [*, {params.d}], got {x.shape}")


def _mha_tape(params, q_x: Tensor, key_blocks, allowed_upto: np.ndarray) -> Tensor:
    """Graph-recording multi-head attention.

    `key_blocks` is a list of [L_i, d] tensors whose concatenation forms the
    key/value source; scores are computed block-by-block so each block's
    logits are bit-identical to a standalone attention over that block.
    """
    dh = params.head_dim
    scale = 1.0 / math.sqrt(dh)
    lk_total = sum(b.shape[0] for b in key_blocks)
    mask = np.arange(lk_total)[None, :] <= allowed_upto[:, None]

    q_full = ng.matmul(q_x, params.w_q)
    k_full = [ng.matmul(b, params.w_k) for b in key_blocks]
    v_full = [ng.matmul(b, params.w_v) for b in key_blocks]

    head_outs = []
    for h in range(params.n_heads):
        lo, hi = h * dh, (h + 1) * dh
        q_h = ng.slice_cols(q_full, lo, hi)
        score_blocks = [
            ng.matmul(q_h, ng.transpose(ng.slice_cols(k, lo, hi))) for k in k_full
        ]
        scores = ng.mul(
            score_blocks[0] if len(score_blocks) == 1 else ng.concat_cols(score_blocks),
            scale,
        )
        probs = ng.softmax_rows(scores, mask=None if mask.all() else mask)
        v_h = (
            ng.slice_cols(v_full[0], lo, hi)
            if len(v_full) == 1
            else ng.concat_rows([ng.slice_cols(v, lo, hi) for v in v_full])
        )
        head_outs.append(ng.matmul(probs, v_h))
    merged = head_outs[0] if len(head_outs) == 1 else ng.concat_cols(head_outs)
    return ng.matmul(merged, params.w_o)


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """View [L, n_heads * head_dim] rows as [n_heads, L, head_dim]."""
    return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)


def _attend(qh: np.ndarray, kt: np.ndarray, vh: np.ndarray,
            allowed_upto: np.ndarray, what: str) -> np.ndarray:
    """No-grad multi-head attention core; returns the merged heads, [Lq, d].

    `qh` is [n_heads, Lq, head_dim], `kt` the keys transposed,
    [n_heads, head_dim, Lk], and `vh` [n_heads, Lk, head_dim]; views are
    fine.  Query row i sees key columns 0..allowed_upto[i].  Rows are taken
    in tiles sized so that one [n_heads, rows, Lk] score tile holds at most
    SCORE_BUDGET values.  Columns past a tile's last allowed column are
    filled with -inf by slice, and only the [rows, last - first] band
    between its first and last allowed column needs a boolean mask.
    Raises NumericError naming `what` and the first query row whose output
    is not finite.
    """
    nh, lq, dh = qh.shape
    lk = kt.shape[2]
    scale = 1.0 / math.sqrt(dh)
    rows = max(1, SCORE_BUDGET // (nh * lk))
    col = np.arange(lk)
    out = np.empty((lq, nh, dh))
    for lo in range(0, lq, rows):
        hi = min(lo + rows, lq)
        allowed = allowed_upto[lo:hi]
        first, last = int(allowed.min()) + 1, int(allowed.max()) + 1
        s = np.matmul(qh[:, lo:hi], kt)
        s *= scale
        s[:, :, last:] = -np.inf
        if first < last:
            band = s[:, :, first:last]
            band[:, col[None, first:last] > allowed[:, None]] = -np.inf
        s -= s.max(axis=2, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=2, keepdims=True)
        np.matmul(s, vh, out=out[lo:hi].transpose(1, 0, 2))
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        raise NumericError(
            f"{what}: non-finite output at query row {int(np.argmin(finite))}"
        )
    return out.reshape(lq, nh * dh)


def _mha_fast(params, q_x: Tensor, key_blocks, allowed_upto: np.ndarray,
              what: str, kv_sink: list | None = None) -> Tensor:
    """No-grad attention through `_attend`; same FLOP counts as the tape."""
    d, dh, nh = params.d, params.head_dim, params.n_heads
    lq = q_x.shape[0]

    q = q_x.data @ params.w_q.data
    if len(key_blocks) == 1:
        keys = key_blocks[0].data
    else:
        keys = np.concatenate([b.data for b in key_blocks], axis=0)
    k = keys @ params.w_k.data
    v = keys @ params.w_v.data
    lk = k.shape[0]
    ng.meter_add("matmul", 2.0 * (lq + 2 * lk) * d * d)
    kh, vh = _heads(k, nh), _heads(v, nh)
    if kv_sink is not None:
        kv_sink.append((kh, vh))

    out = _attend(_heads(q, nh), kh.transpose(0, 2, 1), vh, allowed_upto, what)
    ng.meter_add("matmul", 2.0 * lq * lk * dh * nh * 2)
    ng.meter_add("softmax", ng.FLOP_COST["softmax"] * float(lq) * lk * nh)
    result = out @ params.w_o.data
    ng.meter_add("matmul", 2.0 * lq * d * d)
    return Tensor(result)


def _mha(params, q_x, key_blocks, allowed_upto, what, kv_sink=None):
    if _recording(params, q_x, *key_blocks):
        if kv_sink is not None:
            raise ContractError(f"{what}: a key/value sink needs gradients off")
        return _mha_tape(params, q_x, key_blocks, allowed_upto)
    return _mha_fast(params, q_x, key_blocks, allowed_upto, what, kv_sink)


# --------------------------------------------------------------------------
# Public attention operations
# --------------------------------------------------------------------------


def causal_self_attention(params: AttentionParams, x: Tensor,
                          kv_sink: list | None = None) -> Tensor:
    """Multi-head causal self-attention over x [L, d]; position i attends
    to positions 1..i, scaled by 1/sqrt(head_dim).

    With gradients off, `kv_sink` (a list) receives the keys and values the
    call projects, as one (k, v) pair of [n_heads, L, head_dim] arrays; this
    is how prefill fills its decode caches without projecting twice."""
    _check_width(params, x, "input")
    if x.shape[0] < 1:
        raise ContractError("causal_self_attention: need at least one position")
    return _mha(params, x, [x], np.arange(x.shape[0]), "causal self-attention", kv_sink)


def joint_causal_attention_text(
    params: AttentionParams, video: Tensor, text: Tensor
) -> Tensor:
    """Baseline text path: text token j attends over [all video; text 1..j]."""
    _check_width(params, text, "text")
    if text.shape[0] < 1:
        raise ContractError("joint attention: need at least one text token")
    m = video.shape[0]
    if m == 0:
        return causal_self_attention(params, text)
    _check_width(params, video, "video")
    allowed = m + np.arange(text.shape[0])
    return _mha(params, text, [video, text], allowed, "joint attention")


def build_video_kv_cache(params_c: AttentionParams, video: Tensor) -> VideoKVCache:
    """Project video tokens once; the cache serves the prefill's cross branch
    and every later decode step.  Meters the two projections, which
    `cross_attention` does not repeat when it reads a cache."""
    _check_width(params_c, video, "video")
    nh, d = params_c.n_heads, params_c.d
    k = _heads(video.data @ params_c.w_k.data, nh)
    v = _heads(video.data @ params_c.w_v.data, nh)
    ng.meter_add("matmul", 2.0 * 2 * video.shape[0] * d * d)
    return VideoKVCache(k=np.ascontiguousarray(k), v=np.ascontiguousarray(v))


def cross_attention(params_c: AttentionParams, text_q: Tensor, video) -> Tensor:
    """Every text query attends over all video keys/values (non-causal).

    `video` may be a [M, d] tensor (keys/values computed inline, so
    gradients flow) or a prebuilt VideoKVCache (prefill and decode).
    """
    _check_width(params_c, text_q, "text")
    if isinstance(video, VideoKVCache):
        if video.m == 0:
            raise ContractError("cross_attention: empty video cache")
        return _cross_from_cache(params_c, text_q, video)
    if video.shape[0] == 0:
        raise ContractError(
            "cross_attention: no video tokens; text-only sequences bypass the cross branch"
        )
    _check_width(params_c, video, "video")
    n, m = text_q.shape[0], video.shape[0]
    allowed = np.full(n, m - 1)
    return _mha(params_c, text_q, [video], allowed, "cross-attention")


def attend_cached(params: AttentionParams, x_ln: np.ndarray, k: np.ndarray,
                  v: np.ndarray, what: str) -> np.ndarray:
    """Unmetered attention of rows x_ln [n, d] over every cached key/value,
    k and v [n_heads, L, head_dim]; returns [n, d]."""
    q = x_ln @ params.w_q.data
    out = _attend(_heads(q, params.n_heads), k.transpose(0, 2, 1), v,
                  np.full(q.shape[0], k.shape[1] - 1), what)
    return out @ params.w_o.data


def _cross_from_cache(params_c, text_q: Tensor, cache: VideoKVCache) -> Tensor:
    d, dh, nh = params_c.d, params_c.head_dim, params_c.n_heads
    n = text_q.shape[0]
    result = attend_cached(params_c, text_q.data, cache.k, cache.v, "cross-attention")
    ng.meter_add("matmul", 2.0 * n * d * d * 2 + 2.0 * n * cache.m * dh * nh * 2)
    ng.meter_add("softmax", ng.FLOP_COST["softmax"] * float(n) * cache.m * nh)
    return Tensor(result)


def blended_text_update(
    params_s: AttentionParams,
    params_c: AttentionParams,
    alpha,
    video: Tensor,
    text: Tensor,
    kv_sink: list | None = None,
) -> Tensor:
    """Hybrid text update: (1 - alpha) * cross-attention + alpha * causal
    self-attention, with one scalar blend weight shared by the layer.

    `video` is a [M, d] tensor or a VideoKVCache; `kv_sink` goes to the self
    branch (see `causal_self_attention`)."""
    m = video.m if isinstance(video, VideoKVCache) else video.shape[0]
    if m < 1:
        raise ContractError("blended_text_update requires at least one video token")
    if text.shape[0] < 1:
        raise ContractError("blended_text_update requires at least one text token")
    cross = cross_attention(params_c, text, video)
    self_o = causal_self_attention(params_s, text, kv_sink)
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
