"""Decoder stacks: the hybrid model, the transformer baseline, and I/O.

A sequence is laid out video-first: M continuous video vectors followed by
N text token embeddings.  The two architectures differ in how a layer
updates the two roles:

* ``transformer_baseline`` -- one causal self-attention plus MLP over the
  full (M+N) stream; with the video-first layout the single causal mask
  realizes both the video-over-prefix and text-over-(video + text prefix)
  update rules.
* ``hybrid`` -- video rows pass through a state-space block (linear in M);
  text rows pass through the blended cross+self attention and an MLP.
  Video rows never enter the text MLP, and generated tokens are text-role
  by definition, so decoding leaves the state-space path untouched.

Both run one layer stack (`_stack`), the baseline as the case with no
video rows, and one text body per layer (`_text_half`: norm, attention,
MLP) and one head (`_head`: final norm, tied output product), in
training, prefill and decode alike.  The stack runs the hybrid's video
rows group-major: each group of `ssm.GROUP_ROWS` rows is taken from the
stream and passes through every layer (norm, cross keys and values, the
block from the state the group before left) before the next group starts;
each layer's text half then runs once against the layer's whole video
keys and values.  So a no-grad prefill builds no [M, d] array but the
video caches, and its peak stays near their size.

Prefill runs the stack once and returns a `DecodeContext` carrying the
per-layer video key/value caches and text self-attention caches the
stack hands back; `decode_step` then runs each layer's text body on one
new token with that layer's caches as its past, returning a new context
and leaving the one it was given unchanged.  Each layer's text output and
the logits are checked for non-finite values on every path; a
`NumericError` names the layer and the token's position in the stream.
"""

from __future__ import annotations

import copy
import io
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import attention as attn
from . import numerics as ng
from . import ssm as ssm_mod
from .attention import AttentionParams, VideoKVCache
from .numerics import ContractError, HybridSeqError, NumericError, Tensor
from .ssm import SSMParams

__all__ = [
    "ARCH_HYBRID",
    "ARCH_BASELINE",
    "BLOCK_NONE",
    "ConfigError",
    "FormatError",
    "TokenSequence",
    "HybridStackConfig",
    "Model",
    "DecodeContext",
    "build_model",
    "hybrid_from_baseline",
    "make_sequence",
    "named_parameters",
    "parameter_count_report",
    "hybrid_layer_forward",
    "baseline_layer_forward",
    "forward_hidden",
    "text_logits",
    "prefill",
    "decode_step",
    "generate_greedy",
    "save_checkpoint",
    "load_checkpoint",
]

ARCH_HYBRID = "hybrid"
ARCH_BASELINE = "transformer_baseline"
BLOCK_NONE = "none"


class ConfigError(HybridSeqError):
    """A configuration value is invalid or inconsistent."""


class FormatError(HybridSeqError):
    """A serialized artifact is corrupt or has an unsupported version."""


# --------------------------------------------------------------------------
# Sequences and configuration
# --------------------------------------------------------------------------


@dataclass
class TokenSequence:
    """Token embeddings laid out video first: m video rows, then the text."""

    embeddings: Tensor
    m: int  # video rows
    n: int = field(init=False)  # text rows, the rest

    def __post_init__(self):
        rows = self.embeddings.shape[0]
        if not 0 <= self.m < rows:
            raise ContractError(f"a sequence needs 0 <= m < rows (at least one text "
                                f"token), got m = {self.m} of {rows} rows")
        self.n = rows - self.m


@dataclass
class HybridStackConfig:
    """The design space as data: architecture, block variant, dimensions."""

    d: int = 64
    n_layers: int = 2
    n_heads: int = 4
    vocab_size: int = 256
    architecture: str = ARCH_HYBRID
    block_variant: str = ssm_mod.MAMBA2  # mamba1 | mamba2 | none
    ca_from_sa: bool = True
    n_state: int | None = None
    mlp_ratio: int = 4

    def validate(self) -> "HybridStackConfig":
        if self.architecture not in (ARCH_HYBRID, ARCH_BASELINE):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.block_variant not in (ssm_mod.MAMBA1, ssm_mod.MAMBA2, BLOCK_NONE):
            raise ConfigError(f"unknown block variant {self.block_variant!r}")
        if self.d <= 0 or self.n_layers <= 0 or self.n_heads <= 0 or self.vocab_size <= 1:
            raise ConfigError("d, n_layers, n_heads and vocab_size must be positive")
        if self.d % self.n_heads != 0:
            raise ConfigError(f"width {self.d} not divisible by {self.n_heads} heads")
        return self

    def to_kv(self) -> dict[str, str]:
        return {
            "architecture": self.architecture,
            "d": str(self.d),
            "n_layers": str(self.n_layers),
            "n_heads": str(self.n_heads),
            "vocab_size": str(self.vocab_size),
            "block_variant": self.block_variant,
            "ca_from_sa": "1" if self.ca_from_sa else "0",
            "n_state": "" if self.n_state is None else str(self.n_state),
            "mlp_ratio": str(self.mlp_ratio),
        }

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "HybridStackConfig":
        return cls(
            d=int(kv["d"]),
            n_layers=int(kv["n_layers"]),
            n_heads=int(kv["n_heads"]),
            vocab_size=int(kv["vocab_size"]),
            architecture=kv["architecture"],
            block_variant=kv["block_variant"],
            ca_from_sa=kv["ca_from_sa"] == "1",
            n_state=int(kv["n_state"]) if kv.get("n_state") else None,
            mlp_ratio=int(kv.get("mlp_ratio", "4")),
        ).validate()


# --------------------------------------------------------------------------
# Layers and model containers
# --------------------------------------------------------------------------


@dataclass
class MLPParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.w1": self.w1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
        }


@dataclass
class NormParams:
    gain: Tensor
    bias: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}


@dataclass
class Layer:
    """One decoder layer.  `cross_attn` and `mamba` are None on a baseline."""

    attn_norm: NormParams
    self_attn: AttentionParams
    mlp_norm: NormParams
    mlp: MLPParams
    cross_attn: AttentionParams | None = None
    mamba: SSMParams | None = None


@dataclass
class Model:
    config: HybridStackConfig
    token_table: Tensor
    layers: list[Layer]
    final_norm: NormParams
    init_seed: int = 0

    @property
    def d(self) -> int:
        return self.config.d


def _norm(d: int) -> NormParams:
    return NormParams(
        gain=Tensor(np.ones(d), requires_grad=True),
        bias=Tensor(np.zeros(d), requires_grad=True),
    )


def _init_mlp(rng, d: int, ratio: int) -> MLPParams:
    hidden = ratio * d
    return MLPParams(
        w1=Tensor(rng.standard_normal((d, hidden)) / math.sqrt(d), requires_grad=True),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=Tensor(rng.standard_normal((hidden, d)) / math.sqrt(hidden), requires_grad=True),
        b2=Tensor(np.zeros(d), requires_grad=True),
    )


def _hybrid_parts(rng, config: HybridStackConfig, self_attn: AttentionParams,
                  mamba_out_std: float):
    """A hybrid layer's cross-attention and state-space block, drawn from rng
    in that order: the cross-attention is copied from `self_attn` when
    `ca_from_sa` is set, and the block is None when there is none."""
    if config.ca_from_sa:
        cross = attn.init_cross_from_self(self_attn)
    else:
        cross = attn.init_attention_params(rng, config.d, config.n_heads)
    mamba = None
    if config.block_variant != BLOCK_NONE:
        mamba = ssm_mod.init_ssm_params(
            rng, config.d, config.block_variant, n_state=config.n_state,
            out_init_std=mamba_out_std,
        )
    return cross, mamba


def build_model(config: HybridStackConfig, seed: int = 0, mamba_out_std: float = 0.0) -> Model:
    """Randomly initialized model; all parameters require gradients."""
    config.validate()
    rng = ng.new_rng(seed)
    d = config.d
    layers = []
    for _ in range(config.n_layers):
        self_attn = attn.init_attention_params(rng, d, config.n_heads)
        cross = mamba = None
        if config.architecture == ARCH_HYBRID:
            cross, mamba = _hybrid_parts(rng, config, self_attn, mamba_out_std)
        layers.append(
            Layer(
                attn_norm=_norm(d),
                self_attn=self_attn,
                mlp_norm=_norm(d),
                mlp=_init_mlp(rng, d, config.mlp_ratio),
                cross_attn=cross,
                mamba=mamba,
            )
        )
    table = Tensor(
        rng.standard_normal((config.vocab_size, d)) / math.sqrt(d), requires_grad=True
    )
    return Model(config=config, token_table=table, layers=layers,
                 final_norm=_norm(d), init_seed=seed)


def hybrid_from_baseline(
    baseline: Model, config: HybridStackConfig, seed: int = 0,
    mamba_out_std: float = 0.0,
) -> Model:
    """Graft the hybrid architecture onto a pretrained baseline.

    The baseline is copied, so every inherited parameter (embeddings,
    self-attention, MLPs, norms) starts from its values with no gradient;
    each layer then gains a cross-attention, transferred from its
    self-attention weights or drawn fresh, and a fresh state-space block.
    """
    if baseline.config.architecture != ARCH_BASELINE:
        raise ConfigError("hybrid_from_baseline needs a transformer_baseline source")
    config.validate()
    if config.architecture != ARCH_HYBRID:
        raise ConfigError("target configuration must be the hybrid architecture")
    for f in ("d", "n_layers", "n_heads", "vocab_size", "mlp_ratio"):
        if getattr(config, f) != getattr(baseline.config, f):
            raise ConfigError(f"baseline and hybrid configs disagree on {f}")

    model = copy.deepcopy(baseline)
    for t in named_parameters(model).values():
        t.requires_grad, t.grad = True, None
    rng = ng.new_rng(seed)
    for layer in model.layers:
        layer.cross_attn, layer.mamba = _hybrid_parts(rng, config, layer.self_attn, mamba_out_std)
    model.config, model.init_seed = config, seed
    return model


def make_sequence(model: Model, video: np.ndarray | None, text_ids) -> TokenSequence:
    """Assemble a video-first sequence; text embeds through the token table."""
    ids = np.asarray(text_ids, dtype=np.intp)
    if ids.ndim != 1 or ids.size < 1:
        raise ContractError("need at least one text token id")
    if ids.min() < 0 or ids.max() >= model.config.vocab_size:
        raise ContractError("text token id outside the vocabulary")
    text_emb = ng.index_rows(model.token_table, ids)
    if video is None or len(video) == 0:
        return TokenSequence(embeddings=text_emb, m=0)
    vid = np.asarray(video, dtype=np.float64)
    if vid.ndim != 2 or vid.shape[1] != model.config.d:
        raise ContractError(f"video vectors must be [M, {model.config.d}]")
    return TokenSequence(embeddings=ng.concat_rows([Tensor(vid), text_emb]), m=len(vid))


# --------------------------------------------------------------------------
# Parameter registry
# --------------------------------------------------------------------------


def named_parameters(model: Model) -> dict[str, Tensor]:
    """Flat path -> tensor map, sorted by path (stable across runs)."""
    out: dict[str, Tensor] = {"embed.token_table": model.token_table}
    out.update(model.final_norm.named("head.final_norm"))
    for i, layer in enumerate(model.layers):
        p = f"layers.{i}"
        out.update(layer.attn_norm.named(f"{p}.attn_norm"))
        out.update(layer.self_attn.named(f"{p}.self_attn"))
        out.update(layer.mlp_norm.named(f"{p}.mlp_norm"))
        out.update(layer.mlp.named(f"{p}.mlp"))
        if layer.cross_attn is not None:
            # the blend weight exists only where there is a cross branch
            out[f"{p}.alpha_raw"] = layer.self_attn.alpha_raw
            out.update(layer.cross_attn.named(f"{p}.cross_attn"))
        if layer.mamba is not None:
            out.update(layer.mamba.named(f"{p}.mamba"))
    return dict(sorted(out.items()))


def parameter_count_report(model: Model) -> dict:
    """Value counts grouped by component, plus the grand total."""
    groups = {"embedding": 0, "final_norm": 0, "self_attention": 0,
              "cross_attention": 0, "mamba": 0, "mlp": 0, "norms": 0, "alpha": 0}
    for path, t in named_parameters(model).items():
        n = t.size
        if path.startswith("embed."):
            groups["embedding"] += n
        elif path.startswith("head."):
            groups["final_norm"] += n
        elif ".self_attn" in path:
            groups["self_attention"] += n
        elif ".cross_attn" in path:
            groups["cross_attention"] += n
        elif ".mamba" in path:
            groups["mamba"] += n
        elif ".mlp." in path:
            groups["mlp"] += n
        elif path.endswith("alpha_raw"):
            groups["alpha"] += n
        else:
            groups["norms"] += n
    groups["total"] = sum(groups.values())
    return groups


# --------------------------------------------------------------------------
# Forward passes
# --------------------------------------------------------------------------


def _mlp_forward(mlp: MLPParams, x: Tensor) -> Tensor:
    h = ng.add(ng.matmul(x, mlp.w1), mlp.b1)
    return ng.add(ng.matmul(ng.gelu(h), mlp.w2), mlp.b2)


def _text_half(layer: Layer, x: Tensor, video=None,
               past: LayerCache | None = None) -> tuple[Tensor, LayerCache | None]:
    """The text half of a layer, for training, prefill and decode alike:
    pre-norm, the self branch, with `video` (normed video rows or a
    VideoKVCache) the cross branch and the blend, residual; then norm, MLP
    and residual.  On a baseline every row of the stream takes this path.

    With `past` (gradients off; empty in prefill), x's rows follow the
    positions `past` caches: their keys and values extend it, and the self
    branch attends over the grown cache.  Returns the rows and the grown
    cache (None without `past`)."""
    x_ln = ng.layer_norm(x, layer.attn_norm.gain, layer.attn_norm.bias)
    cache = None if past is None else past.extended(*attn.key_value_heads(layer.self_attn, x_ln))
    if video is not None:
        alpha = ng.sigmoid(layer.self_attn.alpha_raw)
        mid = ng.add(x, attn.blended_text_update(layer.self_attn, layer.cross_attn, alpha,
                                                 video, x_ln, cache))
    else:
        # text-only stream or baseline: pure causal self-attention
        mid = ng.add(x, attn.causal_self_attention(layer.self_attn, x_ln, cache))
    return ng.add(mid, _mlp_forward(layer.mlp, ng.layer_norm(mid, layer.mlp_norm.gain,
                                                            layer.mlp_norm.bias))), cache


def _checked(rows: Tensor, what: str, first: int) -> Tensor:
    """rows, once every value is known to be finite; otherwise NumericError
    names `what` and the stream position of the first bad row (rows[0]
    being at `first`)."""
    bad = ng.first_bad_row(rows.data)
    if bad is not None:
        raise NumericError(f"{what}: non-finite value at token {first + bad}")
    return rows


class _VideoHalf:
    """One hybrid layer's video half, one row group per call (a stage of
    `ssm.run_groups`): it norms the group's rows through the pre-attention
    norm the text rows share, keeps their cross keys and values, and
    returns the block's output rows (the rows themselves without a block).

    Without grad the keys and values go straight into the layer's
    head-major video cache.  Under grad each group's keys and values are
    graph nodes, joined once the last group is in (`video`)."""

    def __init__(self, layer: Layer, m: int):
        self.layer = layer
        self.block = None if layer.mamba is None else ssm_mod.BlockRun(layer.mamba)
        self.cache = None if ng.is_grad_enabled() else attn.VideoKVCache.empty(layer.cross_attn, m)
        self.keys: list[Tensor] = []
        self.values: list[Tensor] = []

    def __call__(self, rows: Tensor, position: int) -> Tensor:
        layer = self.layer
        normed = ng.layer_norm(rows, layer.attn_norm.gain, layer.attn_norm.bias)
        if self.cache is not None:
            self.cache.write(layer.cross_attn, normed, position)
        else:
            k, v = attn.key_value_rows(layer.cross_attn, normed)
            self.keys.append(k)
            self.values.append(v)
        return rows if self.block is None else self.block(rows, position)

    def video(self):
        """What the layer's cross branch reads: the cache, or the joined
        keys and values."""
        if self.cache is not None:
            return self.cache
        return ng.concat_rows(self.keys), ng.concat_rows(self.values)


def _stack(layers: list[Layer], x: Tensor, m: int, caching: bool = False,
           video_out: list | None = None) -> tuple[Tensor, list]:
    """The layers over the stream x whose first m rows are video; returns
    the text rows after the last layer and the per-layer caches.

    The baseline is the case m = 0: every row is a text row.  Each group of
    `ssm.GROUP_ROWS` video rows is taken from the stream and passed through
    every layer's video half in turn (`ssm.run_groups`), so without grad no
    [M, d] array is built but the video caches, and under grad the same
    order records the graph.  The video rows never read the text, so each
    layer's text half then runs once, against the layer's whole video cache
    (or joined keys and values).  The last layer's video rows are appended
    group by group to `video_out` when it is given; otherwise nothing keeps
    them.  With `caching` (gradients off) each layer's text half grows an
    empty `LayerCache` holding its video cache, and the list holds the
    grown ones; without, it holds None for each layer.
    """
    halves = [_VideoHalf(layer, m) for layer in layers] if m else [None] * len(layers)
    ssm_mod.run_groups(x, m, halves, video_out)
    text = ng.slice_rows(x, m, x.shape[0]) if m else x
    caches = []
    for i, (layer, half) in enumerate(zip(layers, halves)):
        video = None if half is None else half.video()
        past = LayerCache.empty(layer.self_attn, video) if caching else None
        text, cache = _text_half(layer, text, video, past)
        _checked(text, f"layer {i} text half", m)
        caches.append(cache)
    return text, caches


def _joined(layers: list[Layer], seq: TokenSequence, m: int) -> TokenSequence:
    """`_stack` over seq with its first m rows as video; returns the last
    layer's video rows, joined from their groups, then the text rows."""
    video: list[Tensor] = []
    text = _stack(layers, seq.embeddings, m, video_out=video)[0]
    return TokenSequence(ng.concat_rows(video + [text]) if video else text, seq.m)


def _video_rows(model: Model, seq: TokenSequence) -> int:
    """The rows of seq the stack runs as video: none on the baseline."""
    return seq.m if model.config.architecture == ARCH_HYBRID else 0


def hybrid_layer_forward(layer: Layer, seq: TokenSequence) -> TokenSequence:
    """One hybrid layer: scan for video rows, blended attention + MLP for text.

    Cross-attention keys/values come from the layer-input video rows passed
    through the same pre-attention norm as the text rows, mirroring the
    baseline's shared pre-LN; the video rows themselves are updated only by
    the state-space block (or left unchanged when the block is absent).
    The one-layer case of `_stack`.
    """
    return _joined([layer], seq, seq.m)


def baseline_layer_forward(layer: Layer, seq: TokenSequence) -> TokenSequence:
    """One baseline layer: causal attention plus MLP over the full stream.

    With the video-first layout, the single causal mask gives video token i
    attention over video 1..i and text token j attention over all video
    plus text 1..j.  The one-layer case of `_stack` with no video rows."""
    return _joined([layer], seq, 0)


def forward_hidden(model: Model, seq: TokenSequence) -> TokenSequence:
    """All layers; returns the final TokenSequence.  On the hybrid its video
    rows are the last layer's block output, joined from its row groups."""
    return _joined(model.layers, seq, _video_rows(model, seq))


def _head(model: Model, h: Tensor, first: int) -> Tensor:
    """Final norm, then the output product tied to the token table, over
    rows h whose first is at stream position `first`."""
    h = ng.layer_norm(h, model.final_norm.gain, model.final_norm.bias)
    return _checked(ng.matmul_t(h, model.token_table), "logits", first)


def text_logits(model: Model, seq: TokenSequence) -> Tensor:
    """Next-token logits for every text position, [N, vocab_size].

    Only text positions feed the output head; the head shares weights with
    the token embedding table."""
    hidden = forward_hidden(model, seq)
    m, n = seq.m, seq.n
    return _head(model, ng.slice_rows(hidden.embeddings, m, m + n), m)


# --------------------------------------------------------------------------
# Prefill and incremental decode
# --------------------------------------------------------------------------


@dataclass
class TextRows:
    """Text keys/values shared by the contexts of one decode line.

    `k` and `v` are [n_heads, capacity, head_dim]; rows 0..filled-1 are
    written, and a written row never changes.
    """

    k: np.ndarray
    v: np.ndarray
    filled: int


@dataclass
class LayerCache:
    """One layer's caches as one context sees them: the read-only video
    keys/values and the first `n` rows of a text key/value buffer."""

    video_kv: VideoKVCache | None  # hybrid cross keys/values (immutable)
    rows: TextRows
    n: int

    @classmethod
    def empty(cls, params: AttentionParams, video_kv: VideoKVCache | None) -> "LayerCache":
        """A cache over `video_kv` with no text rows yet: where prefill's
        text half starts (self-attention `params` give the row shape)."""
        none = np.empty((params.n_heads, 0, params.head_dim))
        return cls(video_kv, TextRows(none, none, 0), 0)

    @property
    def text_k(self) -> np.ndarray:  # [n_heads, n, head_dim] (baseline: joint stream)
        return self.rows.k[:, : self.n]

    @property
    def text_v(self) -> np.ndarray:
        return self.rows.v[:, : self.n]

    def extended(self, k_new: np.ndarray, v_new: np.ndarray) -> "LayerCache":
        """This cache plus r rows ([n_heads, r, head_dim] each), as a new one.

        The rows go into the shared buffer when the buffer has room and no
        other context has written past row n; otherwise the n rows move to
        a new buffer with room for twice the n + r rows it then holds.  So
        appending costs O(1) amortized, the steps after a prefill write into
        the buffer the prefill filled, and branches from one context never
        see each other's rows.
        """
        rows, n, end = self.rows, self.n, self.n + k_new.shape[1]
        if rows.filled != n or end > rows.k.shape[1]:
            k = np.empty((rows.k.shape[0], 2 * end, rows.k.shape[2]))
            v = np.empty_like(k)
            k[:, :n] = rows.k[:, :n]
            v[:, :n] = rows.v[:, :n]
            rows = TextRows(k, v, n)
        rows.k[:, n:end] = k_new
        rows.v[:, n:end] = v_new
        rows.filled = end
        return LayerCache(self.video_kv, rows, end)


@dataclass
class DecodeContext:
    """Everything needed to extend the text stream one token at a time.

    `decode_step` never changes what a context sees, so any number of
    continuations can branch from one prefill.
    """

    n_text: int
    caches: list[LayerCache]


def prefill(model: Model, seq: TokenSequence):
    """Forward over the whole prompt; returns (last-position logits, context).

    The layers run once (`_stack` with `caching`), and each layer's cache
    comes back with the rows: the video key/value cache its cross branch
    read and the self cache its text half grew from empty (text rows on
    the hybrid, the joint stream on the baseline), so the context costs no
    second pass.  The last layer's video rows, which nothing reads, are not
    kept.  Runs without graph recording; the head runs on the last row
    only."""
    m, n = seq.m, seq.n
    with ng.no_grad():
        rows, caches = _stack(model.layers, seq.embeddings, _video_rows(model, seq),
                              caching=True)
        last = rows.shape[0]
        logits = _head(model, ng.slice_rows(rows, last - 1, last), m + n - 1)
    return logits.data[0], DecodeContext(n_text=n, caches=caches)


def decode_step(model: Model, ctx: DecodeContext, token_embedding):
    """Process one new text token against the cached context.

    Each layer runs its text half (`_text_half`) on the new row, with the
    layer's cache as `past`: the cross branch costs O(M) against the frozen
    video cache, the self branch O(N) against the text cache; generated
    tokens are text-role, so no scan runs.  Returns (logits, the extended
    context).  `ctx` itself is left unchanged, so several continuations can
    branch from it (see `LayerCache.extended`)."""
    caches: list[LayerCache] = []
    first = ctx.caches[0]  # the new token's position in the stream:
    position = first.n + (0 if first.video_kv is None else first.video_kv.m)
    with ng.no_grad():
        x = ng.reshape(token_embedding, (1, model.config.d))
        for i, (layer, past) in enumerate(zip(model.layers, ctx.caches)):
            x, cache = _text_half(layer, x, past.video_kv, past)
            _checked(x, f"layer {i} text half", position)
            caches.append(cache)
        logits = _head(model, x, position)
    return logits.data[0], DecodeContext(n_text=ctx.n_text + 1, caches=caches)


def generate_greedy(model: Model, seq: TokenSequence, steps: int) -> list[int]:
    """Greedy continuation of the text stream; returns the new token ids.

    The oracle for `training.evaluate`, which reads the same verdict off one
    teacher-forced forward.  The last token's logits are never read, so
    `decode_step` runs steps - 1 times."""
    logits, ctx = prefill(model, seq)
    out = []
    for i in range(steps):
        tok = int(np.argmax(logits))
        out.append(tok)
        if i + 1 < steps:
            logits, ctx = decode_step(model, ctx, model.token_table.data[tok])
    return out


# --------------------------------------------------------------------------
# Checkpoint serialization
# --------------------------------------------------------------------------

_MAGIC = b"HYSQCKP1"
CHECKPOINT_VERSION = 2  # v2 appends a CRC-32 of the parameter records; v1 files still load


def save_checkpoint(model: Model, path: str) -> None:
    """Versioned binary: config text block, then path-sorted LE float64
    parameter records, then the CRC-32 of those records."""
    kv = model.config.to_kv()
    kv["init_seed"] = str(model.init_seed)
    config_text = "\n".join(f"{k}={v}" for k, v in sorted(kv.items()))
    config_bytes = config_text.encode("utf-8")
    params = named_parameters(model)

    records = io.BytesIO()
    for name, t in params.items():
        nb = name.encode("utf-8")
        records.write(struct.pack("<H", len(nb)))
        records.write(nb)
        records.write(struct.pack("<B", t.ndim))
        for dim in t.shape:
            records.write(struct.pack("<I", dim))
        records.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    records = records.getvalue()

    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<Q", len(config_bytes)))
    buf.write(config_bytes)
    buf.write(struct.pack("<I", len(params)))
    buf.write(records)
    buf.write(struct.pack("<I", zlib.crc32(records)))
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path: str, expected_config: HybridStackConfig | None = None) -> Model:
    with open(path, "rb") as f:
        raw = f.read()
    return _model_from_bytes(raw, expected_config)


def _model_from_bytes(raw: bytes, expected_config: HybridStackConfig | None = None) -> Model:
    """Parse a checkpoint image (version 1 or 2).  Any malformed header,
    config block or parameter record, or (v2) records that fail their
    checksum, raise FormatError; a well-formed file that does not
    fit its own (or the expected) configuration raises ConfigError."""
    view = memoryview(raw)
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise FormatError(f"checkpoint truncated at byte {off}")
        chunk = view[off : off + n]
        off += n
        return chunk

    def text(n: int, what: str) -> str:
        try:
            return bytes(take(n)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"checkpoint {what} is not UTF-8: {exc}") from exc

    if bytes(take(8)) != _MAGIC:
        raise FormatError("not a hybridseq checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version not in (1, CHECKPOINT_VERSION):
        raise FormatError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<Q", take(8))
    kv = {}
    for line in text(cfg_len, "config block").splitlines():
        if line:
            k, _, v = line.partition("=")
            kv[k] = v
    try:
        config = HybridStackConfig.from_kv(kv)
        seed = int(kv.get("init_seed", "0"))
        if seed < 0:
            raise ValueError(f"negative init_seed {seed}")
    except (KeyError, ValueError) as exc:
        raise FormatError(f"checkpoint config block unreadable: {exc}") from exc
    if expected_config is not None and config.to_kv() != expected_config.to_kv():
        raise ConfigError("checkpoint configuration does not match the expected one")

    (n_params,) = struct.unpack("<I", take(4))
    records_at = off
    loaded: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len, "parameter name")
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:
            loaded[name] = np.array(data.reshape(shape), dtype=np.float64)
        except ValueError as exc:  # more axes than numpy allows
            raise FormatError(f"checkpoint parameter {name} has shape {shape}: {exc}") from exc
    if version >= 2:
        records = view[records_at:off]
        (crc,) = struct.unpack("<I", take(4))
        if zlib.crc32(records) != crc:
            raise FormatError("checkpoint parameter records fail their checksum")
    if off != len(raw):
        raise FormatError("checkpoint has trailing bytes")

    model = build_model(config, seed=seed)
    params = named_parameters(model)
    if set(params) != set(loaded):
        missing = set(params) ^ set(loaded)
        raise ConfigError(f"checkpoint parameters do not match config: {sorted(missing)[:4]}")
    for name, t in params.items():
        if loaded[name].shape != t.shape:
            raise ConfigError(
                f"shape mismatch for {name}: checkpoint {loaded[name].shape}, config {t.shape}"
            )
        if not np.all(np.isfinite(loaded[name])):
            raise FormatError(f"checkpoint parameter {name} holds non-finite values")
        t.data = loaded[name]
    return model
