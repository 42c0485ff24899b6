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

Prefill runs the whole prompt once and returns a `DecodeContext` carrying
per-layer video key/value caches and text self-attention caches;
`decode_step` then extends the text stream one token at a time against
those caches, returning a new context and leaving the one it was given
unchanged.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import erf as _erf

from . import attention as attn
from . import numerics as ng
from . import ssm as ssm_mod
from .attention import AttentionParams, VideoKVCache
from .numerics import ContractError, HybridSeqError, Tensor
from .ssm import SSMParams, SSMState

__all__ = [
    "ROLE_VIDEO",
    "ROLE_TEXT",
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

ROLE_VIDEO = 0
ROLE_TEXT = 1

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
    """Interleaved token embeddings with per-position roles, video first."""

    embeddings: Tensor
    roles: np.ndarray

    def __post_init__(self):
        self.roles = np.asarray(self.roles, dtype=np.int8)
        if self.embeddings.shape[0] != self.roles.shape[0]:
            raise ContractError("embeddings and roles disagree on length")
        is_text = self.roles == ROLE_TEXT
        if not is_text.any():
            raise ContractError("a sequence needs at least one text token")
        first_text = int(np.argmax(is_text))
        if not is_text[first_text:].all():
            raise ContractError("layout must be video-first: text follows all video")

    @property
    def m(self) -> int:
        return int((self.roles == ROLE_VIDEO).sum())

    @property
    def n(self) -> int:
        return int((self.roles == ROLE_TEXT).sum())


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
        if self.d <= 0 or self.n_layers <= 0 or self.vocab_size <= 1:
            raise ConfigError("d, n_layers and vocab_size must be positive")
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


def build_model(config: HybridStackConfig, seed: int = 0, mamba_out_std: float = 0.0) -> Model:
    """Randomly initialized model; all parameters require gradients."""
    config.validate()
    rng = ng.new_rng(seed)
    d = config.d
    layers = []
    for _ in range(config.n_layers):
        self_attn = attn.init_attention_params(rng, d, config.n_heads)
        cross = None
        mamba = None
        if config.architecture == ARCH_HYBRID:
            if config.ca_from_sa:
                cross = attn.init_cross_from_self(self_attn)
            else:
                cross = attn.init_attention_params(rng, d, config.n_heads)
            if config.block_variant != BLOCK_NONE:
                mamba = ssm_mod.init_ssm_params(
                    rng, d, config.block_variant, n_state=config.n_state,
                    out_init_std=mamba_out_std,
                )
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

    Every baseline-inherited parameter (embeddings, self-attention, MLPs,
    norms) is copied; the new cross-attention layers are either transferred
    from the corresponding self-attention weights or drawn fresh, and the
    state-space blocks are always fresh.
    """
    if baseline.config.architecture != ARCH_BASELINE:
        raise ConfigError("hybrid_from_baseline needs a transformer_baseline source")
    config.validate()
    if config.architecture != ARCH_HYBRID:
        raise ConfigError("target configuration must be the hybrid architecture")
    for f in ("d", "n_layers", "n_heads", "vocab_size", "mlp_ratio"):
        if getattr(config, f) != getattr(baseline.config, f):
            raise ConfigError(f"baseline and hybrid configs disagree on {f}")

    rng = ng.new_rng(seed)

    def cp(t: Tensor) -> Tensor:
        return Tensor(t.data.copy(), requires_grad=True)

    def cp_attn(p: AttentionParams) -> AttentionParams:
        return AttentionParams(
            w_q=cp(p.w_q), w_k=cp(p.w_k), w_v=cp(p.w_v), w_o=cp(p.w_o),
            n_heads=p.n_heads, alpha_raw=cp(p.alpha_raw),
        )

    layers = []
    for src in baseline.layers:
        self_attn = cp_attn(src.self_attn)
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
        layers.append(
            Layer(
                attn_norm=NormParams(cp(src.attn_norm.gain), cp(src.attn_norm.bias)),
                self_attn=self_attn,
                mlp_norm=NormParams(cp(src.mlp_norm.gain), cp(src.mlp_norm.bias)),
                mlp=MLPParams(cp(src.mlp.w1), cp(src.mlp.b1), cp(src.mlp.w2), cp(src.mlp.b2)),
                cross_attn=cross,
                mamba=mamba,
            )
        )
    return Model(
        config=config,
        token_table=cp(baseline.token_table),
        layers=layers,
        final_norm=NormParams(cp(baseline.final_norm.gain), cp(baseline.final_norm.bias)),
        init_seed=seed,
    )


def make_sequence(model: Model, video: np.ndarray | None, text_ids) -> TokenSequence:
    """Assemble a video-first sequence; text embeds through the token table."""
    ids = np.asarray(text_ids, dtype=np.intp)
    if ids.ndim != 1 or ids.size < 1:
        raise ContractError("need at least one text token id")
    if ids.min() < 0 or ids.max() >= model.config.vocab_size:
        raise ContractError("text token id outside the vocabulary")
    text_emb = ng.index_rows(model.token_table, ids)
    if video is None or len(video) == 0:
        emb = text_emb
        roles = np.full(ids.size, ROLE_TEXT)
    else:
        vid = np.asarray(video, dtype=np.float64)
        if vid.ndim != 2 or vid.shape[1] != model.config.d:
            raise ContractError(f"video vectors must be [M, {model.config.d}]")
        emb = ng.concat_rows([Tensor(vid), text_emb])
        roles = np.concatenate([np.full(len(vid), ROLE_VIDEO), np.full(ids.size, ROLE_TEXT)])
    return TokenSequence(embeddings=emb, roles=roles)


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


def hybrid_layer_forward(layer: Layer, seq: TokenSequence, state: SSMState | None):
    """One hybrid layer: scan for video rows, blended attention + MLP for text.

    Cross-attention keys/values come from the layer-input video rows passed
    through the same pre-attention norm as the text rows, mirroring the
    baseline's shared pre-LN; the video rows themselves are updated only by
    the state-space block (or left unchanged when the block is absent).
    """
    m, n = seq.m, seq.n
    x = seq.embeddings
    x_t = ng.slice_rows(x, m, m + n) if m > 0 else x

    new_state = state
    if m > 0:
        x_v = ng.slice_rows(x, 0, m)
        if layer.mamba is not None:
            v_out, new_state = ssm_mod.mamba_block_forward(layer.mamba, x_v, state)
        else:
            v_out = x_v

    x_t_ln = ng.layer_norm(x_t, layer.attn_norm.gain, layer.attn_norm.bias)
    if m > 0:
        x_v_ln = ng.layer_norm(x_v, layer.attn_norm.gain, layer.attn_norm.bias)
        alpha = ng.sigmoid(layer.self_attn.alpha_raw)
        attn_out = attn.blended_text_update(
            layer.self_attn, layer.cross_attn, alpha, x_v_ln, x_t_ln
        )
    else:
        # text-only sequence: the cross branch is undefined, blend weight is
        # implicitly 1 and the update is pure causal self-attention
        attn_out = attn.causal_self_attention(layer.self_attn, x_t_ln)
    t_mid = ng.add(x_t, attn_out)
    t_out = ng.add(
        t_mid, _mlp_forward(layer.mlp, ng.layer_norm(t_mid, layer.mlp_norm.gain, layer.mlp_norm.bias))
    )

    emb = t_out if m == 0 else ng.concat_rows([v_out, t_out])
    return TokenSequence(embeddings=emb, roles=seq.roles), new_state


def baseline_layer_forward(layer: Layer, seq: TokenSequence) -> TokenSequence:
    """One baseline layer: causal attention plus MLP over the full stream.

    With the video-first layout, the single causal mask gives video token i
    attention over video 1..i and text token j attention over all video
    plus text 1..j."""
    x = seq.embeddings
    x_ln = ng.layer_norm(x, layer.attn_norm.gain, layer.attn_norm.bias)
    x = ng.add(x, attn.causal_self_attention(layer.self_attn, x_ln))
    x = ng.add(
        x, _mlp_forward(layer.mlp, ng.layer_norm(x, layer.mlp_norm.gain, layer.mlp_norm.bias))
    )
    return TokenSequence(embeddings=x, roles=seq.roles)


def forward_hidden(model: Model, seq: TokenSequence):
    """All layers; returns (final TokenSequence, final per-layer scan states)."""
    states: list[SSMState | None] = []
    cur = seq
    for layer in model.layers:
        if model.config.architecture == ARCH_BASELINE:
            cur = baseline_layer_forward(layer, cur)
            states.append(None)
        else:
            cur, st = hybrid_layer_forward(layer, cur, None)
            states.append(st)
    return cur, states


def text_logits(model: Model, seq: TokenSequence) -> Tensor:
    """Next-token logits for every text position, [N, vocab_size].

    Only text positions feed the output head; the head shares weights with
    the token embedding table."""
    hidden, _ = forward_hidden(model, seq)
    m, n = seq.m, seq.n
    h_t = ng.slice_rows(hidden.embeddings, m, m + n)
    h_t = ng.layer_norm(h_t, model.final_norm.gain, model.final_norm.bias)
    return ng.matmul(h_t, ng.transpose(model.token_table))


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

    @property
    def text_k(self) -> np.ndarray:  # [n_heads, n, head_dim] (baseline: joint stream)
        return self.rows.k[:, : self.n]

    @property
    def text_v(self) -> np.ndarray:
        return self.rows.v[:, : self.n]

    def extended(self, k_new: np.ndarray, v_new: np.ndarray) -> "LayerCache":
        """This cache plus one row ([n_heads, 1, head_dim] each), as a new one.

        The row goes into the shared buffer when the buffer has room and no
        other context has written past row n; otherwise the n rows move to
        a new buffer of twice the size.  So appending costs O(1) amortized,
        and branches from one context never see each other's rows.
        """
        rows, n = self.rows, self.n
        if rows.filled != n or n == rows.k.shape[1]:
            k = np.empty((rows.k.shape[0], 2 * n, rows.k.shape[2]))
            v = np.empty_like(k)
            k[:, :n] = rows.k[:, :n]
            v[:, :n] = rows.v[:, :n]
            rows = TextRows(k, v, n)
        rows.k[:, n] = k_new[:, 0]
        rows.v[:, n] = v_new[:, 0]
        rows.filled = n + 1
        return LayerCache(self.video_kv, rows, n + 1)


@dataclass
class DecodeContext:
    """Everything needed to extend the text stream one token at a time.

    `decode_step` never changes what a context sees, so any number of
    continuations can branch from one prefill.
    """

    arch: str
    m: int
    n_text: int
    caches: list[LayerCache]


def _kv_heads(params: AttentionParams, x_ln: np.ndarray):
    nh, dh = params.n_heads, params.head_dim
    k = (x_ln @ params.w_k.data).reshape(-1, nh, dh).transpose(1, 0, 2)
    v = (x_ln @ params.w_v.data).reshape(-1, nh, dh).transpose(1, 0, 2)
    return np.ascontiguousarray(k), np.ascontiguousarray(v)


def _layer_norm_np(x: np.ndarray, norm: NormParams, eps: float = 1e-6) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + eps) * norm.gain.data + norm.bias.data


def _mlp_np(mlp: MLPParams, x: np.ndarray) -> np.ndarray:
    h = x @ mlp.w1.data + mlp.b1.data
    phi = 0.5 * (1.0 + _erf(h / math.sqrt(2.0)))
    return (h * phi) @ mlp.w2.data + mlp.b2.data


def prefill(model: Model, seq: TokenSequence):
    """Forward over the whole prompt; returns (last-position logits, context).

    The context carries per-layer video key/value caches and the text-side
    self-attention keys/values for positions 1..N.  Runs without graph
    recording."""
    m, n = seq.m, seq.n
    caches: list[LayerCache] = []
    with ng.no_grad():
        cur = seq
        for layer in model.layers:
            x = cur.embeddings
            if model.config.architecture == ARCH_BASELINE:
                x_ln = _layer_norm_np(x.data, layer.attn_norm)
                k, v = _kv_heads(layer.self_attn, x_ln)
                caches.append(LayerCache(None, TextRows(k, v, k.shape[1]), k.shape[1]))
                cur = baseline_layer_forward(layer, cur)
            else:
                x_ln = _layer_norm_np(x.data, layer.attn_norm)
                if m > 0:
                    vid_cache = attn.build_video_kv_cache(
                        layer.cross_attn, Tensor(x_ln[:m])
                    )
                else:
                    vid_cache = None
                k, v = _kv_heads(layer.self_attn, x_ln[m:])
                caches.append(LayerCache(vid_cache, TextRows(k, v, n), n))
                cur, _ = hybrid_layer_forward(layer, cur, None)
        h_last = cur.embeddings.data[m + n - 1 : m + n]
        h_last = _layer_norm_np(h_last, model.final_norm)
        logits = (h_last @ model.token_table.data.T)[0]
    ctx = DecodeContext(arch=model.config.architecture, m=m, n_text=n, caches=caches)
    return logits, ctx


def decode_step(model: Model, ctx: DecodeContext, token_embedding):
    """Process one new text token against the cached context.

    Returns (logits, the extended context).  The cross branch costs O(M)
    against the frozen video cache, the self branch O(N) against the text
    cache; generated tokens are text-role, so no scan runs.  `ctx` itself
    is left unchanged, so several continuations can branch from it (see
    `LayerCache.extended`)."""
    e = token_embedding.data if isinstance(token_embedding, Tensor) else np.asarray(token_embedding)
    x = e.reshape(1, model.config.d).astype(np.float64)
    caches: list[LayerCache] = []
    with ng.no_grad():
        for layer, cache in zip(model.layers, ctx.caches):
            x_ln = _layer_norm_np(x, layer.attn_norm)
            k_new, v_new = _kv_heads(layer.self_attn, x_ln)
            grown = cache.extended(k_new, v_new)
            caches.append(grown)
            attn_out = attn.attend_cached(layer.self_attn, x_ln, grown.text_k, grown.text_v,
                                          "causal self-attention")
            if ctx.arch == ARCH_HYBRID and cache.video_kv is not None:
                cross = attn.cross_attention(layer.cross_attn, Tensor(x_ln), cache.video_kv)
                a = float(1.0 / (1.0 + math.exp(-layer.self_attn.alpha_raw.item())))
                attn_out = (1.0 - a) * cross.data + a * attn_out
            x = x + attn_out
            x = x + _mlp_np(layer.mlp, _layer_norm_np(x, layer.mlp_norm))
        h = _layer_norm_np(x, model.final_norm)
        logits = (h @ model.token_table.data.T)[0]
    return logits, DecodeContext(arch=ctx.arch, m=ctx.m, n_text=ctx.n_text + 1, caches=caches)


def generate_greedy(model: Model, seq: TokenSequence, steps: int) -> list[int]:
    """Greedy continuation of the text stream; returns the new token ids."""
    logits, ctx = prefill(model, seq)
    out = []
    for _ in range(steps):
        tok = int(np.argmax(logits))
        out.append(tok)
        emb = model.token_table.data[tok]
        logits, ctx = decode_step(model, ctx, emb)
    return out


# --------------------------------------------------------------------------
# Checkpoint serialization
# --------------------------------------------------------------------------

_MAGIC = b"HYSQCKP1"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: Model, path: str) -> None:
    """Versioned binary: config text block, then path-sorted LE float64."""
    kv = model.config.to_kv()
    kv["init_seed"] = str(model.init_seed)
    config_text = "\n".join(f"{k}={v}" for k, v in sorted(kv.items()))
    config_bytes = config_text.encode("utf-8")
    params = named_parameters(model)

    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<Q", len(config_bytes)))
    buf.write(config_bytes)
    buf.write(struct.pack("<I", len(params)))
    for name, t in params.items():
        nb = name.encode("utf-8")
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", t.ndim))
        for dim in t.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path: str, expected_config: HybridStackConfig | None = None) -> Model:
    with open(path, "rb") as f:
        raw = f.read()
    view = memoryview(raw)
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise FormatError(f"checkpoint truncated at byte {off}")
        chunk = view[off : off + n]
        off += n
        return chunk

    if bytes(take(8)) != _MAGIC:
        raise FormatError("not a hybridseq checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<Q", take(8))
    kv = {}
    for line in bytes(take(cfg_len)).decode("utf-8").splitlines():
        if line:
            k, _, v = line.partition("=")
            kv[k] = v
    try:
        config = HybridStackConfig.from_kv(kv)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"checkpoint config block unreadable: {exc}") from exc
    if expected_config is not None and config.to_kv() != expected_config.to_kv():
        raise ConfigError("checkpoint configuration does not match the expected one")

    (n_params,) = struct.unpack("<I", take(4))
    loaded: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape)
        loaded[name] = np.array(data, dtype=np.float64)
    if off != len(raw):
        raise FormatError("checkpoint has trailing bytes")

    model = build_model(config, seed=int(kv.get("init_seed", "0")))
    params = named_parameters(model)
    if set(params) != set(loaded):
        missing = set(params) ^ set(loaded)
        raise ConfigError(f"checkpoint parameters do not match config: {sorted(missing)[:4]}")
    for name, t in params.items():
        if loaded[name].shape != t.shape:
            raise ConfigError(
                f"shape mismatch for {name}: checkpoint {loaded[name].shape}, config {t.shape}"
            )
        t.data = loaded[name]
    return model
