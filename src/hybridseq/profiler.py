"""Cost models, FLOP counting, memory estimates, and scaling fits.

Three independent views of the same forward pass are kept in deliberate
tension:

* `analytic_cost` -- a closed-form polynomial in (M, N, d, layers) whose
  constants are derived term by term from the implemented layer
  composition (not just leading orders);
* `counted_cost` -- the FLOPs actually reported by the numerics meter
  while running one pre-fill forward (a pure function of the graph);
* `bench` -- wall-clock medians over a grid.

`fit_scaling_exponent` turns any of them into a log-log slope, which is
how the quadratic-vs-linear separation between the two architectures is
demonstrated empirically: the baseline's counted pre-fill FLOPs fit a
slope near 2 in the video-token count, the hybrid's near 1.

Conventions: multiply-add = 2 FLOPs; per-element charges for softmax,
layer norm and friends come from `numerics.FLOP_COST`.  Memory estimates
count live float64 activation values of a forward pass that retains
activations for a reverse pass (the training regime, where the quadratic
score matrices dominate); they are analytic, so the metric is platform
independent.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import model as mod
from . import numerics as ng
from .model import ARCH_BASELINE, ARCH_HYBRID, BLOCK_NONE, Model
from .numerics import ContractError, FLOP_COST
from .ssm import CONV_WIDTH, EXPAND, GROUP_ROWS, MAMBA1, MAMBA2, SSD_CHUNK, _default_sizes

__all__ = [
    "CostModel",
    "CostReport",
    "FitResult",
    "analytic_cost",
    "leading_term_cost",
    "counted_cost",
    "memory_estimate",
    "fit_scaling_exponent",
    "bench",
    "write_reports_csv",
    "write_reports_json",
    "read_reports",
    "BENCH_SCHEMA",
]

BENCH_SCHEMA = "hybridseq.bench.v1"


# --------------------------------------------------------------------------
# Analytic model
# --------------------------------------------------------------------------


def _attention_flops(lq: int, lk: int, d: int, n_heads: int) -> float:
    """One multi-head attention call as implemented: q/k/v projections,
    scores, softmax, weighted values, output projection."""
    proj = 2.0 * (lq + 2 * lk) * d * d  # q over lq rows, k and v over lk rows
    scores_and_out = 4.0 * lq * lk * d  # 2*lq*lk*dh per head for each of the two gemms
    softm = FLOP_COST["softmax"] * float(lq) * lk * n_heads
    out_proj = 2.0 * lq * d * d
    return proj + scores_and_out + softm + out_proj


def _mlp_flops(rows: int, d: int, ratio: int) -> float:
    hidden = ratio * d
    gemms = 2.0 * rows * d * hidden * 2
    bias = rows * (hidden + d)
    act = FLOP_COST["gelu"] * float(rows) * hidden
    return gemms + bias + act


def _ln_flops(rows: int, d: int) -> float:
    return FLOP_COST["layer_norm"] * float(rows) * d


def _ssd_scan_flops(m: int, d_inner: int, n_heads: int, n_state: int, chunk: int) -> float:
    """The chunked mamba2 scan over m rows from a zero state, as metered.

    Every chunk runs at full width, so the zero rows that pad the last
    chunk count too."""
    h, n, q = n_heads, n_state, chunk
    k = -(-m // q)
    rows = k * q
    fl = 2.0 * h  # a = -exp(a_log)
    fl += m * h + m * d_inner  # dA = delta * a, x * delta
    fl += FLOP_COST["cumsum"] * float(rows) * h  # chunk-local cumulative dA
    fl += 3.0 * rows * q * h  # decay matrix: difference, causal zeroing, exp
    fl += 2.0 * rows * q * n + rows * q  # C B^T scores and their causal mask
    fl += rows * q * h  # decay * scores
    fl += 2.0 * rows * q * d_inner  # intra-chunk output
    fl += 2.0 * rows * h + rows * d_inner  # decay to chunk end, applied to x*delta
    fl += 2.0 * rows * d_inner * n  # each chunk's contribution to its end state
    fl += k * h + 2.0 * k * d_inner * n  # chunk-to-chunk state passing
    fl += 2.0 * rows * d_inner * n  # readout of the carried-in state
    fl += rows * h + 2.0 * rows * d_inner  # its decay, and the sum of both outputs
    return fl


def _ssd_scan_values(m: int, d_inner: int, n_heads: int, n_state: int, chunk: int) -> float:
    """Values the chunked mamba2 scan keeps for its reverse pass over m rows
    from a zero state: its inputs, each chunk's C B^T and head-major
    tensors, and per chunk its contribution to the end state, the boundary
    state and the state it starts from, joined from h0 and a copy of the
    boundary states but the last.  No per-step state history is kept, and
    no per-head decay matrix: the intra-chunk mix recomputes its weights in
    its reverse pass."""
    h, n, q = n_heads, n_state, chunk
    k = -(-m // q)
    rows = k * q
    vals = m * (4.0 * h + 2 * n + d_inner)  # delta (three stages), dA, B, C, x*delta
    framed = int(rows > m)  # inputs padded to the chunk grid, y sliced back
    vals += framed * (rows * (h + 2.0 * n + d_inner) + m * d_inner)
    vals += rows * q  # C B^T
    vals += rows * (7.0 * d_inner + n + 6 * h)  # head-major copies, partial outputs
    vals += (4.0 * k - 1) * d_inner * n  # contributions, boundary states, their copy, starts
    return vals


def _sequential_scan_values(m: int, d_inner: int, n_state: int, block: int) -> float:
    """Values the sequential mamba1 scan keeps for its reverse pass over m
    rows, scanned `block` rows at a time: its inputs and x's blocks, every
    per-step [n_state, d_inner] stage of the composition and the states
    themselves, and the blocks' outputs and their join."""
    c, n = d_inner, n_state
    k = -(-m // block)
    vals = m * (4.0 * c + 2 * n)  # delta (three stages), B, C, x's blocks
    vals += 2.0 * c * n  # a = -exp(a_log)
    vals += 7.0 * m * c * n  # dA, its exp and expm1, three input-path stages, states
    vals += 2.0 * m * c  # outputs, joined
    vals += k * c * n  # each block's last state, handed to the next
    return vals


def _block_body_values(m: int, d: int, variant: str, n_heads: int, n_state: int) -> float:
    """Values the block body keeps when recorded over m rows from the
    stream's start: the scan's, plus its activations.  The body runs over
    groups of `GROUP_ROWS` rows, so the chunked scan is charged per group
    (only the last one is padded to the chunk grid, and no group is empty).
    With no rows the body never runs and keeps nothing.  A recorded block
    keeps none of this (`_block_kept_values`): its reverse pass records one
    group's body at a time, `_block_body_values(GROUP_ROWS, ...)` at most."""
    if m == 0:
        return 0.0
    d_inner = EXPAND * d
    if variant == MAMBA1:
        vals = _sequential_scan_values(m, d_inner, n_state, SSD_CHUNK)
    else:
        full, last = divmod(m, GROUP_ROWS)
        vals = full * _ssd_scan_values(GROUP_ROWS, d_inner, n_heads, n_state, SSD_CHUNK)
        if last:
            vals += _ssd_scan_values(last, d_inner, n_heads, n_state, SSD_CHUNK)
    return vals + m * (10.0 * d_inner + 4 * d + 1)  # norm, projections, conv, SiLUs, gate, residual


def _block_kept_values(m: int, d: int, variant: str, n_heads: int, n_state: int) -> float:
    """Values a recorded block keeps for its reverse pass over m rows from
    the stream's start.  Each row group is one node that keeps its inputs
    and its output, which packs the group's output rows with the SSM state
    and the convolution tail it hands on; the body is recomputed in the
    reverse pass.  Once per block: the zero state and tail the first group
    starts from, and a = -exp(a_log) (mamba1's laid out as [n_state,
    d_inner] first).  With no rows the block never runs and keeps nothing."""
    if m == 0:
        return 0.0
    d_inner = EXPAND * d
    handoff = (n_state + CONV_WIDTH - 1) * d_inner  # SSM state and convolution tail
    a_neg = 3.0 * n_state * d_inner if variant == MAMBA1 else 2.0 * n_heads
    return m * d + (-(-m // GROUP_ROWS) + 1) * handoff + a_neg


def _mamba_block_values(m: int, d: int, variant: str, n_heads: int, n_state: int) -> float:
    """Values a recorded `mamba_block_forward` keeps over m rows: the
    block's, plus x's row slices and the joined output."""
    return _block_kept_values(m, d, variant, n_heads, n_state) + 2.0 * m * d


def _mamba_block_flops(m: int, d: int, variant: str, n_state: int, n_heads_ssm: int) -> float:
    """The block as implemented, with or without grad: mamba1 on the
    sequential scan, mamba2 on the chunked scan."""
    if m == 0:
        return 0.0
    d_inner = EXPAND * d
    n_delta = d_inner if variant == MAMBA1 else n_heads_ssm
    fl = _ln_flops(m, d)
    fl += 2.0 * m * d * 2 * d_inner  # input projection to [ssm | gate]
    fl += m * d_inner * (4 + 3)  # conv taps: 4 muls, 3 adds per element
    fl += FLOP_COST["silu"] * float(m) * d_inner  # conv activation
    fl += 2.0 * m * d_inner * n_delta + FLOP_COST["softplus"] * float(m) * n_delta
    fl += m * n_delta  # delta bias add
    fl += 2.0 * 2 * m * d_inner * n_state  # B and C projections
    if variant == MAMBA1:
        fl += 2.0 * d_inner * n_state  # a = -exp(a_log)
        fl += float((8 + 2) * d_inner * n_state) * m  # recurrence + readout
    else:
        fl += _ssd_scan_flops(m, d_inner, n_heads_ssm, n_state, SSD_CHUNK)
    fl += FLOP_COST["silu"] * float(m) * d_inner + m * d_inner  # gate
    fl += 2.0 * m * d_inner * d  # output projection
    fl += m * d  # residual
    return fl


@dataclass
class CostModel:
    """Closed-form pre-fill cost for one architecture at fixed widths.

    Both architectures run one layer stack, the baseline as the stack with
    no video rows (`_stack_rows`), so the per-layer terms have one formula;
    the token rows and the head keep the sequence's own (m, n)."""

    architecture: str
    d: int = 64
    layers: int = 2
    n_heads: int = 4
    vocab_size: int = 256
    mlp_ratio: int = 4
    block_variant: str = MAMBA2
    n_state: int | None = None  # None: the variant's default, as the block picks it

    def __post_init__(self):
        if self.block_variant not in (MAMBA1, MAMBA2, BLOCK_NONE):
            raise ContractError(f"unknown block variant {self.block_variant!r}")

    def _stack_rows(self, m: int, n: int) -> tuple[int, int]:
        """The (video, text) rows the layer stack runs for m video and n
        text rows: every row is a text row on the baseline."""
        if self.architecture == ARCH_HYBRID:
            return m, n
        if self.architecture == ARCH_BASELINE:
            return 0, m + n
        raise ContractError(f"unknown architecture {self.architecture!r}")

    def _block_sizes(self) -> tuple[int, int]:
        """The block's (n_state, heads), read from `ssm` where not given."""
        n_state, n_heads = _default_sizes(self.block_variant)
        return (n_state if self.n_state is None else self.n_state), n_heads

    def flops(self, m: int, n: int) -> float:
        d, h = self.d, self.n_heads
        mv, nt = self._stack_rows(m, n)
        per_layer = 0.0
        if self.block_variant != BLOCK_NONE:
            per_layer += _mamba_block_flops(mv, d, self.block_variant, *self._block_sizes())
        per_layer += _ln_flops(nt, d)  # text pre-attention norm
        per_layer += _attention_flops(nt, nt, d, h)  # self branch
        if mv > 0:
            per_layer += _ln_flops(mv, d)  # video rows feeding cross keys
            per_layer += _attention_flops(nt, mv, d, h)  # cross branch
            # blend: sigmoid + (1-a), two scalar-tensor muls and one add
            per_layer += FLOP_COST["sigmoid"] + 1 + 3.0 * nt * d
        per_layer += nt * d  # attention residual
        per_layer += _ln_flops(nt, d) + _mlp_flops(nt, d, self.mlp_ratio) + nt * d
        # final norm + output head on the last text position
        return self.layers * per_layer + _ln_flops(1, d) + 2.0 * d * self.vocab_size

    def memory_values(self, m: int, n: int) -> float:
        """Live float64 activation values with reverse-pass retention: what
        the graph of a recorded `text_logits` keeps, from the token ids on.

        The quadratic culprit is retained per layer: the probability matrix
        of every head, which attention keeps for its reverse pass (its
        scores are not kept), over every row on the baseline.  The hybrid
        instead retains M x N cross and N^2 self probabilities, and what its
        block keeps for the reverse pass (`_block_kept_values`): per row
        group the block's output rows and the state and convolution tail it
        hands on.  The block body is not kept but recomputed in the reverse
        pass, one row group at a time (`_block_body_values`), while the
        baseline keeps its probabilities.
        """
        d, h = self.d, self.n_heads
        r = m + n
        mv, nt = self._stack_rows(m, n)
        # token rows, head rows, final norm, logits
        vals = n * (4.0 * d + 1 + self.vocab_size)
        # a text-half row: two norms (output, normalized input, 1/std), two
        # residuals, the MLP's four [ff] arrays (product, biased, GELU, its
        # kept Phi) and two [d] outputs, and the self branch's q, k, v,
        # merged heads and output product
        row = 13.0 * d + 4 * self.mlp_ratio * d + 2
        per_layer = 1.0 * h * nt * nt + nt * row
        if mv > 0:
            # once: the row groups copied from the caller's video rows, and
            # the last layer's rows joined
            vals += (m + r) * d
            # per layer: cross probabilities; a text row's cross q, merged
            # heads, output product and the blend's three arrays; a video
            # row's norm, its cross key and value and their joined copies
            per_layer += 1.0 * h * mv * nt + 6.0 * nt * d + mv * (6.0 * d + 1)
        elif m:
            # the baseline's stream: the video rows joined before the text
            vals += r * d
        if self.block_variant != BLOCK_NONE:
            n_state, n_heads = self._block_sizes()
            per_layer += _block_kept_values(mv, d, self.block_variant, n_heads, n_state)
        return vals + self.layers * per_layer


def analytic_cost(arch: str, m: int, n: int, d: int, layers: int, **kw):
    """Exact polynomial pre-fill cost: returns (flops, memory_values)."""
    if m < 0 or n < 1 or d < 1 or layers < 1:
        raise ContractError("analytic_cost needs m >= 0, n >= 1, d >= 1, layers >= 1")
    cm = CostModel(architecture=arch, d=d, layers=layers, **kw)
    return cm.flops(m, n), cm.memory_values(m, n)


def leading_term_cost(arch: str, m: int, n: int, d: int) -> float:
    """The headline complexity forms: d(M+N)^2 versus dMN + d^2 M."""
    if arch == ARCH_BASELINE:
        return float(d) * (m + n) ** 2
    if arch == ARCH_HYBRID:
        return float(d) * m * n + float(d) * d * m
    raise ContractError(f"unknown architecture {arch!r}")


def _cost_model(cfg: mod.HybridStackConfig) -> CostModel:
    """The cost model of a built model's configuration."""
    return CostModel(
        architecture=cfg.architecture, d=cfg.d, layers=cfg.n_layers, n_heads=cfg.n_heads,
        vocab_size=cfg.vocab_size, mlp_ratio=cfg.mlp_ratio, block_variant=cfg.block_variant,
        n_state=cfg.n_state,
    )


def memory_estimate(model_or_arch, m: int, n: int, **kw) -> float:
    """Peak live activation values for a retain-for-backward forward pass."""
    if isinstance(model_or_arch, Model):
        cm = _cost_model(model_or_arch.config)
    else:
        cm = CostModel(model_or_arch, kw.pop("d", 64), kw.pop("layers", 2), **kw)
    return cm.memory_values(m, n)


# --------------------------------------------------------------------------
# Empirical counting and timing
# --------------------------------------------------------------------------


def counted_cost(model: Model, seq) -> float:
    """FLOPs reported by the instrumented primitives over one pre-fill."""
    with ng.count_flops() as meter:
        mod.prefill(model, seq)
    return meter.total


def _sequence_for(model: Model, m: int, n: int, seed: int = 0):
    rng = ng.new_rng(seed)
    video = rng.standard_normal((m, model.config.d)) if m else None
    ids = rng.integers(0, model.config.vocab_size, size=n)
    return mod.make_sequence(model, video, ids)


@dataclass
class FitResult:
    slope: float
    intercept: float
    r2: float


def fit_scaling_exponent(points) -> FitResult:
    """Least squares on (log M, log cost); the slope is the scaling exponent.

    Requires at least 4 points with strictly increasing M spanning a factor
    of 16 or more, and positive costs.
    """
    pts = [(float(m), float(c)) for m, c in points]
    if len(pts) < 4:
        raise ContractError("need at least 4 points to fit a scaling exponent")
    ms = np.array([p[0] for p in pts])
    cs = np.array([p[1] for p in pts])
    if not np.all(np.diff(ms) > 0):
        raise ContractError("points must have strictly increasing M")
    if ms[-1] / ms[0] < 16.0:
        raise ContractError("M must span at least a factor of 16")
    if np.any(cs <= 0):
        raise ContractError("costs must be positive for a log-log fit")
    x, y = np.log(ms), np.log(cs)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=float(slope), intercept=float(intercept), r2=r2)


@dataclass
class CostReport:
    arch: str
    m: int
    n: int
    d: int
    layers: int
    flops_analytic: float = 0.0
    flops_counted: float = 0.0
    mem_estimate: float = 0.0
    wall_ms_median: float = 0.0
    repeats: int = 0
    skipped: bool = False
    reason: str = ""

    def row(self) -> dict:
        return {
            "arch": self.arch,
            "M": self.m,
            "N": self.n,
            "d": self.d,
            "layers": self.layers,
            "flops_analytic": self.flops_analytic,
            "flops_counted": self.flops_counted,
            "mem_estimate": self.mem_estimate,
            "wall_ms_median": self.wall_ms_median,
            "repeats": self.repeats,
            "skipped": int(self.skipped),
            "reason": self.reason,
        }


def bench(
    models: dict[str, Model],
    grid,
    repeats: int = 5,
    mem_budget_values: float = 2.0e9,
    seed: int = 0,
    time_fn=time.perf_counter,
) -> list[CostReport]:
    """Median pre-fill wall clock plus counted/analytic FLOPs over a grid.

    `models` maps architecture name to a built model; `grid` is an iterable
    of (M, N).  The metered run that counts FLOPs is the warm-up before
    timing.  Points whose estimated
    memory exceeds the budget are skipped with the reason recorded.
    Grid points run sequentially; nothing is co-scheduled.  For the most
    stable timings set OPENBLAS_NUM_THREADS=1 (or the MKL equivalent)
    before the interpreter starts; BLAS pools cannot be resized here.
    """
    if repeats < 3:
        raise ContractError("bench needs repeats >= 3 for a stable median")
    reports: list[CostReport] = []
    for arch, model in models.items():
        cfg, cm = model.config, _cost_model(model.config)
        for m, n in grid:
            mem = cm.memory_values(m, n)
            base = CostReport(arch=arch, m=m, n=n, d=cfg.d, layers=cfg.n_layers,
                              mem_estimate=mem)
            if mem > mem_budget_values:
                base.skipped = True
                base.reason = (
                    f"estimated {mem:.3g} activation values exceeds budget "
                    f"{mem_budget_values:.3g}"
                )
                reports.append(base)
                continue
            seq = _sequence_for(model, m, n, seed=seed)
            base.flops_analytic = cm.flops(m, n)
            base.flops_counted = counted_cost(model, seq)  # also the warm-up
            samples = []
            for _ in range(repeats):
                t0 = time_fn()
                mod.prefill(model, seq)
                samples.append((time_fn() - t0) * 1e3)
            base.wall_ms_median = float(np.median(samples))
            base.repeats = repeats
            reports.append(base)
    return reports


# --------------------------------------------------------------------------
# Report serialization
# --------------------------------------------------------------------------

_CSV_COLUMNS = [
    "arch", "M", "N", "d", "layers", "flops_analytic", "flops_counted",
    "mem_estimate", "wall_ms_median", "repeats", "skipped", "reason",
]


def write_reports_csv(reports: list[CostReport], path: str) -> None:
    lines = [f"# schema={BENCH_SCHEMA}", ",".join(_CSV_COLUMNS)]
    for r in reports:
        row = r.row()
        lines.append(",".join(str(row[c]) for c in _CSV_COLUMNS))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_reports_json(reports: list[CostReport], path: str) -> None:
    payload = {"schema": BENCH_SCHEMA, "rows": [r.row() for r in reports]}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def read_reports(path: str) -> list[dict]:
    """Load bench rows from either serialized format, checking the schema."""
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        if payload.get("schema") != BENCH_SCHEMA:
            raise mod.FormatError(f"unknown bench schema {payload.get('schema')!r}")
        return payload["rows"]
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or not lines[0].startswith(f"# schema={BENCH_SCHEMA}"):
        raise mod.FormatError("bench csv missing its schema header")
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        parts = line.split(",", len(header) - 1)
        row = dict(zip(header, parts))
        for k in ("M", "N", "d", "layers", "repeats", "skipped"):
            row[k] = int(row[k])
        for k in ("flops_analytic", "flops_counted", "mem_estimate", "wall_ms_median"):
            row[k] = float(row[k])
        rows.append(row)
    return rows
