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
from .ssm import EXPAND, SSD_CHUNK

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


def _mamba_block_flops(m: int, d: int, variant: str, n_state: int, n_heads_ssm: int) -> float:
    """The block as implemented: mamba1 on the streaming (no-graph)
    sequential scan, mamba2 on the chunked scan."""
    if m == 0:
        return 0.0
    d_inner = EXPAND * d
    n_delta = d_inner if variant == "mamba1" else n_heads_ssm
    fl = _ln_flops(m, d)
    fl += 2.0 * m * d * 2 * d_inner  # input projection to [ssm | gate]
    fl += m * d_inner * (4 + 3)  # conv taps: 4 muls, 3 adds per element
    fl += FLOP_COST["silu"] * float(m) * d_inner  # conv activation
    fl += 2.0 * m * d_inner * n_delta + FLOP_COST["softplus"] * float(m) * n_delta
    fl += m * n_delta  # delta bias add
    fl += 2.0 * 2 * m * d_inner * n_state  # B and C projections
    if variant == "mamba1":
        fl += float((9 + 2) * d_inner * n_state) * m  # streaming recurrence + readout
    else:
        fl += _ssd_scan_flops(m, d_inner, n_heads_ssm, n_state, SSD_CHUNK)
    fl += FLOP_COST["silu"] * float(m) * d_inner + m * d_inner  # gate
    fl += 2.0 * m * d_inner * d  # output projection
    fl += m * d  # residual
    return fl


@dataclass
class CostModel:
    """Closed-form pre-fill cost for one architecture at fixed widths."""

    architecture: str
    d: int = 64
    layers: int = 2
    n_heads: int = 4
    vocab_size: int = 256
    mlp_ratio: int = 4
    block_variant: str = "mamba2"
    n_state: int = 64
    n_heads_ssm: int = 4

    def flops(self, m: int, n: int) -> float:
        d, h = self.d, self.n_heads
        total = 0.0
        if self.architecture == ARCH_BASELINE:
            r = m + n
            per_layer = (
                _ln_flops(r, d)
                + _attention_flops(r, r, d, h)
                + r * d  # attention residual
                + _ln_flops(r, d)
                + _mlp_flops(r, d, self.mlp_ratio)
                + r * d  # mlp residual
            )
            total = self.layers * per_layer
        elif self.architecture == ARCH_HYBRID:
            per_layer = 0.0
            if self.block_variant != BLOCK_NONE:
                per_layer += _mamba_block_flops(
                    m, d, self.block_variant, self.n_state, self.n_heads_ssm
                )
            per_layer += _ln_flops(n, d)  # text pre-attention norm
            if m > 0:
                per_layer += _ln_flops(m, d)  # video rows feeding cross keys
                per_layer += _attention_flops(n, m, d, h)  # cross branch
                per_layer += _attention_flops(n, n, d, h)  # self branch
                # blend: sigmoid + (1-a), two scalar-tensor muls and one add
                per_layer += FLOP_COST["sigmoid"] + 1 + 3.0 * n * d
            else:
                per_layer += _attention_flops(n, n, d, h)
            per_layer += n * d  # attention residual
            per_layer += _ln_flops(n, d) + _mlp_flops(n, d, self.mlp_ratio) + n * d
            total = self.layers * per_layer
        else:
            raise ContractError(f"unknown architecture {self.architecture!r}")
        # final norm + output head on the last text position
        total += _ln_flops(1, d) + 2.0 * d * self.vocab_size
        return total

    def memory_values(self, m: int, n: int) -> float:
        """Live float64 activation values with reverse-pass retention.

        The quadratic culprit is retained per layer: score and probability
        matrices of every head.  The hybrid instead retains M x N cross
        scores, N^2 self scores, and the scan's per-step state history.
        """
        d, h = self.d, self.n_heads
        r = m + n
        vals = float(r * d)  # embeddings
        if self.architecture == ARCH_BASELINE:
            per_layer = 2.0 * h * r * r  # scores + probabilities, all heads
            per_layer += 6.0 * r * d  # ln, qkv, attention output
            per_layer += 2.0 * r * self.mlp_ratio * d + 2.0 * r * d
            return vals + self.layers * per_layer
        per_layer = 2.0 * h * m * n + 2.0 * h * n * n  # cross + self scores/probs
        per_layer += 6.0 * n * d + 2.0 * n * self.mlp_ratio * d + 2.0 * n * d
        if self.block_variant != BLOCK_NONE:
            d_inner = EXPAND * d
            # recorded scan: decay, update and state tensors over all steps,
            # plus conv/gate activations
            per_layer += 3.0 * m * d_inner * self.n_state + 6.0 * m * d_inner
            per_layer += 2.0 * m * d  # block ln + residual
        return vals + self.layers * per_layer


def _cost_model(arch: str, d: int, layers: int, **kw) -> CostModel:
    return CostModel(architecture=arch, d=d, layers=layers, **kw)


def analytic_cost(arch: str, m: int, n: int, d: int, layers: int, **kw):
    """Exact polynomial pre-fill cost: returns (flops, memory_values)."""
    if m < 0 or n < 1 or d < 1 or layers < 1:
        raise ContractError("analytic_cost needs m >= 0, n >= 1, d >= 1, layers >= 1")
    cm = _cost_model(arch, d, layers, **kw)
    return cm.flops(m, n), cm.memory_values(m, n)


def leading_term_cost(arch: str, m: int, n: int, d: int) -> float:
    """The headline complexity forms: d(M+N)^2 versus dMN + d^2 M."""
    if arch == ARCH_BASELINE:
        return float(d) * (m + n) ** 2
    if arch == ARCH_HYBRID:
        return float(d) * m * n + float(d) * d * m
    raise ContractError(f"unknown architecture {arch!r}")


def memory_estimate(model_or_arch, m: int, n: int, **kw) -> float:
    """Peak live activation values for a retain-for-backward forward pass."""
    if isinstance(model_or_arch, Model):
        cfg = model_or_arch.config
        cm = CostModel(
            architecture=cfg.architecture,
            d=cfg.d,
            layers=cfg.n_layers,
            n_heads=cfg.n_heads,
            vocab_size=cfg.vocab_size,
            mlp_ratio=cfg.mlp_ratio,
            block_variant=cfg.block_variant,
            n_state=cfg.n_state or (16 if cfg.block_variant == "mamba1" else 64),
        )
    else:
        cm = _cost_model(model_or_arch, kw.pop("d", 64), kw.pop("layers", 2), **kw)
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
    of (M, N).  One warm-up run precedes timing.  Points whose estimated
    memory exceeds the budget are skipped with the reason recorded.
    Grid points run sequentially; nothing is co-scheduled.  For the most
    stable timings set OPENBLAS_NUM_THREADS=1 (or the MKL equivalent)
    before the interpreter starts; BLAS pools cannot be resized here.
    """
    if repeats < 3:
        raise ContractError("bench needs repeats >= 3 for a stable median")
    reports: list[CostReport] = []
    for arch, model in models.items():
        cfg = model.config
        for m, n in grid:
            mem = memory_estimate(model, m, n)
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
            base.flops_analytic = analytic_cost(
                cfg.architecture, m, n, cfg.d, cfg.n_layers,
                n_heads=cfg.n_heads, vocab_size=cfg.vocab_size,
                mlp_ratio=cfg.mlp_ratio, block_variant=cfg.block_variant,
                n_state=cfg.n_state or (16 if cfg.block_variant == "mamba1" else 64),
            )[0]
            base.flops_counted = counted_cost(model, seq)
            mod.prefill(model, seq)  # warm-up before timing
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
