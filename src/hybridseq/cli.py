"""Command-line surface: train, eval, bench, analyze, sweep.

Configuration is plain ``key = value`` text; command-line flags override
file values, which override defaults.  Every run writes a JSON manifest
recording the command, the fully resolved configuration, the seed, and the
artifact paths, so a run can be reproduced bit-for-bit (timing fields
exempt) by pointing ``--config`` at the manifest itself.

Exit codes are a stable scripting contract:
  0  success
  2  usage error (bad flags or malformed grid)
  3  configuration error (bad config file or inconsistent settings)
  4  numeric failure (non-finite values, contract violations at runtime)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

from . import model as mod
from . import numerics as ng
from . import profiler as pf
from . import training as tr
from .model import (
    ARCH_BASELINE,
    ARCH_HYBRID,
    ConfigError,
    FormatError,
    HybridStackConfig,
    build_model,
    hybrid_from_baseline,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import ContractError, NumericError, ShapeError

__all__ = ["main", "parse_grid", "load_config_file", "resolve_config"]

MANIFEST_VERSION = 1
SEED_ENV_VAR = "HYBRIDSEQ_SEED"

_BLOCK_FLAG_TO_VARIANT = {"none": "none", "mamba": "mamba1", "mamba2": "mamba2"}

DEFAULTS = {
    "seed": "0",
    "arch": ARCH_HYBRID,
    "d": "64",
    "layers": "2",
    "heads": "4",
    "vocab": "256",
    "block": "mamba2",
    "ca_from_sa": "1",
    "stage": "pretrain",
    "lambda": "0",
    "lr": "3e-3",
    "steps": "60",
    "batch": "4",
    "M": "64",
    "N": "64",
    "task": "needle_retrieval",
    "n_classes": "5",
    "needle_count": "1",
    "eval_instances": "25",
    "repeats": "5",
    "mem_budget": "4e9",
    "init_from": "",
    "teacher": "",
    "out": "runs/latest",
}


# --------------------------------------------------------------------------
# Config plumbing
# --------------------------------------------------------------------------


def load_config_file(path: str) -> dict[str, str]:
    """Parse a key = value config file (or a manifest's embedded config)."""
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid manifest JSON: {exc}") from exc
        cfg = payload.get("config")
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path}: manifest carries no config block")
        return {str(k): str(v) for k, v in cfg.items()}
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = value.strip()
    return out


def resolve_config(args: argparse.Namespace, flag_map: dict[str, str]) -> dict[str, str]:
    """Defaults < config file < explicit flags, plus the seed env fallback."""
    resolved = dict(DEFAULTS)
    file_cfg: dict[str, str] = {}
    if getattr(args, "config", None):
        file_cfg = load_config_file(args.config)
        resolved.update(file_cfg)
    explicit: dict[str, str] = {}
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            explicit[key] = str(value)
    resolved.update(explicit)
    if "seed" not in explicit and "seed" not in file_cfg:
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            resolved["seed"] = env_seed
    _to_int(resolved, "seed", least=0)  # numpy's generators take no negative seed
    return resolved


def _to_int(resolved: dict, key: str, least: int | None = None) -> int:
    try:
        val = int(resolved[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key}={resolved[key]!r} is not an integer") from exc
    if least is not None and val < least:
        raise ConfigError(f"config key {key}={resolved[key]!r} is below {least}")
    return val


def _to_bool(resolved: dict, key: str) -> bool:
    val = resolved[key]
    if val not in ("0", "1", "false", "False", "true", "True"):
        raise ConfigError(f"config key {key}={val!r} is not one of 0, 1, false, true")
    return val in ("1", "true", "True")


def _to_float(resolved: dict, key: str) -> float:
    try:
        val = float(resolved[key])
    except ValueError:
        val = math.nan
    if math.isnan(val):
        raise ConfigError(f"config key {key}={resolved[key]!r} is not a number")
    return val


def _model_config(resolved: dict, arch: str | None = None) -> HybridStackConfig:
    block = resolved["block"]
    if block in _BLOCK_FLAG_TO_VARIANT:
        block = _BLOCK_FLAG_TO_VARIANT[block]
    return HybridStackConfig(
        d=_to_int(resolved, "d"),
        n_layers=_to_int(resolved, "layers"),
        n_heads=_to_int(resolved, "heads"),
        vocab_size=_to_int(resolved, "vocab"),
        architecture=arch or resolved["arch"],
        block_variant=block,
        ca_from_sa=_to_bool(resolved, "ca_from_sa"),
    ).validate()


def _task(resolved: dict) -> tr.SyntheticTask:
    return tr.SyntheticTask(
        kind=resolved["task"],
        m=_to_int(resolved, "M"),
        n_classes=_to_int(resolved, "n_classes"),
        needle_count=_to_int(resolved, "needle_count"),
        seed=_to_int(resolved, "seed"),
    ).validate()


GRID_MAX_POINTS = 1000  # the most sizes one grid spec may name


def _grid_int(text: str) -> int:
    """A positive count written in ASCII digits (no sign, no underscores)."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError
    val = int(text)
    if val <= 0:
        raise ValueError
    return val


def parse_grid(spec: str) -> list[int]:
    """Grid forms: '4096', '1,2,4', '1024:16384:x2', '64:256:+64'.

    Every number is written in ASCII digits.  A grid names at most
    `GRID_MAX_POINTS` sizes; a range's point count is computed before its
    list is built."""
    spec = spec.strip()
    try:
        if ":" not in spec:
            grid = [_grid_int(v) for v in spec.split(",")]
            points = len(grid)
        else:
            start_s, stop_s, step_s = spec.split(":")
            start, stop = _grid_int(start_s), _grid_int(stop_s)
            if stop < start:
                raise ValueError
            if step_s.startswith("x"):
                factor = _grid_int(step_s[1:])
                if factor < 2:
                    raise ValueError
                points = 1
                while points <= GRID_MAX_POINTS and start * factor**points <= stop:
                    points += 1
                grid = (start * factor**k for k in range(points))
            elif step_s.startswith("+"):
                step = _grid_int(step_s[1:])
                points = (stop - start) // step + 1
                grid = range(start, stop + 1, step)
            else:
                raise ValueError
    except ValueError:
        raise UsageError(f"malformed grid spec {spec!r}; use START:STOP:xK, START:STOP:+K, or a comma list")
    if points > GRID_MAX_POINTS:
        raise UsageError(f"grid spec {spec!r} names more than {GRID_MAX_POINTS} sizes")
    return list(grid)


class UsageError(Exception):
    """Bad command-line usage detected after argparse (exit code 2)."""


# --------------------------------------------------------------------------
# Manifest
# --------------------------------------------------------------------------


def _write_manifest(out_dir: str, command: str, resolved: dict, artifacts: dict,
                    started: float, extra: dict | None = None) -> str:
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "command": command,
        "config": dict(sorted(resolved.items())),
        "seed": int(resolved["seed"]),
        "artifacts": artifacts,
        "timestamps": {"started_unix": started, "finished_unix": time.time()},
        "format_versions": {
            "checkpoint": mod.CHECKPOINT_VERSION,
            "bench": pf.BENCH_SCHEMA,
            "manifest": MANIFEST_VERSION,
        },
    }
    if extra:
        manifest["results"] = extra
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return path


def _prepare_out(resolved: dict) -> str:
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_train(args) -> int:
    resolved = resolve_config(args, {
        "seed": "seed", "stage": "stage", "lam": "lambda", "arch": "arch",
        "M": "M", "d": "d", "layers": "layers", "block": "block",
        "ca_from_sa": "ca_from_sa", "out": "out", "steps": "steps",
        "batch": "batch", "lr": "lr", "init_from": "init_from",
        "teacher": "teacher",
    })
    started = time.time()
    out_dir = _prepare_out(resolved)
    seed = _to_int(resolved, "seed")
    eval_n = _to_int(resolved, "eval_instances", least=1)

    cfg = tr.TrainConfig(
        stage=resolved["stage"],
        lam=_to_float(resolved, "lambda"),
        lr=_to_float(resolved, "lr"),
        steps=_to_int(resolved, "steps"),
        batch=_to_int(resolved, "batch"),
        seed=seed,
    ).validate()
    task = _task(resolved)
    model_cfg = _model_config(resolved)

    if resolved["init_from"]:
        source = load_checkpoint(resolved["init_from"])
        if model_cfg.architecture == ARCH_HYBRID and source.config.architecture == ARCH_BASELINE:
            model = hybrid_from_baseline(source, model_cfg, seed=seed)
        elif source.config.architecture == model_cfg.architecture:
            model = source
        else:
            raise ConfigError(
                f"cannot initialize a {model_cfg.architecture} model from a "
                f"{source.config.architecture} checkpoint"
            )
    else:
        model = build_model(model_cfg, seed=seed)

    teacher = None
    if cfg.lam > 0:
        if not resolved["teacher"]:
            raise ConfigError("lambda > 0 requires --teacher CHECKPOINT")
        teacher = load_checkpoint(resolved["teacher"])

    log_path = os.path.join(out_dir, "train_log.ndjson")
    records = tr.train(model, cfg, task, teacher=teacher, log_path=log_path)

    ckpt_path = os.path.join(out_dir, "model.ckpt")
    save_checkpoint(model, ckpt_path)

    acc, loss = tr.evaluate(model, task, n_instances=eval_n)
    manifest = _write_manifest(
        out_dir, "train", resolved,
        {"checkpoint": ckpt_path, "train_log": log_path},
        started,
        extra={"eval_accuracy": acc, "eval_loss": loss,
               "final_train_loss": records[-1]["loss_total"] if records else None},
    )
    print(f"trained {model_cfg.architecture} for {cfg.steps} steps "
          f"(stage={cfg.stage}, lambda={cfg.lam})")
    print(f"eval accuracy {acc:.3f}, eval loss {loss:.4f}")
    print(f"checkpoint: {ckpt_path}\nmanifest:   {manifest}")
    return 0


def cmd_eval(args) -> int:
    resolved = resolve_config(args, {
        "seed": "seed", "ckpt": "ckpt", "M": "M", "out": "out",
    })
    if not resolved.get("ckpt"):
        raise UsageError("eval requires --ckpt CHECKPOINT")
    started = time.time()
    out_dir = _prepare_out(resolved)
    eval_n = _to_int(resolved, "eval_instances", least=1)
    model = load_checkpoint(resolved["ckpt"])
    task = _task(resolved)
    acc, loss = tr.evaluate(model, task, n_instances=eval_n)
    results = {"accuracy": acc, "mean_loss": loss, "n_instances": eval_n}
    results_path = os.path.join(out_dir, "eval.json")
    with open(results_path, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    manifest = _write_manifest(out_dir, "eval", resolved,
                               {"results": results_path}, started, extra=results)
    print(f"accuracy {acc:.3f}, mean loss {loss:.4f}")
    print(f"manifest: {manifest}")
    return 0


def cmd_bench(args) -> int:
    resolved = resolve_config(args, {
        "seed": "seed", "arch": "arch", "M": "M", "N": "N", "d": "d",
        "layers": "layers", "out": "out", "repeats": "repeats",
        "mem_budget": "mem_budget",
    })
    started = time.time()
    out_dir = _prepare_out(resolved)
    seed = _to_int(resolved, "seed")
    m_grid = parse_grid(resolved["M"])
    n = _to_int(resolved, "N", least=1)
    repeats = _to_int(resolved, "repeats", least=3)  # the fewest for a stable median
    mem_budget = _to_float(resolved, "mem_budget")
    if mem_budget <= 0:
        raise ConfigError(f"config key mem_budget={resolved['mem_budget']!r} is not positive")

    arch = resolved["arch"]
    names = [ARCH_HYBRID, ARCH_BASELINE] if arch == "both" else [arch]
    models = {}
    for name in names:
        models[name] = build_model(_model_config(resolved, arch=name), seed=seed)

    reports = pf.bench(
        models, [(m, n) for m in m_grid],
        repeats=repeats,
        mem_budget_values=mem_budget,
        seed=seed,
    )
    csv_path = os.path.join(out_dir, "bench.csv")
    json_path = os.path.join(out_dir, "bench.json")
    pf.write_reports_csv(reports, csv_path)
    pf.write_reports_json(reports, json_path)
    manifest = _write_manifest(out_dir, "bench", resolved,
                               {"csv": csv_path, "json": json_path}, started)
    for r in reports:
        tag = f"SKIPPED ({r.reason})" if r.skipped else \
            f"flops={r.flops_counted:.4g} wall={r.wall_ms_median:.2f}ms"
        print(f"{r.arch:22s} M={r.m:6d} N={r.n:4d} {tag}")
    print(f"wrote {csv_path}, {json_path}\nmanifest: {manifest}")
    return 0


def cmd_analyze(args) -> int:
    resolved = resolve_config(args, {"seed": "seed", "input": "input", "out": "out"})
    if not resolved.get("input"):
        raise UsageError("analyze requires --input BENCH_CSV_OR_JSON")
    started = time.time()
    out_dir = _prepare_out(resolved)
    rows = pf.read_reports(resolved["input"])
    analysis: dict[str, dict] = {}
    for arch in sorted({r["arch"] for r in rows}):
        pts = [(r["M"], r["flops_counted"]) for r in rows
               if r["arch"] == arch and not r["skipped"] and r["flops_counted"] > 0]
        pts.sort()
        entry: dict = {"points": len(pts)}
        try:
            fit = pf.fit_scaling_exponent(pts)
            entry.update({"flops_slope": fit.slope, "r2": fit.r2})
        except ContractError as exc:
            entry["error"] = str(exc)
        wall = [(r["M"], r["wall_ms_median"]) for r in rows
                if r["arch"] == arch and not r["skipped"] and r["wall_ms_median"] > 0]
        wall.sort()
        try:
            wfit = pf.fit_scaling_exponent(wall)
            entry["wall_slope"] = wfit.slope
        except ContractError:
            pass
        analysis[arch] = entry
    path = os.path.join(out_dir, "analysis.json")
    with open(path, "w") as f:
        json.dump(analysis, f, indent=2, sort_keys=True)
    manifest = _write_manifest(out_dir, "analyze", resolved, {"analysis": path}, started)
    for arch, entry in analysis.items():
        if "flops_slope" in entry:
            print(f"{arch:22s} counted-FLOPs slope {entry['flops_slope']:.3f} "
                  f"(r2={entry['r2']:.4f}, {entry['points']} points)")
        else:
            print(f"{arch:22s} fit unavailable: {entry['error']}")
    print(f"manifest: {manifest}")
    return 0


_ABLATION_ROWS = [  # model id -> (ca_from_sa, block_variant)
    ("A", False, "none"),
    ("B", True, "none"),
    ("C", True, "mamba1"),
    ("D", True, "mamba2"),
]


def cmd_sweep(args) -> int:
    resolved = resolve_config(args, {
        "seed": "seed", "axis": "axis", "M": "M", "out": "out",
        "steps": "steps", "batch": "batch", "lr": "lr",
    })
    axis = resolved.get("axis", "")
    if axis not in ("lambda", "ca_from_sa", "block_variant"):
        raise UsageError("sweep requires --axis {lambda,ca_from_sa,block_variant}")
    started = time.time()
    out_dir = _prepare_out(resolved)
    seed = _to_int(resolved, "seed")
    task = _task(resolved)
    steps = _to_int(resolved, "steps")
    batch = _to_int(resolved, "batch")
    lr = _to_float(resolved, "lr")
    eval_n = _to_int(resolved, "eval_instances", least=1)

    # one shared task-pretrained baseline: the init source and teacher
    base_cfg = _model_config(resolved, arch=ARCH_BASELINE)
    baseline = build_model(base_cfg, seed=seed)
    tr.train(baseline, tr.TrainConfig(stage=tr.STAGE_INSTRUCT, steps=steps,
                                      batch=batch, lr=lr, seed=seed), task)

    if axis == "lambda":
        settings = [("lambda=" + str(lam), True, "mamba2", lam) for lam in tr.LAMBDA_GRID]
    elif axis == "ca_from_sa":
        settings = [(f"model_{mid} ca={ca} block={bl}", ca, bl, 0.0)
                    for mid, ca, bl in _ABLATION_ROWS]
    else:
        settings = [(f"block={bl}", True, bl, 0.0) for bl in ("none", "mamba1", "mamba2")]

    rows = []
    for label, ca, block, lam in settings:
        cfg_h = replace(_model_config(resolved, arch=ARCH_HYBRID),
                        ca_from_sa=ca, block_variant=block).validate()
        model = hybrid_from_baseline(baseline, cfg_h, seed=seed)
        tcfg = tr.TrainConfig(stage=tr.STAGE_PRETRAIN, lam=lam, steps=steps,
                              batch=batch, lr=lr, seed=seed).validate()
        teacher = baseline if lam > 0 else None
        records = tr.train(model, tcfg, task, teacher=teacher)
        acc, loss = tr.evaluate(model, task, n_instances=eval_n)
        rows.append({
            "setting": label, "ca_from_sa": int(ca), "block_variant": block,
            "lambda": lam, "eval_accuracy": acc, "eval_loss": loss,
            "final_train_loss": records[-1]["loss_total"] if records else None,
        })

    csv_path = os.path.join(out_dir, "sweep.csv")
    cols = ["setting", "ca_from_sa", "block_variant", "lambda",
            "eval_accuracy", "eval_loss", "final_train_loss"]
    with open(csv_path, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in cols) + "\n")
    manifest = _write_manifest(out_dir, "sweep", resolved, {"table": csv_path},
                               started, extra={"rows": rows})
    width = max(len(r["setting"]) for r in rows)
    for row in rows:
        print(f"{row['setting']:{width}s}  acc={row['eval_accuracy']:.3f}  "
              f"loss={row['eval_loss']:.4f}")
    print(f"wrote {csv_path}\nmanifest: {manifest}")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridseq",
        description="Hybrid state-space/attention decoder: training, "
                    "evaluation, and complexity profiling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, video=True):
        p.add_argument("--config", help="key=value config file or a manifest.json")
        p.add_argument("--seed", type=int, help=f"RNG seed ({SEED_ENV_VAR} is the fallback)")
        p.add_argument("--out", help="output directory")
        if video:
            p.add_argument("--M", help="video-token count (bench: a grid spec)")

    p_train = sub.add_parser("train", help="train a model on a synthetic task")
    common(p_train)
    p_train.add_argument("--stage", choices=[tr.STAGE_PRETRAIN, tr.STAGE_INSTRUCT])
    p_train.add_argument("--lambda", dest="lam", type=float,
                         help="distillation loss weight")
    p_train.add_argument("--arch", choices=[ARCH_HYBRID, ARCH_BASELINE])
    p_train.add_argument("--d", type=int)
    p_train.add_argument("--layers", type=int)
    p_train.add_argument("--block", choices=list(_BLOCK_FLAG_TO_VARIANT))
    p_train.add_argument("--ca-from-sa", dest="ca_from_sa", choices=["0", "1"])
    p_train.add_argument("--steps", type=int)
    p_train.add_argument("--batch", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--init-from", dest="init_from",
                         help="checkpoint to initialize from (baseline -> hybrid graft)")
    p_train.add_argument("--teacher", help="teacher checkpoint for distillation")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    common(p_eval)
    p_eval.add_argument("--ckpt", help="checkpoint to evaluate")
    p_eval.set_defaults(fn=cmd_eval)

    p_bench = sub.add_parser("bench", help="pre-fill cost curves over an M grid")
    common(p_bench)
    p_bench.add_argument("--arch", choices=[ARCH_HYBRID, ARCH_BASELINE, "both"])
    p_bench.add_argument("--N", type=int)
    p_bench.add_argument("--d", type=int)
    p_bench.add_argument("--layers", type=int)
    p_bench.add_argument("--repeats", type=int)
    p_bench.add_argument("--mem-budget", dest="mem_budget", type=float,
                         help="skip grid points whose estimated activation "
                              "values exceed this budget")
    p_bench.set_defaults(fn=cmd_bench)

    p_an = sub.add_parser("analyze", help="fit scaling exponents from bench output")
    common(p_an, video=False)
    p_an.add_argument("--input", help="bench.csv or bench.json")
    p_an.set_defaults(fn=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="design-space comparison tables")
    common(p_sweep)
    p_sweep.add_argument("--axis", choices=["lambda", "ca_from_sa", "block_variant"])
    p_sweep.add_argument("--steps", type=int)
    p_sweep.add_argument("--batch", type=int)
    p_sweep.add_argument("--lr", type=float)
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, FormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, ContractError, ShapeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
