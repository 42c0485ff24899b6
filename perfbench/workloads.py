"""The benchmark's workloads: long-video inference on each architecture and
graft training.

Each workload runs as one closed-loop client: the next operation starts
when the previous one has finished and its output has been checked.
Models are built from fixed seeds; every input comes from the run's seed.
Output checks run outside the timed region, and a failed check or a raised
HybridSeqError counts the operation as failed without stopping the run.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace

import numpy as np

from hybridseq import attention, model, numerics, profiler, ssm, training
from hybridseq.numerics import HybridSeqError

from harness import Ops, percentile, tail_valid
from tracer import PeakProbe, Tracer, op_count, op_total_ms, summarize

D, LAYERS, HEADS, VOCAB = 64, 2, 4, 256
PROMPT_IDS = 64
DECODE_STEPS = 32
DECODE_AGREEMENT = 1e-10  # acceptance criterion 10: decode vs fresh prefill
COST_AGREEMENT = 0.01  # counted vs analytic prefill FLOPs
# A small nonzero block output, so the scan's result reaches the logits and
# the decode-vs-prefill check covers the video path of the second layer.
MAMBA_OUT_STD = 0.02
TAIL_Q = 90

MODULES = ("numerics", "ssm", "attention", "model", "training", "profiler")

# (module object, attribute, span name).  training imports text_logits by
# name, so that alias is wrapped too and shares model.text_logits' name.
TRACED = [
    (numerics, "backward", "numerics.backward"),
    (ssm, "scan_sequential", "ssm.scan_sequential"),
    (ssm, "linear_recurrence", "ssm.linear_recurrence"),
    (ssm, "mamba_block_forward", "ssm.mamba_block_forward"),
    (attention, "causal_self_attention", "attention.causal_self_attention"),
    (attention, "cross_attention", "attention.cross_attention"),
    (attention, "blended_text_update", "attention.blended_text_update"),
    (attention, "build_video_kv_cache", "attention.build_video_kv_cache"),
    (model, "prefill", "model.prefill"),
    (model, "hybrid_layer_forward", "model.hybrid_layer_forward"),
    (model, "baseline_layer_forward", "model.baseline_layer_forward"),
    (model, "decode_step", "model.decode_step"),
    (model, "text_logits", "model.text_logits"),
    (training, "text_logits", "model.text_logits"),
    (model, "generate_greedy", "model.generate_greedy"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (training, "generate_task", "training.generate_task"),
    (training, "lm_loss", "training.lm_loss"),
    (training.AdamW, "step", "training.AdamW.step"),
    (training, "train", "training.train"),
    (training, "evaluate", "training.evaluate"),
    (profiler, "counted_cost", "profiler.counted_cost"),
]

# FLOP kinds the meter reports on at least one workload at this commit.
FLOP_KINDS = ("add", "exp", "gelu", "layer_norm", "log_softmax", "matmul", "mul",
              "sigmoid", "silu", "softmax", "softplus", "sub", "sum")

E2E_MAIN = "prefill_or_train_step_ms_p50"
E2E_NEXT_P50 = "decode_or_eval_ms_p50"
E2E_NEXT_P90 = "decode_or_eval_ms_p90"


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def _config(arch: str) -> model.HybridStackConfig:
    hybrid = arch == model.ARCH_HYBRID
    return model.HybridStackConfig(
        d=D, n_layers=LAYERS, n_heads=HEADS, vocab_size=VOCAB, architecture=arch,
        block_variant="mamba2" if hybrid else model.BLOCK_NONE, ca_from_sa=True,
    ).validate()


def analytic_flops(m_: model.Model, m: int, n: int) -> float:
    cfg = m_.config
    return profiler.analytic_cost(
        cfg.architecture, m, n, cfg.d, cfg.n_layers, n_heads=cfg.n_heads,
        vocab_size=cfg.vocab_size, mlp_ratio=cfg.mlp_ratio,
        block_variant=cfg.block_variant,
        n_state=cfg.n_state or (16 if cfg.block_variant == "mamba1" else 64),
    )[0]


def _cache_bytes_probe(args, kwargs):
    """Bytes decode_step writes into the text caches, computed from array
    sizes: a replaced array counts in full, one grown in place counts only
    its new rows."""
    ctx = args[1]
    before = [(c.text_k, c.text_v) for c in ctx.caches]

    def finish(result):
        copied = 0
        for (old_k, old_v), c in zip(before, ctx.caches):
            for old, new in ((old_k, c.text_k), (old_v, c.text_v)):
                copied += new.nbytes if new is not old else new.nbytes - old.nbytes
        return {"cache_bytes_copied": copied}

    return finish


class Workload:
    """What every workload shares: the closed loop, metrics and tracing."""

    name = ""
    main_kind = ""  # operation kind behind prefill_or_train_step_ms_p50
    next_kind = ""  # operation kind behind decode_or_eval_ms_p50 / _p90

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = Tracer()
        self.ops = Ops(HybridSeqError)
        self.samples: dict[str, list] = {}

    @property
    def timed_kinds(self) -> tuple[str, str]:
        return (self.main_kind, self.next_kind)

    def enough(self) -> bool:
        return tail_valid(len(self.samples.get(self.next_kind, ())), TAIL_Q)

    def e2e_metrics(self) -> dict[str, float]:
        main = self.samples[self.main_kind]
        nxt = self.samples[self.next_kind]
        return {
            E2E_MAIN: percentile(main, 50),
            E2E_NEXT_P50: percentile(nxt, 50),
            E2E_NEXT_P90: percentile(nxt, TAIL_Q),
        }

    def sample_counts(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.samples.items()}

    def probes(self) -> dict[str, object]:
        return {"model.decode_step": _cache_bytes_probe}

    def install_tracing(self) -> None:
        probes = self.probes()
        for owner, attr, name in TRACED:
            self.tracer.wrap(owner, attr, name, probes.get(name))

    # -- per-layer figures from the traced run ------------------------------

    def per_layer(self, instrument: dict[str, float], overhead: float) -> dict[str, float]:
        tr = self.tracer
        timed = summarize(tr, self.timed_kinds)
        setup = summarize(tr, ["setup"])
        meter = summarize(tr, ["meter"])
        plain = summarize(tr, ["plain"])
        timed_ms = op_total_ms(tr, self.timed_kinds)
        n_ops = op_count(tr, self.timed_kinds)

        def get(rows, name, field="ms"):
            return float(rows[name][field]) if name in rows else 0.0

        def share(name):
            return get(timed, name, "total_ms") / timed_ms if timed_ms else 0.0

        def extra(name, key):
            return timed[name]["extra"].get(key, []) if name in timed else []

        copied = extra("model.decode_step", "cache_bytes_copied")
        useful = sum(extra("numerics.backward", "useful_values"))
        computed = sum(extra("numerics.backward", "computed_values"))
        eval_ops = op_count(tr, ["eval"])
        eval_rows = summarize(tr, ["eval"])
        forwards = get(eval_rows, "model.prefill", "calls") + get(eval_rows, "model.text_logits", "calls")
        counted_ms = get(meter, "profiler.counted_cost")
        plain_ms = get(plain, "model.prefill")

        out = {
            "ssm.scan_sequential.ms": get(timed, "ssm.scan_sequential"),
            "ssm.scan_sequential.share": share("ssm.scan_sequential"),
            "ssm.linear_recurrence.ms": get(timed, "ssm.linear_recurrence"),
            "ssm.mamba_block_forward.self_ms": get(timed, "ssm.mamba_block_forward", "self_ms"),
            "ssm.mamba_block_forward.peak_alloc_mb": instrument["mamba_peak_mb"],
            "attention.causal_self_attention.ms": get(timed, "attention.causal_self_attention"),
            "attention.cross_attention.ms": get(timed, "attention.cross_attention"),
            "attention.blended_text_update.self_ms": get(timed, "attention.blended_text_update", "self_ms"),
            "attention.build_video_kv_cache.ms": get(timed, "attention.build_video_kv_cache"),
            "numerics.backward.ms": get(timed, "numerics.backward"),
            "numerics.backward.share": share("numerics.backward"),
            "numerics.flops.total": instrument["flops_total"],
        }
        for kind in FLOP_KINDS:
            out[f"numerics.flops.{kind}"] = instrument["flops_by_kind"].get(kind, 0.0)
        out.update({
            "model.prefill.self_ms": get(timed, "model.prefill", "self_ms"),
            "model.hybrid_layer_forward.self_ms": get(timed, "model.hybrid_layer_forward", "self_ms"),
            "model.baseline_layer_forward.self_ms": get(timed, "model.baseline_layer_forward", "self_ms"),
            "model.decode_step.ms": get(timed, "model.decode_step"),
            "model.decode_step.self_ms": get(timed, "model.decode_step", "self_ms"),
            "model.decode_step.cache_bytes_copied": percentile(copied, 50) if copied else 0.0,
            "model.prefill.peak_alloc_mb": instrument["prefill_peak_mb"],
            "model.text_logits.ms": get(timed, "model.text_logits"),
            "model.generate_greedy.ms": get(timed, "model.generate_greedy"),
            "model.save_checkpoint.ms": get(setup, "model.save_checkpoint"),
            "model.load_checkpoint.ms": get(setup, "model.load_checkpoint"),
            "training.generate_task.ms": get(timed, "training.generate_task"),
            "training.lm_loss.ms": get(timed, "training.lm_loss"),
            "training.AdamW.step.ms": get(timed, "training.AdamW.step"),
            "training.grad_useful_ratio": useful / computed if computed else 0.0,
            "training.evaluate.forwards_per_instance": forwards / eval_ops if eval_ops else 0.0,
            "profiler.counted_cost.ms": counted_ms,
            "profiler.meter_overhead_ratio": counted_ms / plain_ms if plain_ms else 0.0,
            "profiler.flops_counted_over_analytic": instrument["prefill_flops"] / instrument["flops_analytic"],
            "profiler.memory_estimate_over_measured": instrument["memory_estimate_over_measured"],
        })
        for mod_name in MODULES:
            calls = sum(r["calls"] for name, r in timed.items() if name.startswith(mod_name + "."))
            out[f"{mod_name}.calls_per_op"] = calls / n_ops if n_ops else 0.0
        out["trace_overhead_ratio"] = overhead
        return out

    def _peaks(self, forward) -> tuple[float, float]:
        """(whole-forward, per-block) tracemalloc peaks in MB of `forward()`."""
        probe = PeakProbe()
        probe.wrap(ssm, "mamba_block_forward", "ssm.mamba_block_forward")
        try:
            with probe.measuring():
                forward()
        finally:
            probe.patches.restore()
        return probe.overall_bytes / 2**20, probe.peaks.get("ssm.mamba_block_forward", 0) / 2**20

    def _meter_ops(self, seq) -> None:
        """Spans of one metered and one plain prefill, for the meter's cost."""
        tr = self.tracer
        with tr.recording():
            with tr.operation("instrument", "meter"):
                profiler.counted_cost(self.model, seq)
            with tr.operation("instrument", "plain"):
                model.prefill(self.model, seq)


class Inference(Workload):
    """Requests of one fresh video plus a prompt: prefill, then greedy decode.

    The latency of a request's first token is prefill plus argmax; each
    later token's latency is one decode_step plus argmax.
    """

    main_kind = "prefill"
    next_kind = "decode"

    def __init__(self, arch: str, m: int, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self.arch, self.m = arch, m
        self.rng = np.random.default_rng([seed, 0])

    def _inputs(self, rng) -> tuple[np.ndarray, np.ndarray]:
        return rng.standard_normal((self.m, D)), rng.integers(0, VOCAB, size=PROMPT_IDS)

    def setup(self) -> None:
        self.model = model.build_model(_config(self.arch), seed=0, mamba_out_std=MAMBA_OUT_STD)
        video, ids = self._inputs(np.random.default_rng([self.seed, 1]))
        self._serve("warm-up", video, ids, {})

    def _serve(self, rid: str, video, ids, pending: dict):
        m_, tr = self.model, self.tracer
        seq = model.make_sequence(m_, video, ids)
        with tr.operation(rid, "prefill"):
            t0 = time.perf_counter()
            logits, ctx = model.prefill(m_, seq)
            tok = int(np.argmax(logits))
            pending.setdefault("prefill", []).append(_ms_since(t0))
        fed = []
        gaps = pending.setdefault("decode", [])
        for _ in range(DECODE_STEPS):
            fed.append(tok)
            with tr.operation(rid, "decode"):
                t0 = time.perf_counter()
                logits, ctx = model.decode_step(m_, ctx, m_.token_table.data[tok])
                tok = int(np.argmax(logits))
                gaps.append(_ms_since(t0))
        return seq, fed, logits

    def _request(self, i: int, pending: dict) -> bool:
        video, ids = self._inputs(self.rng)
        seq, fed, logits = self._serve(f"request-{i}", video, ids, pending)
        with self.tracer.paused():
            if not np.all(np.isfinite(logits)):
                return False
            ext = model.make_sequence(self.model, video, np.concatenate([ids, fed]))
            fresh, _ = model.prefill(self.model, ext)
            if not float(np.max(np.abs(fresh - logits))) < DECODE_AGREEMENT:
                return False
            if i == 0:
                counted = profiler.counted_cost(self.model, seq)
                analytic = analytic_flops(self.model, seq.m, seq.n)
                if not abs(counted / analytic - 1.0) < COST_AGREEMENT:
                    return False
        return True

    def cycle(self, i: int) -> None:
        self.ops.run(f"request-{i}", lambda pending: self._request(i, pending), self.samples)

    def instrument(self) -> dict[str, float]:
        video, ids = self._inputs(np.random.default_rng([self.seed, 2]))
        seq = model.make_sequence(self.model, video, ids)
        self._meter_ops(seq)
        with numerics.count_flops() as meter:
            model.prefill(self.model, seq)
        prefill_mb, block_mb = self._peaks(lambda: model.prefill(self.model, seq))
        estimate = profiler.memory_estimate(self.model, seq.m, seq.n) * 8 / 2**20
        return {
            "flops_total": meter.total,
            "flops_by_kind": dict(meter.by_kind),
            "prefill_flops": meter.total,
            "flops_analytic": analytic_flops(self.model, seq.m, seq.n),
            "prefill_peak_mb": prefill_mb,
            "mamba_peak_mb": block_mb,
            "memory_estimate_over_measured": estimate / prefill_mb,
        }


class GraftTrain(Workload):
    """Stage-1 graft training at the acceptance shape, then single-instance
    evaluation, on a hybrid grafted from a baseline built at seed 0.

    The baseline is not pretrained: pretraining costs minutes of set-up and
    does not change the cost of a step.
    """

    main_kind = "train"
    next_kind = "eval"
    STAGE = training.STAGE_PRETRAIN
    TASK = training.SyntheticTask(kind="needle_retrieval", m=256, n_classes=5, needle_count=1)
    STEPS_PER_CALL = 1
    BATCH = 4
    LR = 3e-3
    EVALS_PER_CYCLE = 5

    def _seed(self, stream: int, i: int) -> int:
        # disjoint per-run, per-stream ranges of task seeds
        return ((self.seed * 4 + stream) * 1_000_000) + i * 1000

    def setup(self) -> None:
        base = model.build_model(_config(model.ARCH_BASELINE), seed=0)
        grafted = model.hybrid_from_baseline(base, _config(model.ARCH_HYBRID), seed=0)
        path = os.path.join(self.out_dir, f"graft-{os.getpid()}.ckpt")
        try:
            model.save_checkpoint(grafted, path)
            self.model = model.load_checkpoint(path, expected_config=grafted.config)
        finally:
            os.remove(path)
        params = model.named_parameters(self.model)
        inherited = model.named_parameters(base)
        self.trainable = {k: p for k, p in params.items() if training.stage_trainable(self.STAGE, k)}
        self.trainable_ids = {id(p) for p in self.trainable.values()}
        self.frozen = {k: p for k, p in params.items() if k not in self.trainable}
        self.inherited = {k: inherited[k].data.copy() for k in self.frozen}
        self._train(-1, {}, self._seed(2, 0))
        self._evaluate(self._seed(2, 1), "warm-up", {})

    def _train_config(self, steps: int) -> training.TrainConfig:
        return training.TrainConfig(stage=self.STAGE, lam=0.0, lr=self.LR, steps=steps,
                                    batch=self.BATCH, seed=self.seed)

    def _train(self, i: int, pending: dict, task_seed: int) -> bool:
        cfg = self._train_config(self.STEPS_PER_CALL)
        task = replace(self.TASK, seed=task_seed)
        before = {k: p.data.copy() for k, p in self.trainable.items()}
        with self.tracer.operation(f"train-{i}", "train"):
            t0 = time.perf_counter()
            records = training.train(self.model, cfg, task)
            pending.setdefault("train", []).append(_ms_since(t0) / cfg.steps)
        if not all(math.isfinite(r["loss_total"]) and math.isfinite(r["grad_norm"]) for r in records):
            return False
        if any(not np.array_equal(self.inherited[k], p.data) for k, p in self.frozen.items()):
            return False
        moved = {k: not np.array_equal(before[k], p.data) for k, p in self.trainable.items()}
        if not any(moved.values()):
            return False
        # a parameter with a nonzero gradient in the last step must have moved
        return all(moved[k] or p.grad is None or not np.any(p.grad)
                   for k, p in self.trainable.items())

    def _evaluate(self, inst_seed: int, op_id: str, pending: dict) -> bool:
        with self.tracer.operation(op_id, "eval"):
            t0 = time.perf_counter()
            acc, loss = training.evaluate(self.model, self.TASK, n_instances=1, seed=inst_seed)
            pending.setdefault("eval", []).append(_ms_since(t0))
        with self.tracer.paused():
            if not math.isfinite(loss):
                return False
            inst = training.generate_task(replace(self.TASK, seed=inst_seed), D)
            with numerics.no_grad():
                logits = model.text_logits(self.model, training.instance_sequence(self.model, inst)).data
            if not np.all(np.isfinite(logits)):
                return False
            sup = inst.targets >= 0
            forced = bool(np.all(np.argmax(logits[sup], axis=1) == inst.targets[sup]))
            return forced == (acc == 1.0)

    def cycle(self, i: int) -> None:
        self.ops.run(f"train-{i}", lambda p: self._train(i, p, self._seed(0, i)), self.samples)
        for k in range(self.EVALS_PER_CYCLE):
            seed = self._seed(1, i) + k
            self.ops.run(f"eval-{i}.{k}", lambda p: self._evaluate(seed, f"eval-{i}.{k}", p),
                         self.samples)

    def probes(self) -> dict[str, object]:
        def backward_probe(args, kwargs):
            def finish(grads):
                return {
                    "computed_values": sum(int(g.size) for g in grads.values()),
                    "useful_values": sum(int(g.size) for t, g in grads.items()
                                         if id(t) in self.trainable_ids),
                }
            return finish

        return {**super().probes(), "numerics.backward": backward_probe}

    def instrument(self) -> dict[str, float]:
        inst = training.generate_task(replace(self.TASK, seed=self._seed(2, 2)), D)
        prompt = training.instance_sequence(self.model, inst, include_answer=False)
        full = training.instance_sequence(self.model, inst)
        self._meter_ops(prompt)
        prefill_mb, _ = self._peaks(lambda: model.prefill(self.model, prompt))
        forward_mb, block_mb = self._peaks(lambda: model.text_logits(self.model, full))
        estimate = profiler.memory_estimate(self.model, full.m, full.n) * 8 / 2**20
        # last: one metered optimizer step (it updates the model)
        with numerics.count_flops() as meter:
            training.train(self.model, self._train_config(1), replace(self.TASK, seed=self._seed(2, 3)))
        with numerics.count_flops() as prompt_meter:
            model.prefill(self.model, prompt)
        return {
            "flops_total": meter.total,
            "flops_by_kind": dict(meter.by_kind),
            "prefill_flops": prompt_meter.total,
            "flops_analytic": analytic_flops(self.model, prompt.m, prompt.n),
            "prefill_peak_mb": prefill_mb,
            "mamba_peak_mb": block_mb,
            "memory_estimate_over_measured": estimate / forward_mb,
        }


def make(name: str, seed: int, out_dir: str) -> Workload:
    if name == "hybrid_long_video":
        w = Inference(model.ARCH_HYBRID, 8192, seed, out_dir)
    elif name == "baseline_long_context":
        w = Inference(model.ARCH_BASELINE, 2048, seed, out_dir)
    elif name == "graft_train":
        w = GraftTrain(seed, out_dir)
    else:
        raise KeyError(name)
    w.name = name
    return w


WORKLOADS = ("hybrid_long_video", "baseline_long_context", "graft_train")
