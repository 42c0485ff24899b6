"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with plain ``pytest`` (verdict lines are printed unbuffered to the
terminal) or ``pytest tests/test_acceptance.py -v`` for per-test detail.
The training-smoke criterion honours the budget recorded in
``configs/acceptance.cfg``.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binomtest

from hybridseq import attention as attn
from hybridseq import model as mod
from hybridseq import numerics as ng
from hybridseq import profiler as pf
from hybridseq import training as tr
from hybridseq.cli import load_config_file
from hybridseq.model import (
    ARCH_BASELINE,
    ARCH_HYBRID,
    HybridStackConfig,
    build_model,
    decode_step,
    hybrid_from_baseline,
    load_checkpoint,
    make_sequence,
    named_parameters,
    prefill,
    save_checkpoint,
    text_logits,
)
from hybridseq.numerics import Tensor, backward, finite_diff_grad
from hybridseq.ssm import (
    init_ssm_params,
    linear_recurrence,
    mamba_block_forward,
    scan_chunked_ssd,
    scan_sequential,
    zoh_discretize,
)

CFG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs", "acceptance.cfg")


def announce(capsys, num: int, text: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d}: PASS  {text}", flush=True)


def rel_err(ad, fd):
    return float(np.max(np.abs(ad - fd) / (np.abs(fd) + 1e-8)))


# --------------------------------------------------------------------------
# 1. Chunked/sequential scan equivalence
# --------------------------------------------------------------------------


def test_criterion_1_scan_equivalence(capsys):
    t0 = time.monotonic()
    lengths = [64, 128, 200, 512]
    worst = 0.0
    for seed in range(20):
        rng = ng.new_rng(9000 + seed)
        d_model = int(rng.choice([2, 4, 8]))
        params = init_ssm_params(ng.new_rng(seed), d_model, "mamba2", out_init_std=0.3)
        T = lengths[seed % len(lengths)]
        x = Tensor(rng.standard_normal((T, params.d_inner)))
        with ng.no_grad():
            y_seq = scan_sequential(params, x)
            for chunk in (1, 16, 64, T):
                y_chk = scan_chunked_ssd(params, x, chunk)
                worst = max(worst, float(np.max(np.abs(y_seq.data - y_chk.data))))
    elapsed = time.monotonic() - t0
    assert worst < 1e-8, f"max-abs divergence {worst}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is one minute"
    announce(capsys, 1, f"20 seeded configs, chunk in {{1,16,64,T}}: "
                        f"max|chunked-sequential| = {worst:.2e} (< 1e-8), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Gradient fidelity
# --------------------------------------------------------------------------


def _block_grad_err(variant: str, seed: int) -> float:
    rng = ng.new_rng(seed)
    p = init_ssm_params(ng.new_rng(seed), 2, variant, out_init_std=0.4)
    p.delta_bias = Tensor(np.log(np.expm1(rng.uniform(0.3, 0.9, p.n_delta))),
                          requires_grad=True)
    x0 = rng.standard_normal((4, 2))
    w = Tensor(rng.standard_normal((4, 2)))

    def f(t):
        y = mamba_block_forward(p, t)
        return ng.tsum(ng.mul(y, w))

    xt = Tensor(x0, requires_grad=True)
    y = mamba_block_forward(p, xt)
    backward(ng.tsum(ng.mul(y, w)))
    return rel_err(xt.grad, finite_diff_grad(f, Tensor(x0)))


def _attention_grad_err(seed: int) -> float:
    rng = ng.new_rng(seed)
    ps = attn.init_attention_params(ng.new_rng(seed), 4, 2)
    pc = attn.init_attention_params(ng.new_rng(seed + 1), 4, 2)
    video0 = rng.standard_normal((3, 4))
    text0 = rng.standard_normal((3, 4))
    w = Tensor(rng.standard_normal((3, 4)))

    def f(t):
        return ng.tsum(ng.mul(
            attn.blended_text_update(ps, pc, ng.sigmoid(ps.alpha_raw), Tensor(video0), t), w
        ))

    xt = Tensor(text0, requires_grad=True)
    backward(ng.tsum(ng.mul(
        attn.blended_text_update(ps, pc, ng.sigmoid(ps.alpha_raw), Tensor(video0), xt), w
    )))
    return rel_err(xt.grad, finite_diff_grad(f, Tensor(text0)))


def test_criterion_2_gradient_fidelity(capsys):
    worst_block = 0.0
    for seed in range(20):
        worst_block = max(worst_block, _block_grad_err("mamba1", 100 + seed))
        worst_block = max(worst_block, _block_grad_err("mamba2", 200 + seed))
        worst_block = max(worst_block, _attention_grad_err(300 + seed))
    assert worst_block < 1e-4, f"block-level relative error {worst_block}"

    # full 2-layer hybrid model: sampled parameter coordinates per seed
    worst_model = 0.0
    cfg = HybridStackConfig(d=32, n_layers=2, n_heads=4, vocab_size=40,
                            architecture=ARCH_HYBRID, block_variant="mamba2",
                            n_state=8).validate()
    for seed in range(20):
        model = build_model(cfg, seed=seed, mamba_out_std=0.3)
        rng = ng.new_rng(5000 + seed)
        video = rng.standard_normal((3, cfg.d))
        ids = rng.integers(0, cfg.vocab_size, size=3)
        w = Tensor(rng.standard_normal((3, cfg.vocab_size)))

        def loss_fn():
            return ng.tsum(ng.mul(text_logits(model, make_sequence(model, video, ids)), w))

        backward(loss_fn())
        params = named_parameters(model)
        names = sorted(params)
        pick = rng.choice(len(names), size=4, replace=False)
        for j in pick:
            p = params[names[j]]
            flat = p.data.reshape(-1)
            coords = rng.choice(flat.size, size=min(2, flat.size), replace=False)
            for c in coords:
                base = flat[c]
                h = 1e-5

                def probe(v):
                    flat[c] = v
                    try:
                        with ng.no_grad():
                            return loss_fn().item()
                    finally:
                        flat[c] = base

                fd = (probe(base + h) - probe(base - h)) / (2 * h)
                ad = p.grad.reshape(-1)[c]
                worst_model = max(worst_model, abs(ad - fd) / (abs(fd) + 1e-8))
    assert worst_model < 1e-3, f"full-model relative error {worst_model}"
    announce(capsys, 2, f"blocks worst rel err {worst_block:.2e} (< 1e-4); "
                        f"full model {worst_model:.2e} (< 1e-3); 20 seeds each")


# --------------------------------------------------------------------------
# 3. Causality suite
# --------------------------------------------------------------------------


def test_criterion_3_causality(capsys):
    for arch in (ARCH_HYBRID, ARCH_BASELINE):
        cfg = HybridStackConfig(d=16, n_layers=2, n_heads=2, vocab_size=32,
                                architecture=arch, block_variant="mamba2",
                                n_state=8).validate()
        model = build_model(cfg, seed=4, mamba_out_std=0.2)
        rng = ng.new_rng(5)
        video = rng.standard_normal((6, cfg.d))
        ids = rng.integers(0, cfg.vocab_size, size=5)
        with ng.no_grad():
            base = text_logits(model, make_sequence(model, video, ids)).data
        # any text suffix perturbation leaves every prefix logit untouched
        for j in range(1, 5):
            ids2 = ids.copy()
            ids2[j] = (ids2[j] + 7) % cfg.vocab_size
            with ng.no_grad():
                pert = text_logits(model, make_sequence(model, video, ids2)).data
            assert np.array_equal(base[:j], pert[:j]), f"{arch}: prefix changed at {j}"
        # every video token is visible to the text logits
        for i in range(6):
            v2 = video.copy()
            v2[i] += 0.75
            with ng.no_grad():
                pert = text_logits(model, make_sequence(model, v2, ids)).data
            assert not np.array_equal(base, pert), f"{arch}: video token {i} invisible"
    announce(capsys, 3, "prefix logits bit-stable under suffix edits; every video "
                        "token visible to text logits (both architectures)")


# --------------------------------------------------------------------------
# 4. Blend endpoints
# --------------------------------------------------------------------------


def test_criterion_4_blend_endpoints(capsys):
    for seed in range(8):
        rng = ng.new_rng(40 + seed)
        ps = attn.init_attention_params(ng.new_rng(41 + seed), 8, 2)
        pc = attn.init_attention_params(ng.new_rng(42 + seed), 8, 2)
        video = Tensor(rng.standard_normal((5, 8)))
        text = Tensor(rng.standard_normal((3, 8)))
        with ng.no_grad():
            assert np.array_equal(
                attn.blended_text_update(ps, pc, 0.0, video, text).data,
                attn.cross_attention(pc, text, video).data,
            )
            assert np.array_equal(
                attn.blended_text_update(ps, pc, 1.0, video, text).data,
                attn.causal_self_attention(ps, text).data,
            )
    announce(capsys, 4, "alpha=0 equals the cross branch and alpha=1 the self "
                        "branch, bit-exact, 8 seeds")


# --------------------------------------------------------------------------
# 5. Weight-transfer logit equality
# --------------------------------------------------------------------------


def test_criterion_5_weight_transfer(capsys):
    for seed in range(20):
        rng = ng.new_rng(500 + seed)
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 9))
        ps = attn.init_attention_params(ng.new_rng(600 + seed), 16, 4)
        pc = attn.init_cross_from_self(ps)
        video = Tensor(rng.standard_normal((m, 16)))
        text = Tensor(rng.standard_normal((n, 16)))
        cross = attn.cross_attention_scores(pc, text, video)
        joint = attn.joint_text_scores(ps, video, text)
        assert np.array_equal(cross, joint[:, :, :m]), f"seed {seed}"
    announce(capsys, 5, "cross pre-softmax scores equal the joint path's video "
                        "columns exactly (M<=64, N<=8, 20 seeds)")


# --------------------------------------------------------------------------
# 6. Complexity reproduction
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def counted_grid():
    grid = [1024, 2048, 4096, 8192, 16384]
    out = {}
    for arch in (ARCH_HYBRID, ARCH_BASELINE):
        cfg = HybridStackConfig(d=64, n_layers=2, n_heads=4, vocab_size=256,
                                architecture=arch, block_variant="mamba2").validate()
        model = build_model(cfg, seed=0)
        pts = []
        for m in grid:
            seq = pf._sequence_for(model, m, 64)
            pts.append((m, pf.counted_cost(model, seq)))
        out[arch] = pts
    return out


@pytest.mark.slow
def test_criterion_6_complexity(counted_grid, capsys):
    fit_b = pf.fit_scaling_exponent(counted_grid[ARCH_BASELINE])
    fit_h = pf.fit_scaling_exponent(counted_grid[ARCH_HYBRID])
    assert 1.85 <= fit_b.slope <= 2.1, f"baseline slope {fit_b.slope}"
    assert 0.9 <= fit_h.slope <= 1.15, f"hybrid slope {fit_h.slope}"
    assert fit_b.r2 > 0.99 and fit_h.r2 > 0.99
    mem_ratio = (
        pf.memory_estimate(ARCH_HYBRID, 8192, 64, d=64, layers=2, n_heads=4)
        / pf.memory_estimate(ARCH_BASELINE, 8192, 64, d=64, layers=2, n_heads=4)
    )
    assert mem_ratio < 0.5, f"memory ratio {mem_ratio}"
    announce(capsys, 6, f"counted-FLOPs slope: baseline {fit_b.slope:.3f} "
                        f"(r2={fit_b.r2:.4f}), hybrid {fit_h.slope:.3f} "
                        f"(r2={fit_h.r2:.4f}); memory ratio at M=8192 "
                        f"= {mem_ratio:.3f} (< 0.5)")


# --------------------------------------------------------------------------
# 7. ZOH correctness
# --------------------------------------------------------------------------


def test_criterion_7_zoh(capsys):
    a_bar, b_bar = zoh_discretize(-1.0, 1.0, 0.1)
    assert abs(a_bar - math.exp(-0.1)) < 1e-12
    assert abs(b_bar - (1 - math.exp(-0.1))) < 1e-12
    _, b_lim = zoh_discretize(-1e-14, 2.0, 0.5)
    assert abs(b_lim - 1.0) < 1e-9

    # constant-input LTI system against the exact ODE solution
    a, b, c, u, h0, delta = -0.8, 0.5, 1.2, 0.7, 0.3, 1e-3
    steps = 2000
    a_bar, b_bar = zoh_discretize(a, b, delta)
    decay = Tensor(np.full((steps, 1), a_bar))
    drive = Tensor(np.full((steps, 1), b_bar * u))
    with ng.no_grad():
        states = linear_recurrence(decay, drive, np.array([h0])).data[:, 0]
    worst = 0.0
    for k in (1, 10, 100, 1000, 2000):
        t = k * delta
        h_exact = math.exp(a * t) * h0 + (b * u / a) * (math.exp(a * t) - 1.0)
        worst = max(worst, abs(c * states[k - 1] - c * h_exact))
    assert worst < 1e-6, f"LTI divergence {worst}"
    announce(capsys, 7, f"closed forms to 1e-12 incl. the a->0 limit; "
                        f"LTI scan vs analytic ODE max err {worst:.2e} (< 1e-6)")


# --------------------------------------------------------------------------
# 8. Distillation mechanics
# --------------------------------------------------------------------------


def test_criterion_8_distillation(capsys):
    rng = ng.new_rng(80)
    logits = rng.standard_normal((6, 256)) * 2
    assert tr.distill_loss(logits, Tensor(logits.copy()), k=100).item() == 0.0

    student = rng.standard_normal((6, 256)) * 2
    got = tr.distill_loss(logits, Tensor(student), k=100).item()
    total = 0.0
    for row_t, row_s in zip(logits, student):
        idx = sorted(range(256), key=lambda j: (-row_t[j], j))[:100]
        tt, ss = row_t[idx], row_s[idx]
        pt = np.exp(tt - tt.max())
        pt /= pt.sum()
        ps = np.exp(ss - ss.max())
        ps /= ps.sum()
        total += float(np.sum(pt * (np.log(pt) - np.log(ps))))
    assert abs(got - total / 6) < 1e-12, "top-100 restriction disagrees with oracle"

    # the Table-3 lambda grid end to end at desk scale
    cfg = HybridStackConfig(d=8, n_layers=1, n_heads=2, vocab_size=70,
                            architecture=ARCH_HYBRID, block_variant="mamba2",
                            n_state=4).validate()
    teacher = build_model(replace(cfg, architecture=ARCH_BASELINE,
                                  block_variant="mamba2"), seed=81)
    task = tr.SyntheticTask(kind="needle_retrieval", m=6, n_classes=3, seed=81)
    for lam in tr.LAMBDA_GRID:
        model = build_model(cfg, seed=82)
        recs = tr.train(
            model,
            tr.TrainConfig(stage="pretrain", lam=lam, steps=1, batch=1, seed=83),
            task,
            teacher=teacher if lam > 0 else None,
        )
        assert math.isfinite(recs[0]["loss_total"])

    with pytest.raises(mod.ConfigError):
        tr.TrainConfig(stage="instruct", lam=0.5).validate()
    announce(capsys, 8, "KL(p||p)=0 exactly; top-100 matches brute-force oracle "
                        "on vocab 256; lambda grid runs end-to-end; instruct "
                        "rejects lambda>0")


# --------------------------------------------------------------------------
# 9. Training smoke (ablation direction at desk scale)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke():
    budget = load_config_file(CFG_PATH)
    d = int(budget["d"])
    seed = int(budget["seed"])
    task = tr.SyntheticTask(
        kind=budget["task"], m=int(budget["M"]), n_classes=int(budget["n_classes"]),
        needle_count=int(budget["needle_count"]), seed=seed,
    ).validate()
    t0 = time.monotonic()

    cfg_b = HybridStackConfig(d=d, n_layers=int(budget["layers"]),
                              n_heads=int(budget["heads"]),
                              vocab_size=int(budget["vocab"]),
                              architecture=ARCH_BASELINE).validate()
    baseline = build_model(cfg_b, seed=seed)
    tr.train(baseline, tr.TrainConfig(stage="instruct", lr=float(budget["lr"]),
                                      steps=int(budget["baseline_steps"]),
                                      batch=int(budget["batch"]), seed=seed), task)

    cfg_d = replace(cfg_b, architecture=ARCH_HYBRID, block_variant="mamba2",
                    ca_from_sa=True).validate()
    cfg_a = replace(cfg_b, architecture=ARCH_HYBRID, block_variant="none",
                    ca_from_sa=False).validate()
    model_d = hybrid_from_baseline(baseline, cfg_d, seed=seed + 1)
    model_a = hybrid_from_baseline(baseline, cfg_a, seed=seed + 1)

    n_eval = int(budget["eval_instances"])
    _, loss_d0 = tr.evaluate(model_d, task, n_instances=n_eval)
    _, loss_a0 = tr.evaluate(model_a, task, n_instances=n_eval)

    tr.train(model_d, tr.TrainConfig(stage="pretrain", lr=float(budget["lr"]),
                                     steps=int(budget["stage1_steps"]),
                                     batch=int(budget["batch"]), seed=seed + 1), task)
    acc_d, loss_d = tr.evaluate(model_d, task, n_instances=n_eval)
    elapsed = time.monotonic() - t0
    return {
        "acc_d": acc_d, "loss_d": loss_d, "loss_d0": loss_d0, "loss_a0": loss_a0,
        "n_eval": n_eval, "elapsed": elapsed, "task": task, "model_d": model_d,
    }


@pytest.mark.slow
def test_criterion_9_training_smoke(smoke, capsys):
    n = smoke["n_eval"]
    assert smoke["acc_d"] > 0.6, f"model-D accuracy {smoke['acc_d']}"
    successes = round(smoke["acc_d"] * n)
    p = binomtest(successes, n, 0.2, alternative="greater").pvalue
    assert p < 0.01, f"binomial p-value {p}"
    assert smoke["loss_d0"] < smoke["loss_a0"], (
        f"transferred-cross initial loss {smoke['loss_d0']} not below "
        f"random-cross {smoke['loss_a0']}"
    )
    assert smoke["elapsed"] < 1800, f"{smoke['elapsed']:.0f}s over the 30-minute budget"
    announce(capsys, 9, f"model-D accuracy {smoke['acc_d']:.2f} (> 0.6, "
                        f"p={p:.2e} vs chance 0.2); initial loss "
                        f"{smoke['loss_d0']:.3f} < random-cross {smoke['loss_a0']:.3f}; "
                        f"{smoke['elapsed']:.0f}s of <=1800s budget")


# --------------------------------------------------------------------------
# 10. Determinism and round-trips
# --------------------------------------------------------------------------


def test_criterion_10_determinism(capsys, tmp_path):
    cfg = HybridStackConfig(d=16, n_layers=2, n_heads=2, vocab_size=70,
                            architecture=ARCH_HYBRID, block_variant="mamba2",
                            n_state=8).validate()
    task = tr.SyntheticTask(kind="needle_retrieval", m=8, n_classes=3, seed=5)
    tcfg = tr.TrainConfig(stage="pretrain", steps=4, batch=2, seed=6)

    paths = []
    logs = []
    for run in range(2):
        model = build_model(cfg, seed=7)
        log_path = str(tmp_path / f"log{run}.ndjson")
        logs.append(tr.train(model, tcfg, task, log_path=log_path))
        ckpt = str(tmp_path / f"run{run}.ckpt")
        save_checkpoint(model, ckpt)
        paths.append(ckpt)
    assert logs[0] == logs[1], "training logs diverged across identical runs"
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    # save -> load -> save is byte-identical
    loaded = load_checkpoint(paths[0])
    resaved = str(tmp_path / "resaved.ckpt")
    save_checkpoint(loaded, resaved)
    assert open(paths[0], "rb").read() == open(resaved, "rb").read()

    # decode vs monolithic prefill over 8 generated tokens
    worst = 0.0
    for arch in (ARCH_HYBRID, ARCH_BASELINE):
        model = build_model(replace(cfg, architecture=arch), seed=8, mamba_out_std=0.2)
        rng = ng.new_rng(9)
        video = rng.standard_normal((6, cfg.d))
        ids = list(rng.integers(0, cfg.vocab_size, size=3))
        logits, ctx = prefill(model, make_sequence(model, video, np.array(ids)))
        for _ in range(8):
            nxt = int(np.argmax(logits))
            ids.append(nxt)
            with ng.no_grad():
                mono = prefill(model, make_sequence(model, video, np.array(ids)))[0]
            logits, ctx = decode_step(model, ctx, model.token_table.data[nxt])
            worst = max(worst, float(np.max(np.abs(logits - mono))))
    assert worst < 1e-10, f"decode/prefill divergence {worst}"
    announce(capsys, 10, f"identical seeds give identical logs and checkpoint "
                         f"bytes; save/load bit-exact; decode vs prefill max "
                         f"divergence {worst:.2e} (< 1e-10) over 8 tokens")
