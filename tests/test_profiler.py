"""Tests for cost models, counting, memory estimates, and fits."""

import tracemalloc

import numpy as np
import pytest

from hybridseq import model as mod
from hybridseq import numerics as ng
from hybridseq import profiler as pf
from hybridseq import ssm
from hybridseq.model import (
    ARCH_BASELINE,
    ARCH_HYBRID,
    FormatError,
    HybridStackConfig,
    build_model,
)
from hybridseq.numerics import ContractError, Tensor
from hybridseq.profiler import (
    analytic_cost,
    bench,
    counted_cost,
    fit_scaling_exponent,
    leading_term_cost,
    memory_estimate,
    read_reports,
    write_reports_csv,
    write_reports_json,
)


def build(arch, block="mamba2", d=64, layers=2, **kw):
    cfg = HybridStackConfig(d=d, n_layers=layers, n_heads=4, vocab_size=256,
                            architecture=arch, block_variant=block, **kw).validate()
    return build_model(cfg, seed=0)


class TestAnalyticCost:
    def test_leading_term_example(self):
        # M=1000, N=10, d=64: transformer 64*1010^2 vs hybrid 64*1000*10 + 64^2*1000
        t = leading_term_cost(ARCH_BASELINE, 1000, 10, 64)
        h = leading_term_cost(ARCH_HYBRID, 1000, 10, 64)
        assert t == 65_286_400
        assert h == 640_000 + 4_096_000
        assert abs(h / t - 0.0725) < 5e-4

    def test_m0_paths_coincide(self):
        # with no video tokens both architectures run the same text stack
        f_h = analytic_cost(ARCH_HYBRID, 0, 32, 64, 2)[0]
        f_t = analytic_cost(ARCH_BASELINE, 0, 32, 64, 2)[0]
        assert f_h == f_t
        # and the baseline over m video rows is that stack over m + n text rows
        for m in (0, 1, 255, 256, 1100, 8192):
            for n in (1, 64):
                for d, layers in ((64, 2), (32, 3)):
                    assert (analytic_cost(ARCH_BASELINE, m, n, d, layers)[0]
                            == analytic_cost(ARCH_HYBRID, 0, m + n, d, layers,
                                             block_variant="none")[0])

    def test_hybrid_leading_term_linear_in_m(self):
        a = leading_term_cost(ARCH_HYBRID, 4096, 64, 64)
        b = leading_term_cost(ARCH_HYBRID, 8192, 64, 64)
        assert b == 2 * a

    def test_contracts(self):
        with pytest.raises(ContractError):
            analytic_cost(ARCH_HYBRID, -1, 4, 8, 1)
        with pytest.raises(ContractError):
            leading_term_cost("wat", 1, 1, 1)
        with pytest.raises(ContractError):
            analytic_cost("wat", 1, 4, 8, 1)
        with pytest.raises(ContractError):
            memory_estimate("wat", 1, 4)
        for arch in (ARCH_HYBRID, ARCH_BASELINE):
            with pytest.raises(ContractError):
                analytic_cost(arch, 1, 4, 8, 1, block_variant="mamba3")
            with pytest.raises(ContractError):
                memory_estimate(arch, 1, 4, block_variant="mamba3")

    @pytest.mark.parametrize("m", [2**18, 2**19, 2**20])
    def test_leading_term_ratio_converges(self, m):
        # analytic/leading approaches a constant as M grows (same asymptote)
        r_now = analytic_cost(ARCH_BASELINE, m, 64, 64, 2)[0] / leading_term_cost(
            ARCH_BASELINE, m, 64, 64
        )
        r_next = analytic_cost(ARCH_BASELINE, 2 * m, 64, 64, 2)[0] / leading_term_cost(
            ARCH_BASELINE, 2 * m, 64, 64
        )
        assert abs(r_next / r_now - 1.0) < 0.02
        h_now = analytic_cost(ARCH_HYBRID, m, 64, 64, 2)[0] / leading_term_cost(
            ARCH_HYBRID, m, 64, 64
        )
        h_next = analytic_cost(ARCH_HYBRID, 2 * m, 64, 64, 2)[0] / leading_term_cost(
            ARCH_HYBRID, 2 * m, 64, 64
        )
        assert abs(h_next / h_now - 1.0) < 0.02


class TestCountedCost:
    def test_single_matmul_convention(self):
        with ng.count_flops() as meter:
            ng.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))))
        assert meter.total == 48

    @pytest.mark.parametrize("arch,block", [
        (ARCH_BASELINE, "mamba2"),
        (ARCH_HYBRID, "mamba2"),
        (ARCH_HYBRID, "mamba1"),
        (ARCH_HYBRID, "none"),
    ])
    def test_counted_within_band_of_analytic(self, arch, block):
        model = build(arch, block=block)
        cfg = model.config
        m, n = 512, 64
        counted = counted_cost(model, pf._sequence_for(model, m, n))
        analytic = analytic_cost(
            arch, m, n, cfg.d, cfg.n_layers, block_variant=block,
            n_state=16 if block == "mamba1" else 64,
        )[0]
        assert 0.5 <= counted / analytic <= 2.0
        # the derivation tracks the composition much tighter than the band
        assert abs(counted / analytic - 1.0) < 0.05

    def test_monotone_in_m(self):
        model = build(ARCH_BASELINE)
        c1 = counted_cost(model, pf._sequence_for(model, 1024, 16))
        c2 = counted_cost(model, pf._sequence_for(model, 2048, 16))
        assert c2 > c1

    def test_exactly_reproducible(self):
        model = build(ARCH_HYBRID)
        seq = pf._sequence_for(model, 128, 8)
        assert counted_cost(model, seq) == counted_cost(model, seq)


class TestFlopKinds:
    def test_the_cost_table_lists_exactly_the_kinds_that_run(self):
        # prefills of every architecture and block, and a distilling training
        # step, meter every kind `FLOP_COST` prices and no other but matmul
        from hybridseq.training import SyntheticTask, TrainConfig, train

        models = [build(ARCH_HYBRID, d=16, layers=1), build(ARCH_HYBRID, "mamba1", d=16, layers=1),
                  build(ARCH_BASELINE, "none", d=16, layers=1)]
        with ng.count_flops() as meter:
            for model in models:
                mod.prefill(model, pf._sequence_for(model, 70, 4))
            train(models[0], TrainConfig(lam=0.5, steps=1, batch=1), SyntheticTask(m=12),
                  teacher=models[2])
        assert set(meter.by_kind) == set(ng.FLOP_COST) | {"matmul"}


class TestBlockFlops:
    @pytest.mark.parametrize("variant", ["mamba1", "mamba2"])
    @pytest.mark.parametrize("m", [1, ssm.SSD_CHUNK, 2 * ssm.SSD_CHUNK + 5])
    def test_block_count_equals_analytic_term(self, variant, m):
        # includes the zero rows that pad the chunked scan's last chunk
        p = ssm.init_ssm_params(ng.new_rng(0), 8, variant, out_init_std=0.1)
        x = Tensor(ng.new_rng(1).standard_normal((m, 8)))
        with ng.no_grad(), ng.count_flops() as meter:
            ssm.mamba_block_forward(p, x)
        assert meter.total == pf._mamba_block_flops(m, 8, variant, p.n_state, p.n_heads)

    @pytest.mark.parametrize("variant", ["mamba1", "mamba2"])
    @pytest.mark.parametrize("m", [1, ssm.SSD_CHUNK + 1, 2 * ssm.SSD_CHUNK + 5])
    def test_block_count_does_not_depend_on_grad_mode(self, variant, m):
        # the same composition runs with and without a recorded graph
        p = ssm.init_ssm_params(ng.new_rng(2), 8, variant, out_init_std=0.1)
        x = Tensor(ng.new_rng(3).standard_normal((m, 8)), requires_grad=True)
        with ng.no_grad(), ng.count_flops() as without:
            ssm.mamba_block_forward(p, x)
        with ng.count_flops() as recorded:
            y = ssm.mamba_block_forward(p, x)
        assert y.requires_grad
        assert recorded.by_kind == without.by_kind
        assert recorded.total == pf._mamba_block_flops(m, 8, variant, p.n_state, p.n_heads)


class TestFit:
    def test_exact_linear(self):
        pts = [(m, 7.0 * m) for m in [1, 4, 16, 64, 256]]
        fit = fit_scaling_exponent(pts)
        assert abs(fit.slope - 1.0) < 1e-9
        assert fit.r2 > 1 - 1e-12

    def test_exact_quadratic(self):
        pts = [(m, 3.0 * m * m) for m in [2, 8, 32, 128]]
        fit = fit_scaling_exponent(pts)
        assert abs(fit.slope - 2.0) < 1e-9

    def test_contracts(self):
        with pytest.raises(ContractError):
            fit_scaling_exponent([(1, 1.0), (2, 2.0), (4, 4.0)])
        with pytest.raises(ContractError):
            fit_scaling_exponent([(1, 1.0), (2, 2.0), (4, 4.0), (8, 8.0)])
        with pytest.raises(ContractError):
            fit_scaling_exponent([(1, 1.0), (2, 2.0), (4, 4.0), (3, 8.0), (16, 1.0)])
        with pytest.raises(ContractError):
            fit_scaling_exponent([(1, 1.0), (2, -2.0), (4, 4.0), (16, 8.0)])


class TestMemoryEstimate:
    def test_baseline_quadratic_term(self):
        # coefficient of (M+N)^2 is exactly heads * layers: attention keeps
        # the probabilities of every head for its reverse pass, not the scores
        d, layers, h = 64, 2, 4
        big = 1 << 16
        vals = memory_estimate(ARCH_BASELINE, big, 64, d=d, layers=layers, n_heads=h)
        r = big + 64
        quad = 1.0 * h * layers * r * r
        assert vals >= quad
        assert (vals - quad) / quad < 0.01  # linear remainder is negligible here

    def test_hybrid_cross_term_coefficient(self):
        # with no scan block, the M coefficient per layer is heads*N, the
        # cross probabilities, plus what each video row keeps: its norm
        # (output, normalized input, 1/std), its cross key and value and
        # their joined copies; and, once, d each for the row's copy in its
        # row group and its joined last-layer row (the sequence holds the
        # caller's video row itself, which the graph does not allocate)
        d, layers, h, n = 64, 2, 4, 64
        kw = dict(d=d, layers=layers, n_heads=h, block_variant="none")
        m1, m2 = 4096, 8192
        v1 = memory_estimate(ARCH_HYBRID, m1, n, **kw)
        v2 = memory_estimate(ARCH_HYBRID, m2, n, **kw)
        coeff = (v2 - v1) / (m2 - m1)
        assert coeff == layers * (h * n + 6 * d + 1) + 2 * d

    @pytest.mark.parametrize("arch,block", [(ARCH_BASELINE, "none"), (ARCH_HYBRID, "mamba2"),
                                            (ARCH_HYBRID, "none")])
    @pytest.mark.parametrize("m", [256, 1024])
    def test_estimate_matches_what_a_recorded_forward_keeps(self, arch, block, m):
        # from the token ids to the logits, every term the graph keeps
        model = build(arch, block=block)
        rng = ng.new_rng(0)
        video, ids = rng.standard_normal((m, 64)), rng.integers(0, 256, 64)
        tracemalloc.start()
        try:
            out = mod.text_logits(model, mod.make_sequence(model, video, ids))
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del out
        ratio = 8 * memory_estimate(model, m, 64) / kept
        assert 0.95 < ratio < 1.05, ratio

    def test_ratio_below_half_at_desk_point(self):
        hyb = memory_estimate(ARCH_HYBRID, 8192, 64, d=64, layers=2, n_heads=4)
        base = memory_estimate(ARCH_BASELINE, 8192, 64, d=64, layers=2, n_heads=4)
        assert hyb / base < 0.5

    def test_ratio_monotone_decreasing_in_m(self):
        kw = dict(d=64, layers=2, n_heads=4)
        ratios = [
            memory_estimate(ARCH_HYBRID, m, 64, **kw)
            / memory_estimate(ARCH_BASELINE, m, 64, **kw)
            for m in [512, 1024, 2048, 4096, 8192]
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_model_overload(self):
        model = build(ARCH_HYBRID)
        assert memory_estimate(model, 128, 8) == memory_estimate(
            ARCH_HYBRID, 128, 8, d=64, layers=2, n_heads=4,
            block_variant="mamba2", n_state=64,
        )


class TestBench:
    def test_rows_carry_grid_inputs_and_parse(self, tmp_path):
        model_h = build(ARCH_HYBRID, d=16, layers=1)
        model_b = build(ARCH_BASELINE, d=16, layers=1)
        grid = [(32, 8), (64, 8)]
        reports = bench({"hybrid": model_h, "transformer_baseline": model_b},
                        grid, repeats=3)
        assert len(reports) == 4
        for r in reports:
            assert (r.m, r.n) in grid
            assert r.repeats == 3 and not r.skipped
            assert r.flops_counted > 0 and r.wall_ms_median > 0
        csv_path = tmp_path / "bench.csv"
        json_path = tmp_path / "bench.json"
        write_reports_csv(reports, str(csv_path))
        write_reports_json(reports, str(json_path))
        rows_csv = read_reports(str(csv_path))
        rows_json = read_reports(str(json_path))
        assert len(rows_csv) == len(rows_json) == 4
        assert rows_csv[0]["M"] == rows_json[0]["M"] == 32
        assert {c for c in rows_csv[0]} >= {
            "arch", "M", "N", "d", "layers", "flops_analytic", "flops_counted",
            "mem_estimate", "wall_ms_median", "repeats",
        }

    def test_memory_budget_skip(self):
        model_b = build(ARCH_BASELINE, d=16, layers=1)
        reports = bench({"transformer_baseline": model_b}, [(1 << 15, 8)],
                        repeats=3, mem_budget_values=1e6)
        assert reports[0].skipped
        assert "budget" in reports[0].reason
        assert reports[0].wall_ms_median == 0.0

    def test_median_stability_with_injected_clock(self):
        # deterministic clock: bench aggregates by median over repeats
        ticks = iter(np.arange(0, 1000, 0.5))
        model = build(ARCH_HYBRID, d=16, layers=1)
        reports = bench({"hybrid": model}, [(16, 4)], repeats=5,
                        time_fn=lambda: float(next(ticks)))
        assert reports[0].wall_ms_median == 500.0  # 0.5 s per tick pair

    def test_the_metered_prefill_is_the_warm_up(self, monkeypatch):
        model = build(ARCH_HYBRID, d=16, layers=1)
        calls = []
        real = mod.prefill
        monkeypatch.setattr(mod, "prefill", lambda *a: calls.append(1) or real(*a))
        bench({"hybrid": model}, [(16, 4)], repeats=3)
        assert len(calls) == 1 + 3

    def test_repeats_contract(self):
        model = build(ARCH_HYBRID, d=16, layers=1)
        with pytest.raises(ContractError):
            bench({"hybrid": model}, [(8, 4)], repeats=2)

    def test_schema_rejects_unknown(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope", "rows": []}')
        with pytest.raises(FormatError):
            read_reports(str(bad))
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("arch,M\nx,1\n")
        with pytest.raises(FormatError):
            read_reports(str(bad_csv))


@pytest.mark.slow
def test_wall_clock_slopes_separate():
    """Hybrid wall-clock grows with a visibly smaller slope than baseline."""
    grid = [(m, 32) for m in [128, 256, 512, 1024, 2048]]
    model_h = build(ARCH_HYBRID)
    model_b = build(ARCH_BASELINE)
    reports = bench({"hybrid": model_h, "transformer_baseline": model_b},
                    grid, repeats=3)
    by_arch = {}
    for r in reports:
        by_arch.setdefault(r.arch, []).append((r.m, r.wall_ms_median))
    fit_h = fit_scaling_exponent(by_arch["hybrid"])
    fit_b = fit_scaling_exponent(by_arch["transformer_baseline"])
    assert fit_h.slope < fit_b.slope
    assert fit_b.slope > 1.3


class TestScanMemory:
    """The scans' memory charges against what a recorded forward keeps."""

    @pytest.mark.parametrize("t", [256, 1000, 1100])
    def test_ssd_scan_values_match_what_the_graph_keeps(self, t):
        # 1000 and 1100 rows pad the last chunk
        params = ssm.init_ssm_params(ng.new_rng(0), 64, "mamba2")
        x = Tensor(ng.new_rng(1).standard_normal((t, params.d_inner)) * 0.5,
                   requires_grad=True)
        tracemalloc.start()
        try:
            y = ssm.scan_chunked_ssd(params, x, ssm.SSD_CHUNK)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        est = 8 * pf._ssd_scan_values(t, params.d_inner, params.n_heads,
                                      params.n_state, ssm.SSD_CHUNK)
        assert 0.9 < est / kept < 1.1, f"estimate {est / 2**20:.1f} MB, kept {kept / 2**20:.1f} MB"

    @pytest.mark.parametrize("t", [64, 256, 1000])
    def test_sequential_scan_values_match_what_the_graph_keeps(self, t):
        # one block, whole blocks, and a last block cut short
        params = ssm.init_ssm_params(ng.new_rng(0), 64, "mamba1")
        x = Tensor(ng.new_rng(1).standard_normal((t, params.d_inner)) * 0.5,
                   requires_grad=True)
        tracemalloc.start()
        try:
            y = ssm.scan_sequential(params, x)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        est = 8 * pf._sequential_scan_values(t, params.d_inner, params.n_state, ssm.SSD_CHUNK)
        assert 0.9 < est / kept < 1.1, f"estimate {est / 2**20:.1f} MB, kept {kept / 2**20:.1f} MB"

    def test_block_values_follow_the_row_groups(self):
        # the estimate undercounts the block's activations by the same share
        # whether its body runs in one row group or in three (the last one
        # padded), so the groups themselves are charged for what they keep
        params = ssm.init_ssm_params(ng.new_rng(0), 64, "mamba2", out_init_std=0.02)
        ratios = []
        for t in (ssm._SSD_GROUP * ssm.SSD_CHUNK, 2 * ssm._SSD_GROUP * ssm.SSD_CHUNK + 37):
            x = Tensor(ng.new_rng(1).standard_normal((t, 64)), requires_grad=True)
            tracemalloc.start()
            try:
                y = ssm.mamba_block_forward(params, x)
                kept, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del y, x
            est = 8 * pf._mamba_block_values(t, 64, "mamba2", params.n_heads, params.n_state)
            ratios.append(est / kept)
        assert 0.75 < ratios[0] < 1.0
        assert 0.97 < ratios[1] / ratios[0] < 1.03, ratios

    def test_empty_row_groups_keep_nothing(self):
        # a block over whole groups is charged per group, with no empty last
        # group, and a block over no rows keeps nothing, so a text-only
        # hybrid estimates what a block-free one does
        body = [pf._block_body_values(t, 64, ssm.MAMBA2, 4, 64) for t in (256, 512)]
        assert body[1] == 2 * body[0]
        for block in (ssm.MAMBA1, ssm.MAMBA2):
            assert pf._block_body_values(0, 64, block, 4, 64) == 0
            assert (memory_estimate(ARCH_HYBRID, 0, 9, block_variant=block)
                    == memory_estimate(ARCH_HYBRID, 0, 9, block_variant="none"))
        for arch in (ARCH_HYBRID, ARCH_BASELINE):
            for block in (ssm.MAMBA1, ssm.MAMBA2, "none"):
                for m in (0, 1, 255, 256, 512, 8192):
                    for n in (1, 64):
                        assert memory_estimate(arch, m, n, block_variant=block) >= 0

    @pytest.mark.parametrize("m", [256, 1024])
    def test_estimate_tracks_recorded_forward(self, m):
        # the estimate counts the retained activations only, from the token
        # ids on, so it sits below the measured peak, by the same margin on
        # both architectures
        ratios = {}
        for arch in (ARCH_HYBRID, ARCH_BASELINE):
            model = build(arch)
            rng = ng.new_rng(0)
            video, ids = rng.standard_normal((m, 64)), rng.integers(0, 256, 64)
            tracemalloc.start()
            try:
                out = mod.text_logits(model, mod.make_sequence(model, video, ids))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del out
            ratios[arch] = 8 * memory_estimate(model, m, 64) / peak
        assert 0.4 < ratios[ARCH_HYBRID] < 1.0
        assert 0.75 < ratios[ARCH_HYBRID] / ratios[ARCH_BASELINE] < 1.25
