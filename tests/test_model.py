"""Tests for stack assembly, routing, prefill/decode, and checkpoints."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from hybridseq import attention as attn_mod
from hybridseq import model as mod
from hybridseq import numerics as ng
from hybridseq import ssm as ssm_mod
from hybridseq import training
from hybridseq.model import (
    ARCH_BASELINE,
    ARCH_HYBRID,
    BLOCK_NONE,
    ConfigError,
    FormatError,
    HybridStackConfig,
    TokenSequence,
    baseline_layer_forward,
    build_model,
    decode_step,
    forward_hidden,
    generate_greedy,
    hybrid_from_baseline,
    hybrid_layer_forward,
    load_checkpoint,
    make_sequence,
    named_parameters,
    parameter_count_report,
    prefill,
    save_checkpoint,
    text_logits,
)
from hybridseq.numerics import ContractError, Tensor, backward, finite_diff_grad


def rel_err(ad, fd):
    return float(np.max(np.abs(ad - fd) / (np.abs(fd) + 1e-8)))


def small_config(arch=ARCH_HYBRID, block="mamba2", **kw):
    defaults = dict(d=8, n_layers=2, n_heads=2, vocab_size=17,
                    architecture=arch, block_variant=block)
    defaults.update(kw)
    return HybridStackConfig(**defaults).validate()


def random_sequence(model, m, n, seed=0):
    rng = ng.new_rng(seed)
    video = rng.standard_normal((m, model.config.d)) if m else None
    ids = rng.integers(0, model.config.vocab_size, size=n)
    return make_sequence(model, video, ids)


class TestTokenSequence:
    def test_needs_text(self):
        # the text needs at least one row, and video and text one width
        for video, text in ((None, np.zeros((0, 4))), (np.zeros((2, 4)), np.zeros((0, 4))),
                            (None, np.zeros(4)), (np.zeros((2, 3)), np.zeros((1, 4))),
                            (np.zeros(8), np.zeros((1, 4)))):
            with pytest.raises(ContractError):
                TokenSequence(None if video is None else Tensor(video), Tensor(text))

    def test_counts(self):
        seq = TokenSequence(Tensor(np.zeros((3, 4))), Tensor(np.ones((2, 4))))
        assert seq.m == 3 and seq.n == 2
        assert np.array_equal(seq.embeddings.data, np.concatenate([np.zeros((3, 4)),
                                                                   np.ones((2, 4))]))
        text_only = TokenSequence(None, Tensor(np.ones((2, 4))))
        assert text_only.m == 0 and text_only.n == 2 and text_only.embeddings is text_only.text

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            HybridStackConfig(architecture="wat").validate()
        with pytest.raises(ConfigError):
            HybridStackConfig(d=10, n_heads=4).validate()
        with pytest.raises(ConfigError):
            HybridStackConfig(block_variant="mamba9").validate()


class TestOneCopyOfTheVideo:
    """A sequence reads the caller's video rows; prefill builds no [M, d]
    array of its own beside the video caches."""

    def test_a_float64_contiguous_video_is_shared(self):
        model = build_model(small_config(), seed=20)
        video = ng.new_rng(21).standard_normal((9, 8))
        seq = make_sequence(model, video, [1, 2])
        assert np.shares_memory(seq.video.data, video)
        video[3, 4] = 7.0  # the aliasing contract: the sequence sees the write
        assert seq.video.data[3, 4] == 7.0

    def test_other_videos_are_copied_once(self):
        model = build_model(small_config(), seed=22)
        wide = ng.new_rng(23).standard_normal((9, 16))
        for video in (wide[:, ::2], wide[:, :8].astype(np.float32)):
            seq = make_sequence(model, video, [1, 2])
            assert not np.shares_memory(seq.video.data, wide)
            assert seq.video.data.flags["C_CONTIGUOUS"] and seq.video.data.dtype == np.float64
            assert np.array_equal(seq.video.data, video.astype(np.float64))

    @pytest.mark.parametrize("row", [0, 5])
    def test_non_finite_video_names_its_row(self, row):
        model = build_model(small_config(), seed=24)
        video = ng.new_rng(25).standard_normal((9, 8))
        video[row, 3] = np.nan
        video[7, 0] = np.inf
        with pytest.raises(ng.NumericError, match=f"^video: non-finite value at row {row}$"):
            make_sequence(model, video, [1, 2])

    def test_prefill_keeps_no_second_copy_of_the_video(self):
        # traced from after the video exists: a sequence that copied the
        # video, or a stack that joined it to the text, reads above 2 arrays
        cfg = HybridStackConfig(d=64, n_layers=2, n_heads=4, vocab_size=256).validate()
        model = build_model(cfg, seed=0)
        rng = ng.new_rng(1)
        video, ids = rng.standard_normal((8192, 64)), rng.integers(0, 256, 64)
        tracemalloc.start()
        try:
            _, ctx = prefill(model, make_sequence(model, video, ids))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        caches = sum(c.video_kv.k.nbytes + c.video_kv.v.nbytes for c in ctx.caches)
        assert (peak - caches) / video.nbytes < 1.5


class TestLayerForwards:
    def test_hybrid_zero_projections_is_identity(self):
        cfg = small_config()
        model = build_model(cfg, seed=1)
        layer = model.layers[0]
        layer.self_attn.w_o.data[:] = 0.0
        layer.cross_attn.w_o.data[:] = 0.0
        layer.mlp.w2.data[:] = 0.0
        layer.mlp.b2.data[:] = 0.0
        layer.mamba.w_out.data[:] = 0.0
        seq = random_sequence(model, m=4, n=1, seed=2)
        with ng.no_grad():
            out = hybrid_layer_forward(layer, seq)
        assert np.array_equal(out.embeddings.data, seq.embeddings.data)

    def test_block_none_leaves_video_unchanged(self):
        cfg = small_config(block=BLOCK_NONE)
        model = build_model(cfg, seed=3)
        seq = random_sequence(model, m=5, n=3, seed=4)
        with ng.no_grad():
            out = forward_hidden(model, seq)
        assert np.array_equal(out.embeddings.data[:5], seq.embeddings.data[:5])
        assert not np.array_equal(out.embeddings.data[5:], seq.embeddings.data[5:])

    def test_hybrid_layer_matches_hand_composition(self):
        cfg = small_config()
        model = build_model(cfg, seed=5, mamba_out_std=0.2)
        layer = model.layers[0]
        seq = random_sequence(model, m=4, n=3, seed=6)
        with ng.no_grad():
            out = hybrid_layer_forward(layer, seq)

            x = seq.embeddings
            x_v, x_t = ng.slice_rows(x, 0, 4), ng.slice_rows(x, 4, 7)
            v_out = ssm_mod.mamba_block_forward(layer.mamba, x_v)
            from hybridseq import attention as attn

            x_t_ln = ng.layer_norm(x_t, layer.attn_norm.gain, layer.attn_norm.bias)
            x_v_ln = ng.layer_norm(x_v, layer.attn_norm.gain, layer.attn_norm.bias)
            alpha = ng.sigmoid(layer.self_attn.alpha_raw)
            a_out = attn.blended_text_update(
                layer.self_attn, layer.cross_attn, alpha, x_v_ln, x_t_ln
            )
            mid = ng.add(x_t, a_out)
            t_out = ng.add(
                mid,
                mod._mlp_forward(
                    layer.mlp, ng.layer_norm(mid, layer.mlp_norm.gain, layer.mlp_norm.bias)
                ),
            )
        assert np.array_equal(out.embeddings.data[:4], v_out.data)
        assert np.array_equal(out.embeddings.data[4:], t_out.data)

    def test_baseline_m0_is_text_decoder(self):
        cfg = small_config(arch=ARCH_BASELINE)
        model = build_model(cfg, seed=7)
        seq = random_sequence(model, m=0, n=6, seed=8)
        with ng.no_grad():
            out = baseline_layer_forward(model.layers[0], seq)
        assert out.embeddings.shape == (6, cfg.d)

    def test_baseline_joint_mask_matches_blockwise_oracle(self):
        # the layer's single causal attention must agree, at the text rows,
        # with scoring each text query against the video block and the
        # causal text block separately, head by head
        cfg = small_config(arch=ARCH_BASELINE)
        model = build_model(cfg, seed=9)
        layer = model.layers[0]
        seq = random_sequence(model, m=5, n=4, seed=10)
        with ng.no_grad():
            x_ln = ng.layer_norm(seq.embeddings, layer.attn_norm.gain, layer.attn_norm.bias)
            joint = attn_mod.causal_self_attention(layer.self_attn, x_ln)
        sa, x = layer.self_attn, x_ln.data
        q, k, v = (x @ w.data for w in (sa.w_q, sa.w_k, sa.w_v))
        heads = []
        for lo in range(0, cfg.d, sa.head_dim):
            cols = slice(lo, lo + sa.head_dim)
            video = q[5:, cols] @ k[:5, cols].T
            text = np.where(np.tri(4, dtype=bool), q[5:, cols] @ k[5:, cols].T, -np.inf)
            s = np.concatenate([video, text], axis=1) / math.sqrt(sa.head_dim)
            w = np.exp(s - s.max(axis=1, keepdims=True))
            heads.append((w / w.sum(axis=1, keepdims=True)) @ v[:, cols])
        text_rows = np.concatenate(heads, axis=1) @ sa.w_o.data
        assert np.max(np.abs(joint.data[5:] - text_rows)) < 1e-12

    def test_baseline_zero_weights_identity(self):
        cfg = small_config(arch=ARCH_BASELINE)
        model = build_model(cfg, seed=11)
        layer = model.layers[0]
        layer.self_attn.w_o.data[:] = 0.0
        layer.mlp.w2.data[:] = 0.0
        layer.mlp.b2.data[:] = 0.0
        seq = random_sequence(model, m=3, n=2, seed=12)
        with ng.no_grad():
            out = baseline_layer_forward(layer, seq)
        assert np.array_equal(out.embeddings.data, seq.embeddings.data)


class TestCausalityEndToEnd:
    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    def test_text_suffix_invariance(self, arch):
        cfg = small_config(arch=arch)
        model = build_model(cfg, seed=13)
        rng = ng.new_rng(14)
        video = rng.standard_normal((4, cfg.d))
        ids = rng.integers(0, cfg.vocab_size, size=5)
        ids2 = ids.copy()
        ids2[3] = (ids2[3] + 1) % cfg.vocab_size
        with ng.no_grad():
            l1 = text_logits(model, make_sequence(model, video, ids)).data
            l2 = text_logits(model, make_sequence(model, video, ids2)).data
        assert np.array_equal(l1[:3], l2[:3])
        assert not np.array_equal(l1[3:], l2[3:])

    def test_hybrid_sees_every_video_token(self):
        cfg = small_config()
        model = build_model(cfg, seed=15, mamba_out_std=0.2)
        rng = ng.new_rng(16)
        video = rng.standard_normal((6, cfg.d))
        ids = rng.integers(0, cfg.vocab_size, size=3)
        with ng.no_grad():
            base = text_logits(model, make_sequence(model, video, ids)).data
        for i in range(6):
            v2 = video.copy()
            v2[i] += 1.0
            with ng.no_grad():
                pert = text_logits(model, make_sequence(model, v2, ids)).data
            assert not np.array_equal(base, pert), f"video token {i} invisible"


class TestPrefillDecode:
    @pytest.mark.parametrize("arch,block", [
        (ARCH_HYBRID, "mamba2"),
        (ARCH_HYBRID, "mamba1"),
        (ARCH_HYBRID, BLOCK_NONE),
        (ARCH_BASELINE, "mamba2"),
    ])
    def test_decode_matches_monolithic_prefill(self, arch, block):
        cfg = small_config(arch=arch, block=block)
        model = build_model(cfg, seed=17, mamba_out_std=0.2)
        rng = ng.new_rng(18)
        video = rng.standard_normal((5, cfg.d))
        ids = list(rng.integers(0, cfg.vocab_size, size=3))
        logits, ctx = prefill(model, make_sequence(model, video, np.array(ids)))
        for step in range(4):
            nxt = int(rng.integers(0, cfg.vocab_size))
            ids.append(nxt)
            with ng.no_grad():
                mono = prefill(model, make_sequence(model, video, np.array(ids)))[0]
            logits, ctx = decode_step(model, ctx, model.token_table.data[nxt])
            assert np.max(np.abs(logits - mono)) < 1e-10

    def test_decode_consistency_at_length_128(self):
        cfg = small_config()
        model = build_model(cfg, seed=43, mamba_out_std=0.2)
        rng = ng.new_rng(44)
        video = rng.standard_normal((100, cfg.d))
        ids = list(rng.integers(0, cfg.vocab_size, size=24))
        logits, ctx = prefill(model, make_sequence(model, video, np.array(ids)))
        for _ in range(4):
            nxt = int(np.argmax(logits))
            ids.append(nxt)
            with ng.no_grad():
                mono = prefill(model, make_sequence(model, video, np.array(ids)))[0]
            logits, ctx = decode_step(model, ctx, model.token_table.data[nxt])
            assert np.max(np.abs(logits - mono)) < 1e-10

    def test_prefill_logits_shape_and_determinism(self):
        cfg = small_config()
        model = build_model(cfg, seed=19)
        seq = random_sequence(model, m=4, n=2, seed=20)
        l1, _ = prefill(model, seq)
        l2, _ = prefill(model, random_sequence(model, m=4, n=2, seed=20))
        assert l1.shape == (cfg.vocab_size,)
        assert np.array_equal(l1, l2)

    def test_decode_increments_text_and_keeps_video_cache(self):
        cfg = small_config()
        model = build_model(cfg, seed=21)
        seq = random_sequence(model, m=3, n=2, seed=22)
        _, ctx = prefill(model, seq)
        k_before = [c.video_kv.k.copy() for c in ctx.caches]
        n_before = ctx.n_text
        _, ctx = decode_step(model, ctx, model.token_table.data[1])
        assert ctx.n_text == n_before + 1
        for c, kb in zip(ctx.caches, k_before):
            assert np.array_equal(c.video_kv.k, kb)

    def test_greedy_generation_matches_repeated_prefill(self):
        cfg = small_config()
        model = build_model(cfg, seed=23, mamba_out_std=0.2)
        rng = ng.new_rng(24)
        video = rng.standard_normal((4, cfg.d))
        ids = list(rng.integers(0, cfg.vocab_size, size=2))
        gen = generate_greedy(model, make_sequence(model, video, np.array(ids)), 8)
        ref_ids = list(ids)
        for _ in range(8):
            with ng.no_grad():
                logits, _ = prefill(model, make_sequence(model, video, np.array(ref_ids)))
            ref_ids.append(int(np.argmax(logits)))
        assert gen == ref_ids[len(ids):]


def spy_on_projection(tensor, name, log):
    """Swap a weight's array for a view that logs (name, rows) for every
    matmul it is the right operand of."""

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[-1] is self:
                log.append((name, inputs[0].shape[0]))
            plain = tuple(a.view(np.ndarray) if isinstance(a, Spy) else a for a in inputs)
            return getattr(ufunc, method)(*plain, **kwargs)

    tensor.data = tensor.data.view(Spy)


class TestPrefillWritesCaches:
    """Prefill is the layer stack run with caching: one pass, metered."""

    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    def test_each_row_is_projected_once_per_layer(self, arch):
        model = build_model(small_config(arch=arch), seed=71)
        m, n = 7, 3
        log = []
        for i, layer in enumerate(model.layers):
            for kind, params in (("self", layer.self_attn), ("cross", layer.cross_attn)):
                if params is not None:
                    spy_on_projection(params.w_k, f"{i}.{kind}.k", log)
                    spy_on_projection(params.w_v, f"{i}.{kind}.v", log)
        _, ctx = prefill(model, random_sequence(model, m=m, n=n, seed=72))
        expected = []
        for i in range(len(model.layers)):
            if arch == ARCH_HYBRID:
                expected += [(f"{i}.cross.k", m), (f"{i}.cross.v", m),
                             (f"{i}.self.k", n), (f"{i}.self.v", n)]
            else:
                expected += [(f"{i}.self.k", m + n), (f"{i}.self.v", m + n)]
        assert sorted(log) == sorted(expected)
        rows = n if arch == ARCH_HYBRID else m + n
        for c in ctx.caches:
            assert c.text_k.shape[1] == rows and c.text_v.shape[1] == rows
            assert (c.video_kv is None) == (arch == ARCH_BASELINE)

    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    def test_caches_hold_the_layer_inputs_keys_and_values(self, arch):
        model = build_model(small_config(arch=arch), seed=73, mamba_out_std=0.2)
        seq = random_sequence(model, m=6, n=4, seed=74)
        _, ctx = prefill(model, seq)
        cur = seq
        with ng.no_grad():
            for layer, cache in zip(model.layers, ctx.caches):
                x_ln = ng.layer_norm(cur.embeddings, layer.attn_norm.gain,
                                     layer.attn_norm.bias).data
                sa, nh = layer.self_attn, layer.self_attn.n_heads
                own = x_ln if arch == ARCH_BASELINE else x_ln[6:]
                for got, w in ((cache.text_k, sa.w_k), (cache.text_v, sa.w_v)):
                    heads = (own @ w.data).reshape(-1, nh, sa.head_dim).transpose(1, 0, 2)
                    assert np.array_equal(got, heads)
                if arch == ARCH_HYBRID:
                    ref = attn_mod.build_video_kv_cache(layer.cross_attn, Tensor(x_ln[:6]))
                    assert np.array_equal(cache.video_kv.k, ref.k)
                    assert np.array_equal(cache.video_kv.v, ref.v)
                    cur = hybrid_layer_forward(layer, cur)
                else:
                    cur = baseline_layer_forward(layer, cur)

    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    def test_prefill_meters_what_the_forward_meters(self, arch):
        model = build_model(small_config(arch=arch), seed=75)
        seq = random_sequence(model, m=9, n=4, seed=76)
        with ng.count_flops() as caching:
            prefill(model, seq)
        with ng.no_grad(), ng.count_flops() as without:
            forward_hidden(model, seq)
        # plus the head on the last row: final norm and the tied product
        d, vocab = model.config.d, model.config.vocab_size
        head = {"layer_norm": 8 * d, "matmul": 2 * d * vocab}
        assert caching.by_kind == {k: c + head.get(k, 0) for k, c in without.by_kind.items()}

    @pytest.mark.parametrize("arch,m,layers_flops", [(ARCH_HYBRID, 1024, 385_278_106),
                                                     (ARCH_BASELINE, 512, 300_441_600)])
    def test_prefill_flops_at_the_benchmark_shape(self, arch, m, layers_flops):
        from hybridseq.profiler import analytic_cost

        cfg = HybridStackConfig(d=64, n_layers=2, n_heads=4, vocab_size=256, architecture=arch,
                                block_variant="mamba2" if arch == ARCH_HYBRID else BLOCK_NONE)
        model = build_model(cfg.validate(), seed=0)
        with ng.count_flops() as meter:
            prefill(model, random_sequence(model, m=m, n=64, seed=77))
        # the layers, then the head: 8*d + 2*d*vocab = 33,280, for totals of
        # 385,311,386 (hybrid) and 300,474,880 (baseline), the analytic counts
        assert meter.total == layers_flops + 33_280
        assert meter.total == analytic_cost(arch, m, 64, 64, 2, block_variant=cfg.block_variant)[0]

    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    def test_decode_step_flops_equal_closed_form(self, arch):
        model = build_model(small_config(arch=arch), seed=82)
        cfg = model.config
        d, h, hidden, m, n = cfg.d, cfg.n_heads, cfg.mlp_ratio * cfg.d, 5, 3
        _, ctx = prefill(model, random_sequence(model, m=m, n=n, seed=83))
        with ng.count_flops() as meter:
            decode_step(model, ctx, model.token_table.data[4])

        def attention(keys, projected):
            # one query row: q and output projections, `projected` of k and
            # v, scores and weighted values, softmax
            return 2 * d * d * (2 + projected) + 4 * keys * d + 5 * keys * h

        if arch == ARCH_HYBRID:
            # cross over the cached video, self over the text rows, blend
            mix = attention(m, 0) + attention(n + 1, 2) + 4 + 1 + 3 * d
        else:
            mix = attention(m + n + 1, 2)
        mlp = 4 * d * hidden + hidden + d + 8 * hidden
        per_layer = 8 * d + mix + d + 8 * d + mlp + d
        assert meter.total == cfg.n_layers * per_layer + 8 * d + 2 * d * cfg.vocab_size

    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    @pytest.mark.parametrize("d,heads,m,n", [(8, 2, 5, 3), (64, 4, 16, 64)])
    def test_decode_appends_the_row_a_fresh_prefill_projects(self, arch, d, heads, m, n):
        model = build_model(small_config(arch=arch, d=d, n_heads=heads), seed=84,
                            mamba_out_std=0.2)
        rng = ng.new_rng(85)
        video = rng.standard_normal((m, d))
        ids = rng.integers(0, model.config.vocab_size, size=n)
        _, ctx = prefill(model, make_sequence(model, video, ids))
        _, ctx = decode_step(model, ctx, model.token_table.data[7])
        _, fresh = prefill(model, make_sequence(model, video, np.append(ids, 7)))
        got, want = ctx.caches[0], fresh.caches[0]
        assert np.array_equal(got.text_k[:, -1], want.text_k[:, -1])
        assert np.array_equal(got.text_v[:, -1], want.text_v[:, -1])

    def test_video_buffers_are_full_and_shared_by_decode(self):
        model = build_model(small_config(), seed=88)
        m = ssm_mod.GROUP_ROWS + 9  # two row groups, each appended in turn
        _, ctx = prefill(model, random_sequence(model, m=m, n=3, seed=89))
        _, a = decode_step(model, ctx, model.token_table.data[2])
        _, b = decode_step(model, a, model.token_table.data[3])
        for old, c1, c2 in zip(ctx.caches, a.caches, b.caches):
            assert old.video_kv.filled == old.video_kv.capacity == m
            assert c1.video_kv is old.video_kv and c2.video_kv is old.video_kv

    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    def test_first_decode_step_writes_into_the_prefill_buffer(self, arch):
        # prefill grows its caches from empty with the rule decode uses, so
        # its buffers have room and the first step copies no cached row
        model = build_model(small_config(arch=arch), seed=86)
        m, n = 5, 3
        _, ctx = prefill(model, random_sequence(model, m=m, n=n, seed=87))
        rows = n if arch == ARCH_HYBRID else m + n
        seen = [(c.text_k.copy(), c.text_v.copy()) for c in ctx.caches]
        _, nxt = decode_step(model, ctx, model.token_table.data[2])
        for (k, v), old, new in zip(seen, ctx.caches, nxt.caches):
            assert old.n == rows and old.rows.k.shape[1] == 2 * rows
            assert new.rows is old.rows and new.n == rows + 1 == new.rows.filled
            assert np.shares_memory(new.text_k, old.text_k)
            assert np.array_equal(new.text_k[:, :rows], k)
            assert np.array_equal(new.text_v[:, :rows], v)

    def test_greedy_skips_the_unread_last_decode_step(self, monkeypatch):
        model = build_model(small_config(), seed=80, mamba_out_std=0.2)
        seq = random_sequence(model, m=4, n=2, seed=81)
        # the full loop: one decode step after every token, the last unread
        logits, ctx = prefill(model, seq)
        full = []
        for _ in range(5):
            full.append(int(np.argmax(logits)))
            logits, ctx = decode_step(model, ctx, model.token_table.data[full[-1]])
        calls = []
        step = mod.decode_step

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(mod, "decode_step", counted)
        assert generate_greedy(model, seq, 5) == full
        assert len(calls) == 4


class TestParameters:
    def test_registry_sorted_and_complete(self):
        model = build_model(small_config(), seed=25)
        names = list(named_parameters(model))
        assert names == sorted(names)
        assert "layers.0.cross_attn.w_q" in names
        assert "layers.1.mamba.a_log" in names
        assert "layers.0.alpha_raw" in names

    def test_hybrid_count_identity(self):
        cfg_b = small_config(arch=ARCH_BASELINE)
        cfg_h = small_config(arch=ARCH_HYBRID)
        base = parameter_count_report(build_model(cfg_b, seed=26))
        hyb = parameter_count_report(build_model(cfg_h, seed=26))
        # the hybrid adds exactly the cross-attention, scan blocks and blend
        # weights on top of the baseline's parameter set
        assert hyb["self_attention"] == base["self_attention"]
        assert hyb["mlp"] == base["mlp"]
        assert hyb["embedding"] == base["embedding"]
        assert hyb["total"] == base["total"] + hyb["cross_attention"] + hyb["mamba"] + hyb["alpha"]
        assert hyb["cross_attention"] == cfg_h.n_layers * 4 * cfg_h.d * cfg_h.d
        assert hyb["alpha"] == cfg_h.n_layers

    def test_full_model_gradient_check(self):
        cfg = HybridStackConfig(
            d=4, n_layers=2, n_heads=2, vocab_size=9, architecture=ARCH_HYBRID,
            block_variant="mamba2", n_state=4,
        ).validate()
        model = build_model(cfg, seed=27, mamba_out_std=0.3)
        rng = ng.new_rng(28)
        video = rng.standard_normal((3, cfg.d))
        ids = rng.integers(0, cfg.vocab_size, size=3)
        w = Tensor(rng.standard_normal((3, cfg.vocab_size)))

        def loss_fn():
            seq = make_sequence(model, video, ids)
            return ng.tsum(ng.mul(text_logits(model, seq), w))

        loss = loss_fn()
        backward(loss)

        params = named_parameters(model)
        checked = 0
        for name in ["embed.token_table", "layers.0.self_attn.w_q",
                     "layers.1.cross_attn.w_v", "layers.0.mamba.w_in",
                     "layers.1.alpha_raw", "head.final_norm.gain",
                     "layers.0.mlp.w1"]:
            p = params[name]
            base = p.data.copy()

            def f(t, _p=p):
                old = _p.data
                _p.data = t.data
                try:
                    return loss_fn()
                finally:
                    _p.data = old

            fd = finite_diff_grad(f, Tensor(base))
            assert rel_err(p.grad, fd) < 1e-3, name
            checked += 1
        assert checked == 7


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_model(small_config(), seed=29, mamba_out_std=0.1)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(model, str(p1))
        loaded = load_checkpoint(str(p1))
        save_checkpoint(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        for name, t in named_parameters(model).items():
            assert np.array_equal(t.data, named_parameters(loaded)[name].data), name

    def test_loaded_model_logits_identical(self, tmp_path):
        model = build_model(small_config(), seed=30, mamba_out_std=0.1)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        seq1 = random_sequence(model, m=4, n=2, seed=31)
        seq2 = random_sequence(loaded, m=4, n=2, seed=31)
        l1, _ = prefill(model, seq1)
        l2, _ = prefill(loaded, seq2)
        assert np.array_equal(l1, l2)

    def test_wrong_magic_and_truncation(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTHYSQ1" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(str(path))
        model = build_model(small_config(), seed=32)
        good = tmp_path / "good.ckpt"
        save_checkpoint(model, str(good))
        data = good.read_bytes()
        (tmp_path / "trunc.ckpt").write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(str(tmp_path / "trunc.ckpt"))

    def test_expected_config_mismatch(self, tmp_path):
        model = build_model(small_config(), seed=33)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        other = small_config(vocab_size=99)
        with pytest.raises(ConfigError):
            load_checkpoint(path, expected_config=other)

    def test_version_rejected(self, tmp_path):
        model = build_model(small_config(), seed=34)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # bump the version field
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(str(path))


    @staticmethod
    def _tiny_image(tmp_path):
        path = tmp_path / "tiny.ckpt"
        save_checkpoint(build_model(small_config(d=4, n_layers=1, vocab_size=5), seed=36), str(path))
        return path.read_bytes()

    @staticmethod
    def _layout(raw):
        """The byte indices of a v2 image outside the float payloads (magic,
        version, config block, parameter count, each record's name length,
        name, rank and shape, the checksum), and those inside them."""
        (cfg_len,) = struct.unpack("<Q", raw[12:20])
        off = 20 + cfg_len + 4
        meta, payload = list(range(off)), []
        records_end = len(raw) - 4
        while off < records_end:
            (name_len,) = struct.unpack("<H", raw[off : off + 2])
            ndim = raw[off + 2 + name_len]
            end = off + 3 + name_len + 4 * ndim
            meta += range(off, end)
            off = end + 8 * math.prod(struct.unpack(f"<{ndim}I", raw[end - 4 * ndim : end]))
            payload += range(end, off)
        return meta + list(range(records_end, len(raw))), payload

    def test_truncation_at_every_byte_raises_format_error(self, tmp_path):
        raw = self._tiny_image(tmp_path)
        for k in range(len(raw)):
            with pytest.raises(FormatError):
                mod._model_from_bytes(raw[:k])

    def test_corrupt_header_and_name_bytes_fail_at_the_boundary(self, tmp_path):
        # every byte outside the float payloads, set to a few other values:
        # the load succeeds or raises FormatError or ConfigError (both exit
        # 3), never UnicodeDecodeError, ValueError or the like
        raw = self._tiny_image(tmp_path)
        meta, _ = self._layout(raw)
        raised = set()
        for i in meta:
            for value in {raw[i] ^ 0xFF, raw[i] ^ 0x01, ord("0")} - {raw[i]}:
                bad = bytearray(raw)
                bad[i] = value
                try:
                    mod._model_from_bytes(bytes(bad))
                except (FormatError, ConfigError) as exc:
                    raised.add(type(exc))
        assert raised == {FormatError, ConfigError}

    def test_version_1_files_still_load(self, tmp_path):
        # a v1 image is a v2 image with version 1 and no checksum
        model = build_model(small_config(), seed=37, mamba_out_std=0.1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        raw = bytearray(path.read_bytes())
        assert struct.unpack("<I", raw[8:12]) == (2,)
        raw[8:12] = struct.pack("<I", 1)
        loaded = mod._model_from_bytes(bytes(raw[:-4]))
        for name, t in named_parameters(model).items():
            assert np.array_equal(t.data, named_parameters(loaded)[name].data), name
        with pytest.raises(FormatError):  # a v1 image carries no checksum
            mod._model_from_bytes(bytes(raw))

    def test_flipped_payload_bytes_fail_the_checksum(self, tmp_path):
        # a flipped low bit leaves a finite float of the right shape, which
        # only the checksum catches; every 7th payload byte, in every record
        raw = self._tiny_image(tmp_path)
        _, payload = self._layout(raw)
        assert len(payload) > 1000
        for i in payload[::7]:
            bad = bytearray(raw)
            bad[i] ^= 0x01
            with pytest.raises(FormatError, match="checksum"):
                mod._model_from_bytes(bytes(bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_fails_on_load(self, tmp_path, bad):
        model = build_model(small_config(), seed=35)
        w = model.layers[1].mlp.w1
        w.data = w.data.copy()
        w.data[2, 3] = bad
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        with pytest.raises(FormatError, match=r"layers\.1\.mlp\.w1"):
            load_checkpoint(path)


class TestHybridFromBaseline:
    def test_inherited_weights_copied(self):
        cfg_b = small_config(arch=ARCH_BASELINE)
        base = build_model(cfg_b, seed=35)
        cfg_h = small_config(arch=ARCH_HYBRID)
        hyb = hybrid_from_baseline(base, cfg_h, seed=36)
        assert np.array_equal(hyb.token_table.data, base.token_table.data)
        for lb, lh in zip(base.layers, hyb.layers):
            assert np.array_equal(lb.self_attn.w_q.data, lh.self_attn.w_q.data)
            assert np.array_equal(lh.cross_attn.w_o.data, lh.self_attn.w_o.data)
            assert lh.mamba is not None
        # mutating the hybrid must not touch the baseline
        hyb.layers[0].self_attn.w_q.data[:] = 0.0
        assert not np.array_equal(base.layers[0].self_attn.w_q.data, 0.0)

    @pytest.mark.parametrize("block", ["mamba1", "mamba2", BLOCK_NONE])
    @pytest.mark.parametrize("ca_from_sa", [False, True])
    def test_graft_copies_the_baseline_then_draws_cross_and_block(self, block, ca_from_sa):
        # the baseline's parameters hold gradients, as after a training step
        base = build_model(small_config(arch=ARCH_BASELINE), seed=43)
        base_params = named_parameters(base)
        for t in base_params.values():
            t.grad = np.ones_like(t.data)
        before = {name: t.data.copy() for name, t in base_params.items()}
        cfg = small_config(block=block, ca_from_sa=ca_from_sa)
        hyb = hybrid_from_baseline(base, cfg, seed=44, mamba_out_std=0.1)
        got = named_parameters(hyb)
        assert all(t.requires_grad and t.grad is None for t in got.values())
        for name, t in base_params.items():
            assert np.array_equal(got[name].data, t.data), name
            assert not np.shares_memory(got[name].data, t.data), name

        # per layer, new_rng(seed) draws the cross-attention (unless it is
        # copied from the self-attention), then the block
        rng = ng.new_rng(44)
        for i, layer in enumerate(hyb.layers):
            cross = (attn_mod.init_cross_from_self(layer.self_attn) if ca_from_sa
                     else attn_mod.init_attention_params(rng, cfg.d, cfg.n_heads))
            drawn = cross.named("x")
            if block == BLOCK_NONE:
                assert layer.mamba is None
            else:
                drawn.update(ssm_mod.init_ssm_params(rng, cfg.d, block, out_init_std=0.1).named("m"))
            grafted = layer.cross_attn.named("x")
            if layer.mamba is not None:
                grafted.update(layer.mamba.named("m"))
            assert drawn.keys() == grafted.keys()
            for name in drawn:
                assert np.array_equal(grafted[name].data, drawn[name].data), (i, name)

        # training the graft in place leaves the baseline and its gradients alone
        backward(ng.tsum(text_logits(hyb, random_sequence(hyb, 5, 4, seed=45))))
        for t in got.values():
            t.data -= 0.1 * t.grad
        for name, t in base_params.items():
            assert np.array_equal(t.data, before[name]) and np.all(t.grad == 1.0), name

    def test_random_cross_differs(self):
        base = build_model(small_config(arch=ARCH_BASELINE), seed=37)
        hyb = hybrid_from_baseline(base, small_config(ca_from_sa=False), seed=38)
        l = hyb.layers[0]
        assert not np.array_equal(l.cross_attn.w_q.data, l.self_attn.w_q.data)

    def test_config_mismatch_rejected(self):
        base = build_model(small_config(arch=ARCH_BASELINE), seed=39)
        with pytest.raises(ConfigError):
            hybrid_from_baseline(base, small_config(d=16, n_heads=2), seed=40)
        with pytest.raises(ConfigError):
            hybrid_from_baseline(
                build_model(small_config(), seed=41), small_config(), seed=42
            )


class TestTextOnlyHybrid:
    def test_grafted_hybrid_reads_text_as_its_baseline_does(self):
        # with no video the hybrid layer runs its text half alone, on the
        # baseline's weights, so it computes what the baseline computes
        from hybridseq.profiler import analytic_cost

        shape = dict(d=64, n_layers=2, n_heads=4, vocab_size=256)
        base = build_model(HybridStackConfig(architecture=ARCH_BASELINE, block_variant=BLOCK_NONE,
                                             **shape).validate(), seed=90)
        hyb = hybrid_from_baseline(base, HybridStackConfig(**shape).validate(), seed=91,
                                   mamba_out_std=0.2)
        ids = ng.new_rng(92).integers(0, 256, size=9)
        got = {}
        for model in (base, hyb):
            arch = model.config.architecture
            seq = make_sequence(model, None, ids)
            assert seq.m == 0
            with ng.count_flops() as meter:
                logits, ctx = prefill(model, seq)
            assert meter.total == analytic_cost(arch, 0, 9, 64, 2)[0] == 1_910_824
            got[arch] = (text_logits(model, seq).data, logits, ctx)
        assert np.array_equal(got[ARCH_HYBRID][0], got[ARCH_BASELINE][0])
        assert np.array_equal(got[ARCH_HYBRID][1], got[ARCH_BASELINE][1])

        step, _ = decode_step(hyb, got[ARCH_HYBRID][2], hyb.token_table.data[5])
        fresh, _ = prefill(hyb, make_sequence(hyb, None, np.append(ids, 5)))
        assert np.max(np.abs(step - fresh)) < 1e-13

    def test_baseline_is_the_stack_with_no_video_rows(self):
        # the baseline over m video and n text rows runs what its grafted
        # hybrid runs over the same m + n rows taken as text, bit for bit,
        # in training, prefill and decode
        base = build_model(small_config(arch=ARCH_BASELINE), seed=93)
        hyb = hybrid_from_baseline(base, small_config(), seed=94, mamba_out_std=0.2)
        seq = random_sequence(base, m=300, n=5, seed=95)
        as_text = TokenSequence(None, seq.embeddings)
        assert np.array_equal(forward_hidden(base, seq).embeddings.data,
                              forward_hidden(hyb, as_text).embeddings.data)
        assert np.array_equal(text_logits(base, seq).data, text_logits(hyb, as_text).data[300:])
        (lb, cb), (lh, ch) = prefill(base, seq), prefill(hyb, as_text)
        assert np.array_equal(lb, lh)
        for got, want in zip(ch.caches, cb.caches):
            assert got.video_kv is None and want.video_kv is None
            assert np.array_equal(got.text_k, want.text_k)
            assert np.array_equal(got.text_v, want.text_v)
        token = base.token_table.data[3]
        assert np.array_equal(decode_step(base, cb, token)[0], decode_step(hyb, ch, token)[0])


class TestDecodeBranching:
    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    def test_branches_equal_independent_prefills(self, arch):
        cfg = small_config(arch=arch)
        model = build_model(cfg, seed=45, mamba_out_std=0.2)
        seq = random_sequence(model, m=6, n=3, seed=46)
        first = model.token_table.data[5]
        # branch from the prefill's context and from a decoded one, whose
        # text buffers have room for the first branch to write into
        for decoded in (0, 1):
            _, shared = prefill(model, seq)
            for _ in range(decoded):
                _, shared = decode_step(model, shared, first)
            # step the two branches in turn, so each writes between the
            # other's steps
            firsts = [decode_step(model, shared, model.token_table.data[tok])
                      for tok in (2, 9)]
            branches = [(logits, decode_step(model, ctx, model.token_table.data[tok + 1])[0])
                        for tok, (logits, ctx) in zip((2, 9), firsts)]
            assert shared.n_text == seq.n + decoded
            for tok, (l1, l2) in zip((2, 9), branches):
                _, fresh = prefill(model, random_sequence(model, m=6, n=3, seed=46))
                for _ in range(decoded):
                    _, fresh = decode_step(model, fresh, first)
                f1, fresh = decode_step(model, fresh, model.token_table.data[tok])
                f2, _ = decode_step(model, fresh, model.token_table.data[tok + 1])
                assert np.array_equal(l1, f1) and np.array_equal(l2, f2)

    def test_decode_leaves_the_given_context_unchanged(self):
        model = build_model(small_config(), seed=47)
        _, ctx = prefill(model, random_sequence(model, m=4, n=2, seed=48))
        seen = [(c.text_k.copy(), c.text_v.copy()) for c in ctx.caches]
        _, nxt = decode_step(model, ctx, model.token_table.data[1])
        _, sibling = decode_step(model, ctx, model.token_table.data[2])
        for _ in range(5):  # past the first doubling of the text buffers
            _, nxt = decode_step(model, nxt, model.token_table.data[3])
        for (k, v), old, a, b in zip(seen, ctx.caches, nxt.caches, sibling.caches):
            assert np.array_equal(old.text_k, k) and np.array_equal(old.text_v, v)
            assert a.video_kv is old.video_kv and b.video_kv is old.video_kv
            assert a.text_k.shape[1] == 8 and b.text_k.shape[1] == 3
            assert np.array_equal(a.text_k[:, :2], k) and np.array_equal(b.text_k[:, :2], k)
            assert not np.array_equal(a.text_k[:, 2], b.text_k[:, 2])


class TestNonFiniteAttention:
    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    def test_nan_weight_makes_prefill_and_decode_raise(self, arch):
        model = build_model(small_config(arch=arch), seed=49)
        seq = random_sequence(model, m=4, n=3, seed=50)
        _, ctx = prefill(model, seq)
        w_v = model.layers[1].self_attn.w_v
        w_v.data = w_v.data.copy()
        w_v.data[0, 1] = np.nan  # as a checkpoint load can leave it
        with pytest.raises(ng.NumericError, match="attention.*query row 0"):
            prefill(model, seq)
        with pytest.raises(ng.NumericError, match="attention.*query row 0"):
            decode_step(model, ctx, model.token_table.data[1])


def layer_major_text_logits(model, seq):
    """The hybrid written layer by layer over whole streams: each layer's
    block over all video rows, its cross branch over all normed video rows,
    and the joined stream passed on (the order before the stack ran its
    video rows one group at a time through all layers)."""
    m, n = seq.m, seq.n
    x = seq.embeddings
    for layer in model.layers:
        x_v, x_t = ng.slice_rows(x, 0, m), ng.slice_rows(x, m, m + n)
        norm = layer.attn_norm
        v_out = ssm_mod.mamba_block_forward(layer.mamba, x_v)
        a_out = attn_mod.blended_text_update(
            layer.self_attn, layer.cross_attn, ng.sigmoid(layer.self_attn.alpha_raw),
            ng.layer_norm(x_v, norm.gain, norm.bias), ng.layer_norm(x_t, norm.gain, norm.bias))
        mid = ng.add(x_t, a_out)
        mlp_in = ng.layer_norm(mid, layer.mlp_norm.gain, layer.mlp_norm.bias)
        x = ng.concat_rows([v_out, ng.add(mid, mod._mlp_forward(layer.mlp, mlp_in))])
    h = ng.layer_norm(ng.slice_rows(x, m, m + n), model.final_norm.gain, model.final_norm.bias)
    return ng.matmul_t(h, model.token_table)


class TestGroupMajorStack:
    """The hybrid runs its video rows one group at a time through all
    layers; the values and gradients are those of the layer-major order."""

    M = 2 * ssm_mod.GROUP_ROWS + 37  # three groups, the last one partial

    def test_no_grad_prefill_peaks_near_its_video_cache(self):
        # no [M, d] array is built but the caches, so the peak above the
        # input is the caches plus one group's temporaries
        model = build_model(HybridStackConfig(), seed=0, mamba_out_std=0.02)
        seq = random_sequence(model, m=32768, n=64, seed=1)
        tracemalloc.start()
        try:
            _, ctx = prefill(model, seq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kv = sum(c.video_kv.k.nbytes + c.video_kv.v.nbytes for c in ctx.caches)
        assert peak <= 1.3 * kv, f"peak {peak / 2**20:.1f} MB, video cache {kv / 2**20:.1f} MB"

    @pytest.mark.parametrize("block", ["mamba2", "mamba1"])
    def test_logits_and_gradients_match_the_layer_major_order(self, block):
        cfg = small_config(block=block, d=16)
        model = build_model(cfg, seed=81, mamba_out_std=0.3)
        seq = random_sequence(model, m=self.M, n=5, seed=82)
        targets = ng.new_rng(83).integers(0, cfg.vocab_size, size=5)
        params = named_parameters(model)
        grads, logits = {}, {}
        for name, forward in (("stack", text_logits), ("layer_major", layer_major_text_logits)):
            for p in params.values():
                p.grad = None
            logits[name] = forward(model, seq)
            backward(training.lm_loss(logits[name], targets))
            grads[name] = {k: p.grad for k, p in params.items()}
        ref = logits["layer_major"].data
        assert np.max(np.abs(logits["stack"].data - ref)) <= 1e-12 * np.max(np.abs(ref))
        for k, g in grads["layer_major"].items():
            got = grads["stack"][k]
            assert np.max(np.abs(got - g)) <= 1e-12 * np.max(np.abs(g)), k
        # every block's parameters, the last layer's too, get a gradient,
        # which is zero where nothing reads the rows
        last = grads["stack"]["layers.1.mamba.w_out"]
        assert last is not None and not np.any(last)

    def test_decode_agrees_with_a_fresh_prefill(self):
        cfg = small_config(d=16)
        model = build_model(cfg, seed=84, mamba_out_std=0.3)
        rng = ng.new_rng(85)
        video = rng.standard_normal((self.M, cfg.d))
        ids = list(rng.integers(0, cfg.vocab_size, size=6))
        logits, ctx = prefill(model, make_sequence(model, video, np.array(ids)))
        for _ in range(4):
            ids.append(int(np.argmax(logits)))
            logits, ctx = decode_step(model, ctx, model.token_table.data[ids[-1]])
            fresh, _ = prefill(model, make_sequence(model, video, np.array(ids)))
            assert np.max(np.abs(logits - fresh)) < 1e-10


class TestNonFiniteFastPaths:
    """Each layer's text half and the logits are checked for non-finite
    values in prefill, decode and `text_logits`; the error names the layer
    and the stream position of the token."""

    @staticmethod
    def _overflow(t: Tensor) -> None:
        t.data = np.full_like(t.data, 1e308)  # finite, as a checkpoint may hold it

    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    def test_mlp_overflow_names_the_layer_and_token(self, arch):
        model = build_model(small_config(arch=arch), seed=86)
        seq = random_sequence(model, m=4, n=3, seed=87)
        _, ctx = prefill(model, seq)
        self._overflow(model.layers[1].mlp.w2)
        first = 4 if arch == ARCH_HYBRID else 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ng.NumericError, match=f"layer 1 text half: .* token {first}$"):
                prefill(model, seq)
            with pytest.raises(ng.NumericError, match=f"layer 1 text half: .* token {first}$"):
                text_logits(model, seq)
            with pytest.raises(ng.NumericError, match="layer 1 text half: .* token 7$"):
                decode_step(model, ctx, model.token_table.data[1])

    @pytest.mark.parametrize("arch", [ARCH_HYBRID, ARCH_BASELINE])
    def test_logit_overflow_names_the_token(self, arch):
        model = build_model(small_config(arch=arch), seed=88)
        seq = random_sequence(model, m=4, n=3, seed=89)
        _, ctx = prefill(model, seq)
        self._overflow(model.final_norm.gain)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ng.NumericError, match="logits: .* token 6$"):
                prefill(model, seq)
            with pytest.raises(ng.NumericError, match="logits: .* token 4$"):
                text_logits(model, seq)
            with pytest.raises(ng.NumericError, match="logits: .* token 7$"):
                decode_step(model, ctx, model.token_table.data[1])
