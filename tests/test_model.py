"""Tests for stack assembly, routing, prefill/decode, and checkpoints."""

import numpy as np
import pytest

from hybridseq import model as mod
from hybridseq import numerics as ng
from hybridseq import ssm as ssm_mod
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
    def test_video_first_enforced(self):
        emb = Tensor(np.zeros((3, 4)))
        with pytest.raises(ContractError):
            TokenSequence(embeddings=emb, roles=[1, 0, 1])

    def test_needs_text(self):
        with pytest.raises(ContractError):
            TokenSequence(embeddings=Tensor(np.zeros((2, 4))), roles=[0, 0])

    def test_counts(self):
        seq = TokenSequence(embeddings=Tensor(np.zeros((5, 4))), roles=[0, 0, 0, 1, 1])
        assert seq.m == 3 and seq.n == 2

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            HybridStackConfig(architecture="wat").validate()
        with pytest.raises(ConfigError):
            HybridStackConfig(d=10, n_heads=4).validate()
        with pytest.raises(ConfigError):
            HybridStackConfig(block_variant="mamba9").validate()


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
            out, _ = hybrid_layer_forward(layer, seq, None)
        assert np.array_equal(out.embeddings.data, seq.embeddings.data)

    def test_block_none_leaves_video_unchanged(self):
        cfg = small_config(block=BLOCK_NONE)
        model = build_model(cfg, seed=3)
        seq = random_sequence(model, m=5, n=3, seed=4)
        with ng.no_grad():
            out, _ = forward_hidden(model, seq)
        assert np.array_equal(out.embeddings.data[:5], seq.embeddings.data[:5])
        assert not np.array_equal(out.embeddings.data[5:], seq.embeddings.data[5:])

    def test_hybrid_layer_matches_hand_composition(self):
        cfg = small_config()
        model = build_model(cfg, seed=5, mamba_out_std=0.2)
        layer = model.layers[0]
        seq = random_sequence(model, m=4, n=3, seed=6)
        with ng.no_grad():
            out, _ = hybrid_layer_forward(layer, seq, None)

            x = seq.embeddings
            x_v, x_t = ng.slice_rows(x, 0, 4), ng.slice_rows(x, 4, 7)
            v_out, _ = ssm_mod.mamba_block_forward(layer.mamba, x_v, None)
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
        # the layer's single causal attention must agree with computing the
        # text rows through the explicit joint video+text path
        from hybridseq import attention as attn

        cfg = small_config(arch=ARCH_BASELINE)
        model = build_model(cfg, seed=9)
        layer = model.layers[0]
        seq = random_sequence(model, m=5, n=4, seed=10)
        x_ln = Tensor(
            mod._layer_norm_np(seq.embeddings.data, layer.attn_norm)
        )
        with ng.no_grad():
            joint = attn.causal_self_attention(layer.self_attn, x_ln)
            text_only = attn.joint_causal_attention_text(
                layer.self_attn, ng.slice_rows(x_ln, 0, 5), ng.slice_rows(x_ln, 5, 9)
            )
        assert np.max(np.abs(joint.data[5:] - text_only.data)) < 1e-12

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
