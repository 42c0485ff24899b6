"""Tests for self-, cross-, and blended attention paths."""

import math
import tracemalloc

import numpy as np
import pytest

from hybridseq import attention as attn_mod
from hybridseq import numerics as ng
from hybridseq.attention import (
    AttentionParams,
    VideoKVCache,
    blended_text_update,
    build_video_kv_cache,
    causal_self_attention,
    cross_attention,
    cross_attention_scores,
    init_attention_params,
    init_cross_from_self,
    joint_causal_attention_text,
    joint_text_scores,
)
from hybridseq.numerics import ContractError, NumericError, Tensor, backward, finite_diff_grad
from hybridseq.profiler import _attention_flops


def rel_err(ad, fd):
    return float(np.max(np.abs(ad - fd) / (np.abs(fd) + 1e-8)))


def make_params(seed=0, d=4, n_heads=2, alpha_raw=0.0):
    return init_attention_params(ng.new_rng(seed), d, n_heads, alpha_raw)


class TestCausalSelfAttention:
    def test_single_token(self):
        p = make_params(d=4, n_heads=2)
        rng = ng.new_rng(1)
        x = rng.standard_normal((1, 4))
        with ng.no_grad():
            out = causal_self_attention(p, Tensor(x))
        expect = (x @ p.w_v.data) @ p.w_o.data
        assert np.allclose(out.data, expect, atol=1e-14)

    def test_causal_mask_prefix_invariance(self):
        p = make_params(seed=2)
        rng = ng.new_rng(3)
        x = rng.standard_normal((8, 4))
        x2 = x.copy()
        x2[5] += 2.0
        with ng.no_grad():
            y1 = causal_self_attention(p, Tensor(x))
            y2 = causal_self_attention(p, Tensor(x2))
        assert np.array_equal(y1.data[:5], y2.data[:5])
        assert not np.array_equal(y1.data[5:], y2.data[5:])

    def test_hand_unrolled_two_tokens_one_head(self):
        rng = ng.new_rng(4)
        wq, wk, wv, wo = (rng.standard_normal((2, 2)) for _ in range(4))
        p = AttentionParams(
            w_q=Tensor(wq), w_k=Tensor(wk), w_v=Tensor(wv), w_o=Tensor(wo),
            n_heads=1, alpha_raw=Tensor(0.0),
        )
        x = rng.standard_normal((2, 2))
        with ng.no_grad():
            out = causal_self_attention(p, Tensor(x))

        q, k, v = x @ wq, x @ wk, x @ wv
        scale = 1.0 / math.sqrt(2.0)
        # token 0: weight 1 on itself
        row0 = v[0] @ wo
        # token 1: softmax over both positions
        logits = np.array([q[1] @ k[0], q[1] @ k[1]]) * scale
        w = np.exp(logits - logits.max())
        w /= w.sum()
        row1 = (w[0] * v[0] + w[1] * v[1]) @ wo
        assert np.allclose(out.data, np.stack([row0, row1]), atol=1e-14)

    def test_tape_matches_fast_path(self):
        p = make_params(seed=5)
        rng = ng.new_rng(6)
        x = rng.standard_normal((10, 4))
        with ng.no_grad():
            fast = causal_self_attention(p, Tensor(x))
        taped = causal_self_attention(p, Tensor(x, requires_grad=True))
        assert np.max(np.abs(fast.data - taped.data)) < 1e-13


class TestJointCausalAttentionText:
    def test_m0_equals_self_attention(self):
        p = make_params(seed=7)
        rng = ng.new_rng(8)
        text = rng.standard_normal((5, 4))
        with ng.no_grad():
            joint = joint_causal_attention_text(p, Tensor(np.zeros((0, 4))), Tensor(text))
            self_o = causal_self_attention(p, Tensor(text))
        assert np.array_equal(joint.data, self_o.data)

    def test_zero_text_key_closed_form(self):
        # one text token whose key is zero: mass splits by softmax over the
        # two video logits and a zero self logit.
        p = make_params(seed=9, d=4, n_heads=1)
        rng = ng.new_rng(10)
        video = rng.standard_normal((2, 4))
        p.w_k.data[:] = np.eye(4)  # keys = raw tokens
        with ng.no_grad():
            out = joint_causal_attention_text(
                p, Tensor(video), Tensor(np.zeros((1, 4)))
            )
        q = np.zeros((1, 4)) @ p.w_q.data
        logits = np.concatenate([(q @ video.T)[0], [0.0]]) / 2.0  # sqrt(d)=2
        w = np.exp(logits - logits.max())
        w /= w.sum()
        v = np.concatenate([video, np.zeros((1, 4))]) @ p.w_v.data
        expect = (w @ v) @ p.w_o.data
        assert np.allclose(out.data[0], expect, atol=1e-14)

    def test_text_causality_and_full_video_visibility(self):
        p = make_params(seed=11)
        rng = ng.new_rng(12)
        video = rng.standard_normal((6, 4))
        text = rng.standard_normal((4, 4))
        t_perturbed = text.copy()
        t_perturbed[2] -= 1.5
        with ng.no_grad():
            y1 = joint_causal_attention_text(p, Tensor(video), Tensor(text))
            y2 = joint_causal_attention_text(p, Tensor(video), Tensor(t_perturbed))
        assert np.array_equal(y1.data[:2], y2.data[:2])

        v_perturbed = video.copy()
        v_perturbed[5] += 2.0  # last video token is visible to every text token
        with ng.no_grad():
            y3 = joint_causal_attention_text(p, Tensor(v_perturbed), Tensor(text))
        assert np.all(np.any(y3.data != y1.data, axis=1))


class TestCrossAttention:
    def test_single_video_token(self):
        p = make_params(seed=13)
        rng = ng.new_rng(14)
        video = rng.standard_normal((1, 4))
        text = rng.standard_normal((3, 4))
        with ng.no_grad():
            out = cross_attention(p, Tensor(text), Tensor(video))
        expect = np.broadcast_to((video @ p.w_v.data) @ p.w_o.data, (3, 4))
        assert np.allclose(out.data, expect, atol=1e-14)

    def test_duplicate_video_tokens_invariant(self):
        p = make_params(seed=15)
        rng = ng.new_rng(16)
        video = rng.standard_normal((4, 4))
        text = rng.standard_normal((2, 4))
        with ng.no_grad():
            once = cross_attention(p, Tensor(text), Tensor(video))
            twice = cross_attention(
                p, Tensor(text), Tensor(np.concatenate([video, video]))
            )
        assert np.max(np.abs(once.data - twice.data)) < 1e-12

    def test_zero_output_projection(self):
        p = make_params(seed=17)
        p.w_o.data[:] = 0.0
        rng = ng.new_rng(18)
        with ng.no_grad():
            out = cross_attention(
                p, Tensor(rng.standard_normal((2, 4))), Tensor(rng.standard_normal((3, 4)))
            )
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_empty_video_contract(self):
        p = make_params(seed=19)
        with pytest.raises(ContractError):
            cross_attention(p, Tensor(np.ones((2, 4))), Tensor(np.zeros((0, 4))))
        with pytest.raises(ContractError):
            cross_attention(
                p,
                Tensor(np.ones((2, 4))),
                VideoKVCache(k=np.zeros((2, 0, 2)), v=np.zeros((2, 0, 2))),
            )

    def test_cache_matches_inline(self):
        p = make_params(seed=20)
        rng = ng.new_rng(21)
        video = rng.standard_normal((5, 4))
        text = rng.standard_normal((3, 4))
        cache = build_video_kv_cache(p, Tensor(video))
        with ng.no_grad():
            via_cache = cross_attention(p, Tensor(text), cache)
            inline = cross_attention(p, Tensor(text), Tensor(video))
        assert np.max(np.abs(via_cache.data - inline.data)) < 1e-13

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_equivariance(self, seed):
        p = make_params(seed=seed + 30)
        rng = ng.new_rng(seed + 40)
        video = rng.standard_normal((6, 4))
        text = rng.standard_normal((2, 4))
        perm = rng.permutation(6)
        with ng.no_grad():
            a = cross_attention(p, Tensor(text), Tensor(video))
            b = cross_attention(p, Tensor(text), Tensor(video[perm]))
        assert np.max(np.abs(a.data - b.data)) < 1e-12


class TestBlendedUpdate:
    def setup_method(self):
        self.ps = make_params(seed=50)
        self.pc = make_params(seed=51)
        rng = ng.new_rng(52)
        self.video = Tensor(rng.standard_normal((5, 4)))
        self.text = Tensor(rng.standard_normal((3, 4)))

    def test_alpha_zero_is_cross(self):
        with ng.no_grad():
            blended = blended_text_update(self.ps, self.pc, 0.0, self.video, self.text)
            cross = cross_attention(self.pc, self.text, self.video)
        assert np.array_equal(blended.data, cross.data)

    def test_alpha_one_is_self(self):
        with ng.no_grad():
            blended = blended_text_update(self.ps, self.pc, 1.0, self.video, self.text)
            self_o = causal_self_attention(self.ps, self.text)
        assert np.array_equal(blended.data, self_o.data)

    def test_alpha_half_is_mean_of_branches(self):
        rng = ng.new_rng(53)
        video = Tensor(rng.standard_normal((2, 4)))
        text = Tensor(rng.standard_normal((1, 4)))
        with ng.no_grad():
            blended = blended_text_update(self.ps, self.pc, 0.5, video, text)
            cross = cross_attention(self.pc, text, video)
            self_o = causal_self_attention(self.ps, text)
        assert np.allclose(blended.data, 0.5 * (cross.data + self_o.data), atol=1e-15)

    def test_contracts(self):
        with pytest.raises(ContractError):
            blended_text_update(self.ps, self.pc, 0.5, Tensor(np.zeros((0, 4))), self.text)


class TestWeightTransfer:
    def test_logit_equality_is_bit_exact(self):
        ps = make_params(seed=60)
        pc = init_cross_from_self(ps)
        rng = ng.new_rng(61)
        video = Tensor(rng.standard_normal((7, 4)))
        text = Tensor(rng.standard_normal((3, 4)))
        cross = cross_attention_scores(pc, text, video)
        joint = joint_text_scores(ps, video, text)
        assert np.array_equal(cross, joint[:, :, :7])

    def test_copy_semantics(self):
        ps = make_params(seed=62)
        pc = init_cross_from_self(ps)
        before = ps.w_q.data.copy()
        pc.w_q.data[:] = 99.0
        assert np.array_equal(ps.w_q.data, before)

    def test_alpha_one_m0_matches_baseline(self):
        # with no video tokens the baseline joint path degenerates to causal
        # self-attention, which equals the blend's alpha=1 endpoint.
        ps = make_params(seed=63)
        rng = ng.new_rng(64)
        text = Tensor(rng.standard_normal((4, 4)))
        with ng.no_grad():
            joint = joint_causal_attention_text(ps, Tensor(np.zeros((0, 4))), text)
            self_o = causal_self_attention(ps, text)
        assert np.array_equal(joint.data, self_o.data)


GRAD_CASES = ["self", "joint", "cross", "blend"]


@pytest.mark.parametrize("path", GRAD_CASES)
@pytest.mark.parametrize("seed", range(5))
def test_gradients_vs_finite_differences(path, seed):
    ps = make_params(seed=seed + 70)
    pc = make_params(seed=seed + 80)
    rng = ng.new_rng(seed + 90)
    video0 = rng.standard_normal((4, 4))
    text0 = rng.standard_normal((3, 4))
    w = Tensor(rng.standard_normal((3, 4)))

    def run(video_t, text_t):
        if path == "self":
            return causal_self_attention(ps, text_t)
        if path == "joint":
            return joint_causal_attention_text(ps, video_t, text_t)
        if path == "cross":
            return cross_attention(pc, text_t, video_t)
        alpha = ng.sigmoid(ps.alpha_raw)
        return blended_text_update(ps, pc, alpha, video_t, text_t)

    text = Tensor(text0, requires_grad=True)
    video = Tensor(video0, requires_grad=True)
    loss = ng.tsum(ng.mul(run(video, text), w))
    backward(loss)

    fd_text = finite_diff_grad(
        lambda t: ng.tsum(ng.mul(run(Tensor(video0), t), w)), Tensor(text0)
    )
    assert rel_err(text.grad, fd_text) < 1e-4
    if path != "self":
        fd_video = finite_diff_grad(
            lambda t: ng.tsum(ng.mul(run(t, Tensor(text0)), w)), Tensor(video0)
        )
        assert rel_err(video.grad, fd_video) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_alpha_raw_gradient(seed):
    ps = make_params(seed=seed + 100)
    pc = make_params(seed=seed + 110)
    rng = ng.new_rng(seed + 120)
    video = Tensor(rng.standard_normal((4, 4)))
    text = Tensor(rng.standard_normal((2, 4)))
    w = Tensor(rng.standard_normal((2, 4)))

    loss = ng.tsum(
        ng.mul(blended_text_update(ps, pc, ng.sigmoid(ps.alpha_raw), video, text), w)
    )
    backward(loss)

    def f(t):
        return ng.tsum(
            ng.mul(blended_text_update(ps, pc, ng.sigmoid(t), video, text), w)
        )

    fd = finite_diff_grad(f, ps.alpha_raw.detach())
    assert rel_err(ps.alpha_raw.grad, fd) < 1e-4


def test_blended_flops_affine_in_m():
    """Counted FLOPs of the blended path grow linearly in M at fixed N."""
    ps = make_params(seed=130, d=8, n_heads=2)
    pc = make_params(seed=131, d=8, n_heads=2)
    rng = ng.new_rng(132)
    text = Tensor(rng.standard_normal((4, 8)))
    sizes = [64, 128, 256, 512, 1024]
    costs = []
    for m in sizes:
        video = Tensor(rng.standard_normal((m, 8)))
        with ng.no_grad(), ng.count_flops() as meter:
            blended_text_update(ps, pc, 0.5, video, text)
        costs.append(meter.total)
    slope = np.polyfit(np.log(sizes), np.log(costs), 1)[0]
    assert 0.85 < slope < 1.1
    # successive differences per unit M are constant for an affine law
    d1 = (costs[1] - costs[0]) / (sizes[1] - sizes[0])
    d2 = (costs[4] - costs[3]) / (sizes[4] - sizes[3])
    assert abs(d1 - d2) / d2 < 0.05


# --------------------------------------------------------------------------
# The no-grad kernel `_attend` against the tape oracle
# --------------------------------------------------------------------------

TILE = 5  # query rows per tile, forced through SCORE_BUDGET
TILE_LQ = [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1]


def force_tile(monkeypatch, n_heads, lk, rows=TILE):
    monkeypatch.setattr(attn_mod, "SCORE_BUDGET", n_heads * lk * rows)


def fast_and_tape(run, *arrays):
    with ng.no_grad():
        fast = run(*(Tensor(a) for a in arrays))
    taped = run(*(Tensor(a, requires_grad=True) for a in arrays))
    return fast.data, taped.data


class TestAttendCore:
    @pytest.mark.parametrize("lq", TILE_LQ)
    def test_causal_matches_tape(self, monkeypatch, lq):
        p = make_params(seed=140, d=8, n_heads=2)
        force_tile(monkeypatch, 2, lq)
        x = ng.new_rng(141).standard_normal((lq, 8))
        fast, taped = fast_and_tape(lambda t: causal_self_attention(p, t), x)
        assert np.max(np.abs(fast - taped)) < 1e-13

    @pytest.mark.parametrize("lq", TILE_LQ)
    def test_joint_matches_tape(self, monkeypatch, lq):
        p = make_params(seed=142, d=8, n_heads=2)
        m = 7
        force_tile(monkeypatch, 2, m + lq)
        rng = ng.new_rng(143)
        video, text = rng.standard_normal((m, 8)), rng.standard_normal((lq, 8))
        fast, taped = fast_and_tape(
            lambda v, t: joint_causal_attention_text(p, v, t), video, text
        )
        assert np.max(np.abs(fast - taped)) < 1e-13

    @pytest.mark.parametrize("lq", TILE_LQ)
    def test_cross_matches_tape(self, monkeypatch, lq):
        p = make_params(seed=144, d=8, n_heads=2)
        m = 9
        force_tile(monkeypatch, 2, m)
        rng = ng.new_rng(145)
        video, text = rng.standard_normal((m, 8)), rng.standard_normal((lq, 8))
        fast, taped = fast_and_tape(lambda v, t: cross_attention(p, t, v), video, text)
        assert np.max(np.abs(fast - taped)) < 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_non_monotone_allowed_matches_tape(self, monkeypatch, seed):
        p = make_params(seed=146 + seed, d=8, n_heads=2)
        rng = ng.new_rng(150 + seed)
        lq, lk = 2 * TILE + 1, 12
        force_tile(monkeypatch, 2, lk)
        q, keys = rng.standard_normal((lq, 8)), rng.standard_normal((lk, 8))
        allowed = rng.integers(0, lk, size=lq)
        assert np.any(np.diff(allowed) < 0)
        with ng.no_grad():
            fast = attn_mod._mha_fast(p, Tensor(q), [Tensor(keys)], allowed, "test")
        taped = attn_mod._mha_tape(p, Tensor(q, requires_grad=True),
                                   [Tensor(keys, requires_grad=True)], allowed)
        assert np.max(np.abs(fast.data - taped.data)) < 1e-13

    @pytest.mark.parametrize("perturbed", [2 * TILE, TILE + 2])
    def test_prefix_invariance_across_tiles(self, monkeypatch, perturbed):
        # the perturbed row lies in a later tile than the checked rows, or
        # in the same tile as the last few of them
        p = make_params(seed=155, d=8, n_heads=2)
        lq = 3 * TILE
        force_tile(monkeypatch, 2, lq)
        x = ng.new_rng(156).standard_normal((lq, 8))
        x2 = x.copy()
        x2[perturbed] += 1.5
        with ng.no_grad():
            y1 = causal_self_attention(p, Tensor(x)).data
            y2 = causal_self_attention(p, Tensor(x2)).data
        assert np.array_equal(y1[:perturbed], y2[:perturbed])
        assert not np.array_equal(y1[perturbed:], y2[perturbed:])

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_decode_cross_branch_equals_inline(self, n_rows):
        p = make_params(seed=157, d=16, n_heads=4)
        rng = ng.new_rng(158)
        video, text = rng.standard_normal((40, 16)), rng.standard_normal((n_rows, 16))
        cache = build_video_kv_cache(p, Tensor(video))
        with ng.no_grad():
            via_cache = cross_attention(p, Tensor(text), cache)
            inline = cross_attention(p, Tensor(text), Tensor(video))
        assert np.array_equal(via_cache.data, inline.data)

    def test_decode_self_branch_equals_inline(self):
        # the decode self branch: the newest row against every cached key
        p = make_params(seed=159, d=16, n_heads=4)
        x_ln = ng.new_rng(160).standard_normal((30, 16))
        cache = build_video_kv_cache(p, Tensor(x_ln))
        branch = attn_mod.attend_cached(p, x_ln[-1:], cache.k, cache.v, "test")
        with ng.no_grad():
            inline = cross_attention(p, Tensor(x_ln[-1:]), Tensor(x_ln))
            causal_last = attn_mod._mha_fast(p, Tensor(x_ln[-1:]), [Tensor(x_ln)],
                                             np.array([29]), "test")
        assert np.array_equal(branch, inline.data)
        assert np.array_equal(branch, causal_last.data)

    @pytest.mark.parametrize("path", ["self", "joint", "cross"])
    def test_metered_flops_equal_closed_form(self, monkeypatch, path):
        d, h, m, n = 16, 4, 13, 2 * TILE + 1
        p = make_params(seed=161, d=d, n_heads=h)
        force_tile(monkeypatch, h, m + n)
        rng = ng.new_rng(162)
        video, text = Tensor(rng.standard_normal((m, d))), Tensor(rng.standard_normal((n, d)))
        with ng.no_grad(), ng.count_flops() as meter:
            if path == "self":
                causal_self_attention(p, text)
            elif path == "joint":
                joint_causal_attention_text(p, video, text)
            else:
                cross_attention(p, text, video)
        lk = {"self": n, "joint": m + n, "cross": m}[path]
        assert meter.total == _attention_flops(n, lk, d, h)

    def test_causal_peak_memory_bounded(self):
        p = make_params(seed=163, d=64, n_heads=4)
        x = Tensor(ng.new_rng(164).standard_normal((4096, 64)))
        tracemalloc.start()
        try:
            with ng.no_grad():
                causal_self_attention(p, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_non_finite_output_names_component_and_row(self):
        p = make_params(seed=165, d=8, n_heads=2)
        x = ng.new_rng(166).standard_normal((6, 8))
        q = x @ p.w_q.data
        k = x @ p.w_k.data
        v = x @ p.w_v.data
        q[3, 1] = np.inf  # a bad query spoils its own row only
        with pytest.raises(NumericError, match="causal self-attention.*query row 3"), \
                np.errstate(invalid="ignore"):
            attn_mod._attend(attn_mod._heads(q, 2), attn_mod._heads(k, 2).transpose(0, 2, 1),
                             attn_mod._heads(v, 2), np.arange(6), "causal self-attention")

    def test_nan_weight_raises_instead_of_nan_output(self):
        p = make_params(seed=167, d=8, n_heads=2)
        p.w_v.data = p.w_v.data.copy()
        p.w_v.data[2, 3] = np.nan  # as a checkpoint load can leave it
        text = Tensor(ng.new_rng(168).standard_normal((3, 8)))
        with ng.no_grad():
            with pytest.raises(NumericError, match="causal self-attention.*query row 0"):
                causal_self_attention(p, text)
            with pytest.raises(NumericError, match="cross-attention.*query row 0"):
                cross_attention(p, text, build_video_kv_cache(p, text))
