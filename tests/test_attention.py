"""Tests for self-, cross-, and blended attention paths."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hybridseq import attention as attn_mod
from hybridseq import numerics as ng
from hybridseq.attention import (
    AttentionParams,
    KVRows,
    blended_text_update,
    build_video_kv_cache,
    causal_self_attention,
    cross_attention,
    cross_attention_scores,
    init_attention_params,
    init_cross_from_self,
    joint_text_scores,
)
from hybridseq.numerics import ContractError, NumericError, Tensor, backward, finite_diff_grad
from hybridseq.profiler import _attention_flops


def rel_err(ad, fd):
    return float(np.max(np.abs(ad - fd) / (np.abs(fd) + 1e-8)))


def make_params(seed=0, d=4, n_heads=2, alpha_raw=0.0):
    return init_attention_params(ng.new_rng(seed), d, n_heads, alpha_raw)


def mha_tape(params, q_x, key_blocks, allowed_upto):
    """The oracle: multi-head attention composed of tensor primitives.

    `key_blocks` is a list of [L_i, d] tensors whose concatenation forms the
    key/value source; scores are computed block by block, head by head, and
    query row i sees key columns 0..allowed_upto[i].
    """
    dh = params.head_dim
    scale = 1.0 / math.sqrt(dh)
    lk_total = sum(b.shape[0] for b in key_blocks)
    mask = np.arange(lk_total)[None, :] <= allowed_upto[:, None]

    q_full = ng.matmul(q_x, params.w_q)
    k_full = [ng.matmul(b, params.w_k) for b in key_blocks]
    v_full = [ng.matmul(b, params.w_v) for b in key_blocks]

    head_outs = []
    for h in range(params.n_heads):
        lo, hi = h * dh, (h + 1) * dh
        q_h = ng.slice_cols(q_full, lo, hi)
        score_blocks = [
            ng.matmul(q_h, ng.permute(ng.slice_cols(k, lo, hi), (1, 0))) for k in k_full
        ]
        scores = ng.mul(
            score_blocks[0] if len(score_blocks) == 1 else ng.concat_cols(score_blocks),
            scale,
        )
        probs = ng.softmax_rows(scores, mask=None if mask.all() else mask)
        v_h = (
            ng.slice_cols(v_full[0], lo, hi)
            if len(v_full) == 1
            else ng.concat_rows([ng.slice_cols(v, lo, hi) for v in v_full])
        )
        head_outs.append(ng.matmul(probs, v_h))
    merged = head_outs[0] if len(head_outs) == 1 else ng.concat_cols(head_outs)
    return ng.matmul(merged, params.w_o)


def joint_text_rows(params, video, text):
    """The baseline's text path: causal self-attention over the video-first
    joint stream, read at its text rows, so text token j attends over all
    video tokens plus text tokens 1..j."""
    m = video.shape[0]
    out = causal_self_attention(params, ng.concat_rows([video, text]))
    return ng.slice_rows(out, m, m + text.shape[0])


def kernel_against_tape(p, run, oracle, *arrays):
    """Run the public op `run` without grad and recorded, and the tape
    composition `oracle` recorded, on tensors of `arrays`.  The two kernel
    runs agree bit for bit; the kernel agrees with the tape within 1e-13 in
    its output and within 1e-12 in the gradients of every input and weight."""
    with ng.no_grad():
        fast = run(*(Tensor(a) for a in arrays)).data
    w = Tensor(ng.new_rng(999).standard_normal(fast.shape))
    weights = (p.w_q, p.w_k, p.w_v, p.w_o)
    results = []
    for f in (run, oracle):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = f(*inputs)
        backward(ng.tsum(ng.mul(out, w)))
        results.append((out.data, [t.grad for t in (*inputs, *weights)]))
    (recorded, g_kernel), (taped, g_tape) = results
    assert np.array_equal(fast, recorded)
    assert np.max(np.abs(recorded - taped)) < 1e-13
    for a, b in zip(g_kernel, g_tape):
        assert np.max(np.abs(a - b)) < 1e-12


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
        x = ng.new_rng(6).standard_normal((10, 4))
        kernel_against_tape(p, lambda t: causal_self_attention(p, t),
                            lambda t: mha_tape(p, t, [t], np.arange(10)), x)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_cache_of_earlier_rows_matches_the_whole_stream(self, rows):
        # a cache whose last rows are x's keys and values: x's rows attend
        # over it up to themselves, as in one call over the whole stream
        p = make_params(seed=6, d=8, n_heads=2)
        x = Tensor(ng.new_rng(7).standard_normal((10, 8)))
        k, v = attn_mod.key_value_heads(p, x)
        cache = SimpleNamespace(text_k=k, text_v=v, n=10)
        with ng.no_grad():
            whole = causal_self_attention(p, x)
            with ng.count_flops() as meter:
                tail = causal_self_attention(p, ng.slice_rows(x, 10 - rows, 10), cache)
        assert np.max(np.abs(tail.data - whole.data[-rows:])) < 1e-13
        # no key or value projection: the query and output products, the kernel
        assert meter.total == _attention_flops(rows, 10, 8, 2) - 2 * 2 * 10 * 8 * 8


class TestJointCausalAttentionText:
    def test_m0_equals_self_attention(self):
        p = make_params(seed=7)
        rng = ng.new_rng(8)
        text = Tensor(rng.standard_normal((5, 4)))
        video = Tensor(np.zeros((0, 4)))
        with ng.no_grad():
            joint = joint_text_rows(p, video, text)
            self_o = causal_self_attention(p, text)
            taped = mha_tape(p, text, [video, text], np.arange(5))
        assert np.array_equal(joint.data, self_o.data)
        assert np.max(np.abs(joint.data - taped.data)) < 1e-13

    def test_zero_text_key_closed_form(self):
        # one text token whose key is zero: mass splits by softmax over the
        # two video logits and a zero self logit.
        p = make_params(seed=9, d=4, n_heads=1)
        rng = ng.new_rng(10)
        video = rng.standard_normal((2, 4))
        p.w_k.data[:] = np.eye(4)  # keys = raw tokens
        with ng.no_grad():
            out = joint_text_rows(p, Tensor(video), Tensor(np.zeros((1, 4))))
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
            y1 = joint_text_rows(p, Tensor(video), Tensor(text))
            y2 = joint_text_rows(p, Tensor(video), Tensor(t_perturbed))
        assert np.array_equal(y1.data[:2], y2.data[:2])

        v_perturbed = video.copy()
        v_perturbed[5] += 2.0  # last video token is visible to every text token
        with ng.no_grad():
            y3 = joint_text_rows(p, Tensor(v_perturbed), Tensor(text))
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
                KVRows.empty(p, 0),
            )

    def test_append_past_capacity_raises(self):
        p = make_params(seed=22)
        k, v = attn_mod.key_value_heads(p, Tensor(ng.new_rng(23).standard_normal((3, 4))))
        rows = KVRows.empty(p, 4)
        rows.append(k, v)
        with pytest.raises(ContractError, match="capacity of 4"):
            rows.append(k, v)
        assert rows.filled == 3
        rows.append(k[:, :1], v[:, :1])
        assert rows.filled == rows.capacity == 4

    def test_cross_attention_reads_only_the_written_rows(self):
        p = make_params(seed=24)
        rng = ng.new_rng(25)
        video, text = rng.standard_normal((5, 4)), rng.standard_normal((3, 4))
        rows = KVRows.empty(p, 8)
        rows.append(*attn_mod.key_value_heads(p, Tensor(video)))
        with ng.no_grad():
            via_rows = cross_attention(p, Tensor(text), rows)
            inline = cross_attention(p, Tensor(text), Tensor(video))
        assert np.max(np.abs(via_rows.data - inline.data)) < 1e-13

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
        pc = init_cross_from_self(ps)
        rng = ng.new_rng(64)
        text = Tensor(rng.standard_normal((4, 4)))
        video = Tensor(rng.standard_normal((3, 4)))
        with ng.no_grad():
            joint = joint_text_rows(ps, Tensor(np.zeros((0, 4))), text)
            blend = blended_text_update(ps, pc, 1.0, video, text)
        assert np.array_equal(joint.data, blend.data)


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
            return joint_text_rows(ps, video_t, text_t)
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


class TestAttendCore:
    @pytest.mark.parametrize("lq", TILE_LQ)
    def test_causal_matches_tape(self, monkeypatch, lq):
        p = make_params(seed=140, d=8, n_heads=2)
        force_tile(monkeypatch, 2, lq)
        x = ng.new_rng(141).standard_normal((lq, 8))
        kernel_against_tape(p, lambda t: causal_self_attention(p, t),
                            lambda t: mha_tape(p, t, [t], np.arange(lq)), x)

    @pytest.mark.parametrize("lq", TILE_LQ)
    def test_joint_matches_tape(self, monkeypatch, lq):
        p = make_params(seed=142, d=8, n_heads=2)
        m = 7
        force_tile(monkeypatch, 2, m + lq)
        rng = ng.new_rng(143)
        video, text = rng.standard_normal((m, 8)), rng.standard_normal((lq, 8))
        kernel_against_tape(p, lambda v, t: joint_text_rows(p, v, t),
                            lambda v, t: mha_tape(p, t, [v, t], m + np.arange(lq)),
                            video, text)

    @pytest.mark.parametrize("lq", TILE_LQ)
    def test_cross_matches_tape(self, monkeypatch, lq):
        p = make_params(seed=144, d=8, n_heads=2)
        m = 9
        force_tile(monkeypatch, 2, m)
        rng = ng.new_rng(145)
        video, text = rng.standard_normal((m, 8)), rng.standard_normal((lq, 8))
        kernel_against_tape(p, lambda v, t: cross_attention(p, t, v),
                            lambda v, t: mha_tape(p, t, [v], np.full(lq, m - 1)),
                            video, text)

    @pytest.mark.parametrize("seed", range(3))
    def test_non_monotone_allowed_matches_tape(self, monkeypatch, seed):
        p = make_params(seed=146 + seed, d=8, n_heads=2)
        rng = ng.new_rng(150 + seed)
        lq, lk = 2 * TILE + 1, 12
        force_tile(monkeypatch, 2, lk)
        q, keys = rng.standard_normal((lq, 8)), rng.standard_normal((lk, 8))
        allowed = rng.integers(0, lk, size=lq)
        assert np.any(np.diff(allowed) < 0)
        kernel_against_tape(p, lambda a, b: attn_mod._mha(p, a, attn_mod.key_value_rows(p, b),
                                                          allowed, "test"),
                            lambda a, b: mha_tape(p, a, [b], allowed), q, keys)

    @pytest.mark.parametrize("seed", range(3))
    def test_band_mask_equals_the_boolean_index_form(self, seed):
        # the kernel masks the band with np.copyto(where=); the boolean
        # fancy-index assignment it replaced must give the same bits
        rng = ng.new_rng(160 + seed)
        nh, lq, lk, dh = 3, 9, 14, 4
        qh, kh, vh = (rng.standard_normal((nh, n, dh)) for n in (lq, lk, lk))
        allowed = rng.integers(2, lk, size=lq)
        assert np.any(np.diff(allowed) < 0)
        s = np.matmul(qh, kh.transpose(0, 2, 1)) * (1.0 / math.sqrt(dh))
        first, last = int(allowed.min()) + 1, int(allowed.max()) + 1
        s[:, :, last:] = -np.inf
        band = s[:, :, first:last]
        band[:, np.arange(first, last)[None] > allowed[:, None]] = -np.inf
        s = np.exp(s - s.max(axis=2, keepdims=True))
        s /= s.sum(axis=2, keepdims=True)
        ref = np.matmul(s, vh).transpose(1, 0, 2).reshape(lq, nh * dh)
        out = attn_mod._attend(qh, kh.transpose(0, 2, 1), vh, allowed, "test")
        assert np.array_equal(out, ref)

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
        with ng.no_grad():
            inline = cross_attention(p, Tensor(x_ln[-1:]), Tensor(x_ln))
            causal_last = attn_mod._mha(p, Tensor(x_ln[-1:]),
                                        attn_mod.key_value_rows(p, Tensor(x_ln)),
                                        np.array([29]), "test")
            branch = attn_mod._mha(p, Tensor(x_ln[-1:]), (cache.k, cache.v),
                                   np.array([29]), "test")
        assert np.array_equal(branch.data, inline.data)
        assert np.array_equal(branch.data, causal_last.data)

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
                joint_text_rows(p, video, text)
            else:
                cross_attention(p, text, video)
        # the joint stream's video rows are queries too
        lq, lk = {"self": (n, n), "joint": (m + n, m + n), "cross": (n, m)}[path]
        assert meter.total == _attention_flops(lq, lk, d, h)

    @pytest.mark.parametrize("path", ["self", "joint", "cross"])
    def test_one_recorded_call_adds_a_fixed_number_of_nodes(self, path):
        # three projections, the attention op and the output projection
        # (plus the joint path's stream concatenation and text-row slice),
        # whatever the number of heads or rows
        counts = []
        for h, n in ((2, 3), (4, 9)):
            p = make_params(seed=170, d=8, n_heads=h)
            rng = ng.new_rng(171)
            video = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
            text = Tensor(rng.standard_normal((n, 8)), requires_grad=True)
            if path == "self":
                out = causal_self_attention(p, text)
            elif path == "joint":
                out = joint_text_rows(p, video, text)
            else:
                out = cross_attention(p, text, video)
            counts.append(sum(t._vjp is not None for t in ng.GradTape(out).nodes))
        assert counts == [7 if path == "joint" else 5] * 2

    def test_cached_keys_and_values_are_constants_under_grad(self):
        # a cache's head arrays: the same output as the projected rows, and
        # the query's gradient, with no parent for the cache
        rng = ng.new_rng(173)
        q = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        k, v = (Tensor(rng.standard_normal((5, 8))) for _ in range(2))
        allowed = np.array([2, 3, 4])
        inline = attn_mod._attention(q, k, v, 2, allowed, "test")
        cached = attn_mod._attention(q, attn_mod._heads(k.data, 2), attn_mod._heads(v.data, 2),
                                     2, allowed, "test")
        assert cached._parents == (q,)
        assert np.array_equal(cached.data, inline.data)
        g = rng.standard_normal((3, 8))
        assert np.array_equal(cached._vjp(g)[0], inline._vjp(g)[0])

    @pytest.mark.parametrize("which", range(3))
    def test_vjp_returns_none_for_operands_without_grad(self, which):
        rng = ng.new_rng(172)
        qkv = [Tensor(rng.standard_normal((l, 8))) for l in (3, 5, 5)]
        qkv[which].requires_grad = True
        out = attn_mod._attention(*qkv, 2, np.full(3, 4), "test")
        grads = out._vjp(rng.standard_normal((3, 8)))
        assert [g is not None for g in grads] == [i == which for i in range(3)]
        assert grads[which].shape == qkv[which].shape

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
