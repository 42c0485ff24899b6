"""Tests for discretization, selective scans, and the state-space block."""

import math
import tracemalloc

import numpy as np
import pytest

from hybridseq import numerics as ng
from hybridseq import ssm
from hybridseq.numerics import ContractError, NumericError, Tensor, backward, finite_diff_grad
from hybridseq.ssm import (
    MAMBA1,
    MAMBA2,
    SSD_CHUNK,
    SSMParams,
    hippo_init,
    init_ssm_params,
    linear_recurrence,
    mamba_block_forward,
    scan_chunked_ssd,
    scan_sequential,
    zoh_discretize,
)


def rel_err(ad, fd):
    return float(np.max(np.abs(ad - fd) / (np.abs(fd) + 1e-8)))


def make_params(variant, d_model=4, seed=0, out_std=0.3, **kw):
    rng = ng.new_rng(seed)
    p = init_ssm_params(rng, d_model, variant, out_init_std=out_std, **kw)
    return p


def a_neg_of(p):
    return ssm._scan_start(p)[0]


def sequential_in_pieces(p, x, cuts):
    """`_sequential_rows` over x cut at `cuts`, each piece starting from the
    state the piece before left, as the block hands it from group to group.
    Returns (y, end state)."""
    s, ys = ssm._scan_start(p)[1], []
    edges = [0, *cuts, x.shape[0]]
    for lo, hi in zip(edges, edges[1:]):
        y, s = ssm._sequential_rows(p, a_neg_of(p), Tensor(x[lo:hi]), s, lo)
        ys.append(y.data)
    return np.concatenate(ys), s.data


def block_in_pieces(p, x, cuts):
    """`_block_rows` over x cut at `cuts`, each piece starting from the SSM
    state and convolution tail the piece before left, as the block hands
    them from group to group; no cuts runs one body over the whole stream."""
    s = ssm._scan_start(p)[1]
    tail, ys = np.zeros((ssm.CONV_WIDTH - 1, p.d_inner)), []
    edges = [0, *cuts, x.shape[0]]
    for lo, hi in zip(edges, edges[1:]):
        y, s, tail = ssm._block_rows(p, a_neg_of(p), Tensor(x[lo:hi]), s, tail, lo)
        ys.append(y.data)
    return np.concatenate(ys)


def assert_pieces_match(variant, cuts, y, y_full):
    """Bit-exact where the pieces keep the chunk grid; mamba2 pieces cut
    inside a chunk restart the grid, which groups the same sums otherwise."""
    if variant == MAMBA1 or all(c % SSD_CHUNK == 0 for c in cuts):
        assert np.array_equal(y, y_full)
    else:
        assert max_rel_diff(y, y_full) < 1e-12


class TestZOH:
    def test_direct_evaluation(self):
        a_bar, b_bar = zoh_discretize(-1.0, 1.0, 0.1)
        assert abs(a_bar - math.exp(-0.1)) < 1e-15
        assert abs(b_bar - (1.0 - math.exp(-0.1))) < 1e-15

    def test_a_to_zero_limit(self):
        _, b_bar = zoh_discretize(-1e-14, 2.0, 0.5)
        assert abs(b_bar - 1.0) < 1e-9

    def test_large_delta_saturation(self):
        a_bar, b_bar = zoh_discretize(-1.0, 3.0, 200.0)
        assert a_bar < 1e-80
        assert abs(b_bar - 3.0) < 1e-12

    def test_delta_contract(self):
        with pytest.raises(ContractError):
            zoh_discretize(-1.0, 1.0, 0.0)
        with pytest.raises(ContractError):
            zoh_discretize(-1.0, 1.0, -0.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_decay_in_unit_interval(self, seed):
        rng = ng.new_rng(seed)
        a = -np.exp(rng.uniform(-3, 3, size=20))
        delta = np.exp(rng.uniform(-7, 2, size=20))
        a_bar, _ = zoh_discretize(a, 1.0, delta)
        assert np.all((a_bar > 0) & (a_bar < 1))


class TestHippo:
    def test_single(self):
        assert np.array_equal(hippo_init(1), [-1.0])

    def test_formula(self):
        assert np.array_equal(hippo_init(4), [-1.0, -2.0, -3.0, -4.0])

    @pytest.mark.parametrize("n", [1, 3, 16, 64])
    def test_strictly_negative(self, n):
        assert np.all(hippo_init(n) < 0)

    def test_contract(self):
        with pytest.raises(ContractError):
            hippo_init(0)


class TestLinearRecurrence:
    def test_matches_loop(self):
        rng = ng.new_rng(0)
        e = rng.uniform(0.1, 0.9, size=(6, 3))
        u = rng.standard_normal((6, 3))
        h0 = rng.standard_normal(3)
        out = linear_recurrence(Tensor(e), Tensor(u), h0).data
        s = h0.copy()
        for t in range(6):
            s = e[t] * s + u[t]
            assert np.allclose(out[t], s, atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_gradients_vs_finite_differences(self, seed):
        rng = ng.new_rng(100 + seed)
        T, k = 5, 3
        e0 = rng.uniform(0.2, 0.9, size=(T, k))
        u0 = rng.standard_normal((T, k))
        h0 = rng.standard_normal(k)
        w = rng.standard_normal((T, k))

        et = Tensor(e0, requires_grad=True)
        ut = Tensor(u0, requires_grad=True)
        ht = Tensor(h0, requires_grad=True)
        loss = ng.tsum(ng.mul(linear_recurrence(et, ut, ht), Tensor(w)))
        backward(loss)

        fd_e = finite_diff_grad(
            lambda t: ng.tsum(ng.mul(linear_recurrence(t, Tensor(u0), h0), Tensor(w))),
            Tensor(e0),
        )
        fd_u = finite_diff_grad(
            lambda t: ng.tsum(ng.mul(linear_recurrence(Tensor(e0), t, h0), Tensor(w))),
            Tensor(u0),
        )
        fd_h = finite_diff_grad(
            lambda t: ng.tsum(ng.mul(linear_recurrence(Tensor(e0), Tensor(u0), t), Tensor(w))),
            Tensor(h0),
        )
        assert rel_err(et.grad, fd_e) < 1e-4
        assert rel_err(ut.grad, fd_u) < 1e-4
        assert rel_err(ht.grad, fd_h) < 1e-4

    def test_broadcast_decay(self):
        rng = ng.new_rng(1)
        e = rng.uniform(0.2, 0.9, size=(4, 2, 1, 1))
        u = rng.standard_normal((4, 2, 3, 5))
        et = Tensor(e, requires_grad=True)
        out = linear_recurrence(et, Tensor(u), np.zeros((2, 3, 5)))
        backward(ng.tsum(out))
        assert et.grad.shape == e.shape

    def test_broadcast_decay_gradient_equals_the_full_size_one_summed(self):
        # the reverse pass sums a broadcast decay's gradient step by step;
        # a decay given at full state size gets the unsummed gradient
        rng = ng.new_rng(2)
        e = rng.uniform(0.2, 0.9, size=(6, 2, 1, 1))
        u, w = rng.standard_normal((6, 2, 3, 5)), Tensor(rng.standard_normal((6, 2, 3, 5)))
        h0 = rng.standard_normal((2, 3, 5))
        grads = []
        for decay in (e, np.broadcast_to(e, u.shape)):
            et = Tensor(decay, requires_grad=True)
            backward(ng.tsum(ng.mul(linear_recurrence(et, Tensor(u), h0), w)))
            grads.append(et.grad)
        assert np.array_equal(grads[0], grads[1].sum(axis=(2, 3), keepdims=True))

    @pytest.mark.parametrize("which", range(3))
    def test_vjp_returns_none_for_operands_without_grad(self, which):
        rng = ng.new_rng(3)
        ops = [Tensor(rng.uniform(0.2, 0.9, size=(4, 3))), Tensor(rng.standard_normal((4, 3))),
               Tensor(rng.standard_normal(3))]
        ops[which].requires_grad = True
        out = linear_recurrence(*ops)
        grads = out._vjp(rng.standard_normal((4, 3)))
        assert [g is not None for g in grads] == [i == which for i in range(3)]


class TestScanSequential:
    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_zero_input_zero_output(self, variant):
        p = make_params(variant, d_model=4, seed=1)
        x = Tensor(np.zeros((7, p.d_inner)))
        with ng.no_grad():
            y = scan_sequential(p, x)
        assert np.array_equal(y.data, np.zeros((7, p.d_inner)))

    def test_single_step_hand_oracle(self):
        # 1 channel, n_state=2, T=1: y1 = C1 (A1_bar h0 + B1_bar x1) by hand.
        rng = ng.new_rng(5)
        a = np.array([[-0.7, -1.3]])
        p = SSMParams(
            variant=MAMBA1, d_model=1, d_inner=1, n_state=2, n_heads=1,
            norm_gain=Tensor(np.ones(1)), norm_bias=Tensor(np.zeros(1)),
            w_in=Tensor(rng.standard_normal((1, 2))),
            conv_w=Tensor(rng.standard_normal((4, 1))),
            w_delta=Tensor(np.array([[0.4]])),
            delta_bias=Tensor(np.array([0.2])),
            w_b=Tensor(np.array([[0.9, -0.3]])),
            w_c=Tensor(np.array([[0.5, 1.1]])),
            a_log=Tensor(np.log(-a)),
            w_out=Tensor(np.zeros((1, 1))),
        )
        x0 = 0.8
        h0 = np.array([[0.25, -0.4]])
        with ng.no_grad():
            y, s = ssm._sequential_rows(p, a_neg_of(p), Tensor([[x0]]),
                                        Tensor(h0.reshape(1, 2, 1)), 0)

        delta = math.log1p(math.exp(x0 * 0.4 + 0.2))
        b_t = np.array([0.9, -0.3]) * x0
        c_t = np.array([0.5, 1.1]) * x0
        h1 = np.empty(2)
        for n in range(2):
            a_bar, b_bar = zoh_discretize(a[0, n], b_t[n], delta)
            h1[n] = a_bar * h0[0, n] + b_bar * x0
        assert abs(y.data[0, 0] - float(h1 @ c_t)) < 1e-12
        assert np.allclose(s.data.reshape(2), h1, atol=1e-12)

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_split_chaining_bit_exact(self, variant):
        p = make_params(variant, d_model=4, seed=2)
        rng = ng.new_rng(9)
        x = rng.standard_normal((8, p.d_inner))
        with ng.no_grad():
            y_full = scan_sequential(p, Tensor(x))
            _, s_full = sequential_in_pieces(p, x, [])
            y, s = sequential_in_pieces(p, x, [3])
        assert np.array_equal(y, y_full.data)
        assert np.array_equal(s, s_full)

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_recorded_matches_streaming(self, variant):
        p = make_params(variant, d_model=4, seed=3)
        rng = ng.new_rng(11)
        x = rng.standard_normal((12, p.d_inner))
        with ng.no_grad():
            y_stream = scan_sequential(p, Tensor(x))
        y_rec = scan_sequential(p, Tensor(x, requires_grad=True))
        assert np.max(np.abs(y_stream.data - y_rec.data)) < 1e-14

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    @pytest.mark.parametrize("seed", range(5))
    def test_input_gradient_vs_finite_differences(self, variant, seed):
        p = make_params(variant, d_model=2, seed=seed)
        rng = ng.new_rng(50 + seed)
        x0 = rng.standard_normal((5, p.d_inner))
        w = rng.standard_normal((5, p.d_inner))

        def f(t):
            y = scan_sequential(p, t)
            return ng.tsum(ng.mul(y, Tensor(w)))

        xt = Tensor(x0, requires_grad=True)
        y = scan_sequential(p, xt)
        backward(ng.tsum(ng.mul(y, Tensor(w))))
        fd = finite_diff_grad(f, Tensor(x0))
        assert rel_err(xt.grad, fd) < 1e-4

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    @pytest.mark.parametrize("cut", [SSD_CHUNK - 1, SSD_CHUNK, SSD_CHUNK + 1])
    def test_chaining_across_scan_blocks_bit_exact(self, variant, cut):
        p = make_params(variant, d_model=4, seed=18)
        x = ng.new_rng(19).standard_normal((2 * SSD_CHUNK + 5, p.d_inner))
        with ng.no_grad():
            y_full = scan_sequential(p, Tensor(x))
            _, s_full = sequential_in_pieces(p, x, [])
            y, s = sequential_in_pieces(p, x, [cut])
        assert np.array_equal(y, y_full.data)
        assert np.array_equal(s, s_full)

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_gradients_across_scan_blocks_vs_finite_differences(self, variant):
        # three chunks: the state and its adjoint pass two chunk boundaries
        T = 2 * SSD_CHUNK + 5
        p = make_params(variant, d_model=2, seed=20, n_state=4)
        rng = ng.new_rng(21)
        p.delta_bias = Tensor(np.log(np.expm1(rng.uniform(0.05, 0.2, p.n_delta))),
                              requires_grad=True)
        x0 = rng.standard_normal((T, p.d_inner))
        w = Tensor(rng.standard_normal((T, p.d_inner)))
        names = ["w_delta", "delta_bias", "w_b", "w_c", "a_log"]

        def loss(xt):
            return ng.tsum(ng.mul(scan_sequential(p, xt), w))

        xt = Tensor(x0, requires_grad=True)
        backward(loss(xt))
        assert max_rel_diff(xt.grad, finite_diff_grad(loss, Tensor(x0))) < 1e-6
        for name in names:
            param = getattr(p, name)

            def by_param(t, _param=param):
                old = _param.data
                _param.data = t.data
                try:
                    return loss(Tensor(x0))
                finally:
                    _param.data = old

            fd = finite_diff_grad(by_param, Tensor(param.data.copy()))
            assert max_rel_diff(param.grad, fd) < 1e-6, name

    def test_mamba1_no_grad_peak_does_not_grow_with_t(self):
        # without grad only one chunk of [rows, n_state, d_inner] values is
        # alive; what grows with T is the [T, d_inner]-sized inputs and output
        p = make_params(MAMBA1, d_model=16, seed=22)
        peaks = {}
        for T in (4 * SSD_CHUNK, 32 * SSD_CHUNK):
            x = Tensor(ng.new_rng(23).standard_normal((T, p.d_inner)))
            with ng.no_grad():
                tracemalloc.start()
                try:
                    scan_sequential(p, x)
                    peaks[T] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        # eight float64 [rows, d_inner] arrays for the 28 chunks' rows added;
        # keeping every state would add n_state = 16 of them
        grown = peaks[32 * SSD_CHUNK] - peaks[4 * SSD_CHUNK]
        assert grown < 8 * (28 * SSD_CHUNK * p.d_inner * 8)

    def test_bounded_state_under_long_input(self):
        p = make_params(MAMBA2, d_model=4, seed=4)
        rng = ng.new_rng(12)
        x = rng.standard_normal((2048, p.d_inner))
        with ng.no_grad():
            y = scan_sequential(p, Tensor(x))
        assert np.all(np.isfinite(y.data))
        assert np.max(np.abs(y.data)) < 1e4


class TestScanChunked:
    def test_requires_mamba2(self):
        p = make_params(MAMBA1)
        with pytest.raises(ContractError):
            scan_chunked_ssd(p, Tensor(np.zeros((4, p.d_inner))), 2)

    def test_chunk_contract(self):
        p = make_params(MAMBA2)
        with pytest.raises(ContractError):
            scan_chunked_ssd(p, Tensor(np.zeros((4, p.d_inner))), 0)

    @pytest.mark.parametrize("chunk", [1, 16, 64])
    def test_matches_sequential(self, chunk):
        p = make_params(MAMBA2, d_model=4, seed=6)
        rng = ng.new_rng(21)
        x = rng.standard_normal((64, p.d_inner))
        with ng.no_grad():
            y_seq = scan_sequential(p, Tensor(x))
            y_chk = scan_chunked_ssd(p, Tensor(x), chunk)
        assert np.max(np.abs(y_seq.data - y_chk.data)) < 1e-8

    def test_chunk_equals_t(self):
        p = make_params(MAMBA2, d_model=4, seed=7)
        rng = ng.new_rng(22)
        x = rng.standard_normal((32, p.d_inner))
        with ng.no_grad():
            y_seq = scan_sequential(p, Tensor(x))
            y_chk = scan_chunked_ssd(p, Tensor(x), 32)
        assert np.max(np.abs(y_seq.data - y_chk.data)) < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_random_seeds_t64_chunk16(self, seed):
        p = make_params(MAMBA2, d_model=4, seed=200 + seed)
        rng = ng.new_rng(300 + seed)
        x = rng.standard_normal((64, p.d_inner))
        with ng.no_grad():
            y_seq = scan_sequential(p, Tensor(x))
            y_chk = scan_chunked_ssd(p, Tensor(x), 16)
        assert np.max(np.abs(y_seq.data - y_chk.data)) < 1e-8

    def test_long_chunk_large_steps_stay_finite(self):
        # strictly-upper decay diffs are positive and huge in this regime;
        # the masked exponential must not overflow into inf * 0 = nan
        p = make_params(MAMBA2, d_model=4, seed=99)
        p.delta_bias = Tensor(np.full(p.n_delta, 3.0), requires_grad=True)
        rng = ng.new_rng(98)
        x = Tensor(rng.standard_normal((512, p.d_inner)) * 3)
        with ng.no_grad():
            y_seq = scan_sequential(p, x)
            y_chk = scan_chunked_ssd(p, x, 512)
        assert np.all(np.isfinite(y_chk.data))
        assert np.max(np.abs(y_seq.data - y_chk.data)) < 1e-8

    def test_gradient_vs_finite_differences(self):
        p = make_params(MAMBA2, d_model=2, seed=8)
        rng = ng.new_rng(23)
        x0 = rng.standard_normal((8, p.d_inner))
        w = rng.standard_normal((8, p.d_inner))

        def f(t):
            return ng.tsum(ng.mul(scan_chunked_ssd(p, t, 4), Tensor(w)))

        xt = Tensor(x0, requires_grad=True)
        backward(ng.tsum(ng.mul(scan_chunked_ssd(p, xt, 4), Tensor(w))))
        fd = finite_diff_grad(f, Tensor(x0))
        assert rel_err(xt.grad, fd) < 1e-4


def decay_mix_by_ops(cum, cb, xh):
    """The intra-chunk mix as the op composition `ssm._decay_mix` replaces:
    the oracle for its output, its metered FLOPs and its gradients."""
    K, hh, q = cum.shape
    lower = np.tril(np.ones((q, q)))
    diff = ng.sub(ng.reshape(cum, (K, hh, q, 1)), ng.reshape(cum, (K, hh, 1, q)))
    scores = ng.mul(cb, lower)
    w = ng.mul(ng.exp(ng.mul(diff, lower)), ng.reshape(scores, (K, 1, q, q)))
    return ng.bmatmul(w, xh)


def mix_inputs(K, q, seed, hh=4, p=3, grad=False):
    """cum (a decreasing cumulative log-decay per chunk), C B^T and xh."""
    rng = ng.new_rng(seed)
    cum = -np.cumsum(rng.uniform(0.01, 0.5, (K, hh, q)), axis=2)
    cb = rng.standard_normal((K, q, q))
    xh = rng.standard_normal((K, hh, q, p))
    return [Tensor(a, requires_grad=grad) for a in (cum, cb, xh)]


class TestDecayMix:
    """`ssm._decay_mix`, the chunks' decay-masked mix as one op, against
    the op composition it replaced.  The block hands it one group of
    chunks; dk counts the chunks past one group."""

    @pytest.mark.parametrize("q", [2, 16, 64])
    @pytest.mark.parametrize("dk", [-3, -1, 0, 1])
    def test_forward_and_meter_equal_the_op_composition(self, q, dk):
        K = ssm._SSD_GROUP + dk
        ins = mix_inputs(K, q, seed=q + dk + 3)
        with ng.no_grad(), ng.count_flops() as m_op:
            y = ssm._decay_mix(*ins)
        with ng.no_grad(), ng.count_flops() as m_ref:
            ref = decay_mix_by_ops(*ins)
        assert np.array_equal(y.data, ref.data)
        assert m_op.by_kind == m_ref.by_kind

    @pytest.mark.parametrize("T", [5 * SSD_CHUNK - 17, 5 * SSD_CHUNK])
    def test_scan_with_the_op_equals_the_scan_with_the_composition(self, monkeypatch, T):
        # 5 chunks is one more than a group; the shorter stream pads its last
        # chunk with zero rows
        p = make_params(MAMBA2, d_model=64, seed=30)
        x = ng.new_rng(31).standard_normal((T, p.d_inner))
        with ng.no_grad():
            y = scan_chunked_ssd(p, Tensor(x), SSD_CHUNK)
            monkeypatch.setattr(ssm, "_decay_mix", decay_mix_by_ops)
            ref = scan_chunked_ssd(p, Tensor(x), SSD_CHUNK)
        assert np.array_equal(y.data, ref.data)

    @pytest.mark.parametrize("q,dk", [(16, -1), (16, 1), (64, 1)])
    def test_gradients_equal_the_op_composition(self, q, dk):
        K = ssm._SSD_GROUP + dk
        g = ng.new_rng(40 + q).standard_normal((K, 4, q, 3))
        grads = []
        for f in (ssm._decay_mix, decay_mix_by_ops):
            ins = mix_inputs(K, q, seed=41, grad=True)
            backward(ng.tsum(ng.mul(f(*ins), Tensor(g))))
            grads.append([t.grad for t in ins])
        for got, ref in zip(*grads):
            assert max_rel_diff(got, ref) < 1e-12

    def test_gradients_vs_finite_differences(self):
        # three chunks of four rows, two heads
        ins = mix_inputs(3, 4, seed=42, hh=2, p=2, grad=True)
        g = Tensor(ng.new_rng(43).standard_normal((3, 2, 4, 2)))
        backward(ng.tsum(ng.mul(ssm._decay_mix(*ins), g)))
        for i, t in enumerate(ins):
            def f(probe, i=i):
                args = [probe if j == i else Tensor(a.data) for j, a in enumerate(ins)]
                return ng.tsum(ng.mul(ssm._decay_mix(*args), g))

            assert rel_err(t.grad, finite_diff_grad(f, Tensor(t.data))) < 1e-6

    def test_vjp_returns_none_for_operands_without_grad(self):
        ins = mix_inputs(3, 4, seed=44)
        ins[1] = Tensor(ins[1].data, requires_grad=True)
        y = ssm._decay_mix(*ins)
        gc, gs, gx = y._vjp(np.ones(y.shape))
        assert gc is None and gx is None and gs.shape == ins[1].shape

    def test_recorded_call_keeps_no_per_head_weights(self):
        # one group and a bit: a kept [K, heads, q, q] array, or a kept
        # part of one, would show next to y
        q, hh = SSD_CHUNK, 4
        K = ssm._SSD_GROUP + 1
        ins = mix_inputs(K, q, seed=45, grad=True)
        tracemalloc.start()
        try:
            y = ssm._decay_mix(*ins)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        weights = 8 * K * hh * q * q
        assert kept - y.data.nbytes < weights / 8, f"kept {kept} B beside y, weights {weights} B"


def conv_by_ops(params, xz, tail):
    """The causal convolution as a composition of graph ops: prepend the
    tail, slice each tap, multiply, then sum ((t0 + t1) + t2) + t3."""
    T = xz.shape[0]
    x_full = ng.concat_rows([tail, xz])
    y = None
    for j in range(ssm.CONV_WIDTH):
        tap = ng.mul(ng.slice_rows(x_full, j, j + T), ng.slice_rows(params.conv_w, j, j + 1))
        y = tap if y is None else ng.add(y, tap)
    return y


class TestCausalConv:
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 9, 70])
    def test_forward_and_meter_equal_the_op_composition(self, T):
        p = make_params(MAMBA2, d_model=4, seed=61)
        rng = ng.new_rng(62)
        xz, tail = Tensor(rng.standard_normal((T, p.d_inner))), rng.standard_normal((3, p.d_inner))
        with ng.no_grad(), ng.count_flops() as fused:
            y = ssm.causal_conv4(p, xz, tail).data
        with ng.no_grad(), ng.count_flops() as ops:
            ref = conv_by_ops(p, xz, tail).data
        assert np.array_equal(y, ref)
        assert fused.by_kind == ops.by_kind

    @pytest.mark.parametrize("T", [2, 7])
    def test_vjp_matches_the_op_composition_and_finite_differences(self, T):
        # a nonzero carried tail: its rows feed the first taps of the output
        p = make_params(MAMBA2, d_model=2, seed=63)
        rng = ng.new_rng(64)
        xz = Tensor(rng.standard_normal((T, p.d_inner)), requires_grad=True)
        tail = Tensor(rng.standard_normal((3, p.d_inner)), requires_grad=True)
        w_out = Tensor(rng.standard_normal((T, p.d_inner)))

        def grads(conv):
            xz.grad = p.conv_w.grad = tail.grad = None
            backward(ng.tsum(ng.mul(conv(p, xz, tail), w_out)))
            return xz.grad.copy(), p.conv_w.grad.copy(), tail.grad.copy()

        gx, gw, gt = grads(ssm.causal_conv4)
        ref_x, ref_w, ref_t = grads(conv_by_ops)
        assert np.max(np.abs(gx - ref_x)) < 1e-13
        assert np.max(np.abs(gw - ref_w)) < 1e-13
        assert np.max(np.abs(gt - ref_t)) < 1e-13
        fd_t = finite_diff_grad(lambda t: ng.tsum(ng.mul(ssm.causal_conv4(p, xz, t), w_out)), tail)
        assert rel_err(gt, fd_t) < 1e-6

        fd_x = finite_diff_grad(lambda t: ng.tsum(ng.mul(ssm.causal_conv4(p, t, tail), w_out)), xz)
        w0 = p.conv_w

        def by_weight(t):
            p.conv_w = t
            try:
                return ng.tsum(ng.mul(ssm.causal_conv4(p, xz, tail), w_out))
            finally:
                p.conv_w = w0

        fd_w = finite_diff_grad(by_weight, w0)
        assert rel_err(gx, fd_x) < 1e-6
        assert rel_err(gw, fd_w) < 1e-6

    def test_one_graph_node(self):
        # the carried tail is a parent: a block's groups pass it on under grad
        p = make_params(MAMBA2, d_model=2, seed=65)
        xz = Tensor(ng.new_rng(66).standard_normal((5, p.d_inner)), requires_grad=True)
        tail = Tensor(np.zeros((3, p.d_inner)), requires_grad=True)
        y = ssm.causal_conv4(p, xz, tail)
        assert y._parents == (xz, p.conv_w, tail)

    def test_vjp_returns_none_for_operands_without_grad(self):
        p = make_params(MAMBA2, d_model=2, seed=67)
        xz = Tensor(ng.new_rng(68).standard_normal((5, p.d_inner)), requires_grad=True)
        p.conv_w.requires_grad = False
        y = ssm.causal_conv4(p, xz, np.zeros((3, p.d_inner)))
        gx, gw, gt = y._vjp(np.ones(y.shape))
        assert gx.shape == xz.shape and gw is None and gt is None


class TestMambaBlock:
    def test_no_grad_peak_stays_below_nine_branch_arrays(self):
        # at T = 8192 the projection, its two halves and the convolution's
        # output are let go before the scan; holding them peaked at 11.5
        # arrays of [T, d_inner]
        p = make_params(MAMBA2, d_model=64, seed=67, out_std=0.02)
        x = Tensor(ng.new_rng(68).standard_normal((8192, 64)))
        with ng.no_grad():
            tracemalloc.start()
            try:
                mamba_block_forward(p, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 9 * 8192 * p.d_inner * 8

    def test_no_grad_group_peak_keeps_no_per_head_weights(self):
        # one full group: the op composition of the intra-chunk mix, written
        # into the chunk core, peaked at 4.4 MB here, the op at 3.2 MB; the
        # bound sits 0.56 MB above the op and 0.6 MB below the composition
        p = make_params(MAMBA2, d_model=64, seed=20, out_std=0.02)
        x = Tensor(ng.new_rng(40).standard_normal((ssm._SSD_GROUP * SSD_CHUNK, 64)))
        with ng.no_grad():
            tracemalloc.start()
            try:
                mamba_block_forward(p, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3.8 * 2**20, f"peak {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_zero_out_projection_is_identity(self, variant):
        p = make_params(variant, d_model=4, seed=9, out_std=0.0)
        rng = ng.new_rng(31)
        x = rng.standard_normal((6, 4))
        with ng.no_grad():
            y = mamba_block_forward(p, Tensor(x))
        assert np.array_equal(y.data, x)

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_causality_probe(self, variant):
        p = make_params(variant, d_model=4, seed=10)
        rng = ng.new_rng(32)
        x = rng.standard_normal((16, 4))
        x2 = x.copy()
        x2[10] += 3.0
        with ng.no_grad():
            y1 = mamba_block_forward(p, Tensor(x))
            y2 = mamba_block_forward(p, Tensor(x2))
        assert np.array_equal(y1.data[:10], y2.data[:10])
        assert not np.array_equal(y1.data[10:], y2.data[10:])

    def test_one_channel_hand_unrolled_oracle(self):
        # d_model=1 block, T=2, unrolled in raw numpy below.
        p = make_params(MAMBA1, d_model=1, seed=11, out_std=0.5)
        rng = ng.new_rng(33)
        x = rng.standard_normal((2, 1))
        with ng.no_grad():
            y = mamba_block_forward(p, Tensor(x))

        def np_softplus(v):
            return np.logaddexp(0.0, v)

        def np_silu(v):
            return v / (1.0 + np.exp(-v))

        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        x_ln = (x - mu) / np.sqrt(var + 1e-6) * p.norm_gain.data + p.norm_bias.data
        proj = x_ln @ p.w_in.data
        xz, gate = proj[:, : p.d_inner], proj[:, p.d_inner :]
        ext = np.concatenate([np.zeros((3, p.d_inner)), xz], axis=0)
        conv = np.stack(
            [sum(p.conv_w.data[j] * ext[t + j] for j in range(4)) for t in range(2)]
        )
        u = np_silu(conv)
        delta = np_softplus(u @ p.w_delta.data + p.delta_bias.data)
        b = u @ p.w_b.data
        c = u @ p.w_c.data
        a = -np.exp(p.a_log.data)
        s = np.zeros((p.d_inner, p.n_state))
        y_ssm = np.empty((2, p.d_inner))
        for t in range(2):
            da = delta[t][:, None] * a
            s = np.exp(da) * s + (np.expm1(da) / a) * b[t][None, :] * u[t][:, None]
            y_ssm[t] = s @ c[t]
        out = (y_ssm * np_silu(gate)) @ p.w_out.data + x
        assert np.max(np.abs(y.data - out)) < 1e-12

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_block_state_chaining(self, variant):
        p = make_params(variant, d_model=4, seed=12)
        rng = ng.new_rng(34)
        x = rng.standard_normal((9, 4))
        with ng.no_grad():
            y_full = mamba_block_forward(p, Tensor(x))
            y = block_in_pieces(p, x, [4])
        assert_pieces_match(variant, [4], y, y_full.data)

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    @pytest.mark.parametrize("seed", range(3))
    def test_block_gradient_vs_finite_differences(self, variant, seed):
        p = make_params(variant, d_model=2, seed=40 + seed)
        rng = ng.new_rng(60 + seed)
        x0 = rng.standard_normal((4, 2))
        w = rng.standard_normal((4, 2))

        def f(t):
            y = mamba_block_forward(p, t)
            return ng.tsum(ng.mul(y, Tensor(w)))

        xt = Tensor(x0, requires_grad=True)
        y = mamba_block_forward(p, xt)
        backward(ng.tsum(ng.mul(y, Tensor(w))))
        fd = finite_diff_grad(f, Tensor(x0))
        assert rel_err(xt.grad, fd) < 1e-4

    def test_parameter_gradients_vs_finite_differences(self):
        p = make_params(MAMBA2, d_model=2, seed=13)
        rng = ng.new_rng(70)
        # Larger step sizes keep the decay-path sensitivity (a_log) well away
        # from finite-difference noise.
        p.delta_bias = Tensor(
            np.log(np.expm1(rng.uniform(0.3, 0.9, p.n_delta))), requires_grad=True
        )
        x = Tensor(rng.standard_normal((4, 2)))
        w = Tensor(rng.standard_normal((4, 2)))

        y = mamba_block_forward(p, x)
        backward(ng.tsum(ng.mul(y, w)))

        for name in ["w_in", "conv_w", "w_delta", "delta_bias", "w_b", "w_c",
                     "a_log", "w_out", "norm_gain"]:
            param = getattr(p, name)
            base = param.data.copy()

            def f(t, _param=param):
                old = _param.data
                _param.data = t.data
                try:
                    y2 = mamba_block_forward(p, x)
                    return ng.tsum(ng.mul(y2, w))
                finally:
                    _param.data = old

            fd = finite_diff_grad(f, Tensor(base))
            assert rel_err(param.grad, fd) < 1e-4, name

    def test_defaults_match_variant(self):
        p1 = make_params(MAMBA1, d_model=64)
        p2 = make_params(MAMBA2, d_model=64)
        assert p1.n_state == 16 and p1.n_heads == 1
        assert p2.n_state == 64 and p2.n_heads == 4
        assert p2.head_dim == 32

    def test_scan_flops_affine_in_t(self):
        p = make_params(MAMBA2, d_model=8, seed=14)
        costs = []
        lengths = [256, 512, 1024, 2048, 4096, 8192]
        for T in lengths:
            x = Tensor(np.ones((T, p.d_inner)) * 0.1)
            with ng.no_grad(), ng.count_flops() as meter:
                scan_sequential(p, x)
            costs.append(meter.total)
        logs = np.polyfit(np.log(lengths), np.log(costs), 1)
        assert abs(logs[0] - 1.0) < 0.05

    def test_chunk_partitions_agree_tightly(self):
        # different chunkings are different partitions of one recurrence;
        # the carried state keeps them within 1e-10 of each other
        p = make_params(MAMBA2, d_model=4, seed=15)
        rng = ng.new_rng(35)
        x = Tensor(rng.standard_normal((96, p.d_inner)))
        with ng.no_grad():
            outs = [scan_chunked_ssd(p, x, c).data for c in (8, 16, 32, 96)]
        for other in outs[1:]:
            assert np.max(np.abs(outs[0] - other)) < 1e-10


def max_rel_diff(a, ref):
    return float(np.max(np.abs(a - ref)) / max(1.0, float(np.max(np.abs(ref)))))


class TestChunkedBlockScan:
    """The mamba2 block's chunked scan: the state handed across chunk and
    group boundaries, and agreement with the sequential oracle."""

    T = 2 * SSD_CHUNK + 5

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    @pytest.mark.parametrize("cut", [1, SSD_CHUNK - 1, SSD_CHUNK, SSD_CHUNK + 1, 2 * SSD_CHUNK + 4])
    def test_block_state_chaining_across_chunks(self, variant, cut):
        p = make_params(variant, d_model=4, seed=12)
        x = ng.new_rng(36).standard_normal((self.T, 4))
        with ng.no_grad():
            y_full = mamba_block_forward(p, Tensor(x))
            y = block_in_pieces(p, x, [cut])
        assert_pieces_match(variant, [cut], y, y_full.data)

    def test_chaining_in_many_pieces(self):
        # the state and the convolution tail pass through one-row pieces,
        # pieces inside a chunk and pieces that close one
        p = make_params(MAMBA2, d_model=4, seed=13)
        x = ng.new_rng(37).standard_normal((self.T, 4))
        cuts = [1, 2, 9, SSD_CHUNK, SSD_CHUNK + 1, 100]
        with ng.no_grad():
            y_full = mamba_block_forward(p, Tensor(x))
            y = block_in_pieces(p, x, cuts)
        assert_pieces_match(MAMBA2, cuts, y, y_full.data)

    @staticmethod
    def _oracle_params():
        p = make_params(MAMBA2, d_model=4, seed=16)
        rng = ng.new_rng(71)
        p.delta_bias = Tensor(np.log(np.expm1(rng.uniform(0.3, 0.9, p.n_delta))),
                              requires_grad=True)
        return p

    @pytest.mark.parametrize("carried", [False, True])
    def test_block_scan_matches_sequential_oracle(self, carried):
        # every group after the first starts its scan from the state the
        # group before left: both row scans from the same entry state, on
        # values and on the gradients of the rows, the state and the weights
        p = self._oracle_params()
        rng = ng.new_rng(72)
        prefix = rng.standard_normal((70, p.d_inner))
        x0 = rng.standard_normal((self.T, p.d_inner))
        w = Tensor(rng.standard_normal((self.T, p.d_inner)))
        w_end = Tensor(rng.standard_normal((p.n_heads, p.n_state, p.head_dim)))
        s0 = np.zeros((p.n_heads, p.n_state, p.head_dim))
        if carried:
            with ng.no_grad():
                s0 = sequential_in_pieces(p, prefix, [])[1]

        def seq(xt, st):
            return ssm._sequential_rows(p, a_neg_of(p), xt, st, 70)

        def chk(xt, st):
            return ssm._ssd_rows(p, a_neg_of(p), xt, st, 70, SSD_CHUNK)

        with ng.no_grad():
            y_seq, end_seq = seq(Tensor(x0), Tensor(s0))
            y_chk, end_chk = chk(Tensor(x0), Tensor(s0))
        assert max_rel_diff(y_chk.data, y_seq.data) < 1e-12
        assert max_rel_diff(end_chk.data, end_seq.data) < 1e-12

        names = ["w_delta", "delta_bias", "w_b", "w_c", "a_log"]

        def grads(scan):
            for name in names:
                getattr(p, name).grad = None
            xt, st = Tensor(x0, requires_grad=True), Tensor(s0, requires_grad=True)
            y, end = scan(xt, st)
            backward(ng.add(ng.tsum(ng.mul(y, w)), ng.tsum(ng.mul(end, w_end))))
            return [xt.grad, st.grad] + [getattr(p, name).grad for name in names]

        for name, a, b in zip(["x", "state"] + names, grads(chk), grads(seq)):
            assert max_rel_diff(a, b) < 1e-12, name

    def test_chunk_groups_chain_values_and_gradients(self):
        # a small chunk puts many chunks in one call: the state and its
        # adjoint must pass from chunk to chunk, and from a call that ends
        # on the chunk grid, as a group does, to the next
        chunk, T = 3, 101
        p = self._oracle_params()
        rng = ng.new_rng(73)
        x0 = rng.standard_normal((T, p.d_inner))
        w = Tensor(rng.standard_normal((T, p.d_inner)))
        h0 = Tensor(np.zeros((p.n_heads, p.n_state, p.head_dim)))
        with ng.no_grad():
            y_seq, end_seq = sequential_in_pieces(p, x0, [])
            y_chk, end_chk = ssm._ssd_rows(p, a_neg_of(p), Tensor(x0), h0, 0, chunk)
            y1, mid = ssm._ssd_rows(p, a_neg_of(p), Tensor(x0[:51]), h0, 0, chunk)
            y2, end2 = ssm._ssd_rows(p, a_neg_of(p), Tensor(x0[51:]), mid, 51, chunk)
        assert max_rel_diff(y_chk.data, y_seq) < 1e-12
        assert max_rel_diff(end_chk.data, end_seq) < 1e-12
        assert np.array_equal(np.concatenate([y1.data, y2.data]), y_chk.data)
        assert np.array_equal(end2.data, end_chk.data)

        grads = []
        for scan in (lambda t: scan_sequential(p, t), lambda t: scan_chunked_ssd(p, t, chunk)):
            p.a_log.grad = None
            xt = Tensor(x0, requires_grad=True)
            backward(ng.tsum(ng.mul(scan(xt), w)))
            grads.append((xt.grad, p.a_log.grad))
        assert max_rel_diff(grads[1][0], grads[0][0]) < 1e-12
        assert max_rel_diff(grads[1][1], grads[0][1]) < 1e-12

    def test_chunked_then_sequential_hand_the_state_on_as_it_is(self):
        # both row scans carry the state as [heads, n_state, head_dim]: the
        # state the chunked core leaves after one group enters the per-step
        # scan unchanged, and the stream reads as one scan
        G = ssm._SSD_GROUP * SSD_CHUNK
        p = self._oracle_params()
        x = ng.new_rng(75).standard_normal((G + 77, p.d_inner))
        a_neg, h0 = ssm._scan_start(p)
        with ng.no_grad():
            y1, mid = ssm._ssd_rows(p, a_neg, Tensor(x[:G]), h0, 0, SSD_CHUNK)
            y2, end = ssm._sequential_rows(p, a_neg, Tensor(x[G:]), mid, G)
            y_whole = scan_sequential(p, Tensor(x)).data
            y_ref, end_ref = sequential_in_pieces(p, x, [])
        assert np.array_equal(y_ref, y_whole)
        assert max_rel_diff(np.concatenate([y1.data, y2.data]), y_whole) < 1e-12
        assert max_rel_diff(end.data, end_ref) < 1e-12

    @pytest.mark.parametrize("grad", [False, True])
    def test_overflow_names_its_token(self, grad):
        # one row scaled far out of range: x*delta overflows at that token
        # only; the masked intra-chunk product must not smear the bad value
        # back to the start of its chunk
        p = make_params(MAMBA2, d_model=4, seed=0)
        x = ng.new_rng(0).standard_normal((100, p.d_inner))
        x[70] *= 1e200

        def attempt(fn):
            if grad:
                fn(Tensor(x, requires_grad=True))
            else:
                with ng.no_grad():
                    fn(Tensor(x))

        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match=r"at token 70$"):
                attempt(lambda t: scan_sequential(p, t))
            with pytest.raises(NumericError, match=r"at token 70$"):
                attempt(lambda t: scan_chunked_ssd(p, t, 64))


class TestBlockGroups:
    """The block runs its body over groups of _SSD_GROUP * SSD_CHUNK rows,
    handing the state from group to group."""

    G = ssm._SSD_GROUP * SSD_CHUNK

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_groups_match_one_body_over_the_whole_stream(self, variant):
        # past 1953 rows the whole-stream delta projection rounds otherwise
        T = 2 * self.G + 37
        p = make_params(variant, d_model=64, seed=18, out_std=0.02)
        x = ng.new_rng(39).standard_normal((T, 64))
        with ng.no_grad():
            y = mamba_block_forward(p, Tensor(x))
            y_one = block_in_pieces(p, x, [])
        assert max_rel_diff(y.data, y_one) < 1e-12

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    @pytest.mark.parametrize("grad", [False, True])
    def test_bad_row_past_a_group_edge_names_its_token(self, variant, grad):
        # one row near the float64 limit: its layer-norm sum overflows and
        # the scan meets the bad value at row 70 of the second group, which
        # must name its token in the stream
        p = make_params(variant, d_model=4, seed=21)
        x = ng.new_rng(41).standard_normal((self.G + 100, 4))
        x[self.G + 70, :2] = 1e308
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=rf"at token {self.G + 70}$"):
            if grad:
                mamba_block_forward(p, Tensor(x, requires_grad=True))
            else:
                with ng.no_grad():
                    mamba_block_forward(p, Tensor(x))

    def test_empty_input_is_a_contract_error(self):
        p = make_params(MAMBA2)
        for run in (lambda: mamba_block_forward(p, Tensor(np.zeros((0, p.d_model)))),
                    lambda: scan_sequential(p, Tensor(np.zeros((0, p.d_inner)))),
                    lambda: scan_chunked_ssd(p, Tensor(np.zeros((0, p.d_inner))), SSD_CHUNK)):
            with pytest.raises(ContractError):
                run()

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    @pytest.mark.parametrize("prefix", [0, 500])
    def test_recorded_groups_match_directional_finite_differences(self, variant, prefix):
        # a prefix of 500 rows before x moves the group edges off x's start
        p = make_params(variant, d_model=2, seed=19, out_std=0.3)
        rng = ng.new_rng(74)
        p.delta_bias = Tensor(np.log(np.expm1(rng.uniform(0.3, 0.9, p.n_delta))),
                              requires_grad=True)
        T = 2 * self.G + 37
        x0 = rng.standard_normal((T, 2))
        w = Tensor(rng.standard_normal((T, 2)))
        head = Tensor(rng.standard_normal((prefix, 2)))

        def forward(xt):
            y = mamba_block_forward(p, ng.concat_rows([head, xt]) if prefix else xt)
            return ng.slice_rows(y, prefix, prefix + T) if prefix else y

        def loss(xt):
            return ng.tsum(ng.mul(forward(xt), w))

        xt = Tensor(x0, requires_grad=True)
        y_rec = forward(xt)
        backward(ng.tsum(ng.mul(y_rec, w)))
        with ng.no_grad():
            y_ng = forward(Tensor(x0))
        assert np.array_equal(y_ng.data, y_rec.data)

        names = ["x", "w_in", "conv_w", "a_log", "w_out"]
        for name in names:
            target = xt if name == "x" else getattr(p, name)
            grad = target.grad
            v = rng.standard_normal(target.shape)
            v /= np.linalg.norm(v)
            base, h = target.data, 1e-5

            def at(sign):
                target.data = base + sign * h * v
                try:
                    with ng.no_grad():
                        return loss(Tensor(xt.data)).item()
                finally:
                    target.data = base

            fd = (at(1.0) - at(-1.0)) / (2 * h)
            ad = float(np.sum(grad * v))
            assert abs(ad - fd) < 1e-6 * max(1.0, abs(fd)), (name, ad, fd)

    def test_no_grad_peak_does_not_scale_with_the_stream(self):
        # one group's temporaries, the group outputs and their concatenation
        T = 32 * self.G
        p = make_params(MAMBA2, d_model=64, seed=20, out_std=0.02)
        x = Tensor(ng.new_rng(40).standard_normal((T, 64)))
        with ng.no_grad():
            tracemalloc.start()
            try:
                mamba_block_forward(p, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MB"
