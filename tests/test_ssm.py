"""Tests for discretization, selective scans, and the state-space block."""

import math

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
        loss = ng.tsum(ng.mul(linear_recurrence(et, ut, h0), Tensor(w)))
        backward(loss)

        fd_e = finite_diff_grad(
            lambda t: ng.tsum(ng.mul(linear_recurrence(t, Tensor(u0), h0), Tensor(w))),
            Tensor(e0),
        )
        fd_u = finite_diff_grad(
            lambda t: ng.tsum(ng.mul(linear_recurrence(Tensor(e0), t, h0), Tensor(w))),
            Tensor(u0),
        )
        assert rel_err(et.grad, fd_e) < 1e-4
        assert rel_err(ut.grad, fd_u) < 1e-4

    def test_broadcast_decay(self):
        rng = ng.new_rng(1)
        e = rng.uniform(0.2, 0.9, size=(4, 2, 1, 1))
        u = rng.standard_normal((4, 2, 3, 5))
        et = Tensor(e, requires_grad=True)
        out = linear_recurrence(et, Tensor(u), np.zeros((2, 3, 5)))
        backward(ng.tsum(out))
        assert et.grad.shape == e.shape


class TestScanSequential:
    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_zero_input_zero_output(self, variant):
        p = make_params(variant, d_model=4, seed=1)
        x = Tensor(np.zeros((7, p.d_inner)))
        with ng.no_grad():
            y, st = scan_sequential(p, x)
        assert np.array_equal(y.data, np.zeros((7, p.d_inner)))
        assert np.array_equal(st.h, np.zeros_like(st.h))

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
        state = ssm.init_state(p)
        state.h = h0.reshape(1, 1, 2)
        with ng.no_grad():
            y, st = scan_sequential(p, Tensor([[x0]]), state)

        delta = math.log1p(math.exp(x0 * 0.4 + 0.2))
        b_t = np.array([0.9, -0.3]) * x0
        c_t = np.array([0.5, 1.1]) * x0
        h1 = np.empty(2)
        for n in range(2):
            a_bar, b_bar = zoh_discretize(a[0, n], b_t[n], delta)
            h1[n] = a_bar * h0[0, n] + b_bar * x0
        assert abs(y.data[0, 0] - float(h1 @ c_t)) < 1e-12
        assert np.allclose(st.h.reshape(2), h1, atol=1e-12)

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_split_chaining_bit_exact(self, variant):
        p = make_params(variant, d_model=4, seed=2)
        rng = ng.new_rng(9)
        x = rng.standard_normal((8, p.d_inner))
        with ng.no_grad():
            y_full, st_full = scan_sequential(p, Tensor(x))
            y1, st1 = scan_sequential(p, Tensor(x[:3]))
            y2, st2 = scan_sequential(p, Tensor(x[3:]), st1)
        assert np.array_equal(np.concatenate([y1.data, y2.data]), y_full.data)
        assert np.array_equal(st2.h, st_full.h)
        assert st2.position == st_full.position == 8

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_recorded_matches_streaming(self, variant):
        p = make_params(variant, d_model=4, seed=3)
        rng = ng.new_rng(11)
        x = rng.standard_normal((12, p.d_inner))
        with ng.no_grad():
            y_stream, st_s = scan_sequential(p, Tensor(x))
        y_rec, st_r = scan_sequential(p, Tensor(x, requires_grad=True))
        assert np.max(np.abs(y_stream.data - y_rec.data)) < 1e-14
        assert np.max(np.abs(st_s.h - st_r.h)) < 1e-14

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    @pytest.mark.parametrize("seed", range(5))
    def test_input_gradient_vs_finite_differences(self, variant, seed):
        p = make_params(variant, d_model=2, seed=seed)
        rng = ng.new_rng(50 + seed)
        x0 = rng.standard_normal((5, p.d_inner))
        w = rng.standard_normal((5, p.d_inner))

        def f(t):
            y, _ = scan_sequential(p, t)
            return ng.tsum(ng.mul(y, Tensor(w)))

        xt = Tensor(x0, requires_grad=True)
        y, _ = scan_sequential(p, xt)
        backward(ng.tsum(ng.mul(y, Tensor(w))))
        fd = finite_diff_grad(f, Tensor(x0))
        assert rel_err(xt.grad, fd) < 1e-4

    def test_bounded_state_under_long_input(self):
        p = make_params(MAMBA2, d_model=4, seed=4)
        rng = ng.new_rng(12)
        x = rng.standard_normal((2048, p.d_inner))
        with ng.no_grad():
            _, st = scan_sequential(p, Tensor(x))
        assert np.all(np.isfinite(st.h))
        assert np.max(np.abs(st.h)) < 1e4


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
            y_seq, _ = scan_sequential(p, Tensor(x))
            y_chk = scan_chunked_ssd(p, Tensor(x), chunk)
        assert np.max(np.abs(y_seq.data - y_chk.data)) < 1e-8

    def test_chunk_equals_t(self):
        p = make_params(MAMBA2, d_model=4, seed=7)
        rng = ng.new_rng(22)
        x = rng.standard_normal((32, p.d_inner))
        with ng.no_grad():
            y_seq, _ = scan_sequential(p, Tensor(x))
            y_chk = scan_chunked_ssd(p, Tensor(x), 32)
        assert np.max(np.abs(y_seq.data - y_chk.data)) < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_random_seeds_t64_chunk16(self, seed):
        p = make_params(MAMBA2, d_model=4, seed=200 + seed)
        rng = ng.new_rng(300 + seed)
        x = rng.standard_normal((64, p.d_inner))
        with ng.no_grad():
            y_seq, _ = scan_sequential(p, Tensor(x))
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
            y_seq, _ = scan_sequential(p, x)
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


class TestMambaBlock:
    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_zero_out_projection_is_identity(self, variant):
        p = make_params(variant, d_model=4, seed=9, out_std=0.0)
        rng = ng.new_rng(31)
        x = rng.standard_normal((6, 4))
        with ng.no_grad():
            y, _ = mamba_block_forward(p, Tensor(x))
        assert np.array_equal(y.data, x)

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    def test_causality_probe(self, variant):
        p = make_params(variant, d_model=4, seed=10)
        rng = ng.new_rng(32)
        x = rng.standard_normal((16, 4))
        x2 = x.copy()
        x2[10] += 3.0
        with ng.no_grad():
            y1, _ = mamba_block_forward(p, Tensor(x))
            y2, _ = mamba_block_forward(p, Tensor(x2))
        assert np.array_equal(y1.data[:10], y2.data[:10])
        assert not np.array_equal(y1.data[10:], y2.data[10:])

    def test_one_channel_hand_unrolled_oracle(self):
        # d_model=1 block, T=2, unrolled in raw numpy below.
        p = make_params(MAMBA1, d_model=1, seed=11, out_std=0.5)
        rng = ng.new_rng(33)
        x = rng.standard_normal((2, 1))
        with ng.no_grad():
            y, _ = mamba_block_forward(p, Tensor(x))

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
            y_full, st_full = mamba_block_forward(p, Tensor(x))
            y1, st1 = mamba_block_forward(p, Tensor(x[:4]))
            y2, st2 = mamba_block_forward(p, Tensor(x[4:]), st1)
        assert np.array_equal(np.concatenate([y1.data, y2.data]), y_full.data)
        assert np.array_equal(st2.h, st_full.h)
        assert np.array_equal(st2.conv_tail, st_full.conv_tail)

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    @pytest.mark.parametrize("seed", range(3))
    def test_block_gradient_vs_finite_differences(self, variant, seed):
        p = make_params(variant, d_model=2, seed=40 + seed)
        rng = ng.new_rng(60 + seed)
        x0 = rng.standard_normal((4, 2))
        w = rng.standard_normal((4, 2))

        def f(t):
            y, _ = mamba_block_forward(p, t)
            return ng.tsum(ng.mul(y, Tensor(w)))

        xt = Tensor(x0, requires_grad=True)
        y, _ = mamba_block_forward(p, xt)
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

        y, _ = mamba_block_forward(p, x)
        backward(ng.tsum(ng.mul(y, w)))

        for name in ["w_in", "conv_w", "w_delta", "delta_bias", "w_b", "w_c",
                     "a_log", "w_out", "norm_gain"]:
            param = getattr(p, name)
            base = param.data.copy()

            def f(t, _param=param):
                old = _param.data
                _param.data = t.data
                try:
                    y2, _ = mamba_block_forward(p, x)
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
    """The mamba2 block's chunked scan: chaining across chunk boundaries and
    agreement with the sequential oracle."""

    T = 2 * SSD_CHUNK + 5

    @pytest.mark.parametrize("variant", [MAMBA1, MAMBA2])
    @pytest.mark.parametrize("cut", [1, SSD_CHUNK - 1, SSD_CHUNK, SSD_CHUNK + 1, 2 * SSD_CHUNK + 4])
    def test_block_state_chaining_across_chunks(self, variant, cut):
        p = make_params(variant, d_model=4, seed=12)
        x = ng.new_rng(36).standard_normal((self.T, 4))
        with ng.no_grad():
            y_full, st_full = mamba_block_forward(p, Tensor(x))
            y1, st1 = mamba_block_forward(p, Tensor(x[:cut]))
            y2, st2 = mamba_block_forward(p, Tensor(x[cut:]), st1)
        assert np.array_equal(np.concatenate([y1.data, y2.data]), y_full.data)
        assert np.array_equal(st2.h, st_full.h)
        assert np.array_equal(st2.conv_tail, st_full.conv_tail)
        assert st2.position == st_full.position == self.T

    def test_chaining_in_many_pieces(self):
        # the open chunk is carried through several calls: one-row calls,
        # calls that stay inside a chunk and calls that close one
        p = make_params(MAMBA2, d_model=4, seed=13)
        x = ng.new_rng(37).standard_normal((self.T, 4))
        cuts = [0, 1, 2, 9, SSD_CHUNK, SSD_CHUNK + 1, 100, self.T]
        with ng.no_grad():
            y_full, st_full = mamba_block_forward(p, Tensor(x))
            st, ys = None, []
            for lo, hi in zip(cuts, cuts[1:]):
                y, st = mamba_block_forward(p, Tensor(x[lo:hi]), st)
                ys.append(y.data)
        assert np.array_equal(np.concatenate(ys), y_full.data)
        assert np.array_equal(st.h, st_full.h)

    @staticmethod
    def _oracle_params():
        p = make_params(MAMBA2, d_model=4, seed=16)
        rng = ng.new_rng(71)
        p.delta_bias = Tensor(np.log(np.expm1(rng.uniform(0.3, 0.9, p.n_delta))),
                              requires_grad=True)
        return p

    @pytest.mark.parametrize("carried", [False, True])
    def test_block_scan_matches_sequential_oracle(self, carried):
        p = self._oracle_params()
        rng = ng.new_rng(72)
        prefix = Tensor(rng.standard_normal((70, p.d_inner)))
        x0 = rng.standard_normal((self.T, p.d_inner))
        w = Tensor(rng.standard_normal((self.T, p.d_inner)))
        st_seq, st_chk = None, ssm.init_state(p)
        if carried:
            with ng.no_grad():
                _, st_seq = scan_sequential(p, prefix)
                _, st_chk = ssm._ssd_scan(p, prefix, ssm.init_state(p), SSD_CHUNK)
            assert st_chk.open_chunk is not None

        with ng.no_grad():
            y_seq, end_seq = scan_sequential(p, Tensor(x0), st_seq)
            y_chk, end_chk = ssm._ssd_scan(p, Tensor(x0), st_chk, SSD_CHUNK)
        assert max_rel_diff(y_chk.data, y_seq.data) < 1e-12
        assert max_rel_diff(end_chk.h, end_seq.h) < 1e-12
        assert end_chk.position == end_seq.position

        names = ["w_delta", "delta_bias", "w_b", "w_c", "a_log"]

        def grads(scan):
            for name in names:
                getattr(p, name).grad = None
            xt = Tensor(x0, requires_grad=True)
            backward(ng.tsum(ng.mul(scan(xt), w)))
            return [xt.grad] + [getattr(p, name).grad for name in names]

        g_seq = grads(lambda t: scan_sequential(p, t, st_seq)[0])
        g_chk = grads(lambda t: ssm._ssd_scan(p, t, st_chk, SSD_CHUNK)[0])
        for name, a, b in zip(["x"] + names, g_chk, g_seq):
            assert max_rel_diff(a, b) < 1e-12, name

    def test_chunk_groups_chain_values_and_gradients(self):
        # a small chunk puts several chunk groups in one call: the state
        # and its adjoint must pass between groups as between chunks
        chunk = 3
        T = 2 * ssm._SSD_GROUP * chunk + 5
        p = self._oracle_params()
        rng = ng.new_rng(73)
        x0 = rng.standard_normal((T, p.d_inner))
        w = Tensor(rng.standard_normal((T, p.d_inner)))
        with ng.no_grad():
            y_seq, end_seq = scan_sequential(p, Tensor(x0))
            y_chk, end_chk = ssm._ssd_scan(p, Tensor(x0), ssm.init_state(p), chunk)
            y1, mid = ssm._ssd_scan(p, Tensor(x0[:50]), ssm.init_state(p), chunk)
            y2, end2 = ssm._ssd_scan(p, Tensor(x0[50:]), mid, chunk)
        assert max_rel_diff(y_chk.data, y_seq.data) < 1e-12
        assert max_rel_diff(end_chk.h, end_seq.h) < 1e-12
        assert np.array_equal(np.concatenate([y1.data, y2.data]), y_chk.data)
        assert np.array_equal(end2.h, end_chk.h)

        grads = []
        for scan in (lambda t: scan_sequential(p, t)[0],
                     lambda t: ssm._ssd_scan(p, t, ssm.init_state(p), chunk)[0]):
            p.a_log.grad = None
            xt = Tensor(x0, requires_grad=True)
            backward(ng.tsum(ng.mul(scan(xt), w)))
            grads.append((xt.grad, p.a_log.grad))
        assert max_rel_diff(grads[1][0], grads[0][0]) < 1e-12
        assert max_rel_diff(grads[1][1], grads[0][1]) < 1e-12

    @pytest.mark.parametrize("grad", [False, True])
    def test_overflow_names_its_token(self, grad):
        # one row scaled far out of range: x*delta overflows at that token
        # only; the masked intra-chunk product must not smear the bad value
        # back to the start of its chunk
        p = make_params(MAMBA2, d_model=4, seed=0)
        x = ng.new_rng(0).standard_normal((100, p.d_inner))
        x[70] *= 1e200
        st = ssm.init_state(p)
        with ng.no_grad():
            _, st = ssm._ssd_scan(p, Tensor(ng.new_rng(1).standard_normal((37, p.d_inner))),
                                  st, SSD_CHUNK)

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
            with pytest.raises(NumericError, match=r"at token 107$"):
                attempt(lambda t: ssm._ssd_scan(p, t, st, SSD_CHUNK))

    def test_state_copy_is_deep(self):
        p = make_params(MAMBA2, d_model=4, seed=17)
        x = ng.new_rng(38).standard_normal((5, p.d_inner))
        with ng.no_grad():
            _, st = ssm._ssd_scan(p, Tensor(x), ssm.init_state(p), SSD_CHUNK)
        cp = st.copy()
        cp.open_chunk.da[0, 0] = 123.0
        cp.open_chunk.h[0, 0, 0] = 123.0
        assert st.open_chunk.da[0, 0] != 123.0 and st.open_chunk.h[0, 0, 0] != 123.0
