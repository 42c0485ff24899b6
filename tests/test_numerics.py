"""Tests for the tensor/autodiff substrate."""

import math
import threading

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from hybridseq import numerics as ng
from hybridseq.numerics import (
    ContractError,
    GradTape,
    NumericError,
    ShapeError,
    Tensor,
    backward,
    finite_diff_grad,
)


def rel_err(ad: np.ndarray, fd: np.ndarray) -> float:
    return float(np.max(np.abs(ad - fd) / (np.abs(fd) + 1e-8)))


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(ng.matmul(eye, a).data, a.data)

    def test_hand_multiplication(self):
        # [[1,2],[3,4]] x [[0],[1]] -> [[2],[4]], by hand.
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.0], [1.0]])
        assert np.array_equal(ng.matmul(a, b).data, [[2.0], [4.0]])

    def test_annihilator(self):
        z = Tensor(np.zeros((3, 4)))
        b = Tensor(np.arange(20.0).reshape(4, 5))
        assert np.array_equal(ng.matmul(z, b).data, np.zeros((3, 5)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ng.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    @pytest.mark.parametrize("seed", range(5))
    def test_associativity(self, seed):
        rng = ng.new_rng(seed)
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 5))
        c = rng.standard_normal((5, 3))
        left = (Tensor(a) @ Tensor(b)) @ Tensor(c)
        right = Tensor(a) @ (Tensor(b) @ Tensor(c))
        denom = np.abs(left.data) + 1e-12
        assert np.max(np.abs(left.data - right.data) / denom) < 1e-9


class TestMatmulRowIndependence:
    @pytest.mark.parametrize("k,n", [(4, 16), (8, 64), (64, 256)])
    def test_one_row_matches_its_row_in_a_larger_product(self, k, n):
        rng = ng.new_rng(k * n)
        a = rng.standard_normal((9, k))
        b = Tensor(rng.standard_normal((k, n)))
        full = ng.matmul(Tensor(a), b).data
        for i in (0, 8):
            assert np.array_equal(ng.matmul(Tensor(a[i : i + 1]), b).data, full[i : i + 1])


class TestBatchedOps:
    def test_bmatmul_matches_per_batch_products(self):
        rng = ng.new_rng(3)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 1, 5, 6))  # broadcast over axis 1
        out = ng.bmatmul(Tensor(a), Tensor(b)).data
        for i in range(2):
            for j in range(3):
                assert np.allclose(out[i, j], a[i, j] @ b[i, 0], atol=1e-14)

    def test_bmatmul_meters_two_flops_per_multiply_add(self):
        with ng.count_flops() as meter:
            ng.bmatmul(Tensor(np.ones((3, 2, 4))), Tensor(np.ones((3, 4, 5))))
        assert meter.by_kind["matmul"] == 2 * 3 * 2 * 4 * 5

    def test_bmatmul_shape_errors(self):
        with pytest.raises(ShapeError):
            ng.bmatmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            ng.bmatmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3, 4))))

    def test_permute_round_trip_and_contract(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        y = ng.permute(x, (2, 0, 1))
        assert y.shape == (4, 2, 3) and y.data.flags["C_CONTIGUOUS"]
        assert np.array_equal(ng.permute(y, (1, 2, 0)).data, x.data)
        with pytest.raises(ShapeError):
            ng.permute(x, (0, 0, 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        rng = ng.new_rng(2000 + seed)
        b = Tensor(rng.standard_normal((2, 1, 4, 3)))
        w = Tensor(rng.standard_normal((2, 3, 3, 5)))

        def f(t):
            y = ng.bmatmul(ng.permute(t, (0, 2, 1, 3)), b)  # [2, 3, 5, 3]
            return ng.tsum(ng.mul(ng.permute(y, (0, 1, 3, 2)), w))

        x = Tensor(rng.standard_normal((2, 5, 3, 4)), requires_grad=True)
        bt = Tensor(b.data, requires_grad=True)
        backward(ng.tsum(ng.mul(ng.permute(
            ng.bmatmul(ng.permute(x, (0, 2, 1, 3)), bt), (0, 1, 3, 2)), w)))
        assert rel_err(x.grad, finite_diff_grad(f, x.detach())) < 1e-4
        fd_b = finite_diff_grad(
            lambda t: ng.tsum(ng.mul(ng.permute(
                ng.bmatmul(ng.permute(x.detach(), (0, 2, 1, 3)), t), (0, 1, 3, 2)), w)),
            b,
        )
        assert bt.grad.shape == b.shape
        assert rel_err(bt.grad, fd_b) < 1e-4


class TestSigmoid:
    def test_matches_the_sign_branched_form(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 10001), [-800.0, 800.0, 0.0]])
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        ref[~pos] = e / (1.0 + e)
        out = ng.sigmoid(Tensor(x)).data
        assert np.max(np.abs(out - ref) / ref.clip(min=1e-300)) < 1e-15
        assert out[-3] == 0.0 and out[-2] == 1.0 and out[-1] == 0.5


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Units in the last place between float64s of the same sign."""
    assert np.array_equal(np.signbit(a), np.signbit(b))
    return np.abs(a.view(np.int64) - b.view(np.int64))


def _erf_tiles(x: np.ndarray) -> np.ndarray:
    tile = ng._ERF_TILE
    return np.concatenate([ng._erf(x[lo : lo + tile]) for lo in range(0, x.size, tile)])


@pytest.mark.filterwarnings("error")
class TestErf:
    """`numerics._erf` against `scipy.special.erf`, which runs the same
    Cephes algorithm; they differ only where numpy's exp rounds differently
    from libm's."""

    def test_within_one_ulp_of_scipy_and_exact_on_the_unit_interval(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 10**6 + 1),
                            ng.new_rng(11).uniform(-3.0, 3.0, 2 * 10**5)])
        d = _ulps(_erf_tiles(x), scipy_erf(x))
        assert d.max() <= 1
        assert d[np.abs(x) <= 1.0].max() == 0

    def test_special_values(self):
        x = np.array([0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), 5.9, 6.0, 8.0,
                      1e300, -1e300, np.inf, -np.inf, 5e-324])
        got = ng._erf(x)
        assert _ulps(got, scipy_erf(x)).max() <= 1
        assert np.signbit(got[1]) and got[1] == 0.0
        assert got[6] == got[7] == got[8] == got[10] == 1.0
        assert got[9] == got[11] == -1.0
        assert np.isnan(ng._erf(np.array([np.nan, -np.nan]))).all()


class TestGelu:
    @pytest.mark.parametrize("shape", [(2112, 256), (700, 300)])
    def test_a_row_alone_equals_its_row_in_a_block(self, shape):
        # the first and last rows, and the rows on either side of the first
        # tile boundary (which cuts a 300-value row in two)
        edge = ng._ERF_TILE // shape[1]
        rows = (0, edge - 1, edge, shape[0] - 1)
        x = ng.new_rng(12).standard_normal(shape) * 2.0
        with ng.no_grad():
            block = ng.gelu(Tensor(x)).data
            alone = [ng.gelu(Tensor(x[r : r + 1])).data[0] for r in rows]
        recorded = ng.gelu(Tensor(x, requires_grad=True)).data
        assert np.array_equal(recorded, block)
        for r, row in zip(rows, alone):
            assert np.array_equal(row, block[r])


class TestSoftmaxRows:
    def test_constant_row_is_uniform(self):
        out = ng.softmax_rows(Tensor([[7.0, 7.0, 7.0]]))
        assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_closed_form(self):
        # [0, ln 3] -> [e^0, e^ln3] / (1 + 3) = [0.25, 0.75]
        out = ng.softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_single_unmasked_entry(self):
        out = ng.softmax_rows(
            Tensor([[5.0, -1.0]]), mask=np.array([[True, False]])
        )
        assert np.array_equal(out.data, [[1.0, 0.0]])

    def test_fully_masked_row(self):
        with pytest.raises(ContractError):
            ng.softmax_rows(Tensor([[1.0, 2.0]]), mask=np.array([[False, False]]))

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_sum_to_one(self, seed):
        rng = ng.new_rng(seed)
        x = Tensor(rng.standard_normal((6, 9)) * 10)
        mask = rng.random((6, 9)) < 0.7
        mask[:, 0] = True
        p = ng.softmax_rows(x, mask=mask).data
        assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all((p >= 0) & (p <= 1))
        assert np.all(p[~mask] == 0.0)


class TestLayerNorm:
    def test_constant_vector(self):
        x = Tensor([4.0, 4.0, 4.0])
        out = ng.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-3)

    def test_two_point(self):
        # mean 2, population std 1 -> [-1, 1] as eps -> 0
        out = ng.layer_norm(
            Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-14
        )
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-7)

    def test_zero_gain_broadcasts_bias(self):
        rng = ng.new_rng(0)
        x = Tensor(rng.standard_normal((5, 4)))
        bias = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        out = ng.layer_norm(x, Tensor(np.zeros(4)), bias)
        assert np.array_equal(out.data, np.broadcast_to(bias.data, (5, 4)))

    def test_eps_contract(self):
        with pytest.raises(ContractError):
            ng.layer_norm(Tensor([1.0]), Tensor([1.0]), Tensor([0.0]), eps=0.0)

    def test_sums_over_the_width_round_as_np_mean(self):
        # layer_norm takes mean and variance as sum / d; pinned against the
        # np.mean form bit for bit
        rng = ng.new_rng(11)
        shapes = [(1, 64), (3, 64), (64, 64), (65, 256), (1000, 256)]
        for i in range(500):
            shape = shapes[i % len(shapes)]
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-50, 50)
            gain, bias = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
            xc = x - x.mean(axis=-1, keepdims=True)
            var = (xc * xc).mean(axis=-1, keepdims=True)
            ref = xc * (1.0 / np.sqrt(var + 1e-6)) * gain + bias
            got = ng.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
            assert np.array_equal(got, ref), f"array {i}, shape {shape}"


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(ng.tsum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        backward(ng.tsum(x * x))
        assert np.allclose(x.grad, 2 * x.data)

    def test_cross_entropy_matches_p_minus_onehot(self):
        rng = ng.new_rng(3)
        logits = Tensor(rng.standard_normal((1, 5)), requires_grad=True)
        target = 2
        lsm = ng.log_softmax_rows(logits)
        loss = -ng.tsum(ng.take_along_rows(lsm, np.array([[target]])))
        backward(loss)
        p = np.exp(lsm.data)
        expected = p.copy()
        expected[0, target] -= 1.0
        assert np.allclose(logits.grad, expected, atol=1e-12)
        # independent oracle: central finite differences
        def f(t):
            l2 = ng.log_softmax_rows(t)
            return -ng.tsum(ng.take_along_rows(l2, np.array([[target]])))

        fd = finite_diff_grad(f, logits.detach())
        assert rel_err(logits.grad, fd) < 1e-4

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            backward(x * 2.0)

    def test_gradient_map_covers_leaves(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        grads = backward(ng.tsum(x * y + x))
        assert x in grads and y in grads
        assert grads[x].shape == x.shape

    def test_accumulate(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        backward(ng.tsum(x * x))
        backward(ng.tsum(x * x), accumulate=True)
        assert np.allclose(x.grad, [8.0])

    def test_tape_topological_order(self):
        x = Tensor(np.ones(2), requires_grad=True)
        z = ng.tsum(ng.exp(x) * x)
        tape = GradTape(z)
        pos = {id(n): i for i, n in enumerate(tape.nodes)}
        for node in tape.nodes:
            for p in node._parents:
                assert pos[id(p)] < pos[id(node)]


class TestGradientsOnlyWhereRead:
    """A VJP computes no gradient for a parent without requires_grad, and
    the tape carries no all-zero adjoint out of a concatenation."""

    BINARY = {
        "add": ng.add,
        "sub": ng.sub,
        "mul": ng.mul,
        "div": ng.div,
        "matmul": ng.matmul,
        "bmatmul": ng.bmatmul,
        "mul_broadcast": ng.mul,
        "concat_rows": lambda a, b: ng.concat_rows([a, b]),
        "concat_cols": lambda a, b: ng.concat_cols([a, b]),
    }
    # operand shapes where not [3, 3]: the per-step scan's outer products,
    # [T, 1, 1, p] x [n, p] -> [T, 1, n, p]
    SHAPES = {"mul_broadcast": ((5, 1, 1, 3), (2, 3))}

    @pytest.mark.parametrize("name", sorted(BINARY))
    @pytest.mark.parametrize("which", [0, 1])
    def test_binary_vjp_returns_none_for_the_constant(self, name, which):
        rng = ng.new_rng(20)
        shapes = self.SHAPES.get(name, ((3, 3), (3, 3)))
        ops = [Tensor(rng.standard_normal(shape) + 3.0) for shape in shapes]
        ops[which].requires_grad = True
        out = self.BINARY[name](*ops)
        grads = out._vjp(rng.standard_normal(out.shape))
        assert grads[which].shape == ops[which].shape
        assert grads[1 - which] is None

    def test_layer_norm_computes_only_what_is_differentiable(self):
        rng = ng.new_rng(21)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        gain, bias = Tensor(np.ones(3)), Tensor(np.zeros(3), requires_grad=True)
        out = ng.layer_norm(x, gain, bias)
        dx, dgain, dbias = out._vjp(rng.standard_normal((4, 3)))
        assert dx.shape == (4, 3) and dgain is None and dbias.shape == (3,)

    def test_frozen_weight_gets_no_adjoint(self):
        rng = ng.new_rng(22)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)))
        loss = ng.tsum(ng.mul(ng.matmul(x, w), 2.0))
        adj = GradTape(loss).run()
        assert id(w) not in adj
        assert np.array_equal(adj[id(x)], np.full((4, 2), 2.0) @ w.data.T)

    def test_all_zero_part_of_a_concatenation_is_not_propagated(self):
        rng = ng.new_rng(23)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        z = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        e = ng.exp(x)
        loss = ng.tsum(ng.slice_rows(ng.concat_rows([e, z]), 2, 5))  # z's rows only
        adj = GradTape(loss).run()
        assert id(e) not in adj and id(x) not in adj
        grads = backward(loss)
        # a reachable leaf nothing reached still gets its (zero) gradient
        assert x in grads and np.array_equal(x.grad, np.zeros((2, 3)))
        assert np.array_equal(z.grad, np.ones((3, 3)))


class TestRowSliceAdjoints:
    """Row-slice adjoints are added in place into buffers the tape owns."""

    @pytest.mark.parametrize("slice_first", [False, True])
    def test_shared_adjoint_is_copied_before_the_in_place_add(self, slice_first):
        # add's VJP hands one array to both parents; writing a slice of x's
        # adjoint into it would leak into z's
        rng = ng.new_rng(5)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        z = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w, w2 = rng.standard_normal((4, 3)), rng.standard_normal((2, 3))
        whole = ng.tsum(ng.mul(ng.add(x, z), Tensor(w)))
        part = ng.tsum(ng.mul(ng.slice_rows(x, 1, 3), Tensor(w2)))
        backward(ng.add(part, whole) if slice_first else ng.add(whole, part))
        expected = w.copy()
        expected[1:3] += w2
        assert np.array_equal(z.grad, w)
        assert np.array_equal(x.grad, expected)

    def test_view_adjoint_is_copied_before_the_in_place_add(self):
        # concat_rows hands each part a view of its own adjoint
        rng = ng.new_rng(6)
        x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        z = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        cat = ng.concat_rows([x, z])
        w, w2 = rng.standard_normal((5, 2)), rng.standard_normal((1, 2))
        loss = ng.add(ng.tsum(ng.mul(cat, Tensor(w))),
                      ng.tsum(ng.mul(ng.slice_rows(x, 2, 3), Tensor(w2))))
        adj = GradTape(loss).run()
        assert np.array_equal(adj[id(cat)], w)
        expected = w[:3].copy()
        expected[2:] += w2
        assert np.array_equal(adj[id(x)], expected)
        assert np.array_equal(adj[id(z)], w[3:])

    def test_blocks_sum_to_the_dense_adjoint(self):
        # every row once through a block of a row split, some rows again
        rng = ng.new_rng(7)
        x = Tensor(rng.standard_normal((10, 3)), requires_grad=True)
        w = rng.standard_normal((10, 3))
        parts = [ng.slice_rows(x, lo, min(lo + 4, 10)) for lo in range(0, 10, 4)]
        loss = ng.add(ng.tsum(ng.mul(ng.concat_rows(parts), Tensor(w))),
                      ng.tsum(ng.slice_rows(x, 3, 6)))
        backward(loss)
        expected = w.copy()
        expected[3:6] += 1.0
        assert np.array_equal(x.grad, expected)


class TestFiniteDiff:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0]))
        fd = finite_diff_grad(lambda t: ng.tsum(t * t), x)
        assert np.allclose(fd, [2.0, 4.0], atol=1e-8)

    def test_logsumexp_matches_softmax(self):
        rng = ng.new_rng(1)
        x = Tensor(rng.standard_normal(6))

        def lse(t):
            row = ng.reshape(t, (1, -1))
            p = ng.log_softmax_rows(row)
            # log-sum-exp = x_j - log_softmax(x)_j for any j; use j=0
            return t.data[0] - p.data[0, 0]

        fd = finite_diff_grad(lse, x)
        expect = np.exp(x.data) / np.exp(x.data).sum()
        assert np.allclose(fd, expect, atol=1e-7)

    def test_constant_function(self):
        fd = finite_diff_grad(lambda t: 3.14, Tensor(np.ones(4)))
        assert np.allclose(fd, 0.0)


PRIMITIVE_CASES = [
    ("exp", lambda x: ng.tsum(ng.exp(x)), (3, 4)),
    ("expm1", lambda x: ng.tsum(ng.mul(ng.expm1(x), x)), (3, 4)),
    ("slice_cols",
     lambda x: ng.tsum(ng.mul(ng.slice_cols(x, 1, 3), ng.slice_cols(x, 0, 2))), (4, 3)),
    # tanh(x) = 2 sigmoid(2x) - 1, through the scalar ops around sigmoid
    ("tanh", lambda x: ng.tsum(ng.sub(ng.mul(ng.sigmoid(ng.mul(x, 2.0)), 2.0), 1.0)), (6,)),
    ("sigmoid", lambda x: ng.tsum(ng.sigmoid(x)), (6,)),
    ("silu", lambda x: ng.tsum(ng.silu(x)), (6,)),
    ("softplus", lambda x: ng.tsum(ng.softplus(x)), (6,)),
    ("gelu", lambda x: ng.tsum(ng.gelu(x)), (6,)),
    ("matmul", lambda x: ng.tsum(ng.matmul(x, ng.permute(x, (1, 0)))), (4, 3)),
    # the per-step scan's readout, the contraction c[t,n] s[t,h,n,p] -> y[t,h,p],
    # as one bmatmul [T, 1, 1, n] x [T, h, n, p] broadcast over the heads
    ("einsum", lambda x: ng.tsum(ng.bmatmul(ng.reshape(ng.slice_cols(x, 0, 4), (3, 1, 1, 4)),
                                            ng.reshape(x, (3, 2, 4, 3)))), (3, 24)),
    ("softmax", lambda x: ng.tsum(ng.mul(ng.softmax_rows(x), x)), (4, 5)),
    ("log_softmax", lambda x: ng.tsum(ng.mul(ng.log_softmax_rows(x), x)), (4, 5)),
    (
        "layer_norm",
        lambda x: ng.tsum(
            ng.mul(
                ng.layer_norm(
                    x,
                    Tensor(np.linspace(0.5, 1.5, x.shape[-1])),
                    Tensor(np.linspace(-0.2, 0.2, x.shape[-1])),
                ),
                x,
            )
        ),
        (4, 6),
    ),
    ("cumsum", lambda x: ng.tsum(ng.mul(ng.cumsum0(x), x)), (5, 3)),
    ("div", lambda x: ng.tsum(ng.div(x, ng.add(ng.mul(x, x), 2.0))), (4, 4)),
    ("slice", lambda x: ng.tsum(ng.mul(ng.slice_rows(x, 1, 3), 2.0)), (5, 3)),
    ("concat", lambda x: ng.tsum(ng.mul(ng.concat_rows([x, x]), 0.5)), (3, 3)),
    (
        "take_along",
        lambda x: ng.tsum(ng.take_along_rows(x, np.array([[0, 2], [1, 0], [2, 2]]))),
        (3, 4),
    ),
    ("matmul_t", lambda x: ng.tsum(ng.mul(ng.matmul_t(ng.slice_rows(x, 0, 2), x), 0.5)), (4, 3)),
]


@pytest.mark.parametrize("name,fn,shape", PRIMITIVE_CASES)
@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients_match_finite_differences(name, fn, shape, seed):
    """Every differentiable primitive: autodiff vs central differences."""
    rng = ng.new_rng(1000 + seed)
    x = Tensor(rng.standard_normal(shape) * 0.8, requires_grad=True)
    loss = fn(x)
    backward(loss)
    fd = finite_diff_grad(fn, x.detach())
    assert rel_err(x.grad, fd) < 1e-4, f"{name}: rel err too large"


class TestModesAndMeter:
    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ng.no_grad():
            y = x * 2.0
        assert not y.requires_grad and y._vjp is None

    def test_flop_meter_matmul(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((3, 4)))
        with ng.count_flops() as meter:
            ng.matmul(a, b)
        assert meter.by_kind["matmul"] == 48  # 2*m*n*k

    def test_meter_nesting_restores(self):
        with ng.count_flops() as outer:
            ng.add(Tensor(np.ones(4)), 1.0)
            with ng.count_flops() as inner:
                ng.add(Tensor(np.ones(8)), 1.0)
            ng.add(Tensor(np.ones(2)), 1.0)
        assert inner.total == 8
        assert outer.total == 6

    def test_matmul_t_is_the_product_with_the_transpose(self):
        rng = ng.new_rng(12)
        a, b = Tensor(rng.standard_normal((3, 5))), Tensor(rng.standard_normal((7, 5)))
        with ng.count_flops() as meter:
            out = ng.matmul_t(a, b)
        assert np.allclose(out.data, a.data @ b.data.T, rtol=0, atol=1e-13)
        assert meter.total == 2 * 3 * 5 * 7
        with pytest.raises(ShapeError):
            ng.matmul_t(a, Tensor(np.zeros((5, 7))))

    def test_modes_are_per_thread(self):
        # a new thread starts with grad on and no meter, whatever the thread
        # that starts it has switched; switches made in it stay in it
        entered, leave = threading.Event(), threading.Event()
        seen = {}

        def worker():
            x = Tensor(np.ones(3), requires_grad=True)
            seen["fresh"] = (ng.is_grad_enabled(), ng.mul(x, 2.0).requires_grad)
            with ng.no_grad(), ng.count_flops() as meter:
                entered.set()
                leave.wait(10)
                seen["kept"] = (ng.is_grad_enabled(), ng.mul(x, 2.0).requires_grad)
                ng.add(Tensor(np.ones(5)), 1.0)
            seen["meter"] = meter.total

        with ng.no_grad(), ng.count_flops() as outer:
            thread = threading.Thread(target=worker)
            thread.start()
            entered.wait(10)
            ng.add(Tensor(np.ones(2)), 1.0)
        x = Tensor(np.ones(3), requires_grad=True)
        assert ng.is_grad_enabled() and ng.mul(x, 2.0).requires_grad
        leave.set()
        thread.join(10)
        assert seen == {"fresh": (True, True), "kept": (False, False), "meter": 3 + 5}
        assert outer.total == 2

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.inf, 1.0])

    def test_rng_is_reproducible(self):
        a = ng.new_rng(7).standard_normal(5)
        b = ng.new_rng(7).standard_normal(5)
        assert np.array_equal(a, b)
