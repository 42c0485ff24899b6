"""Tests for the tensor/autodiff substrate."""

import math

import numpy as np
import pytest

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
    ("log", lambda x: ng.tsum(ng.log(ng.add(ng.mul(x, x), 1.5))), (3, 4)),
    ("sqrt", lambda x: ng.tsum(ng.sqrt(ng.add(ng.mul(x, x), 1.0))), (5,)),
    ("tanh", lambda x: ng.tsum(ng.tanh(x)), (6,)),
    ("sigmoid", lambda x: ng.tsum(ng.sigmoid(x)), (6,)),
    ("silu", lambda x: ng.tsum(ng.silu(x)), (6,)),
    ("softplus", lambda x: ng.tsum(ng.softplus(x)), (6,)),
    ("gelu", lambda x: ng.tsum(ng.gelu(x)), (6,)),
    ("matmul", lambda x: ng.tsum(ng.matmul(x, ng.transpose(x))), (4, 3)),
    ("einsum", lambda x: ng.tsum(ng.einsum2("ij,kj->ik", x, x)), (4, 3)),
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

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.inf, 1.0])

    def test_rng_is_reproducible(self):
        a = ng.new_rng(7).standard_normal(5)
        b = ng.new_rng(7).standard_normal(5)
        assert np.array_equal(a, b)
