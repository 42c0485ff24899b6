# %%
# Selective state-space scans
# ===========================
#
# A state-space block updates a fixed-size hidden state once per token:
#
#     h_t = a_bar_t * h_{t-1} + b_bar_t * x_t,      y_t = C_t . h_t
#
# The step size, input projection and readout (delta_t, B_t, C_t) are
# functions of the current input, so the dynamics are content-dependent.
# This script walks the three layers of machinery: exact discretization,
# the sequential scan, and the chunked scan that matches it while being
# built out of matrix multiplications.

import numpy as np

from hybridseq import numerics as ng
from hybridseq.numerics import Tensor
from hybridseq.ssm import (
    init_ssm_params,
    linear_recurrence,
    scan_chunked_ssd,
    scan_sequential,
    zoh_discretize,
)

# %%
# Zero-order-hold discretization turns the continuous system
# h' = a h + b u into an exact one-step recurrence for piecewise-constant
# input.  The expm1 formulation keeps the a -> 0 limit (b_bar = delta * b)
# accurate to machine precision.

a_bar, b_bar = zoh_discretize(a=-1.0, b=1.0, delta=0.1)
print(f"a=-1, delta=0.1:  a_bar={a_bar:.7f}  b_bar={b_bar:.7f}")

_, b_tiny = zoh_discretize(a=-1e-14, b=2.0, delta=0.5)
print(f"a -> 0 limit:     b_bar={b_tiny:.12f}  (delta*b = 1.0)")

# %%
# Because ZOH is exact for constant input, scanning the discretized system
# reproduces the continuous solution h(t) = e^{at} h0 + (b u / a)(e^{at}-1)
# at every grid point.

a, b, u, h0, delta, steps = -0.8, 0.5, 0.7, 0.3, 1e-3, 2000
a_bar, b_bar = zoh_discretize(a, b, delta)
states = linear_recurrence(
    Tensor(np.full((steps, 1), a_bar)), Tensor(np.full((steps, 1), b_bar * u)),
    np.array([h0]),
).data[:, 0]
t = steps * delta
exact = np.exp(a * t) * h0 + (b * u / a) * (np.exp(a * t) - 1.0)
print(f"LTI scan vs ODE at t={t:.1f}:  |err| = {abs(states[-1] - exact):.2e}")

# %%
# The full selective scan.  A fresh block with a seeded generator; the
# sequential scan is the reference semantics.

rng = ng.new_rng(0)
params = init_ssm_params(ng.new_rng(1), d_model=4, variant="mamba2", out_init_std=0.3)
x = Tensor(rng.standard_normal((256, params.d_inner)))

with ng.no_grad():
    y_seq = scan_sequential(params, x)
print(f"sequential scan: y {y_seq.shape}")

# %%
# Causality: a token's output depends only on the tokens up to it, so
# scanning the first 100 tokens alone reproduces the first 100 outputs of
# the whole scan bit-for-bit.

with ng.no_grad():
    y_head = scan_sequential(params, Tensor(x.data[:100]))
print("prefix scan bit-exact:", np.array_equal(y_head.data, y_seq.data[:100]))

# %%
# The chunked scan processes fixed-size blocks with an intra-chunk matrix
# form plus a carried inter-chunk state.  Same numbers, better hardware
# shape: this is what makes training-scale scans matmul-bound.

for chunk in (1, 16, 64, 256):
    with ng.no_grad():
        y_chk = scan_chunked_ssd(params, x, chunk)
    gap = np.max(np.abs(y_chk.data - y_seq.data))
    print(f"chunk={chunk:4d}: max |chunked - sequential| = {gap:.2e}")

# %%
# Work grows linearly in sequence length: count the FLOPs the scan reports.

for T in (256, 512, 1024, 2048):
    xt = Tensor(rng.standard_normal((T, params.d_inner)))
    with ng.no_grad(), ng.count_flops() as meter:
        scan_sequential(params, xt)
    print(f"T={T:5d}: {meter.total:12.0f} FLOPs  ({meter.total / T:8.0f} per token)")
