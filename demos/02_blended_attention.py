# %%
# The blended text update
# =======================
#
# A baseline decoder runs one causal attention over the whole stream: every
# video token attends over the video prefix (the M x M score block that
# makes pre-fill quadratic) and every text token attends over all video
# plus the text prefix.  The hybrid keeps only the text-side update and
# splits it into two pieces:
#
#   * full cross-attention of the N text queries onto the M video tokens,
#   * causal self-attention among the N text tokens alone,
#
# combined as (1 - alpha) * cross + alpha * self with a learnable scalar;
# the M x M block disappears entirely (video tokens move to a linear-time
# scan instead).  This script shows the two endpoints, and why copying the
# self-attention weights into the new cross layer is the right starting
# point.

import numpy as np

from hybridseq import numerics as ng
from hybridseq.attention import (
    blended_text_update,
    causal_self_attention,
    cross_attention,
    cross_attention_scores,
    init_attention_params,
    init_cross_from_self,
    joint_text_scores,
)
from hybridseq.numerics import Tensor

rng = ng.new_rng(0)
d, heads, m, n = 16, 4, 12, 3
params_s = init_attention_params(ng.new_rng(1), d, heads)
video = Tensor(rng.standard_normal((m, d)))
text = Tensor(rng.standard_normal((n, d)))

# %%
# Endpoints: alpha = 0 is pure cross-attention, alpha = 1 pure causal
# self-attention, exactly.

params_c = init_attention_params(ng.new_rng(2), d, heads)
with ng.no_grad():
    blend0 = blended_text_update(params_s, params_c, 0.0, video, text)
    blend1 = blended_text_update(params_s, params_c, 1.0, video, text)
    cross = cross_attention(params_c, text, video)
    self_o = causal_self_attention(params_s, text)
print("alpha=0 equals cross branch:", np.array_equal(blend0.data, cross.data))
print("alpha=1 equals self branch: ", np.array_equal(blend1.data, self_o.data))

# %%
# Weight transfer.  The cross projections have the same shapes as the self
# ones, so a new cross layer can start as an exact copy.  After the copy,
# the cross logits of text query j against video token i coincide with the
# corresponding entries of the joint causal path's score matrix -- the two
# updates then differ only in how the softmax normalizes.

params_c = init_cross_from_self(params_s)
cross_logits = cross_attention_scores(params_c, text, video)
joint_logits = joint_text_scores(params_s, video, text)
print("cross logits == joint video columns:",
      np.array_equal(cross_logits, joint_logits[:, :, :m]))

# %%
# The blend weight is a real parameter: gradients flow through it.  Here is
# d(loss)/d(alpha_raw) checked against central differences.

from hybridseq.numerics import backward, finite_diff_grad

w = Tensor(rng.standard_normal((n, d)))
loss = ng.tsum(ng.mul(
    blended_text_update(params_s, params_c, ng.sigmoid(params_s.alpha_raw), video, text), w))
backward(loss)
fd = finite_diff_grad(
    lambda t: ng.tsum(ng.mul(blended_text_update(params_s, params_c, ng.sigmoid(t), video, text), w)),
    params_s.alpha_raw.detach(),
)
print(f"d/d(alpha_raw): autodiff {float(params_s.alpha_raw.grad):+.6f}  "
      f"finite-diff {float(fd):+.6f}")

# %%
# Cost: the blended path is linear in M at fixed N, because only the cross
# scores touch the video tokens.  (The text-row slice of the baseline is
# also linear in M -- the quadratic bill comes from the video rows' own
# self-attention, which the hybrid never runs; see demo 03 for the
# full-model comparison.)

text_cost = Tensor(rng.standard_normal((8, d)))
for m_probe in (256, 512, 1024, 2048):
    vid = Tensor(rng.standard_normal((m_probe, d)))
    with ng.no_grad(), ng.count_flops() as meter:
        blended_text_update(params_s, params_c, 0.5, vid, text_cost)
    print(f"M={m_probe:5d}: {meter.total:10.0f} FLOPs (blended)")

# %%
# The baseline's text rows reach as far (all video, causal text), but they
# come out of one causal attention over the whole [video; text] stream, so
# the video rows' queries ride along and the bill is quadratic in M.

for m_probe in (256, 512, 1024, 2048):
    vid = Tensor(rng.standard_normal((m_probe, d)))
    with ng.no_grad(), ng.count_flops() as meter:
        causal_self_attention(params_s, ng.concat_rows([vid, text_cost]))
    print(f"M={m_probe:5d}: {meter.total:10.0f} FLOPs (joint causal stream)")
