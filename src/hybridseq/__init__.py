"""hybridseq: a desk-scale hybrid state-space/attention decoder.

The package pairs two interchangeable sequence architectures -- a causal
transformer baseline and a hybrid that routes video tokens through linear-
time state-space blocks while text tokens attend through a blended
cross+self attention -- with a training harness and a complexity profiler
that measures the quadratic-versus-linear cost separation between them.

Module map
----------
numerics   float64 tensors, reverse-mode autodiff, FLOP metering
ssm        ZOH discretization, selective scans (sequential and chunked),
           state-space blocks
attention  causal self-attention, cross-attention, the blended text update,
           cross-from-self weight transfer
model      stack assembly, token routing, prefill/decode, checkpoints
training   LM + top-k distillation losses, synthetic tasks, the two-stage
           training loop
profiler   analytic cost model, FLOP counting, memory estimates, scaling
           fits, wall-clock benchmarks
cli        train / eval / bench / analyze / sweep commands
"""

from . import attention, cli, model, numerics, profiler, ssm, training
from .attention import (
    AttentionParams,
    KVRows,
    blended_text_update,
    causal_self_attention,
    cross_attention,
    init_attention_params,
    init_cross_from_self,
)
from .model import (
    ARCH_BASELINE,
    ARCH_HYBRID,
    DecodeContext,
    HybridStackConfig,
    Model,
    TokenSequence,
    build_model,
    decode_step,
    generate_greedy,
    hybrid_from_baseline,
    load_checkpoint,
    make_sequence,
    named_parameters,
    prefill,
    save_checkpoint,
    text_logits,
)
from .numerics import (
    ContractError,
    FlopMeter,
    GradTape,
    HybridSeqError,
    NumericError,
    ShapeError,
    Tensor,
    backward,
    count_flops,
    finite_diff_grad,
    new_rng,
    no_grad,
)
from .profiler import (
    CostReport,
    analytic_cost,
    bench,
    counted_cost,
    fit_scaling_exponent,
    leading_term_cost,
    memory_estimate,
)
from .ssm import (
    SSMParams,
    hippo_init,
    init_ssm_params,
    mamba_block_forward,
    scan_chunked_ssd,
    scan_sequential,
    zoh_discretize,
)
from .training import (
    SyntheticTask,
    TrainConfig,
    combined_loss,
    distill_loss,
    evaluate,
    generate_task,
    lm_loss,
    train,
)

__version__ = "0.1.0"
