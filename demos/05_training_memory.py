# %%
# Training memory: one recorded step per architecture
# ===================================================
#
# The paper claims the hybrid trains in at least 50% less memory than a
# transformer.  This script runs one recorded training step (text logits,
# language-model loss, reverse pass; d = 64, 2 layers, N = 64 text tokens,
# batch 1, every parameter differentiable) per architecture at two video
# lengths, and prints the step's tracemalloc peak, its wall time and the
# hybrid/baseline ratios beside the paper's.  Beside each peak it prints
# what the forward keeps for the reverse pass (tracemalloc after the text
# logits and the loss), so the reverse pass's share of the peak is the
# difference.
#
# What each side keeps for the reverse pass differs by design.  The hybrid
# keeps, per state-space block, only each row group's inputs and outputs,
# and recomputes the group's body in the reverse pass, one group at a time.
# The baseline's attention keeps its probabilities P; recomputing them
# (FlashAttention-style) would take the quadratic term out of its training
# memory, and is not done here.  So the ratio compares these two
# implementations, not the two architectures at their best.

import time
import tracemalloc

import numpy as np

from hybridseq import model as mod
from hybridseq import numerics as ng
from hybridseq.model import ARCH_BASELINE, ARCH_HYBRID, HybridStackConfig, build_model
from hybridseq.training import lm_loss

D, LAYERS, N, VOCAB = 64, 2, 64, 256
PAPER_RATIO = 0.5  # "at least 50% less training memory"


def recorded_step(arch: str, m: int, repeats: int = 3) -> tuple[float, float, float]:
    """(tracemalloc peak in MB, what the forward keeps in MB, median wall
    time in ms) of one recorded training step over m video rows and N text
    tokens."""
    cfg = HybridStackConfig(d=D, n_layers=LAYERS, n_heads=4, vocab_size=VOCAB,
                            architecture=arch).validate()
    model = build_model(cfg, seed=0)
    rng = ng.new_rng(0)
    video, ids, targets = (rng.standard_normal((m, D)), rng.integers(0, VOCAB, N),
                           rng.integers(0, VOCAB, N))

    def forward():
        seq = mod.make_sequence(model, video, ids)
        return lm_loss(mod.text_logits(model, seq), targets)

    ng.backward(forward())  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ng.backward(forward())
        times.append((time.perf_counter() - t0) * 1e3)
    tracemalloc.start()
    try:
        loss = forward()
        kept = tracemalloc.get_traced_memory()[0]
        ng.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, kept / 2**20, float(np.median(times))


# %%
# Both architectures at M = 256 (the acceptance and graft-training shape)
# and M = 1024.

if __name__ == "__main__":
    print(f"{'M':>5} {'hybrid MB':>10} {'kept':>6} {'baseline MB':>12} {'kept':>6} {'h/b':>6} "
          f"{'hybrid ms':>10} {'baseline ms':>12} {'h/b':>6}   paper h/b memory")
    for m in (256, 1024):
        h_mb, h_kept, h_ms = recorded_step(ARCH_HYBRID, m)
        b_mb, b_kept, b_ms = recorded_step(ARCH_BASELINE, m)
        print(f"{m:>5} {h_mb:>10.1f} {h_kept:>6.1f} {b_mb:>12.1f} {b_kept:>6.1f} "
              f"{h_mb / b_mb:>6.2f} {h_ms:>10.1f} {b_ms:>12.1f} {h_ms / b_ms:>6.2f}   "
              f"<= {PAPER_RATIO:.2f}")
