# %%
# Inference memory: what a prefill holds beside the video caches
# ===============================================================
#
# The paper's headline is a memory result: the hybrid encodes far more
# frames than a transformer in the same memory.  At inference the state a
# decode needs is the same size on both sides: every layer keeps a key and
# a value row per video token (the hybrid in its cross-attention cache, the
# baseline in its joint self-attention cache).  What separates them is what
# prefill builds on the way.
#
# This script runs `make_sequence` plus a no-grad `prefill` per
# architecture (d = 64, 2 layers, N = 64 text tokens) at two video lengths
# and prints their tracemalloc peak, traced from after the video array
# exists, beside the bytes of the video rows' keys and values in the decode
# context.  "Rest / video" is the peak less those bytes, in units of the
# [M, d] video array: a sequence reads the caller's video rows without
# copying them, so on the hybrid this stays near one array (one row group's
# temporaries, the text and the head) whatever M is.

import time
import tracemalloc

from hybridseq import model as mod
from hybridseq import numerics as ng
from hybridseq.model import ARCH_BASELINE, ARCH_HYBRID, HybridStackConfig, build_model

D, LAYERS, N, VOCAB = 64, 2, 64, 256


def video_kv_bytes(ctx: mod.DecodeContext, m: int) -> int:
    """Bytes of the m video rows' keys and values over every layer of a
    decode context: the hybrid's video caches, the baseline's first m rows
    of its joint caches."""
    total = 0
    for cache in ctx.caches:
        if cache.video_kv is not None:
            total += cache.video_kv.k.nbytes + cache.video_kv.v.nbytes
        else:
            total += cache.text_k[:, :m].nbytes + cache.text_v[:, :m].nbytes
    return total


def prefill_memory(arch: str, m: int) -> tuple[float, float, float, float]:
    """(tracemalloc peak of make_sequence plus prefill in MB, the video
    rows' key/value bytes in MB, the video array in MB, wall time in ms)."""
    cfg = HybridStackConfig(d=D, n_layers=LAYERS, n_heads=4, vocab_size=VOCAB,
                            architecture=arch).validate()
    model = build_model(cfg, seed=0)
    rng = ng.new_rng(1)
    video, ids = rng.standard_normal((m, D)), rng.integers(0, VOCAB, N)
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        _, ctx = mod.prefill(model, mod.make_sequence(model, video, ids))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ms = (time.perf_counter() - t0) * 1e3
    return peak / 2**20, video_kv_bytes(ctx, m) / 2**20, video.nbytes / 2**20, ms


# %%
# Both architectures at M = 2048 (the baseline benchmark's length) and
# M = 8192 (the hybrid's).  Times run under tracemalloc and are indicative.

if __name__ == "__main__":
    print(f"{'arch':<22} {'M':>5} {'peak MB':>8} {'video K/V MB':>13} {'rest / video':>13} "
          f"{'ms':>8}")
    for arch in (ARCH_HYBRID, ARCH_BASELINE):
        for m in (2048, 8192):
            peak, kv, video_mb, ms = prefill_memory(arch, m)
            print(f"{arch:<22} {m:>5} {peak:>8.2f} {kv:>13.2f} {(peak - kv) / video_mb:>13.2f} "
                  f"{ms:>8.0f}")
