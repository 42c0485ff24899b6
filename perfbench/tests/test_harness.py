"""Tests of the benchmark's own rules: percentiles, span arithmetic and
failure accounting.  Run with `python3 -m pytest perfbench/tests`."""

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from harness import Ops, closed_loop, min_samples_for, percentile, quartile_spread, tail_valid  # noqa: E402
from hybridseq import model, ssm  # noqa: E402
from hybridseq.numerics import HybridSeqError, NumericError  # noqa: E402
from tracer import END, PARENT, START, Tracer, self_times_ns, summarize  # noqa: E402

# -- percentiles and the sample-count rule -------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert min_samples_for(90) == 100
    assert min_samples_for(99) == 1000
    assert min_samples_for(50) == 20
    assert not tail_valid(99, 90)
    assert tail_valid(100, 90)


def test_percentile_interpolates_and_rejects_empty():
    xs = list(range(1, 101))  # 1..100
    assert percentile(xs, 50) == 50.5
    assert percentile(xs, 90) == pytest.approx(90.1)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread_matches_statistics():
    xs = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 8.0, 10.0, 10.2, 9.8]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    assert quartile_spread(xs) == pytest.approx((q3 - q1) / statistics.median(xs))


# -- self time -------------------------------------------------------------------


def _span(name, start, end, parent=None, op=0):
    return [name, start, end, parent, op, None]


def test_self_time_subtracts_children_once():
    spans = [
        _span("outer", 0, 100),
        _span("a", 10, 30, parent=0),
        _span("a.inner", 12, 20, parent=1),
        _span("b", 50, 90, parent=0),
    ]
    assert self_times_ns(spans) == [100 - 20 - 40, 20 - 8, 8, 40]


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [
        _span("outer", 0, 100),
        _span("x", 10, 40, parent=0),
        _span("y", 30, 60, parent=0),  # overlaps x: covered 10..60 once
        _span("z", 90, 120, parent=0),  # runs past the parent's end
    ]
    assert self_times_ns(spans)[0] == 100 - 50 - 10


def test_summarize_filters_by_operation_kind():
    tr = Tracer()
    tr.ops = [("r0", "prefill", 0, 100), ("r0", "check", 100, 200)]
    tr.spans = [
        _span("f", 0, 2_000_000, op=0),
        _span("g", 0, 1_000_000, parent=0, op=0),
        _span("f", 100, 9_000_000, op=1),
    ]
    rows = summarize(tr, ["prefill"])
    assert rows["f"]["calls"] == 1
    assert rows["f"]["ms"] == 2.0
    assert rows["f"]["self_ms"] == 1.0


def test_tracer_wraps_module_calls_and_restores():
    original = ssm.scan_sequential
    tr = Tracer()
    tr.wrap(ssm, "scan_sequential", "ssm.scan_sequential")
    tr.wrap(ssm, "mamba_block_forward", "ssm.mamba_block_forward")
    tr.wrap(model, "prefill", "model.prefill")
    cfg = model.HybridStackConfig(d=16, n_layers=2, n_heads=2, vocab_size=32, n_state=4)
    m = model.build_model(cfg, seed=0)
    seq = model.make_sequence(m, [[0.1] * 16] * 5, [1, 2])
    try:
        model.prefill(m, seq)  # inactive: no spans
        assert tr.spans == []
        with tr.recording(), tr.operation("r", "prefill"):
            model.prefill(m, seq)
            with tr.paused():
                model.prefill(m, seq)
    finally:
        tr.patches.restore()
    assert ssm.scan_sequential is original
    names = [s[0] for s in tr.spans]
    assert names.count("model.prefill") == 1
    assert names.count("ssm.scan_sequential") == 2
    by_name = {s[0]: i for i, s in enumerate(tr.spans)}
    scan = tr.spans[by_name["ssm.scan_sequential"]]
    block = tr.spans[scan[PARENT]]
    assert block[0] == "ssm.mamba_block_forward"
    assert block[START] <= scan[START] <= scan[END] <= block[END]


# -- failure accounting ----------------------------------------------------------


def test_failed_check_and_raised_error_are_counted_and_run_continues():
    ops = Ops(HybridSeqError)
    samples: dict[str, list] = {}

    def good(pending):
        pending.setdefault("t", []).append(1.0)
        return True

    def bad_output(pending):
        pending.setdefault("t", []).append(99.0)
        return False

    def raises(pending):
        raise NumericError("non-finite state at token 3")

    outcomes = [ops.run(f"op{i}", op, samples) for i, op in enumerate([good, bad_output, raises, good])]
    assert outcomes == [True, False, False, True]
    assert (ops.attempted, ops.failed) == (4, 2)
    assert ops.failed_share == 0.5
    assert samples == {"t": [1.0, 1.0]}  # failed operations leave no latency
    assert "NumericError" in ops.errors[1]


def test_other_exceptions_abort():
    ops = Ops(HybridSeqError)

    def broken(pending):
        raise KeyError("bug in the benchmark")

    with pytest.raises(KeyError):
        ops.run("op", broken)


def test_closed_loop_waits_for_enough_samples():
    seen = []
    n = closed_loop(seen.append, 0.0, enough=lambda: len(seen) >= 5)
    assert n == 5 and seen == [0, 1, 2, 3, 4]
    with pytest.raises(RuntimeError):
        closed_loop(lambda i: None, 0.0, enough=lambda: False, cap_seconds=0.0)
