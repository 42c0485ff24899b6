"""The workloads against the real package: metric names, and failures that
are counted without stopping the run."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import workloads  # noqa: E402
from hybridseq import training  # noqa: E402
from hybridseq.numerics import NumericError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_per_layer_names_match_spec():
    w = workloads.make("hybrid_long_video", 0, str(HERE))
    instrument = {"flops_total": 1.0, "flops_by_kind": {}, "prefill_flops": 1.0,
                  "flops_analytic": 1.0, "prefill_peak_mb": 1.0, "mamba_peak_mb": 1.0,
                  "memory_estimate_over_measured": 1.0}
    produced = w.per_layer(instrument, 1.0)
    assert list(produced) == [m["name"] for m in SPEC["per_layer"]]


def test_graft_cycle_counts_raised_errors_and_failed_checks(tmp_path, monkeypatch):
    w = workloads.make("graft_train", 0, str(tmp_path))
    w.setup()
    w.cycle(0)
    assert (w.ops.attempted, w.ops.failed) == (1 + w.EVALS_PER_CYCLE, 0)

    evaluate = training.evaluate
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericError("injected")
        acc, loss = evaluate(*args, **kwargs)
        return (1.0 - acc, loss) if len(calls) == 3 else (acc, loss)  # wrong verdict

    monkeypatch.setattr(training, "evaluate", flaky)
    w.cycle(1)
    assert w.ops.attempted == 2 * (1 + w.EVALS_PER_CYCLE)
    assert w.ops.failed == 2
    assert "NumericError: injected" in w.ops.errors[0]
    assert "output check failed" in w.ops.errors[1]
    assert len(w.samples["eval"]) == 2 * w.EVALS_PER_CYCLE - 2
