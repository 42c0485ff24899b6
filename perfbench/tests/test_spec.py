"""BENCHMARK.json, predictions.json and the code agree on metric names."""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_per_layer_metric_has_a_prediction():
    preds = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    patterns = [re.compile("^" + re.escape(name).replace(re.escape("<kind>"), r"[a-z_]+")
                           .replace(re.escape("<module>"), r"[a-z]+") + "$")
                for p in preds for name in p["per_layer"]]
    for m in SPEC["per_layer"]:
        assert any(pat.match(m["name"]) for pat in patterns), m["name"]
