"""Tests for the command-line surface: flags, configs, manifests, exit codes."""

import json
import os

import pytest

from hybridseq import cli
from hybridseq.cli import UsageError, load_config_file, main, parse_grid
from hybridseq.model import ConfigError, load_checkpoint, save_checkpoint
from hybridseq.profiler import BENCH_SCHEMA


def run(argv):
    return main(argv)


BASE_TRAIN = [
    "train", "--arch", "transformer_baseline", "--stage", "instruct",
    "--M", "6", "--d", "8", "--layers", "1", "--steps", "2", "--batch", "1",
]


class TestGridParsing:
    def test_geometric(self):
        assert parse_grid("1024:16384:x2") == [1024, 2048, 4096, 8192, 16384]

    def test_additive(self):
        assert parse_grid("64:256:+64") == [64, 128, 192, 256]

    def test_single_and_list(self):
        assert parse_grid("512") == [512]
        assert parse_grid("1,2,4") == [1, 2, 4]

    @pytest.mark.parametrize("bad", ["", "x", "16:4:x2", "4:16:x1", "4:16:*2", "0", "-4"])
    def test_malformed(self, bad):
        with pytest.raises(UsageError):
            parse_grid(bad)


class TestConfigFile:
    def test_kv_parse(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# comment\nd = 16\nsteps=3\n\nlambda = 0.5\n")
        assert load_config_file(str(p)) == {"d": "16", "steps": "3", "lambda": "0.5"}

    def test_line_anchored_error(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("d = 16\nthis line is wrong\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_config_file(str(p))

    def test_precedence_flags_over_file_over_defaults(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("d = 16\nsteps = 9\n")

        captured = {}

        def fake_train(args):
            captured.update(cli.resolve_config(args, {
                "seed": "seed", "d": "d", "steps": "steps", "out": "out",
            }))
            return 0

        monkeypatch.setattr(cli, "cmd_train", fake_train)
        parser = cli._build_parser()
        args = parser.parse_args(["train", "--config", str(cfg), "--d", "32"])
        fake_train(args)
        assert captured["d"] == "32"  # flag wins
        assert captured["steps"] == "9"  # file wins over default
        assert captured["batch" if False else "seed"] == "0"

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYBRIDSEQ_SEED", "777")
        parser = cli._build_parser()
        args = parser.parse_args(["train"])
        resolved = cli.resolve_config(args, {"seed": "seed"})
        assert resolved["seed"] == "777"
        args = parser.parse_args(["train", "--seed", "5"])
        resolved = cli.resolve_config(args, {"seed": "seed"})
        assert resolved["seed"] == "5"


class TestConfigValues:
    """A bad config value exits 3 with the key or the limit named, before
    any work and without a traceback."""

    @pytest.mark.parametrize("argv", [
        BASE_TRAIN + ["--seed", "-1"],
        ["bench", "--M", "16", "--N", "8", "--d", "16", "--layers", "1", "--seed", "-2"],
    ])
    def test_negative_seed_flag(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert run(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["env", "config"])
    @pytest.mark.parametrize("value", ["abc", "-4"])
    def test_bad_seed_from_env_or_config_file(self, tmp_path, capsys, monkeypatch, where, value):
        bench = str(tmp_path / "bench")
        assert run(["bench", "--arch", "hybrid", "--M", "16,32", "--N", "8", "--d", "16",
                    "--layers", "1", "--repeats", "3", "--out", bench]) == 0
        argv = ["analyze", "--input", os.path.join(bench, "bench.json"),
                "--out", str(tmp_path / "an")]
        if where == "env":
            monkeypatch.setenv("HYBRIDSEQ_SEED", value)
        else:
            cfg = tmp_path / "cfg"
            cfg.write_text(f"seed = {value}\n")
            argv += ["--config", str(cfg)]
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "an").exists()  # refused before the fit

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_eval_instances_below_one(self, tmp_path, capsys, command, value):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"eval_instances = {value}\n")
        out = tmp_path / "x"
        argv = BASE_TRAIN if command == "train" else [
            "eval", "--ckpt", str(tmp_path / "none.ckpt"), "--M", "6"]
        assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 3
        assert "eval_instances" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()  # refused before training

    @pytest.mark.parametrize("value", ["no", "yes", "2", "TRUE", ""])
    def test_ca_from_sa_outside_the_booleans(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"ca_from_sa = {value}\n")
        argv = ["train", "--arch", "hybrid", "--M", "6", "--d", "8", "--layers", "1",
                "--steps", "1", "--batch", "1", "--config", str(cfg),
                "--out", str(tmp_path / "x")]
        assert run(argv) == 3
        assert "ca_from_sa" in capsys.readouterr().err

    @pytest.mark.parametrize("line,named", [
        ("M = 0", "M >= needle_count"),
        ("needle_count = 0", "needle_count"),
        ("lambda = -1", "lambda"),
        ("lambda = nan", "lambda"),
        ("lr = nan", "lr"),
        ("lr = inf", "lr"),
        ("n_classes = 300", "vocabulary"),
        ("vocab = 2", "vocabulary"),
    ])
    def test_bad_train_value(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x"
        argv = ["train", "--arch", "transformer_baseline", "--stage", "instruct", "--d", "8",
                "--layers", "1", "--steps", "2", "--batch", "1"]
        assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (out / "train_log.ndjson").exists()  # refused before training

    def test_classes_outside_the_vocabulary_on_eval(self, tmp_path, capsys):
        model = cli.build_model(cli.HybridStackConfig(d=8, n_layers=1, vocab_size=32), seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(model, ckpt)
        out = tmp_path / "x"
        assert run(["eval", "--ckpt", ckpt, "--M", "6", "--out", str(out)]) == 3
        assert "vocabulary of 32" in capsys.readouterr().err
        assert not (out / "eval.json").exists()

    @pytest.mark.parametrize("line,named", [
        ("repeats = 1", "repeats"),
        ("N = 0", "N"),
        ("mem_budget = 0", "mem_budget"),
        ("mem_budget = -1", "mem_budget"),
    ])
    def test_bad_bench_value(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x"
        argv = ["bench", "--arch", "hybrid", "--M", "16", "--d", "16", "--layers", "1"]
        assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 3
        assert f"config key {named}=" in capsys.readouterr().err
        assert not (out / "bench.json").exists()

    @pytest.mark.parametrize("value,expected", [
        ("0", False), ("false", False), ("False", False),
        ("1", True), ("true", True), ("True", True),
    ])
    def test_ca_from_sa_accepts_the_booleans(self, value, expected):
        resolved = dict(cli.DEFAULTS, ca_from_sa=value)
        assert cli._model_config(resolved).ca_from_sa is expected


class TestTrainCommand:
    def test_train_writes_artifacts(self, tmp_path):
        out = str(tmp_path / "run")
        code = run(BASE_TRAIN + ["--out", out, "--seed", "3"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "model.ckpt"))
        assert os.path.exists(os.path.join(out, "train_log.ndjson"))
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["command"] == "train"
        assert manifest["seed"] == 3
        assert manifest["config"]["arch"] == "transformer_baseline"
        assert manifest["format_versions"]["checkpoint"] == 2

    def test_instruct_rejects_lambda(self, tmp_path):
        code = run(BASE_TRAIN + ["--out", str(tmp_path / "x"), "--lambda", "0.5"])
        assert code == 3

    def test_usage_error_exit_2(self):
        assert run(["train", "--stage", "nonsense"]) == 2
        assert run(["wat"]) == 2

    def test_rerun_with_manifest_reproduces_checkpoint(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(BASE_TRAIN + ["--out", out1, "--seed", "11"]) == 0
        manifest = os.path.join(out1, "manifest.json")
        assert run(["train", "--config", manifest, "--out", out2]) == 0
        b1 = open(os.path.join(out1, "model.ckpt"), "rb").read()
        b2 = open(os.path.join(out2, "model.ckpt"), "rb").read()
        assert b1 == b2
        l1 = open(os.path.join(out1, "train_log.ndjson")).read()
        l2 = open(os.path.join(out2, "train_log.ndjson")).read()
        assert l1 == l2

    def test_graft_from_baseline_checkpoint(self, tmp_path):
        out1 = str(tmp_path / "base")
        assert run(BASE_TRAIN + ["--out", out1, "--seed", "4"]) == 0
        out2 = str(tmp_path / "hyb")
        code = run([
            "train", "--arch", "hybrid", "--stage", "pretrain",
            "--init-from", os.path.join(out1, "model.ckpt"),
            "--M", "6", "--d", "8", "--layers", "1", "--steps", "1",
            "--batch", "1", "--block", "mamba2", "--out", out2, "--seed", "4",
        ])
        assert code == 0
        model = load_checkpoint(os.path.join(out2, "model.ckpt"))
        assert model.config.architecture == "hybrid"

    def test_overflowing_training_exits_4(self, tmp_path, capsys):
        # a learning rate this large drives the block's input past the float
        # range at the second step; the run names the token and the step, with
        # no traceback
        code = run(["train", "--arch", "hybrid", "--M", "16", "--d", "16", "--layers", "1",
                    "--steps", "4", "--batch", "1", "--lr", "1e300",
                    "--out", str(tmp_path / "x")])
        assert code == 4
        err = capsys.readouterr().err
        assert "numeric failure: scan produced non-finite state at token 0" in err
        assert "(training step 1)" in err
        assert "Traceback" not in err

    def test_distill_requires_teacher(self, tmp_path):
        code = run([
            "train", "--arch", "hybrid", "--stage", "pretrain", "--lambda", "0.5",
            "--M", "6", "--d", "8", "--layers", "1", "--steps", "1", "--batch", "1",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 3


class TestEvalCommand:
    def test_eval_round_trip(self, tmp_path):
        out1 = str(tmp_path / "t")
        assert run(BASE_TRAIN + ["--out", out1, "--seed", "6"]) == 0
        out2 = str(tmp_path / "e")
        code = run([
            "eval", "--ckpt", os.path.join(out1, "model.ckpt"),
            "--M", "6", "--out", out2,
        ])
        assert code == 0
        results = json.load(open(os.path.join(out2, "eval.json")))
        assert 0.0 <= results["accuracy"] <= 1.0

    def test_missing_ckpt_flag(self, tmp_path):
        assert run(["eval", "--out", str(tmp_path / "x")]) == 2

    def test_corrupt_checkpoint_exit_3(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert run(["eval", "--ckpt", str(bad), "--M", "6",
                    "--out", str(tmp_path / "x")]) == 3

    def test_undecodable_checkpoint_exit_3(self, tmp_path, capsys):
        # the config block's length now runs into the binary records
        out1 = str(tmp_path / "t")
        assert run(BASE_TRAIN + ["--out", out1, "--seed", "7"]) == 0
        ckpt = os.path.join(out1, "model.ckpt")
        raw = bytearray(open(ckpt, "rb").read())
        raw[12] = 0xFF
        with open(ckpt, "wb") as f:
            f.write(bytes(raw))
        capsys.readouterr()
        assert run(["eval", "--ckpt", ckpt, "--M", "6", "--out", str(tmp_path / "e")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_flipped_payload_byte_exit_3(self, tmp_path, capsys):
        # one bit of one float of the last parameter record: still a finite
        # value of the right shape, caught by the records' checksum
        out1 = str(tmp_path / "t")
        assert run(BASE_TRAIN + ["--out", out1, "--seed", "8"]) == 0
        ckpt = os.path.join(out1, "model.ckpt")
        raw = bytearray(open(ckpt, "rb").read())
        raw[-4 - 8] ^= 0x01  # the low byte of the last float
        with open(ckpt, "wb") as f:
            f.write(bytes(raw))
        capsys.readouterr()
        assert run(["eval", "--ckpt", ckpt, "--M", "6", "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert "checksum" in err and "Traceback" not in err

    def test_non_finite_checkpoint_exit_3(self, tmp_path, capsys):
        out1 = str(tmp_path / "t")
        assert run(BASE_TRAIN + ["--out", out1, "--seed", "6"]) == 0
        ckpt = os.path.join(out1, "model.ckpt")
        model = load_checkpoint(ckpt)
        table = model.token_table
        table.data = table.data.copy()
        table.data[0, 0] = float("nan")
        save_checkpoint(model, ckpt)
        capsys.readouterr()
        assert run(["eval", "--ckpt", ckpt, "--M", "6", "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert "embed.token_table" in err and "Traceback" not in err


class TestBenchAnalyze:
    def test_bench_rows_and_analyze(self, tmp_path):
        out = str(tmp_path / "bench")
        code = run([
            "bench", "--arch", "both", "--M", "16:64:x2", "--N", "8",
            "--d", "16", "--layers", "1", "--repeats", "3",
            "--out", out, "--seed", "1",
        ])
        assert code == 0
        rows = [l for l in open(os.path.join(out, "bench.csv")).read().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 1 + 6  # header + 3 grid points x 2 archs
        out2 = str(tmp_path / "an")
        code = run(["analyze", "--input", os.path.join(out, "bench.json"),
                    "--out", out2])
        assert code == 0
        analysis = json.load(open(os.path.join(out2, "analysis.json")))
        assert "hybrid" in analysis and "transformer_baseline" in analysis

    def test_bench_malformed_grid_exit_2(self, tmp_path):
        assert run(["bench", "--M", "16:4:x2", "--out", str(tmp_path / "x")]) == 2

    def test_bench_budget_skip_annotated(self, tmp_path):
        out = str(tmp_path / "b")
        code = run([
            "bench", "--arch", "transformer_baseline", "--M", "256,512",
            "--N", "8", "--d", "16", "--layers", "1", "--repeats", "3",
            "--mem-budget", "1e5", "--out", out,
        ])
        assert code == 0
        rows = open(os.path.join(out, "bench.csv")).read()
        assert "exceeds budget" in rows

    def test_analyze_missing_input(self, tmp_path):
        assert run(["analyze", "--out", str(tmp_path / "x")]) == 2

    def test_analyze_takes_no_video_count(self, tmp_path):
        # analyze reads the M grid from its input; a --M would be ignored
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"schema": BENCH_SCHEMA, "rows": []}))
        argv = ["analyze", "--input", str(bench), "--out", str(tmp_path / "x")]
        assert run(argv) == 0
        assert run(argv + ["--M", "5"]) == 2


class TestSweep:
    def test_ca_from_sa_sweep_covers_ablation_rows(self, tmp_path):
        out = str(tmp_path / "sweep")
        code = run([
            "sweep", "--axis", "ca_from_sa", "--M", "6", "--steps", "1",
            "--batch", "1", "--out", out, "--seed", "2",
            "--config", str(_tiny_cfg(tmp_path)),
        ])
        assert code == 0
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert len(lines) == 1 + 4  # header + models A-D
        assert "model_A" in lines[1] and "model_D" in lines[4]
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        rows = manifest["results"]["rows"]
        assert [r["block_variant"] for r in rows] == ["none", "none", "mamba1", "mamba2"]
        assert [r["ca_from_sa"] for r in rows] == [0, 1, 1, 1]

    def test_lambda_sweep_uses_grid(self, tmp_path):
        out = str(tmp_path / "sweep")
        code = run([
            "sweep", "--axis", "lambda", "--M", "6", "--steps", "1",
            "--batch", "1", "--out", out, "--seed", "2",
            "--config", str(_tiny_cfg(tmp_path)),
        ])
        assert code == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        lams = [r["lambda"] for r in manifest["results"]["rows"]]
        assert lams == [0.0, 0.001, 0.01, 0.5, 1.0, 2.0]

    def test_axis_required(self, tmp_path):
        assert run(["sweep", "--out", str(tmp_path / "x")]) == 2


def _tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text("d = 8\nlayers = 1\nheads = 2\nvocab = 70\nn_classes = 3\n"
                 "eval_instances = 4\n")
    return p
