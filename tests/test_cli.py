"""Tests for the command-line interface (repro.cli)."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("baseline", "figure1", "figure2", "ablations", "synth"):
            args = parser.parse_args([command] if command != "synth" else ["synth"])
            assert args.command == command

    def test_campaign_subcommand_registered(self):
        parser = build_parser()
        args = parser.parse_args(["campaign", "status", "--out", "somewhere"])
        assert args.command == "campaign"
        assert args.campaign_command == "status"

    def test_unknown_dataset_exits_cleanly(self, capsys):
        # A bogus dataset name must produce a clean error, not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["baseline", "--dataset", "not-a-dataset", "--fast"])
        assert "not-a-dataset" in str(excinfo.value)

    def test_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["figure2"])
        assert args.dataset == "whitewine"
        assert args.population == 16
        assert args.workers == 1
        args = parser.parse_args(["figure2", "--workers", "4"])
        assert args.workers == 4
        args = parser.parse_args(["figure1"])
        assert args.dataset == "all"
        args = parser.parse_args(["synth", "--weight-bits", "4"])
        assert args.weight_bits == 4

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])


class TestCommands:
    """End-to-end CLI runs with the smallest usable settings (seeds + --fast)."""

    def test_baseline_command(self, capsys):
        exit_code = main(["baseline", "--dataset", "seeds", "--fast"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "seeds" in output
        assert "mm^2" in output

    def test_figure1_command_with_export_and_plot(self, capsys, tmp_path):
        exit_code = main(
            [
                "figure1",
                "--dataset",
                "seeds",
                "--fast",
                "--plot",
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "norm_area" in output
        assert "normalized area" in output            # the ASCII plot legend
        assert (tmp_path / "out" / "seeds_sweep.json").exists()
        assert (tmp_path / "out" / "seeds_points.csv").exists()

    def test_figure2_command_small_ga(self, capsys):
        exit_code = main(
            [
                "figure2",
                "--dataset",
                "seeds",
                "--fast",
                "--population",
                "4",
                "--generations",
                "1",
                "--finetune-epochs",
                "1",
                "--workers",
                "2",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "combined" in output

    def test_figure2_fault_flags(self, capsys):
        exit_code = main(
            [
                "figure2",
                "--dataset",
                "seeds",
                "--fast",
                "--population",
                "4",
                "--generations",
                "1",
                "--finetune-epochs",
                "1",
                "--fault-rate",
                "0.1",
                "--fault-trials",
                "3",
                "--fault-model",
                "short",
            ]
        )
        assert exit_code == 0
        assert "combined" in capsys.readouterr().out

    def test_fault_flag_validation(self):
        parser = build_parser()
        args = parser.parse_args(["figure2"])
        assert args.fault_rate is None and args.fault_trials is None
        assert args.fault_model is None
        args = parser.parse_args(
            ["figure2", "--fault-rate", "0.05", "--fault-trials", "8"]
        )
        assert args.fault_rate == 0.05 and args.fault_trials == 8
        with pytest.raises(SystemExit):
            parser.parse_args(["figure2", "--fault-rate", "1.5"])
        with pytest.raises(SystemExit):
            parser.parse_args(["figure2", "--fault-trials", "-2"])
        with pytest.raises(SystemExit):
            parser.parse_args(["figure2", "--fault-model", "bridging"])

    @pytest.mark.parametrize("trials", [[], ["--fault-trials", "0"]])
    def test_fault_rate_without_trials_is_a_usage_error(self, capsys, trials):
        # Before any data is prepared: exit 2 with argparse's usage message.
        with pytest.raises(SystemExit) as excinfo:
            main(["figure2", "--dataset", "seeds", "--fast", "--fault-rate", "0.05", *trials])
        assert excinfo.value.code == 2
        assert "--fault-rate needs --fault-trials" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [[], ["--fault-rate", "0"]])
    def test_fault_model_without_rate_is_a_usage_error(self, capsys, rate):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure2", "--dataset", "seeds", "--fast", "--fault-model", "short", *rate])
        assert excinfo.value.code == 2
        assert "--fault-model needs --fault-rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "knob",
        [
            ["--surrogate-candidates", "8"],
            ["--surrogate-prefilter", "0.5"],
            ["--halving-budgets", "1,2"],
        ],
    )
    def test_surrogate_knob_without_surrogate_is_a_usage_error(self, capsys, knob):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure2", "--dataset", "seeds", "--fast", *knob])
        assert excinfo.value.code == 2
        assert f"{knob[0]} needs --surrogate" in capsys.readouterr().err

    def test_backend_flag_is_gone(self, capsys):
        for command in (["figure2"], ["serve", "--campaign", "x"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*command, "--backend", "numpy"])
            assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_synth_command_with_verilog(self, capsys, tmp_path):
        verilog_path = tmp_path / "seeds.v"
        exit_code = main(
            [
                "synth",
                "--dataset",
                "seeds",
                "--fast",
                "--weight-bits",
                "4",
                "--finetune-epochs",
                "2",
                "--verilog",
                str(verilog_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Normalized area" in output
        assert "agreement" in output
        assert verilog_path.exists()
        assert "module seeds_mlp" in verilog_path.read_text()

    def test_synth_command_without_quantization(self, capsys):
        exit_code = main(["synth", "--dataset", "seeds", "--fast"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "test accuracy" in output


class TestServeShutdown:
    SPEC = {
        "name": "sigterm",
        "datasets": ["seeds"],
        "pipeline": {"train_epochs": 3, "n_samples": 120, "finetune_epochs": 1},
        "searches": [{"algorithm": "random", "n_evaluations": 2}],
    }

    def test_sigterm_closes_the_port_and_exits_zero(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        out = tmp_path / "camp"
        assert main(["campaign", "run", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert main(["campaign", "report", "--out", str(out)]) == 0

        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--campaign", str(out), "--port", "0"],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no serving banner: {banner!r}"
            host, port = match.group(1), int(match.group(2))
            with urllib.request.urlopen(f"http://{host}:{port}/healthz", timeout=30) as resp:
                assert resp.status == 200
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=60)
        assert process.returncode == 0, stderr
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, port), timeout=5).close()
