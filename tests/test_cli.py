"""Tests for the command-line interface."""

import json
import pathlib

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import write_matrix_market
from repro.matrices import poisson2d

CHAOS_SPEC = str(pathlib.Path(__file__).parent / "faults" / "chaos.json")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_factor_defaults(self):
        args = build_parser().parse_args(["factor", "--matrix", "c-71"])
        assert args.solver == "pangulu"
        assert args.scheduler == "trojan"
        assert args.gpu == "rtx5090"

    def test_rejects_unknown_matrix(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["factor", "--matrix", "nope"])

    def test_rejects_unknown_gpu(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["factor", "--matrix", "c-71", "--gpu", "v100"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "cage12" in out
        assert "RTX 5090" in out

    def test_factor_with_solve(self, capsys):
        rc = main(["factor", "--matrix", "c-71", "--scale", "0.5",
                   "--solver", "pangulu", "--scheduler", "trojan",
                   "--solve"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "solve check" in out

    def test_factor_from_mtx_file(self, tmp_path, capsys):
        path = tmp_path / "sys.mtx"
        write_matrix_market(path, poisson2d(10))
        rc = main(["factor", "--mtx", str(path), "--scheduler", "serial"])
        assert rc == 0
        assert "serial" in capsys.readouterr().out

    def test_factor_requires_matrix_source(self):
        with pytest.raises(SystemExit):
            main(["factor"])

    def test_sptrsv(self, capsys):
        rc = main(["sptrsv", "--matrix", "c-71", "--scale", "0.5",
                   "--nrhs", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle bitwise" in out
        assert "yes" in out
        assert "L-solve" in out and "U-solve" in out
        assert "levelset" in out and "trojan" in out

    def test_sptrsv_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sptrsv", "--matrix", "c-71",
                 "--solve-scheduler", "fifo"])

    def test_compare(self, capsys):
        rc = main(["compare", "--matrix", "c-71", "--scale", "0.5",
                   "--solver", "pangulu"])
        assert rc == 0
        out = capsys.readouterr().out
        for sched in ("serial", "levelbatch", "streams", "trojan"):
            assert sched in out

    def test_compare_rejects_cholesky(self):
        with pytest.raises(SystemExit):
            main(["compare", "--matrix", "c-71", "--solver", "cholesky"])

    def test_scaleout(self, capsys):
        rc = main(["scaleout", "--matrix", "c-71", "--scale", "0.5",
                   "--cluster", "mi50", "--policy", "trojan",
                   "--gpus", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MI50" in out

    def test_cholesky_via_cli(self, tmp_path, capsys):
        path = tmp_path / "spd.mtx"
        write_matrix_market(path, poisson2d(8))
        rc = main(["factor", "--mtx", str(path), "--solver", "cholesky",
                   "--scheduler", "trojan"])
        assert rc == 0
        assert "cholesky" in capsys.readouterr().out


class TestDistsim:
    def test_synthetic_chaos_cell_prints_its_digest(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        rc = main(["distsim", "--synthetic", "24x4", "--gpus", "16",
                   "--policy", "trojan", "--faults", CHAOS_SPEC,
                   "--seed", "7", "--verify",
                   "--out", str(out)])
        assert rc == 0
        digest = json.loads(out.read_text())["trace_digest"]
        assert f"trace digest: {digest}" in capsys.readouterr().out

    def test_engine_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["distsim", "--synthetic", "8x2", "--engine", "arena"])

    @pytest.mark.parametrize("argv, message", [
        (["--synthetic", "8x2", "--gpus", "0"], "--gpus must be >= 1"),
        (["--synthetic", "0x2"], "--synthetic wants NBxBW"),
        (["--synthetic", "8x-1"], "--synthetic wants NBxBW"),
        (["--synthetic", "8by2"], "--synthetic wants NBxBW"),
        (["--synthetic", "8x2", "--faults", "no/such/spec.json"],
         "--faults: cannot read no/such/spec.json"),
        (["--synthetic", "8x2", "--seed", "3"], "--seed reseeds the fault"),
    ])
    def test_bad_arguments_exit_with_one_line(self, argv, message):
        """Usage errors are a one-line SystemExit, not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["distsim", *argv])
        assert message in str(exc.value)
        assert "\n" not in str(exc.value)
