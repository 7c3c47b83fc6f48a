"""Command line front end: every exit code, fixed-seed determinism of every
command's output, the shoot1d Robin scan over the default region, and the
disk Weyl sweep past |lambda| = 4.9e5."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import btriple
from btriple import cli
from btriple.harness import CheckRecord, VerificationReport

from .oracles import (ROBIN_LAM_NEG, ROBIN_LAMS_POS, disk_weyl_v0,
                      interval_weyl_v0)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run(tmp_path, command, config=None, *flags):
    argv = [command, "--out", str(tmp_path)]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    return cli.main(argv + list(flags))


def _run_subprocess(tmp_path, command, config, *flags, timeout=60):
    """Exit code of the CLI run as its own process, killed after timeout
    seconds (subprocess.TimeoutExpired)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(btriple.__file__).parents[1]))
    argv = [sys.executable, "-m", "btriple.cli", command, "--out",
            str(tmp_path), "--config", str(path), *flags]
    return subprocess.run(argv, env=env, capture_output=True,
                          timeout=timeout).returncode


def _csv_rows(path):
    rows = [line for line in path.read_text().splitlines()
            if not line.startswith("#")][1:]
    return [np.array([float(x) for x in row.split(",")]) for row in rows]


@pytest.fixture(scope="module")
def default_verify_twice(tmp_path_factory):
    outs = [tmp_path_factory.mktemp(f"verify{i}") for i in range(2)]
    codes = [_run(out, "verify", None, "--seed", "7") for out in outs]
    return codes, outs


class TestExitCodes:
    def test_verify_passes_with_exit_0(self, default_verify_twice):
        codes, _ = default_verify_twice
        assert codes == [cli.EXIT_OK, cli.EXIT_OK]

    def test_failing_check_exits_1(self, tmp_path, monkeypatch):
        failing = CheckRecord("decay_exponent", "fd1d", {}, float("inf"), 0.05)
        monkeypatch.setattr(cli, "run_decay_suite",
                            lambda suite: VerificationReport.from_records(
                                [failing]))
        code = _run(tmp_path, "verify", {"model": {"family": "fd1d", "n": 32}})
        assert code == cli.EXIT_VERIFY_FAILED
        data = json.loads((tmp_path / "report.json").read_text(),
                          parse_constant=_reject_constant)
        assert data["summary"]["failed"] == 1

    def test_unknown_family_exits_2(self, tmp_path):
        assert _run(tmp_path, "weyl", {"model": {"family": "nope"}}) == \
            cli.EXIT_CONFIG

    @pytest.mark.parametrize("section, value", [
        ("potential", {"kind": "power", "c": 1.0, "x0": "abc", "alpha": 0.4,
                       "p": 2.0}),
        ("region", {"rect": ["a", 1, 2, 3]}),
        ("region", {"rect": 5}),
        ("boundary_operator", {"kind": "matrix", "entries": [[1, 2], [3]]}),
        # json writes inf as Infinity, which json.load reads back
        ("boundary_operator", {"kind": "scalar", "beta": float("inf")}),
        ("region", {"grid": [1, 5]}),
        ("region", {"rect": [1.0, 1.0, 2.0, 2.0]}),
        ("region", {"rect": [30.0, -20.0, -6.0, 6.0]}),
        ("region", {"rect": [-20.0, 30.0, 6.0, -6.0]}),
        # json true is no number, and an integer key takes no fraction
        ("lambda", {"points": [True]}),
        ("potential", {"kind": "constant", "value": True}),
        ("boundary_operator", {"kind": "scalar", "beta": True}),
        ("model", {"family": "fd1d", "n": 96.9}),
        ("model", {"family": "disk", "k_max": True}),
        ("region", {"grid": [24.7, 9]}),
        ("region", {"rect": [-20.0, 30.0, -6.0, True]}),
        # a NaN length gave h = nan, and weyl exited 4 (spectral singularity)
        ("model", {"family": "fd1d", "length": float("nan")}),
        ("model", {"family": "fd1d", "length": float("inf")}),
        ("model", {"family": "shoot1d", "length": float("nan")}),
    ])
    def test_malformed_numbers_exit_2(self, tmp_path, section, value):
        # eigs is the command that scans region.grid
        config = {"model": {"family": "fd1d", "n": 32}, section: value}
        for command in ("resolve", "eigs"):
            assert _run(tmp_path, command, config) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, seed", [("verify", "-1"),
                                               ("resolve", "-3")])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, seed):
        # numpy refuses a negative seed; the parser turns it away first,
        # with the configuration exit code, not 1 (a failed verification)
        config = {"model": {"family": "fd1d", "n": 32},
                  "lambda": {"points": [-1.5]}}
        with pytest.raises(SystemExit) as exc:
            _run(tmp_path, command, config, "--seed", seed)
        assert exc.value.code == cli.EXIT_CONFIG
        assert "non-negative" in capsys.readouterr().err

    def test_neumann_point_of_fd1d_exits_4(self, tmp_path):
        # lambda = 0 is a Neumann eigenvalue: the kernel solve is singular
        config = {"model": {"family": "fd1d", "n": 32},
                  "lambda": {"points": [0.0]}}
        assert _run(tmp_path, "weyl", config, "--allow-uncertified") == \
            cli.EXIT_SINGULAR

    def test_neumann_point_of_shoot1d_exits_4(self, tmp_path):
        config = {"model": {"family": "shoot1d", "panels": 2, "order": 8,
                            "fd_nodes": 32},
                  "lambda": {"points": [0.0]}}
        assert _run(tmp_path, "weyl", config, "--allow-uncertified") == \
            cli.EXIT_SINGULAR

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("family", ["fd1d", "shoot1d", "disk"])
    def test_non_finite_lambda_exits_2(self, tmp_path, family, value):
        # json writes NaN and Infinity, which json.load reads back; on
        # shoot1d such a lambda once left DOP853 stepping forever, hence
        # the subprocess and its timeout
        config = {"model": {"family": family}, "lambda": {"points": [value]}}
        assert _run_subprocess(tmp_path, "weyl", config,
                               "--allow-uncertified") == cli.EXIT_CONFIG

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_region_exits_2(self, tmp_path, value):
        config = {"model": {"family": "shoot1d"},
                  "region": {"rect": [-10.0, value, -1.0, 1.0]}}
        assert _run_subprocess(tmp_path, "eigs", config) == cli.EXIT_CONFIG

    def test_neumann_point_of_disk_exits_4(self, tmp_path):
        # lambda = 0 is a Neumann point of both V = 0 disks
        for side in ("interior", "exterior"):
            config = {"model": {"family": "disk", "side": side, "k_max": 2},
                      "lambda": {"points": [0.0]}}
            assert _run(tmp_path, "weyl", config, "--allow-uncertified") == \
                cli.EXIT_SINGULAR

    def test_exterior_disk_on_the_positive_axis_exits_0(self, tmp_path):
        # M of the V = 0 exterior disk is finite at lambda = 5, where s is
        # imaginary; it once exited 4 there
        config = {"model": {"family": "disk", "side": "exterior", "k_max": 2},
                  "lambda": {"points": [5.0]}}
        assert _run(tmp_path, "weyl", config, "--allow-uncertified") == \
            cli.EXIT_OK

    @pytest.mark.parametrize("command", ["weyl", "resolve"])
    def test_uncertified_lambda_exits_2_naming_the_flag(self, tmp_path,
                                                        capsys, command):
        # the V = 0 fd1d threshold is -0.5
        config = {"model": {"family": "fd1d", "n": 32},
                  "lambda": {"points": [-0.3]}}
        assert _run(tmp_path, command, config) == cli.EXIT_CONFIG
        assert "--allow-uncertified" in capsys.readouterr().err


class TestResolve:
    @pytest.mark.parametrize("model", [
        {"family": "fd1d", "n": 32},
        {"family": "shoot1d", "panels": 2, "order": 8, "fd_nodes": 32},
        {"family": "disk", "k_max": 2},
    ])
    def test_zero_b_is_the_neumann_resolvent(self, tmp_path, model):
        # the default boundary operator is B = 0, and the Krein formula
        # then gives the Neumann resolvent bit for bit
        config = {"model": model, "lambda": {"points": [-1.5]}}
        assert _run(tmp_path, "resolve", config, "--seed", "3") == cli.EXIT_OK
        built = cli.CliConfig(config).build_model()
        f = built.random_domain_vector(np.random.default_rng(3))
        u = built.neumann_resolvent(-1.5 + 0j, np.asarray(f, dtype=complex))
        want = [f"{i},{cli._fmt(v.real)},{cli._fmt(v.imag)}"
                for i, v in enumerate(u)]
        lines = (tmp_path / "resolve.csv").read_text().splitlines()
        assert [line for line in lines[3:] if not line.startswith("#")] == want


class TestVerifyReport:
    def test_fixed_seed_is_byte_identical(self, default_verify_twice):
        _, outs = default_verify_twice
        texts = []
        for out in outs:
            data = json.loads((out / "report.json").read_text(),
                              parse_constant=_reject_constant)
            del data["timings"]
            texts.append(json.dumps(data, indent=2, sort_keys=True))
        assert texts[0] == texts[1]
        assert (outs[0] / "report.csv").read_bytes() == \
            (outs[1] / "report.csv").read_bytes()


class TestFixedSeedOutputs:
    @pytest.mark.parametrize("command", ["weyl", "resolve", "eigs", "decay"])
    def test_two_runs_are_byte_identical(self, tmp_path, command):
        config = {"model": {"family": "fd1d", "n": 32},
                  "boundary_operator": {"kind": "scalar", "beta": 0.7},
                  "region": {"rect": [-20.0, 30.0, -6.0, 6.0],
                             "grid": [24, 9]}}
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / run
            out.mkdir()
            assert _run(out, command, config, "--seed", "7") == cli.EXIT_OK
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "config.json"})
        assert len(outputs[0]) == 1
        assert outputs[0] == outputs[1]


class TestShootEigs:
    def test_default_region_finds_both_robin_roots(self, tmp_path):
        # the default 96 x 33 grid on (-20, 30) x (-6, 6) holds the two
        # Robin eigenvalues below 36.6 of B = 0.7 I
        config = {"model": {"family": "shoot1d", "panels": 2, "order": 8,
                            "fd_nodes": 32},
                  "boundary_operator": {"kind": "scalar", "beta": 0.7}}
        assert _run(tmp_path, "eigs", config) == cli.EXIT_OK
        rows = _csv_rows(tmp_path / "eigs.csv")
        roots = [complex(r[0], r[1]) for r in rows]
        want = [ROBIN_LAM_NEG, ROBIN_LAMS_POS[0]]
        assert len(roots) == 2
        assert max(abs(z - w) for z, w in zip(roots, want)) < 1e-8


class TestDiskWeylReach:
    def test_interior_disk_far_out_on_the_negative_axis(self, tmp_path):
        lams = [-5e5, -6e5]
        config = {"model": {"family": "disk", "side": "interior", "k_max": 2},
                  "lambda": {"points": lams}}
        assert _run(tmp_path, "weyl", config) == cli.EXIT_OK
        rows = _csv_rows(tmp_path / "weyl.csv")
        assert [complex(r[0], r[1]) for r in rows] == lams
        for lam, row in zip(lams, rows):
            m = (row[2:-1:2] + 1j * row[3:-1:2]).reshape(5, 5)
            want = [disk_weyl_v0("interior", k, lam) for k in (2, 1, 0, 1, 2)]
            assert np.abs(m - np.diag(np.diag(m))).max() == 0.0
            assert np.abs(np.diag(m) - want).max() < 1e-12 * np.abs(want).min()

    def test_exterior_disk_past_the_bessel_range_of_its_cut(self, tmp_path):
        # s r_cut = 1.6e9 is past the 2^30 of scipy's kve and ive, where the
        # Dirichlet weight of the cut has underflowed to 0
        config = {"model": {"family": "disk", "side": "exterior", "k_max": 2},
                  "lambda": {"points": [-1e16]}}
        assert _run(tmp_path, "weyl", config) == cli.EXIT_OK
        row, = _csv_rows(tmp_path / "weyl.csv")
        m = (row[2:-1:2] + 1j * row[3:-1:2]).reshape(5, 5)
        want = [disk_weyl_v0("exterior", k, -1e16) for k in (2, 1, 0, 1, 2)]
        assert np.abs(np.diag(m) - want).max() < 1e-12 * np.abs(want).min()

    def test_interior_disk_past_the_bessel_range_exits_3(self, tmp_path):
        # s = 1e10: ive gives NaN, a solver failure, not a Neumann point
        config = {"model": {"family": "disk", "side": "interior", "k_max": 2},
                  "lambda": {"points": [-1e20]}}
        assert _run(tmp_path, "weyl", config, "--allow-uncertified") == \
            cli.EXIT_SOLVER

    def test_shoot1d_far_out_on_the_negative_axis(self, tmp_path):
        # the shots' cosh(sqrt(5e5) x) and beyond leave double range before
        # x = 1; the scaled steps keep M, and it matches the closed form
        lams = [-5e5, -1e6, -1e7]
        config = {"model": {"family": "shoot1d", "panels": 4, "order": 12,
                            "fd_nodes": 128},
                  "lambda": {"points": lams}}
        assert _run(tmp_path, "weyl", config, "--allow-uncertified") == \
            cli.EXIT_OK
        rows = _csv_rows(tmp_path / "weyl.csv")
        assert [complex(r[0], r[1]) for r in rows] == lams
        for lam, row in zip(lams, rows):
            m = (row[2:-1:2] + 1j * row[3:-1:2]).reshape(2, 2)
            want = interval_weyl_v0(lam)
            assert np.abs(m - want).max() <= 1e-12 * np.abs(want).max()


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_names_the_blas_thread_setting(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "OPENBLAS_NUM_THREADS=1" in capsys.readouterr().out
