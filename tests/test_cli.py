"""Command line front end: every exit code, fixed-seed determinism of the
verify report, and the disk Weyl sweep past |lambda| = 4.9e5."""
import json

import numpy as np
import pytest

from btriple import cli
from btriple.harness import CheckRecord, VerificationReport

from .oracles import disk_weyl_v0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run(tmp_path, command, config=None, *flags):
    argv = [command, "--out", str(tmp_path)]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    return cli.main(argv + list(flags))


def _weyl_rows(path):
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

    def test_neumann_point_of_fd1d_exits_3(self, tmp_path):
        # lambda = 0 is a Neumann eigenvalue: the kernel solve is singular
        config = {"model": {"family": "fd1d", "n": 32},
                  "lambda": {"points": [0.0]}}
        assert _run(tmp_path, "weyl", config, "--allow-uncertified") == \
            cli.EXIT_SOLVER

    def test_neumann_point_of_disk_exits_4(self, tmp_path):
        # the interior disk at its Neumann point, and the V = 0 exterior
        # disk on [0, inf), where its K_k scalars are undefined
        for side, lam in (("interior", 0.0), ("exterior", 5.0)):
            config = {"model": {"family": "disk", "side": side, "k_max": 2},
                      "lambda": {"points": [lam]}}
            assert _run(tmp_path, "weyl", config, "--allow-uncertified") == \
                cli.EXIT_SINGULAR


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


class TestDiskWeylReach:
    def test_interior_disk_far_out_on_the_negative_axis(self, tmp_path):
        lams = [-5e5, -6e5]
        config = {"model": {"family": "disk", "side": "interior", "k_max": 2},
                  "lambda": {"points": lams}}
        assert _run(tmp_path, "weyl", config) == cli.EXIT_OK
        rows = _weyl_rows(tmp_path / "weyl.csv")
        assert [complex(r[0], r[1]) for r in rows] == lams
        for lam, row in zip(lams, rows):
            m = (row[2:-1:2] + 1j * row[3:-1:2]).reshape(5, 5)
            want = [disk_weyl_v0("interior", k, lam) for k in (2, 1, 0, 1, 2)]
            assert np.abs(m - np.diag(np.diag(m))).max() == 0.0
            assert np.abs(np.diag(m) - want).max() < 1e-12 * np.abs(want).min()
