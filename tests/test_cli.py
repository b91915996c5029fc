"""End-to-end CLI behavior: exit codes, reports, CSV output."""

import contextlib
import csv
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majoranaq
from majoranaq import suites
from majoranaq.cli import main
from majoranaq.config import ModelConfig, config_to_spec, load_config
from majoranaq.hubbard import chain_entries

from coupling_oracle import hubbard_chain_config


def write_config(tmp_path, data, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# an M = 3 model with quadratic and quartic couplings
_MODEL_M3 = {
    "M": 3, "t_entries": [[1, 2, 0.3], [2, 5, -0.2], [3, 6, 0.25]],
    "g_entries": [[1, 2, 3, 4, 0.4], [1, 3, 5, 6, -0.3]], "seed": 1,
}


class TestVerifyCommand:
    def test_traceless_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"M": 3, "seed": 3})
        report_path = tmp_path / "report.json"
        code = main(["verify", "--config", cfg, "--suite", "traceless",
                     "--out", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out
        report = json.loads(report_path.read_text())
        assert report["overall_pass"] is True
        assert report["seed"] == 3
        names = [c["name"] for c in report["checks"]]
        assert "traceless-m3" in names and "channels-m3" in names

    def test_fpe_suite_m1(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 0.5]], "seed": 1})
        assert main(["verify", "--config", cfg, "--suite", "fpe"]) == 0

    def test_fpe_alternative_drift_recorded_not_asserted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"M": 2, "t_entries": [[1, 2, 0.5], [1, 3, -0.3]],
                                      "seed": 2})
        report_path = tmp_path / "rep.json"
        code = main(["verify", "--config", cfg, "--suite", "fpe",
                     "--drift-form", "eq50", "--out", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0  # recorded, never a pass bar
        assert "RECORDED" in out
        report = json.loads(report_path.read_text())
        (chk,) = [c for c in report["checks"] if c["name"] == "fpe"]
        assert chk["informational"] is True
        assert chk["info"]["drift_form"] == "eq50"
        assert chk["max_residual"] > 1e-3  # the alternative form disagrees

    # the fpe check also compares the conservative form, which reads the full
    # drift that flow integrates; tangency and the flow margin pass for any
    # commutator drift, so only fpe can catch a wrong coefficient or sign
    @pytest.mark.parametrize("a, b", [
        (lambda M: 8.0 * (4 * M - 2), -4.0),  # coefficient 8(4M - 2) for 8(4M - 3)
        (lambda M: 8.0 * (4 * M - 3), 4.0),   # the sign of t flipped
    ], ids=["coefficient", "sign-of-t"])
    def test_wrong_drift_fails_verify_all(self, tmp_path, capsys, monkeypatch, a, b):
        from majoranaq import dynamics, kernel, tensors

        cfg = write_config(tmp_path, _MODEL_M3)
        report_path = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--suite", "all", "--out", str(report_path)]) == 0
        (fpe,) = [c for c in json.loads(report_path.read_text())["checks"] if c["name"] == "fpe"]
        assert fpe["info"]["conservative_residual"] <= fpe["max_residual"] <= fpe["tolerance"]

        def wrong_rate(g, t):
            return tensors._compile_rate(g, t, a(g.M), b)

        monkeypatch.setattr(kernel, "_drift_rate", wrong_rate)
        monkeypatch.setattr(dynamics, "_drift_rate", wrong_rate)
        assert main(["verify", "--config", cfg, "--suite", "all", "--out", str(report_path)]) == 1
        checks = json.loads(report_path.read_text())["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == ["fpe"]
        (fpe,) = [c for c in checks if c["name"] == "fpe"]
        assert fpe["max_residual"] == fpe["info"]["conservative_residual"] > 1e-6
        assert "FAIL" in capsys.readouterr().out

    # (check name, instances) of each verify run, in report order
    _ALL_M1 = [("quadratic-identities", 10), ("fpe", 20), ("traceless-m1", 100),
               ("channels-m1", 100), ("tangency", 25), ("flow-boundary-margin", 1)]
    _ALL_M2 = _ALL_M1[:1] + [("four-gamma", 3), ("fpe", 20), ("traceless-m2", 100),
                             ("channels-m2", 100)] + _ALL_M1[4:]
    _ALL_M3 = [(name.replace("m2", "m3"), 5 if name == "fpe" else n) for name, n in _ALL_M2]

    @pytest.mark.parametrize("M, suite, expected", [
        (1, "all", _ALL_M1 + [("moment-m1", 5)]),
        (2, "all", _ALL_M2),
        (3, "all", _ALL_M3),
        (4, "traceless", [("traceless-m4", 100), ("channels-m4", 100)]),
        (4, "tangency", [("tangency", 25), ("flow-boundary-margin", 1)]),
        (4, "fpe", [("fpe", 5)]),
    ], ids=["m1-all", "m2-all", "m3-all", "m4-traceless", "m4-tangency", "m4-fpe"])
    def test_each_check_runs_its_pinned_instances(self, tmp_path, M, suite, expected):
        # the runners' default ensemble sizes are the ones verify runs
        cfg = write_config(tmp_path, {"M": M, "t_entries": [[1, 2, 0.3]], "seed": 2})
        report_path = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--suite", suite,
                     "--out", str(report_path)]) == 0
        checks = json.loads(report_path.read_text())["checks"]
        assert [(c["name"], c["instances"]) for c in checks] == expected

    @pytest.mark.parametrize("data", [{"M": 1, "seed": 1}, _MODEL_M3], ids=["m1", "m3"])
    def test_every_check_reports_its_pinned_bar(self, tmp_path, data):
        # the bar of each check, and the eigensum bar the traceless check
        # reports, are the pinned ones
        cfg = write_config(tmp_path, data)
        report_path = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--suite", "all",
                     "--out", str(report_path)]) == 0
        bars = {}
        for c in json.loads(report_path.read_text())["checks"]:
            name = re.sub(r"^traceless-m\d+$", "traceless-diagonal",
                          re.sub(r"^channels-m\d+$", "channel-reconstruction", c["name"]))
            bars[name] = c["tolerance"]
            if c["name"].startswith("traceless-m"):
                bars["traceless-eigsum"] = c["info"]["eigsum_tol"]
        assert bars == {name: suites.TOLERANCES[name] for name in bars}
        expected = set(suites.TOLERANCES) - {"channel-balance", "channel-boundary"}
        assert set(bars) == expected - ({"four-gamma"} if data["M"] == 1 else {"moment-m1"})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("M, suite", [(3, "traceless"), (3, "all"), (4, "traceless")])
    def test_failed_diffusion_eigensolve_exit_3(self, tmp_path, capsys, M, suite):
        # an overflowing coupling makes D non-finite, so its eigensolve fails:
        # a numerical error, reported on one line
        cfg = write_config(tmp_path, {"M": M, "g_entries": [[1, 2, 3, 4, 1e308]]})
        assert main(["verify", "--config", cfg, "--suite", suite]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"traceless-m{M}: eigensolve of D failed" in err
        assert "Traceback" not in err

    def test_overall_fail_exit_code(self, tmp_path, capsys, monkeypatch):
        # impossible tolerance forces a verification failure
        monkeypatch.setitem(suites.TOLERANCES, "tangency", 1e-30)
        cfg = write_config(tmp_path, {"M": 2, "t_entries": [[1, 2, 0.5]], "seed": 4})
        code = main(["verify", "--config", cfg, "--suite", "tangency"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("name, check, shown", [
        ("traceless-diagonal", "traceless-m3", "tolerance"),
        ("traceless-eigsum", "traceless-m3", "eigsum_tol"),
        ("channel-reconstruction", "channels-m3", "tolerance"),
        ("channel-boundary", "channels-m3", None),
    ], ids=["traceless-diagonal", "traceless-eigsum", "channel-reconstruction",
            "channel-boundary"])
    def test_traceless_suite_reads_the_pinned_bars(self, tmp_path, monkeypatch, name, check,
                                                    shown):
        # each of these values is positive here, so a bar of 1e-300 fails its check
        monkeypatch.setitem(suites.TOLERANCES, name, 1e-300)
        cfg = write_config(tmp_path, {"M": 3, "seed": 3})
        report_path = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--suite", "traceless",
                     "--out", str(report_path)]) == 1
        checks = {c["name"]: c for c in json.loads(report_path.read_text())["checks"]}
        assert [n for n, c in checks.items() if not c["pass"]] == [check]
        if shown == "tolerance":
            assert checks[check]["tolerance"] == 1e-300
        elif shown:
            assert checks[check]["info"][shown] == 1e-300

    @pytest.mark.parametrize("bar, code", [(None, 0), (1e-15, 1)], ids=["pinned", "patched"])
    def test_balance_bar_gates_the_traceless_suite(self, tmp_path, monkeypatch, bar, code):
        from majoranaq import kernel

        # the balance reads exactly 0 on its own; a planted imbalance of 1e-14
        # passes the pinned 1e-12 and fails a bar patched to 1e-15
        traces_of = kernel.ChannelDecomposition.traces

        def unbalanced(self):
            forward, backward = traces_of(self)
            return forward, backward - 1e-14 * np.maximum(forward, 1.0)

        monkeypatch.setattr(kernel.ChannelDecomposition, "traces", unbalanced)
        if bar is not None:
            monkeypatch.setitem(suites.TOLERANCES, "channel-balance", bar)
        cfg = write_config(tmp_path, {"M": 3, "seed": 3})
        report_path = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--suite", "traceless",
                     "--out", str(report_path)]) == code
        checks = {c["name"]: c for c in json.loads(report_path.read_text())["checks"]}
        assert checks["channels-m3"]["info"]["balance"] == pytest.approx(1e-14, rel=0.05)
        assert checks["channels-m3"]["pass"] is (code == 0)
        assert checks["traceless-m3"]["pass"]

    # every name a suite reads whose measured value is positive, with the one
    # check it gates; channel-balance reads exactly 0, and at M = 1 so does
    # every traceless value, as no quadruple fits in 2 Majoranas
    @pytest.mark.parametrize("data, suite, name, check", [
        *(pytest.param(_MODEL_M3, "all", name, check, id=f"all-{name}") for name, check in [
            ("quadratic-identities", "quadratic-identities"),
            ("four-gamma", "four-gamma"),
            ("fpe", "fpe"),
            ("traceless-diagonal", "traceless-m3"),
            ("traceless-eigsum", "traceless-m3"),
            ("channel-reconstruction", "channels-m3"),
            ("channel-boundary", "channels-m3"),
            ("tangency", "tangency"),
            ("flow-boundary-margin", "flow-boundary-margin"),
        ]),
        pytest.param({"M": 1, "seed": 1}, "moment-m1", "moment-m1", "moment-m1",
                     id="moment-m1-moment-m1"),
    ])
    def test_every_bar_a_suite_reads_gates_it(self, tmp_path, monkeypatch, data, suite, name,
                                              check):
        monkeypatch.setitem(suites.TOLERANCES, name, 1e-300)
        cfg = write_config(tmp_path, data)
        report_path = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--suite", suite,
                     "--out", str(report_path)]) == 1
        checks = json.loads(report_path.read_text())["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == [check]

    def test_m_cap_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"M": 7, "seed": 0})
        assert main(["verify", "--config", cfg, "--suite", "fpe"]) == 2
        assert "M <= 6" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["identities", "fpe"])
    def test_oracle_cap_admits_5(self, tmp_path, capsys, suite):
        cfg = write_config(tmp_path, {
            "M": 5, "t_entries": [[1, 2, 0.3], [3, 8, -0.2], [5, 10, 0.1]],
            "g_entries": [[1, 2, 3, 4, 0.05], [2, 5, 7, 10, -0.03]], "seed": 3,
        })
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--suite", suite, "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        expected = {"identities": {"quadratic-identities", "four-gamma"}, "fpe": {"fpe"}}
        assert {c["name"] for c in checks} == expected[suite]
        assert all(c["pass"] and c["info"]["worst"]["M"] == 5 for c in checks)

    @pytest.mark.parametrize("suite", ["identities", "fpe"])
    def test_oracle_cap_rejects_7(self, tmp_path, capsys, suite):
        cfg = write_config(tmp_path, {"M": 7, "seed": 0})
        assert main(["verify", "--config", cfg, "--suite", suite]) == 2
        err = capsys.readouterr().err
        assert "M <= 6" in err and "M = 7" in err and "Traceback" not in err

    @pytest.mark.parametrize("M, suite, message", [
        (1_000_000_000, "all", "'identities' supports M <= 6"),
        (1_000_000_000, "traceless", "'traceless' supports M <= 4"),
        (1_000_000_000, "moment-m1", "requires M = 1"),
        (5, "all", "'traceless' supports M <= 4"),
    ], ids=["huge-all", "huge-traceless", "huge-moment", "m5-all"])
    def test_caps_are_checked_before_any_suite_runs(self, tmp_path, capsys, monkeypatch,
                                                    M, suite, message):
        # no model is built and no suite runs: every runner would raise here
        from majoranaq import config

        def never(*args, **kwargs):
            raise AssertionError("ran past the caps")

        monkeypatch.setattr(config, "config_to_spec", never)
        for name in ("run_quadratic_identities", "run_four_gamma", "run_fpe_sweep"):
            monkeypatch.setattr(suites, name, never)
        cfg = write_config(tmp_path, {"M": M, "seed": 0})
        assert main(["verify", "--config", cfg, "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_moment_requires_m1(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 2, "seed": 0})
        assert main(["verify", "--config", cfg, "--suite", "moment-m1"]) == 2
        cfg1 = write_config(tmp_path, {"M": 1, "seed": 0}, name="m1.json")
        assert main(["verify", "--config", cfg1, "--suite", "moment-m1"]) == 0

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"M": 1, "g_entries": [[1, 2, 2, 1, 1.0]]})
        assert main(["verify", "--config", cfg, "--suite", "traceless"]) == 2
        assert "g_entries" in capsys.readouterr().err

    @pytest.mark.parametrize("data,field", [
        ({"M": 1, "t_entries": [[1, 2, "a"]]}, "t_entries[0].value"),
        ({"M": 2, "g_entries": [[1, 2, 3, 4, float("nan")]]}, "g_entries[0].value"),
    ], ids=["non-numeric", "nan-coupling"])
    def test_malformed_config_numbers_exit_2(self, tmp_path, capsys, data, field):
        # json.dumps writes NaN, which Python's json reader accepts
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg, "--suite", "tangency"]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_missing_file(self, capsys):
        assert main(["verify", "--config", "/nonexistent.json"]) == 2

    def test_seed_override_embedded(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 2, "seed": 1})
        report_path = tmp_path / "r.json"
        main(["verify", "--config", cfg, "--suite", "tangency", "--seed", "99",
              "--out", str(report_path)])
        assert json.loads(report_path.read_text())["seed"] == 99

    def test_report_conjunction(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 2, "t_entries": [[1, 2, 0.4]], "seed": 5})
        report_path = tmp_path / "r.json"
        code = main(["verify", "--config", cfg, "--suite", "all",
                     "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        expected = all(c["pass"] for c in report["checks"] if not c["informational"])
        assert report["overall_pass"] == expected
        assert code == (0 if expected else 1)


class TestFlowCommand:
    def test_stationary_rows_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 2, "seed": 6})
        out_csv = tmp_path / "traj.csv"
        code = main(["flow", "--config", cfg, "--dt", "0.01", "--steps", "5",
                     "--out", str(out_csv)])
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "x_1_2", "x_1_3", "x_1_4", "x_2_3", "x_2_4",
                           "x_3_4", "margin"]
        assert len(rows) == 7
        first_state = rows[1][1:-1]
        for row in rows[2:]:
            assert row[1:-1] == first_state

    def test_boundary_seed_margin(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "M": 2, "preset": {"name": "hubbard", "sites": 1, "onsite": 4.0},
            "seed": 7,
        })
        out_csv = tmp_path / "traj.csv"
        code = main(["flow", "--config", cfg, "--dt", "1e-3", "--steps", "1000",
                     "--out", str(out_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "final margin" in out
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        final_margin = abs(float(rows[-1][-1]))
        assert final_margin <= 1e-7

    @staticmethod
    def _per_value_csv(traj) -> bytes:
        """The trajectory CSV text of per-value f-string formatting."""
        lines = [",".join(["time"] + [f"x_{p.alpha}_{p.beta}"
                                      for p in majoranaq.pair_enumerate(traj.M)] + ["margin"])]
        for t, state, margin in zip(traj.times, traj.packed, traj.margins):
            lines.append(",".join([f"{t:.10g}"] + [f"{v:.16e}" for v in state]
                                  + [f"{margin:.16e}"]))
        return ("\n".join(lines) + "\n").encode()

    def test_flow_settles_and_writes_the_same_row_blocks(self, tmp_path, monkeypatch):
        # 2B + 1 steps store 2B + 2 rows: the flow's stacked margin solves
        # and the writer's format_rows calls each take the same three blocks
        from majoranaq import _csvrows, dynamics

        block = dynamics._BLOCK
        solved, formatted = [], []
        margin, format_rows = dynamics._margin, _csvrows.format_rows

        def counted_margin(xs):
            if xs.ndim == 3:
                solved.append(len(xs))
            return margin(xs)

        def counted_format_rows(times, values):
            formatted.append(len(times))
            return format_rows(times, values)

        monkeypatch.setattr(dynamics, "_margin", counted_margin)
        monkeypatch.setattr(_csvrows, "format_rows", counted_format_rows)
        cfg = write_config(tmp_path, {"M": 4, "preset": {"name": "hubbard", "sites": 2,
                                                         "hop": 1.0, "onsite": 4.0}})
        assert main(["flow", "--config", cfg, "--steps", str(2 * block + 1),
                     "--out", str(tmp_path / "traj.csv")]) == 0
        ranges = [(0, block), (block, 2 * block), (2 * block, 2 * block + 2)]
        for lengths in (solved, formatted):
            stops = list(itertools.accumulate(lengths))
            assert list(zip([0, *stops], stops)) == ranges

    # 2000 steps are 8 blocks of 256 rows and a partial ninth
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("cfg,dt,steps", [
        ({"M": 1, "t_entries": [[1, 2, 0.7]], "seed": 5}, 1e-3, 2000),
        ({"M": 3, "t_entries": [[1, 2, 0.3], [2, 5, -0.2]], "g_entries": [[1, 2, 3, 4, 0.05]],
          "seed": 3}, 1e-2, 130),
        ({"M": 4, "preset": {"name": "hubbard", "sites": 2, "hop": 1.0, "onsite": 4.0},
          "seed": 2}, 1e-3, 2000),
        ({"M": 16, "preset": {"name": "hubbard", "sites": 8, "hop": 1.0, "onsite": 4.0},
          "seed": 1}, 1e-3, 300),
    ], ids=["m1", "m3", "m4", "m16"])
    def test_csv_bytes_match_per_value_formatting(self, tmp_path, cfg, dt, steps, method):
        # the writer lays out each block of rows at once; the file must equal
        # the text of per-value f-string formatting of the trajectory
        path = write_config(tmp_path, cfg)
        out_csv = tmp_path / "traj.csv"
        assert main(["flow", "--config", path, "--dt", repr(dt), "--steps", str(steps),
                     "--method", method, "--out", str(out_csv)]) == 0
        spec = config_to_spec(load_config(path))
        traj = majoranaq.flow(majoranaq.random_boundary_point(cfg["M"], cfg["seed"]), spec,
                              dt, steps, method=method)
        assert out_csv.read_bytes() == self._per_value_csv(traj)

    def test_csv_carries_edge_values_unchanged(self, tmp_path):
        # a model without couplings keeps its initial point: zeros, -0.0, a
        # subnormal, the smallest normal, and both edges of the writer's
        # exact range [1e-15, 1e17) reach the CSV as %.16e writes them
        edges = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-15, np.nextafter(1e-15, 0),
                 -1e-15, 9.999999999999998e16, 1e17, -1e17, 1e-300, 0.5, -1.0, 123.456,
                 np.nextafter(1e-14, 0)]
        cfg = write_config(tmp_path, {"M": 3, "seed": 0})
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps({"M": 3, "packed": [float(v) for v in edges]}))
        out_csv = tmp_path / "traj.csv"
        assert main(["flow", "--config", cfg, "--x0-file", str(x0_path),
                     "--dt", "1e-2", "--steps", "300", "--out", str(out_csv)]) == 0
        spec = config_to_spec(load_config(cfg))
        traj = majoranaq.flow(majoranaq.PhasePoint(3, np.array(edges)), spec, 1e-2, 300)
        text = out_csv.read_bytes()
        assert text == self._per_value_csv(traj)
        first = text.split(b"\n")[1].split(b",")[1:-1]
        assert first == [b"%.16e" % v for v in edges]
        assert first[1] == b"-0.0000000000000000e+00" and first[2] == b"4.9406564584124654e-324"

    def test_flow_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"M": 2, "t_entries": [[1, 3, 0.4]],
                                      "g_entries": [[1, 2, 3, 4, 0.3]], "seed": 4})
        out_csv = tmp_path / "traj.csv"
        for method, evaluations in (("rk4", 28), ("euler", 7)):
            assert main(["flow", "--config", cfg, "--dt", "1e-2", "--steps", "7",
                         "--method", method, "--out", str(out_csv)]) == 0
            lines = capsys.readouterr().out.splitlines()
            with open(out_csv, newline="") as fh:
                margins = [float(row[-1]) for row in list(csv.reader(fh))[1:]]
            worst = int(np.argmax(np.abs(margins)))
            assert lines[1].startswith("final margin: ")
            assert lines[2] == f"max |margin|: {abs(margins[worst]):.3e} at step {worst}"
            assert lines[3] == f"drift evaluations: {evaluations}"
            assert re.fullmatch(r"integration wall time: \d+\.\d{3} s", lines[4])
            assert re.fullmatch(r"csv write wall time: \d+\.\d{3} s", lines[5])
            assert len(lines) == 6

    def test_file_sourced_initial_point(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 1.0]], "seed": 0})
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps({"M": 1, "packed": [0.5]}))
        out_csv = tmp_path / "traj.csv"
        code = main(["flow", "--config", cfg, "--x0-file", str(x0_path), "--steps", "3",
                     "--dt", "0.1", "--out", str(out_csv)])
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][1]) == pytest.approx(0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "M": 3, "g_entries": [[1, 2, 3, 4, 1e3], [3, 4, 5, 6, 1e3]], "seed": 1,
        })
        code = main(["flow", "--config", cfg, "--dt", "1e3", "--steps", "50",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_x0_file_exit_3(self, tmp_path, capsys):
        # a finite initial point whose margin overflows the eigensolver is a
        # numerical error at step 0, not an uncaught LinAlgError
        cfg = write_config(tmp_path, {"M": 3, "seed": 0})
        x0 = 1e160 * np.asarray(majoranaq.random_boundary_point(3, 7).packed)
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps({"M": 3, "packed": x0.tolist()}))
        code = main(["flow", "--config", cfg, "--x0-file", str(x0_path),
                     "--out", str(tmp_path / "t.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "step 0" in err and "Traceback" not in err

    # the two large step counts are refused by numpy before any memory is
    # touched: a MemoryError (199 PiB) and "array is too big" (past the index range)
    @pytest.mark.parametrize("flag,value", [
        ("--steps", "0"), ("--steps", "-3"),
        ("--steps", "1000000000000000"), ("--steps", "4611686018427387904"),
        ("--dt", "0"), ("--dt", "-1e-3"), ("--dt", "nan"), ("--dt", "inf"),
    ])
    def test_invalid_step_arguments_exit_2(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 0.5]], "seed": 0})
        out_csv = tmp_path / "t.csv"
        code = main(["flow", "--config", cfg, f"{flag}={value}", "--out", str(out_csv)])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out_csv.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_horizon_exit_2(self, tmp_path, capsys):
        # on a stationary model every step succeeds, so only the horizon
        # check keeps inf out of the time column
        cfg = write_config(tmp_path, {"M": 1, "seed": 0})
        out_csv = tmp_path / "t.csv"
        code = main(["flow", "--config", cfg, "--dt", "1e308", "--steps", "3",
                     "--out", str(out_csv)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--dt" in err and "Traceback" not in err
        assert not out_csv.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_coupling_exit_3_without_warning(self, tmp_path, capsys):
        # the rate compiled from these couplings overflows; its overflow is
        # a divergence at step 1, not a numpy warning
        hub = str(tmp_path / "hub.json")
        assert main(["preset", "hubbard", "--sites", "2", "--hop", "1e308",
                     "--onsite", "1.7e308", "--out", hub]) == 0
        capsys.readouterr()
        code = main(["flow", "--config", hub, "--out", str(tmp_path / "t.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged" in err and "Traceback" not in err

    def test_m_cap_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"M": 17, "seed": 0})
        out_csv = tmp_path / "t.csv"
        code = main(["flow", "--config", cfg, "--steps", "2", "--out", str(out_csv)])
        assert code == 2
        err = capsys.readouterr().err
        assert "M <= 16" in err and "M = 17" in err and "Traceback" not in err
        assert not out_csv.exists()

    def test_m_cap_admits_16(self, tmp_path):
        cfg = write_config(tmp_path, {
            "M": 16,
            "preset": {"name": "hubbard", "sites": 8, "hop": 1.0, "onsite": 4.0},
            "seed": 0,
        })
        out_csv = tmp_path / "t.csv"
        code = main(["flow", "--config", cfg, "--dt", "1e-3", "--steps", "2",
                     "--out", str(out_csv)])
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4 and len(rows[0]) == 2 + 16 * 31

    def test_x0_file_m_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 2, "seed": 0})
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps({"M": 1, "packed": [0.5]}))
        code = main(["flow", "--config", cfg, "--x0-file", str(x0_path),
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"M": 1}',
        '{"M": 1, "packed": [',
        '[0.5]',
        '{"M": 1, "packed": ["a"]}',
        '{"M": 1, "packed": [NaN]}',
        "[" * 100_000,
        b'{"M": 1, "packed": [0.5]} \xff',
        '{"M": 1, "packed": [[0.5], [0.25]]}',
        '{"M": 1, "packed": [[0.5]]}',
        '{"M": 1, "packed": [true]}',
        '{"M": 1, "packed": 0.5}',
        '{"M": 1, "packed": [0.5], "seed": 3}',
    ], ids=["no-packed", "truncated", "not-object", "non-numeric", "non-finite", "nested",
            "non-utf8", "stacked-rows", "stacked-row", "boolean", "not-a-list", "unknown-key"])
    def test_malformed_x0_file_exit_2(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 0.5]], "seed": 0})
        x0_path = tmp_path / "x0.json"
        x0_path.write_bytes(text if isinstance(text, bytes) else text.encode())
        out_csv = tmp_path / "t.csv"
        code = main(["flow", "--config", cfg, "--x0-file", str(x0_path), "--out", str(out_csv)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--x0-file" in err and "Traceback" not in err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out_csv.exists()


    def test_x0_file_alone_selects_the_start(self, tmp_path):
        # row 0 is the file's point, not the seeded boundary point
        cfg = write_config(tmp_path, {"M": 2, "t_entries": [[1, 2, 0.5]], "seed": 0})
        x0 = [0.1, -0.2, 0.3, 0.05, 0.0, 0.25]
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps({"M": 2, "packed": x0}))
        out_csv = tmp_path / "t.csv"
        assert main(["flow", "--config", cfg, "--x0-file", str(x0_path), "--steps", "2",
                     "--out", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            first = [float(v) for v in list(csv.reader(fh))[1][1:-1]]
        assert first == x0
        assert first != majoranaq.random_boundary_point(2, 0).packed.tolist()

    @pytest.mark.parametrize("mode", ["file", "boundary-seed"])
    def test_x0_option_is_gone_exit_2(self, tmp_path, capsys, mode):
        # --x0 is neither an option nor read as a prefix of --x0-file
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 0.5]], "seed": 0})
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps({"M": 1, "packed": [0.5]}))
        out_csv = tmp_path / "t.csv"
        err = _usage_error(["flow", "--config", cfg, "--x0", mode, "--x0-file", str(x0_path),
                            "--steps", "2", "--out", str(out_csv)], capsys)
        assert "unrecognized arguments: --x0" in err and "Traceback" not in err
        assert not out_csv.exists()


class TestPresetCommand:
    def test_writes_loadable_config(self, tmp_path, capsys):
        out = tmp_path / "hub.json"
        code = main(["preset", "hubbard", "--sites", "2", "--hop", "1.0",
                     "--onsite", "4.0", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "identity shift" in printed and "+2" in printed
        data = json.loads(out.read_text())
        assert data["M"] == 4 and data["preset"]["geometry"] == "chain"
        # the generated config is immediately usable
        assert main(["verify", "--config", str(out), "--suite", "tangency"]) == 0

    def test_geometry_option_is_gone_exit_2(self, tmp_path, capsys):
        # a chain is the only geometry, and the config still records it
        out = tmp_path / "hub.json"
        err = _usage_error(["preset", "hubbard", "--sites", "2", "--geometry", "chain",
                            "--out", str(out)], capsys)
        assert "unrecognized arguments: --geometry" in err and not out.exists()

    @pytest.mark.parametrize("sites,code", [(8, 0), (9, 2)])
    def test_sites_are_capped_by_the_flow_cap(self, tmp_path, capsys, sites, code):
        # 9 sites make M = 18, which no command runs; the preset refuses to write it
        out = tmp_path / "hub.json"
        assert main(["preset", "hubbard", "--sites", str(sites), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: --sites: must be <= 8") and "Traceback" not in err
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("sites", range(1, 9))
    @pytest.mark.parametrize("hop,onsite", [(0.0, 0.0), (1.0, 0.0), (0.0, 4.0), (-1.3, 2.5)])
    def test_summary_matches_the_coupling_classes(self, tmp_path, capsys, sites, hop, onsite):
        # the standard-library summary counts what the chain's couplings store
        out = tmp_path / "hub.json"
        assert main(["preset", "hubbard", "--sites", str(sites), "--hop", repr(hop),
                     "--onsite", repr(onsite), "--out", str(out)]) == 0
        t, g, shift = chain_entries(sites, hop, onsite)
        spec = config_to_spec(ModelConfig(2 * sites, t, g))
        n_t = int(np.count_nonzero(np.asarray(spec.t.packed)))
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"M = {spec.M}, {n_t} quadratic entries, {len(spec.g.table)} quartic entries",
            f"dropped identity shift: {shift:+.6g}",
        ]


# values no number field accepts: text, null, a boolean, a list, non-finite
# floats, and an integer too large for a float
_BAD_NUMBERS = ["0.5", None, True, [1.0], float("nan"), float("inf"), 10 ** 400]


class TestPresetTwin:
    """A preset config and its twin with the entries written out run one model."""

    @staticmethod
    def _configs(tmp_path, sites):
        preset = {"M": 2 * sites, "seed": 5, "preset": {"name": "hubbard", "sites": sites,
                                                         "hop": 1.0, "onsite": 4.0}}
        return (write_config(tmp_path, preset, name="preset.json"),
                write_config(tmp_path, hubbard_chain_config(sites, 1.0, 4.0, seed=5),
                             name="twin.json"))

    @pytest.mark.parametrize("sites", [1, 2, 3, 8])
    def test_flow_csvs_are_byte_identical(self, tmp_path, capsys, sites):
        csvs = []
        for cfg in self._configs(tmp_path, sites):
            csvs.append(tmp_path / (Path(cfg).stem + ".csv"))
            assert main(["flow", "--config", cfg, "--steps", "200", "--out", str(csvs[-1])]) == 0
        assert csvs[0].read_bytes() == csvs[1].read_bytes()

    # M = 6 is past the kernel suites' cap; fpe is the suite there that reads the model
    @pytest.mark.parametrize("sites,suite", [(1, "all"), (2, "all"), (3, "fpe")])
    def test_verify_reports_are_equal_but_for_seconds(self, tmp_path, capsys, sites, suite):
        reports = []
        for cfg in self._configs(tmp_path, sites):
            out = tmp_path / (Path(cfg).stem + "-report.json")
            assert main(["verify", "--config", cfg, "--suite", suite, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            for check in report["checks"]:
                del check["seconds"]
            reports.append(report)
        assert reports[0] == reports[1]


@st.composite
def malformed_configs(draw):
    """A valid config at M <= 4 with one field broken, and the field its error must name."""
    M = draw(st.integers(1, 4))
    n = 2 * M
    data = {"M": M, "t_entries": [[1, 2, 0.3]], "g_entries": [[1, 2, 3, 4, 0.05]] if M > 1 else [],
            "seed": 3}
    field = draw(st.sampled_from(["M", "seed", "t_entries", "g_entries", "preset", "tolerances",
                                  "unknown"]))
    value = draw(st.sampled_from(_BAD_NUMBERS))
    index = draw(st.sampled_from([0, -1, n + 1, 1.0, "1", True, None]))
    if field == "M":
        data["M"] = draw(st.sampled_from([0, -1, "2", 2.0, True, None, [M]]))
    elif field == "seed":
        data["seed"] = draw(st.sampled_from([-1, "3", 1.5, True, None]))
    elif field in ("t_entries", "g_entries"):
        entry = [1, 2, 0.3] if field == "t_entries" else [1, 2, 3, 4, 0.05]
        broken = draw(st.sampled_from([
            "x", 3, {"a": 1}, [entry[:-2]], [entry + [1]], ["entry"], [entry, entry],
            [[entry[1], entry[0], *entry[2:]]], [[*entry[:-1], value]],
            [[index, *entry[1:]]], [[*entry[:-2], index, entry[-1]]],
        ]))
        data[field] = broken if M > 1 or field == "t_entries" else [entry]
    elif field == "preset":
        data = {"M": M, "preset": {"name": "hubbard", "sites": M // 2, "hop": 1.0, "onsite": 4.0}}
        key, bad = draw(st.sampled_from([
            (None, "hubbard"), ("name", "fermi"), ("U", 1.0), ("sites", M), ("sites", "1"),
            ("hop", value), ("onsite", value), ("geometry", "ring"), ("t_entries", None),
        ]))
        if key is None:
            data["preset"] = bad
        elif key == "t_entries":
            data["t_entries"] = [[1, 2, 0.3]]
        else:
            data["preset"][key] = bad
    elif field == "tolerances":
        data["tolerances"] = draw(st.sampled_from([
            "1e-9", [1e-9], {"tangencyy": 1e-9}, {"tangency": 0.0}, {"tangency": -1e-9},
            {"tangency": value},
        ]))
    else:
        field = "foo"
        data["foo"] = 1
    return data, field


def _usage_error(argv, capsys) -> str:
    """Run ``argv``, expect an argument-parsing exit 2, return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestInputValidation:
    @pytest.mark.parametrize("command", ["verify", "flow"])
    @pytest.mark.parametrize("data,field", [
        ({"M": 2, "seed": -5}, "seed"),
        ({"M": 2, "preset": {"name": "hubbard", "sites": 1, "onsite": "abc"}},
         "preset.onsite"),
        ({"M": 4, "preset": {"name": "hubbard", "sites": 2, "geometry": "ring"}},
         "preset.geometry"),
    ], ids=["negative-seed", "non-numeric-onsite", "ring-geometry"])
    def test_bad_config_fields_exit_2(self, tmp_path, capsys, command, data, field):
        cfg = write_config(tmp_path, data)
        extra = ["--suite", "tangency"] if command == "verify" else \
            ["--steps", "2", "--out", str(tmp_path / "t.csv")]
        assert main([command, "--config", cfg, *extra]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    # the bars verify gates are pinned in suites.TOLERANCES: a config that
    # names one, loosens one or names no check at all is refused alike
    @pytest.mark.parametrize("command", ["verify", "flow"])
    @pytest.mark.parametrize("tolerances", [
        {"fpe": 1e-5}, {"tangency": 1e-300}, {"tangencyy": 1e-9}, {"hubbard-fidelity": 1e-12}, {},
    ], ids=["loosened", "tightened", "unknown-name", "acceptance-only", "empty"])
    def test_tolerances_key_exits_2(self, tmp_path, capsys, command, tolerances):
        cfg = write_config(tmp_path, {"M": 2, "t_entries": [[1, 2, 0.5]], "seed": 1,
                                      "tolerances": tolerances})
        extra = ["--suite", "tangency"] if command == "verify" else \
            ["--steps", "2", "--out", str(tmp_path / "t.csv")]
        assert main([command, "--config", cfg, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown keys ['tolerances']\n" and captured.out == ""
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["verify", "flow", "preset"])
    def test_negative_seed_option_is_a_usage_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"M": 2, "seed": 1})
        out = tmp_path / "out"
        argv = {
            "verify": ["verify", "--config", cfg, "--suite", "tangency", "--seed", "-3"],
            "flow": ["flow", "--config", cfg, "--seed", "-1", "--out", str(out)],
            "preset": ["preset", "hubbard", "--sites", "1", "--seed", "-2", "--out", str(out)],
        }[command]
        assert "--seed" in _usage_error(argv, capsys)
        assert not out.exists()

    def test_preset_seed_round_trips(self, tmp_path):
        out = tmp_path / "hub.json"
        assert main(["preset", "hubbard", "--sites", "1", "--seed", "0", "--out", str(out)]) == 0
        assert load_config(str(out)).seed == 0

    @pytest.mark.parametrize("flag,value", [("--hop", "nan"), ("--hop", "inf"),
                                            ("--hop", "-inf"), ("--onsite", "nan"),
                                            ("--onsite", "x")])
    def test_non_finite_preset_coupling_is_a_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "hub.json"
        # "--hop=-inf": a separate "-inf" would be read as an option name
        err = _usage_error(["preset", "hubbard", "--sites", "2", f"{flag}={value}",
                            "--out", str(out)], capsys)
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["verify --config", "verify --out", "flow --x0-file",
                                        "flow --out", "preset --out"])
    def test_unopenable_user_path_exit_2(self, tmp_path, capsys, option):
        command, flag = option.split()
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 0.5]], "seed": 0})
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps({"M": 1, "packed": [0.5]}))
        paths = {"--config": cfg, "--out": str(tmp_path / "out"), "--x0-file": str(x0_path)}
        paths[flag] = str(tmp_path)  # a directory cannot be opened as a file
        argv = {
            "verify": ["verify", "--config", paths["--config"], "--suite", "tangency",
                       "--out", paths["--out"]],
            "flow": ["flow", "--config", cfg, "--steps", "2", "--x0-file", paths["--x0-file"],
                     "--out", paths["--out"]],
            "preset": ["preset", "hubbard", "--sites", "1", "--out", paths["--out"]],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {flag}: " in err and str(tmp_path) in err and "Traceback" not in err

    def test_other_os_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(majoranaq.dynamics, "flow", full_disk)
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 0.5]], "seed": 0})
        assert main(["flow", "--config", cfg, "--steps", "2",
                     "--out", str(tmp_path / "t.csv")]) == 3
        assert "No space left on device" in capsys.readouterr().err

    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(malformed_configs())
    def test_property_malformed_config_exits_2_naming_its_field(self, tmp_path_factory, case):
        data, field = case
        path = write_config(tmp_path_factory.getbasetemp(), data, name="malformed.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "--config", path, "--suite", "tangency"])
        assert code == 2 and field in err.getvalue(), (data, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the interpreter converts integer literals of any length")
    @pytest.mark.parametrize("command", ["verify", "flow"])
    def test_integer_literal_beyond_the_conversion_limit_exit_2(self, tmp_path, capsys, command):
        huge = "1" + "0" * 5000
        path = tmp_path / "huge.json"
        path.write_text('{"M": 1, "t_entries": [[1, 2, 0.5]], "seed": %s}' % huge)
        x0_path = tmp_path / "x0.json"
        x0_path.write_text('{"M": 1, "packed": [%s]}' % huge)
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 0.5]], "seed": 0})
        argv = {
            "verify": ["verify", "--config", str(path), "--suite", "tangency"],
            "flow": ["flow", "--config", cfg, "--steps", "2", "--x0-file", str(x0_path),
                     "--out", str(tmp_path / "t.csv")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "Traceback" not in err

    @pytest.mark.parametrize("raw", [b"[" * 100_000, b'{"M": 1, "seed": 0} \xff'],
                             ids=["nested", "non-utf8"])
    @pytest.mark.parametrize("command", ["verify", "flow"])
    def test_undecodable_config_exit_2(self, tmp_path, capsys, command, raw):
        path = tmp_path / "undecodable.json"
        path.write_bytes(raw)
        argv = {
            "verify": ["verify", "--config", str(path), "--suite", "tangency"],
            "flow": ["flow", "--config", str(path), "--steps", "2",
                     "--out", str(tmp_path / "t.csv")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    def test_x0_beyond_the_float_range_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 0.5]], "seed": 0})
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps({"M": 1, "packed": [10 ** 400]}))
        assert main(["flow", "--config", cfg, "--steps", "2", "--x0-file", str(x0_path),
                     "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert '--x0-file: "packed" must be a list of numbers' in err and "Traceback" not in err

    def test_boolean_x0_mode_count_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 0.5]], "seed": 0})
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps({"M": True, "packed": [0.5]}))
        out_csv = tmp_path / "t.csv"
        code = main(["flow", "--config", cfg, "--x0-file", str(x0_path), "--out", str(out_csv)])
        assert code == 2
        err = capsys.readouterr().err
        assert '--x0-file "M"' in err and "True" in err
        assert not out_csv.exists()


def _child_env() -> dict:
    """The environment of a child interpreter that imports this majoranaq."""
    src = str(Path(majoranaq.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def _modules_after(snippet: str, cwd, also: tuple = ()) -> list:
    """The majoranaq and numpy modules (and those named in ``also``) a fresh
    interpreter holds after ``snippet``."""
    names = ("numpy", *also)
    code = (
        "import json, sys\n"
        f"{snippet}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m in {names!r}\n"
        "                        or m.split('.')[0] == 'majoranaq')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, cwd=cwd)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _cli_run(*argv: str) -> str:
    """A snippet that runs the command line as ``python -m majoranaq.cli`` does."""
    return (
        "import runpy\n"
        f"sys.argv = ['majoranaq', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('majoranaq.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code"
    )


def _import_time_modules(cwd, *argv: str) -> set:
    """The modules that ``python -X importtime -m majoranaq.cli *argv`` logs."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "majoranaq.cli", *argv],
                         env=_child_env(), capture_output=True, text=True, cwd=cwd)
    assert out.returncode == 0, out.stderr
    return {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:")}


class TestImportLayering:
    """Each command loads only the modules it runs."""

    def test_bare_import_loads_no_submodule(self, tmp_path):
        assert _modules_after("import majoranaq", tmp_path) == ["majoranaq"]

    def test_preset_runs_on_the_standard_library(self, tmp_path):
        loaded = _modules_after(_cli_run("preset", "hubbard", "--sites", "2", "--hop", "1",
                                         "--onsite", "4", "--out", "hub.json"), tmp_path)
        assert "numpy" not in loaded and "majoranaq.tensors" not in loaded
        assert (tmp_path / "hub.json").exists()

    def test_preset_loads_no_dataclasses(self, tmp_path):
        # the preset builds its entries on the standard library: dataclasses
        # and the inspect module it pulls in stay off the preset's path
        loaded = _modules_after(_cli_run("preset", "hubbard", "--sites", "2", "--hop", "1",
                                         "--onsite", "4", "--out", "hub.json"), tmp_path,
                                also=("dataclasses", "inspect"))
        assert "majoranaq.hubbard" in loaded
        assert "dataclasses" not in loaded and "inspect" not in loaded

    def test_flow_loads_no_oracle(self, tmp_path):
        # the stage kernel is defined in tensors, so flow also leaves the
        # coefficient kernel unloaded
        cfg = write_config(tmp_path, {"M": 4, "preset": {"name": "hubbard", "sites": 2,
                                                         "hop": 1.0, "onsite": 4.0}})
        loaded = _modules_after(_cli_run("flow", "--config", cfg, "--steps", "3",
                                         "--out", "t.csv"), tmp_path)
        assert "majoranaq.dynamics" in loaded
        assert not {"majoranaq.fock", "majoranaq.suites", "majoranaq.kernel"} & set(loaded)

    def test_only_flow_loads_the_csv_writer(self, tmp_path):
        hub = write_config(tmp_path, {"M": 4, "preset": {"name": "hubbard", "sites": 2,
                                                         "hop": 1.0, "onsite": 4.0}})
        m3 = write_config(tmp_path, {"M": 3, "t_entries": [[1, 2, 0.3], [2, 5, -0.2]],
                                     "g_entries": [[1, 2, 3, 4, 0.05]], "seed": 3},
                          name="m3.json")
        for argv in (("preset", "hubbard", "--sites", "2", "--hop", "1", "--onsite", "4",
                      "--out", "hub.json"),
                     ("verify", "--config", m3, "--suite", "all")):
            assert "majoranaq._csvrows" not in _modules_after(_cli_run(*argv), tmp_path)
        flow = _modules_after(_cli_run("flow", "--config", hub, "--steps", "3", "--out", "t.csv"),
                              tmp_path)
        assert "majoranaq._csvrows" in flow

    def test_import_time_lists_every_loaded_submodule(self, tmp_path):
        # `from . import name` reaches a submodule through the package's
        # __getattr__, which loads it by the route -X importtime logs
        m3 = write_config(tmp_path, {"M": 3, "g_entries": [[1, 2, 3, 4, 0.05]], "seed": 3},
                          name="m3.json")
        hub = write_config(tmp_path, {"M": 4, "preset": {"name": "hubbard", "sites": 2,
                                                         "hop": 1.0, "onsite": 4.0}})
        verify = _import_time_modules(tmp_path, "verify", "--config", m3, "--suite", "traceless")
        assert {"majoranaq.kernel", "majoranaq.suites"} <= verify
        flow = _import_time_modules(tmp_path, "flow", "--config", hub, "--steps", "3",
                                    "--out", "t.csv")
        assert "majoranaq.dynamics" in flow and "majoranaq.kernel" not in flow

    @pytest.mark.parametrize("suite", ["traceless", "tangency"])
    def test_kernel_suites_load_no_oracle(self, tmp_path, suite):
        cfg = write_config(tmp_path, {"M": 3, "g_entries": [[1, 2, 3, 4, 0.05]], "seed": 3})
        loaded = _modules_after(_cli_run("verify", "--config", cfg, "--suite", suite), tmp_path)
        assert "majoranaq.suites" in loaded and "majoranaq.fock" not in loaded

    def test_verify_all_loads_no_masked_arrays(self, tmp_path):
        # np.unique and np.median each import numpy.ma, about 15 ms of a
        # verify run; the oracle and the fpe median do without them
        cfg = write_config(tmp_path, {"M": 3, "t_entries": [[1, 2, 0.3], [2, 5, -0.2]],
                                      "g_entries": [[1, 2, 3, 4, 0.05]], "seed": 3})
        loaded = _modules_after(_cli_run("verify", "--config", cfg, "--suite", "all"),
                                tmp_path, also=("numpy.ma",))
        assert "majoranaq.fock" in loaded and "numpy.ma" not in loaded

    def test_config_setup_loads_only_the_model_layers(self, tmp_path):
        # a config without a preset does not load the Hubbard module
        cfg = write_config(tmp_path, {"M": 2, "t_entries": [[1, 2, 0.5]]})
        loaded = _modules_after(
            "import majoranaq\n"
            "from majoranaq.config import config_to_spec, load_config\n"
            f"config_to_spec(load_config({cfg!r}))", tmp_path)
        assert loaded == ["majoranaq", "majoranaq.config", "majoranaq.errors",
                          "majoranaq.tensors", "numpy"]

    def test_traceless_loads_no_flow_and_no_preset(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 3, "g_entries": [[1, 2, 3, 4, 0.05]], "seed": 3})
        loaded = _modules_after(_cli_run("verify", "--config", cfg, "--suite", "traceless"),
                                tmp_path)
        assert "majoranaq.kernel" in loaded
        assert "majoranaq.dynamics" not in loaded and "majoranaq.hubbard" not in loaded

    @pytest.mark.parametrize("command", ["flow", "traceless", "all"])
    def test_commands_load_no_dataclasses(self, tmp_path, command):
        # no value type is a dataclass, whose decorator generates and
        # compiles its methods at every start-up
        hub = write_config(tmp_path, {"M": 4, "preset": {"name": "hubbard", "sites": 2,
                                                         "hop": 1.0, "onsite": 4.0}},
                           name="hub.json")
        m3 = write_config(tmp_path, {"M": 3, "t_entries": [[1, 2, 0.3], [2, 5, -0.2]],
                                     "g_entries": [[1, 2, 3, 4, 0.05]], "seed": 3})
        argv = {
            "flow": ("flow", "--config", hub, "--steps", "3", "--out", "t.csv"),
            "traceless": ("verify", "--config", m3, "--suite", "traceless"),
            "all": ("verify", "--config", m3, "--suite", "all"),
        }[command]
        loaded = _modules_after(_cli_run(*argv), tmp_path, also=("dataclasses",))
        assert "majoranaq.tensors" in loaded and "dataclasses" not in loaded


class TestWithoutScipy:
    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # every CLI command runs on numpy alone; sys.modules["scipy"] = None
        # makes any scipy import raise ImportError
        m3 = write_config(tmp_path, {"M": 3, "t_entries": [[1, 2, 0.3], [2, 5, -0.2]],
                                     "g_entries": [[1, 2, 3, 4, 0.05]], "seed": 3},
                          name="m3.json")
        quads = itertools.combinations(range(1, 9), 4)
        m4 = write_config(tmp_path, {"M": 4, "seed": 5,
                                     "g_entries": [[*q, 0.01 * (n % 7 - 3.5)]
                                                   for n, q in enumerate(quads)]},
                          name="m4.json")
        hub = str(tmp_path / "hub.json")
        commands = [
            ["preset", "hubbard", "--sites", "2", "--hop", "1.0", "--onsite", "4.0",
             "--out", hub],
            ["flow", "--config", hub, "--steps", "5", "--out", str(tmp_path / "t.csv")],
            ["verify", "--config", m3, "--suite", "all"],
            ["verify", "--config", m4, "--suite", "traceless"],
        ]
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from majoranaq.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes))\n"
        )
        out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=_child_env(),
                             capture_output=True, text=True, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.strip().splitlines()[-1]) == [0, 0, 0, 0]

    def test_covariance_comparison_runs_with_scipy_blocked(self, tmp_path):
        # the test oracle that demo 05 runs takes both exponentials from numpy
        # eigendecompositions, so the demo runs where scipy is not installed
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "from basis_oracle import gaussian_covariance_comparison\n"
            "from majoranaq import CouplingMatrix, random_boundary_point\n"
            "t = CouplingMatrix.from_entries(2, [(1, 2, 0.5), (2, 3, -0.3), (1, 4, 0.2)])\n"
            "print(gaussian_covariance_comparison(random_boundary_point(2, 13), t, 1.0))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                             capture_output=True, text=True, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert 0.0 <= float(out.stdout.strip().splitlines()[-1]) <= 1e-12


def _process_run(cwd, *argv: str) -> subprocess.CompletedProcess:
    """``python -m majoranaq.cli *argv`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "majoranaq.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, cwd=cwd)


class TestProcessEntry:
    """The process entry freezes the collector after main() returns; main()
    called in-process leaves the collector as it found it."""

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path, capsys):
        hub = str(tmp_path / "hub.json")
        commands = [
            ["preset", "hubbard", "--sites", "2", "--hop", "1.0", "--onsite", "4.0",
             "--out", hub],
            ["flow", "--config", hub, "--steps", "5", "--out", str(tmp_path / "t.csv")],
            ["verify", "--config", hub, "--suite", "tangency"],
        ]
        before = (gc.get_freeze_count(), gc.isenabled())
        for argv in commands:
            assert main(argv) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == before, argv[0]

    def test_import_freezes_nothing(self, tmp_path):
        code = ("import gc, majoranaq, majoranaq.cli\n"
                "print(gc.get_freeze_count(), gc.isenabled())")
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                             capture_output=True, text=True, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["0", "True"]

    @pytest.mark.parametrize("case, expected", [
        ("flow", 0),
        ("failed-check", 1),
        ("no-config", 2),
        ("missing-config", 2),
        ("diverged", 3),
    ])
    def test_exit_code_contract(self, tmp_path, monkeypatch, case, expected):
        hub = write_config(tmp_path, {"M": 4, "preset": {"name": "hubbard", "sites": 2,
                                                         "hop": 1.0, "onsite": 4.0}})
        m3 = write_config(tmp_path, {"M": 3, "g_entries": [[1, 2, 3, 4, 0.05]], "seed": 3},
                          name="m3.json")
        if case == "failed-check":
            # the child imports this sitecustomize at start-up, before the
            # command runs, and so gates its tangency check at 1e-300
            strict = tmp_path / "strict-bar"
            strict.mkdir()
            (strict / "sitecustomize.py").write_text(
                "import majoranaq.suites\nmajoranaq.suites.TOLERANCES['tangency'] = 1e-300\n")
            monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
                [str(strict), *filter(None, [os.environ.get("PYTHONPATH")])]))
        argv = {
            "flow": ["flow", "--config", hub, "--steps", "20", "--out", "t.csv"],
            "failed-check": ["verify", "--config", m3, "--suite", "tangency"],
            "no-config": ["flow", "--out", "t.csv"],
            "missing-config": ["flow", "--config", "absent.json", "--out", "t.csv"],
            # the first step overflows the state to non-finite values
            "diverged": ["flow", "--config", hub, "--dt", "1e300", "--out", "t.csv"],
        }[case]
        out = _process_run(tmp_path, *argv)
        assert out.returncode == expected, out.stderr
        assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr
        if case == "failed-check":
            assert "[FAIL    ] tangency" in out.stdout and "(tol 1.0e-300," in out.stdout

    def test_flow_csv_matches_in_process_main(self, tmp_path, capsys):
        hub = write_config(tmp_path, {"M": 4, "preset": {"name": "hubbard", "sites": 2,
                                                         "hop": 1.0, "onsite": 4.0}})
        argv = ["flow", "--config", hub, "--steps", "40", "--seed", "11"]
        out = _process_run(tmp_path, *argv, "--out", "process.csv")
        assert out.returncode == 0, out.stderr
        assert main([*argv, "--out", str(tmp_path / "in-process.csv")]) == 0
        assert ((tmp_path / "process.csv").read_bytes()
                == (tmp_path / "in-process.csv").read_bytes())


class TestOverflowingModel:
    """``verify`` on couplings whose products overflow keeps its exit code and
    prints no numpy warning: a child run turns any RuntimeWarning into an error."""

    @pytest.mark.parametrize("M,suite,code", [
        (3, "all", 3), (3, "fpe", 1), (3, "tangency", 3), (3, "traceless", 3), (4, "traceless", 3),
    ])
    def test_exit_code_without_warnings(self, tmp_path, M, suite, code):
        cfg = write_config(tmp_path, {"M": M, "g_entries": [[1, 2, 3, 4, 1e308]]})
        out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                              "majoranaq.cli", "verify", "--config", cfg, "--suite", suite],
                             env=_child_env(), capture_output=True, text=True, cwd=tmp_path)
        assert out.returncode == code, out.stderr
        assert "RuntimeWarning" not in out.stderr and "Traceback" not in out.stderr
        # exit 1: the fpe residual is NaN, which fails its check without an error
        lines = out.stderr.splitlines()
        assert len(lines) == (1 if code == 3 else 0)
        assert all(line.startswith("error: ") for line in lines)
