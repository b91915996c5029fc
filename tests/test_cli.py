"""End-to-end CLI behavior: exit codes, reports, CSV output."""

import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import majoranaq
from majoranaq.cli import main


def write_config(tmp_path, data, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


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

    def test_overall_fail_exit_code(self, tmp_path, capsys):
        # impossible tolerance forces a verification failure
        cfg = write_config(tmp_path, {
            "M": 2, "t_entries": [[1, 2, 0.5]], "seed": 4,
            "tolerances": {"tangency": 1e-30},
        })
        code = main(["verify", "--config", cfg, "--suite", "tangency"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_m_cap_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"M": 6, "seed": 0})
        assert main(["verify", "--config", cfg, "--suite", "fpe"]) == 2
        assert "M <= 5" in capsys.readouterr().err

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
    def test_oracle_cap_rejects_6(self, tmp_path, capsys, suite):
        cfg = write_config(tmp_path, {"M": 6, "seed": 0})
        assert main(["verify", "--config", cfg, "--suite", suite]) == 2
        err = capsys.readouterr().err
        assert "M <= 5" in err and "M = 6" in err and "Traceback" not in err

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
        ({"M": 1, "tolerances": {"tangencyy": 1e-9}}, "tangencyy"),
        ({"M": 1, "tolerances": {"tangency": -1.0}}, "tolerances.tangency"),
    ], ids=["non-numeric", "nan-coupling", "unknown-tolerance", "negative-tolerance"])
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

    def test_file_sourced_initial_point(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 1.0]], "seed": 0})
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps({"M": 1, "packed": [0.5]}))
        out_csv = tmp_path / "traj.csv"
        code = main(["flow", "--config", cfg, "--x0", "file",
                     "--x0-file", str(x0_path), "--steps", "3", "--dt", "0.1",
                     "--out", str(out_csv)])
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][1]) == pytest.approx(0.5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "M": 3, "g_entries": [[1, 2, 3, 4, 1e3], [3, 4, 5, 6, 1e3]], "seed": 1,
        })
        code = main(["flow", "--config", cfg, "--dt", "1e3", "--steps", "50",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--steps", "0"), ("--steps", "-3"),
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
        code = main(["flow", "--config", cfg, "--x0", "file",
                     "--x0-file", str(x0_path), "--out", str(tmp_path / "t.csv")])
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"M": 1}',
        '{"M": 1, "packed": [',
        '[0.5]',
        '{"M": 1, "packed": ["a"]}',
        '{"M": 1, "packed": [NaN]}',
    ], ids=["no-packed", "truncated", "not-object", "non-numeric", "non-finite"])
    def test_malformed_x0_file_exit_2(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, {"M": 1, "t_entries": [[1, 2, 0.5]], "seed": 0})
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(text)
        out_csv = tmp_path / "t.csv"
        code = main(["flow", "--config", cfg, "--x0", "file",
                     "--x0-file", str(x0_path), "--out", str(out_csv)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--x0-file" in err and "Traceback" not in err
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
        assert data["M"] == 4
        # the generated config is immediately usable
        assert main(["verify", "--config", str(out), "--suite", "tangency"]) == 0


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
        src = str(Path(majoranaq.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                             capture_output=True, text=True, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.strip().splitlines()[-1]) == [0, 0, 0, 0]
