"""CLI: schema round trips, deterministic byte-identical output, subcommands."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scatterkit
from scatterkit.cli import main


def run(args):
    return main([str(a) for a in args])


def write_shifts(path: Path, n, k, deltas):
    path.write_text(json.dumps({"n": n, "k": k, "delta": list(deltas)}) + "\n")


class TestWavefield:
    def test_zero_shifts_scattered_column_vanishes(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 3, 1.0, [0.0, 0.0])
        assert run(["wavefield", "--shifts", shifts, "--out", tmp_path,
                    "--r-min", 1, "--r-max", 3, "--r-count", 3,
                    "--theta-count", 5, "--jobs", 1]) == 0
        rows = (tmp_path / "wavefield.csv").read_text().splitlines()
        assert rows[0] == "r,theta,re_psi,im_psi,re_psi_in,im_psi_in,re_psi_sc,im_psi_sc"
        for line in rows[1:]:
            cols = [float(c) for c in line.split(",")]
            assert abs(cols[6]) < 1e-12 and abs(cols[7]) < 1e-12

    def test_rerun_byte_identical(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 4, 1.3, [0.4, -0.2])
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        base = ["wavefield", "--shifts", shifts, "--r-min", 0.5, "--r-max", 6,
                "--r-count", 4, "--theta-count", 7]
        assert run(base + ["--out", out1, "--jobs", 1]) == 0
        assert run(base + ["--out", out2, "--jobs", 3]) == 0
        assert (out1 / "wavefield.csv").read_bytes() == (out2 / "wavefield.csv").read_bytes()

    def test_row_order_r_major(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 3, 1.0, [0.1])
        run(["wavefield", "--shifts", shifts, "--out", tmp_path,
             "--r-min", 1, "--r-max", 2, "--r-count", 2, "--theta-count", 3,
             "--jobs", 1])
        rows = (tmp_path / "wavefield.csv").read_text().splitlines()[1:]
        rs = [float(r.split(",")[0]) for r in rows]
        assert rs == sorted(rs)
        thetas_first_block = [float(r.split(",")[1]) for r in rows[:3]]
        assert thetas_first_block == sorted(thetas_first_block)

    def test_truncation_convergence(self, tmp_path):
        # explicit truncation at L and L+10 changes fields below 1e-9
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 3, 1.0, [0.5, -0.2])
        base = ["wavefield", "--shifts", shifts, "--r-min", 1, "--r-max", 5,
                "--r-count", 3, "--theta-count", 5, "--jobs", 1]
        run(base + ["--out", tmp_path / "L", "--lmax", 28])
        run(base + ["--out", tmp_path / "L10", "--lmax", 38])
        a = np.loadtxt(tmp_path / "L" / "wavefield.csv", delimiter=",", skiprows=1)
        b = np.loadtxt(tmp_path / "L10" / "wavefield.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_inline_deltas(self, tmp_path):
        assert run(["wavefield", "--n", 3, "--k", 1.0, "--delta", "0.3,-0.1",
                    "--out", tmp_path, "--r-count", 2, "--theta-count", 3,
                    "--jobs", 1]) == 0
        assert (tmp_path / "wavefield.csv").exists()

    def test_missing_source_is_error(self, tmp_path, capsys):
        assert run(["wavefield", "--n", 3, "--k", 1.0, "--out", tmp_path]) == 2
        assert "error:" in capsys.readouterr().err


class TestXsection:
    def test_one_dimensional_summary(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 1, 1.0, [0.4, -0.3])
        assert run(["xsection", "--shifts", shifts, "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"sigma0", "sigmapi", "T", "R"}
        assert summary["T"] + summary["R"] == pytest.approx(1.0, abs=1e-14)

    def test_asympt_flag_and_ratio_band(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 3, 1.0, [0.5, -0.2])
        assert run(["xsection", "--shifts", shifts, "--out", tmp_path,
                    "--r-min", 1000, "--r-max", 1000, "--r-count", 1,
                    "--theta-count", 8, "--asympt", "--jobs", 1]) == 0
        rows = (tmp_path / "xsection.csv").read_text().splitlines()
        assert rows[0] == "r,theta,dsigma,jr,jtheta,gamma,f2_asympt,ratio"
        ratios = [float(r.split(",")[-1]) for r in rows[1:]]
        assert all(0.99 <= x <= 1.01 for x in ratios)

    def test_summary_json_totals(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 4, 1.0, [0.5, -0.2])
        run(["xsection", "--shifts", shifts, "--out", tmp_path,
             "--r-count", 2, "--theta-count", 4, "--jobs", 1])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["sigma_total"] == pytest.approx(sum(summary["per_l"]), rel=1e-13)

    def test_summary_round_trip(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 3, 2.0, [0.7])
        run(["xsection", "--shifts", shifts, "--out", tmp_path,
             "--r-count", 1, "--theta-count", 2, "--jobs", 1])
        text = (tmp_path / "summary.json").read_text()
        assert json.loads(text) == json.loads(json.dumps(json.loads(text)))


class TestPhaseShifts:
    def test_free_potential(self, tmp_path):
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"kind": "square_well", "a": 1.0, "V0": 0.0}))
        assert run(["phaseshifts", "--n", 3, "--k", 1.0, "--lmax", 3,
                    "--potential", pot, "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "shifts.json").read_text())
        assert payload["delta"] == [0.0, 0.0, 0.0, 0.0]

    def test_hard_sphere_value(self, tmp_path):
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"kind": "hard_hypersphere", "a": 0.7}))
        run(["phaseshifts", "--n", 3, "--k", 1.0, "--lmax", 2,
             "--potential", pot, "--out", tmp_path])
        payload = json.loads((tmp_path / "shifts.json").read_text())
        assert payload["delta"][0] == pytest.approx(-0.7, abs=1e-12)

    def test_output_feeds_wavefield(self, tmp_path):
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"kind": "square_well", "a": 1.0, "V0": -1.0}))
        run(["phaseshifts", "--n", 3, "--k", 1.0, "--lmax", 4,
             "--potential", pot, "--out", tmp_path])
        assert run(["wavefield", "--shifts", tmp_path / "shifts.json",
                    "--out", tmp_path, "--r-count", 2, "--theta-count", 3,
                    "--jobs", 1]) == 0
        assert (tmp_path / "wavefield.csv").exists()


class TestAsymptCompare:
    def test_ratio_column(self, tmp_path):
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 4, 1.0, [0.4, 0.2])
        assert run(["asympt-compare", "--shifts", shifts, "--out", tmp_path,
                    "--r-min", 1000, "--r-max", 10000, "--r-count", 2,
                    "--r-scale", "log", "--theta-count", 5, "--jobs", 1]) == 0
        rows = (tmp_path / "asympt_compare.csv").read_text().splitlines()
        assert rows[0] == "r,theta,dsigma,f2_asympt,ratio"
        for line in rows[1:]:
            assert 0.97 <= float(line.split(",")[-1]) <= 1.03


class TestSweep:
    def make_spec(self, tmp_path, n_list):
        spec = {
            "n_list": n_list,
            "k": 1.0,
            "r_grid": {"min": 1.0, "max": 5.0, "count": 3, "scale": "linear"},
            "theta_grid": {"count": 4},
            "shifts_source": {"inline": [0.4, -0.2]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return path

    def test_multi_dimension_outputs(self, tmp_path):
        spec = self.make_spec(tmp_path, [1, 2, 3])
        assert run(["sweep", "--spec", spec, "--out", tmp_path, "--jobs", 2]) == 0
        for n in (1, 2, 3):
            assert (tmp_path / f"wavefield_n{n}.csv").exists()
            assert (tmp_path / f"summary_n{n}.json").exists()
        assert (tmp_path / "xsection_n2.csv").exists()
        assert not (tmp_path / "xsection_n1.csv").exists()
        one_d = json.loads((tmp_path / "summary_n1.json").read_text())
        assert one_d["T"] + one_d["R"] == pytest.approx(1.0, abs=1e-14)

    def test_deterministic(self, tmp_path):
        spec = self.make_spec(tmp_path, [3])
        run(["sweep", "--spec", spec, "--out", tmp_path / "x", "--jobs", 1])
        run(["sweep", "--spec", spec, "--out", tmp_path / "y", "--jobs", 4])
        a = (tmp_path / "x" / "wavefield_n3.csv").read_bytes()
        b = (tmp_path / "y" / "wavefield_n3.csv").read_bytes()
        assert a == b

    def test_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"n_list": [], "k": 1.0,
                                    "r_grid": {"min": 1, "max": 2, "count": 1},
                                    "theta_grid": {"count": 1},
                                    "shifts_source": {"inline": [0.1]}}))
        assert run(["sweep", "--spec", path, "--out", tmp_path]) == 2


class TestEnvironment:
    def test_rtol_env_is_read(self, tmp_path, monkeypatch, capsys):
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 3, 1.0, [0.1])
        # an invalid tolerance must be rejected, proving the env var is used
        monkeypatch.setenv("SCATTERKIT_RTOL", "1e-20")
        assert run(["wavefield", "--shifts", shifts, "--out", tmp_path,
                    "--r-count", 1, "--theta-count", 2, "--jobs", 1]) == 2
        monkeypatch.setenv("SCATTERKIT_RTOL", "1e-10")
        assert run(["wavefield", "--shifts", shifts, "--out", tmp_path,
                    "--r-count", 1, "--theta-count", 2, "--jobs", 1]) == 0

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        shifts = tmp_path / "shifts.json"
        write_shifts(shifts, 3, 1.0, [0.1])
        monkeypatch.setenv("SCATTERKIT_RTOL", "1e-20")
        assert run(["wavefield", "--shifts", shifts, "--rtol", "1e-10",
                    "--out", tmp_path, "--r-count", 1, "--theta-count", 2,
                    "--jobs", 1]) == 0


class TestMalformedInput:
    """Unreadable input exits 2 with an `error:` line, not a traceback."""

    def expect_error(self, args, capsys):
        assert run(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_shift_file_not_json(self, tmp_path, capsys):
        shifts = tmp_path / "shifts.json"
        shifts.write_text("{not json")
        self.expect_error(["wavefield", "--shifts", shifts, "--out", tmp_path], capsys)

    def test_potential_file_not_json(self, tmp_path, capsys):
        pot = tmp_path / "pot.json"
        pot.write_text("square well, a = 1")
        self.expect_error(["phaseshifts", "--n", 3, "--k", 1.0, "--potential", pot,
                           "--out", tmp_path], capsys)

    def test_sweep_spec_not_json(self, tmp_path, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text("")
        self.expect_error(["sweep", "--spec", spec, "--out", tmp_path], capsys)

    def test_sweep_outputs_not_an_object(self, tmp_path, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"n_list": [3], "k": 1.0,
                                    "r_grid": {"min": 1, "max": 2, "count": 1},
                                    "theta_grid": {"count": 1},
                                    "shifts_source": {"inline": [0.1]},
                                    "outputs": 5}))
        self.expect_error(["sweep", "--spec", spec, "--out", tmp_path], capsys)

    def expect_unreadable(self, args, path, capsys):
        # exit 2 with an error line that names the file, not a traceback
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    def sweep_spec(self, tmp_path, source):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"n_list": [3], "k": 1.0,
                                    "r_grid": {"min": 1, "max": 2, "count": 1},
                                    "theta_grid": {"count": 1},
                                    "shifts_source": source}))
        return spec

    def test_shift_file_missing(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        self.expect_unreadable(["wavefield", "--shifts", missing, "--out", tmp_path],
                               missing, capsys)

    def test_potential_file_missing(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        self.expect_unreadable(["phaseshifts", "--n", 3, "--k", 1.0, "--potential", missing,
                                "--out", tmp_path], missing, capsys)

    def test_sweep_spec_missing(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        self.expect_unreadable(["sweep", "--spec", missing, "--out", tmp_path],
                               missing, capsys)

    def test_sweep_shift_file_missing(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        spec = self.sweep_spec(tmp_path, {"file": str(missing)})
        self.expect_unreadable(["sweep", "--spec", spec, "--out", tmp_path], missing, capsys)

    def test_sweep_potential_missing(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        spec = self.sweep_spec(tmp_path, {"potential": str(missing)})
        self.expect_unreadable(["sweep", "--spec", spec, "--out", tmp_path], missing, capsys)

    @pytest.mark.parametrize("source", [{"file": 5}, {"potential": 5}, {"inline": "abc"}],
                             ids=["file", "potential", "inline"])
    def test_sweep_source_of_wrong_type(self, tmp_path, capsys, source):
        spec = self.sweep_spec(tmp_path, source)
        self.expect_error(["sweep", "--spec", spec, "--out", tmp_path], capsys)

    def test_sweep_inline_shift_with_non_finite_phase_factor(self, tmp_path, capsys):
        spec = self.sweep_spec(tmp_path, {"inline": [1e308]})
        self.expect_error(["sweep", "--spec", spec, "--out", tmp_path], capsys)

    def test_delta_with_non_finite_phase_factor(self, tmp_path, capsys):
        assert run(["wavefield", "--n", 3, "--k", 1.0, "--delta", "1e308",
                    "--out", tmp_path]) == 2
        assert "is not finite at l=0" in capsys.readouterr().err
        assert not (tmp_path / "wavefield.csv").exists()

    def test_potential_radius_not_finite(self, tmp_path, capsys):
        pot = tmp_path / "pot.json"
        pot.write_text('{"kind": "hard_hypersphere", "a": Infinity}')
        assert run(["phaseshifts", "--n", 3, "--k", 1.0, "--potential", pot,
                    "--out", tmp_path]) == 2
        assert "a must be finite" in capsys.readouterr().err

    def test_delta_not_a_number(self, tmp_path, capsys):
        self.expect_error(["wavefield", "--n", 3, "--k", 1.0, "--delta=abc",
                           "--out", tmp_path], capsys)

    def test_rtol_env_not_a_number(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SCATTERKIT_RTOL", "abc")
        self.expect_error(["wavefield", "--n", 3, "--k", 1.0, "--delta", "0.1",
                           "--out", tmp_path], capsys)


class TestLoudLimits:
    """Inputs past the float range or the Bessel basis exit 2 with one `error:` line."""

    @pytest.mark.parametrize("argv", [
        ["xsection", "--n", 300, "--k", 0.01, "--delta", 0.3],
        ["xsection", "--n", 400, "--k", 1, "--delta", 0.3],
        ["xsection", "--n", 3, "--k", 1e17, "--delta", 0.3],
        ["wavefield", "--n", 3, "--k", 1e300, "--delta", 0.3, "--jobs", 1],
    ])
    def test_exit_two(self, tmp_path, capsys, argv):
        assert run([*argv, "--out", tmp_path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not (tmp_path / "xsection.csv").exists()


class TestImport:
    def test_cli_import_leaves_mpmath_unloaded(self):
        # mpmath serves only the route-A test oracle; the CLI must not pay
        # for its import
        src = str(Path(scatterkit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, scatterkit.cli; sys.exit('mpmath' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0


class TestFormatting:
    def test_seventeen_significant_digits(self, tmp_path):
        from scatterkit.cli import _fmt

        assert _fmt(1.0 / 3.0) == "0.33333333333333331"
        assert _fmt(float("nan")) == "nan"
        assert _fmt(2.0) == "2"
