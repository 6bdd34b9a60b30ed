import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superfid
from conftest import traced_peak
from superfid import RngStream, cli, verify
from superfid.errors import (EnvelopeAuditError, InverseCDFError, QuadratureError,
                             StepSizeError)

# child processes import the superfid that this process imported, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(superfid.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class TestSampleCommand:
    def test_csv_schema(self):
        code, out = run_cli(["sample", "--measure", "hs", "--dim", "3",
                             "--count", "20", "--seed", "5"])
        assert code == 0
        lines = out.strip().split("\n")
        meta = [l for l in lines if l.startswith("#")]
        assert meta[1] == "# measure=hs dim=3 count=20 seed=5"
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "lambda_1,lambda_2,lambda_3,purity"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 20
        row = [float(x) for x in data[0].split(",")]
        assert abs(sum(row[:3]) - 1.0) <= 1e-12
        assert abs(row[3] - sum(v * v for v in row[:3])) <= 1e-12

    def test_rejection_metadata_present(self):
        code, out = run_cli(["sample", "--measure", "g", "--dim", "3",
                             "--count", "10", "--seed", "3"])
        assert code == 0
        assert "# rejection proposed=" in out
        assert "empirical_rate=" in out

    def test_full_matrix_columns(self):
        code, out = run_cli(["sample", "--measure", "g", "--dim", "2",
                             "--count", "5", "--seed", "1", "--full-matrix"])
        header = [l for l in out.split("\n") if not l.startswith("#")][0]
        cols = header.split(",")
        assert cols[:3] == ["lambda_1", "lambda_2", "purity"]
        assert "rho_0_0_re" in cols and "rho_1_1_im" in cols
        assert len(cols) == 3 + 8

    def test_json_format(self):
        code, out = run_cli(["sample", "--measure", "bures", "--dim", "2",
                             "--count", "4", "--seed", "2", "--format", "json"])
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        assert "workers" not in doc
        assert doc["measure"] == "bures"
        assert len(doc["records"]) == 4
        assert doc["rejection"] is None

    def test_purity_column_statistics(self):
        code, out = run_cli(["sample", "--measure", "hs", "--dim", "3",
                             "--count", "20000", "--seed", "11"])
        rows = [l for l in out.strip().split("\n") if not l.startswith("#")][1:]
        purity = np.array([float(r.split(",")[-1]) for r in rows])
        se = purity.std(ddof=1) / np.sqrt(len(purity))
        assert abs(purity.mean() - 0.6) <= 3 * se

    def test_budget_exhaustion_exit_code(self, capsys):
        code = cli.main(["sample", "--measure", "g", "--dim", "3",
                         "--count", "500", "--seed", "4", "--max-proposals", "1"])
        assert code == 3

    def test_output_file(self, tmp_path):
        path = tmp_path / "batch.csv"
        code, out = run_cli(["sample", "--measure", "hs", "--dim", "2",
                             "--count", "3", "--seed", "0", "--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("# superfid sample")

    def test_workers_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["sample", "--measure", "hs", "--dim", "2", "--count", "4",
                      "--workers", "2"])
        assert info.value.code == 2


class TestUnwritableOut:
    # an --out that cannot be opened is a usage error, no traceback, before
    # the command's work function is called
    COMMANDS = {
        "sample": (["sample", "--measure", "g", "--dim", "3", "--count", "5"],
                   cli.sm, "sample_blocks"),
        "estimate": (["estimate", "--dim", "2", "--method", "exact"], cli.ed, "c_g_exact"),
        "grid": (["grid", "--measure", "g", "--resolution", "4"],
                 cli.ed, "density_grid_qutrit"),
        "verify": (["verify", "purity", "--dim", "2", "--scale", "0.05"],
                   verify, "run_suite"),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_is_usage_error(self, command, tmp_path, capsys, monkeypatch):
        argv, module, work = self.COMMANDS[command]

        def fail(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(module, work, fail)
        path = tmp_path / "missing" / "out.txt"
        assert cli.main(argv + ["--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert not path.exists()

    @pytest.mark.parametrize("argv,code,failing_block", [
        (["sample", "--measure", "hs", "--dim", "2", "--count", "0"], 2, None),
        (["sample", "--measure", "g", "--dim", "3", "--count", "500", "--seed", "4",
          "--max-proposals", "1"], 3, None),
        # block 2 of 3 raises after block 1's first chunk went to the temporary file
        (["sample", "--measure", "hs", "--dim", "2", "--count", "9000"], 2, 2),
    ], ids=["usage", "budget", "hs-block-2"])
    def test_failed_run_keeps_existing_file(self, argv, code, failing_block, tmp_path,
                                            capsys, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_bytes(b"earlier output\n")
        written = []   # the other files' sizes when the block fails
        ginibre, calls = cli.sm.ginibre_batch, []

        def ginibre_batch(*args):
            calls.append(args)
            if len(calls) == failing_block:
                written.extend(f.stat().st_size for f in tmp_path.iterdir() if f != path)
                raise ValueError(f"block {failing_block} failed")
            return ginibre(*args)

        monkeypatch.setattr(cli.sm, "ginibre_batch", ginibre_batch)
        assert cli.main(argv + ["--out", str(path)]) == code
        assert path.read_bytes() == b"earlier output\n"
        assert list(tmp_path.iterdir()) == [path]   # no temporary file is left
        if failing_block:
            assert len(written) == 1 and written[0] > 0
            assert capsys.readouterr().err == f"error: block {failing_block} failed\n"

    def test_out_keeps_its_permissions_and_symlink(self, tmp_path):
        path, link = tmp_path / "out.csv", tmp_path / "link.csv"
        path.write_bytes(b"earlier output\n")
        path.chmod(0o640)
        link.symlink_to(path)
        argv = ["sample", "--measure", "hs", "--dim", "2", "--count", "3", "--out", str(link)]
        assert cli.main(argv) == 0
        assert path.read_text().startswith("# superfid sample")
        assert path.stat().st_mode & 0o777 == 0o640
        assert link.is_symlink() and sorted(tmp_path.iterdir()) == [link, path]


def _inverse_cdf_off_by_one(monkeypatch):
    # every qubit state then fails the inverse CDF's residual check
    monkeypatch.setattr(cli.sm, "cdf_g2", lambda t: np.asarray(t) + 1.0)


def _envelope_bound_too_low(monkeypatch):
    # the audit measures against the lowered bound; its cache starts empty
    monkeypatch.setattr(cli.sm, "_audit_gate_cache", {})
    monkeypatch.setattr(cli.sm, "_log_envelope_bound", lambda dim: -50.0)


def _raising(module, name, error):
    """A patch that makes ``module.name`` raise ``error``."""
    def patch(monkeypatch):
        def fail(*args, **kwargs):
            raise error(f"{name} failed closed")
        monkeypatch.setattr(module, name, fail)
    return patch


class TestFailClosedExit:
    """A numerical self-check that fails closed exits 4 with one line on stderr."""

    CASES = {
        "inverse-cdf": (["sample", "--measure", "g", "--dim", "2", "--count", "10"],
                        _inverse_cdf_off_by_one, InverseCDFError),
        "envelope": (["sample", "--measure", "g", "--dim", "3", "--count", "10"],
                     _envelope_bound_too_low, EnvelopeAuditError),
        "quadrature": (["estimate", "--dim", "4", "--method", "quadrature"],
                       _raising(cli.ed, "c_g_quadrature", QuadratureError), QuadratureError),
        "step-size": (["verify", "metric", "--scale", "0.05"],
                      _raising(verify, "run_suite", StepSizeError), StepSizeError),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_4_and_keeps_out(self, case, tmp_path, capsys, monkeypatch):
        argv, patch, error = self.CASES[case]
        assert error in cli.FAIL_CLOSED_ERRORS
        patch(monkeypatch)
        path = tmp_path / "out.txt"
        path.write_bytes(b"earlier output\n")
        assert cli.main(argv + ["--out", str(path)]) == cli.EXIT_FAIL_CLOSED == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert path.read_bytes() == b"earlier output\n"
        assert list(tmp_path.iterdir()) == [path]


class TestEstimateCommand:
    def test_exact_value(self):
        code, out = run_cli(["estimate", "--dim", "2", "--method", "exact"])
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["value"] - 0.900316) <= 1e-5
        assert doc["std_error"] is None

    def test_quadrature_qutrit(self):
        code, out = run_cli(["estimate", "--dim", "3", "--method", "quadrature"])
        doc = json.loads(out)
        assert abs(doc["value"] - 1030.67) / 1030.67 <= 1e-3

    def test_quadrature_beyond_closed_forms(self):
        code, out = run_cli(["estimate", "--dim", "4", "--method", "quadrature"])
        assert code == 0
        assert abs(json.loads(out)["value"] / 273411668.97822 - 1.0) <= 1e-12

    def test_jensen_flagged_as_bound(self):
        code, out = run_cli(["estimate", "--dim", "5", "--method", "jensen"])
        doc = json.loads(out)
        assert doc["kind"] == "upper_bound"
        assert np.isfinite(doc["value"])

    def test_mc_reports_std_error(self):
        code, out = run_cli(["estimate", "--dim", "2", "--method", "mc",
                             "--samples", "20000", "--seed", "9"])
        doc = json.loads(out)
        assert doc["std_error"] > 0
        assert abs(doc["value"] - 0.900316) <= 4 * doc["std_error"]

    def test_mc_at_dim_10(self):
        code, out = run_cli(["estimate", "--dim", "10", "--method", "mc",
                             "--samples", "100000", "--seed", "3"])
        assert code == 0
        doc = json.loads(out)
        assert np.isfinite(doc["value"]) and doc["std_error"] > 0

    def test_series_reports_truncation(self):
        code, out = run_cli(["estimate", "--dim", "2", "--method", "series",
                             "--samples", "5000", "--k-max", "10", "--seed", "9"])
        doc = json.loads(out)
        assert doc["terms_or_samples"] == 10
        assert doc["truncation_last_term"] > 0
        assert doc["truncation_tail"] > 0

    def test_series_at_dim_12(self):
        # (1/C)^2 underflows to 0 here, so the bar must not divide by it
        code, out = run_cli(["estimate", "--dim", "12", "--method", "series"])
        assert code == 0
        doc = json.loads(out)
        assert np.isfinite(doc["value"]) and doc["std_error"] > 0

    # the values printed before the bar was mended; mending it moves none
    SERIES_VALUES = {12: 1.0402360215462637e+168, 13: 2.3029781039116412e+204,
                     14: 4.380834862799363e+244, 15: 8.344114983643282e+288}

    @pytest.mark.parametrize("k_max", [20, 40, 100])
    @pytest.mark.parametrize("dim", sorted(SERIES_VALUES))
    def test_series_bar_is_finite_where_terms_underflow(self, dim, k_max):
        # in units of C_N the last terms are subnormal from N = 15 and are 0 at
        # k_max = 40, where the bar was NaN, which JSON cannot hold; in units
        # of 1/C_HS they stay normal, but t_k k^alpha overflows at k_max = 100
        code, out = run_cli(["estimate", "--dim", str(dim), "--method", "series",
                             "--k-max", str(k_max), "--samples", "2000", "--seed", "1"])
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out, parse_constant=reject)
        assert np.isfinite(doc["std_error"]) and doc["std_error"] > 0
        assert doc["value"] == self.SERIES_VALUES[dim]

    def test_exact_unsupported_dim_is_usage_error(self, capsys):
        assert cli.main(["estimate", "--dim", "4", "--method", "exact"]) == 2
        assert cli.main(["estimate", "--dim", "6", "--method", "quadrature"]) == 2

    @pytest.mark.parametrize("method", ["jensen", "mc", "series"])
    def test_overflowing_constant_fails_before_drawing(self, method, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("HS purities drawn for a constant that overflows")

        monkeypatch.setattr("superfid.samplers.hs_purity_batch", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # numpy's overflow RuntimeWarning would raise
            code = cli.main(["estimate", "--dim", "16", "--method", method])
        assert code == 2
        assert "C_HS at dim 16 overflows float64: log C = 776.6" in capsys.readouterr().err

    def test_bad_parameters_are_usage_errors(self, capsys):
        assert cli.main(["estimate", "--dim", "2", "--method", "series",
                         "--k-max", "0"]) == 2
        assert cli.main(["estimate", "--dim", "2", "--method", "mc",
                         "--samples", "10"]) == 2
        assert cli.main(["estimate", "--dim", "2", "--method", "series",
                         "--samples", "0"]) == 2
        for scale in ("nan", "inf"):
            assert cli.main(["verify", "purity", "--scale", scale]) == 2
        assert cli.main(["grid", "--measure", "g", "--resolution", "1"]) == 2
        assert cli.main(["sample", "--measure", "hs", "--dim", "1",
                         "--count", "5"]) == 2
        assert cli.main(["sample", "--measure", "hs", "--dim", "2",
                         "--count", "0"]) == 2


class TestGridCommand:
    def test_csv_schema_and_barycenter(self):
        code, out = run_cli(["grid", "--measure", "g", "--resolution", "12"])
        lines = out.strip().split("\n")
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "lambda_1,lambda_2,density"
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == (12 + 1) * (12 + 2) // 2
        bary = [r for r in rows if abs(float(r[0]) - 1 / 3) < 1e-12
                and abs(float(r[1]) - 1 / 3) < 1e-12]
        assert len(bary) == 1 and float(bary[0][2]) == 0.0

    def test_bures_boundary_is_nan(self):
        code, out = run_cli(["grid", "--measure", "bures", "--resolution", "8"])
        rows = [l.split(",") for l in out.strip().split("\n")
                if not l.startswith("#")][1:]
        corner = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert corner[0][2] == "nan"

    def test_wrong_dim_is_usage_error(self, capsys):
        # grids are qutrit-only, so grid has no --dim option
        with pytest.raises(SystemExit) as info:
            cli.main(["grid", "--measure", "g", "--dim", "2"])
        assert info.value.code == 2

    def test_seed_option_is_gone(self, capsys):
        # a grid draws nothing, so grid has no --seed option
        with pytest.raises(SystemExit) as info:
            cli.main(["grid", "--measure", "g", "--resolution", "4", "--seed", "5"])
        assert info.value.code == 2

    def test_hs_measure_rejected(self, capsys):
        # the argument parser offers only g and bures
        with pytest.raises(SystemExit) as info:
            cli.main(["grid", "--measure", "hs"])
        assert info.value.code == 2
        assert "invalid choice: 'hs'" in capsys.readouterr().err

    @staticmethod
    def _grid_from_csv(text, measure, resolution):
        from superfid.eigendensities import DensityGrid
        from superfid.qstate import Measure
        rows = [l.split(",") for l in text.strip().split("\n") if not l.startswith("#")][1:]
        l1 = np.array([float(r[0]) for r in rows])
        l2 = np.array([float(r[1]) for r in rows])
        dens = np.array([float(r[2]) for r in rows])
        return DensityGrid(measure=Measure(measure), resolution=resolution,
                           lambda1=l1, lambda2=l2, density=dens,
                           singular=np.isnan(dens))

    def test_emitted_grid_integrates_to_one(self):
        res = 200
        outs = {}
        for measure in ("g", "bures"):
            code, out = run_cli(["grid", "--measure", measure, "--resolution", str(res)])
            assert code == 0
            grid = self._grid_from_csv(out, measure, res)
            from superfid import grid_integral
            assert abs(grid_integral(grid) - 1.0) <= 0.02
            outs[measure] = grid
        finite = (np.isfinite(outs["g"].density) & np.isfinite(outs["bures"].density))
        gap = np.max(np.abs(outs["g"].density[finite] - outs["bures"].density[finite]))
        assert gap > 0.1  # the two qutrit densities genuinely differ


class TestVerifyCommand:
    def test_metric_suite_passes(self):
        code, out = run_cli(["verify", "metric", "--seed", "1", "--scale", "0.2"])
        assert code == 0
        assert "PASS metric/" in out
        assert "FAIL" not in out

    def test_json_report(self):
        code, out = run_cli(["verify", "metric", "--seed", "1", "--scale", "0.2",
                             "--format", "json"])
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
    def test_run_suite_rejects_bad_scale(self, scale):
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            verify.run_suite("metric", 0, scale)

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "nonsense"])
        assert info.value.code == 2

    def test_all_suites_pass(self):
        code, out = run_cli(["verify", "all", "--seed", "6", "--scale", "0.15"])
        assert code == 0, out
        assert "FAIL" not in out

    def test_purity_dim_filter(self):
        code, out = run_cli(["verify", "purity", "--dim", "2", "--seed", "1",
                             "--scale", "0.05"])
        assert code == 0
        assert "hs-purity-moments-n2" in out
        assert "hs-purity-moments-n3" not in out

    def test_out_writes_json_and_keeps_human_stdout(self, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_cli(["verify", "purity", "--dim", "3", "--seed", "1",
                             "--scale", "0.05", "--out", str(path)])
        assert code == 0
        assert out.startswith("PASS") or out.startswith("FAIL")
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 2

    def test_failed_check_exits_1_and_is_named(self, monkeypatch):
        density_grid_qutrit = verify.ed.density_grid_qutrit

        def asymmetric_grid(resolution, measure):
            grid = density_grid_qutrit(resolution, measure)
            i = np.rint(grid.lambda1 * resolution)
            j = np.rint(grid.lambda2 * resolution)
            grid.density[(i == 1) & (j == 2)] *= 1 + 1e-9  # (1, 2, R-3) is on no mirror line
            return grid

        monkeypatch.setattr(verify.ed, "density_grid_qutrit", asymmetric_grid)
        code, out = run_cli(["verify", "density", "--seed", "3", "--scale", "0.01"])
        assert code == 1
        assert "\nFAIL density/qutrit-grid-permutation-symmetric: " in out
        assert out.endswith(" checks passed; failures: qutrit-grid-permutation-symmetric\n")


class TestDeterminism:
    # a test's id is the command's first two words, so a command's later
    # variants lead with another option to keep their ids distinct
    COMMANDS = [
        ["sample", "--measure", "hs", "--dim", "3", "--count", "50", "--seed", "7"],
        ["sample", "--measure", "g", "--dim", "2", "--count", "30", "--seed", "7",
         "--format", "json"],
        ["sample", "--measure", "g", "--dim", "3", "--count", "20", "--seed", "7"],
        ["sample", "--measure", "bures", "--dim", "3", "--count", "40", "--seed", "8"],
        ["estimate", "--dim", "2", "--method", "mc", "--samples", "5000",
         "--seed", "7"],
        ["grid", "--measure", "bures", "--resolution", "10"],
        ["verify", "density", "--seed", "3", "--scale", "0.1", "--format", "json"],
        ["sample", "--measure", "g", "--dim", "2", "--count", "100", "--seed", "7",
         "--full-matrix"],
        ["sample", "--measure", "g", "--dim", "3", "--count", "50", "--seed", "7"],
        ["estimate", "--method", "series", "--dim", "2", "--samples", "5000",
         "--k-max", "10", "--seed", "7"],
        ["grid", "--resolution", "25", "--measure", "g"],
        ["verify", "purity", "--seed", "2", "--scale", "0.05", "--format", "json"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join(a[:2]))
    def test_reruns_are_identical(self, argv):
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        assert code1 == code2
        assert out1 == out2
        assert out1  # produced something

    def test_env_var_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("SUPERFID_SEED", "99")
        _, out_env = run_cli(["sample", "--measure", "hs", "--dim", "2", "--count", "5"])
        monkeypatch.delenv("SUPERFID_SEED")
        _, out_flag = run_cli(["sample", "--measure", "hs", "--dim", "2", "--count", "5",
                               "--seed", "99"])
        assert out_env == out_flag

    def test_bad_env_var_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("SUPERFID_SEED", "abc")
        assert cli.main(["sample", "--measure", "hs", "--dim", "2", "--count", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SUPERFID_SEED must be an integer, got 'abc'\n"

    def test_console_entry_point(self):
        def run(*argv):
            return subprocess.run([sys.executable, "-m", "superfid.cli", *argv],
                                  capture_output=True, text=True, check=True,
                                  env=CHILD_ENV).stdout

        doc = json.loads(run("estimate", "--dim", "2", "--method", "exact"))
        assert abs(doc["value"] - 0.900316) <= 1e-5
        sample = ("sample", "--measure", "hs", "--dim", "2", "--count", "20", "--seed", "3")
        assert run(*sample) == run(*sample)

    # every subcommand, and every estimate method, at small sizes
    EVERY_COMMAND = [
        *(["sample", "--measure", m, "--dim", str(d), "--count", "50", "--full-matrix"]
          for m in ("hs", "bures", "g") for d in (2, 3)),
        ["sample", "--measure", "g", "--dim", "4", "--count", "20", "--format", "json"],
        *(["grid", "--measure", m, "--resolution", "30"] for m in ("g", "bures")),
        *(["estimate", "--dim", "3", "--method", m, "--samples", "2000"]
          for m in ("exact", "jensen", "series", "mc", "quadrature")),
        ["verify", "all", "--seed", "0", "--scale", "1"],
    ]

    @pytest.fixture(scope="class")
    def loaded_modules(self):
        """The modules loaded by ``import superfid.cli``, then after each command in turn."""
        code = ("import io, json, os, sys; from contextlib import redirect_stdout\n"
                "import superfid.cli as cli\n"
                "loaded, codes = [sorted(sys.modules)], []\n"
                "for argv in %r:\n"
                "    with redirect_stdout(io.StringIO()):\n"
                "        codes.append(cli.main(argv + ['--out', os.devnull]))\n"
                "    loaded.append(sorted(sys.modules))\n"
                "print(json.dumps([codes, loaded]))" % self.EVERY_COMMAND)
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, check=True, env=CHILD_ENV)
        codes, loaded = json.loads(result.stdout)
        assert codes == [0] * len(self.EVERY_COMMAND)
        return [set(modules) for modules in loaded]

    def loaded_after(self, loaded_modules, commands):
        """The modules loaded once the leading ``commands`` of EVERY_COMMAND have run."""
        n = next(i for i, argv in enumerate(self.EVERY_COMMAND) if argv[0] not in commands)
        assert n > 0
        return loaded_modules[n]

    # scipy is not a run-time dependency, and no command starts a process pool
    @pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize", "scipy.special",
                                        "concurrent.futures"])
    def test_import_leaves_scipy_unloaded(self, module, loaded_modules):
        after_import, after_commands = loaded_modules[0], loaded_modules[-1]
        assert module not in after_import
        assert module not in after_commands
        assert not [m for m in after_commands if m.split(".")[0] == "scipy"]

    def test_import_loads_only_what_sample_runs(self, loaded_modules):
        loaded = {m for m in loaded_modules[0] if m.split(".")[0] == "superfid"}
        assert loaded == {"superfid", "superfid.cli", "superfid.errors", "superfid.qstate",
                          "superfid.rng", "superfid.statlab", "superfid.eigendensities",
                          "superfid.samplers"}

    @pytest.mark.parametrize("module", ["superfid.verify", "superfid.similarity",
                                        "numpy.polynomial"])
    def test_sample_leaves_unloaded(self, module, loaded_modules):
        assert module not in loaded_modules[0]
        assert module not in self.loaded_after(loaded_modules, {"sample"})

    @pytest.mark.parametrize("module", ["superfid.verify", "superfid.similarity"])
    def test_grid_and_estimate_leave_unloaded(self, module, loaded_modules):
        assert module not in self.loaded_after(loaded_modules, {"sample", "grid", "estimate"})
        assert module in loaded_modules[-1]   # verify loads both

    def test_every_command_runs_with_scipy_blocked(self):
        # None in sys.modules makes every import of scipy or a submodule raise ImportError
        code = """if True:
            import io, os, sys
            from contextlib import redirect_stdout
            sys.modules["scipy"] = None
            import numpy as np
            from superfid import RngStream, cli, ks_test_two_sample
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["verify", "all", "--seed", "0", "--scale", "1"])
            print(code, buf.getvalue().splitlines()[-1])
            print([cli.main(["estimate", "--dim", str(dim), "--method", "series",
                             "--out", os.devnull]) for dim in (2, 3, 4, 5)])
            gen = RngStream(1).block(0, 0)
            print(ks_test_two_sample(gen.random(200), gen.random(300)).p_value > 0)
        """
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, check=True, env=CHILD_ENV)
        assert result.stdout.splitlines() == ["0 39/39 checks passed", "[0, 0, 0, 0]", "True"]

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_rejection_gate_loads_no_scipy(self, dim, tmp_path):
        # the first G sample at N >= 3 runs the envelope audit
        argv = ["sample", "--measure", "g", "--dim", str(dim), "--count", "1",
                "--seed", "1", "--out", str(tmp_path / "g.csv")]
        code = ("import sys; from superfid import cli; code = cli.main(%r); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
                % argv)
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, check=True, env=CHILD_ENV)
        assert result.stdout.strip() == "0 []"


class TestPublicApi:
    # the names that ``from superfid import *`` bound before the API became lazy
    EXPORTED = {
        "DensityGrid", "DomainError", "EnvelopeAudit", "EnvelopeAuditError", "GofResult",
        "InstabilityWarning", "InvalidDimensionError", "InvalidStateError", "InverseCDFError",
        "Measure", "NormalizationEstimate", "QuadratureError", "RejectionReport", "RngStream",
        "SamplingBudgetError", "SingularityError", "StepSizeError",
        "UnsupportedDimensionError", "audit_sup_density_ratio", "c_bures",
        "c_bures_quadrature", "c_g_exact", "c_g_jensen_bound", "c_g_monte_carlo",
        "c_g_quadrature", "c_g_series", "c_hs", "cdf_g2", "check_density_matrix",
        "check_tangent", "chi_square_gof_simplex", "density_bures_unnormalized",
        "density_g_unnormalized", "density_grid_qutrit", "density_hs_unnormalized", "dist_g",
        "eigendensities", "errors", "fd_second_derivative", "fidelity", "ginibre_batch",
        "grid_integral", "haar_unitary_batch", "hs_purity_batch", "invert_cdf_g2", "ks_test",
        "ks_test_two_sample", "line_element_bprime", "line_element_g",
        "log_rejection_constant_c", "mc_mean", "mc_variance", "pdf_g2_marginal",
        "purity_mean_hs", "purity_variance_hs", "qstate", "random_tangent_batch",
        "rejection_constant_c", "rng", "sample_batch", "sample_blocks",
        "sample_g_rejection_batch", "sample_hs_batch", "samplers", "seed_from_env",
        "similarity", "simplex_quadrature", "statlab", "sup_density_ratio_unnormalized",
        "superfidelity",
    }
    SUBMODULES = ("eigendensities", "errors", "qstate", "rng", "samplers", "similarity",
                  "statlab")

    def test_star_import_binds_the_exported_names(self):
        namespace = {}
        exec("from superfid import *", namespace)
        assert set(namespace) - {"__builtins__"} == self.EXPORTED
        assert set(superfid.__all__) == self.EXPORTED

    def test_every_name_resolves_in_a_fresh_process(self):
        # each name is the object of the submodule it comes from
        code = ("import json, types, superfid\n"
                "names, found = %r, {}\n"
                "for name in names:\n"
                "    value = getattr(superfid, name)\n"
                "    if isinstance(value, types.ModuleType):\n"
                "        found[name] = value.__name__\n"
                "    else:\n"
                "        home = superfid.__dict__[value.__module__.split('.')[1]]\n"
                "        found[name] = getattr(home, name) is value\n"
                "print(json.dumps(found))" % sorted(self.EXPORTED | set(self.SUBMODULES)))
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, check=True, env=CHILD_ENV)
        found = json.loads(result.stdout)
        assert {name: found[name] for name in self.SUBMODULES} == {
            name: f"superfid.{name}" for name in self.SUBMODULES}
        assert [name for name in self.EXPORTED - set(self.SUBMODULES)
                if found[name] is not True] == []

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            superfid.nonexistent

    def test_dir_lists_the_lazy_names(self):
        assert self.EXPORTED | set(self.SUBMODULES) <= set(dir(superfid))

    def test_a_name_follows_its_submodule_through_a_patch(self, monkeypatch):
        from superfid import similarity

        original = similarity.fidelity

        def patched(rho, sigma):
            return 1.0

        with monkeypatch.context() as patch:
            patch.setattr(similarity, "fidelity", patched)
            assert superfid.fidelity is patched
        assert superfid.fidelity is original
        assert "fidelity" not in vars(superfid)


class TestBoundedMemory:
    """``sample --out`` holds O(block) states, whatever ``--count`` is."""

    # (measure, dim, options, states per sampler block, growth allowed per state in B)
    CASES = [
        ("hs", 2, ["--format", "json", "--full-matrix"], cli.sm._BLOCK, 4),
        ("bures", 3, ["--full-matrix"], cli.sm._BURES_BLOCK, 4),
        ("g", 2, ["--full-matrix"], cli.sm._BLOCK, 4),
        # the rejection sampler holds its 8 N B spectra for its header's totals
        ("g", 3, [], cli.sm._BLOCK, 8 * 3 + 8),
    ]

    @pytest.mark.parametrize("measure,dim,options,block,per_state", CASES,
                             ids=["hs-2-json", "bures-3", "g-2", "g-3-rejection"])
    def test_peak_does_not_grow_with_count(self, measure, dim, options, block, per_state,
                                           tmp_path):
        def run(count):
            argv = ["sample", "--measure", measure, "--dim", str(dim), "--count", str(count),
                    "--seed", "1", "--out", str(tmp_path / "out"), *options]
            assert cli.main(argv) == 0

        run(1)   # one-time costs, such as the envelope audit, are paid before measuring
        small = traced_peak(run, 2 * block)
        large = traced_peak(run, 16 * block)
        assert large - small <= per_state * 14 * block


class TestEstimateBoundedMemory:
    """``estimate --method mc|series`` reduces each block of purities as it is drawn."""

    @pytest.mark.parametrize("method", ["mc", "series"])
    def test_peak_does_not_grow_with_samples(self, method, tmp_path):
        block = cli.sm._BLOCK

        def run(samples):
            argv = ["estimate", "--dim", "5", "--method", method, "--samples", str(samples),
                    "--seed", "1", "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 0

        run(2 * block)   # first-use allocations outside the trace
        small = traced_peak(run, 2 * block)
        large = traced_peak(run, 16 * block)
        # each block leaves only its small result; the two threads' per-block
        # temporaries overlap as they happen to be scheduled, which moves the
        # peak by up to ~50 kB.  Holding the purities grew it by 8-34 B per sample.
        assert large - small <= 8 * 1024 * 14


def _reference_csv(cfg, eigs, purity, mats, report):
    """The row-by-row CSV writer that the block writer replaced."""
    lines = [
        f"# superfid sample schema_version={cli.SCHEMA_VERSION}",
        f"# measure={cfg.measure} dim={cfg.dim} count={cfg.count} "
        f"seed={cfg.seed}",
    ]
    if report is not None:
        lines.append(f"# rejection proposed={report.proposed} accepted={report.accepted} "
                     f"bound_constant={report.bound_constant!r} "
                     f"empirical_rate={report.empirical_rate!r}")
    header = [f"lambda_{k + 1}" for k in range(cfg.dim)] + ["purity"]
    if mats is not None:
        for i in range(cfg.dim):
            for j in range(cfg.dim):
                header += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    lines.append(",".join(header))
    columns = [eigs, purity[:, None]]
    if mats is not None:
        columns.append(mats.reshape(len(purity), -1).view(float))
    lines.extend(",".join(map(repr, row.tolist())) for row in np.hstack(columns))
    return "\n".join(lines) + "\n"


def _reference_json(cfg, eigs, purity, mats, report):
    """The json.dumps writer that the block writer replaced."""
    records = [{"eigenvalues": e, "purity": p} for e, p in zip(eigs.tolist(), purity.tolist())]
    if mats is not None:
        for rec, re_im in zip(records, mats.view(float).reshape(len(records), -1, 2).tolist()):
            rec["matrix_re_im"] = re_im
    rejection = None
    if report is not None:
        rejection = {"proposed": report.proposed, "accepted": report.accepted,
                     "bound_constant": report.bound_constant,
                     "empirical_rate": report.empirical_rate}
    doc = {"schema_version": cli.SCHEMA_VERSION, "command": "sample",
           "measure": cfg.measure, "dim": cfg.dim, "count": cfg.count,
           "seed": cfg.seed, "rejection": rejection,
           "records": records}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


class TestBlockWriter:
    # (measure, dim, count, format, full matrix, seed): every measure, N = 2..5,
    # both formats with and without matrices, rejection headers (g, N >= 3),
    # two seeds, and counts past the first writer chunk (cli._REPR_CHUNK floats)
    CASES = [
        ("hs", 2, 1, "csv", False, 1),
        ("hs", 3, 4097, "json", True, 1),
        ("hs", 5, 4096, "csv", True, 1),
        ("hs", 4, 4095, "json", False, 2),
        ("bures", 2, 4095, "json", False, 1),
        ("bures", 3, 1, "json", True, 1),
        ("bures", 4, 4097, "csv", False, 2),
        ("bures", 5, 30, "csv", True, 1),
        ("g", 2, 4097, "csv", True, 1),
        ("g", 2, 4096, "json", True, 2),
        ("g", 3, 4097, "json", False, 2),
        ("g", 3, 50, "csv", True, 1),
        ("g", 4, 4095, "json", True, 1),
        ("g", 5, 1, "csv", False, 1),
    ]

    @pytest.mark.parametrize("measure,dim,count,fmt,full,seed", CASES,
                             ids=lambda v: str(v))
    def test_sample_bytes_match_reference_writers(self, measure, dim, count, fmt, full,
                                                  seed):
        argv = ["sample", "--measure", measure, "--dim", str(dim), "--count", str(count),
                "--seed", str(seed), "--format", fmt]
        code, out = run_cli(argv + (["--full-matrix"] if full else []))
        assert code == 0
        # the reference writers print the whole arrays of sample_batch
        mats, eigs, report = cli.sm.sample_batch(measure, dim, count, RngStream(seed),
                                                 keep_matrices=full)
        cfg = cli.build_parser().parse_args(argv)
        reference = _reference_csv if fmt == "csv" else _reference_json
        _assert_same_pieces(out.splitlines(keepends=True),
                            reference(cfg, eigs, np.sum(eigs ** 2, axis=-1), mats,
                                      report).splitlines(keepends=True))
        assert (report is not None) == (measure == "g" and dim >= 3)

    def test_rows_print_repr_across_blocks(self):
        values = [-0.0, 5e-324, 1e-05, 1e16, 0.1]
        table = np.array([np.roll(values, k) for k in range(2 * 4096 + 1)])
        csv = "".join(cli._rows([[table]], ",".join(["%r"] * 5) + "\n", ""))
        _assert_same_pieces(csv.splitlines(keepends=True),
                            [",".join(map(repr, row)) + "\n" for row in table.tolist()])
        lists = "[" + "".join(cli._rows([[table]], "[%r,%r,%r,%r,%r]", ",")) + "]"
        _assert_same_pieces(lists.split("],["),
                            json.dumps(table.tolist(), separators=(",", ":")).split("],["))
        assert csv.startswith("-0.0,5e-324,1e-05,1e+16,0.1\n")

    @pytest.mark.parametrize("sizes", [[1] * 7, [5, 1, 1, 3], [2730, 1366, 2730], [6000, 3],
                                       [0, 4, 0, 2730, 1]], ids=str)
    def test_chunks_are_cut_across_blocks(self, sizes):
        # blocks of any size, split into column groups, give the chunks of one table
        table = np.random.default_rng(len(sizes)).random((sum(sizes), 3))
        bounds = np.cumsum([0] + sizes)
        blocks = [[table[a:b, :2], table[a:b, 2:]] for a, b in zip(bounds, bounds[1:])]
        for template, sep in (("%r,%r,%r\n", ""), ("[%r,%r,%r]", ",\n")):
            whole = list(cli._rows([[table]], template, sep))
            assert list(cli._rows(blocks, template, sep)) == whole
            assert len(whole) == -(-len(table) // (cli._REPR_CHUNK // 3))

    # literal pieces of every length 0..7, with and without a separator, and
    # the JSON record of sample --full-matrix --format json at N = 2
    TEMPLATES = [
        ("%r", ""),
        ("a%rbc", "\n"),
        ("[%r,%r]", ",\n"),
        ("".join("=" * n + "%r" for n in range(8)) + "+" * 7, "#"),
        ("  {\n   " + ",\n   ".join([
            '"eigenvalues": ' + cli._json_list(["%r"] * 2, 4),
            '"matrix_re_im": ' + cli._json_list([cli._json_list(["%r", "%r"], 5)] * 4, 4),
            '"purity": %r']) + "\n  }", ",\n"),
    ]

    @pytest.mark.parametrize("template,sep", TEMPLATES, ids=range(len(TEMPLATES)))
    def test_templates_with_pieces_of_any_length(self, template, sep):
        columns = template.count("%r")
        step = max(1, cli._REPR_CHUNK // columns)
        values = np.random.default_rng(columns).uniform(-1.0, 1.0, (2 * step + 1) * columns)
        values[::7] = np.resize([0.0, -0.0, 1e-5, np.nan, 12.5, 0.25, -np.inf],
                                len(values[::7]))
        table = values.reshape(-1, columns)
        got = "".join(cli._rows([[table]], template, sep))
        _assert_same_pieces(got.split(sep or "\n"),
                            _reference_rows(table, template, sep).split(sep or "\n"))
        assert got == _reference_rows(table, template, sep)

    @pytest.mark.parametrize("values", [
        [-1.7976931348623157e308, -2.2250738585072014e-308],
        [np.nan, -np.inf],
    ], ids=["24-character-reprs", "nan-and-minus-inf"])
    def test_tables_that_fall_back_to_repr_everywhere(self, values):
        # every float is left to repr; the longest reprs fill 24 of a slot's 28 bytes
        assert max(len(repr(v)) for v in values) <= cli._SLOT
        table = np.resize(values, (cli._REPR_CHUNK + 3, 2))
        assert not cli._repr_digits(table.ravel())[3].any()
        for template, sep in (("%r,%r\n", ""), ("[%r,%r]", ",\n")):
            got = "".join(cli._rows([[table]], template, sep))
            assert got == _reference_rows(table, template, sep)

    def test_memory_does_not_grow_with_chunks(self):
        # each chunk's buffers are freed before the next one is built
        step = cli._REPR_CHUNK // 3
        chunk = np.random.default_rng(3).random((step, 3))
        chunk[::50] = [0.0, 1e-5, 12.5]

        def drain(chunks):
            table = np.tile(chunk, (chunks, 1))   # allocated before the trace starts
            return traced_peak(lambda: sum(map(len, cli._rows([[table]], "%r,%r,%r\n", ""))))

        drain(2)   # first-use allocations, such as the digit tables, outside the trace
        assert drain(32) - drain(2) <= 4 * 1024


def _assert_same_pieces(got, want):
    """``got == want`` for two lists of text pieces, reporting only the first differences.

    Comparing whole outputs of ~10^5 characters with ``==`` makes pytest diff
    them for minutes when they differ.
    """
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:3] == []


def _reference_rows(table, template, sep):
    """The pure-%r writer: each row through ``template``, every float as its repr."""
    return sep.join(template % tuple(row) for row in table.tolist())


def _assert_rows_match_reference(values, ncol=1):
    """``cli._rows`` prints ``values`` (and their negatives) exactly as ``%r`` does."""
    values = np.asarray(values, dtype=float)
    for table in (values.reshape(-1, ncol), -values.reshape(-1, ncol)):
        for template, sep in ((",".join(["%r"] * ncol) + "\n", ""),
                              ("[" + ",".join(["%r"] * ncol) + "]", ",\n")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = "".join(cli._rows([[table]], template, sep)).splitlines()
            _assert_same_pieces(got, _reference_rows(table, template, sep).splitlines())


def _around(centre, steps=40):
    """The doubles within ``steps`` ulps of ``centre``, itself included."""
    return (np.float64(centre).view(np.int64) + np.arange(-steps, steps + 1)).view(np.float64)


class TestFloatWriterOracle:
    """``_rows`` finds repr's digits with numpy; ``%r`` of each float is the oracle."""

    @pytest.mark.parametrize("edge", [1e-4, 1e-3, 0.01, 0.1, 1.0])
    def test_both_sides_of_each_decimal_exponent(self, edge):
        below, above = np.nextafter(edge, 0.0), np.nextafter(edge, 2.0)
        assert below < edge < above
        _assert_rows_match_reference(np.concatenate([[below, edge, above], _around(edge)]))

    @pytest.mark.parametrize("power", [2.0 ** -n for n in range(1, 15)])
    def test_powers_of_two_and_their_neighbours(self, power):
        # the gap below a power of two is half the gap above it
        _assert_rows_match_reference(_around(power))

    def test_short_reprs(self):
        _assert_rows_match_reference(np.arange(401) / 400)
        _assert_rows_match_reference(np.arange(1, 10 ** 4) / 10 ** 4)

    def test_specials(self):
        _assert_rows_match_reference([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2e-308,
                                      9.999e-5, 1.0, 1.5, 9.75, 1e16, 1.7976931348623157e308])

    def test_zeros_take_the_fast_path(self):
        # the imaginary parts of every --full-matrix diagonal are exact zeros
        x = np.array([0.0, -0.0, 0.3, 5e-324])
        prefix, digits, lead, found = cli._repr_digits(x)
        assert found.tolist() == [True, True, True, False]
        assert [cli._PREFIXES[i] for i in prefix[:3]] == ["0.", "-0.", "0."]
        assert digits.tolist() == [0, 0, 3, 0]
        assert lead[:3].tolist() == [19, 19, 19]   # one digit each
        words = np.zeros(len(x) * cli._SLOT // 4, dtype=np.uint32)
        cli._fill_slots(words, np.arange(len(x)) * (cli._SLOT // 4), x)
        slots = words.tobytes()
        assert [slots[i:i + cli._SLOT].translate(None, b"\0")
                for i in range(0, len(slots), cli._SLOT)] == [b"0.0", b"-0.0", b"0.3", b"5e-324"]

    def test_exact_ties_of_dyadic_values(self):
        # odd multiples of 2^-p whose shortest digits end in a tie
        for p in (18, 19, 20, 21):
            _assert_rows_match_reference(np.arange(1, 4001, 2) * 2.0 ** -p)

    def test_random_values_and_bit_patterns(self):
        gen = np.random.default_rng(2011)
        _assert_rows_match_reference(gen.random(20000), ncol=4)
        _assert_rows_match_reference(10.0 ** gen.uniform(-5, 0, 20000), ncol=4)
        _assert_rows_match_reference(
            gen.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64), ncol=4)

    @pytest.mark.parametrize("ncol", list(dict.fromkeys([1, 3, 56, 8193, cli._REPR_CHUNK + 1])))
    def test_chunk_seams(self, ncol):
        # each chunk holds as many whole rows as fit in _REPR_CHUNK floats, or
        # one row when a row is longer; these tables have two seams and one
        # row more (8193 floats is a row of more than two chunks)
        step = max(1, cli._REPR_CHUNK // ncol)
        gen = np.random.default_rng(ncol)
        values = gen.uniform(-1.0, 1.0, (2 * step + 1) * ncol)
        values[::97] = np.resize([0.0, 1e-18, np.nan, 0.5, 2.0, 1e-4], len(values[::97]))
        seam = step * ncol
        values[seam - 2:seam + 2] = [1e-18, 0.25, np.nan, 0.3]
        _assert_rows_match_reference(values, ncol)

    @settings(max_examples=500)
    @given(st.floats() | st.floats(-1.0, 1.0))
    def test_any_float(self, value):
        _assert_rows_match_reference([value])


class TestDigestScript:
    def test_subset_digests_repeat(self):
        path = Path(__file__).resolve().parents[1] / "scripts" / "cli_digest.py"
        spec = importlib.util.spec_from_file_location("cli_digest", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        subset = [c for c in tool.COMMANDS if c[0] in ("estimate-mc-3-out", "exit2-grid-hs")]
        assert len(subset) == 2
        first = [tool.digest_line(name, argv) for name, argv in subset]
        second = [tool.digest_line(name, argv) for name, argv in subset]
        assert first == second
        codes = [line.split()[1] for line in first]
        assert codes == ["0", "2"]
        assert all(len(line.split()[2]) == 64 for line in first)
