"""End-to-end tests of the command-line workbench.

Most tests call ``cli.main`` in process; ``TestEntryPoint`` runs
``python -m cavityqfc`` in fresh processes, once per exit code, and
``TestImportCost`` checks in fresh interpreters that no scipy module is
loaded, not even by the nonlinear fits, that no thread pool is imported and
that no median imports ``numpy.ma``.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import pathlib
import re
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from cavityqfc import BPF_NM, PRESETS, ScanSeries, cli, conversion, extract_fwhm
from cavityqfc.dataio import fmt, read_scan_csv


def _check_exit(result, expect):
    """Check the exit code; ``expect=None`` accepts any."""
    assert expect is None or result.returncode == expect, (
        f"exit {result.returncode} != {expect}; stderr: {result.stderr}"
    )
    return result


def run_cli(*args, expect=0):
    """Run ``cli.main`` in this process; an argparse exit gives its code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
    result = subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())
    return _check_exit(result, expect)


def run_module(*args, expect=0):
    """Run ``python -m cavityqfc`` in a fresh process."""
    result = subprocess.run(
        [sys.executable, "-m", "cavityqfc", *args], capture_output=True, text=True
    )
    return _check_exit(result, expect)


class TestEntryPoint:
    @pytest.mark.parametrize(
        "args, expect",
        [
            (["design"], 0),
            (["generate", "--param", "model=warp"], 2),
            (["snr", "--seed", "1"], 2),
            (["fit", "--input", "{bad}", "--param", "model=fwhm"], 3),
            (["g2", "--param", "g2_out_obs=5.0"], 4),
            (["fit", "--input", "/nonexistent/x.csv", "--param", "model=fwhm"], 6),
            (["fit", "--param", "model=fwhm"], 2),
            (["fsr"], 2),
        ],
    )
    def test_exit_code(self, tmp_path, args, expect):
        bad = tmp_path / "bad.csv"
        bad.write_text("power_mW,fwhm_MHz\n1.0,banana\n")
        result = run_module(*[a.format(bad=bad) for a in args], expect=expect)
        assert result.stdout if expect == 0 else result.stderr


class TestParserReuse:
    def test_one_parser_serves_every_call(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_call_sees_nothing_of_the_one_before(self):
        # every run_cli call parses with the same parser, so the later calls
        # must read only their own --param list and the default --seed
        first = run_cli("generate", "--param", "model=comb", "--param", "step_nm=0.5",
                        "--param", "noise=poisson", "--seed", "7")
        assert "# seed = 7" in first.stdout
        mc = json.loads(run_cli("g2", "--param", "mc=1", "--param", "bins=20000").stdout)
        assert mc["seed"] == cli.DEFAULT_SEED
        second = run_cli("generate", "--param", "model=fwhm")
        assert second.stdout == run_module("generate", "--param", "model=fwhm").stdout
        assert "# seed = 1234" in second.stdout
        assert run_cli("design").stdout == run_module("design").stdout
        parser = cli.build_parser()
        assert parser.parse_args(["generate", "--param", "model=comb"]).param == ["model=comb"]
        again = parser.parse_args(["generate"])
        assert again.param is None and again.seed == cli.DEFAULT_SEED


class TestImportCost:
    def test_no_scipy_module_is_loaded(self):
        code = textwrap.dedent("""
            import contextlib, io, json, sys
            import numpy as np

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            from cavityqfc import NoiseParams, ScanSeries, cli, fitting, noise_cavity_per_fsr
            state = {"thread_pool": "concurrent.futures" in sys.modules,
                     "after_import": scipy_modules()}
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["design"]) == 0
            state["after_design"] = scipy_modules()
            power = np.linspace(20.0, 250.0, 12)
            counts = noise_cavity_per_fsr(NoiseParams(230.0, 0.7, 1.0 / 144.0), power)
            fitting.fit_saturating_noise(ScanSeries(power, counts, unit="mW"), 0.7)
            x = np.linspace(-300.0, 300.0, 201)
            fitting.extract_fwhm(ScanSeries(x, 1.0 / (1.0 + (x / 35.0) ** 2)))
            state["after_fits"] = scipy_modules()
            print(json.dumps(state))
        """)
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        state = json.loads(result.stdout)
        assert state == {"thread_pool": False, "after_import": [], "after_design": [],
                         "after_fits": []}

    def test_fit_noise_subcommand_loads_no_scipy(self, tmp_path):
        data = tmp_path / "noise.csv"
        run_cli("generate", "--param", "model=noise", "--output", str(data))
        # -X importtime reports every module the fresh process imports on stderr
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "cavityqfc", "fit",
             "--input", str(data), "--param", "model=noise"],
            capture_output=True, text=True,
        )
        _check_exit(result, 0)
        assert json.loads(result.stdout)["converged"]
        imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
        assert "cavityqfc.fitting" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []

    def test_median_loads_no_numpy_ma(self, tmp_path):
        # np.median's first call in a process imports numpy.ma, about 18 ms
        data = tmp_path / "comb.csv"
        run_cli("generate", "--param", "model=comb", "--output", str(data))
        code = textwrap.dedent(f"""
            import contextlib, io, sys
            import numpy as np
            from cavityqfc import ScanSeries, cli, fitting

            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["fsr", "--input", {str(data)!r}]) == 0
            x = np.linspace(-300.0, 300.0, 201)
            fitting.extract_fwhm(ScanSeries(x, 1.0 / (1.0 + (x / 35.0) ** 2)))
            print("numpy.ma" in sys.modules)
        """)
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_speed_of_light_equals_scipy_constant(self):
        from scipy.constants import c

        assert conversion._C_VACUUM == c


class TestGenerateFitRoundTrip:
    def test_fwhm_dataset_recovers_parameters(self, tmp_path):
        data = tmp_path / "fwhm.csv"
        run_cli("generate", "--param", "model=fwhm", "--output", str(data))
        result = run_cli("fit", "--input", str(data), "--param", "model=fwhm")
        payload = json.loads(result.stdout)
        assert payload["parameters"]["alpha_MHz_per_mW"] == pytest.approx(0.49, rel=1e-8)
        assert payload["parameters"]["gamma_all_MHz"] == pytest.approx(70.4, rel=1e-8)
        assert payload["converged"]

    @pytest.mark.parametrize("model", ["fwhm", "noise"])
    def test_csv_and_json_give_the_same_iterations(self, tmp_path, model):
        data = tmp_path / f"{model}.csv"
        run_cli("generate", "--param", f"model={model}", "--output", str(data))
        args = ("fit", "--input", str(data), "--param", f"model={model}")
        rows = dict(line.split(",") for line in run_cli(*args, "--format", "csv").stdout.splitlines()
                    if not line.startswith("#"))
        iterations = json.loads(run_cli(*args, "--format", "json").stdout)["iterations"]
        assert int(rows["iterations"]) == iterations
        assert iterations == 0 if model == "fwhm" else iterations > 0

    def test_fwhm_1522_preset(self, tmp_path):
        data = tmp_path / "fwhm1522.csv"
        run_cli("generate", "--preset", "1522", "--param", "model=fwhm",
                "--output", str(data))
        payload = json.loads(
            run_cli("fit", "--input", str(data), "--param", "model=fwhm").stdout
        )
        assert payload["parameters"]["alpha_MHz_per_mW"] == pytest.approx(0.56, rel=1e-8)
        assert payload["parameters"]["gamma_all_MHz"] == pytest.approx(34.4, rel=1e-8)

    def test_fwhm_nv_preset_takes_the_model_slope(self):
        # the nv preset has no measured broadening slope
        preset = PRESETS["nv"]
        assert preset.broadening_MHz_per_mW is None
        slope = preset.alpha_tilde_per_mW * preset.cavity.gamma_all_MHz
        assert preset.alpha_MHz_per_mW == slope
        payload = json.loads(run_cli("generate", "--preset", "nv", "--param", "model=fwhm",
                                     "--format", "json").stdout)
        assert payload["provenance"]["alpha_MHz_per_mW"] == slope
        power, fwhm = np.array(payload["power_mW"]), np.array(payload["fwhm_MHz"])
        assert fwhm == pytest.approx(preset.cavity.gamma_all_MHz + slope * power, rel=1e-15)

    def test_noise_dataset_recovers_parameters(self, tmp_path):
        data = tmp_path / "noise.csv"
        run_cli("generate", "--param", "model=noise", "--output", str(data))
        payload = json.loads(
            run_cli("fit", "--input", str(data), "--param", "model=noise").stdout
        )
        assert payload["parameters"]["alpha_noise"] == pytest.approx(230.0, rel=1e-3)
        assert payload["parameters"]["alpha_tilde"] == pytest.approx(1 / 144, rel=1e-3)

    def test_noisy_datasets_recover_within_three_sigma(self, tmp_path):
        data = tmp_path / "noisy.csv"
        run_cli("generate", "--param", "model=fwhm", "--param", "noise=gauss",
                "--seed", "7", "--output", str(data))
        payload = json.loads(
            run_cli("fit", "--input", str(data), "--param", "model=fwhm").stdout
        )
        for name, truth in [("alpha_MHz_per_mW", 0.49), ("gamma_all_MHz", 70.4)]:
            delta = abs(payload["parameters"][name] - truth)
            assert delta <= 3 * payload["std_errors"][name]


class TestFsrCommand:
    def test_comb_scan_round_trip(self, tmp_path):
        data = tmp_path / "comb.csv"
        run_cli("generate", "--param", "model=comb", "--output", str(data))
        payload = json.loads(run_cli("fsr", "--input", str(data)).stdout)
        assert payload["fsr_GHz"] == pytest.approx(5.2, abs=0.1)
        assert payload["uncertainty_GHz"] == pytest.approx(0.107, abs=0.01)

    def test_noisy_comb_scan(self, tmp_path):
        data = tmp_path / "comb_noisy.csv"
        run_cli("generate", "--param", "model=comb", "--param", "noise=poisson",
                "--seed", "42", "--output", str(data))
        payload = json.loads(run_cli("fsr", "--input", str(data)).stdout)
        assert payload["fsr_GHz"] == pytest.approx(5.2, abs=0.2)

    def test_even_length_scan_has_a_one_sided_axis(self, tmp_path):
        # fftfreq puts the Nyquist bin of an even-length scan at -n/2
        data = tmp_path / "even.csv"
        run_cli("generate", "--param", "model=comb", "--param", "span_nm=1.99",
                "--output", str(data))
        assert len(read_scan_csv(str(data))[0]) == 200
        lines = run_cli("fsr", "--input", str(data), "--format", "csv").stdout.splitlines()
        header = lines.index("frequency_per_unit,power")
        freqs = np.array([float(line.split(",")[0]) for line in lines[header + 1 :]])
        assert len(freqs) == 100 and np.all(np.diff(freqs) > 0)
        assert freqs[-1] == pytest.approx(100 * freqs[0], rel=1e-9)

    def test_constant_input_fails_cleanly(self, tmp_path):
        data = tmp_path / "flat.csv"
        rows = ["wavelength_nm,counts_cps"] + [f"{1539 + i * 0.01},7" for i in range(64)]
        data.write_text("\n".join(rows) + "\n")
        result = run_cli("fsr", "--input", str(data), expect=4)
        assert "domain error" in result.stderr


class TestModelCommand:
    def test_spectra_blocks(self, tmp_path):
        out = tmp_path / "model.json"
        run_cli("model", "--format", "json", "--param", "powers=33.3,94.0,148",
                "--output", str(out))
        payload = json.loads(out.read_text())
        assert [s["power_mW"] for s in payload["spectra"]] == [33.3, 94.0, 148.0]

    def test_zero_power_is_transparent(self):
        payload = json.loads(run_cli("model", "--format", "json", "--param", "powers=0").stdout)
        spectrum = payload["spectra"][0]
        assert np.allclose(spectrum["transmission"], 1.0, atol=1e-12)
        assert np.allclose(spectrum["conversion"], 0.0, atol=1e-12)

    def test_round_trip_fwhm_extraction(self, tmp_path):
        out = tmp_path / "model.csv"
        run_cli("model", "--format", "csv", "--param", "powers=94.0", "--output", str(out))
        raw = np.loadtxt(out, delimiter=",", skiprows=3)
        detuning, conversion = raw[:, 1], raw[:, 3]
        fwhm, _ = extract_fwhm(ScanSeries(detuning, conversion, unit="GHz"))
        expected = 70.4 * (1 + 94.0 / 144.0)
        assert fwhm == pytest.approx(expected, rel=0.01)


class TestSnrCommand:
    def test_min_finesse_query(self):
        payload = json.loads(
            run_cli("snr", "--param", "mode=min-finesse", "--param", "tolerance=1e-3").stdout
        )
        assert payload["min_finesse"] == pytest.approx(8 / np.pi, abs=1e-3)

    def test_table(self):
        payload = json.loads(
            run_cli("snr", "--param", "mode=table", "--param", "fc=74", "--param", "fs=1").stdout
        )
        assert payload["table"]["fwhm_wide"]["no_cavity"] == 74.0
        assert payload["table"]["fsr_wide"]["converted_mode"] == pytest.approx(2 * 74 / np.pi)

    def test_curves_structure(self):
        payload = json.loads(
            run_cli("snr", "--param", "mode=curves", "--param", "finesse=2.546,25").stdout
        )
        labels = [c["label"] for c in payload["curves"]]
        assert labels == ["cavity F=2.546", "cavity F=25", "no cavity"]
        f25 = payload["curves"][1]
        assert f25["snr"][0] == pytest.approx(25 * np.pi / 2, rel=1e-9)
        assert f25["snr"][-1] == pytest.approx(25 * np.pi / 8, rel=1e-9)
        assert payload["curves"][2]["snr"][-1] == pytest.approx(1.0, abs=1e-12)

    def test_curves_compute_each_finesse_once(self, monkeypatch):
        calls = []

        def counted(F, grid_size):
            calls.append(F)
            return curves(F, grid_size)

        curves = cli.snr.normalized_snr_curves
        monkeypatch.setattr(cli.snr, "normalized_snr_curves", counted)
        run_cli("snr", "--param", "mode=curves", "--param", "finesse=2.546,25")
        assert calls == [2.546, 25.0]


class TestG2Command:
    def test_analytic_chain(self):
        payload = json.loads(
            run_cli("g2", "--param", "zeta=2.1", "--param", "enhancement=18").stdout
        )
        assert payload["g2_out"] == pytest.approx(2.9096, abs=1e-4)
        assert payload["g2_nocav"] == pytest.approx(1.2945, abs=1e-4)
        assert payload["zeta_classical"] == pytest.approx(1 / (3.819 - 2), rel=1e-9)

    def test_zeta_inversion(self):
        payload = json.loads(run_cli("g2", "--param", "g2_out_obs=2.94").stdout)
        assert payload["zeta_from_g2"] == pytest.approx(2.2071, abs=1e-4)

    def test_domain_error_exit(self):
        run_cli("g2", "--param", "g2_out_obs=5.0", expect=4)

    def test_mc_estimate_matches_exact_statistics(self):
        payload = json.loads(
            run_cli("g2", "--param", "mc=1", "--param", "bins=1000000", "--seed", "6").stdout
        )
        from cavityqfc import thermal_source_g2

        expected = thermal_source_g2(0.55, 0.1, 0.1)
        assert abs(payload["g2"] - expected) < 3 * payload["stderr"]

    def test_mc_estimate_does_not_depend_on_the_span(self):
        # the level comes from the singles: a one-bin span has no tails to average
        narrow, wide = (
            json.loads(run_cli("g2", "--param", "mc=1", "--param", "bins=1000000",
                               "--param", f"span_bins={span}", "--seed", "6").stdout)
            for span in (1, 30)
        )
        for key in ("g2", "stderr", "accidental_level"):
            assert narrow[key] == wide[key]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_window_past_the_last_delay_is_domain_error(self, fmt):
        # 32 bins from delay 0 at the default span of 30: a searched window printed g2 = 1.088
        result = run_cli("g2", "--param", "mc=1", "--param", "bins=20000",
                         "--param", "window_ns=25.6", "--format", fmt, expect=4)
        assert "window_ns=25.6 runs past the last delay: at most 24.8 ns from delay 0" \
            in result.stderr
        assert result.stdout == ""
        run_cli("g2", "--param", "mc=1", "--param", "bins=20000", "--param", "window_ns=24.8",
                "--format", fmt)

    @pytest.mark.parametrize(
        "params, flagged",
        [
            # 5000 bins at eta 0.5 hold 694 coincidences at delay 0
            (["bins=5000", "eta_herald=0.5", "eta_signal=0.5"], False),
            # 3e5 sparse bins hold 4 where 4.5 are expected
            (["mu=0.01", "eta_herald=0.5", "eta_signal=0.002", "nu=0.001", "bins=300000"], True),
        ],
        ids=["few_bins_many_counts", "many_bins_few_counts"],
    )
    def test_low_statistics_reads_the_delay_zero_count(self, params, flagged):
        args = [arg for param in params for arg in ("--param", param)]
        payload = json.loads(run_cli("g2", "--param", "mc=1", *args, "--seed", "1").stdout)
        assert payload["low_statistics"] is flagged

    @pytest.mark.parametrize("key", ["shards", "workers"])
    def test_parallel_plan_keys_are_usage_errors(self, key):
        result = run_cli("g2", "--param", "mc=1", "--param", f"{key}=2", expect=2)
        assert "unknown parameter" in result.stderr


class TestCoincidenceRoundTrip:
    def test_histogram_file_reanalyzed(self, tmp_path):
        data = tmp_path / "coinc.csv"
        run_cli("generate", "--param", "model=coincidence", "--param", "bins=1000000",
                "--seed", "31", "--output", str(data))
        series, provenance = read_scan_csv(data)
        assert series.unit == "ns"
        assert provenance["model"] == "coincidence"
        from cavityqfc import CoincidenceHistogram, g2_from_histogram, thermal_source_g2
        singles = [float(provenance[key]) for key in ("herald_clicks", "signal_clicks", "bins")]
        histogram = CoincidenceHistogram(series.values, *singles, resolution_ns=0.8)
        # the file's delay column is the derived axis, written at 12 digits
        assert series.abscissa.tolist() == [float(fmt(d)) for d in histogram.delay_bins_ns]
        record = g2_from_histogram(histogram, 0.8)
        expected = thermal_source_g2(0.55, 0.1, 0.1)
        assert abs(record.g2 - expected) < 3 * record.stderr
        # the file holds all that g2 reads: the same run's estimate, digit for digit
        direct = json.loads(run_cli("g2", "--param", "mc=1", "--param", "bins=1000000",
                                    "--seed", "31").stdout)
        assert (record.g2, record.stderr) == (direct["g2"], direct["stderr"])
        assert histogram.accidental_level == direct["accidental_level"]


class TestDesignCommand:
    def test_design_report(self):
        payload = json.loads(run_cli("design").stdout)
        assert payload["finesse"] == 45.0
        assert payload["suppression_factor"] > 10.0
        assert payload["over_tenfold"] is True

    def test_defaults_are_the_nv_preset_s(self):
        nv = PRESETS["nv"]
        defaults = {key: default for key, (_, default) in cli._MODES["design"][None][1].items()}
        assert defaults == {"finesse": nv.cavity.finesse, "fsr_GHz": nv.cavity.fsr_MHz * 1e-3,
                            "bpf_nm": BPF_NM, "center_nm": nv.wavelengths.converted_nm}
        # the golden design digests and --help depend on these exact floats
        assert list(defaults.values()) == [45.0, 5.0, 0.03, 1587.0]

    def test_huge_finesse_stays_finite(self):
        payload = json.loads(run_cli("design", "--param", "finesse=1e17").stdout)
        assert np.isfinite(payload["suppression_factor"])
        assert payload["suppression_factor"] > 1e16


class TestDeterminismAndErrors:
    def test_generate_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["generate", "--param", "model=coincidence", "--param", "bins=200000",
                "--seed", "99"]
        run_cli(*args, "--output", str(a))
        run_cli(*args, "--output", str(b))
        assert a.read_bytes() == b.read_bytes()
        run_cli(*args[:-2], "--seed", "100", "--output", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_poisson_comb_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["generate", "--param", "model=comb", "--param", "noise=poisson",
                "--seed", "5"]
        run_cli(*args, "--output", str(a))
        run_cli(*args, "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_param_is_usage_error(self):
        run_cli("generate", "--param", "model=fwhm", "--param", "bogus=1", expect=2)

    def test_param_without_equals_is_usage_error(self):
        result = run_cli("design", "--param", "finesse", expect=2)
        assert result.stderr == "usage error: --param expects key=value, got 'finesse'\n"

    @pytest.mark.parametrize(
        "args",
        [["design", "--input", "x"], ["snr", "--seed", "1"],
         ["fsr", "--input", "x", "--preset", "nv"]],
    )
    def test_unread_flag_is_usage_error(self, args):
        result = run_cli(*args, expect=2)
        assert "unrecognized arguments" in result.stderr

    @pytest.mark.parametrize(
        "args, flag, where",
        [
            (["fit", "--input", "x", "--param", "model=fwhm", "--preset", "nv"], "preset",
             "fit model=fwhm"),
            (["generate", "--param", "model=coincidence", "--preset", "1522"], "preset",
             "generate model=coincidence"),
            (["g2", "--seed", "2"], "seed", "g2 mc=0"),
        ],
    )
    def test_flag_the_mode_does_not_read_is_usage_error(self, args, flag, where):
        result = run_cli(*args, expect=2)
        assert f"usage error: --{flag} is not read by {where!r}" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            # a list key's later element; the whole value is swept in test_parameter_rule.py
            ["model", "--param", "powers=33.3,nan"],
            # (center_nm * 1e-9) ** 2 underflows to 0 and overflows to inf
            *(["design", "--param", f"center_nm={center}", "--format", fmt]
              for center in ("1e-300", "1e300") for fmt in ("json", "csv")),
        ],
    )
    def test_nonfinite_param_is_domain_error(self, args):
        result = run_cli(*args, expect=4)
        key, _, value = args[2].partition("=")
        if key == "center_nm":  # a finite value whose square leaves the float range
            assert f"bandwidth_nm_to_GHz(delta_nm=0.03, center_nm={float(value)}) leaves the " \
                "float range" in result.stderr
        else:
            assert "must be finite" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("model", ["fwhm", "noise"])
    def test_empty_scan_is_domain_error(self, model):
        result = run_cli("generate", "--param", f"model={model}", "--param", "points=0",
                         expect=4)
        assert "points must be at least 1" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_nonpositive_comb_step_is_domain_error(self, step):
        result = run_cli("generate", "--param", "model=comb", "--param", f"step_nm={step}",
                         expect=4)
        assert "step_nm must be positive" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_result_is_domain_error(self, fmt):
        # 2*fc/pi overflows to inf in the nested law, which names itself
        result = run_cli("snr", "--param", "mode=table", "--param", "fc=1e308",
                         "--format", fmt, expect=4)
        assert "domain error: low_power_snr_gain(F_cold=1e+308) leaves the float range" \
            in result.stderr
        assert result.stdout == ""

    def test_unknown_generate_model_is_usage_error(self):
        run_cli("generate", "--param", "model=warp", expect=2)

    def test_missing_input_file_is_io_error(self):
        run_cli("fit", "--input", "/nonexistent/x.csv", "--param", "model=fwhm", expect=6)

    def test_unwritable_output_is_io_error(self):
        run_cli("design", "--output", "/nonexistent/dir/out.json", expect=6)

    def test_malformed_csv_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("power_mW,fwhm_MHz\n1.0,banana\n")
        result = run_cli("fit", "--input", str(bad), "--param", "model=fwhm", expect=3)
        assert "line 2" in result.stderr

    def test_nonfinite_scan_is_parse_error_naming_the_first_bad_line(self, tmp_path, capfd):
        bad = tmp_path / "nonfinite.csv"
        bad.write_text("power_mW,fwhm_MHz\n1,2\nnan,3\n2,4\n3,inf\n4,5\n")
        result = run_cli("fit", "--input", str(bad), "--param", "model=fwhm", expect=3)
        assert "line 3: values must be finite, got ['nan', '3']" in result.stderr
        # LAPACK writes straight to file descriptor 2, past redirect_stderr
        assert "DLASCL" not in capfd.readouterr().err

    def test_decreasing_abscissa_names_the_first_falling_line(self, tmp_path):
        bad = tmp_path / "decreasing.csv"
        bad.write_text("power_mW,fwhm_MHz\n# note\n1,2\n2,3\n3,4\n2.5,5\n4,6\n")
        result = run_cli("fit", "--input", str(bad), "--param", "model=fwhm", expect=3)
        assert "line 6: abscissa must be strictly increasing, got 2.5 after 3" in result.stderr

    def test_empty_file_is_parse_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        run_cli("fit", "--input", str(empty), "--param", "model=fwhm", expect=3)

    def test_nonincreasing_abscissa_is_parse_error(self, tmp_path):
        bad = tmp_path / "degenerate.csv"
        bad.write_text("power_mW,fwhm_MHz\n" + "\n".join("1.0,%d" % i for i in range(3)) + "\n")
        run_cli("fit", "--input", str(bad), "--param", "model=fwhm", expect=3)


# argv and the SHA-256 of its CSV and JSON stdout: the CSV digests pinned from
# the code before every handler returned its result to one writer, the JSON
# ones from the code that still built its JSON text with json.dumps
_GOLDEN = {
    "design": (["design"],
               "956a9ecc7c0a7543fea31a450055c4de7e16f6a2c37117780bc049e00f3807b3",
               "506cbb327439af4ca295384c6fabac8e80edbfbb45c4efec240a6362e18e5ecb"),
    "snr_curves": (["snr", "--param", "mode=curves"],
                   "0f936c611f322f4e84663adf5325b6dd7e96c288d4e9294e31a2e7d3e84dad74",
                   "28a7e5d2b559b5c27257de26c78349db4de3b9d9448f2bde0a9f5ad6128a6fad"),
    "snr_table": (["snr", "--param", "mode=table"],
                  "f2cd8c03837df2d900eb17abcffb8edaafb5ed33beca45df43a7afbb2c65a8de",
                  "62cd762e638e66921be36ce40cd5b83719cb293434c847d3304c0ef564378816"),
    "snr_min_finesse": (["snr", "--param", "mode=min-finesse"],
                        "ca1b39ef0cba21ca84b2d7a120918997cf9960df29ac6c4daf5d76c37640e5e8",
                        "02a69d1e16883b38283bc2d82ac57ef14ff0364dea7f9fff1111dda8c0fa17a9"),
    "g2_analytic": (["g2", "--param", "zeta=2.1", "--param", "enhancement=18"],
                    "bc19aecd968304982cd22dc211bc252390aa99b52d320ea09a5579c56189aa14",
                    "1ddd2fdffc4f266960a7fb9f39a64fcb818a68b996d1cef805c1d29d123eac69"),
    "model": (["model"],
              "981f7de71532e3a4599eeee72bf1ed0ed36794779f201ebb13e92f137e557cb8",
              "744aa855f6999bdfd06920d9da7705f586decf9b447bd3fd641d4d06bbbe8e29"),
    "generate_fwhm": (["generate", "--param", "model=fwhm", "--param", "noise=gauss",
                       "--seed", "7"],
                      "b8bc694179b2b1e6dd1c35f9e75f3608ffa9f88c34c111b3d9c2e1bdab4962c1",
                      "1cac81e6280321bf073a008b267517eb3f7e480b0eea3f97580e4faa1b1b9623"),
    "generate_noise": (["generate", "--param", "model=noise", "--param", "noise=gauss",
                        "--seed", "8"],
                       "55ace25b6f6f86b7312e808ed5666a096e8c6fa6fc2d89c9c9e6bf46549c6770",
                       "8d5b22c613de3496baac36998782fd44d9d592457fffa38a0508bd6ebccd9617"),
    "generate_comb": (["generate", "--param", "model=comb", "--param", "noise=poisson",
                       "--seed", "5"],
                      "5fd47169b6e276f6e23df42dc9852ecd1ca7faf23698d6bf4f4bf25da8408a0b",
                      "e38415730295f6032ad5e0c979710bf44f9b73a2982e66c72576d4fadbe222fa"),
    "generate_coincidence": (["generate", "--param", "model=coincidence",
                              "--param", "bins=1000000", "--seed", "7"],
                             "843abda6d8d39397a38770dc64d16c234875ee74b7bc94f6d295ef68fca45e0d",
                             "a3ffaea49d8c96e48e0a2e0b23274e7c4a2256bc6b5446b8bbe6b20ea2cc358e"),
    "g2_mc": (["g2", "--param", "mc=1", "--param", "bins=1000000", "--seed", "7"],
              "583ff1cefea2dedd4ffbf2b9b4addb8646caf2aa7afb58323c560fe010f690ff",
              "1f0c166752eed6799e45447ac41fe27edbae788da42ed3df939a0707abe4f497"),
}


class TestGoldenOutput:
    """SHA-256 of the CSV and JSON stdout of the closed-form and seeded
    subcommands.

    ``fit`` and ``fsr`` are left out because their last digits come from
    ``lstsq`` and the FFT, which may differ between BLAS builds.
    """

    @pytest.mark.parametrize(
        "form, args, digest",
        [pytest.param("csv", args, csv, id=name) for name, (args, csv, _) in _GOLDEN.items()]
        + [pytest.param("json", args, json_digest, id=f"json_{name}")
           for name, (args, _, json_digest) in _GOLDEN.items()],
    )
    def test_csv_stdout_digest(self, form, args, digest):
        stdout = run_cli(*args, "--format", form).stdout
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest


HUGE = "1000000000000"


class TestDomainLimits:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "args, message",
        [
            (["model", "--param", f"samples={HUGE}"], "samples must be at most 1000000"),
            (["snr", "--param", f"grid={HUGE}"], "grid_size must be at most 1000000"),
            (["generate", "--param", "model=fwhm", "--param", f"points={HUGE}"],
             "points must be at most 1000000"),
            (["generate", "--param", "model=coincidence", "--param", f"span_bins={HUGE}"],
             "delay_span_bins must not exceed model.bins"),
            (["g2", "--param", "mc=1", "--param", "bins=1000", "--param", "span_bins=1001"],
             "delay_span_bins must not exceed model.bins"),
            # the sampler's int64 sums wrapped here: an IndexError traceback, exit 1
            (["g2", "--param", "mc=1", "--param", "mu=1e-16", "--param", "eta_herald=1",
              "--param", "eta_signal=1", "--param", "bins=100000000000000000000"],
             "bins must be an integer from 1 to 2**44"),
            (["g2", "--param", "mc=1", "--param", f"bins={2**44 + 1}"],
             "bins must be an integer from 1 to 2**44"),
            # a negative span gave a header-only dataset; 2e9 steps would not fit in memory
            (["generate", "--param", "model=comb", "--param", "span_nm=-1"],
             "span_nm must lie in [0, 1000000 * step_nm]"),
            (["generate", "--param", "model=comb", "--param", "step_nm=1e-9"],
             "span_nm must lie in [0, 1000000 * step_nm]"),
            (["generate", "--param", "model=comb", "--param", "noise=poisson",
              "--param", "power_mW=0"], "poisson noise needs a comb with counts in band"),
            # both passed every check and then ran for hours or asked for about 1.8 GB
            (["g2", "--param", "mc=1", "--param", f"bins={HUGE}"],
             "the run expects 9.46e+10 clicks and 2.69e+11 pairs within the span, "
             "over the budget of 4294967296 operations"),
            (["generate", "--param", "model=coincidence", "--param", "span_bins=10000000"],
             "the run expects 9.46e+05 clicks and 4.48e+11 pairs within the span, "
             "over the budget of 4294967296 operations"),
            (["g2", "--param", "mc=1", "--param", "mu=0.01", "--param", "eta_herald=0.5",
              "--param", "eta_signal=0.002", "--param", "nu=0.001",
              "--param", "span_bins=10000000"],
             "a span of 10000000 bins needs 1760524440 bytes, over the budget of "
             "268435456 bytes"),
        ],
        ids=["samples", "grid", "points", "generate_span_bins", "g2_span_bins", "g2_bins_1e20",
             "g2_bins_past_2_44", "comb_negative_span", "comb_steps", "comb_poisson_no_counts",
             "g2_operations_budget", "generate_operations_budget", "g2_span_bytes_budget"],
    )
    def test_limit_is_domain_error(self, args, message, fmt):
        start = time.perf_counter()
        result = run_cli(*args, "--format", fmt, expect=4)
        assert time.perf_counter() - start < 0.5  # rejected before anything is sampled
        assert message in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "args, message",
        [
            # round(inf) raised OverflowError: exit 1 with a traceback
            (["g2", "--param", "mc=1", "--param", "bins=20000", "--param", "window_ns=1.7e308"],
             "window_ns must be a positive integer multiple of the resolution"),
            (["g2", "--param", "mc=1", "--param", "bins=20000", "--param", "window_ns=-1.7e308"],
             "window_ns must be a positive integer multiple of the resolution"),
            # the comb's mass in the window underflowed to 0: ZeroDivisionError
            (["design", "--param", "finesse=1.7e308"], "spdc_antiresonant_suppression(F=1.7e+308"),
            (["design", "--param", "fsr_GHz=1.7e308"], "fsr_GHz=1.7e+308"),
            # alpha_tilde overflowed to inf (a NaN, exit 5) or left the normal range
            (["snr", "--param", "mode=curves", "--param", "finesse=1.7e308"], "F_cold=1.7e+308"),
            (["snr", "--param", "mode=curves", "--param", "finesse=1e-308"], "F_cold=1e-308"),
            (["snr", "--param", "mode=curves", "--param", "finesse=5e-324"], "F_cold=5e-324"),
            # the default span overflowed to inf, with numpy warnings from linspace
            (["model", "--param", "powers=1.7e308"], "span_MHz must be finite"),
            # the bandwidth underflowed to 0.0 and a later law named bpf_GHz
            (["design", "--param", "bpf_nm=5e-324"],
             "bandwidth_nm_to_GHz(delta_nm=5e-324, center_nm=1587.0) leaves the float range"),
            # the law named none of its inputs: they are a dataclass and an array
            (["generate", "--param", "model=noise", "--param", "alpha_tilde_per_mW=1.7e308"],
             "noise_cavity_per_fsr(noise.alpha_noise_cps_per_mW=230.0, noise.gamma_r_ratio=0.7, "
             "noise.alpha_tilde_per_mW=1.7e+308, power_mW=<12 values>) leaves the float range"),
        ],
        ids=["g2_window_huge", "g2_window_huge_negative", "design_finesse_huge",
             "design_fsr_huge", "snr_finesse_huge", "snr_finesse_subnormal", "snr_finesse_tiny",
             "model_power_huge", "design_bpf_subnormal", "generate_noise_alpha_tilde_huge"],
    )
    def test_float_extreme_is_domain_error_in_a_fresh_process(self, args, message, fmt):
        result = run_module(*args, "--format", fmt, expect=4)
        assert message in result.stderr
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert result.stdout == ""

    def test_blind_signal_arm_is_domain_error(self, monkeypatch):
        # no noise rate gives a blind signal arm any zeta, so the run must
        # fail before its 10^7 bins are sampled, not on zero accidental counts
        def no_sampling(model):
            raise AssertionError("sampled before zeta was checked")

        monkeypatch.setattr(cli.photon_stats, "_click_chunks", no_sampling)
        result = run_cli("g2", "--param", "mc=1", "--param", "eta_signal=0",
                         "--param", "zeta=2.1", expect=4)
        assert "no noise rate gives zeta=2.1" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "pair, message",
        [("mu=-1", "mu must be positive and finite, got -1.0"),
         ("eta_herald=1.5", "eta_herald must lie in [0, 1], got 1.5"),
         ("eta_signal=2", "eta_signal must lie in [0, 1], got 2.0"),
         ("nu=-1", "nu must be non-negative and finite, got -1.0")],
    )
    @pytest.mark.parametrize("mode", [["g2", "--param", "mc=1"],
                                      ["generate", "--param", "model=coincidence"]],
                             ids=["g2", "generate"])
    def test_monte_carlo_domain_error_names_the_key_given(self, mode, pair, message):
        # the source model's checks name its fields, not the --param keys
        result = run_cli(*mode, "--param", "bins=20000", "--param", pair, expect=4)
        assert result.stderr == f"domain error: {message}\n"
        assert result.stdout == ""

    def test_limits_are_inclusive(self):
        assert cli._count({"samples": cli.MAX_POINTS}, "samples", 16) == cli.MAX_POINTS
        run_cli("generate", "--param", "model=coincidence", "--param", "bins=50",
                "--param", "span_bins=50")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _check_csv(text):
    """Every row has the header's width and every value cell is a finite number or boolean."""
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    header, body = rows[0], rows[1:]
    assert body, "no data rows"
    first = 1 if header == ["key", "value"] else 0
    for row in body:
        assert len(row) == len(header), row
        for cell in row[first:]:
            assert cell in ("true", "false") or math.isfinite(float(cell)), row


# what a mode needs besides its picking key to run; the swept --param comes
# last, so it overrides
_SWEEP_EXTRA = {
    ("fit", "fwhm"): ["--input", "{fwhm}"],
    ("fit", "noise"): ["--input", "{noise}"],
    ("generate", "fwhm"): ["--param", "noise=gauss"],
    ("generate", "noise"): ["--param", "noise=gauss"],
    ("generate", "comb"): ["--param", "noise=poisson"],
    ("generate", "coincidence"): ["--param", "bins=20000"],
    ("g2", "0"): ["--param", "zeta=2"],
    ("g2", "1"): ["--param", "bins=20000"],
}
_SWEEP_VALUES = {float: ["0", "-1", "1e-300", "1e300"],
                 cli._floats: ["0", "-1", "1e-300", "1e300", ""], int: ["0", "-1"]}
# keys whose limits stop a huge value before it is allocated or sampled
_SWEEP_HUGE = {"samples", "grid", "points", "span_bins", "bins"}


def _sweep_pairs(command):
    """(mode, key, value) of every ``--param`` value the edge sweep gives ``command``."""
    for mode, (_, schema) in cli._MODES[command].items():
        for key, (parser, _) in schema.items():
            for value in _SWEEP_VALUES.get(parser, ["bogus"]) + [HUGE] * (key in _SWEEP_HUGE):
                yield mode, key, value


def _mode_args(command, mode):
    """The arguments that pick ``mode`` of ``command``."""
    pick = cli._SUBCOMMANDS[command][1]
    return [] if pick is None else ["--param", f"{pick}={mode}"]


class TestInputContract:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("sweep")
        for model in ("fwhm", "noise"):
            run_cli("generate", "--param", f"model={model}", "--output", str(folder / model))
        return {model: str(folder / model) for model in ("fwhm", "noise")}

    @pytest.mark.parametrize(
        "command", sorted(c for c, modes in cli._MODES.items()
                          if any(schema for _, schema in modes.values()))
    )
    def test_every_param_edge_value(self, command, inputs):
        faults = []
        for mode, key, value in _sweep_pairs(command):
            extra = [arg.format(**inputs) for arg in _SWEEP_EXTRA.get((command, mode), [])]
            for fmt in ("json", "csv"):
                args = [command, *_mode_args(command, mode), *extra,
                        "--param", f"{key}={value}", "--format", fmt]
                try:
                    result = run_cli(*args, expect=None)
                    assert result.returncode in (0, 2, 3, 4, 5, 6), result.stderr
                    if result.returncode == 0 and fmt == "json":
                        json.loads(result.stdout, parse_constant=_reject_constant)
                    elif result.returncode == 0:
                        _check_csv(result.stdout)
                except Exception as exc:  # collect every fault, not only the first
                    faults.append(f"{' '.join(args)}: {type(exc).__name__}: {exc}")
        assert faults == []

    def test_sweep_gives_each_kind_of_key_its_edge_values(self):
        # 197 (key, value) pairs, each run in both formats; a change to the shape of
        # the mode table that leaves only "bogus" for every key fails here
        pairs = [pair for command in cli._MODES for pair in _sweep_pairs(command)]
        assert len(pairs) == 197
        assert sum(value == "bogus" for _, _, value in pairs) == 3  # the three noise keys


class TestModeTable:
    def test_accepted_keys(self):
        # (subcommand, mode, key) triples, the picking key counted in each mode
        triples = [(command, mode, key) for command, modes in cli._MODES.items()
                   for mode, (_, schema) in modes.items()
                   for key in [*schema, cli._SUBCOMMANDS[command][1]] if key is not None]
        assert len(triples) == 64

    @pytest.mark.parametrize(
        "args, message",
        [
            (["generate", "--param", "model=comb", "--param", "bins=-5",
              "--param", "points=50"], "unknown parameter 'bins' for 'generate model=comb'"),
            (["snr", "--param", "mode=table", "--param", "grid=1"],
             "unknown parameter 'grid' for 'snr mode=table'"),
            (["fit", "--input", "x.csv", "--param", "model=fwhm", "--param",
              "gamma_r_ratio=0.7"], "unknown parameter 'gamma_r_ratio' for 'fit model=fwhm'"),
            (["g2", "--param", "bins=1000"], "unknown parameter 'bins' for 'g2 mc=0'"),
            (["g2", "--param", "mc=1", "--param", "zeta=2", "--param", "g2_in=3"],
             "unknown parameter 'g2_in' for 'g2 mc=1'"),
            (["generate", "--param", "model=fwhm", "--param", "noise=poisson"],
             "noise must be gauss for this model, got 'poisson'"),
            (["g2", "--param", "mc=-1"], "g2 takes --param mc=0|1, got mc=-1"),
        ],
        ids=["comb_bins", "snr_table_grid", "fit_fwhm_gamma_r", "g2_analytic_bins",
             "g2_mc_g2_in", "fwhm_poisson", "mc_negative"],
    )
    def test_key_the_mode_does_not_read_is_usage_error(self, args, message):
        result = run_cli(*args, expect=2)
        assert message in result.stderr
        assert result.stdout == ""
        if "unknown parameter" in message:
            command, picked = message.split("'")[3].split()
            _, schema = cli._MODES[command][picked.partition("=")[2]]
            assert result.stderr.endswith(f"valid: {', '.join(sorted(schema)) or 'none'}\n")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["generate", "--param", "model=fwhm", "--param", "noise_frac=-1"],
             "--param noise_frac is read only with --param noise for 'generate model=fwhm'"),
            (["generate", "--param", "model=noise", "--param", "noise_frac=0.1"],
             "--param noise_frac is read only with --param noise for 'generate model=noise'"),
            (["generate", "--param", "model=comb", "--param", "target_mean=-5"],
             "--param target_mean is read only with --param noise for 'generate model=comb'"),
            (["g2", "--param", "enhancement=-18"],
             "--param enhancement is read only with --param zeta for 'g2 mc=0'"),
            (["generate", "--param", "model=coincidence", "--param", "bins=20000",
              "--param", "nu=0.01", "--param", "zeta=-3"],
             "--param nu and --param zeta both set the noise rate for 'generate model=coincidence'"),
            (["g2", "--param", "mc=1", "--param", "bins=20000", "--param", "zeta=2",
              "--param", "nu=0.01"],
             "--param nu and --param zeta both set the noise rate for 'g2 mc=1'"),
        ],
        ids=["fwhm_noise_frac", "noise_noise_frac", "comb_target_mean", "g2_enhancement",
             "coincidence_nu_zeta", "g2_mc_nu_zeta"],
    )
    def test_key_the_other_keys_leave_unread_is_usage_error(self, args, message):
        result = run_cli(*args, expect=2)
        assert message in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [["generate", "--param", "model=fwhm", "--param", "noise=gauss", "--param", "noise_frac=0.1"],
         ["generate", "--param", "model=comb", "--param", "noise=poisson",
          "--param", "target_mean=5"],
         ["g2", "--param", "zeta=2", "--param", "enhancement=18"],
         ["generate", "--param", "model=coincidence", "--param", "bins=20000", "--param", "nu=0.01"]],
        ids=["fwhm_noise_frac", "comb_target_mean", "g2_enhancement", "coincidence_nu"],
    )
    def test_key_with_the_key_it_needs_runs(self, args):
        run_cli(*args)

    @pytest.mark.parametrize(
        "command, pairs, expect, message",
        [
            # unknown key, then finite: the unknown key wins in every order
            ("generate", ["model=fwhm", "noise_frac=nan", "bogus=1"], 2,
             "unknown parameter 'bogus'"),
            # a key read only with another key, before finiteness
            ("generate", ["model=fwhm", "noise_frac=nan"], 2,
             "--param noise_frac is read only with --param noise"),
            # parsing before finiteness
            ("snr", ["finesse=nan", "grid=abc"], 2, "cannot parse --param 'grid=abc'"),
        ],
        ids=["unknown_before_finite", "needs_before_finite", "parse_before_finite"],
    )
    def test_exit_code_does_not_depend_on_the_order_of_the_pairs(
        self, command, pairs, expect, message
    ):
        for order in itertools.permutations(pairs):
            args = [arg for pair in order for arg in ("--param", pair)]
            result = run_cli(command, *args, expect=expect)
            assert message in result.stderr

    def test_duplicate_key_last_wins_and_every_value_is_checked(self):
        result = run_cli("design", "--param", "finesse=1", "--param", "finesse=45")
        assert json.loads(result.stdout)["finesse"] == 45.0
        run_cli("design", "--param", "finesse=nan", "--param", "finesse=45", expect=4)
        run_cli("design", "--param", "finesse=abc", "--param", "finesse=nan", expect=2)

    @pytest.mark.parametrize("mc", ["0", "1", "2", "-1", "01", "true", ""])
    def test_mc_is_zero_or_one(self, mc):
        # zeta is a key of both modes; mc=1 runs the Monte Carlo, mc=0 the closed forms
        result = run_cli("g2", "--param", f"mc={mc}", "--param", "zeta=2",
                         expect=0 if mc in ("0", "1") else 2)
        if mc in ("0", "1"):
            assert ("g2" in json.loads(result.stdout)) == (mc == "1")
        else:
            assert f"g2 takes --param mc=0|1, got mc={mc}" in result.stderr

    @pytest.mark.parametrize(
        "model, noise, expect",
        [("fwhm", "gauss", 0), ("noise", "gauss", 0), ("comb", "poisson", 0),
         ("fwhm", "poisson", 2), ("noise", "poisson", 2), ("comb", "gauss", 2),
         ("fwhm", "none", 2), ("comb", "bogus", 2)],
    )
    def test_noise_kind_per_model(self, model, noise, expect):
        result = run_cli("generate", "--param", f"model={model}", "--param", f"noise={noise}",
                         expect=expect)
        assert (result.stdout.count("# noise = ") == 1) if expect == 0 else (
            "noise must be" in result.stderr)

    @pytest.mark.parametrize(
        "args, message",
        [(["fit", "--input", "x.csv"], "fit takes --param model=fwhm|noise, got none"),
         (["generate"], "generate takes --param model=fwhm|noise|comb|coincidence, got none"),
         (["generate", "--param", "model=warp"], ", got model=warp"),
         (["snr", "--param", "mode=bogus"],
          "snr takes --param mode=curves|table|min-finesse, got mode=bogus")],
    )
    def test_missing_or_unknown_mode_is_usage_error(self, args, message):
        assert message in run_cli(*args, expect=2).stderr

    def test_every_value_of_the_mode_key_is_checked(self):
        # a later valid value does not hide an earlier bad one
        result = run_cli("snr", "--param", "mode=bogus", "--param", "mode=table", expect=2)
        assert "got mode=bogus" in result.stderr
        # of valid values the last still picks the mode
        payload = json.loads(run_cli("snr", "--param", "mode=table", "--param", "mode=curves").stdout)
        assert "curves" in payload and "table" not in payload

    def test_generate_help_names_every_key(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")  # narrower, argparse splits long keys
        text = run_cli("generate", "--help").stdout
        for mode, (_, schema) in cli._MODES["generate"].items():
            assert f"model={mode}" in text
            for key in schema:
                assert key in text, (mode, key)

    def test_every_subcommand_has_a_help_line(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        # argparse wraps the lines at spaces and after hyphens
        text = " ".join(run_cli("--help").stdout.split()).replace("- ", "-")
        for command, (line, _, _) in cli._SUBCOMMANDS.items():
            assert f"{command} {line}" in text


# the keys --help names without a value: a default taken from the preset (each
# preset's own value, as a function of the preset), from another key, or none
_PRESET_DEFAULTS = {
    "gamma_r_ratio": lambda preset: preset.cavity.gamma_r_ratio,
    "alpha_MHz_per_mW": lambda preset: preset.alpha_MHz_per_mW,
    "gamma_all_MHz": lambda preset: preset.cavity.gamma_all_MHz,
    "alpha_noise_cps_per_mW": lambda preset: preset.alpha_noise_cps_per_mW,
    "alpha_tilde_per_mW": lambda preset: preset.alpha_tilde_per_mW,
}
_UNSTATED = {*_PRESET_DEFAULTS, "span_MHz", "window_ns", "noise", "zeta", "g2_out_obs",
             "enhancement"}
# keys given on both sides of the comparison: a short Monte Carlo, and the noise
# that lets noise_frac and target_mean be read
_DEFAULTS_FIXED = {
    ("generate", "fwhm"): ["noise=gauss"],
    ("generate", "noise"): ["noise=gauss"],
    ("generate", "comb"): ["noise=poisson"],
    ("generate", "coincidence"): ["bins=20000"],
    ("g2", "1"): ["bins=20000"],
}


def _help_entries(command, mode, monkeypatch):
    """The ``key`` or ``key=default`` entries that ``--help`` prints for ``mode``."""
    monkeypatch.setenv("COLUMNS", "10000")  # no wrapping
    text = run_cli(command, "--help").stdout
    line = next(line for line in text.splitlines() if "repeatable; " in line)
    segment = line.split("repeatable; ")[1].split("; ")[list(cli._MODES[command]).index(mode)]
    return segment.split(": ")[-1].split(", ")


def _defaults_cases():
    for command, modes in cli._MODES.items():
        presets = sorted(PRESETS) if command in ("model", "fit", "generate") else [None]
        for mode, (_, schema) in modes.items():
            if schema:
                for preset in presets:
                    yield pytest.param(command, mode, preset, id=f"{command}-{mode}-{preset}")


class TestStatedDefaults:
    @pytest.fixture(scope="class")
    def noise_scan(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("defaults") / "noise.csv")
        run_cli("generate", "--param", "model=noise", "--output", path)
        return path

    @pytest.mark.parametrize("command, mode, preset", _defaults_cases())
    def test_help_defaults_are_the_defaults_used(self, command, mode, preset, noise_scan,
                                                 monkeypatch):
        entries = _help_entries(command, mode, monkeypatch)
        _, schema = cli._MODES[command][mode]
        assert [entry.partition("=")[0] for entry in entries] == list(schema)
        assert [entry for entry in entries if "=" not in entry] == [
            key for key in schema if key in _UNSTATED]
        pick = cli._SUBCOMMANDS[command][1]
        fixed = [] if pick is None else [f"{pick}={mode}"]
        fixed += _DEFAULTS_FIXED.get((command, mode), [])
        given = {pair.partition("=")[0] for pair in fixed}
        explicit = []
        for entry in entries:
            key, stated, _ = entry.partition("=")
            needed = cli._NEEDS.get(key)
            if stated and key not in given and (needed is None or needed in given):
                explicit.append(entry)
        if preset is not None:
            explicit += [f"{key}={_PRESET_DEFAULTS[key](PRESETS[preset])!r}"
                         for key in schema if key in _PRESET_DEFAULTS]
        # a mode that does not read the preset refuses --preset
        reads_preset = preset is not None and (command, mode) not in cli._UNREAD["preset"]
        flags = (["--preset", preset] if reads_preset else []) + (
            ["--input", noise_scan] if command == "fit" else [])

        def stdout(pairs):
            params = [arg for pair in pairs for arg in ("--param", pair)]
            return run_cli(command, *flags, *params).stdout

        assert explicit
        assert stdout(fixed) == stdout(fixed + explicit)

    def test_readme_key_table_lists_each_mode_s_keys(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("| subcommand, mode | keys besides the one that picks the mode |")[1]
        rows = {}
        for line in table.split("\n\n")[0].splitlines()[2:]:
            name, keys = [cell.strip() for cell in line.strip("|").split("|")]
            command, _, picked = re.findall(r"`([^`]+)`", name)[0].partition(" ")
            listed = re.findall(r"`([^`]+)`", keys)
            if listed[:1] == ["coincidence"]:  # "the `coincidence` keys and ..."
                listed = [*cli._MODES["generate"]["coincidence"][1], *listed[1:]]
            rows[command, picked.partition("=")[2] or None] = listed
        # fsr takes no --param, so it has no row
        assert rows == {(command, mode): list(schema) for command, modes in cli._MODES.items()
                        for mode, (_, schema) in modes.items() if command != "fsr"}


def _digits(text: str) -> tuple[float, float]:
    """The first number in a README cell, and half a unit of its last stated digit."""
    number = re.search(r"\d+(?:\.(\d+))?", text)
    return float(number[0]), 0.5 * 10.0 ** -len(number[1] or "")


class TestPresets:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_comb_centers_on_the_converted_wavelength(self, preset, tmp_path):
        path = tmp_path / "comb.csv"
        run_cli("generate", "--preset", preset, "--param", "model=comb", "--output", str(path))
        series, provenance = read_scan_csv(str(path))
        center = PRESETS[preset].wavelengths.converted_nm
        assert provenance["center_nm"] == fmt(center)
        assert series.abscissa[len(series.abscissa) // 2] == center

    def test_readme_table_states_the_presets(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("\n## Presets\n")[1].strip().split("\n\n")[0].splitlines()
        assert [cell.strip() for cell in table[0].strip("|").split("|")] == [
            "preset", "signal → converted", "pump", "FSR", "cold FWHM", "extraction",
            "alpha_tilde", "alpha_noise", "filter"]
        rows = {}
        for line in table[2:]:
            name, *cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[re.findall(r"`([^`]+)`", name)[0]] = cells
        assert sorted(rows) == sorted(PRESETS)
        for name, (wavelengths, pump, fsr, fwhm, extraction, _, _, band) in rows.items():
            preset = PRESETS[name]
            signal, converted = wavelengths.split("→")
            filter_nm, filter_GHz = band.split("(")
            stated = [
                (signal, preset.wavelengths.signal_nm),
                (converted, preset.wavelengths.converted_nm),
                (pump, preset.wavelengths.pump_nm),
                (fsr, preset.cavity.fsr_MHz * 1e-3),
                (fwhm, preset.cavity.gamma_all_MHz),
                (extraction, preset.cavity.gamma_r_ratio),
                (filter_nm, BPF_NM),
                (filter_GHz,
                 conversion.bandwidth_nm_to_GHz(BPF_NM, preset.wavelengths.converted_nm)),
            ]
            for text, value in stated:
                number, half_unit = _digits(text)
                assert abs(number - value) <= half_unit, (name, text, value)


class TestGenerateProvenance:
    @pytest.mark.parametrize(
        "args",
        [["--param", "model=fwhm", "--param", "noise=gauss"],
         ["--param", "model=noise"],
         ["--param", "model=comb", "--param", "noise=poisson"],
         ["--param", "model=coincidence", "--param", "bins=20000", "--param", "zeta=2"]],
        ids=["fwhm", "noise", "comb", "coincidence"],
    )
    def test_json_numbers_match_csv_lines(self, args):
        provenance = json.loads(run_cli("generate", *args, "--format", "json").stdout)["provenance"]
        lines = [line[2:].split(" = ", 1)
                 for line in run_cli("generate", *args).stdout.splitlines()
                 if line.startswith("# ")]
        assert sorted(key for key, _ in lines) == sorted(provenance)
        numeric = 0
        for key, text in lines:
            value = provenance[key]
            if key in ("command", "model", "noise"):
                assert value == text
            else:
                assert isinstance(value, (int, float)) and not isinstance(value, bool), key
                assert fmt(value) == text, key
                numeric += 1
        assert numeric >= 3
