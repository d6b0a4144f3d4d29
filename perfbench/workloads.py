"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup()`` and
then runs numbered operations: ``op(i)`` returns the seconds the program
took and the work done (simulated bins, or 1), and raises ``CheckFailed``
when the program's output is wrong.  Output checks run after the timer
stops.  Operations use only the package's public API.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

from cavityqfc import cli, conversion, dataio, fitting, noise, photon_stats
from cavityqfc.presets import PRESETS

import checks
from checks import near, require, within_sigma

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120.0
# A statistical estimate may sit this many stderr from the truth.  The
# saturating-noise fit's stderr comes from a linearised covariance and its
# tail is heavier than Gaussian (2 in 10^4 fits land beyond 4 stderr), so
# 6 keeps a spurious failure below one in 10^5 tasks.
SIGMA_K = 6.0


def _rss_mb(kilobytes: int) -> float:
    return kilobytes / 1024.0


class Workload:
    """Shared defaults: in-process operations, one operation per unit."""

    unit_ops = 1  # operations that run as an indivisible unit
    in_process = True  # operations run in this process, so spans wrap them here

    def __init__(self, seed: int, short: bool, tmpdir: Path, env: dict):
        self.seed = seed
        self.short = short
        self.tmpdir = tmpdir
        self.env = env
        self.tracer = None

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def trace_extras(self, summary: dict) -> dict:
        return {}


class MonteCarlo(Workload):
    """``simulate_coincidences`` + ``g2_from_histogram`` on fresh seeds."""

    span_bins = 30
    resolution_ns = 0.8

    def __init__(self, *args, mu, eta_herald, eta_signal, nu, bins, short_bins):
        super().__init__(*args)
        self.params = (mu, eta_herald, eta_signal, nu)
        self.bins = short_bins if self.short else bins

    def setup(self) -> None:
        self.expected_g2 = photon_stats.thermal_source_g2(*self.params)
        accepted = inspect.signature(photon_stats.simulate_coincidences).parameters
        # one process, one thread, whatever the defaults become
        self.single = {k: 1 for k in ("n_shards", "workers") if k in accepted}
        self.simulate(self.model(-1, bins=100_000), self.span_bins)

    def model(self, i: int, bins: int | None = None):
        seed = int(np.random.SeedSequence([self.seed, i + 1]).generate_state(1)[0])
        return photon_stats.SourceModel(*self.params, bins=bins or self.bins, seed=seed)

    def simulate(self, model, span_bins):
        return photon_stats.simulate_coincidences(
            model, delay_span_bins=span_bins, resolution_ns=self.resolution_ns, **self.single
        )

    def op(self, i: int):
        model = self.model(i)
        start = time.perf_counter()
        histogram = self.simulate(model, self.span_bins)
        record = photon_stats.g2_from_histogram(histogram, self.resolution_ns)
        elapsed = time.perf_counter() - start
        counts = np.asarray(histogram.counts)
        require(counts.shape == (2 * self.span_bins + 1,), f"histogram shape {counts.shape}")
        require(np.all(counts >= 0), "negative coincidence counts")
        within_sigma(record.g2, self.expected_g2, record.stderr, SIGMA_K, f"g2 of call {i}")
        return elapsed, self.bins

    def trace_extras(self, summary: dict) -> dict:
        model = self.model(0)
        start = time.perf_counter()
        self.simulate(model, 1)
        span1 = time.perf_counter() - start
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            self.simulate(model, self.span_bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {
            "photon_stats.simulate_span1_s": span1,
            "photon_stats.simulate_peak_alloc_mb": peak / 2**20,
        }


class AnalysisBatch(Workload):
    """Warm, in-process estimation tasks on seeded synthetic scans."""

    preset = "1540"
    table_samples = 1201

    def setup(self) -> None:
        p = PRESETS[self.preset]
        self.cavity = p.cavity
        self.noise_params = p.noise()
        self.alpha_tilde = p.alpha_tilde_per_mW
        self.fsr_GHz = p.cavity.fsr_MHz * 1e-3
        self.comb_path = str(self.tmpdir / "comb.csv")
        # a model-sized table: three pump powers x 1201 detunings, four columns
        rng = np.random.default_rng([self.seed, 0])
        powers = np.sort(rng.uniform(20.0, 200.0, 3))
        grid = np.linspace(-600.0, 600.0, self.table_samples)
        blocks = []
        for power in powers:
            drive = conversion.PumpDrive(float(power), self.alpha_tilde)
            response = conversion.sample_response(self.cavity, drive, grid)
            blocks.append((np.full(grid.size, power), grid,
                           np.abs(response.t_ss) ** 2, np.abs(response.r_rs) ** 2))
        names = ("power_mW", "detuning_MHz", "transmission", "conversion")
        self.table = [(n, np.concatenate([b[k] for b in blocks])) for k, n in enumerate(names)]
        self.table_provenance = {"command": "benchmark", "seed": self.seed}
        self.rendered = None
        self.op(-1)

    def inputs(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, 1, i + 1])
        power = np.linspace(0.0, 250.0, 26)
        alpha, gamma = rng.uniform(0.3, 0.7), rng.uniform(30.0, 110.0)
        fwhm = gamma + alpha * power
        fwhm_sigma = 0.05 * fwhm
        noise_power = np.linspace(250.0 / 12, 250.0, 12)
        alpha_noise, alpha_tilde = rng.uniform(100.0, 300.0), 1.0 / rng.uniform(60.0, 200.0)
        counts = checks.saturating_noise(noise_power, alpha_noise, alpha_tilde,
                                         self.cavity.gamma_r_ratio)
        counts_sigma = 0.05 * counts
        pump = rng.uniform(30.0, 150.0)
        return {
            "comb_seed": int(rng.integers(2**31)),
            "fwhm": fitting.ScanSeries(power, fwhm + rng.normal(0.0, fwhm_sigma),
                                       fwhm_sigma, "mW"),
            "line": (alpha, gamma),
            "counts": fitting.ScanSeries(noise_power, counts + rng.normal(0.0, counts_sigma),
                                         counts_sigma, "mW"),
            "law": (alpha_noise, alpha_tilde),
            "pump_mW": pump,
            "grid": np.linspace(-600.0, 600.0, 801),
            "jitter": rng.normal(0.0, 1.0, 801),
        }

    def op(self, i: int):
        x = self.inputs(i)
        drive = conversion.PumpDrive(x["pump_mW"], self.alpha_tilde)
        argv = ["generate", "--param", "model=comb", "--param", "step_nm=0.0005",
                "--param", "noise=poisson", "--seed", str(x["comb_seed"]),
                "--output", self.comb_path]
        start = time.perf_counter()
        code = cli.main(argv)
        scan, _ = dataio.read_scan_csv(self.comb_path)
        fsr = fitting.extract_fsr(scan)
        line = fitting.fit_linear(x["fwhm"])
        law = fitting.fit_saturating_noise(x["counts"], self.cavity.gamma_r_ratio)
        response = conversion.sample_response(self.cavity, drive, x["grid"])
        efficiency = np.abs(response.r_rs) ** 2
        # 0.5 % of the peak: at 1 % extract_fwhm calls about one scan in 10^3
        # two-peaked and raises ShapeError (a known defect, see README.md)
        sigma = np.full(efficiency.size, 0.005 * efficiency.max())
        spectrum = fitting.ScanSeries(x["grid"], efficiency + sigma * x["jitter"], sigma)
        width = fitting.extract_fwhm(spectrum)
        comb = noise.comb_spectrum(self.cavity, self.noise_params, x["pump_mW"],
                                   4.0 * self.fsr_GHz, 4001)
        csv_text = dataio.render_csv(self.table, self.table_provenance)
        json_text = dataio.render_json({"table": dict(self.table)})
        elapsed = time.perf_counter() - start

        require(code == 0, f"generate comb exited {code}")
        within_sigma(fsr[0], self.fsr_GHz, fsr[1], 1.0, "extracted FSR (GHz)")
        alpha, gamma = x["line"]
        within_sigma(line.parameters["slope"], alpha, line.std_errors["slope"],
                     SIGMA_K, "fit_linear slope")
        within_sigma(line.parameters["intercept"], gamma, line.std_errors["intercept"],
                     SIGMA_K, "fit_linear intercept")
        require(law.converged, "saturating-noise fit did not converge")
        for name, truth in zip(("alpha_noise", "alpha_tilde"), x["law"]):
            within_sigma(law.parameters[name], truth, law.std_errors[name],
                         SIGMA_K, f"fit_saturating_noise {name}")
        true_width = self.cavity.gamma_all_MHz * (1.0 + self.alpha_tilde * x["pump_mW"])
        within_sigma(width[0], true_width, width[1], SIGMA_K, "extract_fwhm width")
        per_fsr = checks.saturating_noise(x["pump_mW"], self.noise_params.alpha_noise_cps_per_mW,
                                          self.alpha_tilde, self.cavity.gamma_r_ratio)
        near(float(np.trapezoid(comb.density, comb.frequencies_GHz)), 4.0 * per_fsr, 1e-3,
             "comb spectrum integral over four FSRs")
        self._check_rendered(csv_text, json_text)
        return elapsed, 1

    def _check_rendered(self, csv_text: str, json_text: str) -> None:
        """Parse the first rendering in full; later ones must be byte-identical."""
        if self.rendered is None:
            _, header, data = checks.csv_table(csv_text)
            require(header == [n for n, _ in self.table], f"CSV header {header}")
            for k, (name, column) in enumerate(self.table):
                require(np.allclose(data[:, k], column, rtol=1e-11, atol=0.0),
                        f"CSV column {name} does not round-trip")
            table = checks.strict_json(json_text)["table"]
            for name, column in self.table:
                require(np.array_equal(np.asarray(table[name]), column),
                        f"JSON column {name} does not round-trip")
            self.rendered = (csv_text, json_text)
        require((csv_text, json_text) == self.rendered, "table rendering is not deterministic")

    def trace_extras(self, summary: dict) -> dict:
        main = summary["median_s"].get("cli.main", 0.0)
        return {"cli.inproc_s_p50": main, "cli.inproc.generate_comb_s": main}


class CliSession(Workload):
    """One client running fresh ``python -m cavityqfc`` processes in turn."""

    in_process = False

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        seeds = [str(s) for s in rng.integers(1, 2**31, size=6)]
        p = PRESETS["1540"]
        self.preset = p
        files = {}
        for model, seed, extra in (("fwhm", seeds[0], ["--param", "noise=gauss"]),
                                   ("noise", seeds[1], ["--param", "noise=gauss"]),
                                   ("comb", seeds[2], ["--param", "step_nm=0.002",
                                                       "--param", "noise=poisson"])):
            files[model] = str(self.tmpdir / f"input_{model}.csv")
            code = cli.main(["generate", "--param", f"model={model}", *extra,
                             "--seed", seed, "--output", files[model]])
            require(code == 0, f"generating the {model} input exited {code}")
        zeta, enhancement = float(rng.uniform(0.5, 20.0)), float(rng.uniform(2.0, 20.0))
        self.zeta, self.enhancement = zeta, enhancement
        self.commands = [
            ("design", ["design"], self.check_design),
            ("snr_min_finesse", ["snr", "--param", "mode=min-finesse"], self.check_min_finesse),
            ("snr_table", ["snr", "--param", "mode=table"], self.check_table),
            ("snr_curves", ["snr", "--param", "mode=curves"], self.check_curves),
            ("g2", ["g2", "--param", f"zeta={zeta!r}", "--param", f"enhancement={enhancement!r}"],
             self.check_g2),
            ("model", ["model"], self.check_model),
            ("generate_fwhm", ["generate", "--param", "model=fwhm", "--param", "noise=gauss",
                               "--seed", seeds[3]], self.check_generate_fwhm),
            ("generate_noise", ["generate", "--param", "model=noise", "--param", "noise=gauss",
                                "--seed", seeds[4]], self.check_generate_noise),
            ("generate_comb", ["generate", "--param", "model=comb", "--seed", seeds[5]],
             self.check_generate_comb),
            ("fit_fwhm", ["fit", "--param", "model=fwhm", "--input", files["fwhm"]],
             self.check_fit_fwhm),
            ("fit_noise", ["fit", "--param", "model=noise", "--input", files["noise"]],
             self.check_fit_noise),
            ("fsr", ["fsr", "--input", files["comb"]], self.check_fsr),
        ]
        self.unit_ops = len(self.commands)
        self.fresh_s: dict[str, list[float]] = {}
        self.child_rss_kb = 0

    # -- checks of each subcommand's stdout --------------------------------

    def check_design(self, out: str) -> None:
        payload = checks.strict_json(out)
        bpf_GHz = 0.03 * checks.ghz_per_nm(1587.0)
        near(payload["bpf_GHz"], bpf_GHz, 1e-12, "design bpf_GHz")
        expected = checks.antiresonant_suppression(45.0, 5.0, bpf_GHz)
        near(payload["suppression_factor"], expected, 1e-9, "design suppression")
        near(payload["suppression_factor"], 15.52, 1e-3, "design suppression anchor")
        require(payload["over_tenfold"] is True, "design is not over tenfold")

    def check_min_finesse(self, out: str) -> None:
        payload = checks.strict_json(out)
        require(abs(payload["min_finesse"] - 8.0 / math.pi) <= payload["tolerance"],
                f"min finesse {payload['min_finesse']} is not 8/pi")

    def check_table(self, out: str) -> None:
        payload = checks.strict_json(out)
        fc, fs, table = payload["F_c"], payload["F_s"], payload["table"]
        expected = {
            "fsr_wide": {"no_cavity": 1.0, "converted_mode": 2 * fc / math.pi,
                         "signal_mode": fs / math.pi},
            "fwhm_wide": {"no_cavity": fc, "converted_mode": 2 * fc / math.pi,
                          "signal_mode": fc * fs / math.pi},
        }
        for row, entries in expected.items():
            for column, value in entries.items():
                near(table[row][column], value, 1e-12, f"snr table {row}/{column}")

    def check_curves(self, out: str) -> None:
        curves = checks.strict_json(out)["curves"]
        require(len(curves) == 3, f"{len(curves)} SNR curves")
        cavity, nocavity = curves[0], curves[-1]
        # the cavity curve starts at F*pi/2 (F = 8/pi), the no-cavity one ends at 1
        near(cavity["snr"][0], 4.0, 1e-12, "cavity SNR at zero efficiency")
        near(nocavity["snr"][-1], 1.0, 1e-9, "no-cavity SNR at full efficiency")

    def check_g2(self, out: str) -> None:
        payload = checks.strict_json(out)
        g2_in = payload["g2_in"]
        near(payload["g2_out"], checks.g2_out(g2_in, self.zeta), 1e-12, "g2_out")
        near(payload["g2_nocav"], checks.g2_out(g2_in, self.zeta / self.enhancement),
             1e-12, "g2 without cavity")

    def check_model(self, out: str) -> None:
        _, header, data = checks.csv_table(out)
        require(header == ["power_mW", "detuning_MHz", "transmission", "conversion"],
                f"model header {header}")
        require(data.shape == (3 * 1201, 4), f"model table shape {data.shape}")
        require(np.all(data[:, 2] + data[:, 3] <= 1.0 + 1e-9), "transmission + conversion > 1")
        g, at = self.preset.cavity.gamma_r_ratio, self.preset.alpha_tilde_per_mW
        for power in np.unique(data[:, 0]):
            c = at * power
            peak = data[data[:, 0] == power, 3].max()
            near(peak, 4 * g * c / (1 + c) ** 2, 1e-9, f"peak conversion at {power} mW")

    def _check_noisy_law(self, out: str, law) -> None:
        _, header, data = checks.csv_table(out)
        require(len(header) == 3, f"noisy dataset header {header}")
        truth = law(data[:, 0])
        require(np.allclose(data[:, 2], 0.05 * truth, rtol=1e-9, atol=0.0),
                "dataset sigma column is not 5 % of the noiseless law")
        require(np.all(np.abs(data[:, 1] - truth) <= 6.0 * data[:, 2]),
                "a noisy dataset point lies beyond 6 sigma")

    def check_generate_fwhm(self, out: str) -> None:
        p = self.preset
        self._check_noisy_law(out, lambda x: p.cavity.gamma_all_MHz + p.alpha_MHz_per_mW * x)

    def check_generate_noise(self, out: str) -> None:
        p = self.preset
        self._check_noisy_law(out, lambda x: checks.saturating_noise(
            x, p.alpha_noise_cps_per_mW, p.alpha_tilde_per_mW, p.cavity.gamma_r_ratio))

    def check_generate_comb(self, out: str) -> None:
        _, header, data = checks.csv_table(out)
        require(header == ["wavelength_nm", "counts_cps"], f"comb header {header}")
        require(data.shape[0] == 201, f"comb has {data.shape[0]} rows")
        p = self.preset
        center, scale = 1540.0, checks.ghz_per_nm(1540.0)
        half_window = 0.03 * scale / 2.0
        power = 100.0
        fsr = p.cavity.fsr_MHz * 1e-3
        hwhm = p.cavity.gamma_all_MHz * (1 + p.alpha_tilde_per_mW * power) / (2 * p.cavity.fsr_MHz)
        total = checks.saturating_noise(power, p.alpha_noise_cps_per_mW, p.alpha_tilde_per_mW,
                                        p.cavity.gamma_r_ratio)
        offsets = (data[:, 0] - center) * scale
        expected = total * (checks.wrapped_lorentzian_cdf((offsets + half_window) / fsr, hwhm)
                            - checks.wrapped_lorentzian_cdf((offsets - half_window) / fsr, hwhm))
        require(np.allclose(data[:, 1], expected, rtol=1e-8, atol=0.0),
                "comb counts differ from the wrapped-Lorentzian closed form")

    def check_fit_fwhm(self, out: str) -> None:
        payload = checks.strict_json(out)
        p = self.preset
        for name, truth in (("alpha_MHz_per_mW", p.alpha_MHz_per_mW),
                            ("gamma_all_MHz", p.cavity.gamma_all_MHz)):
            within_sigma(payload["parameters"][name], truth, payload["std_errors"][name],
                         SIGMA_K, f"fit fwhm {name}")

    def check_fit_noise(self, out: str) -> None:
        payload = checks.strict_json(out)
        require(payload["converged"] is True, "noise fit did not converge")
        p = self.preset
        for name, truth in (("alpha_noise", p.alpha_noise_cps_per_mW),
                            ("alpha_tilde", p.alpha_tilde_per_mW)):
            within_sigma(payload["parameters"][name], truth, payload["std_errors"][name],
                         SIGMA_K, f"fit noise {name}")

    def check_fsr(self, out: str) -> None:
        payload = checks.strict_json(out)
        within_sigma(payload["fsr_GHz"], self.preset.cavity.fsr_MHz * 1e-3,
                     payload["uncertainty_GHz"], 1.0, "fsr")

    # -- operations ---------------------------------------------------------

    def op(self, i: int):
        name, argv, check = self.commands[i % len(self.commands)]
        spans_path = self.tmpdir / "child_spans.json"
        if self.tracer is None:
            command = [sys.executable, "-m", "cavityqfc", *argv]
        else:
            spans_path.unlink(missing_ok=True)
            command = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]
        out_path, err_path = self.tmpdir / "child.out", self.tmpdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(command, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        require(child.returncode == 0, f"{name} exited {child.returncode}: "
                f"{err_path.read_text(errors='replace')[-500:]}")
        if self.tracer is None:
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            self.fresh_s.setdefault(name, []).append(elapsed)
        else:
            self.tracer.extend(json.loads(spans_path.read_text()), i // self.unit_ops)
        check(out_path.read_text())
        return elapsed, 1

    def peak_rss_mb(self) -> float:
        return _rss_mb(self.child_rss_kb)

    def in_process_pass(self) -> dict[str, float]:
        """Seconds of ``cli.main`` per subcommand, in this warm process."""
        seconds = {}
        for name, argv, check in self.commands:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                start = time.perf_counter()
                code = cli.main(argv)
                seconds[name] = time.perf_counter() - start
            require(code == 0, f"in-process {name} exited {code}")
            check(buffer.getvalue())
        return seconds

    def trace_extras(self, summary: dict) -> dict:
        self.in_process_pass()  # warm-up: first calls pay lazy set-up
        inproc = self.in_process_pass()
        startup = [statistics.median(self.fresh_s[n]) - inproc[n] for n in inproc
                   if n in self.fresh_s]
        return {
            "cli.startup_s": statistics.median(startup),
            "cli.inproc_s_p50": statistics.median(inproc.values()),
            "cli.inproc.model_s": inproc["model"],
            "cli.inproc.generate_comb_s": inproc["generate_comb"],
        }


def make(name: str, seed: int, short: bool, tmpdir: Path, env: dict) -> Workload:
    args = (seed, short, tmpdir, env)
    if name == "mc_dense":
        return MonteCarlo(*args, mu=0.55, eta_herald=0.1, eta_signal=0.1, nu=0.01,
                          bins=20_000_000, short_bins=200_000)
    if name == "mc_sparse":
        return MonteCarlo(*args, mu=0.01, eta_herald=0.5, eta_signal=0.002, nu=0.001,
                          bins=50_000_000, short_bins=1_000_000)
    if name == "cli_session":
        return CliSession(*args)
    if name == "analysis_batch":
        return AnalysisBatch(*args)
    raise ValueError(f"unknown workload {name!r}")
