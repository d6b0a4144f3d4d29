"""Command-line workbench.

Each subcommand runs in one mode, picked by the ``--param`` key that
``_SUBCOMMANDS`` names.  ``_MODES`` gives each mode its handler and the
``--param`` keys that handler reads; any other key is a usage error.

Every subcommand takes ``--output`` (default stdout) and ``--format
{csv,json}``.  Each handler computes one result and returns it as
``(payload, csv, provenance)``; ``--format`` only chooses how ``main``
writes it.  ``fit`` and ``fsr`` require ``--input``; ``generate`` and ``g2``
take ``--seed`` (default 1234); ``model``, ``fit`` and ``generate`` take
``--preset {1540,1522,nv}``.  Any other flag is a usage error.

Limits, checked before anything is allocated (exit 4): ``model samples``,
``snr grid`` and ``generate points`` at most 10^6, a comb scan at most
10^6 steps long (``span_nm <= 10^6 * step_nm``), ``span_bins`` at most
``bins``.

Exit codes: 0 success, 2 usage error, 3 parse error, 4 domain error,
5 numeric failure, 6 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial

import numpy as np

from . import conversion, fitting, noise, photon_stats, snr
from .dataio import fmt, read_scan_csv, render_csv, render_json, write_text
from .errors import NumericFailure, ParseError, WorkbenchError
from .presets import DEFAULT_PRESET, PRESETS

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_NUMERIC = 5
EXIT_IO = 6

DEFAULT_SEED = 1234
MAX_POINTS = 1_000_000  # most model samples, generate points and comb steps


class UsageError(Exception):
    pass


def _floats(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("no values")
    return values


def _noise(kind: str):
    """Parser of the ``noise`` key of a mode that draws only ``kind`` noise."""
    def parse(text: str) -> str:
        if text != kind:
            raise UsageError(f"noise must be {kind} for this model, got {text!r}")
        return text
    return parse


def _parse_params(command: str, pairs: list[str]):
    """Pick the mode of ``command`` from its ``--param`` pairs and parse the keys
    that mode reads; return its handler and the values, the picking key's too."""
    _, pick, mode = _SUBCOMMANDS[command]
    items = []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise UsageError(f"--param expects key=value, got {pair!r}")
        items.append((key.strip(), value.strip(), pair))
    modes = _MODES[command]
    # every value of the picking key is checked; the last one picks the mode
    for mode in [value for key, value, _ in items if key == pick] or [mode]:
        if mode not in modes:
            got = "none" if mode is None else f"{pick}={mode}"
            raise UsageError(f"{command} takes --param {pick}={'|'.join(modes)}, got {got}")
    handler, schema = modes[mode]
    where = command if pick is None else f"{command} {pick}={mode}"
    items = [item for item in items if item[0] != pick]
    # checked in phases, so the exit code does not depend on the pairs' order
    for key, _, _ in items:
        if key not in schema:
            raise UsageError(f"unknown parameter {key!r} for {where!r}; "
                             f"valid: {', '.join(sorted(schema)) or 'none'}")
    given = {key for key, _, _ in items}
    for key, needed in _NEEDS.items():
        if key in given and needed not in given:
            raise UsageError(f"--param {key} is read only with --param {needed} "
                             f"for {where!r}")
    if {"nu", "zeta"} <= given:
        raise UsageError(f"--param nu and --param zeta both set the noise rate for {where!r}; "
                         "give one")
    parsed = []
    for key, value, pair in items:
        try:
            parsed.append((key, value, schema[key](value)))
        except ValueError:
            raise UsageError(f"cannot parse --param {pair!r}") from None
    for key, value, number in parsed:
        if schema[key] in (float, _floats) and not np.all(np.isfinite(number)):
            raise ValueError(f"--param {key} must be finite, got {value!r}")
    params: dict = {} if pick is None else {pick: mode}
    params.update((key, number) for key, _, number in parsed)  # the last of a key wins
    return handler, params


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif np.isscalar(value) or isinstance(value, bool):
            flat[name] = value
    return flat


def _render(form: str, payload: dict, csv, provenance: dict | None) -> str:
    """Render one handler result: the payload as JSON, or CSV of the columns
    when ``csv`` is a list, else key/value rows of ``csv`` or of the
    flattened payload.  CSV provenance values go through ``fmt``."""
    if form == "json":
        return render_json(payload)
    provenance = {k: v if isinstance(v, str) else fmt(v) for k, v in (provenance or {}).items()}
    if isinstance(csv, list):
        return render_csv(csv, provenance)
    pairs = _flatten(payload) if csv is None else csv
    return render_csv([("key", list(pairs)), ("value", list(map(fmt, pairs.values())))],
                      provenance)


def _count(params, key: str, default: int, least: int) -> int:
    value = params.get(key, default)
    if value < least:
        raise ValueError(f"{key} must be at least {least}")
    if value > MAX_POINTS:
        raise ValueError(f"{key} must be at most {MAX_POINTS}")
    return value


def cmd_model(args, params):
    preset = PRESETS[args.preset]
    cav = preset.cavity
    powers = params.get("powers", [33.3, 94.0, 148.0])
    samples = _count(params, "samples", 1201, 16)
    widest = cav.gamma_all_MHz * (1.0 + preset.alpha_tilde_per_mW * max(max(powers), 0.0))
    span = params.get("span_MHz", 8.0 * widest)
    grid = np.linspace(-span / 2.0, span / 2.0, samples)
    blocks = []
    for power in powers:
        drive = conversion.PumpDrive(power, preset.alpha_tilde_per_mW)
        response = conversion.sample_response(cav, drive, grid)
        blocks.append((power, np.abs(response.t_ss) ** 2, np.abs(response.r_rs) ** 2))
    payload = {
        "preset": preset.name,
        "detunings_MHz": grid,
        "spectra": [
            {"power_mW": p, "transmission": t, "conversion": r} for p, t, r in blocks
        ],
    }
    power_col = np.concatenate([np.full(samples, p) for p, _, _ in blocks])
    columns = [
        ("power_mW", power_col),
        ("detuning_MHz", np.tile(grid, len(blocks))),
        ("transmission", np.concatenate([t for _, t, _ in blocks])),
        ("conversion", np.concatenate([r for _, _, r in blocks])),
    ]
    return payload, columns, {"command": "model", "preset": preset.name}


def cmd_fit_fwhm(args, params):
    result = fitting.fit_linear(read_scan_csv(args.input)[0])
    return _fit_result(args, params, result, ["alpha_MHz_per_mW", "gamma_all_MHz"])


def cmd_fit_noise(args, params):
    gamma_r = params.get("gamma_r_ratio", PRESETS[args.preset].cavity.gamma_r_ratio)
    result = fitting.fit_saturating_noise(read_scan_csv(args.input)[0], gamma_r)
    return _fit_result(args, params, result, list(result.parameters))


def _fit_result(args, params, result, names: list):
    """A fit's result, its coefficients reported under ``names`` in their order."""
    parameters = dict(zip(names, result.parameters.values()))
    errors = dict(zip(names, result.std_errors.values()))
    payload = {
        "model": params["model"],
        "input": args.input,
        "parameters": parameters,
        "std_errors": errors,
        "residual_norm": result.residual_norm,
        "converged": result.converged,
        "iterations": result.iterations,
    }
    flat = dict(parameters)
    flat.update({f"stderr_{k}": v for k, v in errors.items()})
    flat["residual_norm"] = result.residual_norm
    return payload, flat, {"command": "fit", "model": params["model"]}


def cmd_snr_curves(args, params):
    finesses = params.get("finesse", [8.0 / np.pi, 25.0])
    grid = params.get("grid", 256)
    pairs = [snr.normalized_snr_curves(F, grid) for F in finesses]
    # the no-cavity curve does not depend on the finesse
    curves = [cavity for cavity, _ in pairs] + [pairs[0][1]]
    payload = {"curves": [
        {"label": c.label, "efficiencies": c.efficiencies, "snr": c.snr_values}
        for c in curves
    ]}
    label_col = np.concatenate(
        [np.full(len(c.efficiencies), i) for i, c in enumerate(curves)]
    )
    provenance = {"command": "snr", "mode": "curves"}
    for i, c in enumerate(curves):
        provenance[f"curve_{i}"] = c.label
    return payload, [
        ("curve", label_col),
        ("efficiency", np.concatenate([c.efficiencies for c in curves])),
        ("snr", np.concatenate([c.snr_values for c in curves])),
    ], provenance


def cmd_snr_table(args, params):
    fc = params.get("fc", 74.0)
    fs = params.get("fs", 1.0)
    return {"F_c": fc, "F_s": fs, "table": snr.snr_config_table(fc, fs)}, None, None


def cmd_snr_min_finesse(args, params):
    tolerance = params.get("tolerance", 1e-3)
    value = snr.min_finesse_for_dominance(tolerance)
    return {"min_finesse": value, "tolerance": tolerance}, None, None


def cmd_fsr(args, params):
    series, provenance = read_scan_csv(args.input)
    value, err = fitting.extract_fsr(series)
    freqs, power = fitting.periodogram(series)
    half = len(freqs) // 2
    return (
        {"fsr_GHz": value, "uncertainty_GHz": err, "input": args.input},
        [("frequency_per_unit", freqs[1 : half + 1]), ("power", power[1 : half + 1])],
        {"command": "fsr", "fsr_GHz": value, "uncertainty_GHz": err},
    )


def _power_scan(params, seed, power, values, unit: str, name: str, provenance):
    """Columns of a power scan, with seeded Gaussian noise and its sigma on request."""
    if "noise" not in params:
        return [("power_mW", power), (f"{name}_{unit}", values)], provenance
    frac = params.get("noise_frac", 0.05)
    sigma = frac * values
    provenance["noise"] = f"gauss {fmt(frac)}"
    return [
        ("power_mW", power),
        (f"{name}_{unit}", values + np.random.default_rng(seed).normal(0.0, sigma)),
        (f"sigma_{unit}", sigma),
    ], provenance


def _generate_fwhm(params, preset, seed):
    points = _count(params, "points", 26, 1)
    pmax = params.get("pmax_mW", 250.0)
    alpha = params.get("alpha_MHz_per_mW", preset.alpha_MHz_per_mW)
    gamma_all = params.get("gamma_all_MHz", preset.cavity.gamma_all_MHz)
    power = np.linspace(0.0, pmax, points)
    provenance = {"alpha_MHz_per_mW": alpha, "gamma_all_MHz": gamma_all}
    return _power_scan(params, seed, power, gamma_all + alpha * power, "MHz", "fwhm", provenance)


def _generate_noise(params, preset, seed):
    points = _count(params, "points", 12, 1)
    pmax = params.get("pmax_mW", 250.0)
    alpha_noise = params.get("alpha_noise_cps_per_mW", preset.alpha_noise_cps_per_mW)
    alpha_tilde = params.get("alpha_tilde_per_mW", preset.alpha_tilde_per_mW)
    gamma_r = params.get("gamma_r_ratio", preset.cavity.gamma_r_ratio)
    power = np.linspace(pmax / points, pmax, points)
    law = noise.NoiseParams(alpha_noise, gamma_r, alpha_tilde)
    values = noise.noise_cavity_per_fsr(law, power)
    provenance = {
        "alpha_noise_cps_per_mW": alpha_noise,
        "alpha_tilde_per_mW": alpha_tilde, "gamma_r_ratio": gamma_r,
    }
    return _power_scan(params, seed, power, values, "cps", "counts", provenance)


def _generate_comb(params, preset, seed):
    span_nm = params.get("span_nm", 2.0)
    step_nm = params.get("step_nm", 0.01)
    if not step_nm > 0:
        raise ValueError("step_nm must be positive")
    if not 0 <= span_nm <= MAX_POINTS * step_nm:
        raise ValueError(f"span_nm must lie in [0, {MAX_POINTS} * step_nm]")
    bpf_nm = params.get("bpf_nm", 0.03)
    power = params.get("power_mW", 100.0)
    center_nm = preset.wavelengths.converted_nm if preset.wavelengths else 1540.0
    ghz_per_nm = conversion.bandwidth_nm_to_GHz(1.0, center_nm)
    wavelengths = center_nm + np.arange(
        -span_nm / 2.0, span_nm / 2.0 + step_nm / 2.0, step_nm
    )
    offsets = (wavelengths - center_nm) * ghz_per_nm
    half_window = bpf_nm * ghz_per_nm / 2.0
    values = noise.comb_rate_in_band(
        preset.cavity, preset.noise(), power, offsets - half_window, offsets + half_window
    )
    provenance = {
        "power_mW": power, "bpf_nm": bpf_nm,
        "center_nm": center_nm, "fsr_GHz": preset.cavity.fsr_MHz * 1e-3,
    }
    if "noise" in params:
        target = params.get("target_mean", 25.0)
        mean = values.mean()
        if not mean > 0:
            raise ValueError("poisson noise needs a comb with counts in band")
        scale = target / mean
        values = np.random.default_rng(seed).poisson(values * scale).astype(float)
        provenance["noise"] = f"poisson target_mean={fmt(target)}"
    return [("wavelength_nm", wavelengths), ("counts_cps", values)], provenance


def _simulate_from(params, seed):
    """Source model and its coincidence histogram from the Monte Carlo parameters."""
    mu = params.get("mu", 0.55)
    eta_h = params.get("eta_herald", 0.1)
    eta_s = params.get("eta_signal", 0.1)
    if "nu" in params:
        nu = params["nu"]
    elif "zeta" in params:
        nu = photon_stats.noise_rate_for_intensity_ratio(mu, eta_s, params["zeta"])
    else:
        nu = 0.0
    model = photon_stats.SourceModel(
        mean_pairs_per_bin=mu,
        herald_efficiency=eta_h,
        signal_efficiency=eta_s,
        noise_rate_per_bin=nu,
        bins=params.get("bins", 10_000_000),
        seed=seed,
    )
    histogram = photon_stats.simulate_coincidences(
        model,
        delay_span_bins=params.get("span_bins", 30),
        resolution_ns=params.get("resolution_ns", 0.8),
    )
    return model, histogram


def _generate_coincidence(params, preset, seed):
    model, histogram = _simulate_from(params, seed)
    provenance = {
        "mu": model.mean_pairs_per_bin,
        "eta_herald": model.herald_efficiency,
        "eta_signal": model.signal_efficiency,
        "nu": model.noise_rate_per_bin, "bins": model.bins,
        "resolution_ns": histogram.resolution_ns,
    }
    return [("delay_ns", histogram.delay_bins_ns), ("counts", histogram.counts)], provenance


def cmd_generate(generator, args, params):
    columns, own = generator(params, PRESETS[args.preset], args.seed)
    provenance = {"command": "generate", "model": params["model"], "seed": args.seed, **own}
    payload = {"provenance": provenance, **{name: np.asarray(col) for name, col in columns}}
    return payload, columns, provenance


def cmd_g2_mc(args, params):
    _, histogram = _simulate_from(params, args.seed)
    window = params.get("window_ns", histogram.resolution_ns)
    record = photon_stats.g2_from_histogram(histogram, window)
    payload = {
        "g2": record.g2, "stderr": record.stderr,
        "window_ns": record.window_ns, "resolution_ns": record.resolution_ns,
        "accidental_level": histogram.accidental_level,
        "nonclassical": record.nonclassical,
        "low_statistics": histogram.low_statistics,
        "seed": args.seed,
    }
    columns = [("delay_ns", histogram.delay_bins_ns), ("counts", histogram.counts)]
    return payload, columns, payload


def cmd_g2(args, params):
    g2_in = params.get("g2_in", 3.819)
    payload: dict = {"g2_in": g2_in}
    if "g2_out_obs" in params:
        payload["zeta_from_g2"] = photon_stats.zeta_from_g2(g2_in, params["g2_out_obs"])
    zeta = params.get("zeta")
    if zeta is not None:
        payload["zeta"] = zeta
        payload["g2_out"] = photon_stats.g2_out(g2_in, zeta)
        enhancement = params.get("enhancement")
        if enhancement is not None:
            payload["enhancement"] = enhancement
            payload["g2_nocav"] = photon_stats.predict_nocavity_g2(g2_in, zeta, enhancement)
    if g2_in > 2.0:
        payload["zeta_classical"] = 1.0 / (g2_in - 2.0)
    return payload, None, None


def cmd_design(args, params):
    report = snr.nv_design_report(
        params.get("finesse", 45.0),
        params.get("fsr_GHz", 5.0),
        params.get("bpf_nm", 0.03),
        params.get("center_nm", 1587.0),
    )
    return {
        "finesse": report.finesse,
        "fsr_GHz": report.fsr_GHz,
        "bpf_GHz": report.bpf_GHz,
        "suppression_factor": report.suppression_factor,
        "over_tenfold": report.over_tenfold,
        "threshold": report.threshold,
    }, None, None


# subcommand: its --help line, the --param key that picks its mode (None: it
# has one mode), and the mode taken without that key (None: the key is required)
_SUBCOMMANDS = {
    "model": ("sampled transmission and conversion spectra for pump powers", None, None),
    "fit": ("fit a scan file: resonance width vs power, or saturating noise", "model", None),
    "snr": ("normalized SNR curves, the configuration table, or the minimum finesse "
            "for cavity dominance", "mode", "curves"),
    "fsr": ("free-spectral-range extraction from a periodic scan file", None, None),
    "generate": ("deterministic synthetic datasets", "model", None),
    "g2": ("analytic correlation chain, or the Monte Carlo estimate", "mc", "0"),
    "design": ("anti-resonant SPDC-noise suppression report", None, None),
}

_SCAN = {"points": int, "pmax_mW": float, "noise": _noise("gauss"), "noise_frac": float}
_MONTE_CARLO = {"mu": float, "eta_herald": float, "eta_signal": float, "nu": float,
                "zeta": float, "bins": int, "span_bins": int, "resolution_ns": float}

# a key that its handler reads only when another key is given
_NEEDS = {"noise_frac": "noise", "target_mean": "noise", "enhancement": "zeta"}

# subcommand: {mode: (handler, {each --param key the handler reads: its parser})}
_MODES: dict[str, dict] = {
    "model": {None: (cmd_model, {"powers": _floats, "span_MHz": float, "samples": int})},
    "fit": {"fwhm": (cmd_fit_fwhm, {}), "noise": (cmd_fit_noise, {"gamma_r_ratio": float})},
    "snr": {
        "curves": (cmd_snr_curves, {"finesse": _floats, "grid": int}),
        "table": (cmd_snr_table, {"fc": float, "fs": float}),
        "min-finesse": (cmd_snr_min_finesse, {"tolerance": float}),
    },
    "fsr": {None: (cmd_fsr, {})},
    "generate": {
        "fwhm": (partial(cmd_generate, _generate_fwhm),
                 {**_SCAN, "alpha_MHz_per_mW": float, "gamma_all_MHz": float}),
        "noise": (partial(cmd_generate, _generate_noise),
                  {**_SCAN, "alpha_noise_cps_per_mW": float, "alpha_tilde_per_mW": float,
                   "gamma_r_ratio": float}),
        "comb": (partial(cmd_generate, _generate_comb),
                 {"span_nm": float, "step_nm": float, "bpf_nm": float, "power_mW": float,
                  "noise": _noise("poisson"), "target_mean": float}),
        "coincidence": (partial(cmd_generate, _generate_coincidence), _MONTE_CARLO),
    },
    "g2": {
        "0": (cmd_g2, {"g2_in": float, "g2_out_obs": float, "zeta": float, "enhancement": float}),
        "1": (cmd_g2_mc, {**_MONTE_CARLO, "window_ns": float}),
    },
    "design": {None: (cmd_design, {"finesse": float, "fsr_GHz": float, "bpf_nm": float,
                                   "center_nm": float})},
}


# first match wins, so subclasses come before their WorkbenchError base
_ERRORS = {
    UsageError: ("usage error", EXIT_USAGE),
    ParseError: ("parse error", EXIT_PARSE),
    NumericFailure: ("numeric failure", EXIT_NUMERIC),
    WorkbenchError: ("domain error", EXIT_DOMAIN),
    ValueError: ("domain error", EXIT_DOMAIN),
    OSError: ("io error", EXIT_IO),
}


def _param_help(pick, default, modes: dict) -> str:
    """The ``--param`` help of a subcommand: the keys of each of its modes."""
    return "repeatable; " + "; ".join(
        ("" if pick is None else f"{pick}={mode}{' (default)' * (mode == default)}: ")
        + (", ".join(schema) or "no other key") for mode, (_, schema) in modes.items())


@cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityqfc",
        description="Cavity-enhanced frequency-conversion workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (line, pick, default) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=line, description=line)
        p.add_argument("--output", default=None)
        # dataset-producing commands write CSV by default, results JSON
        default_format = "csv" if name in ("generate", "model") else "json"
        p.add_argument("--format", choices=["csv", "json"], default=default_format)
        # the other flags only where the handler reads them
        if name in ("fit", "fsr"):
            p.add_argument("--input", required=True)
        if name in ("generate", "g2"):
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if name in ("model", "fit", "generate"):
            p.add_argument("--preset", choices=sorted(PRESETS), default=DEFAULT_PRESET)
        if pick is not None or _MODES[name][None][1]:
            p.add_argument("--param", action="append", metavar="KEY=VALUE",
                           help=_param_help(pick, default, _MODES[name]))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        handler, params = _parse_params(args.command, vars(args).get("param") or [])
        payload, csv, provenance = handler(args, params)
        write_text(args.output, _render(args.format, payload, csv, provenance))
        return EXIT_OK
    except tuple(_ERRORS) as exc:
        label, code = next(entry for kind, entry in _ERRORS.items() if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
