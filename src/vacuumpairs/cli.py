"""Command-line front end.

Subcommands: ``material`` (dispersion table), ``spectrum`` (pair-density
grid), ``maxima`` (beta sweep of collinear maxima), ``total`` (pairs per
pulse in a collection cone), ``fastlight`` (Lorentzian-modified comparison).

All computations are configured through a JSON document passed with
``--config``; every artifact embeds that configuration so a run can be
reproduced from its artifact alone.  This module alone reads and writes the
run-file format (``_emission_config`` and ``_write``).  Exit codes: 0
success, 1 bad configuration, 2 unknown material, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import analysis, dispersion, emission, kinematics, materials
from .dispersion import DispersionError, LorentzianResonance
from .emission import EmissionConfig, config_to_dict, profile_from_dict
from .kinematics import KinematicsError, PerturbationKinematics
from .materials import UnknownMaterialError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNKNOWN_MATERIAL = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """The run configuration is malformed or incomplete."""


class NonFiniteResultError(ValueError):
    """A computation gave an inf or nan, for instance from sizes that overflow."""


def _load_config(path) -> dict:
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def _parse(from_dict, what: str, doc):
    """from_dict(doc), with a malformed document raised as a ConfigError."""
    try:
        return from_dict(doc)
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"bad {what}: {detail}") from exc


def _resolve_material(spec):
    if isinstance(spec, str):
        return materials.get_material(spec)
    if isinstance(spec, dict):
        return _parse(materials.model_from_dict, "material model", spec)
    raise ConfigError("'material' must be a library name or an inline model")


def _require(doc: dict, key: str):
    try:
        return doc[key]
    except KeyError:
        raise ConfigError(f"config is missing required key {key!r}") from None


def _number(doc: dict, key: str, default=None, integer: bool = False):
    """doc[key] as a float, or an int if integer; required when default is None.

    Raises ConfigError for a value that is not a number, or not integral.
    """
    raw = _require(doc, key) if default is None else doc.get(key, default)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = None
    if value is None or (integer and not value.is_integer()):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{key!r} must be {kind}, got {raw!r}")
    return int(value) if integer else value


def _emission_config(doc: dict) -> EmissionConfig:
    """The emission part of a run configuration, or of an artifact's "config".

    A snapshot of another normalization convention is a ConfigError; a
    document without "convention" is read in this one.
    """
    convention = doc.get("convention", emission.CONVENTION)
    if convention != emission.CONVENTION:
        raise ConfigError(f"unsupported normalization convention: {convention!r}")
    material = _resolve_material(_require(doc, "material"))
    profile = _parse(profile_from_dict, "profile", _require(doc, "profile"))
    beta = _number(doc, "beta")
    length_m = _number(doc, "L_m")
    calibration = _number(doc, "calibration", emission.DEFAULT_CALIBRATION)
    try:
        return EmissionConfig(
            material=material,
            profile=profile,
            kin=PerturbationKinematics(beta=beta),
            length_m=length_m,
            calibration=calibration,
        )
    except ValueError as exc:
        raise ConfigError(f"bad emission configuration: {exc}") from exc


def _bounds(raw, what: str) -> tuple[float, float]:
    """(min, max) of a two-item window, finite with 0 < min < max."""
    try:
        lo, hi = (float(x) for x in raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a [min, max] pair") from exc
    if not (0.0 < lo < hi and math.isfinite(hi)):  # also rejects nan
        raise ConfigError(f"{what} must be finite with 0 < min < max, got [{lo!r}, {hi!r}]")
    return lo, hi


def _window(doc: dict, key: str, default) -> tuple[float, float] | None:
    """doc[key] as a checked window, or default when the key is absent."""
    return _bounds(doc[key], repr(key)) if key in doc else default


def _field(value) -> str:
    """A CSV field: repr of a number, a string as is, None (not estimated) empty."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def _write(path: str, config: EmissionConfig, doc: dict, columns, rows) -> None:
    """Write one run artifact: CSV for a .csv path, JSON otherwise.

    Both embed the configuration snapshot.  CSV is a '# config:' line, the
    header of columns and one line of fields per row; JSON is doc with the
    snapshot under "config".
    """
    snapshot = config_to_dict(config)
    with open(path, "w", newline="") as fh:
        if path.endswith(".csv"):
            fh.write(f"# config: {json.dumps(snapshot, sort_keys=True)}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_field(x) for x in row) + "\n")
        else:
            json.dump({**doc, "config": snapshot}, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _check_finite(what: str, values) -> None:
    """Raise NonFiniteResultError unless every value is finite.

    Called before anything is printed or written, so no run reports inf or
    nan with exit 0.
    """
    for value in values:
        if not math.isfinite(value):
            raise NonFiniteResultError(f"non-finite {what}: {value!r}")


def _emit(args, text: str) -> None:
    if args.verbose:
        print(text, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def cmd_material(args) -> int:
    model = _resolve_material(args.name)
    lo, hi = _bounds(args.window.split(","), "--window")
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    lams = np.geomspace(lo, hi, args.samples)
    print(f"# material: {args.name}")
    print("lambda_um,n,n_g,regime")
    for lam in lams:
        try:
            s = dispersion.sample_group_index(model, float(lam))
        except DispersionError:
            print(f"{float(lam)!r},nan,nan,invalid")
            continue
        print(f"{s.wavelength!r},{s.n!r},{s.n_g!r},{s.regime}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    doc = _load_config(args.config)
    config = _emission_config(doc)
    window1 = _window(doc, "lambda1_window_um", None)
    window2 = _window(doc, "lambda2_window_um", None)
    if window1 is None or window2 is None:
        raise ConfigError("spectrum needs 'lambda1_window_um' and 'lambda2_window_um'")
    resolution = _number(doc, "resolution", 121, integer=True)
    grid = emission.collinear_grid(config, window1, window2, resolution)
    _emit(args, f"grid {resolution}x{resolution}, max density {grid.max_value():.6g}")
    lam1, lam2 = grid.lambda1_um.tolist(), grid.lambda2_um.tolist()
    values, flags = grid.values.tolist(), grid.flags.tolist()
    legend = emission.FLAG_LEGEND
    _write(
        args.out,
        config,
        {
            # the geometry of collinear_grid: photon 1 forward, photon 2 at
            # theta2 = pi on the constraint curve
            "theta1": 0.0,
            "theta2_nominal": math.pi,
            "lambda1_um": lam1,
            "lambda2_um": lam2,
            "values": values,
            "flags": flags,
            "flag_legend": {str(k): v for k, v in legend.items()},
        },
        ("lambda1_um", "lambda2_um", "density", "flag"),
        (
            (l1, l2, v, legend[f])
            for l1, value_row, flag_row in zip(lam1, values, flags)
            for l2, v, f in zip(lam2, value_row, flag_row)
        ),
    )
    print(f"max density {grid.max_value():.6g} -> {args.out}")
    return EXIT_OK


def cmd_maxima(args) -> int:
    doc = _load_config(args.config)
    config = _emission_config(doc)
    betas = doc.get("betas", [config.kin.beta])
    try:
        betas = [float(b) for b in betas] if isinstance(betas, list) else []
    except (TypeError, ValueError):
        betas = []
    if not betas:
        raise ConfigError("'betas' must be a non-empty list of numbers")
    window = _window(doc, "lambda1_window_um", (0.2, 20.0))
    sweep = analysis.beta_sweep(config, betas, window=window)
    if not sweep.rows:
        raise analysis.NoEmissionError("; ".join(msg for _, msg in sweep.failures))
    _check_finite(
        "maximum", (x for r in sweep.rows for x in (r.lambda1_um, r.lambda2_um, r.density))
    )
    for row in sweep.rows:
        print(
            f"beta={row.beta:g} lambda1max={row.lambda1_um:.6g} um "
            f"lambda2max={row.lambda2_um:.6g} um N={row.density:.6g}"
        )
    for beta, msg in sweep.failures:
        print(f"beta={beta:g} no emission ({msg})", file=sys.stderr)
    if args.out:
        _write(
            args.out,
            config,
            {
                "rows": [dataclasses.asdict(r) for r in sweep.rows],
                "failures": [[b, msg] for b, msg in sweep.failures],
                "audits": {
                    "wavelengths_decreasing": sweep.wavelengths_decreasing,
                    "density_increasing": sweep.density_increasing,
                    "ratio_decreasing": sweep.ratio_decreasing,
                },
            },
            ("beta", "lambda1max_um", "lambda2max_um", "n_max"),
            [(r.beta, r.lambda1_um, r.lambda2_um, r.density) for r in sweep.rows],
        )
        _emit(args, f"sweep written to {args.out}")
    return EXIT_OK


def cmd_total(args) -> int:
    doc = _load_config(args.config)
    config = _emission_config(doc)
    cone_deg = _number(doc, "cone_half_angle_deg", 30.0)
    if not 0.0 < cone_deg <= 180.0:  # also rejects nan
        raise ConfigError(f"'cone_half_angle_deg' must lie in (0, 180], got {cone_deg!r}")
    window = _window(doc, "total_lambda_window_um", (0.1, 5.0))
    rel_tol = _number(doc, "rel_tol", 1e-3)
    kwargs = {}
    if "base_resolution" in doc:
        kwargs["base_resolution"] = doc["base_resolution"]
    if "max_refinements" in doc:
        kwargs["max_refinements"] = _number(doc, "max_refinements", integer=True)
    result = analysis.total_count(
        config, math.radians(cone_deg), window, rel_tol=rel_tol, **kwargs
    )
    _check_finite(
        "total", [x for x in (result.pairs_per_pulse, result.rel_error) if x is not None]
    )
    if result.rel_error is None:
        error = "quadrature error not estimated"
    else:
        error = f"relative quadrature error {result.rel_error:.2g}"
    print(f"pairs per pulse: {result.pairs_per_pulse:.6g} ({error})")
    if args.out:
        fields = dataclasses.asdict(result)
        _write(args.out, config, {"result": fields}, list(fields), [fields.values()])
        _emit(args, f"total written to {args.out}")
    return EXIT_OK


def cmd_fastlight(args) -> int:
    doc = _load_config(args.config)
    config = _emission_config(doc)
    raw = doc.get("resonance", {})
    if not isinstance(raw, dict):
        raise ConfigError("'resonance' must be an object")
    amplitude = _number(raw, "amplitude", analysis.FAST_LIGHT_AMPLITUDE)
    width = _number(raw, "width_um", analysis.FAST_LIGHT_WIDTH_UM)
    if "center_um" in raw:
        resonance = LorentzianResonance(
            center=_number(raw, "center_um"), amplitude=amplitude, width=width
        )
    else:
        if "max_slope_at_um" in raw:
            at = _number(raw, "max_slope_at_um")
        else:
            at = analysis.find_maximum(config).lambda1_um
        resonance = dispersion.fast_light_resonance(
            amplitude=amplitude, width=width, max_slope_at=at
        )
    study = analysis.fast_light_study(
        config,
        resonance,
        window=_window(doc, "fastlight_window_um", None),
        resolution=_number(doc, "resolution", 161, integer=True),
    )
    _check_finite("enhancement", [study.enhancement])
    print(
        f"enhancement: {study.enhancement:.6g}, "
        f"peaks above half maximum: {study.peak_count}"
    )
    if args.out:
        fields = dataclasses.asdict(resonance)
        _write(
            args.out,
            config,
            {
                "enhancement": study.enhancement,
                "peak_count": study.peak_count,
                "resonance": fields,
            },
            ("enhancement", "peak_count", *(f"resonance_{k}" for k in fields)),
            [(study.enhancement, study.peak_count, *fields.values())],
        )
        _emit(args, f"fast-light study written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors end in one 'error:' line and EXIT_CONFIG, like a bad config."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vacuumpairs",
        description="Photon-pair emission from a superluminal index perturbation.",
    )
    parser.add_argument("--verbose", action="store_true", help="progress on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("material", help="print a dispersion table")
    p.add_argument("name", help="library material name")
    p.add_argument("--window", default="0.2,8.0", metavar="MIN,MAX",
                   help="wavelength window in um")
    p.add_argument("--samples", type=int, default=25)
    p.set_defaults(func=cmd_material)

    for name, func, needs_out in (
        ("spectrum", cmd_spectrum, True),
        ("maxima", cmd_maxima, False),
        ("total", cmd_total, False),
        ("fastlight", cmd_fastlight, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=needs_out, default=None,
                       help="output path (.csv or .json)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownMaterialError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_UNKNOWN_MATERIAL
    except (ConfigError, ValueError) as exc:
        if isinstance(
            exc,
            (
                DispersionError,
                KinematicsError,
                NonFiniteResultError,
                emission.EmissionError,
                analysis.AnalysisError,
            ),
        ):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
