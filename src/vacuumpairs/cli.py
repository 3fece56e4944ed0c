"""Command-line front end.

Subcommands: ``material`` (dispersion table), ``spectrum`` (pair-density
grid), ``maxima`` (beta sweep of collinear maxima), ``total`` (pairs per
pulse in a collection cone), ``fastlight`` (Lorentzian-modified comparison).

All computations are configured through a JSON document passed with
``--config``; every artifact embeds that configuration so a run can be
reproduced from its artifact alone.  This module alone reads and writes run
files and artifacts (``_emission_config``, ``config_to_dict`` and
``_write``); ``materials`` reads and writes the material documents of its
library.  Exit codes: 0 success, 1 bad configuration, 2 unknown material,
3 numerical failure (a NumericalError) or an array numpy cannot allocate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import analysis, dispersion, emission, materials
from .dispersion import NumericalError
from .emission import EmissionConfig, GaussianProfile, TanhProfile
from .kinematics import PerturbationKinematics
from .materials import UnknownMaterialError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNKNOWN_MATERIAL = 2
EXIT_NUMERICAL = 3

FLAG_LEGEND = {
    emission.FLAG_OK: "ok", emission.FLAG_FORBIDDEN: "forbidden", emission.FLAG_HOLE: "hole"
}

# each profile shape's keys, in its class's field order: read and written here alone
_PROFILES = {
    "gaussian": (GaussianProfile, ("eta", "sigma_um")),
    "tanh": (TanhProfile, ("eta", "sigma_x_um", "sigma_y_um", "sigma_z_um")),
}


class ConfigError(ValueError):
    """The run configuration is malformed or incomplete."""


class NonFiniteResultError(NumericalError):
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


def _profile_from_dict(doc: dict):
    shape = doc.get("shape")
    if not (isinstance(shape, str) and shape in _PROFILES):
        raise ValueError(f"unknown profile shape: {shape!r}")
    cls, keys = _PROFILES[shape]
    materials._known_keys(doc, ("shape", *keys))
    return cls(*(materials._float(doc[key]) for key in keys))


def _profile_to_dict(profile) -> dict:
    for shape, (cls, keys) in _PROFILES.items():
        if isinstance(profile, cls):
            return {"shape": shape, **dict(zip(keys, dataclasses.astuple(profile)))}


def config_to_dict(config: EmissionConfig) -> dict:
    """The emission keys of a run file, the snapshot that every artifact embeds."""
    return {
        "material": materials.model_to_dict(config.material),
        "profile": _profile_to_dict(config.profile),
        "beta": config.kin.beta,
        "L_m": config.length_m,
        "calibration": config.calibration,
        "convention": emission.CONVENTION,
    }


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


def _value(raw, key: str, integer: bool = False):
    """raw, the value of key, as a float, or an int if integer.

    Raises ConfigError for a value that is not a number (a JSON boolean
    included), or not integral.
    """
    try:
        value = materials._float(raw)
    except (TypeError, ValueError):
        value = None
    if value is None or (integer and not value.is_integer()):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{key!r} must be {kind}, got {raw!r}")
    return int(value) if integer else value


def _integer(raw, key: str) -> int:
    return _value(raw, key, integer=True)


def _nodes(raw, key: str):
    """A list's items as integers; anything else as is, for the library to reject."""
    return [_integer(n, key) for n in raw] if isinstance(raw, list) else raw


def _number(doc: dict, key: str, default=None) -> float:
    """doc[key] read by _value; required when default is None."""
    return _value(_require(doc, key) if default is None else doc.get(key, default), key)


def _given(doc: dict, **readers) -> dict:
    """{key: read(doc[key], key)} for each key of readers in doc: the library defaults the rest."""
    return {key: read(doc[key], key) for key, read in readers.items() if key in doc}


def _emission_config(doc: dict) -> EmissionConfig:
    """The emission part of a run configuration, or of an artifact's "config".

    A snapshot of another normalization convention is a ConfigError; a
    document without "convention" is read in this one.
    """
    convention = doc.get("convention", emission.CONVENTION)
    if convention != emission.CONVENTION:
        raise ConfigError(f"unsupported normalization convention: {convention!r}")
    material = _resolve_material(_require(doc, "material"))
    profile = _parse(_profile_from_dict, "profile", _require(doc, "profile"))
    beta = _number(doc, "beta")
    length_m = _number(doc, "L_m")
    calibration = _given(doc, calibration=_value)
    try:
        return EmissionConfig(
            material=material,
            profile=profile,
            kin=PerturbationKinematics(beta=beta),
            length_m=length_m,
            **calibration,
        )
    except ValueError as exc:
        raise ConfigError(f"bad emission configuration: {exc}") from exc


def _bounds(raw, what: str, number=materials._float) -> tuple[float, float]:
    """(min, max) of a two-item list read by number, finite with 0 < min < max."""
    try:  # a string or an object would unpack as a pair of its characters or keys
        lo, hi = (number(x) for x in raw) if isinstance(raw, list) else ()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a [min, max] pair") from exc
    emission._check_window(what, (lo, hi))
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


def _extremes(grid) -> list[float]:
    """Minimum and maximum of a grid's densities: both finite iff every cell is."""
    return [float(grid.values.min()), float(grid.values.max())]


# ---------------------------------------------------------------------------
# subcommands

def cmd_material(args) -> int:
    model = _resolve_material(args.name)
    lo, hi = _bounds(args.window.split(","), "--window", float)  # its items are text
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    lams = np.geomspace(lo, hi, args.samples)
    fields = dispersion.index_fields(model, lams)
    print(f"# material: {args.name}")
    print("lambda_um,n,n_g,regime")
    for lam, n, n_g, bad in zip(lams.tolist(), *(a.tolist() for a in fields)):
        if bad:
            print(f"{lam!r},nan,nan,invalid")
        else:
            print(f"{lam!r},{n!r},{n_g!r},{dispersion.group_regime(n_g)}")
    return EXIT_OK


def cmd_spectrum(doc: dict, config: EmissionConfig):
    window1, window2 = (_bounds(_require(doc, key), repr(key))
                        for key in ("lambda1_window_um", "lambda2_window_um"))
    grid = emission.collinear_grid(config, window1, window2, **_given(doc, resolution=_integer))
    _check_finite("density", _extremes(grid))
    lam1, lam2 = grid.lambda1_um.tolist(), grid.lambda2_um.tolist()
    values, flags = grid.values.tolist(), grid.flags.tolist()
    body = {
        # the geometry of collinear_grid: photon 1 forward, photon 2 at
        # theta2 = pi on the constraint curve
        "theta1": 0.0,
        "theta2_nominal": math.pi,
        "lambda1_um": lam1,
        "lambda2_um": lam2,
        "values": values,
        "flags": flags,
        "flag_legend": {str(k): v for k, v in FLAG_LEGEND.items()},
    }
    rows = (
        (l1, l2, v, FLAG_LEGEND[f])
        for l1, value_row, flag_row in zip(lam1, values, flags)
        for l2, v, f in zip(lam2, value_row, flag_row)
    )
    columns = ("lambda1_um", "lambda2_um", "density", "flag")
    return [f"max density {grid.max_value():.6g}"], [], (body, columns, rows)


def cmd_maxima(doc: dict, config: EmissionConfig):
    betas = doc.get("betas", [config.kin.beta])
    if not (isinstance(betas, list) and betas):
        raise ConfigError("'betas' must be a non-empty list of numbers")
    betas = [_value(b, "betas") for b in betas]
    window = _window(doc, "lambda1_window_um", None)
    sweep = analysis.beta_sweep(config, betas, **({"window": window} if window else {}))
    _check_finite(
        "maximum", (x for r in sweep.rows for x in (r.lambda1_um, r.lambda2_um, r.density))
    )
    lines = [
        f"beta={r.beta:g} lambda1max={r.lambda1_um:.6g} um "
        f"lambda2max={r.lambda2_um:.6g} um N={r.density:.6g}"
        for r in sweep.rows
    ]
    body = {
        "rows": [dataclasses.asdict(r) for r in sweep.rows],
        "failures": [[b, msg] for b, msg in sweep.failures],
        "audits": {
            "wavelengths_decreasing": sweep.wavelengths_decreasing,
            "density_increasing": sweep.density_increasing,
            "ratio_decreasing": sweep.ratio_decreasing,
        },
    }
    notes = [f"beta={b:g} no emission ({msg})" for b, msg in sweep.failures]
    columns = ("beta", "lambda1max_um", "lambda2max_um", "n_max")
    rows = [(r.beta, r.lambda1_um, r.lambda2_um, r.density) for r in sweep.rows]
    return lines, notes, (body, columns, rows)


def cmd_total(doc: dict, config: EmissionConfig):
    cone_deg = _number(doc, "cone_half_angle_deg", 30.0)
    if not 0.0 < cone_deg <= 180.0:  # also rejects nan
        raise ConfigError(f"'cone_half_angle_deg' must lie in (0, 180], got {cone_deg!r}")
    window = _window(doc, "total_lambda_window_um", (0.1, 5.0))
    kwargs = _given(doc, rel_tol=_value, base_resolution=_nodes, max_refinements=_integer)
    result = analysis.total_count(config, math.radians(cone_deg), window, **kwargs)
    _check_finite("total", [x for x in (result.pairs_per_pulse, result.rel_error) if x is not None])
    error = ("quadrature error not estimated" if result.rel_error is None
             else f"relative quadrature error {result.rel_error:.2g}")
    line = f"pairs per pulse: {result.pairs_per_pulse:.6g} ({error})"
    fields = dataclasses.asdict(result)
    return [line], [], ({"result": fields}, list(fields), [fields.values()])


def cmd_fastlight(doc: dict, config: EmissionConfig):
    raw = doc.get("resonance", {})
    if not isinstance(raw, dict):
        raise ConfigError("'resonance' must be an object")
    keys = ("amplitude", "width_um", "max_slope_at_um")
    _parse(lambda spec: materials._known_keys(spec, keys), "resonance", raw)
    amplitude = _number(raw, "amplitude", analysis.FAST_LIGHT_AMPLITUDE)
    width = _number(raw, "width_um", analysis.FAST_LIGHT_WIDTH_UM)
    window = _window(doc, "fastlight_window_um", None)
    grid_kwargs = _given(doc, resolution=_integer)
    # the base maximum places the line and the window unless both are given
    base_max = None if "max_slope_at_um" in raw and window else analysis.find_maximum(config)
    at = _number(raw, "max_slope_at_um") if "max_slope_at_um" in raw else base_max.lambda1_um
    resonance = dispersion.fast_light_resonance(amplitude, width, at)
    window = window or analysis.fast_light_window(base_max)
    study = analysis.fast_light_study(config, resonance, window=window, **grid_kwargs)
    _check_finite("density", [*_extremes(study.grid_base), *_extremes(study.grid_modified)])
    _check_finite("enhancement", [study.enhancement])
    line = f"enhancement: {study.enhancement:.6g}, peaks above half maximum: {study.peak_count}"
    fields = dataclasses.asdict(resonance)
    body = {"enhancement": study.enhancement, "peak_count": study.peak_count, "resonance": fields}
    columns = ("enhancement", "peak_count", *(f"resonance_{k}" for k in fields))
    rows = [(study.enhancement, study.peak_count, *fields.values())]
    return [line], [], (body, columns, rows)


# name -> (subcommand, whether --out is required: then its path ends the summary)
_RUNS = {
    "spectrum": (cmd_spectrum, True),
    "maxima": (cmd_maxima, False),
    "total": (cmd_total, False),
    "fastlight": (cmd_fastlight, False),
}


def _run(args) -> int:
    """Read the run file, compute, write the artifact, then print the summary.

    A subcommand computes from (doc, config), checks that its result is finite
    and returns its lines for stdout and stderr and its artifact (doc, columns,
    rows).  A run that fails, in its write too, prints only its error line.
    """
    doc = _load_config(args.config)
    config = _emission_config(doc)
    command, out_required = _RUNS[args.command]
    lines, notes, (body, columns, rows) = command(doc, config)
    if args.out:
        try:
            _write(args.out, config, body, columns, rows)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out!r}: {exc.strerror or exc}") from exc
        if out_required:
            lines[0] += f" -> {args.out}"
        if args.verbose:
            print(f"{args.command} artifact written to {args.out}", file=sys.stderr)
    for line in lines:
        print(line)
    for line in notes:
        print(line, file=sys.stderr)
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

    for name, (_, out_required) in _RUNS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=out_required, default=None,
                       help="output path (.csv or .json)")
        p.set_defaults(func=_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownMaterialError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_UNKNOWN_MATERIAL
    except MemoryError as exc:  # numpy refuses an array, e.g. of a huge resolution
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # a ConfigError, or a library's rejection of an input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
