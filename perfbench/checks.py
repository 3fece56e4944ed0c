"""Result checks for benchmark ops and the fingerprint they are compared with.

Every op gets the checks that apply to it; a failed check raises a subclass
of CheckFailed, and the run counts failures by exception class.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import vacuumpairs as vp
from workloads import REFERENCE_ROWS, TOTAL_SETTINGS, emission_config, op_key

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

# Deterministic results (maxima, grids, fast-light studies) must repeat to
# this relative tolerance; totals must agree within their quadrature error.
DETERMINISTIC_RTOL = 1e-9

# Acceptance bands of the anchors: the reference maxima (lambda within 10%,
# density within x3) and the beta = 20 totals of fused silica.
LAMBDA_BAND = 0.10
DENSITY_FACTOR = 3.0
TOTAL_BANDS = {"gaussian": 3e-4, "tanh": 1.5e-4}
TOTAL_RATIO = (1.5, 3.0)
FAST_LIGHT_MIN_ENHANCEMENT = 5.0


class CheckFailed(Exception):
    """An op returned a result that fails a benchmark check."""


class NotFinitePositive(CheckFailed):
    """A result value is NaN, infinite, or not positive."""


class OutsideReferenceBand(CheckFailed):
    """An anchor result lies outside its acceptance band."""


class ConstraintResidual(CheckFailed):
    """A maximum does not satisfy the pair constraint."""


class ToleranceMissed(CheckFailed):
    """A total's reported quadrature error exceeds the requested tolerance."""


class FingerprintMismatch(CheckFailed):
    """A result differs from the committed fingerprint of its input."""


def load_fingerprints() -> dict:
    if not FINGERPRINTS.is_file():
        return {}
    return json.loads(FINGERPRINTS.read_text())


def summarize(op: dict, result) -> dict:
    """The numbers of a result that the fingerprint keeps."""
    kind = op["kind"]
    if kind == "maximum":
        return {
            "lambda1_um": result.lambda1_um,
            "lambda2_um": result.lambda2_um,
            "density": result.density,
        }
    if kind == "grid":
        flags = np.bincount(result.flags.ravel(), minlength=3)
        return {
            "max": float(result.values.max()),
            "sum": float(result.values.sum()),
            "argmax": int(np.argmax(result.values)),
            "ok": int(flags[vp.emission.FLAG_OK]),
            "forbidden": int(flags[vp.emission.FLAG_FORBIDDEN]),
            "hole": int(flags[vp.emission.FLAG_HOLE]),
        }
    if kind == "fast_light":
        return {
            "enhancement": result.enhancement,
            "peak_count": result.peak_count,
            "base_max": result.grid_base.max_value(),
            "modified_max": result.grid_modified.max_value(),
        }
    return {"pairs_per_pulse": result.pairs_per_pulse, "rel_error": result.rel_error}


class Checker:
    """Checks op results; remembers the anchor totals to check their ratio."""

    def __init__(self, fingerprints: dict, workload: str):
        self.fingerprints = fingerprints.get(workload, {})
        self.fingerprinted = 0
        self._anchor_totals: dict[str, float] = {}

    def check(self, op: dict, result) -> None:
        summary = summarize(op, result)
        _finite_positive(op, result, summary)
        getattr(self, "_check_" + op["kind"])(op, result, summary)
        expected = self.fingerprints.get(op_key(op))
        if expected is not None:
            self.fingerprinted += 1
            _match_fingerprint(op, summary, expected)

    def _check_maximum(self, op, result, summary) -> None:
        if op["anchor"] == "reference":
            lam1, lam2, density = REFERENCE_ROWS[(op["beta"], op["sigma_um"])]
            for got, ref in ((result.lambda1_um, lam1), (result.lambda2_um, lam2)):
                if abs(got / ref - 1.0) >= LAMBDA_BAND:
                    raise OutsideReferenceBand(f"lambda {got} um vs reference {ref} um")
            _within_factor(result.density, density, DENSITY_FACTOR, "density")
        _check_residual(op, result)

    def _check_grid(self, op, result, summary) -> None:
        values = result.values
        if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
            raise NotFinitePositive("grid holds negative or non-finite densities")
        if summary["ok"] + summary["forbidden"] + summary["hole"] != values.size:
            raise NotFinitePositive("grid flags outside the legend")

    def _check_fast_light(self, op, result, summary) -> None:
        if op["anchor"] == "criterion08" and not (
            result.enhancement >= FAST_LIGHT_MIN_ENHANCEMENT and result.peak_count == 2
        ):
            raise OutsideReferenceBand(
                f"fast-light enhancement {result.enhancement:.3g} with "
                f"{result.peak_count} peaks (want >= {FAST_LIGHT_MIN_ENHANCEMENT}, 2)"
            )

    def _check_total(self, op, result, summary) -> None:
        if result.rel_error > TOTAL_SETTINGS["rel_tol"]:
            raise ToleranceMissed(f"rel_error {result.rel_error:.3g}")
        if op["anchor"] != "criterion07":
            return
        shape = op["shape"]
        _within_factor(result.pairs_per_pulse, TOTAL_BANDS[shape], DENSITY_FACTOR, f"{shape} total")
        self._anchor_totals[shape] = result.pairs_per_pulse
        if len(self._anchor_totals) == 2:
            ratio = self._anchor_totals["gaussian"] / self._anchor_totals["tanh"]
            if not TOTAL_RATIO[0] <= ratio <= TOTAL_RATIO[1]:
                raise OutsideReferenceBand(f"gaussian/tanh total ratio {ratio:.3g}")


def _finite_positive(op, result, summary) -> None:
    keys = {
        "maximum": ("lambda1_um", "lambda2_um", "density"),
        "grid": ("max",),
        "fast_light": ("enhancement", "peak_count"),
        "total": ("pairs_per_pulse",),
    }[op["kind"]]
    for key in keys:
        value = summary[key]
        if not (math.isfinite(value) and value > 0.0):
            raise NotFinitePositive(f"{key} = {value!r}")


def _within_factor(value: float, reference: float, factor: float, what: str) -> None:
    if not 1.0 / factor < value / reference < factor:
        raise OutsideReferenceBand(f"{what} {value:.4g} vs reference {reference:.4g}")


def _check_residual(op: dict, result) -> None:
    """Recompute k1x + k2x - (w1 + w2)/v at theta1 = 0, theta2 = pi from n(lambda)."""
    config = emission_config(op)
    lam1, lam2 = result.lambda1_um, result.lambda2_um
    n1 = vp.dispersion.refractive_index(config.material, lam1)
    n2 = vp.dispersion.refractive_index(config.material, lam2)
    residual = 2.0 * math.pi * (n1 / lam1 - n2 / lam2 - (1.0 / lam1 + 1.0 / lam2) / op["beta"])
    tol = vp.kinematics.constraint_tolerance(lam1, lam2, config.kin)
    if not abs(residual) <= tol:
        raise ConstraintResidual(f"residual {residual:.3e} um^-1 exceeds {tol:.3e}")


def _match_fingerprint(op: dict, summary: dict, expected: dict) -> None:
    if op["kind"] == "total":
        got, want = summary["pairs_per_pulse"], expected["pairs_per_pulse"]
        allowed = (summary["rel_error"] + expected["rel_error"]) * abs(want)
        if not abs(got - want) <= allowed:
            raise FingerprintMismatch(f"total {got!r} vs {want!r} (allowed {allowed:.3g})")
        return
    for key, want in expected.items():
        got = summary[key]
        if isinstance(want, int):
            ok = got == want
        else:
            ok = abs(got - want) <= DETERMINISTIC_RTOL * abs(want)
        if not ok:
            raise FingerprintMismatch(f"{key} {got!r} vs fingerprint {want!r}")
