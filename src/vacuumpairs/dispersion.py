"""Material dispersion models.

Refractive index n(lambda) of a Sellmeier medium (or a constant-index
medium), optionally modified by additive Lorentzian resonances that can push
the group index below 1 ("fast light").  All wavelengths are vacuum
wavelengths in micrometres; conversions to SI happen only at the boundaries
of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

C_M_S = 299_792_458.0
C_UM_S = C_M_S * 1e6  # um/s

# Minimum allowed |lambda^2 - l_i| in um^2; closer approaches to a Sellmeier
# pole are rejected instead of silently producing garbage.
POLE_GUARD_UM2 = 1e-6

_SQRT3 = math.sqrt(3.0)

# log-grid scan of transparency_window: bounds (um) and points
_WINDOW_BOUNDS = (0.02, 500.0)
_WINDOW_POINTS = 4096


class NumericalError(ValueError):
    """Base class for every failure of a computation itself: the CLI's exit 3."""


class DispersionError(NumericalError):
    """Base class for dispersion-evaluation failures."""


class PoleProximityError(DispersionError):
    """Wavelength too close to a Sellmeier pole."""


class NegativeRadicandError(DispersionError):
    """The Sellmeier bracket went negative or not finite; the model is not usable there."""


class NonPositiveError(DispersionError):
    """Wavelength or frequency must be strictly positive."""


@dataclass(frozen=True)
class SellmeierModel:
    """n(lam)^2 = 1 + sum_i a_i lam^2 / (lam^2 - l_i).

    ``terms`` is a sequence of (a_i, l_i) pairs: a_i is the dimensionless
    oscillator strength, l_i the squared resonance wavelength in um^2.
    """

    terms: tuple[tuple[float, float], ...]
    name: str = ""

    def __post_init__(self) -> None:
        terms = tuple((float(a), float(l)) for a, l in self.terms)
        object.__setattr__(self, "terms", terms)
        if not all(math.isfinite(a) and math.isfinite(l) for a, l in terms):
            raise ValueError("Sellmeier terms must be finite")
        if any(a < 0.0 for a, _ in terms):
            raise ValueError("Sellmeier oscillator strengths must be >= 0")


@dataclass(frozen=True)
class ConstantIndex:
    """Dispersionless medium with fixed index n0."""

    n0: float

    def __post_init__(self) -> None:
        if not (self.n0 > 0.0 and math.isfinite(self.n0)):
            raise ValueError("constant index must be positive and finite")


@dataclass(frozen=True)
class LorentzianResonance:
    """Additive index peak amplitude*width^2 / ((lam-center)^2 + width^2).

    ``width`` is the half width at half maximum in um, ``center`` the peak
    wavelength in um, ``amplitude`` the peak index contribution.
    """

    center: float
    amplitude: float
    width: float

    def __post_init__(self) -> None:
        if not (self.center > 0.0 and math.isfinite(self.center)):
            raise ValueError("resonance center must be positive and finite")
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValueError("resonance width must be positive and finite")
        if not math.isfinite(self.amplitude):
            raise ValueError("resonance amplitude must be finite")


@dataclass(frozen=True)
class DispersionModel:
    """A base medium plus any number of Lorentzian corrections."""

    base: SellmeierModel | ConstantIndex
    resonances: tuple[LorentzianResonance, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "resonances", tuple(self.resonances))


def group_regime(n_g: float) -> str:
    """Classify a group index: normal (>=1), fast (0<n_g<1), anomalous (<=0)."""
    if n_g <= 0.0:
        return "anomalous"
    if n_g < 1.0:
        return "fast"
    return "normal"


def _sellmeier_term(rad, drad, lam, lam2, denom, a_i, l_i):
    """rad and drad plus one Sellmeier term a_i lam^2/(lam^2 - l_i) and its lam-derivative.

    The per-term arithmetic of both evaluators, arrays updated in place: +, -,
    * and / round correctly in IEEE 754, so a float gets the bits of an array element.
    """
    rad += a_i * lam2 / denom
    # d/dlam [lam^2/(lam^2 - l)] = -2 lam l / (lam^2 - l)^2
    drad -= 2.0 * a_i * lam * l_i / (denom * denom)
    return rad, drad


def _lorentzian_term(n, dn, lam, res: LorentzianResonance):
    """n and dn plus one Lorentzian and its lam-derivative, as in _sellmeier_term."""
    w2 = res.width * res.width
    d = lam - res.center
    q = d * d + w2
    n += res.amplitude * w2 / q
    dn -= 2.0 * res.amplitude * w2 * d / (q * q)
    return n, dn


def _evaluate(model: DispersionModel, lam: np.ndarray):
    """n, dn/dlambda and a bad-sample mask over an array of wavelengths.

    The array Sellmeier/Lorentzian evaluator; never raises.  Samples where
    the model is invalid (non-positive or non-finite wavelength, Sellmeier
    pole within POLE_GUARD_UM2, negative or non-finite radicand) are flagged
    in the mask; their n, dn values are placeholders.  Beyond about 1.3e154
    um lam^2 overflows and the radicand is nan: flagged, without a warning.
    """
    bad = ~np.isfinite(lam) | (lam <= 0.0)
    lam_safe = np.where(bad, 1.0, lam)
    base = model.base
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(base, ConstantIndex):
            n = np.full(lam.shape, float(base.n0))
            dn = np.zeros(lam.shape)
        else:
            lam2 = lam_safe * lam_safe
            rad = np.ones_like(lam_safe)
            drad = np.zeros_like(lam_safe)
            for a_i, l_i in base.terms:
                denom = lam2 - l_i
                pole = np.abs(denom) <= POLE_GUARD_UM2
                bad |= pole
                denom = np.where(pole, 1.0, denom)
                rad, drad = _sellmeier_term(rad, drad, lam_safe, lam2, denom, a_i, l_i)
            invalid = ~(rad >= 0.0)
            bad |= invalid
            rad = np.where(invalid, 1.0, rad)
            n = np.sqrt(rad)
            dn = 0.5 * drad / n
        for res in model.resonances:
            n, dn = _lorentzian_term(n, dn, lam_safe, res)
    return n, dn, bad


def _evaluate_float(model: DispersionModel, lam: float):
    """_evaluate at one float wavelength, with the same masks and per-term arithmetic.

    math.sqrt rounds correctly like np.sqrt, so n and dn, placeholders
    included, have the bits of the array element; bad is a bool.
    """
    bad = not (math.isfinite(lam) and lam > 0.0)
    if bad:
        lam = 1.0
    base = model.base
    if isinstance(base, ConstantIndex):
        n, dn = float(base.n0), 0.0
    else:
        lam2 = lam * lam
        rad, drad = 1.0, 0.0
        for a_i, l_i in base.terms:
            denom = lam2 - l_i
            if abs(denom) <= POLE_GUARD_UM2:
                bad, denom = True, 1.0
            rad, drad = _sellmeier_term(rad, drad, lam, lam2, denom, a_i, l_i)
        if not rad >= 0.0:
            bad, rad = True, 1.0
        n = math.sqrt(rad)
        dn = 0.5 * drad / n
    for res in model.resonances:
        n, dn = _lorentzian_term(n, dn, lam, res)
    return n, dn, bad


def _bad_sample_error(model: DispersionModel, lam) -> DispersionError:
    """The error for wavelengths lam (a float or an array) with a bad sample.

    Checked in order: non-positive or non-finite, then a Sellmeier pole,
    else a negative or non-finite radicand.  A valid sample meets none of
    these, so only the bad samples decide the class.
    """
    lam = np.asarray(lam)
    if not (np.isfinite(lam) & (lam > 0.0)).all():
        return NonPositiveError("wavelength must be positive and finite (um)")
    if isinstance(model.base, SellmeierModel):
        with np.errstate(over="ignore", invalid="ignore"):
            lam2 = lam * lam
        for _, l_i in model.base.terms:
            if (np.abs(lam2 - l_i) <= POLE_GUARD_UM2).any():
                return PoleProximityError(
                    f"wavelength too close to Sellmeier pole at l={l_i} um^2"
                )
    return NegativeRadicandError(
        "Sellmeier bracket is negative or not finite; model invalid at this wavelength"
    )


def _fields(model: DispersionModel, wavelength):
    """n, n_g and the bad-sample mask of _evaluate; the one float/array dispatch.

    A float wavelength, np.float64 included, gives Python (float, float,
    bool) by _evaluate_float, bit for bit the element of an array call;
    anything else, an int or a 0-d array included, gives ndarrays of the
    input's shape by _evaluate (numpy ops on 0-d arrays return scalars).
    """
    if isinstance(wavelength, float):
        lam = float(wavelength)
        n, dn, bad = _evaluate_float(model, lam)
        return n, n - (1.0 if bad else lam) * dn, bad
    lam = np.asarray(wavelength, dtype=float)
    n, dn, bad = _evaluate(model, lam)
    if bad.any():
        lam = np.where(bad, 1.0, lam)
    return np.asarray(n), np.asarray(n - lam * dn), np.asarray(bad)


def refractive_index(model: DispersionModel, wavelength):
    """Refractive index at vacuum wavelength(s) in um; raises on any bad sample.

    A float or 0-d input gives a float, an array of the input's shape otherwise.
    """
    n, _, bad = _fields(model, wavelength)
    if bad is False:  # the float path, kept free of numpy calls
        return n
    if bad is True or bad.any():
        raise _bad_sample_error(model, wavelength)
    return n if n.ndim else float(n)


def index_fields(model: DispersionModel, wavelength):
    """n, n_g and a bad-sample mask; never raises on bad cells.

    The mask flags the samples where _evaluate does; their n, n_g are
    placeholders.  A group index near 0 is not flagged here;
    emission._index_fields adds that floor.  dn/dlambda is (n - n_g)/lambda.
    refractive_index calls _fields, not this, so a trace counts a sample once.
    """
    return _fields(model, wavelength)


def transparency_window(model: DispersionModel):
    """Widest contiguous wavelength interval (um) where the model is valid.

    Scans _WINDOW_BOUNDS on a log grid and returns the endpoints of the
    longest run (in log-wavelength) of samples that avoid Sellmeier poles
    and negative radicands, once per model.  Root searches and maxima scans
    stay inside it, off the unphysical branch beyond an infrared pole.
    """
    return _transparency_window(model)


@lru_cache(maxsize=256)
def _transparency_window(model: DispersionModel) -> tuple[float, float]:
    lam = np.geomspace(*_WINDOW_BOUNDS, _WINDOW_POINTS)
    _, _, bad = index_fields(model, lam)
    if isinstance(model.base, SellmeierModel):
        # a weak oscillator keeps the radicand positive arbitrarily close to
        # its pole; exclude a 1% relative neighbourhood so the window never
        # bridges a resonance
        lam2 = lam * lam
        for _, l_i in model.base.terms:
            bad |= np.abs(lam2 - l_i) <= 0.01 * l_i
    if bad.all():
        raise DispersionError("model is invalid everywhere in the scan bounds")
    # the first and last index of every run of valid samples; the first longest wins
    edges = np.diff(np.concatenate(([True], bad, [True])).astype(np.int8))
    firsts, lasts = np.flatnonzero(edges == -1), np.flatnonzero(edges == 1) - 1
    spans = [math.log(lam[j] / lam[i]) for i, j in zip(firsts, lasts)]
    k = spans.index(max(spans))
    return float(lam[firsts[k]]), float(lam[lasts[k]])


def _omega(lam):
    """2 pi c / lam in rad/s for a float or array lam in um, unchecked."""
    return 2.0 * math.pi * C_UM_S / lam


def fast_light_resonance(
    amplitude: float, width: float, max_slope_at: float
) -> LorentzianResonance:
    """Lorentzian whose steepest rising wing sits at ``max_slope_at``.

    The maximum positive slope of the Lorentzian lies at
    center - width/sqrt(3); placing it at the requested wavelength puts the
    group-index dip on top of the region of interest.
    """
    return LorentzianResonance(
        center=max_slope_at + width / _SQRT3,
        amplitude=amplitude,
        width=width,
    )
