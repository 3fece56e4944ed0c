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


class DispersionError(ValueError):
    """Base class for dispersion-evaluation failures."""


class PoleProximityError(DispersionError):
    """Wavelength too close to a Sellmeier pole."""


class NegativeRadicandError(DispersionError):
    """The Sellmeier bracket went negative; the model is not usable there."""


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


@dataclass(frozen=True)
class GroupIndexSample:
    """One (wavelength, n, n_g) sample with its regime tag."""

    wavelength: float
    n: float
    n_g: float

    @property
    def regime(self) -> str:
        return group_regime(self.n_g)


def group_regime(n_g: float) -> str:
    """Classify a group index: normal (>=1), fast (0<n_g<1), anomalous (<=0)."""
    if n_g <= 0.0:
        return "anomalous"
    if n_g < 1.0:
        return "fast"
    return "normal"


def as_model(model) -> DispersionModel:
    """Wrap a bare base medium in a DispersionModel; pass models through."""
    if isinstance(model, DispersionModel):
        return model
    if isinstance(model, (SellmeierModel, ConstantIndex)):
        return DispersionModel(base=model)
    raise TypeError(f"not a dispersion model: {model!r}")


def _evaluate(model: DispersionModel, lam: np.ndarray):
    """n, dn/dlambda and a bad-sample mask over an array of wavelengths.

    The one Sellmeier/Lorentzian evaluator; never raises.  Samples where the
    model is invalid (non-positive or non-finite wavelength, Sellmeier pole
    within POLE_GUARD_UM2, negative radicand) are flagged in the mask; their
    n, dn values are placeholders.
    """
    bad = ~np.isfinite(lam) | (lam <= 0.0)
    lam_safe = np.where(bad, 1.0, lam)
    base = model.base
    if isinstance(base, ConstantIndex):
        n = np.full(lam.shape, base.n0)
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
            rad = rad + a_i * lam2 / denom
            # d/dlam [lam^2/(lam^2 - l)] = -2 lam l / (lam^2 - l)^2
            drad = drad - 2.0 * a_i * lam_safe * l_i / (denom * denom)
        bad |= rad < 0.0
        rad = np.where(rad < 0.0, 1.0, rad)
        n = np.sqrt(rad)
        dn = 0.5 * drad / n
    for res in model.resonances:
        w2 = res.width * res.width
        d = lam_safe - res.center
        n = n + res.amplitude * w2 / (d * d + w2)
        dn = dn - 2.0 * res.amplitude * w2 * d / (d * d + w2) ** 2
    return n, dn, bad


def _bad_sample_error(model: DispersionModel, lam: np.ndarray) -> DispersionError:
    """The error for wavelengths lam that _evaluate flagged as bad.

    Checked in order: non-positive or non-finite, then a Sellmeier pole,
    else a negative radicand.
    """
    if not (np.isfinite(lam) & (lam > 0.0)).all():
        return NonPositiveError("wavelength must be positive and finite (um)")
    if isinstance(model.base, SellmeierModel):
        lam2 = lam * lam
        for _, l_i in model.base.terms:
            if (np.abs(lam2 - l_i) <= POLE_GUARD_UM2).any():
                return PoleProximityError(
                    f"wavelength too close to Sellmeier pole at l={l_i} um^2"
                )
    return NegativeRadicandError(
        "Sellmeier bracket is negative; model invalid at this wavelength"
    )


def _checked(model, wavelength):
    """(lam, n, dn/dlambda) with lam at least 1-d; raises on any bad sample.

    A scalar is evaluated as a 1-element array, so scalar and array callers
    get the same arithmetic.
    """
    model = as_model(model)
    lam = np.atleast_1d(np.asarray(wavelength, dtype=float))
    n, dn, bad = _evaluate(model, lam)
    if bad.any():
        raise _bad_sample_error(model, lam[bad])
    return lam, n, dn


def _like(wavelength, values):
    """values as a float for a scalar wavelength, else as the array."""
    return float(values[0]) if np.ndim(wavelength) == 0 else values


def refractive_index(model, wavelength):
    """Refractive index at vacuum wavelength(s) in um.

    Accepts a scalar or an ndarray and returns the same shape.
    """
    _, n, _ = _checked(model, wavelength)
    return _like(wavelength, n)


def index_derivative(model, wavelength):
    """Analytic dn/dlambda in um^-1 (same shape as the input)."""
    _, _, dn = _checked(model, wavelength)
    return _like(wavelength, dn)


def group_index(model, wavelength):
    """Group index n_g = n - lambda * dn/dlambda.

    May be < 1 or <= 0 for fast-light models; returned as-is.
    """
    lam, n, dn = _checked(model, wavelength)
    return _like(wavelength, n - lam * dn)


def index_fields(model, wavelength):
    """Array-safe n, n_g and a bad-sample mask; never raises on bad cells.

    Samples where the model is invalid (non-positive wavelength, Sellmeier
    pole within POLE_GUARD_UM2, negative radicand) are flagged in the
    returned boolean mask; their n, n_g values are placeholders.  A group
    index near 0 is not flagged here; emission._index_fields adds that floor.
    """
    lam = np.asarray(wavelength, dtype=float)
    n, dn, bad = _evaluate(as_model(model), lam)
    if bad.any():
        lam = np.where(bad, 1.0, lam)
    return n, n - lam * dn, bad


def transparency_window(model):
    """Widest contiguous wavelength interval (um) where the model is valid.

    Scans _WINDOW_BOUNDS on a log grid and returns the endpoints of the
    longest run (in log-wavelength) of samples that avoid Sellmeier poles
    and negative radicands.  Root searches and maxima scans stay inside this
    window so they cannot wander onto the unphysical branch beyond an
    infrared pole.  Computed once per model.
    """
    return _transparency_window(as_model(model))


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
    good = ~bad
    if not np.any(good):
        raise DispersionError("model is invalid everywhere in the scan bounds")
    best_len, best = -1.0, None
    i = 0
    while i < _WINDOW_POINTS:
        if good[i]:
            j = i
            while j + 1 < _WINDOW_POINTS and good[j + 1]:
                j += 1
            span = math.log(lam[j] / lam[i])
            if span > best_len:
                best_len, best = span, (i, j)
            i = j + 1
        else:
            i += 1
    i, j = best
    return float(lam[i]), float(lam[j])


def sample_group_index(model, wavelength: float) -> GroupIndexSample:
    """Evaluate n and n_g at one wavelength, with the regime tag attached."""
    lam, n, dn = _checked(model, float(wavelength))
    return GroupIndexSample(
        wavelength=float(wavelength), n=float(n[0]), n_g=float((n - lam * dn)[0])
    )


def wavelength_to_omega(wavelength_um):
    """Angular frequency in rad/s for a vacuum wavelength in um."""
    lam = np.asarray(wavelength_um, dtype=float)
    if (lam <= 0.0).any():
        raise NonPositiveError("wavelength must be positive")
    omega = 2.0 * np.pi * C_UM_S / lam
    return float(omega) if lam.ndim == 0 else omega


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
