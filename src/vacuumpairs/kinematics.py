"""Emission geometry of photon pairs from a moving index perturbation.

Cerenkov cone angles, the delta-function constraint linking the two
photons of a pair, and its numerical solution for the partner wavelength.

Both polar angles are measured from the propagation axis (+x) and lie in
[0, pi]; the backward photon of a collinear pair has theta = pi.
Wavenumbers are in um^-1, wavelengths in um.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import dispersion
from .dispersion import C_M_S, C_UM_S

TOL_ANGLE = 1e-9  # rad, degenerate-cone classification
_XTOL, _RTOL = 1e-14, 1e-15  # um and relative, partner-wavelength tolerance
_SCAN_POINTS = 400  # log-grid points of the partner bracket scan


class KinematicsError(ValueError):
    """Base class for kinematic failures."""


class SubluminalError(KinematicsError):
    """beta * n < 1: no Cerenkov cone, no pair emission at this frequency."""


class NoSignChangeError(KinematicsError):
    """The pair constraint has no solution in the transparency window."""


class MultipleRootsWarning(UserWarning):
    """More than one partner wavelength satisfies the constraint."""


@dataclass(frozen=True)
class PerturbationKinematics:
    """Velocity of the moving perturbation, as beta = v/c."""

    beta: float

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")

    @property
    def v_m_s(self) -> float:
        return self.beta * C_M_S

    @property
    def v_um_s(self) -> float:
        return self.beta * C_UM_S


@dataclass(frozen=True)
class PhotonMode:
    """One emitted photon: wavelength (um), polar angle, azimuth."""

    wavelength: float
    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")


@dataclass(frozen=True)
class ConeClassification:
    variant: str  # "overlap" | "gap" | "degenerate"
    theta_cone1: float
    theta_cone2: float


def wavenumber(model, wavelength):
    """k = 2 pi n / lambda in um^-1."""
    lam = np.asarray(wavelength, dtype=float)
    k = 2.0 * np.pi * dispersion.refractive_index(model, wavelength) / lam
    return float(k) if lam.ndim == 0 else k


def cerenkov_angle(wavelength: float, kin: PerturbationKinematics, model) -> float:
    """Cone angle arccos(1/(beta n)); raises SubluminalError below threshold."""
    bn = kin.beta * dispersion.refractive_index(model, wavelength)
    if bn < 1.0:
        raise SubluminalError(
            f"beta*n = {bn:.6g} < 1 at {wavelength} um: no Cerenkov cone"
        )
    return math.acos(1.0 / bn)


def pair_constraint_residual(
    mode1: PhotonMode, mode2: PhotonMode, kin: PerturbationKinematics, model
) -> float:
    """k1x + k2x - (omega1 + omega2)/v, in um^-1.

    Zero iff the pair is kinematically allowed.  Symmetric under exchange of
    the two modes.
    """
    lam1, lam2 = mode1.wavelength, mode2.wavelength
    return constraint_residual(
        lam1, dispersion.refractive_index(model, lam1), math.cos(mode1.theta),
        lam2, dispersion.refractive_index(model, lam2), math.cos(mode2.theta),
        kin,
    )


def constraint_residual(lam1, n1, cos_t1, lam2, n2, cos_t2, kin: PerturbationKinematics):
    """The pair-constraint residual from given indices n1, n2, in um^-1.

    Takes scalars or broadcastable arrays; pair_constraint_residual and the
    array density along the collinear curve share this arithmetic.
    """
    inv_b = 1.0 / kin.beta
    return 2.0 * math.pi * (
        _photon_term(lam1, n1, cos_t1, inv_b) + _photon_term(lam2, n2, cos_t2, inv_b)
    )


def _photon_term(lam, n, cos_t, inv_b):
    """One photon's part (n cos(theta) - 1/beta)/lam of the residual over 2 pi.

    The constraint residual is the sum of the two photons' parts, so the
    partner solvers evaluate the lam1 part once and scan only the lam2 part.
    """
    return (n * cos_t - inv_b) / lam


def _on_shell_sum(lam1, lam2, kin: PerturbationKinematics):
    """(omega1 + omega2)/v in um^-1: the k1x + k2x the constraint demands."""
    return (2.0 * math.pi / kin.beta) * (1.0 / lam1 + 1.0 / lam2)


def constraint_tolerance(lam1: float, lam2: float, kin: PerturbationKinematics) -> float:
    """Absolute residual tolerance 1e-10 * (omega1+omega2)/v, in um^-1."""
    return 1e-10 * _on_shell_sum(lam1, lam2, kin)


def _partner_term(lam2, cos_t2, inv_b, model):
    """The lam2 part of the residual over 2 pi, nan where the model is invalid, and n_g2.

    The nan lets a bracketing scan simply skip invalid wavelengths; the
    group index gives the slope of the term for a Newton step.
    """
    n2, n_g2, bad = dispersion.index_fields(model, lam2)
    return np.where(bad, np.nan, _photon_term(lam2, n2, cos_t2, inv_b)), n_g2


def _smallest_root_bracket(part1, cos_t2, inv_b, model):
    """Bracket of the smallest partner root: the scan both solvers share.

    part1 is the lam1 part of the residual over 2 pi; it broadcasts with
    cos_t2.  The residual is scanned over the transparency window of the
    model on a log grid of _SCAN_POINTS wavelengths, as a last axis.  The
    first exact zero, or sign change to the next grid point, brackets the
    smallest root.  Returns (lo, hi, up): the bracket, with lo == hi at an
    exact zero and lo nan where there is no root, and whether the residual
    is positive at lo.  Warns once with MultipleRootsWarning when any element has more
    than one root.
    """
    grid = np.geomspace(*dispersion.transparency_window(model), _SCAN_POINTS)
    part2, _ = _partner_term(grid, np.asarray(cos_t2)[..., None], inv_b, model)
    # signs of part1 + part2 from comparisons, which are exact and keep the
    # scan in booleans; nan compares false, so invalid points are skipped
    neg = -np.asarray(part1)[..., None]
    above, below = part2 > neg, part2 < neg
    # a sign change over [grid[i], grid[i+1]] never shares its index with a
    # zero at grid[i], so the first event in index order is the smallest root
    events = part2 == neg
    events[..., :-1] |= (above[..., :-1] & below[..., 1:]) | (below[..., :-1] & above[..., 1:])
    n_roots = np.count_nonzero(events, axis=-1)
    if np.any(n_roots > 1):
        warnings.warn(
            f"up to {int(np.max(n_roots))} partner roots found; returning the smallest",
            MultipleRootsWarning,
            stacklevel=3,
        )
    first = np.argmax(events, axis=-1)[..., None]
    up = np.take_along_axis(above, first, axis=-1)[..., 0]
    flip = up | np.take_along_axis(below, first, axis=-1)[..., 0]
    first = first[..., 0]
    lo = np.where(n_roots > 0, grid[first], np.nan)
    hi = np.where(flip, grid[np.minimum(first + 1, _SCAN_POINTS - 1)], lo)
    return lo, hi, up


def solve_partner(
    lam1: float, theta1: float, theta2: float, kin: PerturbationKinematics, model
) -> float:
    """Partner wavelength lam2 with zero constraint residual.

    Searches the transparency window of the model, which keeps the search
    off any unphysical branch beyond an infrared pole, and returns its
    smallest root: the scan brackets it, and brentq refines the bracket.
    Warns via MultipleRootsWarning when the window holds more than one root
    (possible for non-monotonic, fast-light dispersion).  Raises
    NoSignChangeError when it holds none (in particular in the subluminal
    regime, where there is no pair emission at all).
    """
    cos_t1, cos_t2 = math.cos(theta1), math.cos(theta2)
    inv_b = 1.0 / kin.beta
    part1 = _photon_term(lam1, dispersion.refractive_index(model, lam1), cos_t1, inv_b)
    lo, hi, _ = _smallest_root_bracket(part1, cos_t2, inv_b, model)
    lo, hi = float(lo), float(hi)
    if math.isnan(lo):
        raise NoSignChangeError(
            f"no partner wavelength in the transparency window for lam1={lam1} um "
            f"(subluminal or out of the window)"
        )
    if lo == hi:
        return lo
    f = lambda l2: float(2.0 * np.pi * (part1 + _partner_term(float(l2), cos_t2, inv_b, model)[0]))
    return brentq(f, lo, hi, xtol=_XTOL, rtol=_RTOL)


def solve_partners(lam1, theta1, theta2, kin: PerturbationKinematics, model) -> np.ndarray:
    """solve_partner over broadcast lam1, theta1, theta2; nan where there is no partner.

    The same scan and smallest-root rule, with each bracket refined to the
    tolerance solve_partner gives brentq by vectorized Newton steps.  The
    slope of the lam2 part is (1/beta - n_g2 cos(theta2))/lam2^2, so
    index_fields gives it with the residual.  A step that leaves the
    bracket, has no finite slope (fast light can give n_g2 cos(theta2) =
    1/beta) or is not shorter than half the step before last (Brent's rule)
    bisects instead; one shorter than half the tolerance is lengthened to
    it, so the far end of the bracket closes in.  The residual is a lam1
    part plus a lam2 part, so the dispersion model is evaluated on the scan
    grid once for all inputs.  A lam1 where the model is invalid has no
    partner.
    """
    lam1 = np.asarray(lam1, dtype=float)
    cos_t2 = np.cos(theta2)
    inv_b = 1.0 / kin.beta
    n1, _, bad1 = dispersion.index_fields(model, lam1)
    part1 = np.where(bad1, np.nan, _photon_term(lam1, n1, np.cos(theta1), inv_b))
    lo, hi, up_lo = _smallest_root_bracket(part1, cos_t2, inv_b, model)
    x = 0.5 * (lo + hi)
    last = before = hi - lo  # lengths of the last two steps
    while np.any(hi - lo >= _XTOL + _RTOL * hi):
        part2, n_g2 = _partner_term(x, cos_t2, inv_b, model)
        up = np.where(up_lo, part2 > -part1, part2 < -part1)
        lo = np.where(up, x, lo)
        hi = np.where(up, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (part1 + part2) * x * x / (n_g2 * cos_t2 - inv_b)
        half_tol = 0.5 * (_XTOL + _RTOL * hi)
        step = np.where(np.abs(step) < half_tol, np.where(up, half_tol, -half_tol), step)
        x_new = x + step
        newton = (lo < x_new) & (x_new < hi) & (np.abs(step) < 0.5 * before)
        x = np.where(newton, x_new, 0.5 * (lo + hi))
        before, last = last, np.where(newton, np.abs(step), 0.5 * (hi - lo))
    return 0.5 * (lo + hi)


def classify_cones(
    lam1: float, lam2: float, kin: PerturbationKinematics, model
) -> ConeClassification:
    """Overlap/gap/degenerate classification of the two Cerenkov cones."""
    theta_c1 = cerenkov_angle(lam1, kin, model)
    theta_c2 = cerenkov_angle(lam2, kin, model)
    if abs(theta_c1 - theta_c2) <= TOL_ANGLE:
        variant = "degenerate"
    elif theta_c1 > theta_c2:
        variant = "overlap"
    else:
        variant = "gap"
    return ConeClassification(variant=variant, theta_cone1=theta_c1, theta_cone2=theta_c2)
