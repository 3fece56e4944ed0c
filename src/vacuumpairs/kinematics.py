"""Emission geometry of photon pairs from a moving index perturbation.

The delta-function constraint linking the two photons of a pair, and its
numerical solution for the partner wavelength.

Both polar angles are measured from the propagation axis (+x) and lie in
[0, pi]; the backward photon of a collinear pair has theta = pi.
Wavenumbers are in um^-1, wavelengths in um.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dispersion
from .dispersion import C_UM_S

_XTOL, _RTOL = 1e-14, 1e-15  # um and relative, partner-wavelength tolerance
_SCAN_POINTS = 400  # log-grid points of the partner bracket scan


class KinematicsError(dispersion.NumericalError):
    """Base class for kinematic failures."""


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
    def v_um_s(self) -> float:
        return self.beta * C_UM_S


@dataclass(frozen=True)
class PhotonMode:
    """One emitted photon: wavelength (um), polar angle, azimuth."""

    wavelength: float
    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (self.wavelength > 0.0 and math.isfinite(self.wavelength)):
            raise ValueError("wavelength must be positive and finite")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")


def constraint_residual(lam1, n1, cos_t1, lam2, n2, cos_t2, kin: PerturbationKinematics):
    """The pair-constraint residual from given indices n1, n2, in um^-1.

    Takes scalars or broadcastable arrays; the point densities and the
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


@lru_cache(maxsize=256)
def _scan_grid(model: dispersion.DispersionModel) -> tuple[np.ndarray, np.ndarray]:
    """The _SCAN_POINTS log grid over the transparency window and n on it, once per model.

    A model invalid at a scan point raises DispersionError rather than
    being scanned with a gap; the window's guard bands rule that out.
    """
    grid = np.geomspace(*dispersion.transparency_window(model), _SCAN_POINTS)
    n, _, bad = dispersion.index_fields(model, grid)
    if bad.any():
        raise dispersion.DispersionError("model is invalid inside its transparency window")
    grid.flags.writeable = n.flags.writeable = False
    return grid, n


@dataclass(frozen=True)
class PartnerTable:
    """The lam2 part of the residual on the scan grid, one column per element of cos_t2.

    keys holds the complex numbers column + 1j (-prefix minimum) in rows
    0..C-1 and C + column + 1j (prefix maximum) in rows C..2C-1: sorted,
    so one searchsorted finds in every column the first scan point where
    the prefix minimum falls to a value or the prefix maximum reaches it.
    rest_lo/rest_hi are the suffix minimum and maximum, with an empty
    suffix (+inf, -inf) at index _SCAN_POINTS.  part2 is the lam2 part
    itself, one row per column, nan where cos_t2 is nan.
    """

    model: dispersion.DispersionModel
    kin: PerturbationKinematics
    cos_t2: np.ndarray
    grid: np.ndarray
    part2: np.ndarray
    keys: np.ndarray
    rest_lo: np.ndarray
    rest_hi: np.ndarray


def partner_table(cos_t2, kin: PerturbationKinematics, model) -> PartnerTable:
    """The partner table of one velocity and set of cos(theta2), for any lam1 and theta1.

    Public, like solve_partners, so that a trace of the package's public
    functions counts the partner solves of total_count and find_maximum as
    kinematics work (find_maximum's one table is built by _shared_table).
    """
    grid, n = _scan_grid(model)
    cos_t2 = np.asarray(cos_t2, dtype=float)
    part2 = _photon_term(grid, n, cos_t2.reshape(-1, 1), 1.0 / kin.beta)
    filled = np.where(np.isnan(part2), 0.0, part2)  # a nan column has no root; keep the keys sorted
    columns = len(part2)
    lowest = np.minimum.accumulate(filled, axis=1)
    highest = np.maximum.accumulate(filled, axis=1)
    keys = np.arange(2 * columns)[:, None] + 1j * np.concatenate([-lowest, highest])
    rest_lo = np.full((columns, _SCAN_POINTS + 1), np.inf)
    rest_hi = np.full((columns, _SCAN_POINTS + 1), -np.inf)
    rest_lo[:, -2::-1] = np.minimum.accumulate(filled[:, ::-1], axis=1)
    rest_hi[:, -2::-1] = np.maximum.accumulate(filled[:, ::-1], axis=1)
    return PartnerTable(model, kin, cos_t2, grid, part2, keys, rest_lo, rest_hi)


@lru_cache(maxsize=8)
def _shared_table(cos_t2: float, kin: PerturbationKinematics, model) -> PartnerTable:
    """The partner_table of one cos(theta2), cached and read-only.

    find_maximum's scan and every solve_partner of the same velocity, model
    and cos(theta2) read this one table; its arrays cannot be written.
    """
    table = partner_table(cos_t2, kin, model)
    for values in (table.cos_t2, table.part2, table.keys, table.rest_lo, table.rest_hi):
        values.flags.writeable = False
    return table


def _scan_bracket(part1, table: PartnerTable):
    """Bracket of the smallest partner root: the rule of every partner solver, on arrays.

    part1 is the lam1 part of the residual over 2 pi; it broadcasts with
    table.cos_t2.  On the scan grid, the first exact zero of the residual
    part1 + part2, or sign change to the next point, brackets the smallest
    root.  With v = -part1 and part2 starting above v, the first point k
    where part2 <= v is the first where its prefix minimum is, and there
    the two are equal; k is the zero, or the upper end of the sign change.
    Starting below v, the prefix maximum plays that part.  Both are
    monotonic, so a binary search finds k.  Another root follows when v
    lies within the range of part2 after the first root.

    Returns (lo, hi, up, multiple, f_lo, f_hi): the bracket, with lo == hi
    at an exact zero and both nan where there is no root, whether the
    residual is positive at lo, whether any element has more than one root,
    and the residuals over 2 pi at lo and at hi from the table.
    """
    v = -np.asarray(part1, dtype=float)
    columns, points = table.part2.shape
    column = np.arange(columns).reshape(table.cos_t2.shape)
    v, column = np.broadcast_arrays(v, column)
    # the tables are read by take on flat indices, cheaper than a[column, k]
    part2, first = table.part2.ravel(), column * points
    start = part2.take(first)
    # part2 is finite, so a non-finite v has no root
    none = ~np.isfinite(v) | np.isnan(start)
    v = np.where(none, 0.0, v)
    down = start > v
    row = np.where(down, column, column + columns)
    target = np.where(down, -v, v)
    k = np.searchsorted(table.keys.ravel(), row + 1j * target) - row * points
    found = ~none & (k < points)
    k = np.minimum(k, points - 1)
    zero = table.keys.ravel().take(row * points + k).imag == target
    # a zero at k is the first root; else the sign changes over [k - 1, k]
    below = np.where(zero, k, k - 1)
    lo = np.where(found, table.grid.take(below), np.nan)
    hi = np.where(found, table.grid.take(k), np.nan)
    # the scan points after the first root, in a row of points + 1 suffix extremes
    rest = column * (points + 1) + np.where(zero, k + 1, k)
    rest_lo, rest_hi = table.rest_lo.ravel().take(rest), table.rest_hi.ravel().take(rest)
    second = found & (rest_lo <= v) & (v <= rest_hi)
    ends = part2.take(first + below) - v, part2.take(first + k) - v
    return lo, hi, found & down & ~zero, bool(np.any(second)), *ends


def _column_bracket(part1: float, table: PartnerTable):
    """_scan_bracket of one float part1 in a one-column table, by bisect_left on its rows.

    The same rule, comparing the same values, so the bracket is the one the
    array search gives.  Returns (lo, hi, multiple) as Python floats and a bool.
    """
    v, start = -part1, table.part2[0, 0]
    if not math.isfinite(v) or math.isnan(start):
        return math.nan, math.nan, False
    low, high = table.keys.imag  # -(prefix minimum) and the prefix maximum, both nondecreasing
    prefix, target = (low, -v) if start > v else (high, v)
    k = bisect_left(prefix, target)
    if k == len(prefix):
        return math.nan, math.nan, False
    zero = prefix[k] == target
    rest = k + 1 if zero else k
    second = table.rest_lo[0, rest] <= v <= table.rest_hi[0, rest]
    return float(table.grid[k if zero else k - 1]), float(table.grid[k]), bool(second)


def _warn_multiple(multiple: bool) -> None:
    """Warn with MultipleRootsWarning at the line that called the public solver."""
    if multiple:
        message = "more than one partner root found; returning the smallest"
        warnings.warn(message, MultipleRootsWarning, stacklevel=3)


def solve_partner(
    lam1: float, theta1: float, theta2: float, kin: PerturbationKinematics, model
) -> float:
    """Partner wavelength lam2 with zero constraint residual.

    Returns the smallest root in the transparency window of the model,
    which keeps the search off any unphysical branch beyond an infrared
    pole: _column_bracket brackets it in the read-only _shared_table of
    cos(theta2), which find_maximum's scan reads too, and _brentq refines
    the bracket on Python floats.  Warns via MultipleRootsWarning when the window
    holds more than one root (fast-light dispersion), and raises
    NoSignChangeError when it holds none (in particular when subluminal).
    """
    cos_t1, cos_t2 = math.cos(theta1), math.cos(theta2)
    inv_b = 1.0 / kin.beta
    part1 = _photon_term(lam1, dispersion.refractive_index(model, lam1), cos_t1, inv_b)
    lo, hi, multiple = _column_bracket(part1, _shared_table(cos_t2, kin, model))
    _warn_multiple(multiple)
    if math.isnan(lo):
        raise NoSignChangeError(
            f"no partner wavelength in the transparency window for lam1={lam1} um "
            f"(subluminal or out of the window)"
        )
    if lo == hi:
        return lo

    def residual(lam2: float) -> float:
        n2, _, bad = dispersion.index_fields(model, lam2)
        return math.nan if bad else 2.0 * math.pi * (part1 + _photon_term(lam2, n2, cos_t2, inv_b))

    return _brentq(residual, lo, hi, _XTOL, _RTOL)


def _brentq(f, a, b, xtol: float, rtol: float) -> float:
    """A root of f in [a, b] by Brent's method: scipy.optimize.brentq, step for step.

    The same float operations in the same order as scipy's C brentq, so the
    same evaluation points and the same root.  Raises ValueError when f
    returns nan or f(a) and f(b) are nonzero of equal sign, and RuntimeError
    after scipy's default of 100 iterations without convergence.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):  # fpre is never 0; at fcur == 0 xcur is returned below
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides an underflowed den to inf or nan, and either bisects below
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def _secant(lo, hi, f_lo, f_hi):
    """The secant point of [lo, hi] from its end residuals, or the midpoint if not in [lo, hi]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    # x is nan at an exact zero (lo == hi, both residuals 0) and for a nan residual
    return np.where((lo <= x) & (x <= hi), x, 0.5 * (lo + hi))


def solve_partners(lam1, theta1, table: PartnerTable) -> np.ndarray:
    """solve_partner of every element of the broadcast lam1, theta1, table.cos_t2; nan if none.

    Each bracket of _scan_bracket is refined by Newton steps on the lam2
    part, whose slope (1/beta - n_g2 cos(theta2))/lam2^2 comes with it from
    index_fields, from the secant point of the scan bracket.  A step that
    leaves the bracket, has no finite slope (fast light can give
    n_g2 cos(theta2) = 1/beta) or is not shorter than half the last step
    bisects instead.  An element leaves the working arrays as soon as its own
    Newton step lies in its bracket and below half the tolerance, finished at
    the end of that step, or its bracket closes, finished at the point it
    would evaluate next; so its partner does not depend on the other
    elements.  An invalid lam1 has no partner.
    """
    model, inv_b = table.model, 1.0 / table.kin.beta
    lam1 = np.asarray(lam1, dtype=float)
    n1, _, bad1 = dispersion.index_fields(model, lam1)
    part1 = np.where(bad1, np.nan, _photon_term(lam1, n1, np.cos(theta1), inv_b))
    lo, hi, up_lo, multiple, f_lo, f_hi = _scan_bracket(part1, table)
    _warn_multiple(multiple)
    lam2 = _secant(lo, hi, f_lo, f_hi)  # final where the bracket is closed already
    live = hi - lo >= _XTOL + _RTOL * hi
    cells = np.flatnonzero(live)
    # the working arrays: the elements whose bracket is open, flat
    part1, cos_t2 = (np.broadcast_to(a, live.shape)[live] for a in (part1, table.cos_t2))
    x, lo, hi, up_lo = (a[live] for a in (lam2, lo, hi, up_lo))
    before = hi - lo  # the length of the last step
    while cells.size:
        n2, n_g2, bad2 = dispersion.index_fields(model, x)
        f = part1 + np.where(bad2, np.nan, _photon_term(x, n2, cos_t2, inv_b))
        up = np.where(up_lo, f > 0.0, f < 0.0)
        lo, hi = np.where(up, x, lo), np.where(up, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f * x * x / (n_g2 * cos_t2 - inv_b)
        x_new, step = x + step, np.abs(step)
        done = (lo <= x_new) & (x_new <= hi) & (step < 0.5 * (_XTOL + _RTOL * x))
        newton = done | (lo < x_new) & (x_new < hi) & (step < 0.5 * before)
        x = np.where(newton, x_new, 0.5 * (lo + hi))
        before = np.where(newton, step, 0.5 * (hi - lo))
        del n2, n_g2, bad2, f, up, step, x_new, newton  # before the next index_fields
        done |= hi - lo < _XTOL + _RTOL * hi
        if done.any():
            lam2.flat[cells[done]] = x[done]
            live = ~done
            cells, part1, cos_t2, lo, hi, up_lo, x, before = (
                a[live] for a in (cells, part1, cos_t2, lo, hi, up_lo, x, before)
            )
    return lam2
