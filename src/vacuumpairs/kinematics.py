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
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dispersion
from .dispersion import C_UM_S

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


def cerenkov_angle(wavelength: float, kin: PerturbationKinematics, model) -> float:
    """Cone angle arccos(1/(beta n)); raises SubluminalError below threshold."""
    bn = kin.beta * dispersion.refractive_index(model, wavelength)
    if bn < 1.0:
        raise SubluminalError(
            f"beta*n = {bn:.6g} < 1 at {wavelength} um: no Cerenkov cone"
        )
    return math.acos(1.0 / bn)


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

    Public, like solve_tabulated, so that a trace of the package's public
    functions counts total_count's partner solve as kinematics work.
    """
    model = dispersion.as_model(model)
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
def _solo_table(cos_t2: float, kin: PerturbationKinematics, model) -> tuple:
    """solve_partner's partner_table of one cos(theta2), as immutable Python floats.

    The tuple (grid, start, low, high, rest_lo, rest_hi) of the one column
    holds the scan grid, the first scan value, -(prefix minimum) and the
    prefix maximum (both nondecreasing), and the suffix extremes.
    """
    table = partner_table(cos_t2, kin, model)
    low, high = table.keys.imag
    columns = (table.grid, low, high, table.rest_lo[0], table.rest_hi[0])
    grid, low, high, rest_lo, rest_hi = (tuple(values.tolist()) for values in columns)
    return grid, float(table.part2[0, 0]), low, high, rest_lo, rest_hi


def _smallest_root_bracket(part1, table: PartnerTable):
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

    Returns (lo, hi, up, multiple): the bracket, with lo == hi at an exact
    zero and both nan where there is no root, whether the residual is
    positive at lo, and whether any element has more than one root.
    """
    return _scan_bracket(part1, table)[:4]


def _scan_bracket(part1, table: PartnerTable):
    """_smallest_root_bracket, then the residuals over 2 pi at lo and at hi from the table."""
    v = -np.asarray(part1, dtype=float)
    column = np.arange(len(table.part2)).reshape(table.cos_t2.shape)
    v, column = np.broadcast_arrays(v, column)
    start = table.part2[column, 0]
    # part2 is finite, so a non-finite v has no root
    none = ~np.isfinite(v) | np.isnan(start)
    v = np.where(none, 0.0, v)
    rows, points = table.keys.shape
    down = start > v
    row = np.where(down, column, column + rows // 2)
    target = np.where(down, -v, v)
    k = np.searchsorted(table.keys.ravel(), row + 1j * target) - row * points
    found = ~none & (k < points)
    k = np.minimum(k, points - 1)
    zero = table.keys.imag[row, k] == target
    # a zero at k is the first root; else the sign changes over [k - 1, k]
    below = np.where(zero, k, k - 1)
    lo = np.where(found, table.grid[below], np.nan)
    hi = np.where(found, table.grid[k], np.nan)
    rest = np.where(zero, k + 1, k)  # the scan points after the first root
    second = found & (table.rest_lo[column, rest] <= v) & (v <= table.rest_hi[column, rest])
    ends = table.part2[column, below] - v, table.part2[column, k] - v
    return lo, hi, found & down & ~zero, bool(np.any(second)), *ends


def _column_bracket(part1: float, column: tuple):
    """_smallest_root_bracket of one float part1 in one _solo_table column, by bisect_left.

    The same rule on Python floats; it only compares values, so the
    bracket is the one the array search gives.
    """
    grid, start, low, high, rest_lo, rest_hi = column
    v = -part1
    if not math.isfinite(v) or math.isnan(start):
        return math.nan, math.nan, False, False
    down = start > v
    prefix, target = (low, -v) if down else (high, v)
    k = bisect_left(prefix, target)
    if k == len(prefix):
        return math.nan, math.nan, False, False
    zero = prefix[k] == target
    rest = k + 1 if zero else k
    second = rest_lo[rest] <= v <= rest_hi[rest]
    return grid[k if zero else k - 1], grid[k], down and not zero, second


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
    pole: _column_bracket brackets it in the cached partner-table column of
    cos(theta2) and brentq, on Python floats, refines the bracket.  Warns
    via MultipleRootsWarning when the window holds more than one root
    (fast-light dispersion), and raises NoSignChangeError when it holds
    none (in particular in the subluminal regime).
    """
    from scipy.optimize import brentq

    model = dispersion.as_model(model)
    cos_t1, cos_t2 = math.cos(theta1), math.cos(theta2)
    inv_b = 1.0 / kin.beta
    part1 = _photon_term(lam1, dispersion.refractive_index(model, lam1), cos_t1, inv_b)
    lo, hi, _, multiple = _column_bracket(part1, _solo_table(cos_t2, kin, model))
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

    return brentq(residual, lo, hi, xtol=_XTOL, rtol=_RTOL)


def solve_partners(lam1, theta1, theta2, kin: PerturbationKinematics, model) -> np.ndarray:
    """solve_partner over broadcast lam1, theta1, theta2; nan where there is no partner.

    The same smallest-root rule, refined to brentq's tolerance by _refine
    with the whole call as one row.  An invalid lam1 has no partner.
    """
    table = partner_table(np.cos(theta2), kin, model)
    ndim = len(np.broadcast_shapes(np.shape(lam1), np.shape(theta1), table.cos_t2.shape))
    lam1 = np.expand_dims(lam1, tuple(range(1 + ndim - np.ndim(lam1))))  # axis 0: one row
    lam2, multiple = _refine(lam1, theta1, table)
    _warn_multiple(multiple)
    return lam2[0]


def solve_tabulated(lam1, theta1, table: PartnerTable) -> np.ndarray:
    """solve_partners of each lam1, a float or 1-D array, as one row with the table's theta2.

    The result has the shape of lam1 followed by the broadcast shape of
    theta1 and table.cos_t2; each row has the bits of a call of its own.
    """
    lam1 = np.asarray(lam1, dtype=float)
    cells = np.broadcast_shapes(np.shape(theta1), table.cos_t2.shape)
    lam2, multiple = _refine(lam1.reshape((-1,) + (1,) * len(cells)), theta1, table)
    _warn_multiple(multiple)
    return lam2.reshape(lam1.shape + cells)


def _secant(lo, hi, f_lo, f_hi):
    """The secant point of [lo, hi] from its end residuals, or the midpoint if not in [lo, hi]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    # x is nan at an exact zero (lo == hi, both residuals 0) and for a nan residual
    return np.where((lo <= x) & (x <= hi), x, 0.5 * (lo + hi))


def _refine(lam1, theta1, table: PartnerTable):
    """Partners with rows on axis 0 of lam1, and whether any element has more than one root.

    Each bracket of _smallest_root_bracket is refined by Newton steps on
    the lam2 part, whose slope (1/beta - n_g2 cos(theta2))/lam2^2 comes
    with it from index_fields, from the secant point of the scan bracket.
    A step that leaves the bracket, has no finite slope (fast light can
    give n_g2 cos(theta2) = 1/beta) or is not shorter than half the step
    before last (Brent's rule) bisects instead; one below half the
    tolerance is lengthened to it, so the far end of the bracket closes in.
    A row steps until all its brackets close, then leaves the working
    arrays with the secant point of each bracket, from the residuals kept
    at both ends: each element takes the steps of its row alone.
    """
    model, cos_t2 = table.model, table.cos_t2
    lam1 = np.asarray(lam1, dtype=float)
    inv_b = 1.0 / table.kin.beta
    n1, _, bad1 = dispersion.index_fields(model, lam1)
    part1 = np.where(bad1, np.nan, _photon_term(lam1, n1, np.cos(theta1), inv_b))
    lo, hi, up_lo, multiple, f_lo, f_hi = _scan_bracket(part1, table)
    lam2 = np.empty(lo.shape)
    rows = np.arange(len(lo))
    x = _secant(lo, hi, f_lo, f_hi)
    last = before = hi - lo  # lengths of the last two steps
    while rows.size:
        live = np.any(hi - lo >= _XTOL + _RTOL * hi, axis=tuple(range(1, lo.ndim)))
        if not live.all():
            lam2[rows[~live]] = _secant(lo[~live], hi[~live], f_lo[~live], f_hi[~live])
            rows, part1, lo, hi, f_lo, f_hi, up_lo, x, last, before = (
                a[live] for a in (rows, part1, lo, hi, f_lo, f_hi, up_lo, x, last, before)
            )
            continue
        n2, n_g2, bad2 = dispersion.index_fields(model, x)
        f = part1 + np.where(bad2, np.nan, _photon_term(x, n2, cos_t2, inv_b))
        up = np.where(up_lo, f > 0.0, f < 0.0)
        lo, f_lo = np.where(up, x, lo), np.where(up, f, f_lo)
        hi, f_hi = np.where(up, hi, x), np.where(up, f_hi, f)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f * x * x / (n_g2 * cos_t2 - inv_b)
        half_tol = 0.5 * (_XTOL + _RTOL * hi)
        step = np.where(np.abs(step) < half_tol, np.where(up, half_tol, -half_tol), step)
        x_new = x + step
        newton = (lo < x_new) & (x_new < hi) & (np.abs(step) < 0.5 * before)
        x = np.where(newton, x_new, 0.5 * (lo + hi))
        before, last = last, np.where(newton, np.abs(step), 0.5 * (hi - lo))
        del n2, n_g2, bad2, f, up, step, half_tol, x_new, newton  # before the next index_fields
    return lam2, multiple
