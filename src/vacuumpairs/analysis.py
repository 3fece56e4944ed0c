"""Higher-level computations on top of the pair-emission densities.

Maxima of the collinear spectral density, beta sweeps, total pair counts
over a collection cone, and fast-light comparison studies.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import dispersion, emission, kinematics
from .dispersion import ConstantIndex, DispersionModel, LorentzianResonance
from .emission import (
    EmissionConfig,
    GaussianProfile,
    PairDensityGrid,
    collinear_grid,
    _index_fields,
)
from .kinematics import PerturbationKinematics, PhotonMode

TWO_PI = 2.0 * math.pi

_COARSE_POINTS = 200  # log-grid points of the collinear scan of find_maximum

# Reference emission maximum used to pin the overall normalization once:
# fused silica, beta = 10, sigma = 1 um, L = 5 cm, collinear geometry.
REFERENCE_MAX_DENSITY = 2.91e-3
REFERENCE_BETA = 10.0
REFERENCE_SIGMA_UM = 1.0
REFERENCE_LENGTH_M = 0.05


class AnalysisError(ValueError):
    """Base class for analysis failures."""


class NoEmissionError(AnalysisError):
    """No kinematically allowed pair anywhere in the search window."""


class QuadratureNotConvergedError(AnalysisError):
    """Adaptive quadrature did not reach the requested relative tolerance."""


@dataclass(frozen=True)
class EmissionMaximum:
    """Location and height of the collinear emission maximum."""

    lambda1_um: float
    lambda2_um: float
    density: float
    beta: float
    profile: dict
    material: str


@dataclass
class SweepResult:
    """One EmissionMaximum per beta, with monotonicity audit flags."""

    rows: list[EmissionMaximum]
    failures: list[tuple[float, str]]
    wavelengths_decreasing: bool
    density_increasing: bool
    ratio_decreasing: bool


@dataclass(frozen=True)
class TotalCount:
    """Pairs per pulse collected in a forward cone, with quadrature error.

    rel_error is None when no refinement ran, so no error was estimated.
    """

    pairs_per_pulse: float
    cone_half_angle_rad: float
    length_m: float
    rel_error: float | None


@dataclass
class FastLightStudy:
    grid_base: PairDensityGrid
    grid_modified: PairDensityGrid
    enhancement: float
    peak_count: int


def _material_label(model: DispersionModel) -> str:
    if isinstance(model.base, ConstantIndex):
        return f"constant_index({model.base.n0})"
    return model.base.name or "sellmeier"


def constraint_density(config: EmissionConfig, lam1: float) -> tuple[float, float]:
    """(lambda2, density) on the collinear constraint curve at lambda1.

    Raises NoSignChangeError when no partner exists.
    """
    lam2 = kinematics.solve_partner(lam1, 0.0, math.pi, config.kin, config.material)
    modes = PhotonMode(wavelength=lam1, theta=0.0), PhotonMode(wavelength=lam2, theta=math.pi)
    if isinstance(config.profile, GaussianProfile):
        return lam2, emission.density_gaussian(*modes, config)
    return lam2, emission.density_tanh(*modes, config)


def _collinear_scan(config: EmissionConfig, lam1) -> np.ndarray:
    """constraint_density at every lam1 in one array pass; 0 where it raises."""
    lam2 = kinematics.solve_partners(lam1, 0.0, math.pi, config.kin, config.material)
    return emission._curve_density(config, lam1, lam2)


def find_maximum(
    config: EmissionConfig, window: tuple[float, float] = (0.2, 20.0)
) -> EmissionMaximum:
    """Collinear emission maximum in the given lambda1 window.

    The window is clipped to the transparency window of the material, then
    scanned along the constraint curve on a coarse log grid in one array
    pass; every lobe above half the scan maximum is refined by golden
    section (fast-light media can be multimodal) and the highest lobe wins.
    Deterministic.  The refinement, and every value it is compared with,
    call the scalar constraint_density with its brentq partners: the
    density is flat at the maximum, so root-solver rounding far below its
    precision moves the location.
    """
    from scipy.optimize import minimize_scalar

    clear = dispersion.transparency_window(config.material)
    window = (max(window[0], clear[0]), min(window[1], clear[1]))
    if not window[0] < window[1]:
        raise NoEmissionError("search window lies outside the transparency window")
    lam1_grid = np.geomspace(window[0], window[1], _COARSE_POINTS)
    vals = _collinear_scan(config, lam1_grid)
    peak = float(np.max(vals))
    if peak <= 0.0:
        raise NoEmissionError(
            f"no kinematically allowed emission in [{window[0]}, {window[1]}] um "
            f"at beta = {config.kin.beta}"
        )

    def density_at(lam1: float) -> float:
        try:
            _, rho = constraint_density(config, lam1)
        except (kinematics.KinematicsError, emission.EmissionError, dispersion.DispersionError):
            return 0.0
        return rho

    # candidate lobes: strict interior local maxima above half the scan peak
    i_max = int(np.argmax(vals))
    candidates = [i_max]
    for i in range(1, _COARSE_POINTS - 1):
        if vals[i] > vals[i - 1] and vals[i] > vals[i + 1] and vals[i] >= 0.5 * peak:
            candidates.append(i)
    best = (density_at(float(lam1_grid[i_max])), float(lam1_grid[i_max]))
    for i in sorted(set(candidates)):
        lam1_ref = float(lam1_grid[i])
        if 0 < i < _COARSE_POINTS - 1:
            a, b, c = (math.log(lam1_grid[i - 1]), math.log(lam1_grid[i]),
                       math.log(lam1_grid[i + 1]))
            try:
                res = minimize_scalar(
                    lambda x: -density_at(math.exp(x)), bracket=(a, b, c),
                    method="golden", options={"xtol": 1e-10},
                )
                lam1_ref, val_ref = math.exp(float(res.x)), -float(res.fun)
            except ValueError:
                val_ref = density_at(lam1_ref)
        else:
            val_ref = density_at(lam1_ref)
        if val_ref > best[0]:
            best = (val_ref, lam1_ref)
    density_max, lam1_max = best
    lam2_max, density_max = constraint_density(config, lam1_max)
    return EmissionMaximum(
        lambda1_um=lam1_max,
        lambda2_um=lam2_max,
        density=density_max,
        beta=config.kin.beta,
        profile=emission.profile_to_dict(config.profile),
        material=_material_label(config.material),
    )


def beta_sweep(
    config: EmissionConfig,
    betas: list[float],
    window: tuple[float, float] = (0.2, 20.0),
) -> SweepResult:
    """find_maximum for every beta, with monotonicity audits."""
    rows: list[EmissionMaximum] = []
    failures: list[tuple[float, str]] = []
    for beta in betas:
        cfg = dataclasses.replace(config, kin=PerturbationKinematics(beta=float(beta)))
        try:
            rows.append(find_maximum(cfg, window=window))
        except NoEmissionError as exc:
            failures.append((float(beta), str(exc)))
    ordered = sorted(rows, key=lambda r: r.beta)
    lam1 = [r.lambda1_um for r in ordered]
    lam2 = [r.lambda2_um for r in ordered]
    dens = [r.density for r in ordered]
    ratio = [r.lambda2_um / r.lambda1_um for r in ordered]
    strictly = lambda seq, cmp: all(cmp(a, b) for a, b in zip(seq, seq[1:]))
    return SweepResult(
        rows=rows,
        failures=failures,
        wavelengths_decreasing=(
            strictly(lam1, lambda a, b: a > b) and strictly(lam2, lambda a, b: a > b)
        ),
        density_increasing=strictly(dens, lambda a, b: a < b),
        ratio_decreasing=strictly(ratio, lambda a, b: a > b),
    )


# ---------------------------------------------------------------------------
# total pair count

def _phi_mean_weights(phi: np.ndarray) -> np.ndarray:
    """Weights w with f @ w == simpson(f, x=phi) / pi, up to rounding.

    The rule is linear in f, so column j of the identity gives w[j]; this
    keeps scipy's weights for any number of nodes, odd or even.
    """
    from scipy.integrate import simpson

    return simpson(np.eye(phi.size), x=phi, axis=1) / math.pi


def _row_densities(config: EmissionConfig, lam1_grid, t1, t2, phi):
    """The phi-mean density on the (t1, t2) grid of theta1, theta2, one array per lambda1.

    phi holds the Simpson nodes of the mean over [0, pi].  Yields arrays of
    shape (t1.size, t2.size), zero where there is no partner or the density
    is undefined, and all zero for a lambda1 where the model is invalid.
    The partners come from one solve_tabulated call per block of rows, the
    phi-mean from blocks of theta1 rows (emission._row_blocks); the density
    is formed one row at a time.  See _total_count_once for the factoring.
    """
    kin = config.kin
    lam1_grid = np.asarray(lam1_grid, dtype=float)
    cos_phi = np.cos(phi)
    theta1, theta2 = t1[:, None], t2[None, :]
    cos_t1, sin_t1 = np.cos(theta1), np.sin(theta1)
    cos_t2, sin_t2 = np.cos(theta2), np.sin(theta2)
    partners = kinematics.partner_table(cos_t2, kin, config.material)
    # the factors of the phi axis that do not depend on lambda
    cos_psi = (cos_t1 * cos_t2)[..., None] + (sin_t1 * sin_t2)[..., None] * cos_phi
    psi_factor = 1.0 + cos_psi * cos_psi
    del cos_psi
    weights = _phi_mean_weights(phi)
    n1_grid, ng1_grid, bad1 = _index_fields(config.material, lam1_grid)
    rows = lam1_grid, n1_grid, ng1_grid, bad1
    for b in emission._row_blocks(lam1_grid.size, t1.size * t2.size):
        solved = iter(kinematics.solve_tabulated(lam1_grid[b][~bad1[b]], theta1, partners))
        for lam1, n1, ng1, bad in zip(*(a[b].tolist() for a in rows)):
            if bad:
                yield np.zeros((t1.size, t2.size))
                continue
            lam2 = next(solved)
            none = np.isnan(lam2)
            lam2 = np.where(none, 1.0, lam2)
            n2, ng2, bad2 = _index_fields(config.material, lam2)
            k1 = TWO_PI * n1 / lam1
            k2 = TWO_PI * n2 / lam2
            kx = kinematics._on_shell_sum(lam1, lam2, kin)
            ky1, ky2 = k1 * sin_t1, k2 * sin_t2
            angular = np.empty(lam2.shape)
            for c in emission._row_blocks(t1.size, t2.size * phi.size):  # ky = ky1 + ky2 cos(phi)
                w = ky2[c, :, None] * cos_phi
                w += ky1[c, :, None]
                emission._transverse_weight(config.profile, w)
                w *= psi_factor[c]
                np.matmul(w, weights, out=angular[c])
            values, csch = emission._density_kernel(
                config, lam1, lam2, (n1, ng1), (n2, ng2), (kx, 0.0, 0.0),
                cos_t1, cos_t2, angular,
            )
            yield np.where(none | bad2 | csch, 0.0, values)
        del solved  # the block's partners, before the next block is solved


def _total_count_once(
    config: EmissionConfig,
    half_angle: float,
    lam_window: tuple[float, float],
    n_lam: int,
    n_t1: int,
    n_t2: int,
    n_phi: int,
) -> float:
    """One quadrature pass of the density over (lambda1, theta1, theta2).

    The integrand is emission._density_kernel averaged over the relative
    azimuth phi of the pair, with kz = 0 and the partner wavelength fixed
    by the constraint at every node.  The pass builds one partner table of
    its theta2 nodes (kinematics.partner_table) and solves the partners of
    its lambda1 rows in blocks of rows (_row_densities).

    The density depends on phi only through 1 + cos(psi)^2, with
    cos(psi) = cos(theta1) cos(theta2) + sin(theta1) sin(theta2) cos(phi),
    and the transverse weight exp(-sigma_y^2 ky^2) of the form factor, with
    ky = k1 sin(theta1) + k2 sin(theta2) cos(phi); ff(kx, 0, 0), the csch^2
    mask and every other factor depend on the (theta1, theta2) cell alone.
    So the pass builds 1 + cos(psi)^2 and the Simpson weights of the
    phi-mean once; each row averages their product with the transverse
    weight by matrix products and evaluates the kernel on the cells with
    ksum = (kx, 0, 0): the Simpson rule over phi on every node, reordered.

    Known gap: with kz = 0 this is not the average of density_gaussian
    (kz = k2 sin(theta2) sin(phi)); the fix waits on the total-count measure.
    """
    from scipy.integrate import simpson

    lam1_grid = np.geomspace(lam_window[0], lam_window[1], n_lam)
    t1 = np.linspace(0.0, half_angle, n_t1)
    # the backward photon of an allowed pair always lies in the backward
    # hemisphere relative to the propagation axis
    t2 = np.linspace(math.pi / 2.0, math.pi, n_t2)
    phi = np.linspace(0.0, math.pi, n_phi)  # the integrand is even in phi
    row_vals = np.zeros(n_lam)
    for i, density in enumerate(_row_densities(config, lam1_grid, t1, t2, phi)):
        over_t2 = simpson(density, x=t2, axis=1)
        row_vals[i] = float(simpson(over_t2, x=t1, axis=0))
    return float(simpson(row_vals, x=lam1_grid))


def total_count(
    config: EmissionConfig,
    cone_half_angle_rad: float,
    lam_window: tuple[float, float],
    rel_tol: float = 1e-3,
    base_resolution: tuple[int, int, int, int] = (65, 33, 257, 129),
    max_refinements: int = 1,
) -> TotalCount:
    """Pairs per pulse with the forward photon inside the collection cone.

    Integrates the calibrated spectral density over wavelength and the two
    emission angles, with the partner wavelength fixed by the constraint at
    every node: the smallest root in the transparency window of the
    material, as in solve_partner; nodes with no partner add nothing.  The
    error estimate comes from doubling every axis; refinement repeats until
    the relative change drops below rel_tol or the budget is exhausted, and
    QuadratureNotConvergedError is raised if it is exhausted above rel_tol.
    Raises ValueError unless 0 < cone_half_angle_rad <= pi, lam_window is
    finite with 0 < min < max, rel_tol is positive and finite,
    base_resolution holds four integers of at least 3 (the smallest
    Simpson rule) and max_refinements is an integer >= 0.
    """
    if not 0.0 < cone_half_angle_rad <= math.pi:  # also rejects nan
        raise ValueError(
            f"cone half angle must lie in (0, pi] rad, got {cone_half_angle_rad!r}"
        )
    if not (0.0 < lam_window[0] < lam_window[1] and math.isfinite(lam_window[1])):
        raise ValueError(f"lam_window must be finite with 0 < min < max, got {lam_window!r}")
    if not (rel_tol > 0.0 and math.isfinite(rel_tol)):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    if not (
        isinstance(base_resolution, (tuple, list))
        and len(base_resolution) == 4
        and all(isinstance(n, numbers.Integral) and n >= 3 for n in base_resolution)
    ):
        raise ValueError(
            f"base_resolution must be four integers, each >= 3, got {base_resolution!r}"
        )
    if not (isinstance(max_refinements, numbers.Integral) and max_refinements >= 0):
        raise ValueError(f"max_refinements must be an integer >= 0, got {max_refinements!r}")
    lam_scan = np.geomspace(lam_window[0], lam_window[1], 64)
    n_scan, _, bad_scan = _index_fields(config.material, lam_scan)
    if not np.any(~bad_scan & (config.kin.beta * n_scan > 1.0)):
        raise NoEmissionError(
            "perturbation is slower than the in-medium phase velocity over the "
            "whole wavelength window; no pairs are emitted"
        )
    res = tuple(base_resolution)
    prev = _total_count_once(config, cone_half_angle_rad, lam_window, *res)
    rel_err = None
    for _ in range(max_refinements):
        res = tuple(2 * (n - 1) + 1 for n in res)
        cur = _total_count_once(config, cone_half_angle_rad, lam_window, *res)
        scale = max(abs(cur), 1e-300)
        rel_err = abs(cur - prev) / scale
        prev = cur
        if rel_err <= rel_tol:
            break
    if (
        rel_err is not None
        and math.isfinite(rel_err)
        and rel_err > rel_tol
        and prev != 0.0
    ):
        raise QuadratureNotConvergedError(
            f"total-count quadrature stalled at relative error {rel_err:.2e} "
            f"(tolerance {rel_tol:.2e})"
        )
    return TotalCount(
        pairs_per_pulse=prev,
        cone_half_angle_rad=cone_half_angle_rad,
        length_m=config.length_m,
        rel_error=rel_err,
    )


# ---------------------------------------------------------------------------
# fast light

# Resonance parameters that put the group-index dip on the emission maximum
# deeply enough for a near-tenfold enhancement while keeping two distinct
# spectral maxima (beta = 20, sigma = 1 um, fused silica).
FAST_LIGHT_AMPLITUDE = 0.06
FAST_LIGHT_WIDTH_UM = 0.01


def count_peaks(values: np.ndarray) -> int:
    """Distinct maxima above half the global maximum.

    A 3x3 box smoothing first keeps single-cell grid noise from making
    peaks; the maxima are then the connected components (8-connectivity)
    of the above-threshold region, which a narrow ridge does not fragment.
    """
    from scipy.ndimage import label, uniform_filter

    smooth = uniform_filter(values, size=3, mode="nearest")
    vmax = float(smooth.max())
    if vmax <= 0.0:
        return 0
    mask = smooth >= 0.5 * vmax
    _, count = label(mask, structure=np.ones((3, 3), dtype=int))
    return int(count)


def fast_light_study(
    config: EmissionConfig,
    resonance: LorentzianResonance,
    window: tuple[float, float] | None = None,
    resolution: int = 161,
) -> FastLightStudy:
    """Collinear grids with and without the Lorentzian correction.

    enhancement is the ratio of grid maxima; peak_count counts distinct
    maxima above half the global maximum in the modified grid.
    """
    base_model = config.material
    modified_model = DispersionModel(
        base=base_model.base, resonances=base_model.resonances + (resonance,)
    )
    config_mod = dataclasses.replace(config, material=modified_model)
    if window is None:
        base_max = find_maximum(config)
        window = (0.75 * base_max.lambda1_um, 1.35 * base_max.lambda2_um)
    grid_base = collinear_grid(config, window, window, resolution)
    grid_mod = collinear_grid(config_mod, window, window, resolution)
    base_peak = grid_base.max_value()
    if base_peak <= 0.0:
        raise NoEmissionError("no emission in the fast-light comparison window")
    return FastLightStudy(
        grid_base=grid_base,
        grid_modified=grid_mod,
        enhancement=grid_mod.max_value() / base_peak,
        peak_count=count_peaks(grid_mod.values),
    )


def calibrate_reference_row() -> float:
    """Normalization constant pinned to the reference emission maximum.

    Evaluates the uncalibrated collinear maximum for fused silica at
    beta = 10, sigma = 1 um, eta = 0.001, L = 5 cm and returns the ratio of
    the reference density to it.  DEFAULT_CALIBRATION stores this value.
    """
    from . import materials

    config = EmissionConfig(
        material=materials.get_material("fused_silica"),
        profile=GaussianProfile(eta=0.001, sigma=REFERENCE_SIGMA_UM),
        kin=PerturbationKinematics(beta=REFERENCE_BETA),
        length_m=REFERENCE_LENGTH_M,
        calibration=1.0,
    )
    peak = find_maximum(config)
    return REFERENCE_MAX_DENSITY / peak.density
