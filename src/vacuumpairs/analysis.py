"""Higher-level computations on top of the pair-emission densities.

Maxima of the collinear spectral density, beta sweeps, total pair counts
over a collection cone, and fast-light comparison studies.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import dispersion, emission, kinematics
from .dispersion import DispersionModel, LorentzianResonance
from .emission import (
    EmissionConfig,
    GaussianProfile,
    PairDensityGrid,
    collinear_grid,
    _check_count,
    _check_window,
    _collinear_scan,
)
from .kinematics import PerturbationKinematics, PhotonMode

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
    """No emission: the density is 0 at every node the driver evaluated."""


class QuadratureNotConvergedError(AnalysisError):
    """Adaptive quadrature did not reach the requested relative tolerance."""


@dataclass(frozen=True)
class EmissionMaximum:
    """Location and height of the collinear emission maximum."""

    lambda1_um: float
    lambda2_um: float
    density: float
    beta: float
    # accepted and dropped, as perfbench's tests pass them: the config snapshot holds both
    profile: dataclasses.InitVar[object] = None
    material: dataclasses.InitVar[object] = None


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


def constraint_density(config: EmissionConfig, lam1: float) -> tuple[float, float]:
    """(lambda2, density) on the collinear constraint curve at lambda1.

    Raises NoSignChangeError when no partner exists.
    """
    lam2 = kinematics.solve_partner(lam1, 0.0, math.pi, config.kin, config.material)
    modes = PhotonMode(wavelength=lam1, theta=0.0), PhotonMode(wavelength=lam2, theta=math.pi)
    if isinstance(config.profile, GaussianProfile):
        return lam2, emission.density_gaussian(*modes, config)
    return lam2, emission.density_tanh(*modes, config)


# scipy's golden-section constants, the conjugate rounded to 8 digits as scipy has it
_GOLD_R = 0.61803399
_GOLD_C = 1.0 - _GOLD_R


def _golden(func, xa: float, xb: float, xc: float, xtol: float):
    """(x, func(x)) at a minimum of func by golden section in the bracket (xa, xb, xc).

    A port of scipy.optimize.minimize_scalar(func, bracket=(xa, xb, xc),
    method="golden", options={"xtol": xtol}): the same points in the same
    order, so the same bits.  Raises ValueError, as scipy does, unless xb
    lies strictly between xa and xc and func(xb) is below func at both ends.
    """
    if xa > xc:
        xa, xc = xc, xa
    if not (xa < xb and xb < xc):
        raise ValueError("bracketing values (xa, xb, xc) must satisfy xa < xb < xc")
    fa, fb, fc = func(xa), func(xb), func(xc)
    if not (fb < fa and fb < fc):
        raise ValueError("bracketing values must satisfy f(xb) < f(xa) and f(xb) < f(xc)")
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GOLD_C * (xc - xb)
    else:
        x1, x2 = xb - _GOLD_C * (xb - xa), xb
    f1 = func(x1)
    f2 = func(x2)
    for _ in range(5000):  # scipy's maxiter
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1 = x1, x2
            x2 = _GOLD_R * x1 + _GOLD_C * x3
            f1, f2 = f2, func(x2)
        else:
            x3, x2 = x2, x1
            x1 = _GOLD_R * x2 + _GOLD_C * x0
            f2, f1 = f1, func(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def find_maximum(
    config: EmissionConfig, window: tuple[float, float] = (0.2, 20.0)
) -> EmissionMaximum:
    """Collinear emission maximum in the given lambda1 window.

    The window is clipped to the transparency window of the material, then
    scanned along the constraint curve on a coarse log grid in one array
    pass; every lobe above half the scan maximum is refined by golden section
    (fast-light media can be multimodal) and the highest lobe wins.
    Deterministic.  The refinement, and every value it is compared with, call
    the scalar constraint_density with its _brentq partners: the density is
    flat at the maximum, so root-solver rounding far below its precision
    moves the location.  Both solvers bracket their partners in one cached,
    read-only theta2 = pi table, built at most once per call.  Raises
    ValueError unless window is two finite bounds with 0 < min < max.
    """
    _check_window("window", window)
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
    inner = vals[1:-1]
    lobes = np.flatnonzero((inner > vals[:-2]) & (inner > vals[2:]) & (inner >= 0.5 * peak)) + 1
    best = (density_at(float(lam1_grid[i_max])), float(lam1_grid[i_max]))
    for i in sorted({i_max, *lobes.tolist()}):
        lam1_ref = float(lam1_grid[i])
        if 0 < i < _COARSE_POINTS - 1:
            a, b, c = (math.log(lam1_grid[i - 1]), math.log(lam1_grid[i]),
                       math.log(lam1_grid[i + 1]))
            try:
                x_ref, f_ref = _golden(lambda x: -density_at(math.exp(x)), a, b, c, 1e-10)
                lam1_ref, val_ref = math.exp(x_ref), -f_ref
            except ValueError:
                val_ref = density_at(lam1_ref)
        else:
            val_ref = density_at(lam1_ref)
        if val_ref > best[0]:
            best = (val_ref, lam1_ref)
    density_max, lam1_max = best
    lam2_max, density_max = constraint_density(config, lam1_max)
    return EmissionMaximum(lam1_max, lam2_max, density_max, config.kin.beta)


def beta_sweep(
    config: EmissionConfig,
    betas: list[float],
    window: tuple[float, float] = (0.2, 20.0),
) -> SweepResult:
    """find_maximum for every beta, with monotonicity audits.

    A beta without emission is recorded in failures.  Raises ValueError for
    an empty betas and NoEmissionError, with every failure message, when no
    beta has a maximum.
    """
    if len(betas) == 0:
        raise ValueError("betas must hold at least one beta")
    rows: list[EmissionMaximum] = []
    failures: list[tuple[float, str]] = []
    for beta in betas:
        cfg = dataclasses.replace(config, kin=PerturbationKinematics(beta=float(beta)))
        try:
            rows.append(find_maximum(cfg, window=window))
        except NoEmissionError as exc:
            failures.append((float(beta), str(exc)))
    if not rows:
        raise NoEmissionError("; ".join(msg for _, msg in failures))
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

def _simpson_rule(x: np.ndarray) -> np.ndarray:
    """Each node's weight in scipy.integrate.simpson(f, x=x), bit for bit, for increasing x.

    An odd number of nodes takes the composite rule, a parabola over each
    pair of intervals; an even number takes it up to the second-last node and
    adds Cartwright's correction for the last interval; two nodes take the
    trapezoid.  Node j's weight is the sum scipy forms for f one at j and zero
    elsewhere, in its order of operations: the two parabolas that share an
    even node add their parts, and adding scipy's zeros changes no bit.
    """
    h = np.diff(x)
    if x.size == 2:
        return np.full(2, 0.5 * h[0])
    w = np.zeros(x.size)
    m = x.size - 1 + x.size % 2  # nodes under the composite rule: odd
    h0, h1 = h[0:m - 1:2], h[1:m - 1:2]
    hsum, h0divh1 = h0 + h1, h0 / h1
    sixth = hsum / 6.0
    w[0:m - 1:2] = sixth * (2.0 - 1.0 / h0divh1)
    w[1:m:2] = sixth * (hsum * (hsum / (h0 * h1)))
    w[2:m:2] += sixth * (2.0 - h0divh1)
    if m < x.size:
        # one-element arrays, as in scipy: h1 ** 3 runs numpy's power loop,
        # whose bits can differ from a float's ** by an ulp
        h0, h1 = h[-2:-1], h[-1:]
        alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1 ** 3 / (6 * h0 * (h0 + h1))
        w[-3:] += np.concatenate([-eta, beta, alpha])
    return w


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Rows w with f @ w[0] == simpson(f, x=x), f @ w[1] == simpson(f[::2], x=x[::2]).

    Up to rounding: each weight has scipy's bits (_simpson_rule), the dot
    product sums in its own order.
    """
    weights = np.zeros((2, x.size))
    weights[0] = _simpson_rule(x)
    weights[1, ::2] = _simpson_rule(x[::2])
    return weights


# the most threads a pass runs its row blocks on: no host above 2 CPUs was measured
_MAX_THREADS = 2


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(fn, blocks: list, threads: int) -> list:
    """[fn(b) for b in blocks], on min(threads, len(blocks)) worker threads.

    The caller waits while the workers run the blocks.  The exception of
    the lowest-indexed failing block reaches the caller, blocks not yet
    started are cancelled, and every worker has stopped by then, so no
    thread outlives the call.  Each worker runs under the caller's numpy
    error state, which numpy keeps per thread (1.x) or per context (2.x).
    With one thread the caller runs every block in order.
    """
    threads = min(threads, len(blocks))
    if threads <= 1:
        return [fn(b) for b in blocks]
    from concurrent.futures import ThreadPoolExecutor

    errstate = dict(np.geterr(), call=np.geterrcall())

    def run(b):
        with np.errstate(**errstate):
            return fn(b)

    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(run, blocks))


def _integrate(integrand, half_angle, lam_window, resolution, rel_tol, max_refinements):
    """(total, rel_error): the integral over lambda1 in lam_window and the two angles.

    integrand(t1, t2, phi, phi_rules) returns rows(lam1) as emission._cone_rows
    does: one (lam1.size, 2, t1.size, t2.size) array per block of lambda1
    values.  A pass at resolution (n_lam, n_t1, n_t2, n_phi) puts lambda1 on a
    log grid, theta1 on [0, half_angle], theta2 on [pi/2, pi] (the backward
    photon of an allowed pair lies in the backward hemisphere) and phi on
    [0, pi] (the integrand is even in phi).  Its total is the Simpson rule on
    every node of each axis, its coarse value the rule on every other node:
    on the grid 2(n - 1) + 1 that is the n-node pass's total, up to rounding.
    The lambda1 blocks share no state, so any number of threads (_map_blocks)
    gives the same bits.  Each refinement doubles every axis and runs one
    pass, until rel_error = |total - coarse| / |total| meets rel_tol, and
    QuadratureNotConvergedError is raised if max_refinements passes do not.
    max_refinements = 0 runs one pass at resolution, with rel_error None.
    """
    def one_pass(n_lam, n_t1, n_t2, n_phi):
        lam1 = np.geomspace(lam_window[0], lam_window[1], n_lam)
        t1 = np.linspace(0.0, half_angle, n_t1)
        t2 = np.linspace(math.pi / 2.0, math.pi, n_t2)
        phi = np.linspace(0.0, math.pi, n_phi)
        w_t1, w_t2 = _simpson_weights(t1), _simpson_weights(t2)
        rows = integrand(t1, t2, phi, _simpson_weights(phi))

        def contract(b: slice) -> np.ndarray:  # each row under both theta rules: (rows, 2)
            return np.einsum("brij,ri,rj->br", rows(lam1[b]), w_t1, w_t2)

        blocks = emission._row_blocks(n_lam, n_t1 * n_t2)
        f = np.concatenate(_map_blocks(contract, blocks, min(_MAX_THREADS, _usable_cpus())))
        total, coarse = np.einsum("br,rb->r", f, _simpson_weights(lam1))
        return float(total), float(coarse)

    if max_refinements == 0:
        return one_pass(*resolution)[0], None
    for _ in range(max_refinements):
        resolution = tuple(2 * (n - 1) + 1 for n in resolution)
        total, coarse = one_pass(*resolution)
        rel_err = abs(total - coarse) / max(abs(total), 1e-300)
        if rel_err <= rel_tol:
            break
    if rel_tol < rel_err < math.inf and total != 0.0:
        raise QuadratureNotConvergedError(
            f"total-count quadrature stalled at relative error {rel_err:.2e} "
            f"(tolerance {rel_tol:.2e})"
        )
    return total, rel_err


def total_count(
    config: EmissionConfig,
    cone_half_angle_rad: float,
    lam_window: tuple[float, float],
    rel_tol: float = 1e-3,
    base_resolution: tuple[int, int, int, int] = (17, 9, 65, 33),
    max_refinements: int = 3,
) -> TotalCount:
    """Pairs per pulse with the forward photon inside the collection cone.

    _integrate of emission._cone_rows: the calibrated spectral density over
    wavelength and the two emission angles, with the partner wavelength
    fixed by the constraint at every node (the smallest root in the
    transparency window, as in solve_partner; no partner adds nothing).  The
    defaults start coarse and stop at the first pass that meets rel_tol.
    Raises ValueError unless 0 < cone_half_angle_rad <= pi, lam_window is two
    finite bounds with 0 < min < max, rel_tol is positive and finite,
    base_resolution holds four integers of at least 3 (the smallest Simpson
    rule) and max_refinements is an integer >= 0.  Raises NoEmissionError
    when the total is 0: the density is 0 at every node of the last pass.
    """
    if not 0.0 < cone_half_angle_rad <= math.pi:  # also rejects nan
        raise ValueError(
            f"cone half angle must lie in (0, pi] rad, got {cone_half_angle_rad!r}"
        )
    _check_window("lam_window", lam_window)
    if not (rel_tol > 0.0 and math.isfinite(rel_tol)):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    if not (isinstance(base_resolution, (tuple, list)) and len(base_resolution) == 4):
        raise ValueError(f"base_resolution must be four integers, got {base_resolution!r}")
    for n in base_resolution:
        _check_count("each base_resolution item", n, 3)
    _check_count("max_refinements", max_refinements, 0)
    total, rel_err = _integrate(
        functools.partial(emission._cone_rows, config), cone_half_angle_rad, lam_window,
        base_resolution, rel_tol, max_refinements,
    )
    if total == 0.0:
        raise NoEmissionError(
            f"no emission in [{lam_window[0]}, {lam_window[1]}] um within a "
            f"{math.degrees(cone_half_angle_rad):g} degree cone at beta = {config.kin.beta}: "
            "the density is 0 at every quadrature node"
        )
    return TotalCount(
        pairs_per_pulse=total,
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


def fast_light_window(base_max: EmissionMaximum) -> tuple[float, float]:
    """The default comparison window around the base maximum: 0.75 lambda1 to 1.35 lambda2."""
    return (0.75 * base_max.lambda1_um, 1.35 * base_max.lambda2_um)


def fast_light_study(
    config: EmissionConfig,
    resonance: LorentzianResonance,
    window: tuple[float, float] | None = None,
    resolution: int = 161,
) -> FastLightStudy:
    """Collinear grids with and without the Lorentzian correction.

    enhancement is the ratio of grid maxima; peak_count counts distinct
    maxima above half the global maximum in the modified grid.  window
    defaults to fast_light_window of config's maximum.
    """
    base_model = config.material
    modified_model = DispersionModel(
        base=base_model.base, resonances=base_model.resonances + (resonance,)
    )
    config_mod = dataclasses.replace(config, material=modified_model)
    if window is None:
        window = fast_light_window(find_maximum(config))
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
