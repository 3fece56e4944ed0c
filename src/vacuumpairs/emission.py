"""Pair-emission spectral densities.

Evaluates the differential number of emitted photon pairs per unit
wavenumber of each photon, for a Gaussian or tanh-shaped refractive-index
perturbation moving at v = beta*c through a dispersive medium.  The pair
constraint k1x + k2x = (omega1 + omega2)/v is consumed analytically; the
squared constraint delta is regularized by delta(0) -> L/(2 pi) with L the
interaction length.

Normalization convention (stored in every config snapshot): wavenumbers in
um^-1, mode measure d^3k/(2 pi)^3 per photon, a single 2 pi azimuthal
factor, delta(0) = L/(2 pi) with L in um, and the constraint delta consumed
with the inverse gradient norm of the residual over (k1x, k2x), and a
spectral weight of half the summed inverse optical wavelength, times one
calibration constant (DEFAULT_CALIBRATION).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import dispersion, kinematics
from .dispersion import DispersionModel
from .kinematics import PerturbationKinematics, PhotonMode

TWO_PI = 2.0 * math.pi

NG_FLOOR = 1e-3  # |n_g| below this is treated as singular (resonance center)
KX_FLOOR = 1e-6  # um^-1, csch^2 singularity guard for the tanh profile

# Fixed once against the tabulated reference maximum (beta=10, sigma=1 um,
# fused silica); see calibrate_reference_row() in the analysis module.
DEFAULT_CALIBRATION = 0.3300190266624311

CONVENTION = (
    "per-dk-um; d3k/(2pi)^3 per photon; single 2pi azimuth; "
    "delta(0)=L/2pi; inverse-gradient delta consumption; "
    "spectral weight (n1/lam1+n2/lam2)/2 per um^-1"
)

FLAG_OK = 0
FLAG_FORBIDDEN = 1  # no real emission angle for this cell
FLAG_HOLE = 2  # numerical singularity (pole, negative radicand, n_g ~ 0)

# cells per row block of a collinear grid and of a total pass: a block's float64
# temporaries stay under glibc's 128 KiB mmap threshold, so the heap reuses them
_BLOCK_CELLS = 15_000

# the cap on a phi block's product (cells x n_phi) @ (n_phi x 6) in _cone_rows:
# OpenBLAS runs a matrix product (m x k) @ (k x n) on its own threads only
# above m n k = 65536 * 4 (SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD)
_BLAS_THREADED_MNK = 65536 * 4


class EmissionError(ValueError):
    """Base class for emission-evaluation failures."""


class ConstraintViolatedError(EmissionError):
    """The mode pair does not satisfy the kinematic constraint."""


class GroupIndexSingularError(EmissionError):
    """|n_g| below NG_FLOOR: the density diverges at a resonance center."""


class CschSingularError(EmissionError):
    """|k1x + k2x| below KX_FLOOR: csch^2 pole of the tanh profile."""


def _finite_powers(*pairs) -> bool:
    """Whether every x**p of the (x, p) pairs is a finite float.

    The kernels take these powers of the profile sizes; Python's float **
    raises OverflowError where numpy would give inf.
    """
    try:
        return all(math.isfinite(x**p) for x, p in pairs)
    except OverflowError:
        return False


@dataclass(frozen=True)
class GaussianProfile:
    """Isotropic Gaussian index bump: amplitude eta, radius sigma (um)."""

    eta: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.eta >= 0.0 and math.isfinite(self.eta)):
            raise ValueError("eta must be >= 0 and finite (only the amplitude matters)")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
        if not _finite_powers((self.eta, 2), (self.sigma, 6)):
            raise ValueError("eta^2 and sigma^6 must be finite floats")


@dataclass(frozen=True)
class TanhProfile:
    """tanh front along x with Gaussian transverse profile (all sizes in um)."""

    eta: float
    sigma_x: float
    sigma_y: float
    sigma_z: float

    def __post_init__(self) -> None:
        if not (self.eta >= 0.0 and math.isfinite(self.eta)):
            raise ValueError("eta must be >= 0 and finite")
        sigmas = (self.sigma_x, self.sigma_y, self.sigma_z)
        if not all(s > 0.0 and math.isfinite(s) for s in sigmas):
            raise ValueError("all sigmas must be positive and finite")
        if not _finite_powers(
            (self.eta, 2), (math.prod(sigmas), 2), (self.sigma_y, 2), (self.sigma_z, 2)
        ):
            raise ValueError(
                "eta^2, (sigma_x sigma_y sigma_z)^2, sigma_y^2 and sigma_z^2 must be finite floats"
            )


@dataclass(frozen=True)
class EmissionConfig:
    """Everything needed to evaluate densities: medium, profile, velocity, L."""

    material: DispersionModel
    profile: GaussianProfile | TanhProfile
    kin: PerturbationKinematics
    length_m: float
    calibration: float = DEFAULT_CALIBRATION

    def __post_init__(self) -> None:
        if not isinstance(self.material, DispersionModel):
            raise TypeError(f"material is a {type(self.material).__name__}, not a DispersionModel")
        if not (self.length_m > 0.0 and math.isfinite(self.length_m)):
            raise ValueError("interaction length must be positive and finite")
        if not (self.calibration > 0.0 and math.isfinite(self.calibration)):
            raise ValueError("calibration must be positive and finite")

    @property
    def length_um(self) -> float:
        return self.length_m * 1e6


# ---------------------------------------------------------------------------
# profile form factors (squared Fourier transforms, delta stripped)

# e^x < 2^-1075, half the least subnormal, for x below ln(2^-1075) = -745.133...,
# so numpy's exp rounds every argument at or below this to exactly +0.0
_EXP_ZERO_ARG = -745.2


def _form_exp(x):
    """np.exp(x), which the form factors take, with the bits of np.exp on every element.

    An array x is the caller's own temporary, which exp overwrites, unless an
    element is at or below _EXP_ZERO_ARG: then exp runs only on the others (and
    nan) and those are the +0.0 that exp would round them to, as numpy's exp is
    an order of magnitude slower on them.  A float goes to plain np.exp.
    """
    if not isinstance(x, np.ndarray):
        return np.exp(x)
    under = x <= _EXP_ZERO_ARG
    if not under.any():
        return np.exp(x, out=x)
    return np.exp(x, out=np.zeros_like(x), where=np.logical_not(under, out=under))


def gaussian_form_factor(profile: GaussianProfile, kx, ky, kz):
    """sigma^6 exp(-sigma^2 |K|^2) with K the summed pair momentum (um^-1).

    The exp is _form_exp's: exactly +0.0 at or below _EXP_ZERO_ARG.
    """
    s2 = profile.sigma * profile.sigma
    arg = kx * kx + ky * ky
    if not isinstance(kz, float) or kz:  # + 0.0 keeps a sum of squares: +0.0 or more, or nan
        arg = arg + kz * kz
    arg *= -s2
    ff = _form_exp(arg)
    ff *= profile.sigma**6
    return ff


def tanh_form_factor(profile: TanhProfile, kx, ky, kz):
    """sx^2 sy^2 sz^2 (pi/2) csch^2(pi sx kx / 2) exp(-sy^2 ky^2 - sz^2 kz^2).

    The exp is _form_exp's: exactly +0.0 at or below _EXP_ZERO_ARG.
    """
    arg = 0.5 * math.pi * profile.sigma_x * np.asarray(kx, dtype=float)
    # np.square, not ** 2, which on a float is libm pow (see _density_kernel)
    csch2 = 1.0 / np.square(np.sinh(arg))
    transverse = -profile.sigma_y**2 * np.square(ky)
    if not isinstance(kz, float) or kz:  # x - 0.0 is x
        transverse = transverse - profile.sigma_z**2 * np.square(kz)
    csch2 *= (profile.sigma_x * profile.sigma_y * profile.sigma_z) ** 2 * (math.pi / 2.0)
    return csch2 * _form_exp(transverse)


def _transverse_weight(profile, ky):
    """exp(-sy^2 ky^2), with sy = sigma for the Gaussian, written over the float array ky.

    The transverse part of either form factor at kz = 0: ff(kx, ky, 0)
    equals ff(kx, 0, 0) times this weight, up to rounding; the form factors
    keep their own arithmetic, whose last bits the collinear maxima depend on.

    The weight is an exact 0.0 where its argument is at or below -690: numpy's
    exp is slow below -708.4, and weights near the subnormal range slow the
    products that use them.  Only weights below exp(-690), about 2e-300, change;
    one that exp underflows to 0.0 stays 0.0, where a plain floor at -690
    would make it 2e-300.  This flush is the total's own rule and does not
    keep the bits of exp: the form factors' _form_exp does.
    """
    sy = profile.sigma if isinstance(profile, GaussianProfile) else profile.sigma_y
    np.square(ky, out=ky)
    ky *= -sy * sy
    live = ky > -690.0
    np.maximum(ky, -690.0, out=ky)
    np.exp(ky, out=ky)
    ky *= live
    return ky


# ---------------------------------------------------------------------------
# scalar point densities

def _mode_pair_density(mode1: PhotonMode, mode2: PhotonMode, config: EmissionConfig) -> float:
    """The scalar wrapper of _density_kernel behind density_gaussian/density_tanh.

    Raises where the density is undefined, in this order: a bad wavelength
    (its DispersionError, photon 1 first), a pair off the constraint, the
    tanh csch^2 pole, |n_g| below NG_FLOOR.  Runs on Python floats, with
    the bits of a 1-element array call (see _density_kernel).
    """
    model = config.material
    kin = config.kin
    lam1, lam2 = float(mode1.wavelength), float(mode2.wavelength)
    n1, ng1, bad1 = dispersion.index_fields(model, lam1)
    n2, ng2, bad2 = dispersion.index_fields(model, lam2)
    if bad1 or bad2:
        raise dispersion._bad_sample_error(model, lam1 if bad1 else lam2)
    cos_t1, cos_t2 = math.cos(mode1.theta), math.cos(mode2.theta)
    residual = float(kinematics.constraint_residual(lam1, n1, cos_t1, lam2, n2, cos_t2, kin))
    tol = kinematics.constraint_tolerance(lam1, lam2, kin)
    if abs(residual) > tol:
        raise ConstraintViolatedError(
            f"pair constraint residual {residual:.3e} um^-1 exceeds tolerance {tol:.3e}"
        )
    k1, k2 = float(TWO_PI * n1 / lam1), float(TWO_PI * n2 / lam2)
    sin_t1, sin_t2 = math.sin(mode1.theta), math.sin(mode2.theta)
    s1, s2 = k1 * sin_t1, k2 * sin_t2
    ksum = (
        k1 * cos_t1 + k2 * cos_t2,
        s1 * math.cos(mode1.phi) + s2 * math.cos(mode2.phi),
        s1 * math.sin(mode1.phi) + s2 * math.sin(mode2.phi),
    )
    if isinstance(config.profile, TanhProfile) and abs(ksum[0]) < KX_FLOOR:
        raise CschSingularError("k1x + k2x too close to the csch^2 pole")
    for lam, ng in ((lam1, ng1), (lam2, ng2)):
        if abs(ng) < NG_FLOOR:
            raise GroupIndexSingularError(f"|n_g| = {abs(ng):.2e} < {NG_FLOOR} at {lam} um")
    cos_psi = cos_t1 * cos_t2 + sin_t1 * sin_t2 * math.cos(mode1.phi - mode2.phi)
    value, _ = _density_kernel(
        config, lam1, lam2, (n1, ng1), (n2, ng2), ksum, cos_t1, cos_t2,
        1.0 + cos_psi * cos_psi,
    )
    return float(value)


def density_gaussian(mode1: PhotonMode, mode2: PhotonMode, config: EmissionConfig) -> float:
    """Pair density for a Gaussian perturbation in the dispersive medium."""
    if not isinstance(config.profile, GaussianProfile):
        raise EmissionError("density_gaussian requires a Gaussian profile")
    return _mode_pair_density(mode1, mode2, config)


def density_tanh(mode1: PhotonMode, mode2: PhotonMode, config: EmissionConfig) -> float:
    """Pair density for a tanh front with Gaussian transverse profile."""
    if not isinstance(config.profile, TanhProfile):
        raise EmissionError("density_tanh requires a tanh profile")
    return _mode_pair_density(mode1, mode2, config)


# ---------------------------------------------------------------------------
# array-safe field evaluation (no exceptions; bad cells are masked)

def _index_fields(model, lam):
    """n, n_g and a bad-cell mask; adds the group-index floor to the mask."""
    n, ng, bad = dispersion.index_fields(model, lam)
    return n, ng, bad | (np.abs(ng) < NG_FLOOR)


@dataclass
class PairDensityGrid:
    """Sampled pair density over (lambda1, lambda2) in collinear geometry.

    Photon 1 is emitted exactly forward (theta1 = 0); for every grid cell
    photon 2 takes the polar angle implied by the pair constraint (theta2 =
    pi exactly on the constraint curve).  Cells with no real emission angle
    are flagged FORBIDDEN and cells hitting numerical singularities are
    flagged HOLE; both carry density 0.  An ok cell whose density overflows
    (huge sizes) keeps its inf or nan.
    """

    lambda1_um: np.ndarray
    lambda2_um: np.ndarray
    values: np.ndarray  # shape (len(lambda1), len(lambda2))
    flags: np.ndarray  # int codes, same shape

    def max_value(self) -> float:
        return float(np.max(self.values))


def _density_kernel(
    config: EmissionConfig, lam1, lam2, fields1, fields2, ksum, cos_t1, cos_t2, angular
):
    """Calibrated pair density of any pair geometry; every density path calls it.

    fields1/fields2 are (n, n_g) of each photon, cos_t1/cos_t2 the cosines
    of their polar angles and ksum = (kx, ky, kz) the summed pair momentum
    (um^-1).  angular multiplies the density: 1 + cos(psi)^2 of one pair
    geometry, with psi the angle between the two photons, or a mean of
    that factor times the transverse weight over an azimuth (the total
    count, with ksum = (kx, 0, 0)).  Returns (values, csch), where csch
    marks the tanh cells on the csch^2 pole, evaluated at kx = 1; no cell
    is masked.  The wavelengths must be valid: they are not checked here.

    Any argument may be a Python float or an array; cos_t1 and cos_t2
    broadcast to the shape of the wavelengths.  On floats the kernel gives
    the bits of a 1-element array call, because every square is x * x or
    np.square (a float ** 2 is libm pow), the products keep their order,
    and exp, hypot and sinh stay numpy's.
    """
    kin, profile = config.kin, config.profile
    (n1, ng1), (n2, ng2) = fields1, fields2
    kx, ky, kz = ksum
    k1 = TWO_PI * n1 / lam1
    k2 = TWO_PI * n2 / lam2
    w1, w2 = dispersion._omega(lam1), dispersion._omega(lam2)
    v_um = kin.v_um_s
    # huge sizes overflow to inf or nan here, a wide tanh front's sinh too;
    # callers mask or reject those
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if isinstance(profile, GaussianProfile):
            csch = False
            ff = gaussian_form_factor(profile, kx, ky, kz)
        else:
            csch = np.abs(kx) < KX_FLOOR
            ff = tanh_form_factor(profile, np.where(csch, 1.0, kx) if csch.any() else kx, ky, kz)
        # each product runs in order, in place from its first factor of the wavelengths'
        # shape (t = a * b; t *= c has the bits of a * b * c); angular and ksum may be wider
        sq = n1 + n2
        sq *= sq  # np.square's bits
        common = profile.eta**2 * math.pi**2 / (v_um * v_um) * w1 * w2
        common *= sq
        common = common * angular
        den = n1 * n1 * ng1 * ng1 * n2
        for f in (n2, ng2, ng2):
            den *= f
        common /= den
        # inverse gradient norm of the residual over (k1x, k2x): symmetric in
        # the two photons, so the density keeps its exchange symmetry
        g1 = 1.0 - cos_t1 / (kin.beta * ng1)
        g2 = 1.0 - cos_t2 / (kin.beta * ng2)
        jac = 1.0 / np.hypot(g1, g2)
        # the mean pair wavenumber weights the spectral density (um^-1); the
        # bits of 0.5 * (k1 + k2) / TWO_PI, as halving is exact
        weight = (k1 + k2) / (2.0 * TWO_PI)
        measure = k1 * k1 * k2
        for f in (k2, jac, weight, config.length_um / TWO_PI):
            measure *= f
        measure /= TWO_PI**5
        common *= config.calibration
        values = common * ff
        values *= measure
        return values, csch


def _row_blocks(rows: int, cells_per_row: int, cap: int | None = None) -> list[slice]:
    """The fewest slices of whole rows, each of at most cap (_BLOCK_CELLS) cells or one row.

    Their sizes differ by at most one.
    """
    blocks = -(-rows // max(1, (cap or _BLOCK_CELLS) // cells_per_row))
    return [slice(rows * i // blocks, rows * (i + 1) // blocks) for i in range(blocks)]


def _grid_fields(config: EmissionConfig, lam1, lam2):
    """Density over the grid of two 1-D wavelength axes, in row blocks.

    Returns (values, flags) of shape (len(lam1), len(lam2)).  lam1 is the
    forward photon (theta1 = 0); the partner angle follows from the
    constraint at each cell.  The per-axis fields are evaluated once, the
    cells in blocks of whole rows of at most _BLOCK_CELLS cells.

    Each block flags every cell first: HOLE where a wavelength is bad or
    |n_g| is below NG_FLOOR, or on the tanh csch^2 pole |k1x + k2x| <
    KX_FLOOR, else FORBIDDEN where |cos(theta2)| > 1.  The density runs only
    on the block's span: the columns from the first to the last that hold an
    ok cell, rounded out to whole eighths of the row (ceil(len(lam2) / 8)
    columns each), which keeps the span temporaries to a few sizes that the
    heap reuses.  Every other cell is an exact 0, and a block without an ok
    cell runs no density at all.  Every cell runs the same operations on the
    same operands in any blocking or span.

    One pass per block: values start as zeros, the flags are written in
    place, the hole mask is built only where the block has a bad sample or
    a tanh pole, and no array pass runs that cannot change a value.
    """
    model = config.material
    tanh = isinstance(config.profile, TanhProfile)
    lam1, lam2 = lam1[:, None], lam2[None, :]
    n1, ng1, bad1 = _index_fields(model, lam1)
    n2, ng2, bad2 = _index_fields(model, lam2)
    k1 = TWO_PI * n1 / lam1
    k2 = TWO_PI * n2 / lam2
    values = np.zeros((lam1.size, lam2.size))
    flags = np.empty(values.shape, dtype=np.int64)
    eighth = -(-lam2.size // 8)
    for b in _row_blocks(lam1.size, lam2.size):
        s_total = kinematics._on_shell_sum(lam1[b], lam2, config.kin)
        # cos(theta2) = k2x / k2
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_t2 = s_total - k1[b]
            cos_t2 /= k2
        zero = np.abs(cos_t2) > 1.0
        np.copyto(flags[b], zero)  # FLAG_FORBIDDEN is True, FLAG_OK False
        # the on-shell sum is positive: no pole where the block's least sum clears KX_FLOOR
        pole = tanh and s_total.min() < KX_FLOOR
        if pole or bad1[b].any() or bad2.any():
            hole = bad1[b] | bad2
            if pole:
                hole |= np.abs(s_total) < KX_FLOOR
            np.copyto(flags[b], FLAG_HOLE, where=hole)
            zero |= hole
            del hole
        cols = np.flatnonzero(~zero.all(axis=0))
        if cols.size:
            span = slice(
                cols[0] // eighth * eighth, min(lam2.size, -(-(cols[-1] + 1) // eighth) * eighth)
            )
            cos_span = np.clip(cos_t2[:, span], -1.0, 1.0, out=cos_t2[:, span])
            angular = cos_span * cos_span
            # ky = k2 sin(theta2), then angular = 1 + cos(theta2)^2; clipped,
            # cos(theta2)^2 is at most 1, so 1 - cos(theta2)^2 is +0.0 or more (or nan)
            ky = np.subtract(1.0, angular)
            np.sqrt(ky, out=ky)
            ky *= k2[:, span]
            angular += 1.0
            block, _ = _density_kernel(
                config, lam1[b], lam2[:, span], (n1[b], ng1[b]), (n2[:, span], ng2[:, span]),
                (s_total[:, span], ky, 0.0), 1.0, cos_span, angular,
            )
            # an ok cell keeps a density that overflowed, so callers can reject it
            np.copyto(values[b, span], block, where=np.logical_not(zero[:, span]))
            del cos_span, angular, ky, block
        # each del frees a block's temporaries before the next block makes its
        # own, so the heap reuses them
        del s_total, cos_t2, zero, cols
    return values, flags


def _collinear_scan(config: EmissionConfig, lam1: np.ndarray) -> np.ndarray:
    """Collinear density along the constraint curve (theta1 = 0, theta2 = pi) at each lam1.

    Array form of density_gaussian/density_tanh at the solve_partners roots
    in the cached theta2 = pi table, and 0 exactly where they raise: no
    partner, an invalid wavelength or |n_g| below NG_FLOOR, a constraint
    residual beyond its tolerance, or the tanh csch^2 pole.
    """
    model = config.material
    lam2 = kinematics.solve_partners(lam1, 0.0, kinematics._shared_table(-1.0, config.kin, model))
    none = np.isnan(lam2)
    lam2 = np.where(none, 1.0, lam2)
    n1, ng1, bad1 = _index_fields(model, lam1)
    n2, ng2, bad2 = _index_fields(model, lam2)
    # the residual and kx in the arithmetic of the scalar path, at
    # cos(theta1) = 1 and cos(theta2) = -1
    residual = kinematics.constraint_residual(lam1, n1, 1.0, lam2, n2, -1.0, config.kin)
    violated = np.abs(residual) > kinematics.constraint_tolerance(lam1, lam2, config.kin)
    kx = TWO_PI * n1 / lam1 - TWO_PI * n2 / lam2
    # 1 + cos(psi)^2 = 2 for antiparallel photons
    values, csch = _density_kernel(
        config, lam1, lam2, (n1, ng1), (n2, ng2), (kx, 0.0, 0.0), 1.0, -1.0, 2.0
    )
    return np.where(none | bad1 | bad2 | violated | csch, 0.0, values)


def _cone_rows(config: EmissionConfig, t1, t2, phi, phi_rules):
    """The phi-mean density on the (t1, t2) grid of theta1, theta2, as rows(lam1).

    rows(lam1) returns one (lam1.size, 2, t1.size, t2.size) array: the mean
    over the phi nodes on [0, pi] under each rule of phi_rules, a (2, phi.size)
    array of weights, with the partner wavelength fixed by the constraint.  It
    is zero where there is no partner or the density is undefined, and for a
    lambda1 where the model is invalid or |n_g| is below NG_FLOOR.  The setup
    is built once and only read, so rows may run on several threads at once;
    a cell's bits do not depend on the other lambda1 values of its call.

    The density depends on phi only through 1 + cos(psi)^2, with
    cos(psi) = cos(theta1) cos(theta2) + sin(theta1) sin(theta2) cos(phi),
    and the transverse weight exp(-sigma_y^2 ky^2) of the form factor, with
    ky = k1 sin(theta1) + k2 sin(theta2) cos(phi); every other factor depends
    on the (lambda1, theta1, theta2) cell alone.  1 + cos(psi)^2 is quadratic
    in cos(phi), so a mean is the cell's three coefficients times the moments
    of the weight times 1, cos(phi) and cos(phi)^2, times the kernel at ksum
    = (kx, 0, 0).  The moments are matrix products over blocks of cells whose
    (cells x n_phi) @ (n_phi x 6) stays within _BLAS_THREADED_MNK.

    Known gap: with kz = 0 this is not the average of density_gaussian
    (kz = k2 sin(theta2) sin(phi)); the fix waits on the total-count measure.
    """
    kin = config.kin
    cos_phi = np.cos(phi)
    theta1, theta2 = t1[:, None], t2[None, :]
    cos_t1, sin_t1 = np.cos(theta1), np.sin(theta1)
    cos_t2, sin_t2 = np.cos(theta2), np.sin(theta2)
    partners = kinematics.partner_table(cos_t2, kin, config.material)
    # 1 + cos(psi)^2 = (1 + c1^2 c2^2) + 2 c1 c2 s1 s2 cos(phi) + s1^2 s2^2 cos(phi)^2
    cc, ss = cos_t1 * cos_t2, sin_t1 * sin_t2
    coef = np.stack([1.0 + cc * cc, 2.0 * cc * ss, ss * ss], axis=-1)
    powers = np.stack([np.ones_like(cos_phi), cos_phi, cos_phi * cos_phi])
    # in C order: OpenBLAS (SkylakeX kernels) runs a product of at most 200 cells
    # with the transposed, F-ordered operand on a small-matrix kernel that rounds
    # otherwise than its gemm, which would tie a cell's bits to its phi blocks
    weights = (phi_rules[:, None, :] * powers).reshape(6, phi.size).T
    weights = np.ascontiguousarray(weights) / math.pi

    def rows(lam1: np.ndarray) -> np.ndarray:
        fields1 = _index_fields(config.material, lam1)
        lam1, n1, ng1, bad1 = (a[:, None, None] for a in (lam1, *fields1))
        # a lambda1 row that dispersion flags gets nan partners
        lam2 = kinematics.solve_partners(lam1, theta1, partners)
        mask = np.isnan(lam2) | bad1
        lam2[mask] = 1.0
        n2, ng2, bad2 = _index_fields(config.material, lam2)
        mask |= bad2
        # ky = ky1 + ky2 cos(phi), one (lambda1, theta1, theta2) cell per row
        ky1 = np.broadcast_to(TWO_PI * n1 / lam1 * sin_t1, lam2.shape).ravel()
        ky2 = (TWO_PI * n2 / lam2 * sin_t2).ravel()
        moments = np.empty((lam2.size, 6))
        for c in _row_blocks(lam2.size, phi.size, _BLAS_THREADED_MNK // 6):
            w = ky2[c, None] * cos_phi
            w += ky1[c, None]
            np.matmul(_transverse_weight(config.profile, w), weights, out=moments[c])
            del w  # each del frees a block temporary early: two threads' blocks overlap
        del ky1, ky2
        # each rule's mean: the cell's three coefficients times its moments, summed in place
        moments = moments.reshape(lam2.shape + (2, 3))
        angular = np.empty((len(lam2), 2) + lam2.shape[1:])
        for r, mean in enumerate(angular.swapaxes(0, 1)):
            np.multiply(coef[..., 0], moments[..., r, 0], out=mean)
            mean += coef[..., 1] * moments[..., r, 1]
            mean += coef[..., 2] * moments[..., r, 2]
        del moments
        kx = kinematics._on_shell_sum(lam1, lam2, kin)
        values, csch = _density_kernel(
            config, lam1, lam2, (n1, ng1), (n2, ng2), (kx, 0.0, 0.0), cos_t1, cos_t2, 1.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):  # a huge L_m overflows
            angular *= values[:, None]
        np.copyto(angular, 0.0, where=(mask | csch)[:, None])
        return angular

    return rows


def _check_window(name: str, window) -> None:
    """Raise ValueError unless window is exactly two finite bounds with 0 < min < max."""
    if not (len(window) == 2 and 0.0 < window[0] < window[1] < math.inf):  # also rejects nan
        raise ValueError(f"{name} must be two finite bounds with 0 < min < max, got {window!r}")


def _check_count(name: str, value, minimum: int) -> None:
    """Raise ValueError unless value is an integer, not a bool, of at least minimum."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def collinear_grid(
    config: EmissionConfig,
    lambda1_range: tuple[float, float],
    lambda2_range: tuple[float, float],
    resolution: int = 121,
) -> PairDensityGrid:
    """Pair density on a log-spaced (lambda1, lambda2) grid, resolution points per axis.

    Deterministic: every cell runs the same operations in any row
    blocking (see _grid_fields).  Raises ValueError unless each range is two
    finite bounds with 0 < min < max and resolution is an integer >= 2.
    """
    _check_window("lambda1_range", lambda1_range)
    _check_window("lambda2_range", lambda2_range)
    _check_count("resolution", resolution, 2)
    lam1 = np.geomspace(lambda1_range[0], lambda1_range[1], resolution)
    lam2 = np.geomspace(lambda2_range[0], lambda2_range[1], resolution)
    values, flags = _grid_fields(config, lam1, lam2)
    return PairDensityGrid(lambda1_um=lam1, lambda2_um=lam2, values=values, flags=flags)
