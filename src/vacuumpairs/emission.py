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

from . import dispersion, kinematics, materials
from .dispersion import DispersionModel, as_model
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

FLAG_LEGEND = {FLAG_OK: "ok", FLAG_FORBIDDEN: "forbidden", FLAG_HOLE: "hole"}

# cells per row block of a collinear grid and of the total's partner solve:
# a float64 temporary of a block stays below glibc's 128 KiB mmap threshold,
# so it is reused from the heap instead of being mapped and zeroed afresh
_BLOCK_CELLS = 15_000


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
        object.__setattr__(self, "material", as_model(self.material))
        if not (self.length_m > 0.0 and math.isfinite(self.length_m)):
            raise ValueError("interaction length must be positive and finite")
        if not (self.calibration > 0.0 and math.isfinite(self.calibration)):
            raise ValueError("calibration must be positive and finite")

    @property
    def length_um(self) -> float:
        return self.length_m * 1e6


def profile_to_dict(profile) -> dict:
    if isinstance(profile, GaussianProfile):
        return {"shape": "gaussian", "eta": profile.eta, "sigma_um": profile.sigma}
    return {
        "shape": "tanh",
        "eta": profile.eta,
        "sigma_x_um": profile.sigma_x,
        "sigma_y_um": profile.sigma_y,
        "sigma_z_um": profile.sigma_z,
    }


def profile_from_dict(doc: dict):
    shape = doc.get("shape")
    if shape == "gaussian":
        return GaussianProfile(eta=float(doc["eta"]), sigma=float(doc["sigma_um"]))
    if shape == "tanh":
        return TanhProfile(
            eta=float(doc["eta"]),
            sigma_x=float(doc["sigma_x_um"]),
            sigma_y=float(doc["sigma_y_um"]),
            sigma_z=float(doc["sigma_z_um"]),
        )
    raise ValueError(f"unknown profile shape: {shape!r}")


def config_to_dict(config: EmissionConfig) -> dict:
    return {
        "material": materials.model_to_dict(config.material),
        "profile": profile_to_dict(config.profile),
        "beta": config.kin.beta,
        "L_m": config.length_m,
        "calibration": config.calibration,
        "convention": CONVENTION,
    }


# ---------------------------------------------------------------------------
# profile form factors (squared Fourier transforms, delta stripped)

def gaussian_form_factor(profile: GaussianProfile, kx, ky, kz):
    """sigma^6 exp(-sigma^2 |K|^2) with K the summed pair momentum (um^-1)."""
    s2 = profile.sigma * profile.sigma
    return profile.sigma**6 * np.exp(-s2 * (kx * kx + ky * ky + kz * kz))


def tanh_form_factor(profile: TanhProfile, kx, ky, kz):
    """sx^2 sy^2 sz^2 (pi/2) csch^2(pi sx kx / 2) exp(-sy^2 ky^2 - sz^2 kz^2)."""
    arg = 0.5 * math.pi * profile.sigma_x * np.asarray(kx, dtype=float)
    # np.square, not ** 2, which on a float is libm pow (see _density_kernel)
    csch2 = 1.0 / np.square(np.sinh(arg))
    return (
        (profile.sigma_x * profile.sigma_y * profile.sigma_z) ** 2
        * (math.pi / 2.0)
        * csch2
        * np.exp(-profile.sigma_y**2 * np.square(ky) - profile.sigma_z**2 * np.square(kz))
    )


def _transverse_weight(profile, ky):
    """exp(-sy^2 ky^2), with sy = sigma for the Gaussian, written over the float array ky.

    The transverse part of either form factor at kz = 0: ff(kx, ky, 0)
    equals ff(kx, 0, 0) times this weight, up to rounding; the form factors
    keep their own arithmetic, whose last bits the collinear maxima depend on.
    """
    sy = profile.sigma if isinstance(profile, GaussianProfile) else profile.sigma_y
    np.square(ky, out=ky)
    ky *= -sy * sy
    return np.exp(ky, out=ky)


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
    kvec1, kvec2 = _wavevector(k1, mode1), _wavevector(k2, mode2)
    ksum = (kvec1 + kvec2).tolist()
    if isinstance(config.profile, TanhProfile) and abs(ksum[0]) < KX_FLOOR:
        raise CschSingularError("k1x + k2x too close to the csch^2 pole")
    for lam, ng in ((lam1, ng1), (lam2, ng2)):
        if abs(ng) < NG_FLOOR:
            raise GroupIndexSingularError(f"|n_g| = {abs(ng):.2e} < {NG_FLOOR} at {lam} um")
    cos_psi = float(np.dot(kvec1, kvec2)) / (k1 * k2)
    value, _ = _density_kernel(
        config, lam1, lam2, (n1, ng1), (n2, ng2), ksum, cos_t1, cos_t2,
        1.0 + cos_psi * cos_psi,
    )
    return float(value)


def _wavevector(k: float, mode: PhotonMode) -> np.ndarray:
    """(kx, ky, kz) of a photon of wavenumber k along (theta, phi)."""
    st = math.sin(mode.theta)
    return np.array(
        [k * math.cos(mode.theta), k * st * math.cos(mode.phi), k * st * math.sin(mode.phi)]
    )


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

    Any argument may be a Python float or an array.  On floats the kernel
    gives the bits of a 1-element array call, because every square is
    np.square (a float ** 2 is libm pow), the products keep their order,
    and exp, hypot and sinh stay numpy's.
    """
    kin, profile = config.kin, config.profile
    (n1, ng1), (n2, ng2) = fields1, fields2
    kx, ky, kz = ksum
    k1 = TWO_PI * n1 / lam1
    k2 = TWO_PI * n2 / lam2
    if isinstance(profile, GaussianProfile):
        csch = False
        ff = gaussian_form_factor(profile, kx, ky, kz)
    else:
        csch = np.abs(kx) < KX_FLOOR
        ff = tanh_form_factor(profile, np.where(csch, 1.0, kx), ky, kz)
    w1, w2 = dispersion._omega(lam1), dispersion._omega(lam2)
    v_um = kin.v_um_s
    # huge sizes overflow to inf or nan here; callers mask or reject those
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        common = (
            profile.eta**2
            * math.pi**2
            / (v_um * v_um)
            * w1
            * w2
            * np.square(n1 + n2)
            * angular
            / (n1 * n1 * ng1 * ng1 * n2 * n2 * ng2 * ng2)
        )
        # inverse gradient norm of the residual over (k1x, k2x): symmetric in
        # the two photons, so the density keeps its exchange symmetry
        g1 = 1.0 - cos_t1 / (kin.beta * ng1)
        g2 = 1.0 - cos_t2 / (kin.beta * ng2)
        jac = 1.0 / np.hypot(g1, g2)
        # the mean pair wavenumber weights the spectral density (um^-1)
        weight = 0.5 * (k1 + k2) / TWO_PI
        measure = k1 * k1 * k2 * k2 * jac * weight * (config.length_um / TWO_PI) / TWO_PI**5
        return config.calibration * common * ff * measure, csch


def _row_blocks(rows: int, cells_per_row: int) -> list[slice]:
    """The fewest near-equal slices of whole rows, each of at most _BLOCK_CELLS cells or one row."""
    blocks = -(-rows // max(1, _BLOCK_CELLS // cells_per_row))
    size = -(-rows // blocks) if blocks else 1
    return [slice(i, i + size) for i in range(0, rows, size)]


def _grid_fields(config: EmissionConfig, lam1, lam2):
    """Density over the grid of two 1-D wavelength axes, in row blocks.

    Returns (values, flags) of shape (len(lam1), len(lam2)).  lam1 is the
    forward photon (theta1 = 0); the partner angle follows from the
    constraint at each cell.  The per-axis fields are evaluated once, the
    cells in blocks of whole rows of at most _BLOCK_CELLS cells; every cell
    runs the same operations on the same operands in any blocking.
    """
    model = config.material
    lam1, lam2 = lam1[:, None], lam2[None, :]
    n1, ng1, bad1 = _index_fields(model, lam1)
    n2, ng2, bad2 = _index_fields(model, lam2)
    k1 = TWO_PI * n1 / lam1
    k2 = TWO_PI * n2 / lam2
    values = np.empty((lam1.size, lam2.size))
    flags = np.empty(values.shape, dtype=np.int64)
    for b in _row_blocks(lam1.size, lam2.size):
        s_total = kinematics._on_shell_sum(lam1[b], lam2, config.kin)
        # cos(theta2) = k2x / k2
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_t2 = (s_total - k1[b]) / k2
        forbidden = np.abs(cos_t2) > 1.0
        cos_t2 = np.clip(cos_t2, -1.0, 1.0)
        ky = k2 * np.sqrt(np.clip(1.0 - cos_t2 * cos_t2, 0.0, None))
        block, csch = _density_kernel(
            config, lam1[b], lam2, (n1[b], ng1[b]), (n2, ng2), (s_total, ky, 0.0), 1.0,
            cos_t2, 1.0 + cos_t2 * cos_t2,
        )
        hole = bad1[b] | bad2 | csch
        flags[b] = np.where(hole, FLAG_HOLE, forbidden * FLAG_FORBIDDEN)
        # an ok cell keeps a density that overflowed, so callers can reject it
        values[b] = np.where(hole | forbidden, 0.0, block)
    return values, flags


def _curve_density(config: EmissionConfig, lam1, lam2):
    """Collinear density along the constraint curve (theta1 = 0, theta2 = pi).

    lam2 holds the partner of each lam1, nan where there is none.  Array
    form of density_gaussian/density_tanh on the curve, and 0 exactly where
    they raise: no partner, an invalid wavelength or |n_g| below NG_FLOOR,
    a constraint residual beyond its tolerance, or the tanh csch^2 pole.
    """
    model = config.material
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)
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


def collinear_grid(
    config: EmissionConfig,
    lambda1_range: tuple[float, float],
    lambda2_range: tuple[float, float],
    resolution: int = 121,
) -> PairDensityGrid:
    """Pair density on a log-spaced (lambda1, lambda2) grid, resolution points per axis.

    Deterministic: every cell runs the same operations in any row
    blocking (see _grid_fields).  resolution must be an integer >= 2.
    """
    if min(lambda1_range) <= 0.0 or min(lambda2_range) <= 0.0:
        raise ValueError("wavelength ranges must be positive")
    if not (isinstance(resolution, numbers.Integral) and resolution >= 2):
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")
    lam1 = np.geomspace(lambda1_range[0], lambda1_range[1], resolution)
    lam2 = np.geomspace(lambda2_range[0], lambda2_range[1], resolution)
    values, flags = _grid_fields(config, lam1, lam2)
    return PairDensityGrid(lambda1_um=lam1, lambda2_um=lam2, values=values, flags=flags)
