"""Closed-form and brute-force oracles shared by the test modules."""

import math

import numpy as np
from scipy.integrate import quad, simpson

from vacuumpairs import dispersion, emission, kinematics
from vacuumpairs.emission import GaussianProfile
from vacuumpairs.kinematics import _SCAN_POINTS

TWO_PI = 2.0 * math.pi
C_UM_S = 299_792_458.0 * 1e6  # speed of light in um/s, exact by the SI definition


def partner_nondispersive(lam1, theta1, theta2, beta, n0):
    """Closed-form partner wavelength for a constant-index medium.

    The constraint (n0 cos(theta1) - 1/beta)/lam1 + (n0 cos(theta2) - 1/beta)/lam2 = 0
    is linear in 1/lam2, so lam2 = lam1 (1/beta - n0 cos(theta2))/(n0 cos(theta1) - 1/beta).
    Broadcasts; a value that is not positive means there is no partner.
    """
    inv_b = 1.0 / beta
    return lam1 * (inv_b - n0 * np.cos(theta2)) / (n0 * np.cos(theta1) - inv_b)


def density_nondispersive(mode1, mode2, n0, config):
    """Closed-form density for a constant-index medium (Gaussian profile).

    Evaluates 2^2 sigma^6 pi^2 eta^2 / (v^2 n0^6) * omega1 omega2
    * exp(-sigma^2 |k1+k2|^2) * (1 + cos^2 psi), with the corrected 2^2
    prefactor, under the same measure convention as the dispersive density.
    The pair is assumed to lie on the constraint curve.
    """
    profile = config.profile
    assert isinstance(profile, GaussianProfile)
    kin = config.kin
    lam1, lam2 = mode1.wavelength, mode2.wavelength
    w1 = TWO_PI * C_UM_S / lam1
    w2 = TWO_PI * C_UM_S / lam2
    k1, k2 = TWO_PI * n0 / lam1, TWO_PI * n0 / lam2
    st1, ct1 = math.sin(mode1.theta), math.cos(mode1.theta)
    st2, ct2 = math.sin(mode2.theta), math.cos(mode2.theta)
    kvec1 = np.array([k1 * ct1, k1 * st1 * math.cos(mode1.phi), k1 * st1 * math.sin(mode1.phi)])
    kvec2 = np.array([k2 * ct2, k2 * st2 * math.cos(mode2.phi), k2 * st2 * math.sin(mode2.phi)])
    ksum = kvec1 + kvec2
    cos_psi = float(np.dot(kvec1, kvec2)) / (k1 * k2)
    angular = 1.0 + cos_psi * cos_psi
    v_um = kin.v_um_s
    value = (
        4.0
        * profile.sigma**6
        * math.pi**2
        * profile.eta**2
        / (v_um * v_um * n0**6)
        * w1
        * w2
        * math.exp(-profile.sigma**2 * float(np.dot(ksum, ksum)))
        * angular
    )
    g1 = 1.0 - ct1 / (kin.beta * n0)
    g2 = 1.0 - ct2 / (kin.beta * n0)
    jac = 1.0 / math.hypot(g1, g2)
    weight = 0.5 * (k1 + k2) / TWO_PI
    measure = k1 * k1 * k2 * k2 * jac * weight * (config.length_um / TWO_PI) / TWO_PI**5
    return float(config.calibration * value * measure)


def smallest_root_bracket(part1, cos_t2, inv_b, model):
    """Brute-force bracket of the smallest partner root, by sweeping the scan grid.

    part1 is the lam1 part (n1 cos(theta1) - 1/beta)/lam1 of the residual
    over 2 pi; it broadcasts with cos_t2.  The lam2 part is evaluated on
    the log grid of _SCAN_POINTS wavelengths over the transparency window,
    as a last axis, with nan where the model is invalid.  An event is an
    exact zero at a grid point or a sign change between neighbours (nan
    compares false, so invalid points are skipped); the first event
    brackets the smallest root.  Returns (lo, hi, up, n_roots): the bracket
    (lo == hi at an exact zero, lo nan where there is no root), whether the
    residual is positive at lo, and the number of events.
    """
    grid = np.geomspace(*dispersion.transparency_window(model), _SCAN_POINTS)
    n2, _, bad = dispersion.index_fields(model, grid)
    part2 = np.where(bad, np.nan, (n2 * np.asarray(cos_t2)[..., None] - inv_b) / grid)
    neg = -np.asarray(part1)[..., None]
    above, below = part2 > neg, part2 < neg
    events = part2 == neg
    events[..., :-1] |= (above[..., :-1] & below[..., 1:]) | (below[..., :-1] & above[..., 1:])
    n_roots = np.count_nonzero(events, axis=-1)
    first = np.argmax(events, axis=-1)[..., None]
    up = np.take_along_axis(above, first, axis=-1)[..., 0]
    flip = up | np.take_along_axis(below, first, axis=-1)[..., 0]
    first = first[..., 0]
    lo = np.where(n_roots > 0, grid[first], np.nan)
    hi = np.where(flip, grid[np.minimum(first + 1, _SCAN_POINTS - 1)], lo)
    return lo, hi, up, n_roots


def total_row_density_3d(config, lam1, t1, t2, phi):
    """The phi-mean density of one lambda1 row of the total count, phi node by node.

    The kernel runs on every (theta1, theta2, phi) node with
    ksum = (kx, ky, 0) and 1 + cos(psi)^2, and the Simpson rule over phi
    takes the mean; total_count factors the phi-independent part out.
    Returns the (t1.size, t2.size) array, zero where there is no partner or
    the density is undefined.
    """
    theta1, theta2 = t1[:, None, None], t2[None, :, None]
    cos_phi = np.cos(phi)
    cos_t1, sin_t1 = np.cos(theta1), np.sin(theta1)
    cos_t2, sin_t2 = np.cos(theta2), np.sin(theta2)
    n1, ng1, bad1 = emission._index_fields(config.material, np.asarray([lam1]))
    if bad1[0]:
        return np.zeros((t1.size, t2.size))
    partners = kinematics.partner_table(cos_t2, config.kin, config.material)
    lam2 = kinematics.solve_partners(lam1, theta1, partners)
    none = np.isnan(lam2)
    lam2 = np.where(none, 1.0, lam2)
    n2, ng2, bad2 = emission._index_fields(config.material, lam2)
    k1 = TWO_PI * float(n1[0]) / lam1
    k2 = TWO_PI * n2 / lam2
    kx = kinematics._on_shell_sum(lam1, lam2, config.kin)
    ky = k1 * sin_t1 + k2 * sin_t2 * cos_phi
    cos_psi = cos_t1 * cos_t2 + sin_t1 * sin_t2 * cos_phi
    values, csch = emission._density_kernel(
        config, lam1, lam2, (float(n1[0]), float(ng1[0])), (n2, ng2), (kx, ky, 0.0),
        cos_t1, cos_t2, 1.0 + cos_psi * cos_psi,
    )
    mean = simpson(values, x=phi, axis=2) / math.pi
    return np.where((none | bad2 | csch)[:, :, 0], 0.0, mean)


def grid_fields_full_blocks(config, lam1, lam2):
    """The collinear grid's (values, flags) with the density run on every cell of each row block.

    The kernel runs on whole blocks of emission._row_blocks and the flags
    and zeros follow from its csch mask.  emission._grid_fields runs it only
    on each block's span and must give the same bytes.
    """
    model = config.material
    lam1, lam2 = lam1[:, None], lam2[None, :]
    n1, ng1, bad1 = emission._index_fields(model, lam1)
    n2, ng2, bad2 = emission._index_fields(model, lam2)
    k1 = TWO_PI * n1 / lam1
    k2 = TWO_PI * n2 / lam2
    values = np.empty((lam1.size, lam2.size))
    flags = np.empty(values.shape, dtype=np.int64)
    for b in emission._row_blocks(lam1.size, lam2.size):
        s_total = kinematics._on_shell_sum(lam1[b], lam2, config.kin)
        # cos(theta2) = k2x / k2
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_t2 = (s_total - k1[b]) / k2
        forbidden = np.abs(cos_t2) > 1.0
        cos_t2 = np.clip(cos_t2, -1.0, 1.0)
        ky = k2 * np.sqrt(np.clip(1.0 - cos_t2 * cos_t2, 0.0, None))
        block, csch = emission._density_kernel(
            config, lam1[b], lam2, (n1[b], ng1[b]), (n2, ng2), (s_total, ky, 0.0), 1.0,
            cos_t2, 1.0 + cos_t2 * cos_t2,
        )
        hole = bad1[b] | bad2 | csch
        flags[b] = np.where(hole, emission.FLAG_HOLE, forbidden * emission.FLAG_FORBIDDEN)
        # an ok cell keeps a density that overflowed, so callers can reject it
        values[b] = np.where(hole | forbidden, 0.0, block)
    return values, flags


# ---------------------------------------------------------------------------
# the pair total by rotational symmetry
#
# Fix |k1|, |k2| and s = (omega1 + omega2)/v, and let F depend on the photon
# directions only through cos(psi), the cosine of the angle between them.
# Then
#   int dOmega1 dOmega2 F delta(k1x + k2x - s) 1[theta1 <= Theta]
#     = 4 pi^2 int d(cos psi) F P_Theta / |K|,   K = k1 + k2, |K| > s only,
# as the rigid pair's orientation is uniform on SO(3): K's direction is
# uniform, so delta(|K| cos(alpha) - s) integrates to 1/(2 |K|), and P_Theta is
# the share of the rotations about K that put photon 1 within Theta of +x.
# With u = |K|, a = k1^2 + k2^2 and b = 2 k1 k2, cos(psi) = (u^2 - a)/b and
# d(cos psi) = 2 u du / b on u in [max(|k1 - k2|, s), k1 + k2].


def cone_share(u, k1, k2, s, half_angle):
    """P_Theta: the share of rotations about K that put photon 1 within half_angle of +x.

    K makes the angle alpha with +x, cos(alpha) = s/u, and photon 1 the angle
    beta1 with K, cos(beta1) = (k1 + k2 cos(psi))/u; photon 1 turns about K
    with cos(theta1) = cos(alpha) cos(beta1) + sin(alpha) sin(beta1) cos(chi),
    chi uniform, so P = arccos(clip((cos(Theta) - cos(alpha) cos(beta1)) /
    (sin(alpha) sin(beta1)), -1, 1)) / pi.
    """
    cos_psi = (u * u - k1 * k1 - k2 * k2) / (2.0 * k1 * k2)
    cos_a, cos_b = s / u, (k1 + k2 * cos_psi) / u
    sin_ab = math.sqrt(max(0.0, 1.0 - cos_a * cos_a) * max(0.0, 1.0 - cos_b * cos_b))
    num = math.cos(half_angle) - cos_a * cos_b
    x = num / sin_ab if sin_ab > 0.0 else math.copysign(math.inf, num)
    return math.acos(min(1.0, max(-1.0, x))) / math.pi


def rotational_pair_integral(k1, k2, s, sigma, half_angle=math.pi):
    """int dOmega1 dOmega2 F delta(k1x + k2x - s) 1[theta1 <= half_angle], by rotational symmetry.

    F = (1 + cos(psi)^2) exp(-sigma^2 |K|^2), the Gaussian form factor times
    the angular factor of one pair.  This is the right side of the identity
    above, 4 pi^2 (2/b) int du (1 + ((u^2 - a)/b)^2) exp(-sigma^2 u^2) P(u):
    for the full sphere (half_angle >= pi, P = 1) in closed form, whose
    differences of erf are taken in erfc, which keeps the digits where
    exp(-sigma^2 u0^2) is small; for a cone by quad in u.
    """
    a, b = k1 * k1 + k2 * k2, 2.0 * k1 * k2
    u0, u1 = max(abs(k1 - k2), s), k1 + k2
    if u0 >= u1:
        return 0.0
    s2 = sigma * sigma
    if half_angle < math.pi:
        def integrand(u):
            share = cone_share(u, k1, k2, s, half_angle)
            return (1.0 + ((u * u - a) / b) ** 2) * math.exp(-s2 * u * u) * share

        inner, _ = quad(integrand, u0, u1, epsabs=0.0, epsrel=1e-13, limit=200)
        return 4.0 * math.pi**2 * (2.0 / b) * inner
    # int u^2n e from u0 to u1, e = exp(-sigma^2 u^2), by parts down to int e
    e0, e1 = math.exp(-s2 * u0 * u0), math.exp(-s2 * u1 * u1)
    i0 = math.sqrt(math.pi) / (2.0 * sigma) * (math.erfc(sigma * u0) - math.erfc(sigma * u1))
    i2 = (u0 * e0 - u1 * e1 + i0) / (2.0 * s2)
    i4 = (u0**3 * e0 - u1**3 * e1 + 3.0 * i2) / (2.0 * s2)
    # 1 + ((u^2 - a)/b)^2 = (1 + a^2/b^2) - (2a/b^2) u^2 + u^4/b^2
    inner = (1.0 + a * a / (b * b)) * i0 - 2.0 * a / (b * b) * i2 + i4 / (b * b)
    return 4.0 * math.pi**2 * (2.0 / b) * inner
