"""Self-checks of the oracles: the pair integral by rotational symmetry and the mode sum."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from vacuumpairs import dispersion, kinematics
from vacuumpairs.emission import EmissionConfig, GaussianProfile
from vacuumpairs.kinematics import PerturbationKinematics
from vacuumpairs.materials import get_material, model_from_dict

from oracles import cone_share, mode_sum_total, pair_integral_sphere, rotational_pair_integral


def direct_pair_integral(k1, k2, s, sigma, half_angle):
    """rotational_pair_integral's integral with the delta consumed over cos(theta2).

    delta(k1 cos(theta1) + k2 cos(theta2) - s) fixes cos(theta2) = (s - k1
    cos(theta1))/k2 with weight 1/k2, and F depends on the azimuths only
    through phi1 - phi2, whose two integrals give 2 pi int_0^2pi, or 4 pi
    int_0^pi by symmetry.  dblquad runs over (cos(theta1), phi1 - phi2).
    """
    lo = max(math.cos(half_angle), (s - k2) / k1, -1.0)
    hi = min(1.0, (s + k2) / k1)
    if lo >= hi:
        return 0.0

    def integrand(dphi, c1):
        c2 = (s - k1 * c1) / k2
        sines = math.sqrt(max(0.0, 1.0 - c1 * c1) * max(0.0, 1.0 - c2 * c2))
        cos_psi = c1 * c2 + sines * math.cos(dphi)
        k_sq = k1 * k1 + k2 * k2 + 2.0 * k1 * k2 * cos_psi
        return (1.0 + cos_psi * cos_psi) * math.exp(-sigma * sigma * k_sq)

    value, _ = dblquad(integrand, lo, hi, 0.0, math.pi, epsabs=0.0, epsrel=1e-13)
    return 4.0 * math.pi / k2 * value


def fused_silica_cell(lam1, lam2, beta=10.0):
    """(k1, k2, s) of a fused-silica pair at beta, sigma = 1 um."""
    (n1, n2), _, _ = dispersion.index_fields(get_material("fused_silica"), [lam1, lam2])
    s = kinematics._on_shell_sum(lam1, lam2, PerturbationKinematics(beta=beta))
    return 2.0 * math.pi * n1 / lam1, 2.0 * math.pi * n2 / lam2, s


# nodes of the chi sweep: its count misses P_Theta by at most half a node's share
SWEEP_NODES = 2**16


def swept_cone_share(u, k1, k2, s, half_angle):
    """cone_share by counting: the share of chi nodes, uniform on [0, pi], inside the cone.

    K makes the angle alpha with +x and photon 1 the angle beta1 with K,
    from the triangle of k1, k2 and |K| = u; photon 1 turns about K with
    cos(theta1) = cos(alpha) cos(beta1) + sin(alpha) sin(beta1) cos(chi).  That
    falls with chi, so the rotations inside the cone are one interval from
    chi = 0, and the count of the cell midpoints misses its length by at most
    half a cell: 1/(2 SWEEP_NODES) of P.
    """
    cos_a = s / u
    cos_b = (u * u + k1 * k1 - k2 * k2) / (2.0 * u * k1)  # the law of cosines
    chi = (np.arange(SWEEP_NODES) + 0.5) * (math.pi / SWEEP_NODES)
    sines = math.sqrt((1.0 - cos_a * cos_a) * (1.0 - cos_b * cos_b))
    cos_t1 = cos_a * cos_b + sines * np.cos(chi)
    return np.count_nonzero(cos_t1 >= math.cos(half_angle)) / SWEEP_NODES


@pytest.mark.parametrize(
    "u, s, half_angle_deg, share",
    [
        (4.5, 0.7, 30.0, 0.0),
        (4.5, 0.7, 140.0, 1.0),
        (4.5, 0.7, 75.0, None),
        (3.0, 1.5, 30.0, None),
        (2.0, 1.5, 75.0, None),
        (4.6, 4.2, 10.0, None),
        (4.6, 4.2, 30.0, None),
    ],
    ids=["clip_zero", "clip_one", "interior", "interior_narrow", "interior_low_u",
         "near_threshold_10", "near_threshold_30"],
)
def test_cone_share_against_chi_sweep(u, s, half_angle_deg, share):
    # k1 = 3, k2 = 2: |K| runs over [1, 5]; a clipped case must hit its end exactly
    p = cone_share(u, 3.0, 2.0, s, math.radians(half_angle_deg))
    if share is not None:
        assert p == share
    else:
        assert 0.0 < p < 1.0
    swept = swept_cone_share(u, 3.0, 2.0, s, math.radians(half_angle_deg))
    assert p == pytest.approx(swept, rel=0.0, abs=1.0 / SWEEP_NODES)


@pytest.mark.parametrize("half_angle_deg", [30.0, 75.0])
@pytest.mark.parametrize("fraction", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("lam1, lam2", [(0.68, 0.78), (0.5, 0.52), (1.2, 3.0)])
def test_cone_share_against_chi_sweep_fused_silica(lam1, lam2, fraction, half_angle_deg):
    # u at a fraction of its span [max(|k1 - k2|, s), k1 + k2]; the 18 cases hold
    # interior shares and both clip ends
    k1, k2, s = fused_silica_cell(lam1, lam2)
    u0, u1 = max(abs(k1 - k2), s), k1 + k2
    u = u0 + fraction * (u1 - u0)
    p = cone_share(u, k1, k2, s, math.radians(half_angle_deg))
    swept = swept_cone_share(u, k1, k2, s, math.radians(half_angle_deg))
    assert p == pytest.approx(swept, rel=0.0, abs=1.0 / SWEEP_NODES)


@pytest.mark.parametrize("half_angle_deg", [180.0, 30.0, 75.0, 140.0])
@pytest.mark.parametrize("s", [0.7, 1.5, 4.2])
def test_rotational_identity(s, half_angle_deg):
    # k1 = 3, k2 = 2 and sigma = 1: |K| runs over [1, 5], and s = 4.2 cuts it at 4.2
    half_angle = math.radians(half_angle_deg)
    expected = direct_pair_integral(3.0, 2.0, s, 1.0, half_angle)
    assert expected > 0.0
    assert rotational_pair_integral(3.0, 2.0, s, 1.0, half_angle) == pytest.approx(
        expected, rel=1e-10, abs=0.0
    )


@pytest.mark.parametrize("half_angle_deg", [180.0, 75.0])
@pytest.mark.parametrize("lam1, lam2", [(0.68, 0.78), (0.5, 0.52), (1.2, 3.0)])
def test_rotational_identity_fused_silica(lam1, lam2, half_angle_deg):
    # the (k1, k2, s) of fused-silica cells at beta = 10, sigma = 1 um: 2 k1 k2
    # is 150 to 650 um^-2, so F falls off steeply away from antiparallel photons
    k1, k2, s = fused_silica_cell(lam1, lam2)
    if (lam1, lam2) == (1.2, 3.0):
        # erf(sigma u1) - erf(sigma u0) would cancel here: the closed form takes erfc
        assert math.exp(-max(abs(k1 - k2), s) ** 2) < 1e-9
    half_angle = math.radians(half_angle_deg)
    expected = direct_pair_integral(k1, k2, s, 1.0, half_angle)
    assert expected > 0.0
    assert rotational_pair_integral(k1, k2, s, 1.0, half_angle) == pytest.approx(
        expected, rel=1e-10, abs=0.0
    )


@pytest.mark.parametrize("sigma", [1.0, 0.7])
def test_pair_integral_sphere_matches_the_scalar_form(sigma):
    # one array call over cells of both kinds: k1 = 3, k2 = 2 with s below,
    # inside and beyond |K|'s span [1, 5], and the fused-silica cells above
    cells = [(3.0, 2.0, s) for s in (0.7, 1.5, 4.2, 5.5)]
    cells += [fused_silica_cell(*lams) for lams in [(0.68, 0.78), (0.5, 0.52), (1.2, 3.0)]]
    k1, k2, s = (np.array(column) for column in zip(*cells))
    values = pair_integral_sphere(k1, k2, s, sigma)
    expected = [rotational_pair_integral(*cell, sigma) for cell in cells]
    assert values[3] == expected[3] == 0.0
    assert values.tolist() == pytest.approx(expected, rel=1e-13, abs=0.0)


def silica_config(beta=10.0):
    """The README's run: fused silica, Gaussian, eta = 0.001, sigma = 1 um, L = 5 cm."""
    return EmissionConfig(
        material=get_material("fused_silica"),
        profile=GaussianProfile(eta=0.001, sigma=1.0),
        kin=PerturbationKinematics(beta=beta),
        length_m=0.05,
    )


def constant_index_config(n0_beta, n0=1.5):
    return EmissionConfig(
        material=model_from_dict({"constant_index": n0}),
        profile=GaussianProfile(eta=0.001, sigma=1.0),
        kin=PerturbationKinematics(beta=n0_beta / n0),
        length_m=0.05,
    )


def test_mode_sum_threshold_on_a_constant_index():
    # s = (k1 + k2)/(n0 beta): below n0 beta = 1 no cell has photon directions
    assert mode_sum_total(constant_index_config(0.99), (0.1, 5.0), 257) == 0.0
    assert mode_sum_total(constant_index_config(1.01), (0.1, 5.0), 257) > 0.0


def test_mode_sum_converges_on_the_readme_config():
    totals = [mode_sum_total(silica_config(), (0.1, 5.0), n) for n in (257, 513, 1025)]
    assert totals[0] > 0.0
    assert abs(totals[1] - totals[2]) <= abs(totals[0] - totals[1])
