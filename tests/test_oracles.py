"""Self-checks of the oracles: the pair integral by rotational symmetry."""

import math

import pytest
from scipy.integrate import dblquad

from vacuumpairs import dispersion, kinematics
from vacuumpairs.kinematics import PerturbationKinematics
from vacuumpairs.materials import get_material

from oracles import rotational_pair_integral


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
    model = get_material("fused_silica")
    (n1, n2), _, _ = dispersion.index_fields(model, [lam1, lam2])
    k1, k2 = 2.0 * math.pi * n1 / lam1, 2.0 * math.pi * n2 / lam2
    s = kinematics._on_shell_sum(lam1, lam2, PerturbationKinematics(beta=10.0))
    if (lam1, lam2) == (1.2, 3.0):
        # erf(sigma u1) - erf(sigma u0) would cancel here: the closed form takes erfc
        assert math.exp(-max(abs(k1 - k2), s) ** 2) < 1e-9
    half_angle = math.radians(half_angle_deg)
    expected = direct_pair_integral(k1, k2, s, 1.0, half_angle)
    assert expected > 0.0
    assert rotational_pair_integral(k1, k2, s, 1.0, half_angle) == pytest.approx(
        expected, rel=1e-10, abs=0.0
    )
