"""Closed-form oracles shared by the test modules."""

import math

import numpy as np

from vacuumpairs.dispersion import wavelength_to_omega
from vacuumpairs.emission import GaussianProfile

TWO_PI = 2.0 * math.pi


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
    w1 = wavelength_to_omega(lam1)
    w2 = wavelength_to_omega(lam2)
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
