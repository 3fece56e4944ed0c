"""Emission-density tests: oracles, scaling laws, grids."""

import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from vacuumpairs import dispersion, emission, kinematics
from vacuumpairs.dispersion import ConstantIndex, DispersionModel
from vacuumpairs.emission import (
    FLAG_FORBIDDEN,
    FLAG_OK,
    EmissionConfig,
    GaussianProfile,
    TanhProfile,
    collinear_grid,
    density_gaussian,
    density_tanh,
    gaussian_form_factor,
    tanh_form_factor,
)
from vacuumpairs.kinematics import (
    NoSignChangeError,
    PerturbationKinematics,
    PhotonMode,
    solve_partner,
)
from vacuumpairs.materials import get_material

from oracles import density_nondispersive, grid_fields_full_blocks


def numpy_dispatch():
    """numpy's version and its float64 exp and sinh dispatch: their bits differ by dispatch."""
    introspect = pytest.importorskip("numpy.lib.introspect")  # numpy >= 2.0
    info = introspect.opt_func_info(func_name="^(exp|sinh)$", signature="float64")
    return (np.__version__, info["exp"]["dd"]["current"], info["sinh"]["dd"]["current"])


def silica_config(beta=10.0, sigma=1.0, eta=0.001, length_m=0.05):
    return EmissionConfig(
        material=get_material("fused_silica"),
        profile=GaussianProfile(eta=eta, sigma=sigma),
        kin=PerturbationKinematics(beta=beta),
        length_m=length_m,
    )


def on_curve_pair(config, lam1):
    lam2 = solve_partner(lam1, 0.0, math.pi, config.kin, config.material)
    return PhotonMode(lam1, 0.0), PhotonMode(lam2, math.pi)


def mp_density_gaussian(mode1, mode2, config, dps=40):
    """Independent high-precision transcription of the Gaussian density."""
    model = config.material
    with mpmath.workdps(dps):
        pi = mpmath.pi
        c_um = mpmath.mpf("299792458.0") * mpmath.mpf("1e6")
        beta = mpmath.mpf(repr(config.kin.beta))
        v = beta * c_um
        sigma = mpmath.mpf(repr(config.profile.sigma))
        eta = mpmath.mpf(repr(config.profile.eta))
        length = mpmath.mpf(repr(config.length_m)) * mpmath.mpf("1e6")

        def nn(lam):
            lam2 = lam * lam
            rad = mpmath.mpf(1)
            for a, l in model.base.terms:
                rad += mpmath.mpf(repr(a)) * lam2 / (lam2 - mpmath.mpf(repr(l)))
            return mpmath.sqrt(rad)

        def ng(lam):
            h = mpmath.mpf("1e-12")
            return nn(lam) - lam * (nn(lam + h) - nn(lam - h)) / (2 * h)

        vals = []
        for mode in (mode1, mode2):
            lam = mpmath.mpf(repr(mode.wavelength))
            theta = mpmath.mpf(repr(mode.theta))
            phi = mpmath.mpf(repr(mode.phi))
            n = nn(lam)
            k = 2 * pi * n / lam
            omega = 2 * pi * c_um / lam
            vals.append((lam, theta, phi, n, ng(lam), k, omega))
        (l1, t1, p1, n1, ng1, k1, w1), (l2, t2, p2, n2, ng2, k2, w2) = vals
        kx = k1 * mpmath.cos(t1) + k2 * mpmath.cos(t2)
        ky = k1 * mpmath.sin(t1) * mpmath.cos(p1) + k2 * mpmath.sin(t2) * mpmath.cos(p2)
        kz = k1 * mpmath.sin(t1) * mpmath.sin(p1) + k2 * mpmath.sin(t2) * mpmath.sin(p2)
        cos_psi = (
            mpmath.cos(t1) * mpmath.cos(t2)
            + mpmath.sin(t1) * mpmath.sin(t2) * mpmath.cos(p1 - p2)
        )
        common = (
            eta**2 * pi**2 / (v * v) * w1 * w2 * (n1 + n2) ** 2
            * (1 + cos_psi**2) / (n1 * n1 * ng1 * ng1 * n2 * n2 * ng2 * ng2)
        )
        ff = sigma**6 * mpmath.exp(-sigma * sigma * (kx * kx + ky * ky + kz * kz))
        g1 = 1 - mpmath.cos(t1) / (beta * ng1)
        g2 = 1 - mpmath.cos(t2) / (beta * ng2)
        jac = 1 / mpmath.sqrt(g1 * g1 + g2 * g2)
        weight = (k1 + k2) / (4 * pi)
        measure = k1**2 * k2**2 * jac * weight * (length / (2 * pi)) / (2 * pi) ** 5
        cal = mpmath.mpf(repr(config.calibration))
        return float(cal * common * ff * measure)


class TestPointDensity:
    def test_high_precision_oracle(self):
        config = silica_config()
        m1, m2 = on_curve_pair(config, 0.65)
        expected = mp_density_gaussian(m1, m2, config)
        assert density_gaussian(m1, m2, config) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize(
        "lam1, theta1, phi1, theta2, phi2",
        [(0.65, 0.3, 0.0, 2.5, 1.1), (0.9, 0.2, 0.5, 2.7, -2.0)],
        ids=["phi1_zero", "both_azimuths"],
    )
    def test_high_precision_oracle_off_axis(self, lam1, theta1, phi1, theta2, phi2):
        # photons out of the xz plane: kz and cos(phi1 - phi2) enter the density
        config = silica_config()
        lam2 = solve_partner(lam1, theta1, theta2, config.kin, config.material)
        m1, m2 = PhotonMode(lam1, theta1, phi1), PhotonMode(lam2, theta2, phi2)
        expected = mp_density_gaussian(m1, m2, config)
        assert expected > 0.0
        assert density_gaussian(m1, m2, config) == pytest.approx(expected, rel=1e-8, abs=0.0)

    def test_exchange_symmetry(self):
        config = silica_config()
        m1, m2 = on_curve_pair(config, 0.65)
        assert density_gaussian(m2, m1, config) == pytest.approx(
            density_gaussian(m1, m2, config), rel=1e-12
        )

    def test_zero_amplitude_gives_zero(self):
        config = silica_config(eta=0.0)
        m1, m2 = on_curve_pair(config, 0.65)
        assert density_gaussian(m1, m2, config) == 0.0

    def test_off_curve_pair_rejected(self):
        config = silica_config()
        with pytest.raises(emission.ConstraintViolatedError):
            density_gaussian(PhotonMode(0.65, 0.0), PhotonMode(0.9, math.pi), config)

    def test_positive_on_curve(self):
        config = silica_config()
        for lam1 in (0.4, 0.65, 1.1):
            m1, m2 = on_curve_pair(config, lam1)
            assert density_gaussian(m1, m2, config) > 0.0

    def test_bare_base_medium_rejected(self):
        # a material is a DispersionModel; a bare base is not wrapped in one
        with pytest.raises(TypeError, match="ConstantIndex"):
            EmissionConfig(
                material=ConstantIndex(1.5),
                profile=GaussianProfile(eta=0.001, sigma=1.0),
                kin=PerturbationKinematics(beta=10.0),
                length_m=0.05,
            )

    def test_wrong_profile_type_rejected(self):
        config = silica_config()
        m1, m2 = on_curve_pair(config, 0.65)
        with pytest.raises(emission.EmissionError):
            density_tanh(m1, m2, config)

    def test_group_index_singularity_guard(self, monkeypatch):
        config = silica_config()
        m1, m2 = on_curve_pair(config, 0.65)
        real_index_fields = dispersion.index_fields

        def zero_group_index(model, lam):
            n, ng, bad = real_index_fields(model, lam)
            return n, np.zeros_like(ng), bad

        monkeypatch.setattr(emission.dispersion, "index_fields", zero_group_index)
        with pytest.raises(emission.GroupIndexSingularError):
            density_gaussian(m1, m2, config)


class TestNondispersiveReduction:
    def test_constant_index_limit_matches_closed_form(self):
        n0, beta = 1.5, 4.0
        config = EmissionConfig(
            material=DispersionModel(base=ConstantIndex(n0)),
            profile=GaussianProfile(eta=0.001, sigma=1.0),
            kin=PerturbationKinematics(beta=beta),
            length_m=0.05,
        )
        bn = beta * n0
        lam1s = np.geomspace(0.5, 6.0, 20)
        for lam1 in lam1s:
            lam1 = float(lam1)
            lam2 = lam1 * (bn + 1.0) / (bn - 1.0)
            for theta1 in np.linspace(0.0, 0.4, 20):
                # tilt photon 1 and rebalance photon 2 to stay on the curve
                theta1 = float(theta1)
                m1 = PhotonMode(lam1, theta1)
                lam2_t = solve_partner(lam1, theta1, math.pi, config.kin, config.material)
                m2 = PhotonMode(lam2_t, math.pi)
                a = density_gaussian(m1, m2, config)
                b = density_nondispersive(m1, m2, n0, config)
                assert a == pytest.approx(b, rel=1e-9, abs=0.0)

    def test_closed_form_prefactor(self):
        # the dispersionless reduction carries 4 sigma^6 pi^2 eta^2/(v^2 n0^6)
        n0 = 2.0
        config = EmissionConfig(
            material=DispersionModel(base=ConstantIndex(n0)),
            profile=GaussianProfile(eta=0.001, sigma=1.0),
            kin=PerturbationKinematics(beta=3.0),
            length_m=0.05,
        )
        m1, m2 = on_curve_pair(config, 1.0)
        value = density_nondispersive(m1, m2, n0, config)
        # doubling n0 in the prefactor alone scales as (2n)^2/n^8
        assert value > 0.0


class TestScalingLaws:
    def test_eta_squared_exact(self):
        base = silica_config(eta=0.001)
        doubled = silica_config(eta=0.002)
        m1, m2 = on_curve_pair(base, 0.65)
        assert density_gaussian(m1, m2, doubled) == 4.0 * density_gaussian(
            m1, m2, base
        )

    def test_sigma_scaling_matches_form_factor(self):
        config1 = silica_config(sigma=1.0)
        config2 = silica_config(sigma=2.0)
        m1, m2 = on_curve_pair(config1, 0.65)
        k1 = 2.0 * math.pi * dispersion.refractive_index(config1.material, m1.wavelength) / m1.wavelength
        k2 = 2.0 * math.pi * dispersion.refractive_index(config1.material, m2.wavelength) / m2.wavelength
        ksq = (k1 - k2) ** 2  # collinear pair momentum
        expected = 2.0**6 * math.exp(-3.0 * ksq)
        ratio = density_gaussian(m1, m2, config2) / density_gaussian(m1, m2, config1)
        assert ratio == pytest.approx(expected, rel=1e-9)

    def test_inverse_group_index_squared(self, monkeypatch):
        # at theta1 = 90 deg the delta-consumption factor is independent of
        # n_g(omega_1), isolating the 1/n_g^2 law
        n0, beta = 1.5, 10.0
        config = EmissionConfig(
            material=DispersionModel(base=ConstantIndex(n0)),
            profile=GaussianProfile(eta=0.001, sigma=1.0),
            kin=PerturbationKinematics(beta=beta),
            length_m=0.05,
        )
        theta1, theta2 = math.pi / 2.0, 0.3
        lam1 = 1.0
        lam2 = solve_partner(lam1, theta1, theta2, config.kin, config.material)
        m1, m2 = PhotonMode(lam1, theta1), PhotonMode(lam2, theta2)
        real_index_fields = dispersion.index_fields
        values = {}
        for scale in (1.0, 2.0, 5.0):
            def scaled(model, lam, _s=scale):
                n, ng, bad = real_index_fields(model, lam)
                return n, np.where(np.abs(lam - lam1) < 1e-12, ng * _s, ng), bad

            monkeypatch.setattr(emission.dispersion, "index_fields", scaled)
            values[scale] = density_gaussian(m1, m2, config)
        for scale in (2.0, 5.0):
            assert values[scale] * scale**2 == pytest.approx(
                values[1.0], rel=1e-9, abs=0.0
            )

    def test_length_linear(self):
        short = silica_config(length_m=0.01)
        long = silica_config(length_m=0.05)
        m1, m2 = on_curve_pair(short, 0.65)
        ratio = density_gaussian(m1, m2, long) / density_gaussian(m1, m2, short)
        assert ratio == pytest.approx(5.0, rel=1e-12)


class TestTransverseWeight:
    @pytest.mark.parametrize(
        "profile",
        [
            GaussianProfile(eta=0.001, sigma=1.3),
            TanhProfile(eta=0.001, sigma_x=1.1, sigma_y=0.7, sigma_z=1.6),
        ],
        ids=["gaussian", "tanh"],
    )
    def test_transverse_weight_factors_form_factor(self, profile):
        form_factor = (
            gaussian_form_factor if isinstance(profile, GaussianProfile) else tanh_form_factor
        )
        kx = np.linspace(0.2, 3.0, 7)[:, None]
        ky = np.linspace(-2.0, 2.5, 5)
        weight = ky.copy()
        assert emission._transverse_weight(profile, weight) is weight  # in place
        assert weight * form_factor(profile, kx, 0.0, 0.0) == pytest.approx(
            form_factor(profile, kx, ky, 0.0), rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize(
        "profile, sy",
        [
            (GaussianProfile(eta=0.001, sigma=1.3), 1.3),
            (TanhProfile(eta=0.001, sigma_x=1.1, sigma_y=0.7, sigma_z=1.6), 0.7),
        ],
        ids=["gaussian", "tanh"],
    )
    def test_weight_below_cut_is_zero(self, profile, sy):
        # sy^2 ky^2 straddles the cut at 690, numpy's slow exp below 708.4 and its
        # subnormal band (708.4, 745.1)
        s2ky2 = np.array([0.0, 689.0, 690.0, 691.0, 708.3, 708.5, 745.2, 800.0])
        ky = np.sqrt(s2ky2) / sy * np.array([1.0, -1.0] * 4)
        arg = np.square(ky) * (-sy * sy)
        live = arg > -690.0
        assert live[:2].all() and not live[3:].any()
        weight = ky.copy()
        assert emission._transverse_weight(profile, weight) is weight  # in place
        assert weight[live].tobytes() == np.exp(arg[live]).tobytes()
        assert np.all(weight[~live] == 0.0)
        assert np.all(weight[weight != 0.0] >= np.finfo(float).tiny)


class TestScalarKernelBits:
    """The point densities run the kernel on floats: the bits of a 1-element array call."""

    PROFILES = {
        "gaussian": GaussianProfile(eta=0.001, sigma=1.0),
        "tanh": TanhProfile(eta=0.001, sigma_x=1.1, sigma_y=1.0, sigma_z=1.0),
    }
    MODELS = {
        "fused_silica": lambda: get_material("fused_silica"),
        "silicon": lambda: get_material("silicon"),
        "fast_light": lambda: DispersionModel(
            base=get_material("fused_silica").base,
            resonances=(dispersion.fast_light_resonance(0.06, 0.01, 0.3349),),
        ),
    }
    # (theta1, theta2, phi2): collinear, and non-collinear out of the xy plane
    GEOMETRIES = {"collinear": (0.0, math.pi, 0.0), "noncollinear": (0.3, 2.5, 1.1)}
    # kx where the sinh(pi sigma_x kx / 2) of the tanh profile above squares
    # differently with libm pow (a float ** 2) than with np.square
    POW_KX = (0.778, 2.312)
    # fused-silica (lam1, lam2) where (n1 + n2) ** 2 on floats is not the square
    POW_LAMS = ((0.31, 1.28), (0.53, 1.23), (0.95, 1.35))

    @staticmethod
    def kernel_both_ways(config, lam1, lam2, ksum, cos_t1, cos_t2, angular):
        """_density_kernel on Python floats and on 1-element arrays."""
        fields1 = dispersion.index_fields(config.material, lam1)[:2]
        fields2 = dispersion.index_fields(config.material, lam2)[:2]
        scalar, _ = emission._density_kernel(
            config, lam1, lam2, fields1, fields2, ksum, cos_t1, cos_t2, angular
        )
        one = lambda x: np.array([x])
        array, _ = emission._density_kernel(
            config, one(lam1), one(lam2), tuple(map(one, fields1)), tuple(map(one, fields2)),
            tuple(map(one, ksum)), cos_t1, cos_t2, angular,
        )
        return float(scalar), float(array[0])

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_form_factors(self, profile):
        profile = self.PROFILES[profile]
        form_factor = (
            gaussian_form_factor if isinstance(profile, GaussianProfile) else tanh_form_factor
        )
        rng = np.random.default_rng(7)
        kx = np.append(rng.uniform(0.05, 4.0, 200), self.POW_KX).tolist()
        ky, kz = rng.uniform(-3.0, 3.0, 202).tolist(), rng.normal(size=202).tolist()
        for x, y, z in zip(kx, ky, kz):
            value = form_factor(profile, x, y, z)
            assert value == form_factor(profile, np.array([x]), np.array([y]), np.array([z]))[0]

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_point_pairs(self, profile, model, geometry):
        model = self.MODELS[model]()
        config = EmissionConfig(
            material=model, profile=self.PROFILES[profile],
            kin=PerturbationKinematics(beta=10.0), length_m=0.05,
        )
        theta1, theta2, phi2 = self.GEOMETRIES[geometry]
        lo, hi = dispersion.transparency_window(model)
        checked = 0
        for lam1 in np.geomspace(1.05 * lo, min(hi, 3.0), 40).tolist():
            try:
                lam2 = solve_partner(lam1, theta1, theta2, config.kin, model)
            except NoSignChangeError:
                continue
            k1 = 2.0 * math.pi * dispersion.refractive_index(model, lam1) / lam1
            k2 = 2.0 * math.pi * dispersion.refractive_index(model, lam2) / lam2
            s1, s2 = k1 * math.sin(theta1), k2 * math.sin(theta2)
            ksum = (
                k1 * math.cos(theta1) + k2 * math.cos(theta2),
                s1 + s2 * math.cos(phi2),
                s2 * math.sin(phi2),
            )
            cos_psi = (
                math.cos(theta1) * math.cos(theta2)
                + math.sin(theta1) * math.sin(theta2) * math.cos(phi2)
            )
            scalar, array = self.kernel_both_ways(
                config, lam1, lam2, ksum, math.cos(theta1), math.cos(theta2),
                1.0 + cos_psi * cos_psi,
            )
            assert scalar == array
            checked += 1
        assert checked >= 10

    def test_pinned_pow_cases(self):
        # the kernel need not see a pair on the constraint, so the pinned
        # values go in directly
        for profile in self.PROFILES.values():
            config = EmissionConfig(
                material=get_material("fused_silica"), profile=profile,
                kin=PerturbationKinematics(beta=10.0), length_m=0.05,
            )
            for kx in self.POW_KX:
                scalar, array = self.kernel_both_ways(
                    config, 0.4, 0.5, (kx, 0.3, -0.2), 0.9, -0.8, 1.5
                )
                assert scalar == array
            for lam1, lam2 in self.POW_LAMS:
                scalar, array = self.kernel_both_ways(
                    config, lam1, lam2, (1.3, 0.3, 0.0), 1.0, -1.0, 2.0
                )
                assert scalar == array


def exact_squares(targets):
    """(ky, kz) with -(ky * ky + kz * kz) == t exactly for each target t <= 0."""
    kz = np.arange(4000) * 1e-3
    pairs = []
    for t in targets:
        ky = np.sqrt(-t - kz * kz)
        for _ in range(3):
            hit = np.flatnonzero(-(ky * ky + kz * kz) == t)
            if hit.size:
                break
            ky = np.nextafter(ky, np.inf)
        assert hit.size, t
        pairs.append((ky[hit[0]], kz[hit[0]]))
    return np.array(pairs).T


@pytest.mark.parametrize("profile", sorted(TestScalarKernelBits.PROFILES))
def test_form_factor_exp_keeps_bits(profile):
    # the form factors skip exp at or below -745.2, where it rounds to +0.0; each
    # must keep the bits of the unguarded sigma^6 exp(...) on every argument
    profile = TestScalarKernelBits.PROFILES[profile]
    boundary = [-745.2, -745.1332191019412, np.nextafter(-745.2, 0.0), -745.13, -708.4]
    ky_exact, kz_exact = exact_squares(boundary)
    spread = np.concatenate([np.linspace(0.0, 3000.0, 3001), np.linspace(708.4, 745.13, 1000)])
    special = [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.nan),
               (1.0, math.inf), (math.inf, -math.inf), (math.nan, math.inf)]
    ky = np.concatenate([np.sqrt(spread), ky_exact, [y for y, _ in special]])
    kz = np.concatenate([np.zeros(spread.size), kz_exact, [z for _, z in special]])
    # the argument each form factor gives exp, with sigma = sigma_y = sigma_z = 1
    arg = -(ky * ky + kz * kz)
    assert set(boundary) <= set(arg.tolist())
    finite = arg[np.isfinite(arg)]
    assert finite.min() <= -3000.0 and finite.max() == 0.0
    if isinstance(profile, GaussianProfile):
        assert profile.sigma == 1.0
        kx = np.zeros(ky.size)
        s2 = profile.sigma * profile.sigma
        expected = profile.sigma**6 * np.exp(-s2 * (kx * kx + ky * ky + kz * kz))
        values = gaussian_form_factor(profile, kx, ky, kz)
    else:
        sx, sy, sz = profile.sigma_x, profile.sigma_y, profile.sigma_z
        assert sy == sz == 1.0
        # near the csch^2 pole, so the prefactor (about 63) keeps exp's subnormals
        kx = np.full(ky.size, 0.1)
        expected = (
            (sx * sy * sz) ** 2
            * (math.pi / 2.0)
            * (1.0 / np.square(np.sinh(0.5 * math.pi * sx * kx)))
            * np.exp(-sy**2 * np.square(ky) - sz**2 * np.square(kz))
        )
        values = tanh_form_factor(profile, kx, ky, kz)
    assert values.tobytes() == expected.tobytes()
    # the guard is live: zeros below the cut, subnormals just above it, nan kept
    assert np.all(values[arg <= -745.2] == 0.0)
    assert np.count_nonzero((values > 0.0) & (values < np.finfo(float).tiny)) >= 100
    assert np.isnan(values).sum() == 3
    form_factor = gaussian_form_factor if isinstance(profile, GaussianProfile) else tanh_form_factor
    # with no argument at or below the cut (the least is the next float above it),
    # exp runs unmasked, in place
    above = ~(arg <= -745.2)
    assert np.nanmin(arg[above]) == np.nextafter(-745.2, 0.0)
    unmasked = form_factor(profile, kx[above], ky[above], kz[above])
    assert unmasked.tobytes() == expected[above].tobytes()
    assert np.count_nonzero((unmasked > 0.0) & (unmasked < np.finfo(float).tiny)) >= 100
    assert np.isnan(unmasked).sum() == 3
    floats = np.array([
        form_factor(profile, x, y, z) for x, y, z in zip(kx.tolist(), ky.tolist(), kz.tolist())
    ])
    assert floats.tobytes() == values.tobytes()


def kernel_calls(config):
    """_density_kernel's arguments after config, in the shapes its callers use.

    float: the point densities; grid: a _grid_fields block; cone_rows: a
    _cone_rows row block; phi_nodes: tests/oracles.total_row_density_3d, whose
    ky and angular carry a phi axis that the other arguments lack.
    """
    def fields(lam):
        return dispersion.index_fields(config.material, lam)[:2]

    lin = np.linspace
    grid1, grid2 = np.geomspace(0.4, 0.8, 5)[:, None], np.geomspace(0.5, 1.0, 7)[None, :]
    cone1, cone2 = np.geomspace(0.4, 0.8, 3)[:, None, None], lin(0.5, 1.0, 60).reshape(3, 4, 5)
    phi2 = lin(0.5, 1.0, 20).reshape(4, 5, 1)
    on_shell = lambda lam1, lam2: kinematics._on_shell_sum(lam1, lam2, config.kin)
    return {
        "float": (0.6, 0.7, (1.46, 1.48), (1.45, 1.47), (1.3, 0.4, -0.2), 0.9, -0.8, 1.5),
        "grid": (
            grid1, grid2, fields(grid1), fields(grid2), (on_shell(grid1, grid2),
            lin(0.1, 3.0, 35).reshape(5, 7), 0.0), 1.0, lin(-1.0, 1.0, 35).reshape(5, 7),
            lin(1.0, 2.0, 35).reshape(5, 7),
        ),
        "cone_rows": (
            cone1, cone2, fields(cone1), fields(cone2), (on_shell(cone1, cone2), 0.0, 0.0),
            lin(1.0, 0.8, 4)[:, None], lin(-1.0, -0.5, 5)[None, :], 1.0,
        ),
        "phi_nodes": (
            0.6, phi2, (1.46, 1.48), fields(phi2), (on_shell(0.6, phi2),
            lin(0.1, 3.0, 120).reshape(4, 5, 6), 0.0), lin(1.0, 0.8, 4)[:, None, None],
            lin(-1.0, -0.5, 5)[None, :, None], lin(1.0, 2.0, 120).reshape(4, 5, 6),
        ),
    }


def arrays_of(args):
    """Every array in the nested tuple args, in order."""
    if isinstance(args, tuple):
        return [a for arg in args for a in arrays_of(arg)]
    return [args] if isinstance(args, np.ndarray) else []


@pytest.mark.parametrize("call", ["float", "grid", "cone_rows", "phi_nodes"])
@pytest.mark.parametrize("profile", sorted(TestScalarKernelBits.PROFILES))
def test_kernel_leaves_arguments(profile, call):
    # the kernel and form factors work in place on their own temporaries only;
    # every cell keeps the bits it has with each argument of the full shape
    config = EmissionConfig(
        material=get_material("fused_silica"), profile=TestScalarKernelBits.PROFILES[profile],
        kin=PerturbationKinematics(beta=10.0), length_m=0.05,
    )
    form_factor = gaussian_form_factor if profile == "gaussian" else tanh_form_factor
    args = kernel_calls(config)[call]
    before = [a.copy() for a in arrays_of(args)]
    values, _ = emission._density_kernel(config, *args)
    ff = form_factor(config.profile, *args[4])
    for a, copy in zip(arrays_of(args), before, strict=True):
        assert a.tobytes() == copy.tobytes()
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays_of(args)))
    assert np.shape(values) == shape and np.all(np.isfinite(values)) and np.all(values > 0.0)
    full = lambda a: np.broadcast_to(a, shape).copy() if isinstance(a, np.ndarray) else a
    wide = tuple(tuple(map(full, a)) if isinstance(a, tuple) else full(a) for a in args)
    assert np.asarray(values).tobytes() == emission._density_kernel(config, *wide)[0].tobytes()
    assert np.asarray(ff).tobytes() == np.asarray(form_factor(config.profile, *wide[4])).tobytes()


class TestTanhDensity:
    def tanh_config(self, **kw):
        return EmissionConfig(
            material=get_material("fused_silica"),
            profile=TanhProfile(eta=0.001, sigma_x=1.1, sigma_y=1.0, sigma_z=1.0),
            kin=PerturbationKinematics(beta=kw.pop("beta", 20.0)),
            length_m=0.05,
        )

    def test_positive_and_exchange_symmetric(self):
        config = self.tanh_config()
        m1, m2 = on_curve_pair(config, 0.34)
        v = density_tanh(m1, m2, config)
        assert v > 0.0
        assert density_tanh(m2, m1, config) == v

    def test_below_gaussian_at_shared_maximum(self):
        gauss = silica_config(beta=20.0)
        tanh = self.tanh_config()
        m1, m2 = on_curve_pair(gauss, 0.335)
        assert density_tanh(m1, m2, tanh) < density_gaussian(m1, m2, gauss)

    def test_wide_front_underflows_without_warning(self):
        # sinh(pi sigma_x kx / 2) overflows for a 100 um front: csch^2 is an
        # exact 0, and no RuntimeWarning (an error in this suite) is raised
        config = EmissionConfig(
            material=get_material("fused_silica"),
            profile=TanhProfile(eta=0.001, sigma_x=100.0, sigma_y=1.0, sigma_z=1.0),
            kin=PerturbationKinematics(beta=2.0),
            length_m=0.05,
        )
        m1, m2 = on_curve_pair(config, 0.2)
        assert density_tanh(m1, m2, config) == 0.0
        grid = collinear_grid(config, (0.15, 0.3), (0.15, 0.3), 21)
        assert (grid.flags == FLAG_OK).any()
        assert not grid.values.any()

    def test_form_factor_limits(self):
        profile = TanhProfile(eta=0.001, sigma_x=1.0, sigma_y=1.0, sigma_z=1.0)
        # csch^2 decays exponentially for large argument
        assert tanh_form_factor(profile, 10.0, 0.0, 0.0) < tanh_form_factor(
            profile, 1.0, 0.0, 0.0
        )


class TestGrid:
    def test_values_nonnegative_and_flagged(self):
        config = silica_config(beta=20.0)
        grid = collinear_grid(config, (0.25, 0.5), (0.25, 0.5), 61)
        assert (grid.values >= 0.0).all()
        assert set(np.unique(grid.flags)) <= {FLAG_OK, FLAG_FORBIDDEN, emission.FLAG_HOLE}
        assert (grid.values[grid.flags != FLAG_OK] == 0.0).all()

    def test_grid_matches_scalar_density(self):
        # the grid implies theta2 from axial momentum balance, so every
        # allowed cell is exactly on the pair curve for some angle
        config = silica_config(beta=20.0)
        model = config.material
        lam1 = 0.335
        lam2 = solve_partner(lam1, 0.0, math.pi, config.kin, model) * (1.0 - 1e-6)
        values, flags = emission._grid_fields(config, np.array([lam1]), np.array([lam2]))
        assert int(flags[0, 0]) == FLAG_OK
        k1 = 2.0 * math.pi * dispersion.refractive_index(model, lam1) / lam1
        k2 = 2.0 * math.pi * dispersion.refractive_index(model, lam2) / lam2
        source = 2.0 * math.pi * (1.0 / lam1 + 1.0 / lam2) / config.kin.beta
        theta2 = math.acos((source - k1) / k2)
        expected = density_gaussian(
            PhotonMode(lam1, 0.0), PhotonMode(lam2, theta2), config
        )
        assert values[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_refinement_stability(self):
        config = silica_config(beta=20.0)
        window = (0.3, 0.4)
        coarse = collinear_grid(config, window, window, 81)
        fine = collinear_grid(config, window, window, 161)
        assert fine.max_value() == pytest.approx(coarse.max_value(), rel=0.2)

    def test_deterministic(self):
        config = silica_config(beta=20.0)
        a = collinear_grid(config, (0.25, 0.5), (0.25, 0.5), 41)
        b = collinear_grid(config, (0.25, 0.5), (0.25, 0.5), 41)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.flags, b.flags)

    @pytest.mark.parametrize("resolution", [0, -3, 1, 2.0])
    def test_rejects_bad_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            collinear_grid(silica_config(beta=20.0), (0.3, 0.4), (0.3, 0.4), resolution)

    @pytest.mark.parametrize(
        "bad",
        [(-0.3, 0.4), (0.3, math.nan), (math.nan, 0.4), (0.3, math.inf), (0.4, 0.3),
         (0.3, 0.4, 0.5)],
        ids=["negative", "nan_max", "nan_min", "inf_max", "reversed", "three_items"],
    )
    @pytest.mark.parametrize("axis", ["lambda1_range", "lambda2_range"])
    def test_rejects_bad_range(self, axis, bad):
        ranges = {"lambda1_range": (0.3, 0.4), "lambda2_range": (0.3, 0.4), axis: bad}
        with pytest.raises(ValueError, match=axis):
            collinear_grid(silica_config(beta=20.0), resolution=5, **ranges)

    def test_subluminal_grid_all_forbidden(self):
        config = silica_config(beta=0.5)
        grid = collinear_grid(config, (0.3, 3.0), (0.3, 3.0), 31)
        assert grid.max_value() == 0.0
        assert (grid.flags[grid.flags != emission.FLAG_HOLE] == FLAG_FORBIDDEN).all()


class TestGridBlocks:
    """A grid keeps its bits in any row blocking, runs the density only on each
    block's span, and its temporaries stay small."""

    # (model, profile, beta, window in um, resolution), with the models and
    # profiles of TestScalarKernelBits
    CASES = {
        "gaussian": ("fused_silica", "gaussian", 20.0, (0.25, 0.5), 41),
        "tanh": ("fused_silica", "tanh", 20.0, (0.25, 0.5), 41),
        "silicon": ("silicon", "gaussian", 20.0, (1.2, 4.0), 41),
        "fast_light": ("fast_light", "gaussian", 20.0, (0.2512, 0.4825), 41),
        # holds all three flags: 3365 ok, 2564 forbidden, 3480 hole
        "all_flags": ("fused_silica", "gaussian", 10.0, (0.05, 0.3), 97),
        # inside the transparency window, so every HOLE is on the csch^2 pole,
        # and some lie in forbidden cells outside their row's span
        "tanh_csch": ("fused_silica", "tanh", 1e7, (0.3, 6.0), 41),
        # across the infrared edge of the transparency window: HOLE cells that
        # are also forbidden, outside their row's span
        "infrared_edge": ("fused_silica", "gaussian", 20.0, (2.0, 12.0), 41),
        # subluminal: every cell FORBIDDEN, no span at all
        "subluminal": ("fused_silica", "gaussian", 0.5, (0.25, 0.5), 41),
    }

    def config(self, case):
        model, profile, beta, _, _ = self.CASES[case]
        return EmissionConfig(
            material=TestScalarKernelBits.MODELS[model](),
            profile=TestScalarKernelBits.PROFILES[profile],
            kin=PerturbationKinematics(beta=beta),
            length_m=0.05,
        )

    @staticmethod
    def forbidden(config, lam):
        """|cos(theta2)| > 1 on the (lam, lam) grid, from the constraint alone."""
        n, _, _ = dispersion.index_fields(config.material, lam)
        k = 2.0 * math.pi * n / lam
        on_shell = (2.0 * math.pi / config.kin.beta) * (1.0 / lam[:, None] + 1.0 / lam[None, :])
        with np.errstate(invalid="ignore"):
            return np.abs((on_shell - k[:, None]) / k[None, :]) > 1.0

    @staticmethod
    def outside_spans(flags):
        """The cells outside each row's span: its first to last ok column, in whole eighths."""
        eighth = -(-flags.shape[1] // 8)
        outside = np.ones(flags.shape, dtype=bool)
        for row, ok in zip(outside, flags == FLAG_OK):
            cols = np.flatnonzero(ok)
            if cols.size:
                row[cols[0] // eighth * eighth : -(-(cols[-1] + 1) // eighth) * eighth] = False
        return outside

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_blocking_keeps_bits(self, monkeypatch, case):
        _, _, _, window, resolution = self.CASES[case]
        config = self.config(case)
        lam = np.geomspace(*window, resolution)
        grids = []
        # one block; one row per block; three rows per block and a partial last block
        for cells in (10**9, 7, 3 * resolution + 2):
            monkeypatch.setattr(emission, "_BLOCK_CELLS", cells)
            grid = collinear_grid(config, window, window, resolution)
            values, flags = grid_fields_full_blocks(config, lam, lam)
            assert grid.values.tobytes() == values.tobytes()
            assert grid.flags.dtype == flags.dtype
            assert grid.flags.tobytes() == flags.tobytes()
            grids.append(grid)
        one = grids[0]
        for grid in grids[1:]:
            assert grid.values.tobytes() == one.values.tobytes()
            assert np.array_equal(grid.flags, one.flags)
        counts = np.bincount(one.flags.ravel(), minlength=3)
        if case == "subluminal":
            assert counts.tolist() == [0, resolution**2, 0]
        else:
            assert counts[FLAG_OK] > 0
        if case == "all_flags":
            assert counts.tolist() == [3365, 2564, 3480]
        if case in ("tanh_csch", "infrared_edge"):
            # HOLE beats FORBIDDEN where the density never runs
            hole = one.flags == emission.FLAG_HOLE
            assert (hole & self.forbidden(config, lam) & self.outside_spans(one.flags)).any()
        if case == "tanh_csch":
            lo, hi = dispersion.transparency_window(config.material)
            assert lo < window[0] and window[1] < hi

    # sha1 of (values.tobytes(), flags.tobytes()) of each case's collinear_grid,
    # recorded with numpy 2.4.6 on glibc 2.36, keyed by numpy's version and its
    # float64 exp and sinh dispatch (see numpy_dispatch); hypot is libm's
    GRID_SHA1 = {
        ("2.4.6", "X86_V4", "X86_V4"): {
            "gaussian": ("a30bfbd71ad2368d25fcbb529c6ad6957df10320",
                         "8523388a67a9c97fb4bff32623389395021916e4"),
            "tanh": ("3ffbf5a86e4b650b6b97d945dc9efb6650ef72a8",
                     "8523388a67a9c97fb4bff32623389395021916e4"),
            "fast_light": ("51f33f188f3c0512340bfa43d0add9d1ddd3965e",
                           "32c1f1a796ad746399cb51e5193b7a02f6e1884c"),
            "all_flags": ("14179b6c020d051eb545042b6fe17b8d08c3eca6",
                          "c816452e8290822836e8c921ee1defb86a81ef69"),
        },
        # NPY_DISABLE_CPU_FEATURES without AVX-512: AVX2 exp, libm sinh
        ("2.4.6", "X86_V3", "baseline(X86_V2)"): {
            "gaussian": ("d26f6e2c9cd3637617bd0a51720da729265f589b",
                         "8523388a67a9c97fb4bff32623389395021916e4"),
            "tanh": ("bbab382ba30b68b08adaaa8d6435e1cc30ed3705",
                     "8523388a67a9c97fb4bff32623389395021916e4"),
            "fast_light": ("7606a512b8520b94ff8f5efdacfafc80a4ae4b4f",
                           "32c1f1a796ad746399cb51e5193b7a02f6e1884c"),
            "all_flags": ("408b5ab88e077cfe53c47278dc0a1279b4dabd43",
                          "c816452e8290822836e8c921ee1defb86a81ef69"),
        },
    }

    @pytest.mark.parametrize("case", ["gaussian", "tanh", "fast_light", "all_flags"])
    def test_pinned_grid_bytes(self, case):
        # test_blocking_keeps_bits compares two paths through the one kernel; these
        # literals also catch a kernel change that moves every cell
        pinned = self.GRID_SHA1.get(numpy_dispatch())
        if pinned is None:
            pytest.skip(f"no grid bytes recorded for numpy and dispatch {numpy_dispatch()}")
        _, _, _, window, resolution = self.CASES[case]
        grid = collinear_grid(self.config(case), window, window, resolution)
        assert grid.flags.dtype == np.int64
        assert (
            hashlib.sha1(grid.values.tobytes()).hexdigest(),
            hashlib.sha1(grid.flags.tobytes()).hexdigest(),
        ) == pinned[case]

    def test_density_runs_on_spans_only(self, monkeypatch):
        cells = []
        kernel = emission._density_kernel

        def counted(*args):
            values, csch = kernel(*args)
            cells.append(np.size(values))
            return values, csch

        monkeypatch.setattr(emission, "_density_kernel", counted)
        # one row per block: a 41 x 41 grid is one block by default, whose
        # span is the whole row
        monkeypatch.setattr(emission, "_BLOCK_CELLS", 7)
        for case, expect_calls in (("subluminal", False), ("gaussian", True)):
            cells.clear()
            _, _, _, window, resolution = self.CASES[case]
            grid = collinear_grid(self.config(case), window, window, resolution)
            assert bool(cells) == expect_calls
            assert sum(cells) < grid.values.size

    @pytest.mark.parametrize("cap", [1, 7, 100, 15_000])
    def test_row_blocks(self, monkeypatch, cap):
        monkeypatch.setattr(emission, "_BLOCK_CELLS", cap)
        for rows in (0, 1, 2, 17, 33, 97, 1201):
            for cells_per_row in (1, 3, 13, 585, 1201, 2193, 20_000):
                blocks = emission._row_blocks(rows, cells_per_row)
                assert emission._row_blocks(rows, cells_per_row, cap) == blocks
                # every row once, in order
                assert [i for b in blocks for i in range(rows)[b]] == list(range(rows))
                sizes = [len(range(rows)[b]) for b in blocks]
                assert all(size * cells_per_row <= cap or size == 1 for size in sizes)
                # as few blocks as the cap allows, their sizes at most one apart, none empty
                assert len(blocks) == -(-rows // max(1, cap // cells_per_row))
                assert max(sizes, default=1) - min(sizes, default=1) <= 1
                assert all(size > 0 for size in sizes)

    def test_peak_memory_near_the_outputs(self):
        # no temporary spans the grid: those of a row block are small beside the outputs
        config = silica_config(beta=20.0)
        tracemalloc.start()
        try:
            grid = collinear_grid(config, (0.25, 0.5), (0.25, 0.5), 401)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (grid.values.nbytes + grid.flags.nbytes)
