"""Emission-density tests: oracles, scaling laws, grids, config snapshots."""

import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from vacuumpairs import dispersion, emission
from vacuumpairs.cli import _emission_config, main
from vacuumpairs.dispersion import ConstantIndex, DispersionModel
from vacuumpairs.emission import (
    FLAG_FORBIDDEN,
    FLAG_OK,
    EmissionConfig,
    GaussianProfile,
    TanhProfile,
    collinear_grid,
    config_to_dict,
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

from oracles import density_nondispersive


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
            n = nn(lam)
            k = 2 * pi * n / lam
            omega = 2 * pi * c_um / lam
            vals.append((lam, theta, n, ng(lam), k, omega))
        (l1, t1, n1, ng1, k1, w1), (l2, t2, n2, ng2, k2, w2) = vals
        kx = k1 * mpmath.cos(t1) + k2 * mpmath.cos(t2)
        ky = k1 * mpmath.sin(t1) + k2 * mpmath.sin(t2)
        cos_psi = mpmath.cos(t1) * mpmath.cos(t2) + mpmath.sin(t1) * mpmath.sin(t2)
        common = (
            eta**2 * pi**2 / (v * v) * w1 * w2 * (n1 + n2) ** 2
            * (1 + cos_psi**2) / (n1 * n1 * ng1 * ng1 * n2 * n2 * ng2 * ng2)
        )
        ff = sigma**6 * mpmath.exp(-sigma * sigma * (kx * kx + ky * ky))
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
                assert a == pytest.approx(b, rel=1e-9)

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
            m1, m2 = PhotonMode(lam1, theta1), PhotonMode(lam2, theta2, phi2)
            k1 = 2.0 * math.pi * dispersion.refractive_index(model, lam1) / lam1
            k2 = 2.0 * math.pi * dispersion.refractive_index(model, lam2) / lam2
            kvec1, kvec2 = emission._wavevector(k1, m1), emission._wavevector(k2, m2)
            cos_psi = float(np.dot(kvec1, kvec2)) / (k1 * k2)
            scalar, array = self.kernel_both_ways(
                config, lam1, lam2, (kvec1 + kvec2).tolist(), math.cos(theta1),
                math.cos(theta2), 1.0 + cos_psi * cos_psi,
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

    def test_subluminal_grid_all_forbidden(self):
        config = silica_config(beta=0.5)
        grid = collinear_grid(config, (0.3, 3.0), (0.3, 3.0), 31)
        assert grid.max_value() == 0.0
        assert (grid.flags[grid.flags != emission.FLAG_HOLE] == FLAG_FORBIDDEN).all()


class TestGridBlocks:
    """A grid keeps its bits in any row blocking, and its temporaries stay small."""

    # (model, profile, beta, window in um, resolution), with the models and
    # profiles of TestScalarKernelBits
    CASES = {
        "gaussian": ("fused_silica", "gaussian", 20.0, (0.25, 0.5), 41),
        "tanh": ("fused_silica", "tanh", 20.0, (0.25, 0.5), 41),
        "silicon": ("silicon", "gaussian", 20.0, (1.2, 4.0), 41),
        "fast_light": ("fast_light", "gaussian", 20.0, (0.2512, 0.4825), 41),
        # holds all three flags: 3365 ok, 2564 forbidden, 3480 hole
        "all_flags": ("fused_silica", "gaussian", 10.0, (0.05, 0.3), 97),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_blocking_keeps_bits(self, monkeypatch, case):
        model, profile, beta, window, resolution = self.CASES[case]
        config = EmissionConfig(
            material=TestScalarKernelBits.MODELS[model](),
            profile=TestScalarKernelBits.PROFILES[profile],
            kin=PerturbationKinematics(beta=beta),
            length_m=0.05,
        )
        grids = []
        # one block; one row per block; three rows per block and a partial last block
        for cells in (10**9, 7, 3 * resolution + 2):
            monkeypatch.setattr(emission, "_BLOCK_CELLS", cells)
            grids.append(collinear_grid(config, window, window, resolution))
        one = grids[0]
        assert np.bincount(one.flags.ravel(), minlength=3)[FLAG_OK] > 0
        for grid in grids[1:]:
            assert grid.values.tobytes() == one.values.tobytes()
            assert grid.flags.dtype == one.flags.dtype
            assert np.array_equal(grid.flags, one.flags)
        if case == "all_flags":
            assert np.bincount(one.flags.ravel(), minlength=3).tolist() == [3365, 2564, 3480]

    @pytest.mark.parametrize("cap", [1, 7, 100, 15_000])
    def test_row_blocks(self, monkeypatch, cap):
        monkeypatch.setattr(emission, "_BLOCK_CELLS", cap)
        for rows in (0, 1, 2, 17, 33, 97, 1201):
            for cells_per_row in (1, 3, 13, 585, 1201, 2193, 20_000):
                blocks = emission._row_blocks(rows, cells_per_row)
                # every row once, in order
                assert [i for b in blocks for i in range(rows)[b]] == list(range(rows))
                sizes = [len(range(rows)[b]) for b in blocks]
                assert all(size * cells_per_row <= cap or size == 1 for size in sizes)
                # as few blocks as the cap allows, all but the last of one size,
                # the smallest size that needs no more blocks
                assert len(blocks) == -(-rows // max(1, cap // cells_per_row))
                assert len(set(sizes[:-1])) <= 1 and sizes[-1:] <= sizes[:1]
                assert all((size - 1) * len(blocks) < rows for size in sizes[:1])

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


class TestSerialization:
    def test_config_roundtrip(self):
        config = silica_config()
        doc = config_to_dict(config)
        again = _emission_config(json.loads(json.dumps(doc)))
        assert again == config

    def test_config_convention_mismatch_rejected(self):
        doc = config_to_dict(silica_config())
        with pytest.raises(ValueError, match="convention"):
            _emission_config({**doc, "convention": "per-domega"})

    def test_config_without_convention_accepted(self):
        doc = config_to_dict(silica_config())
        del doc["convention"]
        assert _emission_config(doc) == silica_config()

    def test_rewrite_byte_identical(self, tmp_path):
        doc = {
            **config_to_dict(silica_config(beta=20.0)),
            "lambda1_window_um": [0.3, 0.4],
            "lambda2_window_um": [0.3, 0.4],
            "resolution": 21,
        }
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (p1, p2):
            assert main(["spectrum", "--config", str(config), "--out", str(path)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_tanh_profile_roundtrip(self):
        profile = TanhProfile(eta=0.001, sigma_x=1.1, sigma_y=0.9, sigma_z=1.3)
        assert emission.profile_from_dict(emission.profile_to_dict(profile)) == profile
