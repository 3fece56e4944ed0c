"""Pair-kinematics tests: closed forms, symmetry, thresholds, cones."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuumpairs import dispersion
from vacuumpairs.dispersion import ConstantIndex, DispersionModel, fast_light_resonance
from vacuumpairs.kinematics import (
    NoSignChangeError,
    PerturbationKinematics,
    PhotonMode,
    SubluminalError,
    cerenkov_angle,
    classify_cones,
    constraint_residual,
    constraint_tolerance,
    MultipleRootsWarning,
    pair_constraint_residual,
    solve_partner,
    solve_partners,
    wavenumber,
)
from vacuumpairs.materials import get_material

from oracles import partner_nondispersive


def constant(n0):
    return DispersionModel(base=ConstantIndex(n0))


def closed_form_partner(lam1, beta, n0):
    """Collinear partner for a dispersionless medium."""
    bn = beta * n0
    return lam1 * (bn + 1.0) / (bn - 1.0)


class TestWavenumber:
    def test_definition(self):
        model = constant(1.5)
        assert wavenumber(model, 0.5) == pytest.approx(2.0 * math.pi * 1.5 / 0.5)

    def test_array(self):
        model = get_material("fused_silica")
        lams = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(
            wavenumber(model, lams),
            [wavenumber(model, float(l)) for l in lams],
        )


class TestCerenkov:
    def test_angle_closed_form(self):
        kin = PerturbationKinematics(beta=2.0)
        angle = cerenkov_angle(1.0, kin, constant(1.5))
        assert angle == pytest.approx(math.acos(1.0 / 3.0))

    def test_subluminal_raises(self):
        kin = PerturbationKinematics(beta=0.5)
        with pytest.raises(SubluminalError):
            cerenkov_angle(1.0, kin, constant(1.5))

    @given(
        st.floats(min_value=1.01, max_value=50.0),
        st.floats(min_value=1.0, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_angle_grows_with_speed(self, beta, n0):
        if beta * n0 <= 1.0:
            return
        model = constant(n0)
        a1 = cerenkov_angle(1.0, PerturbationKinematics(beta=beta), model)
        a2 = cerenkov_angle(1.0, PerturbationKinematics(beta=beta * 1.5), model)
        assert a2 > a1


class TestResidual:
    def test_zero_on_closed_form_pair(self):
        beta, n0 = 2.0, 1.5
        kin = PerturbationKinematics(beta=beta)
        lam1 = 1.0
        lam2 = closed_form_partner(lam1, beta, n0)
        res = pair_constraint_residual(
            PhotonMode(lam1, 0.0), PhotonMode(lam2, math.pi), kin, constant(n0)
        )
        assert abs(res) < constraint_tolerance(lam1, lam2, kin)

    def test_exchange_symmetry(self):
        kin = PerturbationKinematics(beta=3.0)
        model = get_material("fused_silica")
        m1 = PhotonMode(0.8, 0.3)
        m2 = PhotonMode(1.9, 2.6)
        assert pair_constraint_residual(m1, m2, kin, model) == pair_constraint_residual(
            m2, m1, kin, model
        )

    def test_tabulated_pair_nearly_on_curve(self):
        # beta = 2 reference pair (2.51, 4.98) um in fused silica
        kin = PerturbationKinematics(beta=2.0)
        model = get_material("fused_silica")
        res = pair_constraint_residual(
            PhotonMode(2.51, 0.0), PhotonMode(4.98, math.pi), kin, model
        )
        k1 = wavenumber(model, 2.51)
        assert abs(res) / k1 < 0.02


class TestSolvePartner:
    @given(
        st.floats(min_value=0.3, max_value=5.0),
        st.floats(min_value=1.2, max_value=30.0),
        st.floats(min_value=1.1, max_value=2.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_closed_form(self, lam1, beta, n0):
        if beta * n0 < 1.05:
            return
        kin = PerturbationKinematics(beta=beta)
        lam2 = solve_partner(lam1, 0.0, math.pi, kin, constant(n0))
        assert lam2 == pytest.approx(
            closed_form_partner(lam1, beta, n0), rel=1e-10
        )

    def test_partner_monotone_in_lam1(self):
        kin = PerturbationKinematics(beta=5.0)
        model = get_material("fused_silica")
        lams = np.geomspace(0.5, 2.0, 20)
        partners = [solve_partner(float(l), 0.0, math.pi, kin, model) for l in lams]
        assert all(a < b for a, b in zip(partners, partners[1:]))

    def test_wavelength_ratio_shrinks_with_beta(self):
        model = get_material("fused_silica")
        ratios = []
        for beta in (2.0, 5.0, 10.0, 20.0):
            lam2 = solve_partner(1.0, 0.0, math.pi, PerturbationKinematics(beta=beta), model)
            ratios.append(lam2 / 1.0)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 1.0  # backward photon always redder

    def test_subluminal_has_no_partner(self):
        kin = PerturbationKinematics(beta=0.5)
        with pytest.raises(NoSignChangeError):
            solve_partner(1.0, 0.0, math.pi, kin, get_material("fused_silica"))

    def test_residual_vanishes_at_solution(self):
        kin = PerturbationKinematics(beta=10.0)
        model = get_material("fused_silica")
        lam1, theta1, theta2 = 0.7, 0.2, 2.9
        lam2 = solve_partner(lam1, theta1, theta2, kin, model)
        res = pair_constraint_residual(
            PhotonMode(lam1, theta1), PhotonMode(lam2, theta2), kin, model
        )
        assert abs(res) < constraint_tolerance(lam1, lam2, kin)


def fast_light_silica(amplitude):
    base = get_material("fused_silica").base
    return DispersionModel(
        base=base, resonances=(fast_light_resonance(amplitude, 0.01, 0.3349),)
    )


class TestSolvePartners:
    MODELS = {
        "fused_silica": lambda: get_material("fused_silica"),
        "silicon": lambda: get_material("silicon"),
        "constant": lambda: constant(1.5),
        "fast_light": lambda: fast_light_silica(0.06),
        "fast_light_multiroot": lambda: fast_light_silica(0.3),
    }

    # the (theta1, theta2) grid of total_count at base resolution (17, 9, 65, 33)
    GRID_THETA1 = np.linspace(0.0, math.radians(30.0), 9)[:, None]
    GRID_THETA2 = np.linspace(math.pi / 2.0, math.pi, 65)[None, :]

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("beta", [0.5, 2.0, 20.0])
    def test_matches_scalar_solve(self, name, beta):
        model = self.MODELS[name]()
        kin = PerturbationKinematics(beta=beta)
        bracket = dispersion.transparency_window(model)
        lams = np.geomspace(max(0.2, bracket[0]), min(20.0, bracket[1]), 120)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootsWarning)
            partners = solve_partners(lams, 0.0, math.pi, kin, model)
            for lam1, lam2 in zip(lams, partners):
                try:
                    want = solve_partner(float(lam1), 0.0, math.pi, kin, model)
                except NoSignChangeError:
                    assert math.isnan(lam2)
                    continue
                assert lam2 == pytest.approx(want, rel=1e-12)

    def test_off_axis_angles_and_shape(self):
        kin = PerturbationKinematics(beta=10.0)
        model = get_material("fused_silica")
        lams = np.geomspace(0.5, 2.0, 6).reshape(2, 3)
        partners = solve_partners(lams, 0.2, 2.9, kin, model)
        assert partners.shape == (2, 3)
        for lam1, lam2 in zip(lams.ravel(), partners.ravel()):
            want = solve_partner(float(lam1), 0.2, 2.9, kin, model)
            assert lam2 == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n0", [0.9, 1.0, 1.5])
    def test_matches_closed_form_on_total_count_grid(self, n0):
        model = constant(n0)
        kin = PerturbationKinematics(beta=20.0)
        window = dispersion.transparency_window(model)
        lam1 = np.array([0.05, 0.15, 0.3349, 0.6, 2.0])[:, None, None]
        got = solve_partners(lam1, self.GRID_THETA1, self.GRID_THETA2, kin, model)
        want = partner_nondispersive(lam1, self.GRID_THETA1, self.GRID_THETA2, 20.0, n0)
        inside = (want > window[0]) & (want < window[1])
        assert inside.any() and not inside.all()
        assert np.all(np.isnan(got[~inside]))
        np.testing.assert_allclose(got[inside], want[inside], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", ["fused_silica", "fast_light", "fast_light_multiroot"])
    def test_matches_scalar_solve_on_total_count_grid(self, name):
        model = self.MODELS[name]()
        kin = PerturbationKinematics(beta=20.0)
        theta1, theta2 = self.GRID_THETA1, self.GRID_THETA2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootsWarning)
            for lam1 in (0.15, 0.3349, 0.6, 2.0):
                partners = solve_partners(lam1, theta1, theta2, kin, model)
                assert partners.shape == (9, 65)
                for (i, j), lam2 in np.ndenumerate(partners):
                    t1, t2 = float(theta1[i, 0]), float(theta2[0, j])
                    try:
                        want = solve_partner(lam1, t1, t2, kin, model)
                    except NoSignChangeError:
                        assert math.isnan(lam2)
                        continue
                    assert lam2 == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", ["fused_silica", "fast_light", "fast_light_multiroot"])
    def test_roots_within_constraint_tolerance_on_total_count_grid(self, name):
        model = self.MODELS[name]()
        kin = PerturbationKinematics(beta=20.0)
        theta1, theta2 = self.GRID_THETA1, self.GRID_THETA2
        cos_t1, cos_t2 = np.broadcast_arrays(np.cos(theta1), np.cos(theta2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootsWarning)
            for lam1 in (0.15, 0.3349, 0.6, 2.0):
                lam2 = solve_partners(lam1, theta1, theta2, kin, model)
                found = ~np.isnan(lam2)
                assert found.any()
                lam2 = lam2[found]
                residual = constraint_residual(
                    lam1, dispersion.refractive_index(model, lam1), cos_t1[found],
                    lam2, dispersion.refractive_index(model, lam2), cos_t2[found], kin,
                )
                assert np.all(np.abs(residual) <= constraint_tolerance(lam1, lam2, kin))

    @pytest.mark.parametrize("name", ["fused_silica", "fast_light_multiroot"])
    def test_refinement_passes_on_total_count_grid(self, name, monkeypatch):
        # dispersion passes over the (theta1, theta2) array after the bracket
        # scan; bisection to the same tolerance needs about 41 per row
        model = self.MODELS[name]()
        kin = PerturbationKinematics(beta=20.0)
        index_fields = dispersion.index_fields
        passes = []

        def counted(model, lam):
            if np.shape(lam) == (9, 65):
                passes.append(1)
            return index_fields(model, lam)

        monkeypatch.setattr(dispersion, "index_fields", counted)
        rows = np.geomspace(0.1, 5.0, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootsWarning)
            for lam1 in rows:
                solve_partners(lam1, self.GRID_THETA1, self.GRID_THETA2, kin, model)
        assert len(passes) <= 15 * len(rows)

    def test_warns_once_on_multiple_roots(self):
        kin = PerturbationKinematics(beta=20.0)
        lams = np.geomspace(0.2, 8.0, 200)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_partners(lams, 0.0, math.pi, kin, fast_light_silica(0.3))
        assert [w.category for w in caught] == [MultipleRootsWarning]


class TestCones:
    def test_overlap_for_normal_dispersion(self):
        model = get_material("fused_silica")
        kin = PerturbationKinematics(beta=2.0)
        # n(lam1) > n(lam2) in the normal region: the short-wavelength cone
        # is wider
        cones = classify_cones(0.5, 2.0, kin, model)
        assert cones.variant == "overlap"
        assert cones.theta_cone1 > cones.theta_cone2

    def test_gap_when_order_reversed(self):
        model = get_material("fused_silica")
        kin = PerturbationKinematics(beta=2.0)
        cones = classify_cones(2.0, 0.5, kin, model)
        assert cones.variant == "gap"

    def test_degenerate_for_equal_wavelengths(self):
        model = get_material("fused_silica")
        kin = PerturbationKinematics(beta=2.0)
        assert classify_cones(1.0, 1.0, kin, model).variant == "degenerate"


class TestValidation:
    def test_beta_positive(self):
        with pytest.raises(ValueError):
            PerturbationKinematics(beta=0.0)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            PhotonMode(wavelength=-1.0, theta=0.0)
        with pytest.raises(ValueError):
            PhotonMode(wavelength=1.0, theta=4.0)

    def test_velocity_properties(self):
        kin = PerturbationKinematics(beta=2.0)
        assert kin.v_m_s == pytest.approx(2.0 * 299792458.0)
        assert kin.v_um_s == pytest.approx(kin.v_m_s * 1e6)
