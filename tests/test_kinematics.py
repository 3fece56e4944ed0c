"""Pair-kinematics tests: closed forms, symmetry, thresholds, cones."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuumpairs import dispersion, kinematics
from vacuumpairs.dispersion import ConstantIndex, DispersionModel, fast_light_resonance
from vacuumpairs.kinematics import (
    NoSignChangeError,
    PerturbationKinematics,
    PhotonMode,
    SubluminalError,
    cerenkov_angle,
    constraint_residual,
    constraint_tolerance,
    MultipleRootsWarning,
    solve_partner,
    solve_partners,
)
from vacuumpairs.materials import get_material

from oracles import partner_nondispersive, smallest_root_bracket


def constant(n0):
    return DispersionModel(base=ConstantIndex(n0))


def pair_residual(mode1, mode2, kin, model):
    """The constraint residual of two modes, with n from refractive_index."""
    lam1, lam2 = mode1.wavelength, mode2.wavelength
    return constraint_residual(
        lam1, dispersion.refractive_index(model, lam1), math.cos(mode1.theta),
        lam2, dispersion.refractive_index(model, lam2), math.cos(mode2.theta),
        kin,
    )


def closed_form_partner(lam1, beta, n0):
    """Collinear partner for a dispersionless medium."""
    bn = beta * n0
    return lam1 * (bn + 1.0) / (bn - 1.0)


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
        res = pair_residual(
            PhotonMode(lam1, 0.0), PhotonMode(lam2, math.pi), kin, constant(n0)
        )
        assert abs(res) < constraint_tolerance(lam1, lam2, kin)

    def test_exchange_symmetry(self):
        kin = PerturbationKinematics(beta=3.0)
        model = get_material("fused_silica")
        m1 = PhotonMode(0.8, 0.3)
        m2 = PhotonMode(1.9, 2.6)
        assert pair_residual(m1, m2, kin, model) == pair_residual(
            m2, m1, kin, model
        )

    def test_tabulated_pair_nearly_on_curve(self):
        # beta = 2 reference pair (2.51, 4.98) um in fused silica
        kin = PerturbationKinematics(beta=2.0)
        model = get_material("fused_silica")
        res = pair_residual(
            PhotonMode(2.51, 0.0), PhotonMode(4.98, math.pi), kin, model
        )
        k1 = 2.0 * math.pi * dispersion.refractive_index(model, 2.51) / 2.51
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
        res = pair_residual(
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
        # scan; bisection to the same tolerance needs about 41 per row, Newton
        # from the bracket midpoints 130-135 over these 17 rows
        model = self.MODELS[name]()
        kin = PerturbationKinematics(beta=20.0)
        index_fields = dispersion.index_fields
        passes = []

        def counted(model, lam):
            if np.shape(lam)[-2:] == (9, 65):
                passes.append(1)
            return index_fields(model, lam)

        monkeypatch.setattr(dispersion, "index_fields", counted)
        rows = np.geomspace(0.1, 5.0, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootsWarning)
            for lam1 in rows:
                solve_partners(lam1, self.GRID_THETA1, self.GRID_THETA2, kin, model)
        assert len(passes) <= 6.5 * len(rows)

    def test_stays_in_bracket_on_fast_light_multiroot(self):
        # the secant start and finish never leave the scan bracket of the smallest root
        model = self.MODELS["fast_light_multiroot"]()
        kin = PerturbationKinematics(beta=20.0)
        table = kinematics.partner_table(np.cos(self.GRID_THETA2), kin, model)
        lam1 = np.geomspace(0.1, 5.0, 17)[:, None, None]
        n1, _, bad1 = dispersion.index_fields(model, lam1)
        assert not bad1.any()
        part1 = kinematics._photon_term(lam1, n1, np.cos(self.GRID_THETA1), 1.0 / kin.beta)
        lo, hi, _, multiple = kinematics._smallest_root_bracket(part1, table)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootsWarning)
            lam2 = kinematics.solve_tabulated(lam1.ravel(), self.GRID_THETA1, table)
        root = ~np.isnan(lo)
        assert multiple and root.any() and not root.all()
        assert np.all(np.isnan(lam2[~root]))
        assert np.all((lo[root] <= lam2[root]) & (lam2[root] <= hi[root]))

    @pytest.mark.parametrize("name", ["fused_silica", "fast_light_multiroot"])
    def test_rows_solve_as_if_alone(self, name):
        # each row leaves the Newton loop when its own brackets close, so a
        # block of rows gives the bits of one solve per row
        model = self.MODELS[name]()
        table = kinematics.partner_table(
            np.cos(self.GRID_THETA2), PerturbationKinematics(beta=20.0), model
        )
        # 9.5 um lies past the transparency window: a row with no partner
        rows = np.array([0.15, 0.3349, 9.5, 0.6, 2.0, 0.28])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootsWarning)
            block = kinematics.solve_tabulated(rows, self.GRID_THETA1, table)
            alone = [kinematics.solve_tabulated(lam1, self.GRID_THETA1, table) for lam1 in rows]
        assert block.shape == (rows.size, 9, 65)
        assert np.isnan(alone[2]).all()
        assert [row.tobytes() for row in block] == [row.tobytes() for row in alone]

    def test_warns_once_on_multiple_roots(self):
        kin = PerturbationKinematics(beta=20.0)
        lams = np.geomspace(0.2, 8.0, 200)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_partners(lams, 0.0, math.pi, kin, fast_light_silica(0.3))
        assert [w.category for w in caught] == [MultipleRootsWarning]

    def test_scalar_solves_share_one_read_only_table(self, monkeypatch):
        kinematics._solo_table.cache_clear()
        built = []
        partner_table = kinematics.partner_table
        monkeypatch.setattr(
            kinematics, "partner_table", lambda *args: built.append(1) or partner_table(*args)
        )
        kin = PerturbationKinematics(beta=10.0)
        model = get_material("fused_silica")
        for lam1 in (0.5, 1.0, 2.0):
            solve_partner(lam1, 0.0, math.pi, kin, model)
        assert len(built) == 1
        column = kinematics._solo_table(-1.0, kin, model)
        assert len(built) == 1
        # floats and tuples of floats, so immutable; hash raises on a mutable part
        assert isinstance(column, tuple)
        assert all(isinstance(part, (float, tuple)) for part in column)
        hash(column)

    def test_multiple_roots_warning_names_the_caller(self):
        # fast_light_multiroot: lam1 = 0.28 um has more than one collinear partner
        kin = PerturbationKinematics(beta=20.0)
        model = self.MODELS["fast_light_multiroot"]()
        with pytest.warns(MultipleRootsWarning) as record:
            solve_partner(0.28, 0.0, math.pi, kin, model)
        assert record[0].filename == __file__
        with pytest.warns(MultipleRootsWarning) as record:
            solve_partners(np.array([0.25, 0.28]), 0.0, math.pi, kin, model)
        assert record[0].filename == __file__
        table = kinematics.partner_table(-1.0, kin, model)
        with pytest.warns(MultipleRootsWarning) as record:
            kinematics.solve_tabulated(0.28, 0.0, table)
        assert record[0].filename == __file__


class TestBracketSearch:
    """The binary search of the partner table against the sweep it replaced."""

    MODELS = {
        "fused_silica": lambda: get_material("fused_silica"),
        "silicon": lambda: get_material("silicon"),
        "fast_light": lambda: fast_light_silica(0.06),
        "fast_light_multiroot": lambda: fast_light_silica(0.3),
        "constant": lambda: constant(1.5),
    }
    THETA1 = np.linspace(0.0, math.pi, 7)[:, None]
    THETA2 = np.linspace(0.0, math.pi, 41)[None, :]

    def check_rows(self, model, kin, part1, cos_t2):
        """Compare each row of part1 with the oracle, the multiple-root flag included.

        The float search of solve_partner is compared with both, element by
        element, in the _solo_table column of each cos(theta2).
        """
        table = kinematics.partner_table(cos_t2, kin, model)
        columns = [kinematics._solo_table(c, kin, model) for c in np.ravel(cos_t2).tolist()]
        index = np.arange(len(columns)).reshape(np.shape(cos_t2))
        for row in part1:
            lo_want, hi_want, up_want, n_roots = smallest_root_bracket(
                row, cos_t2, 1.0 / kin.beta, model
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                lo, hi, up, multiple = kinematics._smallest_root_bracket(row, table)
                values = np.broadcast_to(row, lo.shape).ravel().tolist()
                which = np.broadcast_to(index, lo.shape).ravel().tolist()
                solo = [kinematics._column_bracket(v, columns[j]) for v, j in zip(values, which)]
            root = n_roots > 0
            np.testing.assert_array_equal(lo, lo_want)
            np.testing.assert_array_equal(hi[root], hi_want[root])
            np.testing.assert_array_equal(up[root], up_want[root])
            assert np.all(np.isnan(hi[~root]))
            assert multiple == bool(np.any(n_roots > 1))
            lo_s, hi_s, up_s, multiple_s = (np.reshape(x, lo.shape) for x in zip(*solo))
            np.testing.assert_array_equal(lo_s, lo)
            np.testing.assert_array_equal(hi_s, hi)
            np.testing.assert_array_equal(up_s, up)
            np.testing.assert_array_equal(multiple_s, n_roots > 1)
            # the flags replace the warning here: no warning of any kind
            assert not caught

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("beta", [0.5, 2.0, 20.0])
    def test_matches_sweep(self, name, beta):
        # lam1 from far below to far above the transparency window, and nan
        model = self.MODELS[name]()
        kin = PerturbationKinematics(beta=beta)
        lam1 = np.append(np.geomspace(0.01, 1000.0, 61), np.nan)[:, None, None]
        n1, _, bad1 = dispersion.index_fields(model, lam1)
        part1 = np.where(
            bad1, np.nan, kinematics._photon_term(lam1, n1, np.cos(self.THETA1), 1.0 / beta)
        )
        window = dispersion.transparency_window(model)
        assert lam1[0] < window[0] and lam1[-2] > window[1]
        self.check_rows(model, kin, part1, np.cos(self.THETA2))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_sweep_at_exact_zeros(self, name):
        # part1 equal to minus a scan value puts an exact zero on the grid:
        # every 23rd point, and every local extreme, where the residual
        # touches zero without crossing it; one theta2 at a time, so the
        # multiple-root flag of the array search is checked element by element
        model = self.MODELS[name]()
        kin = PerturbationKinematics(beta=20.0)
        for cos_t2 in np.cos(self.THETA2[0]):
            grid, n = kinematics._scan_grid(model)
            part2 = kinematics._photon_term(grid, n, cos_t2, 1.0 / kin.beta)
            turns = np.diff(part2)[:-1] * np.diff(part2)[1:] < 0.0
            part1 = -np.append(part2[::23], part2[1:-1][turns])
            self.check_rows(model, kin, part1, cos_t2)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_secant_finish_at_exact_zeros(self, name):
        # the part1 values of test_matches_sweep_at_exact_zeros: the finish of
        # _refine returns the grid point of an exact zero, bit for bit
        model = self.MODELS[name]()
        kin = PerturbationKinematics(beta=20.0)
        grid, n = kinematics._scan_grid(model)
        for cos_t2 in np.cos(self.THETA2[0]):
            table = kinematics.partner_table(cos_t2, kin, model)
            part2 = kinematics._photon_term(grid, n, cos_t2, 1.0 / kin.beta)
            turns = np.diff(part2)[:-1] * np.diff(part2)[1:] < 0.0
            part1 = -np.append(part2[::23], part2[1:-1][turns])
            lo, hi, _, _, f_lo, f_hi = kinematics._scan_bracket(part1, table)
            x = kinematics._secant(lo, hi, f_lo, f_hi)
            zero = lo == hi
            assert zero[: part2[::23].size].all()
            np.testing.assert_array_equal(x[zero], lo[zero])
            assert np.all((lo <= x) & (x <= hi) | np.isnan(lo))

    def test_nan_theta2_has_no_root(self):
        model = get_material("fused_silica")
        kin = PerturbationKinematics(beta=20.0)
        table = kinematics.partner_table(np.cos([math.pi, math.nan]), kin, model)
        part1 = kinematics._photon_term(0.5, dispersion.refractive_index(model, 0.5), 1.0, 0.05)
        lo, hi, _, _ = kinematics._smallest_root_bracket(part1, table)
        assert not math.isnan(lo[0]) and np.isnan(lo[1]) and np.isnan(hi[1])
        for cos_t2, lo_want, hi_want in zip((-1.0, math.nan), lo, hi):
            column = kinematics._solo_table(cos_t2, kin, model)
            lo_s, hi_s, _, _ = kinematics._column_bracket(part1, column)
            np.testing.assert_array_equal([lo_s, hi_s], [lo_want, hi_want])


class TestValidation:
    def test_beta_positive(self):
        with pytest.raises(ValueError):
            PerturbationKinematics(beta=0.0)

    def test_mode_validation(self):
        for wavelength, theta, phi in [
            (-1.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (math.nan, 0.0, 0.0),
            (math.inf, 0.0, 0.0),
            (1.0, 4.0, 0.0),
            (1.0, math.nan, 0.0),
            (0.68, 0.0, math.nan),
            (0.68, 0.0, math.inf),
            (0.68, 0.0, -math.inf),
        ]:
            with pytest.raises(ValueError):
                PhotonMode(wavelength=wavelength, theta=theta, phi=phi)

    def test_velocity_properties(self):
        kin = PerturbationKinematics(beta=2.0)
        assert kin.v_um_s == kin.beta * dispersion.C_UM_S
        assert dispersion.C_UM_S == 299792458.0e6
