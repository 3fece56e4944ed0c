"""Dispersion model tests: high-precision oracles, analytic derivatives,
invariants, and failure modes."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuumpairs import dispersion
from vacuumpairs.dispersion import (
    ConstantIndex,
    DispersionModel,
    LorentzianResonance,
    NegativeRadicandError,
    NonPositiveError,
    PoleProximityError,
    SellmeierModel,
    fast_light_resonance,
    group_regime,
    index_fields,
    refractive_index,
    transparency_window,
)
from vacuumpairs.materials import get_material

SILICA_TERMS = (
    (0.473115591, 0.0129957170),
    (0.631038719, 0.00412809220),
    (0.906404498, 98.7685322),
)


def silica():
    return get_material("fused_silica")


def mp_silica_n(lam, dps=50):
    """Independent high-precision Sellmeier evaluation."""
    with mpmath.workdps(dps):
        lam = mpmath.mpf(repr(lam))
        lam2 = lam * lam
        rad = mpmath.mpf(1)
        for a, l in SILICA_TERMS:
            rad += mpmath.mpf(repr(a)) * lam2 / (lam2 - mpmath.mpf(repr(l)))
        return mpmath.sqrt(rad)


def checked_fields(model, lam):
    """n and n_g from index_fields, raising where its mask is set.

    The rule the scalar point density applies: _bad_sample_error of the
    flagged sample.  So dn/dlambda and n_g, which only index_fields gives,
    are rejected on the same samples and with the same class as n.
    """
    n, n_g, bad = index_fields(model, lam)
    if np.any(bad):
        raise dispersion._bad_sample_error(model, lam)
    return n, n_g


def checked_slope(model, lam):
    n, n_g = checked_fields(model, lam)
    return (n - n_g) / lam


# the scalar APIs that evaluate, then raise on a bad sample
RAISING_EVALUATORS = [
    pytest.param(refractive_index, id="refractive_index"),
    pytest.param(checked_slope, id="index_derivative"),
]

# ... and the group index of a float sample
REJECTING_EVALUATORS = RAISING_EVALUATORS + [
    pytest.param(lambda model, lam: checked_fields(model, lam)[1], id="group_index"),
]

# bad samples of fused silica and the error each raises
BAD_SAMPLES = [
    (math.sqrt(SILICA_TERMS[0][1]), PoleProximityError),
    (9.0, NegativeRadicandError),
    # lam^2 overflows, so the radicand is nan: not negative, yet not valid
    (1e160, NegativeRadicandError),
    (0.0, NonPositiveError),
    (-1.0, NonPositiveError),
    (math.inf, NonPositiveError),
    (math.nan, NonPositiveError),
]


class TestRefractiveIndex:
    def test_against_high_precision_oracle(self):
        model = silica()
        for lam in (0.4, 0.5, 0.6328, 1.0, 1.55, 3.0, 5.0):
            expected = float(mp_silica_n(lam))
            assert refractive_index(model, lam) == pytest.approx(expected, rel=1e-14)

    def test_visible_value_plausible(self):
        # fused silica near 0.6 um is ~1.458
        assert refractive_index(silica(), 0.6) == pytest.approx(1.458, abs=0.002)

    def test_array_matches_scalars(self):
        model = silica()
        lams = np.geomspace(0.3, 3.0, 17)
        arr = refractive_index(model, lams)
        for lam, n in zip(lams, arr):
            assert n == refractive_index(model, float(lam))

    def test_constant_index(self):
        model = DispersionModel(base=ConstantIndex(1.5))
        assert refractive_index(model, 0.7) == 1.5
        n, n_g, _ = index_fields(model, 0.7)
        assert (n - n_g) / 0.7 == 0.0
        assert n_g == 1.5

    def test_vacuum_limit(self):
        model = DispersionModel(base=ConstantIndex(1.0))
        assert refractive_index(model, 1.0) == 1.0
        assert index_fields(model, 1.0)[1] == 1.0

    def test_resonance_adds_peak(self):
        res = LorentzianResonance(center=1.0, amplitude=0.05, width=0.01)
        model = DispersionModel(base=ConstantIndex(1.4), resonances=(res,))
        assert refractive_index(model, 1.0) == pytest.approx(1.45)
        # far from the resonance the correction is negligible
        assert refractive_index(model, 2.0) == pytest.approx(1.4, abs=1e-5)

    @pytest.mark.parametrize("evaluate", REJECTING_EVALUATORS)
    def test_nonpositive_wavelength_rejected(self, evaluate):
        with pytest.raises(NonPositiveError):
            evaluate(silica(), -1.0)
        with pytest.raises(NonPositiveError):
            evaluate(silica(), 0.0)

    @pytest.mark.parametrize("evaluate", REJECTING_EVALUATORS)
    def test_pole_proximity_rejected(self, evaluate):
        l_i = SILICA_TERMS[0][1]
        lam_pole = math.sqrt(l_i)
        with pytest.raises(PoleProximityError):
            evaluate(silica(), lam_pole)

    @pytest.mark.parametrize("evaluate", REJECTING_EVALUATORS)
    def test_negative_radicand_rejected(self, evaluate):
        # fused silica Sellmeier bracket is negative near 9 um
        with pytest.raises(NegativeRadicandError):
            evaluate(silica(), 9.0)


def index_slope(model, lam):
    """dn/dlambda = (n - n_g)/lambda from index_fields."""
    n, n_g, _ = index_fields(model, lam)
    return (n - n_g) / lam


class TestDerivative:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(20260824)
        for model in (silica(), get_material("silicon")):
            lo, hi = transparency_window(model)
            lams = np.exp(rng.uniform(math.log(lo * 1.2), math.log(hi * 0.8), 50))
            for lam in lams:
                h = 1e-4 * lam
                fd = (
                    refractive_index(model, lam + h) - refractive_index(model, lam - h)
                ) / (2.0 * h)
                assert index_slope(model, float(lam)) == pytest.approx(fd, rel=1e-6)

    def test_lorentzian_derivative_finite_difference(self):
        res = LorentzianResonance(center=1.0, amplitude=0.05, width=0.02)
        model = DispersionModel(base=ConstantIndex(1.4), resonances=(res,))
        for lam in (0.95, 0.99, 1.0, 1.01, 1.05):
            h = 1e-6
            fd = (
                refractive_index(model, lam + h) - refractive_index(model, lam - h)
            ) / (2.0 * h)
            assert index_slope(model, lam) == pytest.approx(fd, rel=1e-5)

    def test_group_index_identity(self):
        model = silica()
        for lam in (0.4, 0.8, 1.55):
            n, dn, _ = dispersion._evaluate(model, np.array([lam]))
            n_g = n[0] - lam * dn[0]
            assert index_fields(model, lam) == (refractive_index(model, lam), n_g, False)


class TestRegimes:
    @given(st.floats(min_value=0.25, max_value=2.5))
    @settings(max_examples=60, deadline=None)
    def test_silica_group_index_normal(self, lam):
        n_g = index_fields(silica(), lam)[1]
        assert n_g >= 1.0
        assert group_regime(n_g) == "normal"

    def test_fast_and_anomalous_regimes(self):
        assert dispersion.group_regime(0.5) == "fast"
        assert dispersion.group_regime(-0.2) == "anomalous"
        assert dispersion.group_regime(1.0) == "normal"

    def test_lorentzian_wing_produces_fast_light(self):
        res = fast_light_resonance(amplitude=0.06, width=0.01, max_slope_at=0.335)
        model = DispersionModel(base=silica().base, resonances=(res,))
        assert group_regime(index_fields(model, 0.335)[1]) == "fast"

    def test_fast_light_resonance_slope_placement(self):
        res = fast_light_resonance(amplitude=0.05, width=0.02, max_slope_at=1.0)
        model = DispersionModel(base=ConstantIndex(1.4), resonances=(res,))
        # the rising-wing inflection carries the maximum dn/dlambda
        lams = np.linspace(0.9, res.center, 2001)
        slopes = index_slope(model, lams)
        lam_star = lams[int(np.argmax(slopes))]
        assert lam_star == pytest.approx(1.0, abs=1e-3)


class TestConversions:
    """dispersion._omega, the 2 pi c / lambda of the emission kernel."""

    def test_known_frequency(self):
        # omega(1 um) = 2 pi c / 1 um
        assert dispersion._omega(1.0) == pytest.approx(1.8836516e15, rel=1e-6)

    @given(st.floats(min_value=0.05, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_omega_times_wavelength(self, lam):
        assert dispersion._omega(lam) * lam == pytest.approx(
            2.0 * math.pi * 299_792_458.0e6, rel=1e-14
        )

    def test_float_and_array_paths_agree(self):
        lams = np.geomspace(0.05, 100.0, 41)
        omegas = dispersion._omega(lams)
        assert omegas.shape == lams.shape
        for lam, omega in zip(lams, omegas):
            assert dispersion._omega(float(lam)) == omega


class TestTransparencyWindow:
    def test_silica_window(self):
        lo, hi = transparency_window(silica())
        # bounded below by the UV pole, above by the infrared radicand zero
        assert 0.10 < lo < 0.13
        assert 8.0 < hi < 8.6

    def test_constant_index_spans_bounds(self):
        lo, hi = transparency_window(DispersionModel(base=ConstantIndex(1.5)))
        assert lo == pytest.approx(0.02, rel=1e-2)
        assert hi == pytest.approx(500.0, rel=1e-2)

    def test_silicon_window_above_near_infrared_pole(self):
        lo, hi = transparency_window(get_material("silicon"))
        assert 1.1 < lo < 1.4
        assert hi > 11.0


def fast_light_silica(amplitude):
    return DispersionModel(
        base=silica().base, resonances=(fast_light_resonance(amplitude, 0.01, 0.3349),)
    )


# models of the float-path tests: Sellmeier with and without resonances, and constant
FLOAT_PATH_MODELS = {
    "fused_silica": silica,
    "silicon": lambda: get_material("silicon"),
    "constant": lambda: DispersionModel(base=ConstantIndex(1.5)),
    "fast_light": lambda: fast_light_silica(0.06),
    "fast_light_multiroot": lambda: fast_light_silica(0.3),
}

# the invalid samples of test_flags_invalid_cells_without_raising, and nan
INVALID_SAMPLES = [-1.0, 0.114, 9.0, np.inf, 1e160, 1e300, np.nan]


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def assert_float_path_matches(model, lams):
    """index_fields of each float, and of each np.float64, equals the array call's element."""
    n_arr, ng_arr, bad_arr = dispersion.index_fields(model, lams)
    for i, lam in enumerate(lams):
        for scalar in (float(lam), lam):
            n, ng, bad = dispersion.index_fields(model, scalar)
            assert type(n) is float and type(ng) is float and type(bad) is bool
            assert _bits(n, ng) == _bits(n_arr[i], ng_arr[i]), (lam, n, ng)
            assert bad == bad_arr[i]


class TestIndexFields:
    def test_matches_pointwise_on_valid_cells(self):
        model = silica()
        lams = np.geomspace(0.2, 8.0, 50)
        n, ng, bad = dispersion.index_fields(model, lams)
        assert not bad.any()
        np.testing.assert_array_equal(n, refractive_index(model, lams))
        _, dn, _ = dispersion._evaluate(model, lams)
        np.testing.assert_array_equal(ng, n - lams * dn)

    def test_flags_invalid_cells_without_raising(self):
        model = silica()
        lams = np.array([-1.0, 0.114, 1.0, 9.0, np.inf, 1e160, 1e300])
        _, _, bad = dispersion.index_fields(model, lams)
        assert bad.tolist() == [True, True, False, True, True, True, True]

    # the float path of the evaluators gives the bits of the array path

    @pytest.mark.parametrize("name", sorted(FLOAT_PATH_MODELS))
    def test_index_fields_on_valid_and_invalid_samples(self, name):
        model = FLOAT_PATH_MODELS[name]()
        lams = np.geomspace(*transparency_window(model), 201)
        assert_float_path_matches(model, lams)
        assert_float_path_matches(model, np.array(INVALID_SAMPLES + [0.0, 1.0]))
        # a Python float, an np.float64, a 0-d array and an int all give a
        # Python float with the bits of the 1-element array call
        for lam in lams[::10].tolist() + [2]:
            for scalar in (float(lam), np.float64(lam), np.array(lam), lam):
                n = refractive_index(model, scalar)
                assert type(n) is float, type(scalar)
                assert _bits(n) == _bits(refractive_index(model, np.array([lam]))[0]), scalar

    @pytest.mark.parametrize("name", ["fused_silica", "constant"])
    @pytest.mark.parametrize(
        "wavelength",
        [np.array(1.0), 2, np.float64(1.0), 1.0, np.array([0.5, 1.0, 2.0])],
        ids=["0-d", "int", "float64", "float", "1-d"],
    )
    def test_index_fields_types_per_input_kind(self, name, wavelength):
        # a float gives Python (float, float, bool); anything else gives
        # ndarrays of the input's shape, whatever the model
        model = FLOAT_PATH_MODELS[name]()
        n, n_g, bad = index_fields(model, wavelength)
        if isinstance(wavelength, float):
            assert (type(n), type(n_g), type(bad)) == (float, float, bool)
        else:
            shape = np.shape(wavelength)
            for value, dtype in ((n, np.float64), (n_g, np.float64), (bad, np.bool_)):
                assert type(value) is np.ndarray
                assert value.shape == shape and value.dtype == dtype
        # the values are those of the 1-d array call
        lams = np.atleast_1d(np.asarray(wavelength, dtype=float))
        n_arr, ng_arr, bad_arr = index_fields(model, lams)
        assert _bits(*np.ravel(n)) == _bits(*n_arr)
        assert _bits(*np.ravel(n_g)) == _bits(*ng_arr)
        assert np.ravel(bad).tolist() == bad_arr.tolist() == [False] * lams.size

    @pytest.mark.parametrize("name", sorted(FLOAT_PATH_MODELS))
    @given(u=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_index_fields_over_the_transparency_window(self, name, u):
        model = FLOAT_PATH_MODELS[name]()
        lo, hi = transparency_window(model)
        lam = min(max(lo * (hi / lo) ** u, lo), hi)
        assert_float_path_matches(model, np.array([lam]))

    @pytest.mark.parametrize("evaluate", RAISING_EVALUATORS)
    @pytest.mark.parametrize("lam, error", BAD_SAMPLES)
    def test_raises_the_class_of_the_array_path(self, evaluate, lam, error):
        with pytest.raises(error) as from_float:
            evaluate(silica(), lam)
        with pytest.raises(error) as from_0d:
            evaluate(silica(), np.array(lam))
        with pytest.raises(error) as from_array:
            evaluate(silica(), np.array([lam]))
        assert type(from_float.value) is type(from_0d.value) is type(from_array.value)

    @pytest.mark.parametrize("lam, error", BAD_SAMPLES)
    def test_sample_group_index_raises_the_class_of_the_array_path(self, lam, error):
        # the float path's mask flags each bad sample, so n_g of a float
        # sample is rejected with the class of refractive_index's array path
        assert index_fields(silica(), lam)[2] is True
        with pytest.raises(error) as from_sample:
            checked_fields(silica(), lam)[1]
        with pytest.raises(error) as from_array:
            refractive_index(silica(), np.array([lam]))
        assert type(from_sample.value) is type(from_array.value)


class TestValidation:
    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            SellmeierModel(terms=((-0.1, 0.01),))

    def test_constant_index_must_be_positive(self):
        with pytest.raises(ValueError):
            ConstantIndex(0.0)

    def test_resonance_validation(self):
        with pytest.raises(ValueError):
            LorentzianResonance(center=1.0, amplitude=0.1, width=0.0)
        with pytest.raises(ValueError):
            LorentzianResonance(center=-1.0, amplitude=0.1, width=0.01)
