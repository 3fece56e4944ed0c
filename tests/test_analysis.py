"""Analysis-layer tests: maxima search, sweeps, totals, fast-light study."""

import collections
import dataclasses
import functools
import inspect
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import minimize_scalar

from vacuumpairs import analysis, dispersion, emission, kinematics
from vacuumpairs.analysis import (
    NoEmissionError,
    beta_sweep,
    calibrate_reference_row,
    count_peaks,
    fast_light_study,
    find_maximum,
    total_count,
)
from vacuumpairs.dispersion import ConstantIndex, DispersionModel, fast_light_resonance
from vacuumpairs.emission import (
    DEFAULT_CALIBRATION,
    EmissionConfig,
    GaussianProfile,
    TanhProfile,
)
from vacuumpairs.kinematics import PerturbationKinematics
from vacuumpairs.materials import get_material

from oracles import total_row_density_3d


def silica_config(beta=10.0, sigma=1.0, eta=0.001, length_m=0.05):
    return EmissionConfig(
        material=get_material("fused_silica"),
        profile=GaussianProfile(eta=eta, sigma=sigma),
        kin=PerturbationKinematics(beta=beta),
        length_m=length_m,
    )


def cone_rows(config, t1, t2, phi):
    """emission._cone_rows under the two Simpson rules of the phi nodes."""
    return emission._cone_rows(config, t1, t2, phi, analysis._simpson_weights(phi))


def cone_total(config, lam_window, resolution, rel_tol=1.0, max_refinements=0):
    """(total, rel_error) of the total's integrand over a 30 degree cone."""
    return analysis._integrate(
        functools.partial(emission._cone_rows, config), math.radians(30.0), lam_window,
        resolution, rel_tol, max_refinements,
    )


class TestFindMaximum:
    def test_reference_row(self):
        peak = find_maximum(silica_config(beta=10.0, sigma=1.0))
        assert peak.density == pytest.approx(2.91e-3, rel=1e-6)
        assert 0.55 < peak.lambda1_um < 0.70
        assert peak.lambda2_um > peak.lambda1_um

    def test_deterministic(self):
        a = find_maximum(silica_config(beta=20.0))
        b = find_maximum(silica_config(beta=20.0))
        assert (a.lambda1_um, a.lambda2_um, a.density) == (
            b.lambda1_um,
            b.lambda2_um,
            b.density,
        )

    def test_subluminal_raises(self):
        with pytest.raises(NoEmissionError):
            find_maximum(silica_config(beta=0.5))

    def test_hashable_and_equal_for_equal_results(self):
        a = find_maximum(silica_config(beta=20.0))
        b = find_maximum(silica_config(beta=20.0))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_fast_light_maximum_carries_no_material_label(self):
        # the modified medium is the config's alone: no label names it plain fused silica
        peak = find_maximum(fast_light_config(0.06))
        assert dataclasses.asdict(peak) == {
            "lambda1_um": peak.lambda1_um,
            "lambda2_um": peak.lambda2_um,
            "density": peak.density,
            "beta": 20.0,
        }
        assert getattr(peak, "material", None) is None

    @pytest.mark.parametrize(
        "window", [(math.nan, 5.0), (-1.0, 5.0), (0.2, 5.0, 20.0)],
        ids=["nan", "negative", "three_items"],
    )
    def test_rejects_bad_window(self, window):
        with pytest.raises(ValueError, match="window must be") as raised:
            find_maximum(silica_config(beta=20.0), window=window)
        assert not isinstance(raised.value, NoEmissionError)

    @pytest.mark.parametrize(
        "beta, expected",
        [
            (10.0, (0.6322830577447339, 0.7244096164135361, 0.00291)),
            (20.0, (0.33488593972260033, 0.35739115121963644, 0.08238145283216713)),
        ],
    )
    def test_pinned_maxima(self, beta, expected):
        peak = find_maximum(silica_config(beta=beta, sigma=1.0))
        assert (peak.lambda1_um, peak.lambda2_um, peak.density) == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )

    def test_constant_index_peak_location(self):
        # for a dispersionless medium with large beta*n0 the spectral peak
        # sits near sqrt(2/7) * 4 pi n sigma / (beta n + 1)
        n0, beta, sigma = 20.0, 2.19, 1.0
        config = EmissionConfig(
            material=DispersionModel(base=ConstantIndex(n0)),
            profile=GaussianProfile(eta=0.001, sigma=sigma),
            kin=PerturbationKinematics(beta=beta),
            length_m=0.05,
        )
        peak = find_maximum(config, window=(0.2, 40.0))
        predicted = math.sqrt(2.0 / 7.0) * 4.0 * math.pi * n0 * sigma / (beta * n0 + 1.0)
        assert peak.lambda1_um == pytest.approx(predicted, rel=0.02)


def fast_light_config(amplitude, beta=20.0):
    base = get_material("fused_silica").base
    return EmissionConfig(
        material=DispersionModel(
            base=base, resonances=(fast_light_resonance(amplitude, 0.01, 0.3349),)
        ),
        profile=GaussianProfile(eta=0.001, sigma=1.0),
        kin=PerturbationKinematics(beta=beta),
        length_m=0.05,
    )


SCAN_CASES = {
    "silica_beta2": lambda: silica_config(beta=2.0),
    "silica_beta10": lambda: silica_config(beta=10.0),
    "silica_tanh": lambda: EmissionConfig(
        material=get_material("fused_silica"),
        profile=TanhProfile(eta=0.001, sigma_x=1.1, sigma_y=1.0, sigma_z=1.0),
        kin=PerturbationKinematics(beta=20.0),
        length_m=0.05,
    ),
    "silicon": lambda: EmissionConfig(
        material=get_material("silicon"),
        profile=GaussianProfile(eta=0.001, sigma=1.5),
        kin=PerturbationKinematics(beta=5.0),
        length_m=0.05,
    ),
    "fast_light": lambda: fast_light_config(0.06),
    "fast_light_multiroot": lambda: fast_light_config(0.3),
}


def both_golden(func, bracket, xtol, port=analysis._golden):
    """((x, fun, points), (x, fun, points)) of the port and scipy's golden minimize_scalar.

    points are the abscissae each evaluated func at, in order; an
    exception's class takes the place of x and fun.
    """
    runs = []
    for solve in (
        lambda g: port(g, *bracket, xtol),
        lambda g: (lambda res: (float(res.x), float(res.fun)))(
            minimize_scalar(g, bracket=bracket, method="golden", options={"xtol": xtol})
        ),
    ):
        points = []
        try:
            x, fun = solve(lambda x: points.append(x) or func(x))
            runs.append((x.hex(), fun.hex(), points))
        except ValueError as exc:
            runs.append((type(exc), type(exc), points))
    return runs


class TestGolden:
    """analysis._golden against scipy's golden-section minimize_scalar, its oracle: same bits."""

    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_matches_scipy_on_find_maximum_lobes(self, monkeypatch, name):
        port, runs = analysis._golden, []

        def compare(func, xa, xb, xc, xtol):
            runs.append(both_golden(func, (xa, xb, xc), xtol, port=port))
            return port(func, xa, xb, xc, xtol)

        monkeypatch.setattr(analysis, "_golden", compare)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", kinematics.MultipleRootsWarning)
            find_maximum(SCAN_CASES[name]())
        assert runs
        for ours, scipys in runs:
            assert ours == scipys

    @pytest.mark.parametrize(
        "func, bracket",
        [
            (lambda x: (x - 0.3) ** 2, (0.0, 0.2, 1.0)),
            (lambda x: (x - 0.3) ** 2, (1.0, 0.2, 0.0)),  # ends reversed
            (lambda x: -math.exp(-x * x) * math.cos(3.0 * x), (-0.5, 0.1, 0.4)),
            (lambda x: math.cosh(x - 2.0) + 1e-3 * x, (-1.0, 2.5, 3.0)),
            (lambda x: abs(x + 0.1), (-0.4, -0.05, 2.0)),
        ],
    )
    @pytest.mark.parametrize("xtol", [1e-10, 1e-6])
    def test_matches_scipy_on_synthetic_brackets(self, func, bracket, xtol):
        ours, scipys = both_golden(func, bracket, xtol)
        assert isinstance(ours[0], str) and ours == scipys

    @pytest.mark.parametrize(
        "bracket",
        [(0.0, 1.5, 1.0), (0.0, 0.0, 1.0), (0.0, math.nan, 1.0), (0.0, 0.9, 1.0)],
        ids=["outside", "at_end", "nan", "not_lowest"],
    )
    def test_invalid_bracket_raises_as_scipy(self, bracket):
        ours, scipys = both_golden(lambda x: (x - 0.3) ** 2, bracket, 1e-10)
        assert ours[0] is ValueError and ours == scipys


class TestCollinearScan:
    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_matches_constraint_density(self, name):
        # the 200-point scan of find_maximum against the scalar path it replaces
        config = SCAN_CASES[name]()
        clear = dispersion.transparency_window(config.material)
        lam1 = np.geomspace(max(0.2, clear[0]), min(20.0, clear[1]), 200)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", kinematics.MultipleRootsWarning)
            vals = analysis._collinear_scan(config, lam1)
            for lam, val in zip(lam1, vals):
                try:
                    _, rho = analysis.constraint_density(config, float(lam))
                except (
                    kinematics.KinematicsError,
                    emission.EmissionError,
                    dispersion.DispersionError,
                ):
                    assert val == 0.0
                    continue
                assert val == pytest.approx(rho, rel=1e-9, abs=0.0)

    def test_zero_where_no_partner(self):
        config = silica_config(beta=2.0)
        clear = dispersion.transparency_window(config.material)
        lam1 = np.geomspace(0.2, clear[1], 200)
        vals = analysis._collinear_scan(config, lam1)
        assert 0 < np.count_nonzero(vals == 0.0) < 200
        with pytest.raises(kinematics.NoSignChangeError):
            analysis.constraint_density(config, float(lam1[-1]))
        assert vals[-1] == 0.0


class TestBetaSweep:
    def test_trends_hold(self):
        sweep = beta_sweep(silica_config(), betas=(5.0, 10.0, 20.0))
        assert len(sweep.rows) == 3
        assert not sweep.failures
        assert sweep.wavelengths_decreasing
        assert sweep.density_increasing
        assert sweep.ratio_decreasing

    def test_subluminal_entry_recorded_as_failure(self):
        sweep = beta_sweep(silica_config(), betas=(0.5, 10.0))
        assert len(sweep.rows) == 1
        assert len(sweep.failures) == 1
        assert sweep.failures[0][0] == 0.5

    def test_empty_betas_rejected(self):
        with pytest.raises(ValueError, match="betas"):
            beta_sweep(silica_config(), betas=[])

    def test_all_subluminal_raises_with_every_failure(self):
        with pytest.raises(NoEmissionError) as info:
            beta_sweep(silica_config(), betas=(0.5, 0.6))
        messages = str(info.value).split("; ")
        assert len(messages) == 2
        assert messages[0].endswith("beta = 0.5") and messages[1].endswith("beta = 0.6")


class TestTotalCount:
    RES = (17, 9, 65, 33)

    def test_eta_squared_scaling(self):
        kwargs = dict(
            cone_half_angle_rad=math.radians(30.0),
            lam_window=(0.15, 3.0),
            base_resolution=self.RES,
            max_refinements=0,
        )
        base = total_count(silica_config(beta=20.0, eta=0.001), **kwargs)
        doubled = total_count(silica_config(beta=20.0, eta=0.002), **kwargs)
        assert doubled.pairs_per_pulse == pytest.approx(
            4.0 * base.pairs_per_pulse, rel=1e-12, abs=0.0
        )

    def test_length_linear(self):
        kwargs = dict(
            cone_half_angle_rad=math.radians(30.0),
            lam_window=(0.15, 3.0),
            base_resolution=self.RES,
            max_refinements=0,
        )
        short = total_count(silica_config(beta=20.0, length_m=0.01), **kwargs)
        long = total_count(silica_config(beta=20.0, length_m=0.05), **kwargs)
        assert long.pairs_per_pulse == pytest.approx(
            5.0 * short.pairs_per_pulse, rel=1e-12, abs=0.0
        )

    def test_window_tail_invariance(self):
        kwargs = dict(
            cone_half_angle_rad=math.radians(30.0),
            base_resolution=self.RES,
            max_refinements=0,
        )
        narrow = total_count(
            silica_config(beta=20.0), lam_window=(0.15, 3.0), **kwargs
        )
        wide = total_count(
            silica_config(beta=20.0), lam_window=(0.12, 5.0), **kwargs
        )
        assert wide.pairs_per_pulse == pytest.approx(
            narrow.pairs_per_pulse, rel=0.05
        )

    @pytest.mark.parametrize(
        "make_config, expected",
        [
            # the beta = 20 Gaussian total of the benchmark's criterion-07 anchor
            (lambda: silica_config(beta=20.0), 0.0006867197633247159),
            # the tanh profile of criterion 07
            (SCAN_CASES["silica_tanh"], 0.0004139832296206027),
            (SCAN_CASES["fast_light"], 0.0007481774022062869),
        ],
        ids=["gaussian", "tanh", "fast_light"],
    )
    def test_pinned_total(self, make_config, expected):
        result = total_count(
            make_config(),
            cone_half_angle_rad=math.radians(30.0),
            lam_window=(0.1, 5.0),
            rel_tol=0.05,
            base_resolution=self.RES,
            max_refinements=1,
        )
        assert result.pairs_per_pulse == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_library_defaults_meet_rel_tol(self):
        # the README's library-default total: it starts at (17, 9, 65, 33) and
        # stops at (65, 33, 257, 129), the first pass whose estimate meets 1e-3
        result = total_count(silica_config(), math.radians(30.0), (0.1, 5.0))
        assert result.rel_error <= 1e-3
        assert result.pairs_per_pulse == pytest.approx(
            9.242583698142206e-05, rel=result.rel_error, abs=0.0
        )
        # the (129, 65, 513, 257) pass, the default before it started coarse
        assert result.pairs_per_pulse == pytest.approx(
            9.242608032745966e-05, rel=result.rel_error, abs=0.0
        )

    # fused silica's index passes 2 near its 0.116 um pole, so partners exist,
    # but the density underflows to 0 at every node and the total is 0
    @pytest.mark.parametrize(
        "beta, lam_window, kwargs",
        [
            (0.5, (0.1, 5.0), {}),
            (0.69, (0.2, 0.35), dict(base_resolution=(9, 5, 17, 9), max_refinements=0)),
            (0.69, (0.2, 0.35), dict(base_resolution=(9, 5, 17, 9), max_refinements=1)),
        ],
        ids=["library_defaults", "unrefined", "refined"],
    )
    def test_zero_total_raises(self, beta, lam_window, kwargs):
        message = rf"\[{lam_window[0]}, {lam_window[1]}\] um .* 30 degree cone at beta = {beta}"
        with pytest.raises(NoEmissionError, match=message):
            total_count(silica_config(beta=beta), math.radians(30.0), lam_window, **kwargs)

    def test_unrefined_error_not_estimated(self):
        result = total_count(
            silica_config(beta=20.0),
            cone_half_angle_rad=math.radians(30.0),
            lam_window=(0.15, 3.0),
            base_resolution=self.RES,
            max_refinements=0,
        )
        assert result.rel_error is None
        assert dataclasses.asdict(result)["rel_error"] is None

    @pytest.mark.parametrize(
        "cone_deg, rel_tol",
        [
            (math.nan, 1e-3),
            (-30.0, 1e-3),
            (0.0, 1e-3),
            (200.0, 1e-3),
            (math.inf, 1e-3),
            (30.0, math.nan),
            (30.0, 0.0),
            (30.0, -1.0),
            (30.0, math.inf),
        ],
        ids=[
            "nan_cone", "negative_cone", "zero_cone", "cone_past_pi", "inf_cone",
            "nan_rel_tol", "zero_rel_tol", "negative_rel_tol", "inf_rel_tol",
        ],
    )
    def test_rejects_bad_cone_or_tolerance(self, cone_deg, rel_tol):
        with pytest.raises(ValueError, match="cone half angle|rel_tol"):
            total_count(
                silica_config(beta=20.0),
                cone_half_angle_rad=math.radians(cone_deg),
                lam_window=(0.15, 3.0),
                rel_tol=rel_tol,
                base_resolution=self.RES,
                max_refinements=0,
            )

    @pytest.mark.parametrize(
        "base_resolution, max_refinements",
        [
            ((1, 1, 1, 1), 0),
            ((17, 9, 65, 2), 0),
            ((17, 9, 65), 0),
            ((17, 9, 65, 33, 9), 0),
            ((17, 9, 65, 33.0), 0),
            (5, 0),
            ((17, 9, 65, 33), -1),
            ((17, 9, 65, 33), 1.0),
            ((17, 9, 65, 33), True),
        ],
        ids=[
            "ones", "two_points", "three_axes", "five_axes", "float_axis", "scalar",
            "negative_refinements", "float_refinements", "bool_refinements",
        ],
    )
    def test_rejects_bad_resolution(self, base_resolution, max_refinements):
        with pytest.raises(ValueError, match="base_resolution|max_refinements"):
            total_count(
                silica_config(beta=20.0),
                cone_half_angle_rad=math.radians(30.0),
                lam_window=(0.15, 3.0),
                base_resolution=base_resolution,
                max_refinements=max_refinements,
            )

    @pytest.mark.parametrize(
        "lam_window",
        [(5.0, 0.1), (-1.0, 5.0), (0.1, math.nan), (0.0, 5.0), (0.3, 0.3), (0.1, 3.0, 5.0)],
        ids=["reversed", "negative", "nan", "zero", "empty", "three_items"],
    )
    def test_rejects_bad_window(self, lam_window):
        with pytest.raises(ValueError, match="lam_window"):
            total_count(
                silica_config(beta=20.0),
                cone_half_angle_rad=math.radians(30.0),
                lam_window=lam_window,
                base_resolution=self.RES,
                max_refinements=0,
            )

    @pytest.mark.parametrize(
        "name, lam_window, invalid",
        [
            ("silica_beta20", (0.1, 5.0), False),
            ("silica_tanh", (0.1, 5.0), False),
            ("fast_light_multiroot", (0.1, 5.0), False),
            # a lambda1 node past the transparency window (8.3 um) is an invalid row
            ("silica_beta20", (0.1, 12.0), True),
        ],
        ids=["gaussian", "tanh", "fast_light_multiroot", "invalid_row"],
    )
    def test_blocking_keeps_bits(self, monkeypatch, name, lam_window, invalid):
        config = {"silica_beta20": lambda: silica_config(beta=20.0), **SCAN_CASES}[name]()
        lam1 = np.geomspace(*lam_window, self.RES[0])
        assert emission._index_fields(config.material, lam1)[2].any() == invalid
        results = []
        # one block; one row per block; three rows per block and a partial last block;
        # each on 1, 2 and 3 threads
        for cells in (10**9, 1, 3 * self.RES[1] * self.RES[2] + 2):
            monkeypatch.setattr(emission, "_BLOCK_CELLS", cells)
            monkeypatch.setattr(analysis, "_MAX_THREADS", 3)
            for threads in (1, 2, 3):
                monkeypatch.setattr(analysis, "_usable_cpus", lambda: threads)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", kinematics.MultipleRootsWarning)
                    result = total_count(
                        config,
                        cone_half_angle_rad=math.radians(30.0),
                        lam_window=lam_window,
                        rel_tol=1.0,
                        base_resolution=self.RES,
                        max_refinements=1,
                    )
                results.append((result.pairs_per_pulse.hex(), result.rel_error.hex()))
        assert results[0][0] != (0.0).hex()
        assert results[1:] == results[:1] * 8

    def test_block_rows_match_row_calls(self, monkeypatch):
        # rows 7-16 of 17 out to 12 um: row 15 (8.9 um) is invalid, and a raised
        # NG_FLOOR flags row 8 (1.1 um), whose group index is the least of the rows
        config = silica_config(beta=20.0)
        lam1 = np.geomspace(0.1, 12.0, 17)
        t1 = np.linspace(0.0, math.radians(30.0), 9)
        t2 = np.linspace(math.pi / 2.0, math.pi, 65)
        phi = np.linspace(0.0, math.pi, 33)
        _, ng1, bad1 = dispersion.index_fields(config.material, lam1)
        assert np.flatnonzero(bad1).tolist() == [15]
        assert np.argmin(np.where(bad1, np.inf, ng1)) == 8

        def rows(b):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                return cone_rows(config, t1, t2, phi)(lam1[b])

        assert np.count_nonzero(rows(slice(8, 9))) > 0
        monkeypatch.setattr(emission, "NG_FLOOR", np.nextafter(ng1[8], np.inf))
        block = rows(slice(7, 17))
        assert block.shape == (10, 2, t1.size, t2.size)
        for r in range(7, 17):
            if r in (8, 15):
                assert np.all(block[r - 7] == 0.0)  # exact, finite zeros
            else:
                assert block[r - 7].tobytes() == rows(slice(r, r + 1))[0].tobytes()
        assert all(np.count_nonzero(block[r - 7]) > 0 for r in (7, 9, 10))

    @staticmethod
    def _pass_peaks(config, lam_window, passes):
        peaks = []
        for args in passes:
            tracemalloc.start()
            try:
                cone_total(config, lam_window, args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    @pytest.mark.parametrize("base", [(17, 9, 65, 33), (4, 3, 6, 4)], ids=["odd", "even"])
    @pytest.mark.parametrize(
        "name, lam_window",
        [
            ("silica_beta20", (0.1, 5.0)),
            ("silica_tanh", (0.1, 5.0)),
            ("fast_light_multiroot", (0.1, 5.0)),
            ("silica_beta20", (0.1, 12.0)),
        ],
        ids=["gaussian", "tanh", "fast_light_multiroot", "invalid_row"],
    )
    def test_coarse_rule_is_pass_before(self, name, lam_window, base):
        # the refined grid 2(n - 1) + 1 holds every node of the n-node grid
        config = {"silica_beta20": lambda: silica_config(beta=20.0), **SCAN_CASES}[name]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", kinematics.MultipleRootsWarning)
            total, rel_err = cone_total(config, lam_window, base, math.inf, max_refinements=1)
            alone, _ = cone_total(config, lam_window, base)
        # the refined pass's coarse rule, from its estimate |total - coarse| / |total|
        coarse = total - math.copysign(rel_err * abs(total), total - alone)
        assert alone != 0.0  # a rule this coarse may integrate below 0
        assert coarse == pytest.approx(alone, rel=1e-13, abs=0.0)

    def test_error_from_passes_before(self):
        config = silica_config(beta=20.0)
        res = [(9, 5, 17, 9)]
        for _ in range(2):
            res.append(tuple(2 * (n - 1) + 1 for n in res[-1]))
        passes = [cone_total(config, (0.1, 5.0), r)[0] for r in res]
        result = total_count(
            config,
            cone_half_angle_rad=math.radians(30.0),
            lam_window=(0.1, 5.0),
            rel_tol=0.05,
            base_resolution=res[0],
            max_refinements=2,
        )
        # the first refinement misses rel_tol, so the second runs
        assert abs(passes[1] - passes[0]) / passes[1] > 0.05
        assert result.pairs_per_pulse == passes[2]
        assert result.rel_error == pytest.approx(
            abs(passes[2] - passes[1]) / passes[2], rel=1e-12, abs=0.0
        )

    def test_pass_memory_flat_in_n_lam(self):
        # the partners are solved in row blocks of bounded size, not a whole pass at once;
        # 49 rows of 9 x 65 cells fill two blocks, 513 rows fill 21
        passes = [(n_lam, 9, 65, 33) for n_lam in (49, 49, 513)]
        peaks = self._pass_peaks(silica_config(beta=20.0), (0.1, 5.0), passes)
        assert peaks[2] <= 1.2 * peaks[1]  # the first pass fills the per-model caches

    def test_pass_memory_flat_in_n_phi(self):
        # no array of the whole pass has a phi axis: a row block takes its phi-moments
        # in blocks of its (lambda1, theta1, theta2) cells
        passes = [(5, 17, 129, n_phi) for n_phi in (33, 33, 257)]
        peaks = self._pass_peaks(silica_config(beta=20.0), (0.2, 5.0), passes)
        assert peaks[2] <= 1.1 * peaks[1]

    def test_one_partner_table_per_pass(self, monkeypatch):
        # the table depends on theta2 alone, so the 9 lambda1 rows share it
        built = []
        partner_table = kinematics.partner_table

        def counted(*args):
            built.append(args)
            return partner_table(*args)

        monkeypatch.setattr(kinematics, "partner_table", counted)
        # one refinement of (5, 3, 9, 5) runs the (9, 5, 17, 9) pass alone
        total, rel_err = cone_total(silica_config(beta=20.0), (0.15, 3.0), (5, 3, 9, 5), 1.0, 1)
        assert total > 0.0 and rel_err < 1.0  # so the coarse rule is positive too
        assert len(built) == 1

    def test_subluminal_raises(self):
        with pytest.raises(NoEmissionError):
            total_count(
                silica_config(beta=0.5),
                cone_half_angle_rad=math.radians(30.0),
                lam_window=(0.15, 3.0),
                base_resolution=self.RES,
                max_refinements=0,
            )


class TestIntegrate:
    """The total's quadrature alone, on an integrand with a closed-form integral."""

    HALF_ANGLE, WINDOW = 0.5, (0.1, 5.0)
    # (center, width) of the Gaussian on the lambda1, theta1 and theta2 axes
    GAUSSIANS = ((0.8, 0.3), (0.2, 0.15), (2.6, 0.3))

    @staticmethod
    def gaussian(x, center, width):
        return np.exp(-0.5 * np.square((x - center) / width))

    def integrand(self, passes):
        """A factory like emission._cone_rows of e^cos(phi) times the three Gaussians."""
        (l0, lw), (a0, aw), (b0, bw) = self.GAUSSIANS

        def factory(t1, t2, phi, phi_rules):
            passes.append((t1.size, t2.size, phi.size))
            phi_means = phi_rules @ np.exp(np.cos(phi)) / math.pi
            angles = self.gaussian(t1, a0, aw)[:, None] * self.gaussian(t2, b0, bw)
            cell = phi_means[:, None, None] * angles
            return lambda lam1: self.gaussian(lam1, l0, lw)[:, None, None, None] * cell

        return factory

    def exact(self):
        # the mean of e^cos(phi) over [0, pi] is I0(1); each Gaussian integrates to erfs
        value = float(np.i0(1.0))
        bounds = (self.WINDOW, (0.0, self.HALF_ANGLE), (math.pi / 2.0, math.pi))
        for (lo, hi), (center, width) in zip(bounds, self.GAUSSIANS):
            z = lambda x: (x - center) / (math.sqrt(2.0) * width)
            value *= width * math.sqrt(math.pi / 2.0) * (math.erf(z(hi)) - math.erf(z(lo)))
        return value

    @pytest.mark.parametrize(
        "base, rel_tol, refinements",
        # the estimates of the passes from (9, 5, 9, 5) read 1.8e-2, 3.6e-3 and 3.9e-5
        [((17, 9, 17, 9), 1e-2, 1), ((9, 5, 9, 5), 1e-2, 2), ((9, 5, 9, 5), 1e-4, 3)],
    )
    def test_error_bounds_closed_form(self, base, rel_tol, refinements):
        passes = []
        total, rel_err = analysis._integrate(
            self.integrand(passes), self.HALF_ANGLE, self.WINDOW, base, rel_tol, 3
        )
        fine = base
        for _ in range(refinements):
            fine = tuple(2 * (n - 1) + 1 for n in fine)
        assert len(passes) == refinements and passes[-1] == fine[1:]
        true_err = abs(total - self.exact()) / self.exact()
        assert rel_err <= rel_tol
        assert total == pytest.approx(self.exact(), rel=rel_err, abs=0.0)
        assert rel_err >= true_err

    def test_unrefined_and_stalled(self):
        passes = []
        total, rel_err = analysis._integrate(
            self.integrand(passes), self.HALF_ANGLE, self.WINDOW, (9, 5, 9, 5), 1e-2, 0
        )
        assert passes == [(5, 9, 5)] and rel_err is None
        assert total == pytest.approx(self.exact(), rel=0.05, abs=0.0)
        with pytest.raises(analysis.QuadratureNotConvergedError):
            analysis._integrate(
                self.integrand(passes), self.HALF_ANGLE, self.WINDOW, (5, 3, 5, 3), 1e-6, 3
            )

    def test_blocking_keeps_bits(self, monkeypatch):
        # refined once: 33 lambda1 rows of 17 x 33 cells in 2 blocks, 33 blocks, then 1;
        # each on 1, 2 and 3 threads
        results = []
        monkeypatch.setattr(analysis, "_MAX_THREADS", 3)
        for cells in (emission._BLOCK_CELLS, 1, 10**9):
            monkeypatch.setattr(emission, "_BLOCK_CELLS", cells)
            for threads in (1, 2, 3):
                monkeypatch.setattr(analysis, "_usable_cpus", lambda: threads)
                total, rel_err = analysis._integrate(
                    self.integrand([]), self.HALF_ANGLE, self.WINDOW, (17, 9, 17, 9), 1.0, 1
                )
                results.append((total.hex(), rel_err.hex()))
        assert results[1:] == results[:1] * 8


class BlockFailure(Exception):
    """Raised by a stand-in partner solve inside a row block."""


class TestThreadedPass:
    """The row blocks of a pass run on threads: errors, warnings, cleanup, concurrency."""

    RES = (17, 9, 65, 33)  # refined once: 33 lambda1 rows in 6 blocks
    WINDOW = (0.1, 5.0)

    def _total(self):
        return total_count(
            silica_config(beta=20.0),
            cone_half_angle_rad=math.radians(30.0),
            lam_window=self.WINDOW,
            rel_tol=1.0,
            base_resolution=self.RES,
            max_refinements=1,
        )

    def test_each_block_runs_once(self, monkeypatch):
        # more threads than CPUs, switching as often as the interpreter allows
        calls, lock = collections.Counter(), threading.Lock()

        def square(b):
            with lock:
                calls[b] += 1
            np.sort(np.arange(1000.0)[::-1])  # numpy releases the interpreter lock
            return b * b

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert analysis._map_blocks(square, list(range(100)), 8) == [
                    b * b for b in range(100)
                ]
        finally:
            sys.setswitchinterval(interval)
        assert calls == collections.Counter({b: 20 for b in range(100)})

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_block_error_reaches_caller(self, monkeypatch, threads):
        monkeypatch.setattr(analysis, "_MAX_THREADS", 3)
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: threads)
        solve_partners = kinematics.solve_partners
        first = self.WINDOW[0]  # geomspace keeps its end points exact

        def failing(lam1, *args):
            if lam1.size and lam1.flat[0] != first:
                raise BlockFailure("a later block")
            return solve_partners(lam1, *args)

        monkeypatch.setattr(kinematics, "solve_partners", failing)
        before = threading.enumerate()
        with pytest.raises(BlockFailure, match="a later block"):
            self._total()
        assert threading.enumerate() == before

    def test_first_block_error_cancels_the_rest(self):
        ran, lock = [], threading.Lock()

        def fn(b):
            with lock:
                ran.append(b)
            if b == 0:
                raise BlockFailure("block 0")
            time.sleep(1e-3)  # lets the caller see block 0 fail while blocks are left
            return b

        before = threading.enumerate()
        with pytest.raises(BlockFailure, match="block 0"):
            analysis._map_blocks(fn, list(range(1000)), 2)
        assert 0 in ran and len(ran) < 1000
        assert threading.enumerate() == before

    def test_no_thread_outlives_total(self, monkeypatch):
        monkeypatch.setattr(analysis, "_MAX_THREADS", 3)
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 3)
        before = threading.enumerate()
        assert self._total().pairs_per_pulse > 0.0
        assert threading.enumerate() == before

    def _on_two_threads(self, monkeypatch, in_worker):
        """The set of threads that call solve_partners; workers call in_worker first.

        On its first call each worker waits at a two-party barrier until
        another worker has called too, so neither can take every block
        alone.  A pass the caller runs alone does not wait.
        """
        solve_partners = kinematics.solve_partners
        threads, first = set(), threading.local()
        both = threading.Barrier(2, timeout=10.0)

        def spy(*args):
            threads.add(threading.get_ident())
            if threading.current_thread() is not threading.main_thread():
                if not getattr(first, "done", False):
                    first.done = True
                    both.wait()
                in_worker()
            return solve_partners(*args)

        monkeypatch.setattr(kinematics, "solve_partners", spy)
        return threads

    @pytest.mark.skipif(analysis._usable_cpus() < 2, reason="the process may use one CPU")
    def test_blocks_run_on_two_threads(self, monkeypatch):
        fine = [2 * (n - 1) + 1 for n in self.RES]
        assert len(emission._row_blocks(fine[0], fine[1] * fine[2])) >= 2
        threads = self._on_two_threads(monkeypatch, lambda: None)
        assert self._total().pairs_per_pulse > 0.0
        assert len(threads) >= 2

    def test_worker_warning_is_an_error(self, monkeypatch):
        # the suite turns every RuntimeWarning into an error (pyproject.toml)
        assert any(f[0] == "error" and f[2] is RuntimeWarning for f in warnings.filters)
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        threads = self._on_two_threads(
            monkeypatch, lambda: warnings.warn("in a worker", RuntimeWarning)
        )
        before = threading.enumerate()
        with pytest.raises(RuntimeWarning, match="in a worker"):
            self._total()
        assert len(threads) >= 2
        assert threading.enumerate() == before

    def test_multiple_roots_warning_reaches_caller(self, monkeypatch):
        # one lambda1 row per block, so on 2 threads every block, the ones whose
        # partners have more than one root included, runs on a worker thread
        monkeypatch.setattr(emission, "_BLOCK_CELLS", 1)
        lines, start = inspect.getsourcelines(emission._cone_rows)
        solve = start + next(i for i, line in enumerate(lines) if "solve_partners(" in line)
        seen = {}
        for threads in (1, 2):
            monkeypatch.setattr(analysis, "_usable_cpus", lambda: threads)
            caught = seen[threads] = []

            def record(message, category, filename, lineno, *rest):
                on_worker = threading.current_thread() is not threading.main_thread()
                caught.append((category, filename, lineno, on_worker))

            with warnings.catch_warnings():
                warnings.simplefilter("always", kinematics.MultipleRootsWarning)
                warnings.showwarning = record
                total_count(
                    SCAN_CASES["fast_light_multiroot"](),
                    cone_half_angle_rad=math.radians(30.0),
                    lam_window=self.WINDOW,
                    rel_tol=1.0,
                    base_resolution=(9, 5, 17, 9),
                    max_refinements=1,
                )
        assert seen[1] and len(seen[2]) == len(seen[1])
        assert set(seen[1]) == {(kinematics.MultipleRootsWarning, emission.__file__, solve, False)}
        assert set(seen[2]) == {(kinematics.MultipleRootsWarning, emission.__file__, solve, True)}

    @pytest.mark.parametrize("divide", ["ignore", "raise"])
    def test_workers_keep_caller_errstate(self, monkeypatch, divide):
        # a division by zero in a worker follows the caller's np.errstate, not numpy's default
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        seen = []

        def divide_by_zero():
            seen.append(np.geterr()["divide"])
            np.float64(1.0) / np.zeros(1)

        threads = self._on_two_threads(monkeypatch, divide_by_zero)
        before = threading.enumerate()
        with np.errstate(divide=divide):
            if divide == "raise":
                with pytest.raises(FloatingPointError):
                    self._total()
            else:
                assert self._total().pairs_per_pulse > 0.0
        assert len(threads) >= 2 and seen and set(seen) == {divide}
        assert threading.enumerate() == before

    # the benchmark's refined pass and both passes at the library defaults
    @pytest.mark.parametrize("n_t2, n_phi", [(65, 33), (257, 129), (513, 257)])
    def test_thread_count(self, monkeypatch, n_t2, n_phi):
        # min(2, usable CPUs) threads, whatever the pass's shape
        seen = []

        def recorded(fn, blocks, threads):
            seen.append(threads)
            return [np.ones((b.stop - b.start, 2)) for b in blocks]

        monkeypatch.setattr(analysis, "_map_blocks", recorded)
        for cpus in (64, 2, 1):
            monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
            total_count(
                silica_config(beta=20.0),
                cone_half_angle_rad=math.radians(30.0),
                lam_window=self.WINDOW,
                base_resolution=(5, 3, n_t2, n_phi),
                max_refinements=0,
            )
        assert seen == [2, 2, 1]


class TestPhiFactoring:
    """The total's row density, phi factored out, against the kernel on every phi node."""

    @pytest.mark.parametrize("name", ["silica_beta10", "silica_tanh", "fast_light"])
    @pytest.mark.parametrize("lam1", [0.3, 0.6, 1.5])
    def test_row_matches_phi_nodes(self, name, lam1):
        config = SCAN_CASES[name]()
        t1 = np.linspace(0.0, math.radians(30.0), 9)
        t2 = np.linspace(math.pi / 2.0, math.pi, 65)
        phi = np.linspace(0.0, math.pi, 33)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", kinematics.MultipleRootsWarning)
            (row,) = cone_rows(config, t1, t2, phi)(np.asarray([lam1]))
            expected = total_row_density_3d(config, lam1, t1, t2, phi)
            coarse = total_row_density_3d(config, lam1, t1, t2, phi[::2])
        assert np.count_nonzero(expected) > 0
        assert row[0] == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert row[1] == pytest.approx(coarse, rel=1e-13, abs=0.0)

    def test_row_matches_phi_nodes_where_weights_flush(self, monkeypatch):
        # sigma = 2 um at beta = 30: most transverse weights fall below the cut and are 0.0
        config = silica_config(beta=30.0, sigma=2.0)
        t1 = np.linspace(0.0, math.radians(30.0), 9)
        t2 = np.linspace(math.pi / 2.0, math.pi, 65)
        phi = np.linspace(0.0, math.pi, 33)
        weights = []
        transverse_weight = emission._transverse_weight

        def kept(profile, ky):
            weights.append(transverse_weight(profile, ky).copy())
            return weights[-1]

        monkeypatch.setattr(emission, "_transverse_weight", kept)
        (row,) = cone_rows(config, t1, t2, phi)(np.asarray([0.3]))
        assert np.count_nonzero(np.concatenate(weights, axis=None) == 0.0) > 0.5 * sum(
            w.size for w in weights
        )
        for got, nodes in ((row[0], phi), (row[1], phi[::2])):
            expected = total_row_density_3d(config, 0.3, t1, t2, nodes)
            # the flush moves only cells that are tiny beside the row's maximum
            live = expected > 1e-200 * expected.max()
            assert np.count_nonzero(live) > 0
            assert got[live] == pytest.approx(expected[live], rel=1e-13, abs=0.0)
            assert np.all(np.abs(got[~live]) <= 1e-200 * expected.max())

    @pytest.mark.parametrize("name", ["silica_beta10", "silica_tanh"])
    def test_phi_blocks_keep_bits(self, monkeypatch, name):
        # at (16, 129, 65) nodes the 2064 (theta1, theta2) cells form 4 phi blocks
        # under the cap of _BLAS_THREADED_MNK // 6, 1032 blocks of 2 cells under a
        # cap of 2 cells, then one block with no cap at all.  A cap of 1 cell is
        # left out: numpy sends a (1 x n_phi) @ (n_phi x 6) product to gemv, whose
        # sums round otherwise than gemm's; gemm on the C-ordered weights gives
        # the same bits for any block of 2 cells or more.
        config = SCAN_CASES[name]()
        t1 = np.linspace(0.0, math.radians(30.0), 16)
        t2 = np.linspace(math.pi / 2.0, math.pi, 129)
        phi = np.linspace(0.0, math.pi, 65)
        caps = [(emission._BLAS_THREADED_MNK, 4), (2 * phi.size * 6, 1032), (10**12, 1)]
        rows = []
        for mnk, blocks in caps:
            assert len(emission._row_blocks(t1.size * t2.size, phi.size, mnk // 6)) == blocks
            monkeypatch.setattr(emission, "_BLAS_THREADED_MNK", mnk)
            (row,) = cone_rows(config, t1, t2, phi)(np.asarray([0.6]))
            rows.append(row)
        assert np.count_nonzero(rows[0]) > 0
        assert rows[1].tobytes() == rows[0].tobytes()
        assert rows[2].tobytes() == rows[0].tobytes()

    # the benchmark's refined pass and both passes at the library defaults
    @pytest.mark.parametrize(
        "n_t1, n_t2, n_phi, blocks", [(17, 129, 65, 4), (33, 257, 129, 26), (65, 513, 257, 197)]
    )
    def test_phi_blocks_stay_off_blas_threads(self, monkeypatch, n_t1, n_t2, n_phi, blocks):
        shapes = []
        transverse_weight = emission._transverse_weight

        def recorded(profile, ky):
            shapes.append(ky.shape)
            return transverse_weight(profile, ky)

        monkeypatch.setattr(emission, "_transverse_weight", recorded)
        t1 = np.linspace(0.0, math.radians(30.0), n_t1)
        t2 = np.linspace(math.pi / 2.0, math.pi, n_t2)
        phi = np.linspace(0.0, math.pi, n_phi)
        (row,) = cone_rows(silica_config(beta=20.0), t1, t2, phi)(np.asarray([0.6]))
        assert np.count_nonzero(row) > 0
        # each phi block's moments are the product (cells x n_phi) @ (n_phi x 6), of
        # at least 2 cells, so numpy runs it on gemm and not on gemv
        assert len(shapes) == blocks and sum(cells for cells, _ in shapes) == n_t1 * n_t2
        assert all(shape[1:] == (n_phi,) and shape[0] >= 2 for shape in shapes)
        assert all(math.prod(shape) * 6 <= emission._BLAS_THREADED_MNK for shape in shapes)

    @pytest.mark.parametrize("n", range(2, 301))
    def test_phi_weights_are_simpson(self, n):
        # linear axes as phi, theta1 and theta2 are, log-spaced ones as lambda1 is
        for x in (np.linspace(0.0, math.pi, n), np.geomspace(0.1, 5.0, n)):
            f = np.exp(np.cos(x)) * (1.0 + np.sin(x) ** 2)
            weights = analysis._simpson_weights(x)
            # node by node, the bits of scipy's rule
            assert weights[0].tobytes() == simpson(np.eye(n), x=x, axis=1).tobytes()
            coarse = simpson(np.eye(x[::2].size), x=x[::2], axis=1)
            assert weights[1, ::2].tobytes() == coarse.tobytes()
            assert f @ weights[0] == pytest.approx(simpson(f, x=x), rel=1e-14, abs=0.0)
            assert f @ weights[1] == pytest.approx(simpson(f[::2], x=x[::2]), rel=1e-14, abs=0.0)
            assert not weights[1, 1::2].any()


class TestCountPeaks:
    def test_flat_zero_field(self):
        assert count_peaks(np.zeros((20, 20))) == 0

    def test_single_blob(self):
        x = np.linspace(-3, 3, 41)
        xx, yy = np.meshgrid(x, x)
        values = np.exp(-(xx**2 + yy**2))
        assert count_peaks(values) == 1

    def test_two_blobs(self):
        x = np.linspace(-6, 6, 81)
        xx, yy = np.meshgrid(x, x)
        values = np.exp(-((xx - 3) ** 2 + yy**2)) + np.exp(
            -((xx + 3) ** 2 + yy**2)
        )
        assert count_peaks(values) == 2

    def test_threshold_merges_shallow_saddle(self):
        x = np.linspace(-4, 4, 81)
        xx, yy = np.meshgrid(x, x)
        values = np.exp(-((xx - 1) ** 2 + yy**2)) + np.exp(
            -((xx + 1) ** 2 + yy**2)
        )
        # the saddle between the lobes stays above half maximum
        assert count_peaks(values) == 1


class TestFastLight:
    def test_zero_amplitude_is_identity(self):
        resonance = fast_light_resonance(
            amplitude=0.0, width=analysis.FAST_LIGHT_WIDTH_UM, max_slope_at=0.335
        )
        study = fast_light_study(
            silica_config(beta=20.0), resonance, resolution=41
        )
        assert study.enhancement == 1.0
        assert np.array_equal(study.grid_base.values, study.grid_modified.values)

    def test_default_resonance_enhances_and_splits(self):
        config = silica_config(beta=20.0)
        peak = find_maximum(config)
        resonance = fast_light_resonance(
            amplitude=analysis.FAST_LIGHT_AMPLITUDE,
            width=analysis.FAST_LIGHT_WIDTH_UM,
            max_slope_at=peak.lambda1_um,
        )
        study = fast_light_study(config, resonance)
        assert study.enhancement >= 5.0
        assert study.peak_count == 2
        assert count_peaks(study.grid_base.values) == 1


class TestCalibration:
    def test_matches_frozen_constant(self):
        assert calibrate_reference_row() == pytest.approx(
            DEFAULT_CALIBRATION, rel=1e-6
        )
