"""Analysis-layer tests: maxima search, sweeps, totals, fast-light study."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

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
        ],
        ids=[
            "ones", "two_points", "three_axes", "five_axes", "float_axis", "scalar",
            "negative_refinements", "float_refinements",
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
        [(5.0, 0.1), (-1.0, 5.0), (0.1, math.nan), (0.0, 5.0), (0.3, 0.3)],
        ids=["reversed", "negative", "nan", "zero", "empty"],
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
        # one block; one row per block; three rows per block and a partial last block
        for cells in (10**9, 1, 3 * self.RES[1] * self.RES[2] + 2):
            monkeypatch.setattr(emission, "_BLOCK_CELLS", cells)
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
        assert results[1:] == results[:1] * 2

    def test_pass_memory_flat_in_n_lam(self):
        # the partners are solved in row blocks of bounded size, not a whole pass at once
        config = silica_config(beta=20.0)
        peaks = []
        for n_lam in (17, 17, 129):  # the first pass fills the per-model caches
            tracemalloc.start()
            try:
                analysis._total_count_once(config, math.radians(30.0), (0.1, 5.0), n_lam, 9, 65, 33)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] <= 1.2 * peaks[1]

    def test_one_partner_table_per_pass(self, monkeypatch):
        # the table depends on theta2 alone, so the 9 lambda1 rows share it
        built = []
        partner_table = kinematics.partner_table

        def counted(*args):
            built.append(args)
            return partner_table(*args)

        monkeypatch.setattr(kinematics, "partner_table", counted)
        value = analysis._total_count_once(
            silica_config(beta=20.0), math.radians(30.0), (0.15, 3.0), 9, 5, 17, 9
        )
        assert value > 0.0
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
            (row,) = analysis._row_densities(config, [lam1], t1, t2, phi)
            expected = total_row_density_3d(config, lam1, t1, t2, phi)
        assert np.count_nonzero(expected) > 0
        assert row == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", ["silica_beta10", "silica_tanh"])
    def test_phi_blocks_keep_bits(self, monkeypatch, name):
        # at (17, 129, 65) nodes every theta1 row is a phi block of its own
        config = SCAN_CASES[name]()
        t1 = np.linspace(0.0, math.radians(30.0), 17)
        t2 = np.linspace(math.pi / 2.0, math.pi, 129)
        phi = np.linspace(0.0, math.pi, 65)
        assert len(emission._row_blocks(t1.size, t2.size * phi.size)) == 17
        rows = []
        for cells in (emission._BLOCK_CELLS, 10**9):
            monkeypatch.setattr(emission, "_BLOCK_CELLS", cells)
            (row,) = analysis._row_densities(config, [0.6], t1, t2, phi)
            rows.append(row)
        assert np.count_nonzero(rows[0]) > 0
        assert rows[0].tobytes() == rows[1].tobytes()

    @pytest.mark.parametrize("n_phi", [3, 4, 33])
    def test_phi_weights_are_simpson(self, n_phi):
        phi = np.linspace(0.0, math.pi, n_phi)
        f = np.exp(np.cos(phi)) * (1.0 + np.sin(phi) ** 2)
        assert f @ analysis._phi_mean_weights(phi) == pytest.approx(
            simpson(f, x=phi) / math.pi, rel=1e-14, abs=0.0
        )


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
