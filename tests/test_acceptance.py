"""End-to-end acceptance checks.

Each test prints one "[criterion NN] PASS/FAIL" line so a full run gives a
compact scorecard of the headline claims: reference spectral maxima and
densities, exact qualitative trends, the dispersionless closed form, the
emission threshold, the peak-location rule of thumb, total pair counts for
both perturbation profiles, fast-light enhancement, numerical hygiene, and
exact scaling laws.
"""

import json
import math
import time

import numpy as np
import pytest

from vacuumpairs import analysis, cli, dispersion, emission
from vacuumpairs.analysis import (
    NoEmissionError,
    calibrate_reference_row,
    count_peaks,
    fast_light_study,
    find_maximum,
    total_count,
)
from vacuumpairs.dispersion import (
    ConstantIndex,
    DispersionModel,
    fast_light_resonance,
    index_fields,
    refractive_index,
    transparency_window,
)
from vacuumpairs.emission import (
    DEFAULT_CALIBRATION,
    EmissionConfig,
    GaussianProfile,
    TanhProfile,
    collinear_grid,
    density_gaussian,
)
from vacuumpairs.kinematics import (
    NoSignChangeError,
    PerturbationKinematics,
    PhotonMode,
    solve_partner,
)
from vacuumpairs.materials import get_material

from oracles import density_nondispersive

# Reference collinear maxima for fused silica (lambda1max um, lambda2max um,
# N_max), keyed by (beta, sigma_um).
REFERENCE_ROWS = {
    (2.0, 1.0): (2.51, 4.98, 6.13e-7),
    (5.0, 1.0): (1.26, 1.66, 9.35e-5),
    (10.0, 1.0): (0.68, 0.78, 2.91e-3),
    (20.0, 1.0): (0.36, 0.39, 8.19e-2),
    (2.0, 2.0): (3.93, 7.02, 4.14e-8),
    (5.0, 2.0): (2.49, 3.26, 4.28e-5),
    (10.0, 2.0): (1.35, 1.54, 1.47e-3),
    (20.0, 2.0): (0.70, 0.75, 4.63e-2),
}


def report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} — {description}")


def silica_config(beta, sigma=1.0, eta=0.001, length_m=0.05):
    return EmissionConfig(
        material=get_material("fused_silica"),
        profile=GaussianProfile(eta=eta, sigma=sigma),
        kin=PerturbationKinematics(beta=beta),
        length_m=length_m,
    )


@pytest.fixture(scope="module")
def table_maxima():
    """Collinear maxima for all reference rows, with the wall time taken."""
    start = time.perf_counter()
    rows = {
        key: find_maximum(silica_config(beta=beta, sigma=sigma))
        for key, (beta, sigma) in (
            (k, k) for k in sorted(REFERENCE_ROWS)
        )
    }
    return rows, time.perf_counter() - start


def test_criterion_01_table_wavelengths(table_maxima):
    rows, elapsed = table_maxima
    ok = elapsed < 300.0
    for key, (lam1_ref, lam2_ref, _) in REFERENCE_ROWS.items():
        peak = rows[key]
        ok &= abs(peak.lambda1_um / lam1_ref - 1.0) < 0.10
        ok &= abs(peak.lambda2_um / lam2_ref - 1.0) < 0.10
    report(1, ok, f"reference maxima wavelengths within 10% ({elapsed:.1f} s)")
    assert ok


def test_criterion_02_table_densities(table_maxima):
    rows, _ = table_maxima
    constant = calibrate_reference_row()
    ok = 0.1 <= constant <= 10.0
    for key, (_, _, n_ref) in REFERENCE_ROWS.items():
        ratio = rows[key].density / n_ref
        ok &= 1.0 / 3.0 < ratio < 3.0
    report(
        2,
        ok,
        f"reference densities within x3 (calibration constant {constant:.4g})",
    )
    assert ok


def test_criterion_03_table_trends(table_maxima):
    rows, _ = table_maxima
    ok = True
    for sigma in (1.0, 2.0):
        seq = [rows[(b, sigma)] for b in (2.0, 5.0, 10.0, 20.0)]
        ok &= all(a.density < b.density for a, b in zip(seq, seq[1:]))
        ok &= all(a.lambda1_um > b.lambda1_um for a, b in zip(seq, seq[1:]))
        ok &= all(a.lambda2_um > b.lambda2_um for a, b in zip(seq, seq[1:]))
    for beta in (2.0, 5.0, 10.0, 20.0):
        ok &= rows[(beta, 2.0)].density < rows[(beta, 1.0)].density
    report(3, ok, "monotone trends in beta and sigma hold exactly")
    assert ok


def test_criterion_04_nondispersive_oracle():
    n0, beta = 1.5, 4.0
    config = EmissionConfig(
        material=DispersionModel(base=ConstantIndex(n0)),
        profile=GaussianProfile(eta=0.001, sigma=1.0),
        kin=PerturbationKinematics(beta=beta),
        length_m=0.05,
    )
    bn = beta * n0
    ok = True
    for lam1 in np.geomspace(0.5, 6.0, 20):
        lam1 = float(lam1)
        lam2_cf = lam1 * (bn + 1.0) / (bn - 1.0)
        lam2 = solve_partner(lam1, 0.0, math.pi, config.kin, config.material)
        ok &= abs(lam2 / lam2_cf - 1.0) < 1e-10
        for theta1 in np.linspace(0.0, 0.4, 20):
            theta1 = float(theta1)
            lam2_t = solve_partner(
                lam1, theta1, math.pi, config.kin, config.material
            )
            m1 = PhotonMode(lam1, theta1)
            m2 = PhotonMode(lam2_t, math.pi)
            a = density_gaussian(m1, m2, config)
            b = density_nondispersive(m1, m2, n0, config)
            ok &= abs(a / b - 1.0) < 1e-9
    report(4, ok, "constant-index closed form matched to 1e-9 on a 20x20 grid")
    assert ok


def test_criterion_05_subluminal_threshold():
    config = silica_config(beta=0.5)
    ok = True
    try:
        find_maximum(config)
        ok = False
    except NoEmissionError:
        pass
    try:
        solve_partner(1.0, 0.0, math.pi, config.kin, config.material)
        ok = False
    except NoSignChangeError:
        pass
    grid = collinear_grid(config, (0.3, 3.0), (0.3, 3.0), 41)
    ok &= grid.max_value() == 0.0
    try:
        total_count(
            config,
            cone_half_angle_rad=math.radians(30.0),
            lam_window=(0.15, 3.0),
            base_resolution=(17, 9, 65, 33),
            max_refinements=0,
        )
        ok = False
    except NoEmissionError:
        pass
    report(5, ok, "subluminal perturbation produces no emission anywhere")
    assert ok


def test_criterion_06_peak_near_three_sigma():
    n0, beta = 20.0, 2.19
    ok = True
    for sigma in (1.0, 2.0):
        config = EmissionConfig(
            material=DispersionModel(base=ConstantIndex(n0)),
            profile=GaussianProfile(eta=0.001, sigma=sigma),
            kin=PerturbationKinematics(beta=beta),
            length_m=0.05,
        )
        peak = find_maximum(config, window=(0.2, 40.0))
        ok &= 2.7 * sigma <= peak.lambda1_um <= 3.3 * sigma
    report(6, ok, "large-index peak sits near 3 sigma")
    assert ok


def test_criterion_07_total_counts():
    kwargs = dict(
        cone_half_angle_rad=math.radians(30.0),
        lam_window=(0.1, 5.0),
        rel_tol=0.05,
        base_resolution=(33, 17, 129, 65),
        max_refinements=1,
    )
    gauss = total_count(silica_config(beta=20.0), **kwargs)
    tanh_config = EmissionConfig(
        material=get_material("fused_silica"),
        profile=TanhProfile(eta=0.001, sigma_x=1.1, sigma_y=1.0, sigma_z=1.0),
        kin=PerturbationKinematics(beta=20.0),
        length_m=0.05,
    )
    tanh = total_count(tanh_config, **kwargs)
    ratio = gauss.pairs_per_pulse / tanh.pairs_per_pulse
    ok = 1.0 / 3.0 < gauss.pairs_per_pulse / 3e-4 < 3.0
    ok &= 1.0 / 3.0 < tanh.pairs_per_pulse / 1.5e-4 < 3.0
    ok &= 1.5 <= ratio <= 3.0
    report(
        7,
        ok,
        f"totals gaussian={gauss.pairs_per_pulse:.3g}, "
        f"tanh={tanh.pairs_per_pulse:.3g}, ratio={ratio:.2f}",
    )
    assert ok


def test_criterion_08_fast_light():
    config = silica_config(beta=20.0)
    peak = find_maximum(config)
    resonance = fast_light_resonance(
        amplitude=analysis.FAST_LIGHT_AMPLITUDE,
        width=analysis.FAST_LIGHT_WIDTH_UM,
        max_slope_at=peak.lambda1_um,
    )
    study = fast_light_study(config, resonance)
    ok = study.enhancement >= 5.0
    ok &= study.peak_count == 2
    ok &= count_peaks(study.grid_base.values) == 1
    null = fast_light_resonance(
        amplitude=0.0,
        width=analysis.FAST_LIGHT_WIDTH_UM,
        max_slope_at=peak.lambda1_um,
    )
    ok &= fast_light_study(config, null, resolution=41).enhancement == 1.0
    report(
        8,
        ok,
        f"fast light enhancement {study.enhancement:.2f} with "
        f"{study.peak_count} spectral maxima",
    )
    assert ok


def test_criterion_09_numerical_hygiene(tmp_path):
    ok = True
    rng = np.random.default_rng(20260824)
    for name in ("fused_silica", "silicon"):
        model = get_material(name)
        lo, hi = transparency_window(model)
        lams = np.exp(rng.uniform(math.log(lo * 1.2), math.log(hi * 0.8), 50))
        for lam in lams:
            lam = float(lam)
            h = 1e-4 * lam
            fd = (
                refractive_index(model, lam + h) - refractive_index(model, lam - h)
            ) / (2.0 * h)
            n, n_g, _ = index_fields(model, lam)
            ok &= abs((n - n_g) / lam / fd - 1.0) < 1e-6
    config = silica_config(beta=20.0)
    grid = collinear_grid(config, (0.3, 0.4), (0.3, 0.4), 41)
    ok &= bool((grid.values >= 0.0).all())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run = tmp_path / "run.json"
    run.write_text(json.dumps({
        **cli.config_to_dict(config),
        "lambda1_window_um": [0.3, 0.4],
        "lambda2_window_um": [0.3, 0.4],
        "resolution": 41,
    }))
    for path in (p1, p2):
        ok &= cli.main(["spectrum", "--config", str(run), "--out", str(path)]) == cli.EXIT_OK
    ok &= p1.read_bytes() == p2.read_bytes()
    report(9, ok, "analytic derivatives, nonnegative grids, identical reruns")
    assert ok


def test_criterion_10_scaling_laws(monkeypatch):
    ok = True
    # density scales exactly with the square of the perturbation amplitude
    base = silica_config(beta=10.0, eta=0.001)
    lam1 = 0.65
    lam2 = solve_partner(lam1, 0.0, math.pi, base.kin, base.material)
    m1, m2 = PhotonMode(lam1, 0.0), PhotonMode(lam2, math.pi)
    ok &= density_gaussian(m1, m2, silica_config(beta=10.0, eta=0.002)) == (
        4.0 * density_gaussian(m1, m2, base)
    )

    # sigma -> 2 sigma follows the analytic sigma^6 exp(-3 sigma^2 K^2) factor
    model = base.material
    k1 = 2.0 * math.pi * refractive_index(model, lam1) / lam1
    k2 = 2.0 * math.pi * refractive_index(model, lam2) / lam2
    expected = 2.0**6 * math.exp(-3.0 * (k1 - k2) ** 2)
    ratio = density_gaussian(m1, m2, silica_config(beta=10.0, sigma=2.0)) / (
        density_gaussian(m1, m2, base)
    )
    ok &= abs(ratio / expected - 1.0) < 1e-9

    # inverse-square group-index law, isolated at theta1 = 90 deg where the
    # delta-consumption factor does not involve n_g(omega_1)
    n0 = 1.5
    config = EmissionConfig(
        material=DispersionModel(base=ConstantIndex(n0)),
        profile=GaussianProfile(eta=0.001, sigma=1.0),
        kin=PerturbationKinematics(beta=10.0),
        length_m=0.05,
    )
    theta1, theta2 = math.pi / 2.0, 0.3
    lam1s = 1.0
    lam2s = solve_partner(lam1s, theta1, theta2, config.kin, config.material)
    ms1, ms2 = PhotonMode(lam1s, theta1), PhotonMode(lam2s, theta2)
    real_index_fields = dispersion.index_fields
    values = {}
    for scale in (1.0, 3.0):
        def scaled(model_, lam, _s=scale):
            n, ng, bad = real_index_fields(model_, lam)
            return n, np.where(np.abs(lam - lam1s) < 1e-12, ng * _s, ng), bad

        monkeypatch.setattr(emission.dispersion, "index_fields", scaled)
        values[scale] = density_gaussian(ms1, ms2, config)
    monkeypatch.setattr(emission.dispersion, "index_fields", real_index_fields)
    ok &= abs(values[3.0] * 9.0 / values[1.0] - 1.0) < 1e-9

    report(10, ok, "eta^2, sigma^6 exponential, and 1/n_g^2 laws hold exactly")
    assert ok
