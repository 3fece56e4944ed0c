"""Tests of the benchmark itself: seeded inputs, result checks and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speed
import vacuumpairs as vp
from checks import (
    CheckFailed,
    Checker,
    FingerprintMismatch,
    NotFinitePositive,
    OutsideReferenceBand,
    ToleranceMissed,
    load_fingerprints,
)
from run import END_TO_END_UNITS
from spans import METRICS, Tracer, parse_importtime, self_times
from workloads import MAXIMA_BLOCK, REFERENCE_ROWS, WORKLOADS, first_ops, op_key, run_op

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
ANCHORS = {"maxima": len(REFERENCE_ROWS), "grids": 3, "total": 2}


@pytest.fixture(scope="module")
def fingerprints():
    return load_fingerprints()


def checker(fingerprints, workload):
    return Checker(fingerprints, workload)


def anchor(workload, index=0):
    return first_ops(workload, 0, ANCHORS[workload])[index]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stream_is_deterministic_for_a_seed(workload):
    assert first_ops(workload, 7, 40) == first_ops(workload, 7, 40)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stream_differs_across_seeds_after_the_anchors(workload):
    a, b = first_ops(workload, 1, 30), first_ops(workload, 2, 30)
    n = ANCHORS[workload]
    assert a[:n] == b[:n]
    assert all(x != y for x, y in zip(a[n:], b[n:]))


def test_maxima_blocks_cover_every_beta_stratum():
    ops = first_ops("maxima", 3, ANCHORS["maxima"] + 3 * MAXIMA_BLOCK)[ANCHORS["maxima"]:]
    for start in range(0, len(ops), MAXIMA_BLOCK):
        betas = [op["beta"] for op in ops[start:start + MAXIMA_BLOCK]]
        strata = sorted(int(MAXIMA_BLOCK * math.log(b / 2.0) / math.log(15.0)) for b in betas)
        assert strata == list(range(MAXIMA_BLOCK))


def maximum_from(summary, op):
    return vp.analysis.EmissionMaximum(
        lambda1_um=summary["lambda1_um"],
        lambda2_um=summary["lambda2_um"],
        density=summary["density"],
        beta=op["beta"],
        profile={},
        material=op["material"],
    )


def test_maximum_checks(fingerprints):
    op = anchor("maxima", 2)
    good = fingerprints["maxima"][op_key(op)]
    check = checker(fingerprints, "maxima").check
    check(op, maximum_from(good, op))
    with pytest.raises(CheckFailed):
        check(op, maximum_from(dict(good, lambda1_um=1.2 * good["lambda1_um"]), op))
    with pytest.raises(FingerprintMismatch):
        check(op, maximum_from(dict(good, density=good["density"] * (1 + 1e-6)), op))
    with pytest.raises(NotFinitePositive):
        check(op, maximum_from(dict(good, density=math.nan), op))


def test_grid_checks(fingerprints):
    op = anchor("grids", 0)
    grid = run_op(op)
    check = checker(fingerprints, "grids").check
    check(op, grid)
    assert check.__self__.fingerprinted == 1
    moved = grid.values.copy()
    moved.flat[np.argmax(moved)] *= 1 + 1e-6
    with pytest.raises(FingerprintMismatch):
        check(op, dataclasses.replace(grid, values=moved))
    broken = grid.values.copy()
    broken[0, 0] = math.nan
    with pytest.raises(NotFinitePositive):
        check(op, dataclasses.replace(grid, values=broken))


def test_fast_light_anchor_needs_two_peaks(fingerprints):
    op = anchor("grids", 2)
    study = run_op(op)
    check = checker(fingerprints, "grids").check
    check(op, study)
    with pytest.raises(OutsideReferenceBand):
        check(op, dataclasses.replace(study, peak_count=1))


def test_total_checks(fingerprints):
    gauss, tanh = anchor("total", 0), anchor("total", 1)
    results = {
        key: vp.analysis.TotalCount(
            pairs_per_pulse=fp["pairs_per_pulse"], cone_half_angle_rad=0.5, length_m=0.05,
            rel_error=fp["rel_error"],
        )
        for key, fp in ((op_key(o), fingerprints["total"][op_key(o)]) for o in (gauss, tanh))
    }
    check = checker(fingerprints, "total").check
    check(gauss, results[op_key(gauss)])
    check(tanh, results[op_key(tanh)])
    good = results[op_key(gauss)]
    with pytest.raises(FingerprintMismatch):
        check(gauss, dataclasses.replace(good, pairs_per_pulse=1.2 * good.pairs_per_pulse))
    with pytest.raises(ToleranceMissed):
        check(gauss, dataclasses.replace(good, rel_error=0.2))
    with pytest.raises(OutsideReferenceBand):
        check(gauss, dataclasses.replace(good, pairs_per_pulse=10.0 * good.pairs_per_pulse))


def test_tracer_counts_a_grid_and_restores_the_modules():
    op = anchor("grids", 0)
    original = vp.emission.collinear_grid
    tracer = Tracer()
    tracer.install(vp)
    try:
        assert vp.emission.collinear_grid is not original
        with tracer.op_span(op["kind"]):
            run_op(op)
    finally:
        tracer.uninstall()
    assert vp.emission.collinear_grid is original
    assert vp.analysis.collinear_grid is original
    metrics = tracer.metrics()
    assert metrics["emission.collinear_grid.cells"] == op["resolution"] ** 2
    assert metrics["kinematics.solve_partner.calls"] == 0
    assert metrics["dispersion.samples"] == 2 * op["resolution"]
    assert metrics["emission.collinear_grid.self_ms"] > 0.0


def test_self_time_subtracts_direct_children():
    parent = np.array([-1, 0, 1, 0])
    dur = np.array([100, 50, 20, 10])
    assert self_times(parent, dur).tolist() == [40, 30, 20, 10]


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |     690123 |   scipy.optimize\n"
        "import time:      2000 |    1012000 | vacuumpairs\n"
    )
    got = parse_importtime(text)
    assert got["vacuumpairs"] == 1012.0
    assert got["scipy.optimize"] == 690.123
    assert got["scipy.ndimage"] == 0.0


def test_scale_rescales_a_segment_by_the_probes_around_it(monkeypatch):
    probes = iter([2.0 * speed.REFERENCE_PROBE_S, 4.0 * speed.REFERENCE_PROBE_S])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    scale = speed.Scale()
    assert scale.mark() is None
    factor, seconds = scale.mark(force=True)
    assert factor == pytest.approx(1.0 / 3.0)
    assert 0.0 <= seconds < speed.SEGMENT_S


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maxima", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
