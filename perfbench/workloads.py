"""Seeded op streams for the benchmark workloads and the library call of each op.

An op is a plain JSON-able dict, so the same input can be printed, used as a
key into the committed fingerprints and rebuilt into library objects.  Every
stream starts with fixed anchor ops, identical for every seed, and goes on
with seeded draws.  Draws are stratified in blocks: each block covers every
stratum of every drawn parameter once, so the mix of work in the first N ops
is the same for every seed.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

import vacuumpairs as vp

WORKLOADS = ("maxima", "grids", "total")

ETA = 0.001
LENGTH_M = 0.05

# Tabulated collinear maxima for fused silica, Gaussian profile (the same table
# the acceptance tests use): (beta, sigma_um) -> (lambda1 um, lambda2 um, N_max).
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

# Collinear maximum that find_maximum returns for fused silica at beta = 20,
# sigma = 1 um.  The fast-light anchor puts its resonance and window here, as
# the fast-light acceptance criterion does, without calling find_maximum.
BETA20_PEAK_UM = (0.33488593972260033, 0.35739115121963644)

# total_count settings of the `total` workload.  The CLI default resolution
# (65, 33, 257, 129) runs about 100 s per op and is too long to repeat; it
# runs the same code at a larger size.
TOTAL_SETTINGS = {
    "cone_half_angle_rad": math.radians(30.0),
    "lam_window": (0.1, 5.0),
    "rel_tol": 0.05,
    "base_resolution": (17, 9, 65, 33),
    "max_refinements": 1,
}

MAXIMA_CYCLE = (
    ("fused_silica", "gaussian", False),
    ("fused_silica", "tanh", False),
    ("silicon", "gaussian", False),
    ("silicon", "tanh", False),
    ("fused_silica", "gaussian", True),
)
MAXIMA_BLOCK = 2 * len(MAXIMA_CYCLE)

GRID_CYCLE = (
    ("fused_silica", "gaussian"),
    ("fused_silica", "tanh"),
    ("silicon", "gaussian"),
    ("silicon", "tanh"),
)
# per-material ranges of the lower and upper grid edge (um), inside the
# transparency windows (fused silica 0.115-8.3 um, silicon 1.14-500 um); every
# square window holds the lambda1 = lambda2 diagonal, which always emits
GRID_EDGES = {"fused_silica": ((0.15, 0.6), (2.0, 8.0)), "silicon": ((1.2, 2.5), (4.0, 20.0))}
GRID_RESOLUTION = (121, 1201)
FAST_LIGHT_RESOLUTION = (81, 241)

TOTAL_BLOCK = 4


def ops(workload: str, seed: int):
    """Endless op stream of a workload: anchors first, then seeded draws."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"maxima": _maxima, "grids": _grids, "total": _totals}[workload](rng)


def first_ops(workload: str, seed: int, count: int) -> list[dict]:
    return list(itertools.islice(ops(workload, seed), count))


def op_key(op: dict) -> str:
    """Canonical text of an op, the key of its fingerprint."""
    return json.dumps(op, sort_keys=True)


def _strata(rng, n: int, block: int, step: int = 1) -> np.ndarray:
    """n draws in [0, 1), one in each of n equal strata.

    The order of the strata is fixed, not seeded: position i of block b gets
    stratum (step * i + b) mod n, with step coprime to n.  The seed moves a
    draw only inside its stratum, so every seed gives the same mix of work in
    the same order, and medians of the first ops compare across seeds.
    """
    order = (step * np.arange(n) + block) % n
    return (order + rng.random(n)) / n


def _log_between(lo: float, hi: float, u: float) -> float:
    return round(math.exp(math.log(lo) + u * math.log(hi / lo)), 6)


def reference_peak_um(beta: float, sigma: float) -> float:
    """lambda1 of the tabulated fused-silica maximum, fitted log-log in beta and sigma.

    Used only to place a fast-light resonance near the emission peak of a
    seeded input without running the search first.
    """
    betas = (2.0, 5.0, 10.0, 20.0)
    fits = {
        s: np.polyfit(np.log(betas), [math.log(REFERENCE_ROWS[(b, s)][0]) for b in betas], 1)
        for s in (1.0, 2.0)
    }
    at = {s: float(np.polyval(fit, math.log(beta))) for s, fit in fits.items()}
    frac = math.log(sigma) / math.log(2.0)
    return math.exp(at[1.0] + frac * (at[2.0] - at[1.0]))


def _maxima(rng):
    for beta, sigma in REFERENCE_ROWS:
        yield _emission_op("maximum", "reference", "fused_silica", "gaussian", sigma, beta)
    for block in itertools.count():
        betas = _strata(rng, MAXIMA_BLOCK, block, 3)
        sigmas = _strata(rng, MAXIMA_BLOCK, block, 7)
        for i in range(MAXIMA_BLOCK):
            material, shape, fast = MAXIMA_CYCLE[i % len(MAXIMA_CYCLE)]
            beta = _log_between(2.0, 30.0, betas[i])
            sigma = round(0.5 + 2.0 * sigmas[i], 6)
            op = _emission_op("maximum", None, material, shape, sigma, beta)
            if fast:
                op["fast_light_at_um"] = round(reference_peak_um(beta, sigma), 6)
            yield op


def _grids(rng):
    window = [0.3, 1.5]
    for resolution in GRID_RESOLUTION:
        op = _emission_op("grid", "reference", "fused_silica", "gaussian", 1.0, 10.0)
        yield dict(op, window_um=window, resolution=resolution)
    lam1, lam2 = BETA20_PEAK_UM
    op = _emission_op("fast_light", "criterion08", "fused_silica", "gaussian", 1.0, 20.0)
    yield dict(op, fast_light_at_um=lam1, window_um=[0.75 * lam1, 1.35 * lam2], resolution=161)
    for block in itertools.count():
        # a block is 8 grids (the cycle twice) and 2 fast-light studies
        res = _strata(rng, 8, block, 3)
        lo, hi, betas, sigmas = (_strata(rng, 8, block, step) for step in (1, 5, 5, 7))
        fl_beta, fl_res = _strata(rng, 2, block), _strata(rng, 2, block)
        for i in range(8):
            material, shape = GRID_CYCLE[i % len(GRID_CYCLE)]
            (lo_min, lo_max), (hi_min, hi_max) = GRID_EDGES[material]
            op = _emission_op(
                "grid", None, material, shape, round(0.5 + 2.0 * sigmas[i], 6),
                _log_between(2.0, 30.0, betas[i]),
            )
            op["window_um"] = [
                _log_between(lo_min, lo_max, lo[i]),
                _log_between(hi_min, hi_max, hi[i]),
            ]
            op["resolution"] = int(round(_log_between(*GRID_RESOLUTION, res[i])))
            yield op
            if i % 4 == 3:
                j = i // 4
                beta = _log_between(10.0, 30.0, fl_beta[j])
                at = round(reference_peak_um(beta, 1.0), 6)
                op = _emission_op("fast_light", None, "fused_silica", "gaussian", 1.0, beta)
                op.update(
                    fast_light_at_um=at,
                    window_um=[round(0.75 * at, 6), round(1.6 * at, 6)],
                    resolution=int(round(_log_between(*FAST_LIGHT_RESOLUTION, fl_res[j]))),
                )
                yield op


def _totals(rng):
    for shape in ("gaussian", "tanh"):
        yield _emission_op("total", "criterion07", "fused_silica", shape, 1.0, 20.0)
    for block in itertools.count():
        betas = _strata(rng, TOTAL_BLOCK, block)
        for i in range(TOTAL_BLOCK):
            shape = ("gaussian", "tanh")[i % 2]
            yield _emission_op(
                "total", None, "fused_silica", shape, 1.0, _log_between(10.0, 30.0, betas[i])
            )


def _emission_op(kind, anchor, material, shape, sigma, beta) -> dict:
    return {
        "kind": kind,
        "anchor": anchor,
        "material": material,
        "shape": shape,
        "sigma_um": sigma,
        "beta": beta,
    }


def materials_of(workload: str) -> list[str]:
    """Library materials a workload resolves."""
    return ["fused_silica"] if workload == "total" else ["fused_silica", "silicon"]


def emission_config(op: dict, with_resonance: bool = True):
    """Library config of an op; the fast-light resonance is added on request."""
    model = vp.materials.get_material(op["material"])
    if with_resonance and op.get("fast_light_at_um") is not None:
        model = vp.dispersion.DispersionModel(
            base=model.base, resonances=model.resonances + (fast_light(op),)
        )
    sigma = op["sigma_um"]
    if op["shape"] == "gaussian":
        profile = vp.emission.GaussianProfile(eta=ETA, sigma=sigma)
    else:
        profile = vp.emission.TanhProfile(eta=ETA, sigma_x=1.1 * sigma, sigma_y=sigma, sigma_z=sigma)
    return vp.emission.EmissionConfig(
        material=model,
        profile=profile,
        kin=vp.kinematics.PerturbationKinematics(beta=op["beta"]),
        length_m=LENGTH_M,
    )


def fast_light(op: dict):
    return vp.dispersion.fast_light_resonance(
        amplitude=vp.analysis.FAST_LIGHT_AMPLITUDE,
        width=vp.analysis.FAST_LIGHT_WIDTH_UM,
        max_slope_at=op["fast_light_at_um"],
    )


def run_op(op: dict):
    """Build the op's inputs and make its one library call.

    Calls go through module attributes so that a tracer that replaced them
    sees every call.
    """
    kind = op["kind"]
    if kind == "maximum":
        return vp.analysis.find_maximum(emission_config(op))
    if kind == "grid":
        window = tuple(op["window_um"])
        return vp.emission.collinear_grid(emission_config(op), window, window, op["resolution"])
    if kind == "fast_light":
        return vp.analysis.fast_light_study(
            emission_config(op, with_resonance=False),
            fast_light(op),
            window=tuple(op["window_um"]),
            resolution=op["resolution"],
        )
    if kind == "total":
        return vp.analysis.total_count(emission_config(op), **TOTAL_SETTINGS)
    raise ValueError(f"unknown op kind {kind!r}")
