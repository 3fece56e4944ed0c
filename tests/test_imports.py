"""Import boundary: the package loads numpy alone, and scipy.ndimage only in count_peaks.

The maxima, partner solves and totals, in the library and through the CLI,
load no scipy module.  Neither does importing the package load
concurrent.futures, which only a total with more than one row block and CPU
uses.

Each test runs a fresh interpreter, so the modules that pytest or other
tests have already loaded do not hide a module-level scipy import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vacuumpairs

SRC = str(Path(vacuumpairs.__file__).resolve().parent.parent)

SETUP = """
import json
import math
import numpy as np
import vacuumpairs as vp
import vacuumpairs.cli

config = vp.EmissionConfig(
    material=vp.get_material("fused_silica"),
    profile=vp.GaussianProfile(eta=0.001, sigma=1.0),
    kin=vp.PerturbationKinematics(beta=20.0),
    length_m=0.05,
)


def cli(command, **keys):
    # the run file of config with keys, in the working directory
    run = {"material": "fused_silica", "profile": {"shape": "gaussian", "eta": 0.001,
           "sigma_um": 1.0}, "beta": 20.0, "L_m": 0.05, **keys}
    with open(command + ".json", "w") as fh:
        json.dump(run, fh)
    assert vacuumpairs.cli.main([command, "--config", command + ".json"]) == 0
"""


def loaded_modules(
    setup: str, call: str, package: str = "scipy", cwd=None
) -> dict[str, list[str]]:
    """The modules of package loaded after setup and after call, in a fresh interpreter."""
    script = (
        setup
        + "\nimport json, sys\n"
        + f"loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == {package!r})\n"
        + "before = loaded()\n"
        + call
        + "\nprint(json.dumps({'before': before, 'after': loaded()}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
        cwd=cwd,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["vacuumpairs", "vacuumpairs.cli"])
def test_import_loads_no_scipy(module):
    loaded = loaded_modules(f"import {module}", "")
    assert loaded["after"] == []


@pytest.mark.parametrize("module", ["vacuumpairs", "vacuumpairs.cli"])
def test_import_loads_no_thread_pool(module):
    loaded = loaded_modules(f"import {module}", "", package="concurrent")
    assert loaded["after"] == []


@pytest.mark.parametrize(
    "call",
    [
        "vp.collinear_grid(config, (0.3, 0.4), (0.3, 0.4), resolution=5)",
        "vp.dispersion.index_fields(config.material, np.geomspace(0.2, 5.0, 7))",
        "vp.dispersion.index_fields(config.material, 1.0)",
        "vp.find_maximum(config)",
        "vp.solve_partner(1.0, 0.0, math.pi, config.kin, config.material)",
        "vp.total_count(config, math.radians(30.0), (0.15, 3.0),"
        " base_resolution=(9, 5, 17, 9), max_refinements=0)",
        "vp.beta_sweep(config, [10.0, 20.0])",
        "cli('maxima', betas=[10.0, 20.0])",
        "cli('total', total_lambda_window_um=[0.15, 3.0], base_resolution=[9, 5, 17, 9],"
        " max_refinements=1, rel_tol=1.0)",
    ],
)
def test_paths_without_scipy_calls_load_none(call, tmp_path):
    loaded = loaded_modules(SETUP, call, cwd=tmp_path)
    assert loaded == {"before": [], "after": []}


@pytest.mark.parametrize(
    "call, module",
    [("vp.count_peaks(np.ones((5, 5)))", "scipy.ndimage")],
)
def test_scipy_loads_on_first_call(call, module):
    loaded = loaded_modules(SETUP, call)
    assert loaded["before"] == []
    assert module in loaded["after"]
