"""Property test of the CLI contract (in-process, via main(argv)).

Every run configuration, however malformed, ends in a documented exit code
(0 ok, 1 bad configuration, 2 unknown material, 3 numerical failure) with
no traceback, and a run that exits 0 prints and writes only finite numbers.
The configs start small and valid and are mutated by dropping keys, changing
types and inserting NaN, +-inf and negatives, and the sizes also by huge
finite values.  Every exception class the package defines has one of those
codes, by the family it belongs to.
"""

import contextlib
import importlib
import inspect
import io
import json
import math
import pkgutil
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vacuumpairs
from vacuumpairs import analysis
from vacuumpairs.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_UNKNOWN_MATERIAL, ConfigError, main
from vacuumpairs.dispersion import NumericalError
from vacuumpairs.materials import UnknownMaterialError

BASE = {
    "material": "fused_silica",
    "profile": {"shape": "gaussian", "eta": 0.001, "sigma_um": 1.0},
    "beta": 20.0,
    "L_m": 0.05,
}

CONFIGS = {
    "spectrum": {
        **BASE,
        "lambda1_window_um": [0.3, 0.4],
        "lambda2_window_um": [0.3, 0.4],
        "resolution": 11,
    },
    "maxima": {**BASE, "betas": [20.0], "lambda1_window_um": [0.3, 0.4]},
    "total": {
        **BASE,
        "total_lambda_window_um": [0.15, 3.0],
        "base_resolution": [9, 5, 17, 9],
        "max_refinements": 0,
    },
    "fastlight": {
        **BASE,
        "resonance": {"max_slope_at_um": 0.3348859342688826},
        "fastlight_window_um": [0.26, 0.47],
        "resolution": 21,
    },
}

# No positive number above 1: a large resolution or refinement count is a
# valid request for a long run, not a contract question.
BAD_VALUES = [math.nan, math.inf, -math.inf, -1.0, 0, 0.5, 1, "x", None, True, [], {}, [1.0]]

# Huge finite sizes: valid numbers whose powers, or the density, overflow.
HUGE_SIZES = [1e200, 1e300]
SIZES = {("L_m",), ("profile", "eta"), ("profile", "sigma_um")}

NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def paths(doc, prefix=()):
    """Every key path into doc: object keys and list indices, nested."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutate(doc, path, value, drop):
    """A copy of doc with the item at path dropped, or replaced by value."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated_configs(draw, command):
    doc = CONFIGS[command]
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        drop = draw(st.booleans())
        values = BAD_VALUES + HUGE_SIZES if path in SIZES else BAD_VALUES
        doc = mutate(doc, path, draw(st.sampled_from(values)), drop)
    return doc


def reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def assert_finite_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# config: ")
    json.loads(lines[0][len("# config: "):], parse_constant=reject_constant)
    for line in lines[2:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), line


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "run.json"
        config.write_text(json.dumps(doc))
        for suffix in (".csv", ".json"):
            artifact = tmp / f"out{suffix}"
            code, out, err = run([command, "--config", str(config), "--out", str(artifact)])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err
            if code != 0:
                assert out == ""
                assert len(err.splitlines()) == 1 and err.startswith("error: ")
                continue
            assert not NON_FINITE.search(out), out
            if suffix == ".csv":
                assert_finite_csv(artifact.read_text())
            else:
                result = json.loads(artifact.read_text(), parse_constant=reject_constant)
                if command == "total":  # a total of 0 is no emission: exit 3
                    assert result["result"]["pairs_per_pulse"] > 0.0


CONTRACT = settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@CONTRACT
@given(doc=mutated_configs("spectrum"))
def test_spectrum(doc):
    check_contract("spectrum", doc)


@CONTRACT
@given(doc=mutated_configs("maxima"))
def test_maxima(doc):
    check_contract("maxima", doc)


@CONTRACT
@given(doc=mutated_configs("total"))
def test_total(doc):
    check_contract("total", doc)


@CONTRACT
@given(doc=mutated_configs("fastlight"))
def test_fastlight(doc):
    check_contract("fastlight", doc)


def test_base_configs_run():
    """The unmutated configs exit 0, so the mutations start from valid runs."""
    for command, doc in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "run.json"
            config.write_text(json.dumps(doc))
            out = str(Path(tmp) / "out.json")
            code, _, err = run([command, "--config", str(config), "--out", out])
            assert code == 0, err


# ---------------------------------------------------------------------------
# the exit code of each exception class the package defines

def package_errors():
    """Every exception class defined in a module of the package, by name.

    Warnings are left out: the package issues them, it does not raise them.
    """
    found = {}
    for info in pkgutil.iter_modules(vacuumpairs.__path__):
        module = importlib.import_module(f"vacuumpairs.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__ and issubclass(cls, Exception)
                    and not issubclass(cls, Warning)):
                found[cls.__name__] = cls
    return [found[name] for name in sorted(found)]


PACKAGE_ERRORS = package_errors()

# a class's exit code follows from the first of these families it belongs to
FAMILIES = (
    (NumericalError, EXIT_NUMERICAL),
    (ConfigError, EXIT_CONFIG),
    (UnknownMaterialError, EXIT_UNKNOWN_MATERIAL),
)


def exit_code(cls):
    return next((code for family, code in FAMILIES if issubclass(cls, family)), None)


def test_every_error_class_has_an_exit_code():
    without = [cls.__name__ for cls in PACKAGE_ERRORS if exit_code(cls) is None]
    assert without == []
    # every family is found, so the collection reaches the modules that define them
    assert {exit_code(cls) for cls in PACKAGE_ERRORS} == {code for _, code in FAMILIES}


@pytest.mark.parametrize("cls", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_main_exits_with_the_code_of_the_raised_class(monkeypatch, tmp_path, cls):
    def raise_it(*args, **kwargs):
        raise cls("raised by the test")

    monkeypatch.setattr(analysis, "total_count", raise_it)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(CONFIGS["total"]))
    artifact = tmp_path / "total.csv"
    code, out, err = run(["total", "--config", str(config), "--out", str(artifact)])
    assert code == exit_code(cls)
    assert (out, err) == ("", "error: raised by the test\n")
    assert not artifact.exists()
