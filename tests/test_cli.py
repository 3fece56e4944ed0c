"""Command-line interface tests (in-process, via main(argv))."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from vacuumpairs import analysis, cli, emission
from vacuumpairs.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNKNOWN_MATERIAL,
    _emission_config,
    _profile_from_dict,
    _profile_to_dict,
    config_to_dict,
    main,
)
from vacuumpairs.emission import EmissionConfig, GaussianProfile, TanhProfile, collinear_grid
from vacuumpairs.kinematics import PerturbationKinematics
from vacuumpairs.materials import get_material, model_to_dict

BASE_CONFIG = {
    "material": "fused_silica",
    "profile": {"shape": "gaussian", "eta": 0.001, "sigma_um": 1.0},
    "beta": 20.0,
    "L_m": 0.05,
}

# a total that runs in well under a second
SMALL_TOTAL = {"total_lambda_window_um": [0.15, 3.0], "base_resolution": [9, 5, 17, 9]}
GRID_WINDOWS = {"lambda1_window_um": [0.3, 0.4], "lambda2_window_um": [0.3, 0.4]}
FASTLIGHT_WINDOW = {
    "resonance": {"max_slope_at_um": 0.3348859342688826},
    "fastlight_window_um": [0.26, 0.47],
}
# a JSON integer beyond the float range: float() raises OverflowError on it
HUGE_INT = 10**400


def silica_config(beta=10.0):
    return EmissionConfig(
        material=get_material("fused_silica"),
        profile=GaussianProfile(eta=0.001, sigma=1.0),
        kin=PerturbationKinematics(beta=beta),
        length_m=0.05,
    )


def write_config(tmp_path, extra, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps({**BASE_CONFIG, **extra}))
    return str(path)


def data_lines(path):
    """The lines of a CSV artifact after its '# config:' line."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    return lines[1:]


class TestMaterial:
    def test_table(self, capsys):
        assert main(["material", "fused_silica", "--samples", "5"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "lambda_um,n,n_g,regime"
        assert len(out) == 7
        assert out[2].endswith(",normal")

    def test_invalid_rows_flagged(self, capsys):
        assert (
            main(["material", "fused_silica", "--window", "8,10", "--samples", "3"])
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert ",invalid" in out

    def test_overflowing_wavelengths_flagged(self, capsys):
        # beyond about 1.3e154 um lambda^2 overflows: those rows are invalid, without a warning
        argv = ["material", "fused_silica", "--window", "0.1,1e300", "--samples", "5"]
        assert main(argv) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert [row[3] for row in rows] == ["normal"] * 3 + ["invalid"] * 2

    def test_unknown_material(self, capsys):
        assert main(["material", "unobtainium"]) == EXIT_UNKNOWN_MATERIAL
        assert "unobtainium" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--window", "1,nan"],
            ["--window", "1,inf"],
            ["--window", "2,1"],
            ["--window", "0,1"],
            ["--window", "1"],
            ["--samples", "0"],
            ["--samples", "-2"],
        ],
        ids=["nan_max", "inf_max", "reversed", "zero_min", "one_value", "zero_samples",
             "negative_samples"],
    )
    def test_bad_window_or_samples(self, capsys, argv):
        assert_config_error(capsys, ["material", "fused_silica", *argv])


class TestSpectrum:
    def test_csv_embeds_config_and_reruns_identically(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "lambda1_window_um": [0.3, 0.4],
                "lambda2_window_um": [0.3, 0.4],
                "resolution": 31,
            },
        )
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["spectrum", "--config", config, "--out", out1]) == EXIT_OK
        assert main(["spectrum", "--config", config, "--out", out2]) == EXIT_OK
        b1 = open(out1, "rb").read()
        assert b1 == open(out2, "rb").read()
        header = b1.decode().splitlines()[0]
        assert header.startswith("# config: ")
        assert json.loads(header[len("# config: "):])["beta"] == 20.0

    def test_json_output(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "lambda1_window_um": [0.3, 0.4],
                "lambda2_window_um": [0.3, 0.4],
                "resolution": 21,
            },
        )
        out = str(tmp_path / "grid.json")
        assert main(["spectrum", "--config", config, "--out", out]) == EXIT_OK
        doc = json.loads(open(out).read())
        assert doc["config"]["beta"] == 20.0

    def test_csv_and_json_outputs(self, tmp_path):
        config = write_config(tmp_path, {**GRID_WINDOWS, "resolution": 21})
        csv_path = tmp_path / "grid.csv"
        json_path = tmp_path / "grid.json"
        for path in (csv_path, json_path):
            assert main(["spectrum", "--config", config, "--out", str(path)]) == EXIT_OK
        lines = data_lines(csv_path)
        assert lines[0] == "lambda1_um,lambda2_um,density,flag"
        assert len(lines) == 1 + 21 * 21
        doc = json.loads(json_path.read_text())
        assert doc["config"]["beta"] == 20.0
        assert np.array(doc["values"]).shape == (21, 21)

    def test_csv_roundtrips_floats_exactly(self, tmp_path):
        grid = collinear_grid(silica_config(beta=20.0), (0.3, 0.4), (0.3, 0.4), 11)
        path = tmp_path / "grid.csv"
        run = write_config(tmp_path, {**GRID_WINDOWS, "resolution": 11})
        assert main(["spectrum", "--config", run, "--out", str(path)]) == EXIT_OK
        rows = [line.split(",") for line in data_lines(path)[1:]]
        cell = rows[60]
        i, j = 60 // 11, 60 % 11
        assert float(cell[2]) == grid.values[i, j]

    def test_missing_windows_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {})
        out = str(tmp_path / "grid.csv")
        assert main(["spectrum", "--config", config, "--out", out]) == EXIT_CONFIG
        assert "lambda1_window_um" in capsys.readouterr().err


class TestMaxima:
    def test_sweep_rows_printed(self, tmp_path, capsys):
        config = write_config(tmp_path, {"betas": [10.0, 20.0]})
        assert main(["maxima", "--config", config]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[0].startswith("beta=10 ")
        assert "lambda1max=" in out[0]

    def test_failures_reported_on_stderr(self, tmp_path, capsys):
        config = write_config(tmp_path, {"betas": [0.5, 10.0]})
        assert main(["maxima", "--config", config]) == EXIT_OK
        captured = capsys.readouterr()
        assert "beta=0.5 no emission" in captured.err

    def test_all_subluminal_is_numerical_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {"betas": [0.5]})
        assert main(["maxima", "--config", config]) == EXIT_NUMERICAL

    def test_csv_out(self, tmp_path):
        config = write_config(tmp_path, {"betas": [20.0]})
        out = str(tmp_path / "sweep.csv")
        assert main(["maxima", "--config", config, "--out", out]) == EXIT_OK
        lines = open(out).read().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "beta,lambda1max_um,lambda2max_um,n_max"
        assert len(lines) == 3


    def test_serialization(self, tmp_path):
        config = write_config(tmp_path, {"beta": 10.0, "betas": [10.0, 20.0]})
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        for path in (csv_path, json_path):
            assert main(["maxima", "--config", config, "--out", str(path)]) == EXIT_OK
        lines = data_lines(csv_path)
        assert lines[0].startswith("beta,")
        assert len(lines) == 3
        doc = json.loads(json_path.read_text())
        assert len(doc["rows"]) == 2
        assert doc["config"]["beta"] == 10.0

    def test_rows_hold_the_maximum_alone(self, tmp_path):
        # the profile and material are the config snapshot's, not each row's
        config = write_config(tmp_path, {"betas": [10.0, 20.0]})
        out = tmp_path / "sweep.json"
        assert main(["maxima", "--config", config, "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert [set(row) for row in rows] == [{"beta", "lambda1_um", "lambda2_um", "density"}] * 2

    @pytest.mark.parametrize("betas", [[], "20", {"beta": 20.0}, [20.0, "x"]],
                             ids=["empty", "string", "object", "non_number"])
    def test_bad_betas_named(self, tmp_path, capsys, betas):
        config = write_config(tmp_path, {"betas": betas})
        assert "'betas'" in assert_config_error(capsys, ["maxima", "--config", config])


class TestTotal:
    def test_fast_settings(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "total_lambda_window_um": [0.15, 3.0],
                "base_resolution": [17, 9, 65, 33],
                "max_refinements": 0,
                "rel_tol": 1.0,
            },
        )
        out = str(tmp_path / "total.json")
        assert main(["total", "--config", config, "--out", out]) == EXIT_OK
        assert "pairs per pulse:" in capsys.readouterr().out
        doc = json.loads(open(out).read())
        assert doc["result"]["pairs_per_pulse"] > 0.0
        assert doc["config"]["L_m"] == 0.05

    def test_unrefined_error_not_estimated(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "total_lambda_window_um": [0.15, 3.0],
                "base_resolution": [17, 9, 65, 33],
                "max_refinements": 0,
            },
        )
        out = str(tmp_path / "total.json")
        assert main(["total", "--config", config, "--out", out]) == EXIT_OK
        assert "(quadrature error not estimated)" in capsys.readouterr().out
        assert json.loads(open(out).read())["result"]["rel_error"] is None

    def test_reports_metadata(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "total_lambda_window_um": [0.15, 3.0],
                "base_resolution": [17, 9, 65, 33],
                "max_refinements": 0,
            },
        )
        out = tmp_path / "total.json"
        assert main(["total", "--config", config, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())["result"]
        result = SimpleNamespace(**doc)
        assert result.pairs_per_pulse > 0.0
        assert result.cone_half_angle_rad == pytest.approx(math.radians(30.0))
        assert result.length_m == 0.05
        assert set(doc) >= {"pairs_per_pulse", "cone_half_angle_rad", "length_m"}

    @pytest.mark.parametrize("max_refinements", [0, 1])
    def test_csv_out(self, tmp_path, max_refinements):
        config = write_config(
            tmp_path, {**SMALL_TOTAL, "max_refinements": max_refinements, "rel_tol": 1.0}
        )
        csv_path, json_path = tmp_path / "total.csv", tmp_path / "total.json"
        for path in (csv_path, json_path):
            assert main(["total", "--config", config, "--out", str(path)]) == EXIT_OK
        result = json.loads(json_path.read_text())["result"]
        header, row = data_lines(csv_path)
        fields = dict(zip(header.split(","), row.split(",")))
        assert set(fields) == set(result)
        for key, value in result.items():
            # an error that was not estimated is an empty field, never 0 or None
            assert fields[key] == ("" if value is None else repr(value))
        assert (fields["rel_error"] == "") == (max_refinements == 0)

    def test_integral_float_resolution(self, tmp_path, capsys):
        # base_resolution items follow the integer rule of resolution and max_refinements
        totals = []
        for nodes in ([9, 5, 17, 9], [9.0, 5, 17.0, 9]):
            config = write_config(
                tmp_path, {**SMALL_TOTAL, "base_resolution": nodes, "max_refinements": 0.0}
            )
            out = tmp_path / "total.json"
            assert main(["total", "--config", config, "--out", str(out)]) == EXIT_OK
            totals.append(json.loads(out.read_text())["result"]["pairs_per_pulse"])
        assert totals[0] > 0.0 and totals[1] == totals[0]

    def test_subluminal_is_numerical_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "beta": 0.5,
                "total_lambda_window_um": [0.15, 3.0],
                "base_resolution": [17, 9, 65, 33],
                "max_refinements": 0,
                "rel_tol": 1.0,
            },
        )
        assert main(["total", "--config", config]) == EXIT_NUMERICAL

    # the default window's index passes 2 near the 0.116 um pole, yet the
    # density is 0 at every node: total and maxima both find no emission
    @pytest.mark.parametrize("command", ["total", "maxima"])
    def test_no_emission_is_numerical_error(self, tmp_path, capsys, command):
        config = write_config(tmp_path, {"beta": 0.5})
        out = tmp_path / "result.json"
        assert main([command, "--config", config, "--out", str(out)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: no ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            {"cone_half_angle_deg": math.nan},
            {"cone_half_angle_deg": -30.0},
            {"cone_half_angle_deg": 200.0},
            {"rel_tol": math.nan},
        ],
        ids=["nan_cone", "negative_cone", "cone_past_pi", "nan_rel_tol"],
    )
    def test_bad_cone_or_tolerance_is_config_error(self, tmp_path, capsys, extra):
        config = write_config(
            tmp_path,
            {"total_lambda_window_um": [0.15, 3.0], "base_resolution": [9, 5, 17, 9], **extra},
        )
        assert_config_error(capsys, ["total", "--config", config])

    def test_bad_cone_reported_in_degrees(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {**SMALL_TOTAL, "cone_half_angle_deg": -30.0, "max_refinements": 0}
        )
        assert main(["total", "--config", config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'cone_half_angle_deg'" in err and "-30.0" in err


class TestBadScalars:
    """Values of the wrong type or out of range end in one error line, not a traceback."""

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("total", {"base_resolution": 5}),
            ("total", {**SMALL_TOTAL, "rel_tol": [1]}),
            ("total", {**SMALL_TOTAL, "cone_half_angle_deg": [30]}),
            ("spectrum", {"resolution": [5], "lambda1_window_um": [0.3, 0.4],
                          "lambda2_window_um": [0.3, 0.4]}),
            ("fastlight", {"resonance": [1]}),
            ("fastlight", {"resonance": {"amplitude": [1]}}),
            ("total", {**SMALL_TOTAL, "base_resolution": [1, 1, 1, 1], "max_refinements": 0}),
            ("total", {**SMALL_TOTAL, "max_refinements": -1}),
            ("total", {**SMALL_TOTAL, "max_refinements": 0.5}),
            ("total", {**SMALL_TOTAL, "base_resolution": [9.5, 5, 17, 9], "max_refinements": 0}),
            # JSON booleans are not numbers: true is not read as 1
            ("maxima", {"beta": True}),
            ("maxima", {"betas": [True]}),
            ("total", {**SMALL_TOTAL, "max_refinements": True}),
            ("total", {**SMALL_TOTAL, "cone_half_angle_deg": True}),
            # nor are JSON strings: "20" is not read as 20
            ("maxima", {"beta": "20"}),
            ("maxima", {"betas": ["20"]}),
            # nor is an integer too large for a float
            ("maxima", {"beta": HUGE_INT}),
            ("maxima", {"L_m": HUGE_INT}),
            ("spectrum", {**GRID_WINDOWS, "resolution": HUGE_INT}),
            ("total", {**SMALL_TOTAL, "max_refinements": HUGE_INT}),
            ("total", {**SMALL_TOTAL, "cone_half_angle_deg": HUGE_INT}),
        ],
        ids=[
            "scalar_base_resolution", "list_rel_tol", "list_cone", "list_resolution",
            "list_resonance", "list_amplitude", "one_node_resolution",
            "negative_refinements", "fractional_refinements", "fractional_base_resolution",
            "bool_beta", "bool_betas", "bool_refinements", "bool_cone",
            "string_beta", "string_betas", "huge_int_beta", "huge_int_length",
            "huge_int_resolution", "huge_int_refinements", "huge_int_cone",
        ],
    )
    def test_config_error_without_traceback(self, tmp_path, capsys, command, extra):
        config = write_config(tmp_path, extra)
        out = str(tmp_path / "out.json")
        assert main([command, "--config", config, "--out", out]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("resolution", [0, -3, 1])
    @pytest.mark.parametrize(
        "command, extra",
        [("spectrum", GRID_WINDOWS), ("fastlight", FASTLIGHT_WINDOW)],
        ids=["spectrum", "fastlight"],
    )
    def test_grid_resolution_named(self, tmp_path, capsys, command, extra, resolution):
        config = write_config(tmp_path, {**extra, "resolution": resolution})
        out = str(tmp_path / "out.json")
        assert main([command, "--config", config, "--out", out]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "resolution" in lines[0]


class TestFastlight:
    def test_study_with_explicit_anchor(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "resonance": {"max_slope_at_um": 0.3348859342688826},
                "fastlight_window_um": [0.26, 0.47],
                "resolution": 81,
            },
        )
        out = str(tmp_path / "study.json")
        assert main(["fastlight", "--config", config, "--out", out]) == EXIT_OK
        assert "enhancement:" in capsys.readouterr().out
        doc = json.loads(open(out).read())
        assert doc["enhancement"] > 1.0
        assert doc["peak_count"] >= 1
        assert doc["resonance"]["amplitude"] == 0.06

    def test_zero_amplitude(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "resonance": {
                    "amplitude": 0.0,
                    "max_slope_at_um": 0.3348859342688826,
                },
                "fastlight_window_um": [0.26, 0.47],
                "resolution": 41,
            },
        )
        assert main(["fastlight", "--config", config]) == EXIT_OK
        assert "enhancement: 1," in capsys.readouterr().out


    def test_default_study_finds_the_maximum_once(self, tmp_path, monkeypatch):
        # the base maximum both places the line and sets the window
        calls = []
        find_maximum = analysis.find_maximum

        def counted(*args, **kwargs):
            calls.append(args)
            return find_maximum(*args, **kwargs)

        monkeypatch.setattr(analysis, "find_maximum", counted)
        config = write_config(tmp_path, {"resolution": 41})
        assert main(["fastlight", "--config", config]) == EXIT_OK
        assert len(calls) == 1

    def test_csv_out(self, tmp_path):
        config = write_config(tmp_path, {**FASTLIGHT_WINDOW, "resolution": 41})
        csv_path, json_path = tmp_path / "study.csv", tmp_path / "study.json"
        for path in (csv_path, json_path):
            assert main(["fastlight", "--config", config, "--out", str(path)]) == EXIT_OK
        doc = json.loads(json_path.read_text())
        header, row = data_lines(csv_path)
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields == {
            "enhancement": repr(doc["enhancement"]),
            "peak_count": repr(doc["peak_count"]),
            **{f"resonance_{k}": repr(v) for k, v in doc["resonance"].items()},
        }


class TestBadWindows:
    @pytest.mark.parametrize(
        "window",
        # a string or an object of two characters or keys is not a pair
        [[0.3, math.inf], [0.3, "inf"], [0.3, math.nan], [-0.3, 0.4], None,
         "34", {"3": 0, "4": 1}, [0.3, 0.4, 0.5], [True, 4], ["0.3", 5], [0.3, HUGE_INT]],
        ids=["inf", "inf_string", "nan", "negative", "null", "string", "object", "three_items",
             "bool_item", "string_item", "huge_int"],
    )
    @pytest.mark.parametrize(
        "command, extra, key",
        [
            ("spectrum", GRID_WINDOWS, "lambda1_window_um"),
            ("spectrum", GRID_WINDOWS, "lambda2_window_um"),
            ("maxima", {}, "lambda1_window_um"),
            ("total", SMALL_TOTAL, "total_lambda_window_um"),
            ("fastlight", FASTLIGHT_WINDOW, "fastlight_window_um"),
        ],
        ids=["spectrum_lambda1", "spectrum_lambda2", "maxima", "total", "fastlight"],
    )
    def test_config_error_names_key(self, tmp_path, capsys, command, extra, key, window):
        config = write_config(tmp_path, {**extra, key: window})
        out = str(tmp_path / "out.json")
        line = assert_config_error(capsys, [command, "--config", config, "--out", out])
        assert repr(key) in line


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["maxima", "--config", missing]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["maxima", "--config", str(path)]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"material": "fused_silica"}))
        assert main(["maxima", "--config", str(path)]) == EXIT_CONFIG
        assert "missing required key" in capsys.readouterr().err

    def test_unknown_material_in_config(self, tmp_path, capsys):
        config = write_config(tmp_path, {"material": "unobtainium"})
        assert main(["maxima", "--config", config]) == EXIT_UNKNOWN_MATERIAL

    @pytest.mark.parametrize(
        "argv",
        [
            ["maxima"],
            ["material", "fused_silica", "--samples", "abc"],
            # the flag is gone; the config file is never read
            ["--threads", "4", "maxima", "--config", "run.json"],
        ],
        ids=["maxima_without_config", "non_integer_samples", "threads_flag"],
    )
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        assert "usage: vacuumpairs" in capsys.readouterr().out


def assert_config_error(capsys, argv):
    """main(argv) exits 1 with one 'error:' line and no output; returns that line."""
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


TANH_PROFILE = {
    "shape": "tanh", "eta": 0.001, "sigma_x_um": 1.1, "sigma_y_um": 1.0, "sigma_z_um": 1.0,
}


def inline_silica(**resonance):
    return {
        **model_to_dict(get_material("fused_silica")),
        "resonances": [{"center": 0.34, "amplitude": 0.06, "width": 0.01, **resonance}],
    }


class TestNonFiniteSizes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "extra",
        [
            lambda x: {"L_m": x},
            lambda x: {"profile": {**BASE_CONFIG["profile"], "sigma_um": x}},
            lambda x: {"profile": {**BASE_CONFIG["profile"], "eta": x}},
            lambda x: {"profile": {**TANH_PROFILE, "eta": x}},
            lambda x: {"profile": {**TANH_PROFILE, "sigma_y_um": x}},
            lambda x: {"material": inline_silica(center=x)},
            lambda x: {"material": inline_silica(width=x)},
            lambda x: {"calibration": x},
            lambda x: {"material": {"sellmeier": [[x, 0.004679148]]}},
            lambda x: {"material": {"sellmeier": [[0.6961663, x]]}},
        ],
        ids=[
            "L_m", "sigma_um", "eta", "tanh_eta", "tanh_sigma_y", "center", "width",
            "calibration", "sellmeier_a", "sellmeier_l",
        ],
    )
    def test_rejected(self, tmp_path, capsys, extra, bad):
        config = write_config(tmp_path, extra(bad))
        assert_config_error(capsys, ["maxima", "--config", config])


    @pytest.mark.parametrize(
        "extra",
        [
            {"profile": {**BASE_CONFIG["profile"], "eta": 1e200}},
            {"profile": {**BASE_CONFIG["profile"], "sigma_um": 1e200}},
            {"profile": {**TANH_PROFILE, "eta": 1e200}},
            {"profile": {**TANH_PROFILE, "sigma_x_um": 1e-200, "sigma_y_um": 1e200}},
        ],
        ids=["eta", "sigma_um", "tanh_eta", "tanh_sigma_y"],
    )
    def test_overflowing_size_rejected(self, tmp_path, capsys, extra):
        # finite, but eta^2 or sigma^6 overflows a float
        config = write_config(tmp_path, extra)
        assert "bad profile" in assert_config_error(capsys, ["maxima", "--config", config])


class TestNonFiniteResult:
    # a numpy overflow warning would print more lines to stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["maxima", "total", "spectrum", "fastlight"])
    def test_overflowing_length_is_numerical_error(self, tmp_path, capsys, command):
        # L_m = 1e300 makes the density overflow: inf from maxima and
        # spectrum, nan from total and fastlight
        config = write_config(
            tmp_path, {"L_m": 1e300, **SMALL_TOTAL, **GRID_WINDOWS, **FASTLIGHT_WINDOW}
        )
        out = tmp_path / "result.json"
        assert main([command, "--config", config, "--out", str(out)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: non-finite")
        assert not out.exists()


class TestMemoryError:
    # a stand-in raises it: a real allocation that large could succeed or take the host down
    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 728. TiB", "error: Unable to allocate 728. TiB"),
            ("", "error: out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_refused_allocation_is_numerical_error(self, tmp_path, capsys, monkeypatch,
                                                   message, line):
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(emission, "collinear_grid", refuse)
        config = write_config(tmp_path, {**GRID_WINDOWS, "resolution": 10_000_000})
        out = tmp_path / "grid.csv"
        assert main(["spectrum", "--config", config, "--out", str(out)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]
        assert not out.exists()


# a small valid run of each emission subcommand; maxima's speed 0.5 has no
# emission, so a run that reaches its summary prints a note on stderr
SMALL_RUNS = {
    "spectrum": {**GRID_WINDOWS, "resolution": 5},
    "maxima": {"betas": [0.5, 20.0], "lambda1_window_um": [0.3, 0.4]},
    "total": {**SMALL_TOTAL, "max_refinements": 0},
    "fastlight": {**FASTLIGHT_WINDOW, "resolution": 21},
}


class TestWriteFailure:
    @pytest.mark.parametrize("command", list(SMALL_RUNS))
    @pytest.mark.parametrize("target", ["no_such_dir/out.csv", "."],
                             ids=["missing_dir", "directory"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, command, target):
        config = write_config(tmp_path, SMALL_RUNS[command])
        out = str(tmp_path / target)
        line = assert_config_error(capsys, [command, "--config", config, "--out", out])
        assert repr(out) in line

    @pytest.mark.parametrize("command", list(SMALL_RUNS))
    def test_artifact_written_before_summary(self, tmp_path, capsys, monkeypatch, command):
        written = []
        write = cli._write

        def spy(path, *args):
            # the summary is printed after the write, so none is captured yet
            written.append(capsys.readouterr())
            write(path, *args)

        monkeypatch.setattr(cli, "_write", spy)
        config = write_config(tmp_path, SMALL_RUNS[command])
        out = tmp_path / "out.json"
        assert main([command, "--config", config, "--out", str(out)]) == EXIT_OK
        assert [(c.out, c.err) for c in written] == [("", "")]
        assert capsys.readouterr().out and out.exists()


class TestVerbose:
    @pytest.mark.parametrize("command", list(SMALL_RUNS))
    def test_artifact_line_only_with_out(self, tmp_path, capsys, command):
        config = write_config(tmp_path, SMALL_RUNS[command])
        out = tmp_path / "out.json"
        assert main(["--verbose", command, "--config", config, "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert f"{command} artifact written to {out}\n" in captured.err
        assert "artifact written to" not in captured.out
        if command != "spectrum":  # spectrum requires --out
            assert main(["--verbose", command, "--config", config]) == EXIT_OK
            assert "artifact written to" not in capsys.readouterr().err


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "extra",
        [
            {"profile": {"shape": "gaussian", "sigma_um": 1.0}},
            {"profile": "gaussian"},
            {"material": {"sellmeier": [[0.6961663, 0.004679148]],
                          "resonances": [{"center": 0.34, "width": 0.01}]}},
            # a string term would unpack as the pair of its characters, [1.0, 2.0]
            {"material": {"sellmeier": [[0.6961663, 0.004679148], "12"]}},
            # JSON booleans are not numbers: true is not read as 1
            {"profile": {**BASE_CONFIG["profile"], "eta": True}},
            {"profile": {**TANH_PROFILE, "sigma_y_um": True}},
            {"material": {"constant_index": True}},
            {"material": {"sellmeier": [[True, 0.004679148]]}},
            {"material": {"sellmeier": [[0.6961663, True]]}},
            {"material": inline_silica(center=True)},
            {"material": inline_silica(amplitude=True)},
            {"material": inline_silica(width=True)},
            # nor are JSON strings: "0.001" is not read as 0.001
            {"profile": {**BASE_CONFIG["profile"], "eta": "0.001"}},
            {"material": {"sellmeier": [["0.6961663", 0.0046791]]}},
            {"material": {"sellmeier": [[HUGE_INT, 0.004679148]]}},
        ],
        ids=["profile_without_eta", "profile_as_string", "resonance_without_amplitude",
             "sellmeier_term_as_string", "bool_eta", "bool_tanh_sigma", "bool_constant_index",
             "bool_sellmeier_a", "bool_sellmeier_l", "bool_resonance_center",
             "bool_resonance_amplitude", "bool_resonance_width", "string_eta",
             "string_sellmeier_a", "huge_int_sellmeier_a"],
    )
    def test_config_error_without_traceback(self, tmp_path, capsys, extra):
        config = write_config(tmp_path, extra)
        assert_config_error(capsys, ["maxima", "--config", config])

    @pytest.mark.parametrize(
        "command, extra, key",
        [
            ("maxima", {"profile": {**BASE_CONFIG["profile"], "sigma_x_um": 2.0}}, "sigma_x_um"),
            ("maxima", {"profile": {**TANH_PROFILE, "sigma_um": 1.0}}, "sigma_um"),
            # a misspelt width; and a center, which max_slope_at_um alone places
            ("fastlight", {"resonance": {"amplitude": 0.06, "width": 0.5,
                                         "max_slope_at_um": 0.334886}},
             "width"),
            ("fastlight", {"resonance": {"center_um": 0.3}}, "center_um"),
            # an inline material takes only the keys of its schema
            ("maxima", {"material": {"constant_index": 1.5,
                                     "sellmeier": [[0.6961663, 0.004679148]]}},
             "sellmeier"),
            ("maxima", {"material": inline_silica(widht=0.5)}, "widht"),
            ("maxima", {"material": {**inline_silica(), "resonaces": []}}, "resonaces"),
        ],
        ids=["gaussian_sigma_x", "tanh_sigma", "resonance_width", "resonance_center",
             "constant_index_and_sellmeier", "material_resonance_width", "material_resonances"],
    )
    def test_unknown_or_conflicting_key_named(self, tmp_path, capsys, command, extra, key):
        config = write_config(tmp_path, {"fastlight_window_um": [0.26, 0.47], **extra})
        assert repr(key) in assert_config_error(capsys, [command, "--config", config])


class TestSerialization:
    def test_config_roundtrip(self):
        config = silica_config()
        doc = config_to_dict(config)
        again = _emission_config(json.loads(json.dumps(doc)))
        assert again == config

    def test_config_convention_mismatch_rejected(self):
        doc = config_to_dict(silica_config())
        with pytest.raises(ValueError, match="convention"):
            _emission_config({**doc, "convention": "per-domega"})

    def test_config_without_convention_accepted(self):
        doc = config_to_dict(silica_config())
        del doc["convention"]
        assert _emission_config(doc) == silica_config()

    def test_rewrite_byte_identical(self, tmp_path):
        doc = {
            **config_to_dict(silica_config(beta=20.0)),
            "lambda1_window_um": [0.3, 0.4],
            "lambda2_window_um": [0.3, 0.4],
            "resolution": 21,
        }
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (p1, p2):
            assert main(["spectrum", "--config", str(config), "--out", str(path)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_tanh_profile_roundtrip(self):
        profile = TanhProfile(eta=0.001, sigma_x=1.1, sigma_y=0.9, sigma_z=1.3)
        assert _profile_from_dict(_profile_to_dict(profile)) == profile
