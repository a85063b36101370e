import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qvdw
from qvdw import FitError, UnstableConfigurationError, full_model
from qvdw.cli import (
    MAX_NESTING,
    MAX_SWEEP_POINTS,
    MODELS,
    ResultTable,
    ScenarioConfig,
    SweepSpec,
    _json_dumps,
    fit_power_law,
    main,
    run_scenario,
)


class TestFitPowerLaw:

    def test_exact_synthetic_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        slope, intercept, residual = fit_power_law(xs, xs**-6)
        assert slope == pytest.approx(-6.0, abs=1e-14)
        assert intercept == pytest.approx(0.0, abs=1e-13)
        assert residual <= 1e-13

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_power_law([1.0], [1.0])

    def test_nonpositive_abscissa(self):
        with pytest.raises(FitError):
            fit_power_law([1.0, -2.0], [1.0, 2.0])

    def test_zero_value(self):
        with pytest.raises(FitError):
            fit_power_law([1.0, 2.0], [1.0, 0.0])

    def test_degenerate_abscissas(self):
        with pytest.raises(FitError):
            fit_power_law([3.0, 3.0], [1.0, 2.0])

    def test_unequal_lengths(self):
        with pytest.raises(FitError, match="same length"):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_abscissas_too_close_on_a_log_scale(self):
        # distinct xs a few ulps apart: the fit is rank deficient, which is
        # an error and not a warning
        xs = [90.0, 90.00000000000001, 90.00000000000003]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="rank deficient"):
                fit_power_law(xs, [1.0, 2.0, 3.0])

    def test_near_degenerate_sweep_is_model_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["vdw", "--sweep", "separation=90:90.00000000000003:4",
                         "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("qvdw: model error: power-law fit is rank deficient")
        assert len(err.splitlines()) == 1
        assert caught == []


class TestRunScenario:

    def test_vdw_separation_sweep_with_fit(self):
        scenario = ScenarioConfig(
            model="vdw", parameters={},
            sweep=SweepSpec("separation", 5.0, 50.0, 10, log=True))
        table = run_scenario(scenario)
        assert list(table.columns) == ["separation", "lambda", "exact_shift",
                                       "pert_shift"]
        assert len(table.columns["separation"]) == 10
        fit = table.metadata["fit"]
        assert fit["pert_slope"] == pytest.approx(-6.0, abs=1e-12)
        assert -6.0001 <= fit["exact_slope"] <= -5.999

    def test_rows_follow_sweep_order(self):
        scenario = ScenarioConfig(
            model="vdw", parameters={},
            sweep=SweepSpec("separation", 5.0, 50.0, 4))
        table = run_scenario(scenario)
        seps = table.columns["separation"]
        assert seps == sorted(seps)
        # each row must match an independent single-point evaluation
        for r, shift in zip(seps, table.columns["exact_shift"]):
            single = run_scenario(ScenarioConfig("vdw", {"separation": r}))
            assert shift == single.columns["exact_shift"][0]

    def test_refractive_single_row(self):
        table = run_scenario(ScenarioConfig("refractive", {"index": 1.25}))
        assert table.columns["modulated_freq"] == [0.8]
        assert table.columns["shift"][0] == pytest.approx(-0.2, abs=1e-15)

    def test_entangle_sweep_oracle_agreement(self):
        scenario = ScenarioConfig(
            model="entangle", parameters={"n_max": 14},
            sweep=SweepSpec("coupling", 0.1, 0.3, 2))
        table = run_scenario(scenario)
        assert list(table.columns) == ["coupling", "E_N_gaussian", "E_N_fock",
                                      "converged"]
        assert table.metadata["max_abs_diff"] <= 1e-6

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="nonsense"):
            run_scenario(ScenarioConfig("nonsense", {}))

    def test_unknown_parameter_named(self):
        with pytest.raises(ValueError, match="radius"):
            run_scenario(ScenarioConfig("vdw", {"radius": 3.0}))

    @pytest.mark.parametrize("model, key", [
        ("entangle", "n_max"), ("full", "n_max"),
        ("full", "dim_limit"), ("full", "field_freqs"), ("full", "dipole_freqs"),
        ("full", "qubit_field_couplings"), ("full", "dipole_field_couplings"),
    ])
    def test_unsweepable_parameter(self, model, key):
        scenario = ScenarioConfig(
            model=model, parameters={},
            sweep=SweepSpec(key, 12.0, 24.0, 3))
        with pytest.raises(ValueError, match=f"sweep parameter {key!r} is not a sweepable"):
            run_scenario(scenario)

    @pytest.mark.parametrize("model, sweepable", [
        ("vdw", {"mass", "freq", "charge", "coulomb_k", "separation"}),
        ("entangle", {"coupling"}),
        ("dispersive", {"qubit_freq", "mode_freq", "coupling"}),
        ("refractive", {"freq", "index"}),
        ("full", {"qubit_freq"}),
    ])
    def test_sweepable_parameters_are_the_float_defaults(self, model, sweepable):
        defaults = MODELS[model].defaults
        assert MODELS[model].sweepable == sweepable == {
            key for key, value in defaults.items() if isinstance(value, float)}

    def test_too_few_sweep_points(self):
        scenario = ScenarioConfig(
            model="vdw", parameters={},
            sweep=SweepSpec("separation", 5.0, 50.0, 1))
        with pytest.raises(ValueError):
            run_scenario(scenario)

    def test_metadata_echo(self):
        table = run_scenario(ScenarioConfig("refractive", {"index": 2.0}))
        assert table.metadata["model"] == "refractive"
        assert table.metadata["parameters"]["index"] == 2.0
        assert "reduced units" in table.metadata["units"]
        assert table.metadata["version"]


class TestResultTable:

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            ResultTable(columns={"a": [1.0, 2.0], "b": [1.0]}, metadata={})

    def test_csv_dialect(self):
        table = ResultTable(columns={"a": [1.0, 0.5], "b": [2.0, 0.25]}, metadata={})
        text = table.to_csv()
        assert text == "a,b\n1,2\n0.5,0.25\n"
        assert "\r" not in text

    def test_csv_17_digit_roundtrip(self):
        value = 1.0 / 3.0
        table = ResultTable(columns={"a": [value]}, metadata={})
        printed = table.to_csv().splitlines()[1]
        assert float(printed) == value

    def test_json_schema(self):
        table = ResultTable(columns={"a": [0.1]}, metadata={"model": "x", "n": 3})
        doc = json.loads(table.to_json())
        assert set(doc) == {"metadata", "columns"}
        assert doc["columns"]["a"] == [0.1]
        assert doc["metadata"]["n"] == 3

    def test_json_refuses_unsupported_types(self):
        with pytest.raises(TypeError, match="complex"):
            _json_dumps({"a": [1j]})


class TestMainExitCodes:

    def test_success_stdout(self, capsys):
        code = main(["refractive", "--set", "index=1.25"])
        out, err = capsys.readouterr()
        assert code == 0
        assert out.splitlines()[0] == "modulated_freq,shift"
        assert "0.8" in out
        assert err == ""

    def test_unknown_model_is_usage_error(self, capsys):
        code = main(["warp", "--set", "x=1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "warp" in err

    def test_unknown_parameter_is_usage_error(self, capsys):
        code = main(["vdw", "--set", "radius=3"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "radius" in err

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["vdw", "--format", "xml"]) == 2
        capsys.readouterr()

    def test_model_error_exit_code(self, capsys):
        # lambda = -2 makes a normal mode imaginary
        code = main(["vdw", "--set", "separation=1.0"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert "model error" in err

    @pytest.mark.parametrize("f, status", [(0.49, 0), (0.5, 3), (0.6, 3), (1.0, 3), (3.0, 3)])
    def test_unstable_full_coupling_exit_code(self, f, status, capsys):
        # field and dipole at 1.0 have a ground state only for 4 f^2 < 1
        code = main(["full", "--set", "field_freqs=[1.0]", "--set", "dipole_freqs=[1.0]",
                     "--set", "qubit_field_couplings=[0.05]",
                     "--set", f"dipole_field_couplings=[[{f}]]",
                     "--set", "qubit_freq=3.0", "--set", "n_max=4"])
        out, err = capsys.readouterr()
        assert code == status
        if status:
            assert out == ""
            assert err.startswith("qvdw: model error: dipole_field_couplings too strong")
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("sweep, named", [([], ""),
                                              (["--sweep", "qubit_freq=0.5:1.5:3"],
                                               "qubit_freq=0.5: ")])
    def test_unidentifiable_dressed_state_exit_code(self, sweep, named, capsys):
        # g = 2 on a field mode at 1.0: no eigenvector overlaps the bare
        # ground state by 1/2, so no dressed state can be named
        code = main(["full", "--set", "field_freqs=[1.0]", "--set", "qubit_field_couplings=[2.0]",
                     "--set", "n_max=12", *sweep])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith(f"qvdw: model error: {named}largest overlap")
        assert len(err.splitlines()) == 1

    def test_near_resonance_exit_code(self, capsys):
        code = main(["dispersive", "--set", "mode_freq=1.0"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "resonance" in err.lower() or "model error" in err

    def test_io_error_exit_code(self, capsys):
        code = main(["refractive", "--out", "/nonexistent-dir/out.csv"])
        _, err = capsys.readouterr()
        assert code == 4
        assert "i/o error" in err

    def test_missing_config_file(self, capsys):
        code = main(["vdw", "--config", "/nonexistent-dir/cfg.json"])
        capsys.readouterr()
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ["vdw", "--set", "separation"],
        ["vdw", "--sweep", "separation"],
        ["vdw", "--sweep", "separation=1:2"],
        ["vdw", "--sweep", "separation=1:2:3:lin"],
        ["vdw", "--sweep", "separation=-1:2:3:log"],
        ["full", "--set", "qubit_freq=0"],
        ["full", "--set", "qubit_freq=-1"],
    ])
    def test_malformed_flag_is_config_error(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("qvdw: config error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("doc, text", [
        ("[1, 2]", "must contain a JSON object"),
        ('{"modle": "vdw"}', "'modle'"),
    ])
    def test_malformed_config_file_is_config_error(self, doc, text, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(doc)
        code = main(["vdw", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("qvdw: config error:") and text in err
        assert len(err.splitlines()) == 1


class TestMainBehavior:

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "model": "refractive",
            "parameters": {"freq": 1.0, "index": 2.0},
            "output": {"format": "json"},
        }))
        code = main(["refractive", "--config", str(cfg), "--set", "index=1.25"])
        out, _ = capsys.readouterr()
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"]["modulated_freq"] == [0.8]  # override won

    def test_command_line_model_wins_over_file(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"model": "vdw"}))
        code = main(["refractive", "--config", str(cfg)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out.splitlines()[0] == "modulated_freq,shift"

    def test_si_scale_factors_echoed(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "model": "refractive",
            "si_scale_factors": {"freq": "2*pi*5 GHz"},
            "output": {"format": "json"},
        }))
        code = main(["refractive", "--config", str(cfg)])
        out, _ = capsys.readouterr()
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["si_scale_factors"] == {"freq": "2*pi*5 GHz"}
        # values untouched: still the reduced-unit numbers
        assert doc["columns"]["modulated_freq"] == [1.0]

    def test_sweep_flag(self, capsys):
        code = main(["vdw", "--sweep", "separation=5:50:4:log"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert len(out.strip().splitlines()) == 5  # header + 4 rows

    def test_malformed_sweep_flag(self, capsys):
        code = main(["vdw", "--sweep", "separation=5:50"])
        capsys.readouterr()
        assert code == 2

    def test_csv_determinism(self, tmp_path):
        args = ["vdw", "--sweep", "separation=5:50:10:log", "--format", "csv"]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(args + ["--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_determinism(self, tmp_path):
        args = ["entangle", "--set", "n_max=14", "--set", "coupling=0.2",
                "--format", "json"]
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(args + ["--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_full_model_run(self, capsys):
        code = main([
            "full",
            "--set", "field_freqs=[5.0]",
            "--set", "dipole_freqs=[3.0]",
            "--set", "qubit_field_couplings=[0.01]",
            "--set", "dipole_field_couplings=[[0.01]]",
            "--set", "n_max=6",
        ])
        out, _ = capsys.readouterr()
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert values["bare_transition"] == 1.0
        assert values["converged"] == 1.0
        assert abs(values["shift"]) < 1e-3

    def test_entangle_reports_unconverged_oracle(self, capsys):
        code = main(["entangle", "--set", "coupling=0.9", "--set", "n_max=12"])
        out, _ = capsys.readouterr()
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert values["converged"] == 0.0


class TestBoundaryRejections:

    def test_arithmetic_failure_is_model_error(self, capsys):
        # separation**3 underflows to 0, so the coupling it divides overflows
        code = main(["vdw", "--set", "separation=1e-200"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("qvdw: model error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999",
                                       "[1.0, NaN]"])
    def test_non_finite_set_value_is_config_error(self, value, capsys):
        code = main(["vdw", "--set", f"separation={value}", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "separation" in err

    def test_non_finite_config_file_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"parameters": {"field_freqs": [5.0, NaN]}}')
        code = main(["full", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "field_freqs" in err

    def test_non_finite_si_scale_factor_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"si_scale_factors": {"freq": NaN}, "output": {"format": "json"}}')
        code = main(["refractive", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "si_scale_factors" in err

    @pytest.mark.parametrize("spec", ["separation=nan:50:4", "separation=5:inf:4:log"])
    def test_non_finite_sweep_bound_is_config_error(self, spec, capsys):
        code = main(["vdw", "--sweep", spec])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "separation" in err

    def test_non_finite_config_file_sweep_bound_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"sweep": {"parameter": "separation", "start": 5, '
                       '"stop": -Infinity, "points": 4}}')
        code = main(["vdw", "--config", str(cfg)])
        _, err = capsys.readouterr()
        assert code == 2
        assert "separation" in err

    def test_infinite_config_file_sweep_points_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"sweep": {"parameter": "separation", "start": 5, '
                       '"stop": 50, "points": Infinity}}')
        code = main(["vdw", "--config", str(cfg)])
        out, _ = capsys.readouterr()
        assert code == 2
        assert out == ""

    def test_non_finite_result_column_is_model_error(self, capsys):
        # lambda = -1e200 stays stable against m w0^2 = 1e202, but lambda^2
        # overflows, so the second-order shift is -inf
        code = main(["vdw", "--set", "freq=1e101", "--set", "coulomb_k=5e199",
                     "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert "pert_shift" in err

    @pytest.mark.parametrize("argv", [
        ["full", "--set", "n_max=8.9"],
        ["entangle", "--set", "n_max=12.5"],
        ["entangle", "--set", "n_max=true"],
        ["entangle", "--set", 'n_max="24"'],
        ["full", "--set", "dim_limit=4096.5"],
    ])
    def test_non_whole_integer_parameter_is_config_error(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert argv[-1].split("=")[0] in err

    @pytest.mark.parametrize("model", ["entangle", "full"])
    def test_integral_values_keep_working(self, model, capsys):
        outputs = []
        for n_max, dim_limit in (("24", "4096"), ("24.0", "4096.0")):
            argv = [model, "--set", f"n_max={n_max}", "--format", "json"]
            if model == "full":
                argv += ["--set", f"dim_limit={dim_limit}", "--set", "field_freqs=[5.0]",
                         "--set", "qubit_field_couplings=[0.01]"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        # the metadata echoes the values as given, and %.17g prints 24.0 as 24
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["metadata"]["parameters"]["n_max"] == 24

    def test_float_typed_integer_is_echoed_as_given(self, capsys):
        assert main(["full", "--set", "dim_limit=1e20", "--format", "json"]) == 0
        out, _ = capsys.readouterr()
        assert '"dim_limit": 1e+20' in out

    @pytest.mark.parametrize("dim_limit", ["-5", "0", "1"])
    def test_dim_limit_below_the_bare_qubit_is_config_error(self, dim_limit, capsys):
        code = main(["full", "--set", f"dim_limit={dim_limit}"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("qvdw: config error: dim_limit must be >= 2")
        assert len(err.splitlines()) == 1

    def test_fock_space_above_the_limit_is_model_error(self, capsys):
        code = main(["entangle", "--set", "n_max=300"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("qvdw: model error:")
        assert "90000" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("doc, key", [
        ('{"output": []}', "output"),
        ('{"parameters": [["separation", 3.0]]}', "parameters"),
        ('{"parameters": 5}', "parameters"),
        ('{"sweep": [1]}', "sweep"),
    ])
    def test_non_object_config_file_section_is_config_error(self, doc, key, tmp_path,
                                                            capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(doc)
        code = main(["vdw", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert repr(key) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("points", ["2.9", "true", '"3"'])
    def test_non_whole_config_file_sweep_points_is_config_error(self, points, tmp_path,
                                                                capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"sweep": {"parameter": "separation", "start": 5, '
                       f'"stop": 50, "points": {points}}}}}')
        code = main(["vdw", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "'points'" in err

    def test_whole_config_file_sweep_points_keep_working(self, tmp_path, capsys):
        outputs = []
        for points in ("3", "3.0"):
            cfg = tmp_path / "scenario.json"
            cfg.write_text('{"sweep": {"parameter": "separation", "start": 5, '
                           f'"stop": 50, "points": {points}}}}}')
            assert main(["vdw", "--config", str(cfg)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 4


def _nested(depth):
    """Empty lists nested ``depth`` deep, as JSON text."""
    return "[" * depth + "]" * depth


class TestDeepNesting:
    """Documents nested deeper than the recursion limit are config errors,
    never a RecursionError traceback."""

    def _assert_config_error(self, code, capsys):
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("qvdw: config error:")
        assert len(err.splitlines()) == 1

    def test_config_file_too_deep_to_decode(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"parameters": {"freq": %s}}' % _nested(100_000))
        self._assert_config_error(main(["refractive", "--config", str(cfg)]), capsys)

    def test_set_value_too_deep_to_decode(self, capsys):
        self._assert_config_error(main(["refractive", "--set", f"freq={_nested(5000)}"]),
                                  capsys)

    def test_si_scale_factors_too_deep_to_check(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"si_scale_factors": %s}' % _nested(500))
        self._assert_config_error(main(["refractive", "--config", str(cfg)]), capsys)

    def test_si_scale_factors_too_deep_to_print(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"si_scale_factors": %s, "output": {"format": "json"}}'
                       % _nested(330))
        self._assert_config_error(main(["refractive", "--config", str(cfg)]), capsys)

    def test_si_scale_factors_at_the_nesting_bound_are_echoed(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        for depth, code in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2)):
            nested = {"length": json.loads(_nested(depth - 1))}
            cfg.write_text(json.dumps({"si_scale_factors": nested,
                                       "output": {"format": "json"}}))
            assert main(["refractive", "--config", str(cfg)]) == code
            out, _ = capsys.readouterr()
            if code == 0:
                assert json.loads(out)["metadata"]["si_scale_factors"] == nested


def _run_config(tmp_path, doc, *flags, model="vdw"):
    """``main`` on a config file holding the JSON document ``doc``."""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    return main([model, "--config", str(cfg), *flags])


class TestScenarioReader:

    SWEEP = {"parameter": "separation", "start": 5, "stop": 50, "points": 4}

    @pytest.mark.parametrize("section, key, value", [
        ("sweep", "log", "no"),
        ("sweep", "log", 1),
        ("sweep", "start", True),
        ("sweep", "stop", "50"),
        ("sweep", "parameter", ["separation"]),
        ("output", "path", ["a"]),
        ("output", "path", {"a": 1}),
    ])
    def test_mistyped_config_file_value_is_config_error(self, section, key, value,
                                                        tmp_path, capsys):
        # both models run cleanly without the mistyped value
        doc = {"sweep": dict(self.SWEEP)} if section == "sweep" else {"output": {}}
        doc[section][key] = value
        code = _run_config(tmp_path, doc, model="vdw" if section == "sweep" else "refractive")
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("qvdw: config error:")
        assert repr(key) in err
        assert len(err.splitlines()) == 1

    def test_integer_config_file_path_is_config_error(self, tmp_path):
        # in a separate process, so that a reader which took the number for a
        # file descriptor could not write to or close one of the test runner's
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"output": {"path": 7}}')
        src = os.path.dirname(os.path.dirname(qvdw.__file__))
        run = subprocess.run([sys.executable, "-m", "qvdw.cli", "refractive", "--config",
                              str(cfg)], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.startswith("qvdw: config error:")
        assert "'path'" in run.stderr
        assert len(run.stderr.splitlines()) == 1

    def test_config_file_sweep_prints_the_flag_sweep_bytes(self, tmp_path, capsys):
        assert main(["vdw", "--sweep", "separation=5:50:4:log", "--format", "json"]) == 0
        from_flags = capsys.readouterr().out
        doc = {"sweep": {**self.SWEEP, "log": True}, "output": {"format": "json"}}
        assert _run_config(tmp_path, doc) == 0
        assert capsys.readouterr().out == from_flags
        assert json.loads(from_flags)["metadata"]["sweep"]["log"] is True

    def test_config_file_path_gets_the_flag_bytes(self, tmp_path, capsys):
        assert main(["vdw", "--sweep", "separation=5:50:4"]) == 0
        from_flags = capsys.readouterr().out
        path = tmp_path / "out.csv"
        assert _run_config(tmp_path, {"sweep": self.SWEEP, "output": {"path": str(path)}}) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == from_flags

    def test_flags_win_over_every_config_file_section(self, tmp_path, capsys):
        doc = {"parameters": {"separation": 9.0, "mass": 2.0},
               "sweep": {**self.SWEEP, "log": "no"}, "output": {"format": 7}}
        assert _run_config(tmp_path, doc, "--set", "separation=5",
                           "--sweep", "mass=1:2:3", "--format", "csv") == 0
        out, _ = capsys.readouterr()
        assert out.splitlines()[0] == "mass,lambda,exact_shift,pert_shift"
        assert len(out.splitlines()) == 4

    def test_null_sections_count_as_absent(self, tmp_path, capsys):
        assert main(["refractive"]) == 0
        plain = capsys.readouterr().out
        doc = {"parameters": None, "sweep": None, "output": {"path": None}}
        assert _run_config(tmp_path, doc, model="refractive") == 0
        assert capsys.readouterr().out == plain


class TestSweepBounds:

    def test_points_bound_is_accepted(self):
        spec = SweepSpec("separation", 5.0, 50.0, MAX_SWEEP_POINTS)
        assert len(spec.values()) == MAX_SWEEP_POINTS

    @pytest.mark.parametrize("start,stop,points", [(5.0, 50.0, 4), (0.3, 7.0, 2),
                                                   (2.0, 2e-7, 9), (1.1, 1.1, 3)])
    def test_log_sweep_ends_on_its_bounds(self, start, stop, points):
        # exp(log 5) is 4.9999999999999991 and exp(log 50) 49.999999999999993
        values = SweepSpec("separation", start, stop, points, log=True).values()
        assert values[0] == start and values[-1] == stop
        inner = np.exp(np.linspace(np.log(start), np.log(stop), points))[1:-1]
        assert values[1:-1].tobytes() == inner.tobytes()

    def test_log_sweep_prints_its_bounds(self, capsys):
        assert main(["vdw", "--sweep", "separation=5:50:4:log"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].startswith("5,") and rows[-1].startswith("50,")

    def test_points_above_the_bound_from_a_flag(self, capsys):
        code = main(["vdw", "--sweep", f"separation=5:50:{MAX_SWEEP_POINTS + 1}"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "'points'" in err and str(MAX_SWEEP_POINTS) in err

    def test_points_above_the_bound_from_a_file(self, tmp_path, capsys):
        doc = {"sweep": {"parameter": "separation", "start": 5, "stop": 50,
                         "points": 10**12}}
        code = _run_config(tmp_path, doc)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "'points'" in err and str(MAX_SWEEP_POINTS) in err

    def test_model_error_names_the_failing_sweep_value(self, capsys):
        # lambda = -2 / R^3 first exceeds m w0^2 = 1 at R = 1.25
        code = main(["vdw", "--sweep", "separation=2:0.5:3"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("qvdw: model error: separation=1.25: ")
        assert len(err.splitlines()) == 1

    def test_sweep_point_error_keeps_its_class(self):
        scenario = ScenarioConfig("vdw", {}, SweepSpec("separation", 2.0, 0.5, 3))
        with pytest.raises(UnstableConfigurationError, match=r"^separation=1\.25: "):
            run_scenario(scenario)

    def test_out_of_memory_is_model_error(self, monkeypatch, capsys):
        def no_memory(cfg):
            raise MemoryError()
        monkeypatch.setattr(full_model, "_hint_bands", no_memory)
        code = main(["full", "--set", "field_freqs=[5.0]",
                     "--set", "qubit_field_couplings=[0.01]"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == "qvdw: model error: out of memory\n"


# floats that overflow inside a model, not in the parameters themselves
OVERFLOW_ARGV = {
    "full-h0": ["full", "--set", "field_freqs=[1e308]", "--set", "qubit_field_couplings=[0.1]"],
    "full-norm": ["full", "--set", "field_freqs=[1e300]", "--set", "dipole_freqs=[1e300]",
                  "--set", "qubit_field_couplings=[0.01]",
                  "--set", "dipole_field_couplings=[[1e299]]"],
    "dispersive": ["dispersive", "--set", "coupling=1e300"],
    # freq**2 in Python floats raises OverflowError, whose message is an errno tuple
    "vdw": ["vdw", "--set", "freq=1e200"],
    # separation**3 and freq**2 underflow to 0, so the quotients they divide overflow
    "vdw-separation-underflow": ["vdw", "--set", "separation=1e-200"],
    "vdw-freq-underflow": ["vdw", "--set", "freq=1e-200"],
    # freq**3 underflows to 0 where freq**2 does not, and the neutral pair's
    # lambda**2 is 0, so the second-order shift divides 0 by 0
    "vdw-freq-cube-underflow": ["vdw", "--set", "charge=1e-200", "--set", "freq=1e-110"],
}
# what each underflow case of OVERFLOW_ARGV writes after "qvdw: model error: "
UNDERFLOW_MESSAGES = {
    "vdw-separation-underflow": "overflow: separation**3 underflows to 0 at 1e-200",
    "vdw-freq-underflow": "overflow: mass * freq**2 underflows to 0 at freq 1e-200",
    "vdw-freq-cube-underflow": "overflow: 8 * mass**2 * freq**3 underflows to 0 at freq 1e-110",
}


class TestFloatingPointFailures:
    """An overflow or a failed linear-algebra routine inside a model is a model
    error: one stderr line, no warning and no output."""

    @pytest.mark.parametrize("argv", OVERFLOW_ARGV.values(), ids=OVERFLOW_ARGV.keys())
    def test_overflow_is_model_error(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("qvdw: model error: overflow")
        assert len(err.splitlines()) == 1
        assert caught == []

    def test_overflow_at_a_sweep_point_names_the_point(self, capsys):
        # g^2 overflows at the second point, g = 1e200
        code = main(["dispersive", "--sweep", "coupling=0:2e200:3"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        point, message = err.removeprefix("qvdw: model error: coupling=").split(": ", 1)
        assert float(point) == 1e200
        assert message.startswith("overflow")
        assert len(err.splitlines()) == 1

    def test_python_float_overflow_at_a_sweep_point_names_the_point(self, capsys):
        # freq**2 overflows a Python float from the second point, freq = 5e199
        code = main(["vdw", "--sweep", "freq=1e100:1e200:3"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        point, message = err.removeprefix("qvdw: model error: freq=").split(": ", 1)
        assert float(point) == 5e199
        assert message.startswith("overflow")
        assert len(err.splitlines()) == 1

    def test_underflow_at_a_sweep_point_names_the_point(self, capsys):
        # separation**3 underflows to 0 already at the first point, 1e-300
        code = main(["vdw", "--sweep", "separation=1e-300:1e-200:3"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        point, message = err.removeprefix("qvdw: model error: separation=").split(": ", 1)
        assert float(point) == 1e-300
        assert message.startswith("overflow")
        assert len(err.splitlines()) == 1

    def test_cube_underflow_at_a_sweep_point_names_the_point(self, capsys):
        # freq**3 underflows to 0 already at the first point, 1e-120
        code = main(["vdw", "--sweep", "freq=1e-120:1e-100:3", "--set", "charge=1e-200"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        point, message = err.removeprefix("qvdw: model error: freq=").split(": ", 1)
        assert float(point) == 1e-120
        assert message.startswith("overflow")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("sweep", [False, True])
    @pytest.mark.parametrize("case", UNDERFLOW_MESSAGES, ids=UNDERFLOW_MESSAGES.keys())
    def test_underflow_message_names_the_divisor_and_its_value(self, case, sweep, capsys):
        argv = OVERFLOW_ARGV[case]
        expected = UNDERFLOW_MESSAGES[case]
        name, value = argv[-1].split("=")
        if sweep:
            # a two-point sweep of the underflowing value fails at its first point
            argv = [*argv[:-2], "--sweep", f"{name}={value}:{value}:2"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        if sweep:
            point, message = err.removeprefix(f"qvdw: model error: {name}=").split(": ", 1)
            assert float(point) == float(value)
            assert message == f"{expected}\n"
        else:
            assert err == f"qvdw: model error: {expected}\n"

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "qubit_freq=1:2:2"]])
    def test_linear_algebra_failure_is_model_error(self, sweep, monkeypatch, capsys):
        def no_convergence(*args):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(full_model, "_hint_bands", no_convergence)
        code = main(["full", "--set", "field_freqs=[5.0]",
                     "--set", "qubit_field_couplings=[0.01]", *sweep])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        prefix = "qubit_freq=1: " if sweep else ""
        assert err == f"qvdw: model error: {prefix}SVD did not converge\n"


class TestParameterTypes:

    @pytest.mark.parametrize("model, settings, key", [
        ("full", ['field_freqs="55"', 'qubit_field_couplings="11"'], "field_freqs"),
        ("refractive", ["freq=true"], "freq"),
        ("full", ['dipole_field_couplings=["nan"]'], "dipole_field_couplings"),
        ("vdw", ['separation="2"'], "separation"),
        ("entangle", ["coupling=null"], "coupling"),
        ("dispersive", ["mode_freq=[5.0]"], "mode_freq"),
        ("full", ["field_freqs=[true]", "qubit_field_couplings=[0.01]"], "field_freqs"),
        ("full", ["dipole_freqs=3.0"], "dipole_freqs"),
        ("full", ["field_freqs=[5.0]", "dipole_freqs=[3.0]", "qubit_field_couplings=[0.01]",
                  "dipole_field_couplings=[0.01]"], "dipole_field_couplings"),
        ("vdw", ["separation=abc"], "separation"),
    ])
    def test_mistyped_parameter_is_config_error(self, model, settings, key, capsys):
        code = main([model, *(arg for setting in settings for arg in ("--set", setting))])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"qvdw: config error: parameter {key!r} must be ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("couplings", ["[[0.01, 0.02, 0.03, 0.04]]",
                                           "[[0.01], [0.02, 0.03, 0.04]]"])
    def test_mis_shaped_coupling_matrix_is_config_error(self, couplings, capsys):
        code = main(["full", "--set", "dipole_freqs=[3.0, 3.0]",
                     "--set", "field_freqs=[5.0, 6.0]",
                     "--set", "qubit_field_couplings=[0.01, 0.0]",
                     "--set", f"dipole_field_couplings={couplings}", "--set", "n_max=4"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("qvdw: config error: dipole_field_couplings must have "
                              "shape (2, 2)")
        assert len(err.splitlines()) == 1

    def test_mistyped_config_file_parameter_is_config_error(self, tmp_path, capsys):
        doc = {"parameters": {"field_freqs": "55", "qubit_field_couplings": "11"}}
        code = _run_config(tmp_path, doc, model="full")
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "'field_freqs'" in err

    def test_numbers_of_the_declared_shapes_keep_working(self, capsys):
        code = main(["full", "--set", "field_freqs=[5]", "--set", "dipole_freqs=[3.0]",
                     "--set", "qubit_field_couplings=[0.01]",
                     "--set", "dipole_field_couplings=[[0.01]]", "--set", "n_max=6"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("key", ["start", "stop", "points"])
    def test_integer_too_large_for_a_float_names_its_key(self, key, tmp_path, capsys):
        sweep = {"parameter": "separation", "start": 5, "stop": 50, "points": 4, key: 10**400}
        code = _run_config(tmp_path, {"sweep": sweep})
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"qvdw: config error: {key!r} is an integer too large for a float\n"

    @pytest.mark.parametrize("n_max", [str(10**12), "1e20"])
    def test_full_without_modes_runs_at_any_n_max(self, n_max, capsys):
        # the bare qubit has dimension 2 whatever n_max is: nothing n_max-sized
        # may be built for it, neither the H0 diagonal nor a coupling band
        code = main(["full", "--set", f"n_max={n_max}"])
        out, err = capsys.readouterr()
        assert code == 0
        assert out.splitlines()[1] == "1,1,0,1,1,1"
        assert err == ""


class TestDispersiveLevels:
    """dispersive reads Fock levels 0 and 1 only, so it has no n_max."""

    def test_defaults_equal_the_closed_form(self, capsys):
        assert main(["dispersive"]) == 0
        out, _ = capsys.readouterr()
        q, w, g = 1.0, 5.0, 0.01  # the model's defaults
        assert float(out.splitlines()[1]) == pytest.approx(
            g**2 * (1.0 / (q - w) + 1.0 / (q + w)), rel=1e-9)

    def test_n_max_is_config_error(self, capsys):
        code = main(["dispersive", "--set", "n_max=30"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("qvdw: config error:") and "n_max" in err


# one small scenario per model
DETERMINISM_ARGV = {
    "vdw": ["vdw", "--sweep", "separation=5:50:6:log", "--format", "json"],
    "entangle": ["entangle", "--sweep", "coupling=0.1:0.5:3", "--set", "n_max=16"],
    "dispersive": ["dispersive", "--sweep", "qubit_freq=0.5:3:4"],
    "refractive": ["refractive", "--sweep", "index=1:2:4"],
    "full": ["full", "--set", "field_freqs=[5.0]", "--set", "dipole_freqs=[3.0]",
             "--set", "qubit_field_couplings=[0.01]",
             "--set", "dipole_field_couplings=[[0.01]]", "--set", "n_max=10",
             "--sweep", "qubit_freq=1:4.6:4", "--format", "json"],
}


class TestDeterminism:

    @pytest.mark.parametrize("argv", DETERMINISM_ARGV.values(), ids=DETERMINISM_ARGV.keys())
    def test_identical_configs_print_identical_bytes(self, argv, capsys):
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        src = os.path.dirname(os.path.dirname(qvdw.__file__))
        fresh = subprocess.run([sys.executable, "-m", "qvdw.cli", *argv], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": src})
        assert fresh.returncode == 0
        assert outputs[0] != ""
        assert outputs[0] == outputs[1] == fresh.stdout
