import json

import numpy as np
import pytest

from qvdw import FitError
from qvdw.cli import (
    ResultTable,
    ScenarioConfig,
    SweepSpec,
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

    def test_unsweepable_parameter(self):
        scenario = ScenarioConfig(
            model="entangle", parameters={},
            sweep=SweepSpec("n_max", 12.0, 24.0, 3))
        with pytest.raises(ValueError, match="n_max"):
            run_scenario(scenario)

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
        # separation**3 underflows to 0 and the coupling divides by it
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
        ["dispersive", "--set", "n_max=8.9"],
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

    def test_integral_values_keep_working(self, capsys):
        outputs = []
        for n_max in ("24", "24.0"):
            assert main(["dispersive", "--set", f"n_max={n_max}"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

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
