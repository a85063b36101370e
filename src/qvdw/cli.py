"""Command-line front end: scenario configs, parameter sweeps, CSV/JSON output.

Models: vdw (coupled-oscillator dispersion shifts), entangle (logarithmic
negativity, Gaussian vs Fock oracle), dispersive (qubit + single mode),
refractive (index modulation), full (qubit + field + dipole modes).

All values are in reduced units (hbar = 1); no SI conversion is applied.
Output is deterministic: floats are printed with 17 significant digits, CSV
uses comma separators and LF line endings, rows follow sweep order.

Exit codes: 0 success, 2 usage/config error (including non-finite numbers
and fractional integer parameters), 3 model error (degeneracy, instability,
identification, arithmetic overflow or division by zero, a non-finite
result, ...), 4 I/O error.
"""

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, entanglement, full_model, vdw
from .errors import FitError, ModelError

UNITS_NOTE = "reduced units (hbar = 1); no SI conversion applied"


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _is_finite(value) -> bool:
    """False when ``value`` is, or holds at any depth, a NaN, an infinity or
    an integer too large for a float; non-numbers count as finite."""
    if isinstance(value, dict):
        return all(_is_finite(v) for v in value.values())
    if isinstance(value, (list, tuple, np.ndarray)):
        return all(_is_finite(v) for v in value)
    if isinstance(value, numbers.Real):
        try:
            return math.isfinite(value)
        except OverflowError:
            return False
    return True


def _whole(p, key) -> int:
    """``p[key]`` as an int; booleans, fractions and non-numbers are refused."""
    value = p[key]
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"{key!r} must be a whole number, got {value!r}")
    return int(value)


def _object(doc, key) -> dict:
    """``doc[key]`` as a dict, {} when absent; any other JSON value is refused."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"config key {key!r} must be a JSON object, got {value!r}")
    return value


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: evaluate `points` values from start to stop."""

    parameter: str
    start: float
    stop: float
    points: int
    log: bool = False

    def values(self) -> np.ndarray:
        if self.points < 2:
            raise ValueError(f"sweep 'points' must be >= 2, got {self.points}")
        if not _is_finite((self.start, self.stop)):
            raise ValueError(f"sweep of {self.parameter!r} needs a finite start and stop, "
                             f"got {self.start}:{self.stop}")
        if self.log:
            if self.start <= 0 or self.stop <= 0:
                raise ValueError("log-spaced sweep requires positive start and stop")
            return np.exp(np.linspace(np.log(self.start), np.log(self.stop), self.points))
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one invocation computes: model, parameters, sweep, output.

    ``si_scale_factors`` is echoed verbatim into the output metadata; no
    unit conversion is ever applied to values.
    """

    model: str
    parameters: dict
    sweep: SweepSpec | None = None
    out_format: str = "csv"
    out_path: str | None = None
    si_scale_factors: dict | None = None


@dataclass
class ResultTable:
    """Named equal-length numeric columns plus a metadata block."""

    columns: dict
    metadata: dict

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have unequal lengths: {lengths}")

    def to_csv(self) -> str:
        names = list(self.columns)
        lines = [",".join(names)]
        for row in zip(*self.columns.values()):
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"metadata": self.metadata,
                   "columns": {k: list(v) for k, v in self.columns.items()}}
        return _json_dumps(payload) + "\n"


def _json_dumps(obj, indent: int = 0) -> str:
    """JSON with the same fixed float formatting as the CSV output."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{inner}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}"
                 for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_dumps(v, indent) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def fit_power_law(xs, ys):
    """Least-squares fit of ln|y| against ln x.

    Returns (slope, intercept, max_residual).  Raises FitError when the
    fit is ill-posed: fewer than two points, nonpositive xs, zero ys or
    all-equal xs.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size:
        raise FitError("xs and ys must have the same length")
    if xs.size < 2:
        raise FitError("power-law fit needs at least 2 points")
    if np.any(xs <= 0):
        raise FitError("power-law fit needs positive abscissas")
    if np.any(ys == 0):
        raise FitError("power-law fit needs nonzero values")
    if np.all(xs == xs[0]):
        raise FitError("power-law fit needs distinct abscissas (all xs equal)")
    lx, ly = np.log(xs), np.log(np.abs(ys))
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return float(slope), float(intercept), residual


# --- model evaluators ------------------------------------------------------

def _eval_vdw(p):
    cfg = vdw.VdwConfig(mass=p["mass"], freq=p["freq"], charge=p["charge"],
                        coulomb_k=p["coulomb_k"], separation=p["separation"])
    return {
        "lambda": vdw.dipole_coupling_lambda(cfg),
        "exact_shift": vdw.exact_ground_shift(cfg),
        "pert_shift": vdw.perturbative_ground_shift(cfg),
    }


def _eval_entangle(p):
    cfg = vdw.config_for_coupling(p["coupling"])
    gaussian = entanglement.log_negativity_gaussian(
        entanglement.ground_state_covariance(cfg))
    oracle = entanglement.negativity_fock_oracle(cfg, _whole(p, "n_max"))
    return {"E_N_gaussian": gaussian, "E_N_fock": oracle.value,
            "converged": 1.0 if oracle.converged else 0.0}


def _eval_dispersive(p):
    shift = full_model.dispersive_single_mode(
        p["qubit_freq"], p["mode_freq"], p["coupling"], n_max=_whole(p, "n_max"))
    return {"shift": shift}


def _eval_refractive(p):
    modulated = full_model.refractive_modulation(p["freq"], p["index"])
    return {"modulated_freq": modulated, "shift": modulated - p["freq"]}


def _eval_full(p):
    cfg = full_model.FullModelConfig(
        qubit_freq=p["qubit_freq"],
        field_freqs=p["field_freqs"],
        dipole_freqs=p["dipole_freqs"],
        qubit_field_couplings=p["qubit_field_couplings"],
        dipole_field_couplings=p["dipole_field_couplings"],
        n_max=_whole(p, "n_max"),
        dim_limit=_whole(p, "dim_limit"),
    )
    report = full_model.dressed_transition(cfg)
    return {
        "bare_transition": report.bare_transition,
        "dressed_transition": report.dressed_transition,
        "shift": report.shift,
        "overlap_ground": report.overlap_ground,
        "overlap_excited": report.overlap_excited,
        "converged": 1.0 if report.converged else 0.0,
    }


def _finalize_vdw(table: ResultTable, scenario: ScenarioConfig):
    sweep = scenario.sweep
    if sweep is not None and sweep.parameter == "separation":
        fit = {}
        for column, label in (("pert_shift", "pert"), ("exact_shift", "exact")):
            slope, intercept, residual = fit_power_law(
                table.columns["separation"], table.columns[column])
            fit[f"{label}_slope"] = slope
            fit[f"{label}_intercept"] = intercept
            fit[f"{label}_max_residual"] = residual
        table.metadata["fit"] = fit


def _finalize_entangle(table: ResultTable, scenario: ScenarioConfig):
    diff = np.abs(np.asarray(table.columns["E_N_gaussian"])
                  - np.asarray(table.columns["E_N_fock"]))
    table.metadata["max_abs_diff"] = float(np.max(diff))


@dataclass(frozen=True)
class ModelSpec:
    defaults: dict
    evaluate: callable
    sweepable: frozenset
    finalize: callable = None


MODELS = {
    "vdw": ModelSpec(
        defaults={"mass": 1.0, "freq": 1.0, "charge": 1.0, "coulomb_k": 1.0,
                  "separation": 1.0},
        evaluate=_eval_vdw,
        sweepable=frozenset({"mass", "freq", "charge", "coulomb_k", "separation"}),
        finalize=_finalize_vdw,
    ),
    "entangle": ModelSpec(
        defaults={"coupling": 0.1, "n_max": 24},
        evaluate=_eval_entangle,
        sweepable=frozenset({"coupling"}),
        finalize=_finalize_entangle,
    ),
    "dispersive": ModelSpec(
        defaults={"qubit_freq": 1.0, "mode_freq": 5.0, "coupling": 0.01, "n_max": 30},
        evaluate=_eval_dispersive,
        sweepable=frozenset({"qubit_freq", "mode_freq", "coupling"}),
    ),
    "refractive": ModelSpec(
        defaults={"freq": 1.0, "index": 1.0},
        evaluate=_eval_refractive,
        sweepable=frozenset({"freq", "index"}),
    ),
    "full": ModelSpec(
        defaults={"qubit_freq": 1.0, "field_freqs": [], "dipole_freqs": [],
                  "qubit_field_couplings": [], "dipole_field_couplings": [],
                  "n_max": 8, "dim_limit": full_model.DEFAULT_DIM_LIMIT},
        evaluate=_eval_full,
        sweepable=frozenset({"qubit_freq"}),
    ),
}


def run_scenario(scenario: ScenarioConfig) -> ResultTable:
    """Evaluate a scenario and assemble the result table.

    Sweep points are independent evaluations; rows are emitted in sweep
    order.  Raises ValueError for config problems (naming the offending
    key), including non-finite parameter values, and lets ModelError
    propagate for physics-level failures; a result column holding a NaN or
    an infinity is one too.
    """
    if scenario.model not in MODELS:
        raise ValueError(f"unknown model {scenario.model!r}; "
                         f"choose from {sorted(MODELS)}")
    spec = MODELS[scenario.model]
    params = dict(spec.defaults)
    for key, value in scenario.parameters.items():
        if key not in spec.defaults:
            raise ValueError(f"unknown parameter {key!r} for model {scenario.model!r}")
        if not _is_finite(value):
            raise ValueError(f"parameter {key!r} must be finite, got {value!r}")
        params[key] = value

    metadata = {
        "model": scenario.model,
        "parameters": params,
        "sweep": None,
        "version": __version__,
        "units": UNITS_NOTE,
    }
    if scenario.si_scale_factors is not None:
        metadata["si_scale_factors"] = scenario.si_scale_factors

    if scenario.sweep is None:
        rows = [spec.evaluate(params)]
        columns = {name: [row[name] for row in rows] for name in rows[0]}
    else:
        sweep = scenario.sweep
        if sweep.parameter not in spec.sweepable:
            raise ValueError(
                f"sweep parameter {sweep.parameter!r} is not a sweepable "
                f"real-valued field of model {scenario.model!r}; "
                f"choose from {sorted(spec.sweepable)}"
            )
        values = sweep.values()
        metadata["sweep"] = {"parameter": sweep.parameter, "start": sweep.start,
                             "stop": sweep.stop, "points": sweep.points,
                             "log": sweep.log}
        rows = []
        for value in values:
            point = dict(params)
            point[sweep.parameter] = float(value)
            rows.append(spec.evaluate(point))
        columns = {sweep.parameter: [float(v) for v in values]}
        columns.update({name: [row[name] for row in rows] for name in rows[0]})
    for name, column in columns.items():
        if not _is_finite(column):
            raise ModelError(f"column {name!r} holds a non-finite value; "
                             f"the parameters leave the model's numeric range")

    table = ResultTable(columns=columns, metadata=metadata)
    if spec.finalize is not None:
        spec.finalize(table, scenario)
    return table


# --- argument and config parsing -------------------------------------------

def _parse_set(raw: str):
    if "=" not in raw:
        raise ValueError(f"--set expects key=value, got {raw!r}")
    key, text = raw.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    return key, value


def _parse_sweep(raw: str) -> SweepSpec:
    if "=" not in raw:
        raise ValueError(f"--sweep expects key=start:stop:points[:log], got {raw!r}")
    key, text = raw.split("=", 1)
    parts = text.split(":")
    log = False
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError(f"sweep spacing must be 'log', got {parts[3]!r}")
        log = True
        parts = parts[:3]
    if len(parts) != 3:
        raise ValueError(f"--sweep expects key=start:stop:points[:log], got {raw!r}")
    return SweepSpec(parameter=key, start=float(parts[0]), stop=float(parts[1]),
                     points=int(parts[2]), log=log)


def build_scenario(args) -> ScenarioConfig:
    """Merge config file and command-line flags; flags win on conflict."""
    parameters = {}
    sweep = None
    out_format, out_path = "csv", None
    si_scale_factors = None

    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config file must contain a JSON object")
        unknown = set(doc) - {"model", "parameters", "sweep", "output",
                              "si_scale_factors"}
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        parameters.update(_object(doc, "parameters"))
        if doc.get("sweep") is not None:
            s = _object(doc, "sweep")
            sweep = SweepSpec(parameter=s["parameter"], start=float(s["start"]),
                              stop=float(s["stop"]), points=_whole(s, "points"),
                              log=bool(s.get("log", False)))
        out = _object(doc, "output")
        out_format = out.get("format", out_format)
        out_path = out.get("path", out_path)
        si_scale_factors = doc.get("si_scale_factors", None)
        if not _is_finite(si_scale_factors):
            raise ValueError("si_scale_factors must not hold NaN or infinite numbers")

    for raw in args.set or []:
        key, value = _parse_set(raw)
        parameters[key] = value
    if args.sweep is not None:
        sweep = _parse_sweep(args.sweep)
    if args.format is not None:
        out_format = args.format
    if args.out is not None:
        out_path = args.out

    if out_format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {out_format!r}")
    return ScenarioConfig(model=args.model, parameters=parameters, sweep=sweep,
                          out_format=out_format, out_path=out_path,
                          si_scale_factors=si_scale_factors)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvdw",
        description="Coupled qubit-oscillator spectra, dispersion shifts and "
                    "entanglement measures (reduced units, hbar = 1).",
    )
    parser.add_argument("model", help=f"one of {sorted(MODELS)}")
    parser.add_argument("--config", help="JSON scenario file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a parameter (value parsed as JSON)")
    parser.add_argument("--sweep", metavar="KEY=START:STOP:POINTS[:log]",
                        help="sweep one parameter")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")
    parser.add_argument("--out", help="output path (default standard output)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)

    try:
        scenario = build_scenario(args)
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"qvdw: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qvdw: i/o error: {exc}", file=sys.stderr)
        return 4

    try:
        table = run_scenario(scenario)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"qvdw: config error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, ArithmeticError) as exc:
        print(f"qvdw: model error: {exc}", file=sys.stderr)
        return 3

    text = table.to_csv() if scenario.out_format == "csv" else table.to_json()
    try:
        if scenario.out_path is None:
            sys.stdout.write(text)
        else:
            with open(scenario.out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"qvdw: i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
