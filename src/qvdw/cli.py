"""Command-line front end: scenario configs, parameter sweeps, CSV/JSON output.

Models: vdw (coupled-oscillator dispersion shifts), entangle (logarithmic
negativity, Gaussian vs Fock oracle), dispersive (qubit + single mode),
refractive (index modulation), full (qubit + field + dipole modes).

All values are in reduced units (hbar = 1); no SI conversion is applied.
Output is deterministic: floats are printed with 17 significant digits, CSV
uses comma separators and LF line endings, rows follow sweep order.  A
sweep of a parameter its model broadcasts over (ModelSpec.broadcasts) runs
in one array pass whose rows equal the one-point calls byte for byte; the
other sweeps, and one whose array pass fails, run row by row.

Exit codes: 0 success, 2 usage/config error (including non-finite numbers,
fractional integer parameters, config values of the wrong JSON type and
configs nested too deep), 3 model error (degeneracy, instability,
identification, arithmetic overflow or division by zero, a linear-algebra
failure, a non-finite result, running out of memory, ...), 4 I/O error.
"""

import argparse
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, entanglement, full_model, vdw
from .errors import FitError, ModelError

UNITS_NOTE = "reduced units (hbar = 1); no SI conversion applied"
MAX_SWEEP_POINTS = 100_000
MAX_NESTING = 32  # how deep si_scale_factors may nest: recursive code checks and prints it


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _is_finite(value) -> bool:
    """False when ``value`` is, or holds at any depth, a NaN, an infinity or
    an integer too large for a float; non-numbers count as finite."""
    if isinstance(value, dict):
        return all(_is_finite(v) for v in value.values())
    if isinstance(value, (list, tuple, np.ndarray)):
        # fast path for the common flat list of finite numbers; a True here
        # is what the element-wise check below would return too
        try:
            if all(map(math.isfinite, value)):
                return True
        except (TypeError, ValueError, OverflowError):
            pass
        return all(_is_finite(v) for v in value)
    if isinstance(value, numbers.Real):
        try:
            return math.isfinite(value)
        except OverflowError:
            return False
    return True


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(p, key) -> float:
    """``p[key]`` as a float; booleans, non-numbers and integers too large
    for a float are refused."""
    value = p[key]
    if not _is_number(value):
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key!r} is an integer too large for a float") from None


def _whole(p, key) -> int:
    """``p[key]`` as an int; booleans, fractions and non-numbers are refused."""
    if not _real(p, key).is_integer():
        raise ValueError(f"{key!r} must be a whole number, got {p[key]!r}")
    return int(p[key])


def _depth(value) -> int:
    """How deep lists and objects nest in ``value``, counted without recursion."""
    depth, level = 0, [value]
    while level := [x for x in level if isinstance(x, (list, dict))]:
        depth += 1
        level = [v for x in level for v in (x.values() if isinstance(x, dict) else x)]
    return depth


def _nested_numbers(value, depth: int) -> bool:
    """Whether ``value`` is a number (not a boolean) for depth 0, and a list
    of values nested ``depth - 1`` deep for a larger depth."""
    if depth == 0:
        return _is_number(value)
    return isinstance(value, (list, tuple)) and all(_nested_numbers(v, depth - 1)
                                                    for v in value)


def _object(doc, key) -> dict:
    """``doc[key]`` as a dict, {} when absent or null; other values are refused."""
    value = doc.get(key)
    if not isinstance(value, (dict, type(None))):
        raise ValueError(f"config key {key!r} must be a JSON object, got {value!r}")
    return value or {}


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: evaluate `points` values from start to stop."""

    parameter: str
    start: float
    stop: float
    points: int
    log: bool = False

    def values(self) -> np.ndarray:
        if not 2 <= self.points <= MAX_SWEEP_POINTS:
            raise ValueError(f"sweep 'points' must be between 2 and {MAX_SWEEP_POINTS}, "
                             f"got {self.points}")
        if not _is_finite((self.start, self.stop)):
            raise ValueError(f"sweep of {self.parameter!r} needs a finite start and stop, "
                             f"got {self.start}:{self.stop}")
        if self.log:
            if self.start <= 0 or self.stop <= 0:
                raise ValueError("log-spaced sweep requires positive start and stop")
            values = np.exp(np.linspace(np.log(self.start), np.log(self.stop), self.points))
            # exp(log x) need not round back to x: the ends are the bounds as given
            values[[0, -1]] = self.start, self.stop
            return values
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
        # one % operation per row: the same bytes as joining _fmt of each value
        row = ",".join(["%.17g"] * len(names))
        lines = [",".join(names)] + [row % values for values in zip(*self.columns.values())]
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
        # a flat list of floats (np.float64 included) in one % operation
        if all(isinstance(v, float) for v in obj):
            return "[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]"
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
    fit is ill-posed: fewer than two points, nonpositive xs, zero ys,
    all-equal xs, or ln x values too close for a line to be fitted
    (numerical rank of the least-squares problem below 2).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size:
        raise FitError("xs and ys must have the same length")
    if xs.size < 2:
        raise FitError("power-law fit needs at least 2 points")
    if (xs <= 0).any():
        raise FitError("power-law fit needs positive abscissas")
    if (ys == 0).any():
        raise FitError("power-law fit needs nonzero values")
    if (xs == xs[0]).all():
        raise FitError("power-law fit needs distinct abscissas (all xs equal)")
    lx, ly = np.log(xs), np.log(np.abs(ys))
    # full=True reports the rank instead of warning of a poor conditioning
    (slope, intercept), _, rank, _, _ = np.polyfit(lx, ly, 1, full=True)
    if rank < 2:
        raise FitError("power-law fit is rank deficient: the abscissas are too close "
                       "together on a log scale")
    residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return float(slope), float(intercept), residual


# --- model evaluators ------------------------------------------------------

def _eval_vdw(p):
    cfg = vdw.VdwConfig(**p)
    return {
        "lambda": vdw.dipole_coupling_lambda(cfg),
        "exact_shift": vdw.exact_ground_shift(cfg),
        "pert_shift": vdw.perturbative_ground_shift(cfg),
    }


def _eval_entangle(p):
    cfg = vdw.config_for_coupling(p["coupling"])
    gaussian = entanglement.log_negativity_gaussian(
        entanglement.ground_state_covariance(cfg))
    oracle = entanglement.negativity_fock_oracle(cfg, p["n_max"])
    return {"E_N_gaussian": gaussian, "E_N_fock": oracle.value,
            "converged": float(oracle.converged)}


def _eval_dispersive(p):
    shift = full_model.dispersive_single_mode(p["qubit_freq"], p["mode_freq"], p["coupling"])
    return {"shift": shift}


def _eval_refractive(p):
    modulated = full_model.refractive_modulation(p["freq"], p["index"])
    return {"modulated_freq": modulated, "shift": modulated - p["freq"]}


def _eval_full(p):
    report = full_model.dressed_transition(full_model.FullModelConfig(**p))
    return {**asdict(report), "converged": float(report.converged)}


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
    finalize: callable = None
    matrices: frozenset = frozenset()  # parameters that are lists of lists
    # sweep parameters that evaluate takes as one array of every row's value,
    # returning one array per column whose entries equal the rows' own values
    broadcasts: frozenset = frozenset()

    @property
    def sweepable(self) -> frozenset:
        """The parameters with a float default, the only ones a sweep's values fit."""
        return frozenset(k for k, v in self.defaults.items() if isinstance(v, float))


_SHAPES = ("a number", "a list of numbers", "a list of lists of numbers")


MODELS = {
    "vdw": ModelSpec(
        defaults={"mass": 1.0, "freq": 1.0, "charge": 1.0, "coulomb_k": 1.0,
                  "separation": 1.0},
        evaluate=_eval_vdw,
        finalize=_finalize_vdw,
        # no broadcasts: numpy's array power can differ from Python's ** in
        # the last bit, so an array pass would change the printed rows
    ),
    "entangle": ModelSpec(
        defaults={"coupling": 0.1, "n_max": 24},
        evaluate=_eval_entangle,
        finalize=_finalize_entangle,
    ),
    "dispersive": ModelSpec(
        defaults={"qubit_freq": 1.0, "mode_freq": 5.0, "coupling": 0.01},
        evaluate=_eval_dispersive,
        # the engine shares one H_int across rows, and H_int holds the coupling
        broadcasts=frozenset({"qubit_freq", "mode_freq"}),
    ),
    "refractive": ModelSpec(
        defaults={"freq": 1.0, "index": 1.0},
        evaluate=_eval_refractive,
        broadcasts=frozenset({"freq", "index"}),
    ),
    "full": ModelSpec(
        defaults={"qubit_freq": 1.0, "field_freqs": [], "dipole_freqs": [],
                  "qubit_field_couplings": [], "dipole_field_couplings": [],
                  "n_max": 8, "dim_limit": full_model.DEFAULT_DIM_LIMIT},
        evaluate=_eval_full,
        matrices=frozenset({"dipole_field_couplings"}),
    ),
}


def _evaluate(spec: ModelSpec, point: dict) -> dict:
    """spec.evaluate(point), with a Python float overflow, whose message is
    an errno tuple, raised again with a message that reads like numpy's."""
    try:
        return spec.evaluate(point)
    except OverflowError as exc:
        raise OverflowError("overflow encountered in float arithmetic") from exc


def _sweep_columns(spec: ModelSpec, point: dict, parameter: str, values: np.ndarray) -> dict:
    """The sweep's columns, the swept parameter first.

    A parameter in spec.broadcasts is evaluated in one array pass.  If that
    pass raises, the rows are evaluated one by one, so an error is the first
    failing row's own, with its value named first.
    """
    columns = {parameter: values.tolist()}
    if parameter in spec.broadcasts:
        try:
            batch = spec.evaluate({**point, parameter: values})
        except (ModelError, ArithmeticError, ValueError):
            pass  # the rows below raise the first failing row's own error
        else:
            return {**columns, **{name: column.tolist() for name, column in batch.items()}}
    rows = []
    for value in columns[parameter]:
        try:
            rows.append(_evaluate(spec, {**point, parameter: value}))
        except (ModelError, ArithmeticError, np.linalg.LinAlgError) as exc:
            raise type(exc)(f"{parameter}={_fmt(value)}: {exc}") from exc
    return {**columns, **{name: [row[name] for row in rows] for name in rows[0]}}


def run_scenario(scenario: ScenarioConfig) -> ResultTable:
    """Evaluate a scenario and assemble the result table.

    Sweep points are independent evaluations; rows are emitted in sweep
    order, and a parameter in the model's ``broadcasts`` is evaluated for
    every row in one array pass (see _sweep_columns).  Raises ValueError for config problems (naming the offending
    key), including non-finite parameter values and values not shaped like
    the default (a number, not a boolean or a string, where the default is
    a number, and a whole one where it is an int; a list of numbers where it
    is a list; a list of lists of numbers for the model's matrices), and lets
    ModelError propagate for physics-level failures; a result column holding
    a NaN or an infinity is one too, as are FloatingPointError (numpy float
    overflow, division by zero or NaN inside a model), OverflowError (a
    Python float overflow, its message starting "overflow" as numpy's do)
    and LinAlgError.
    """
    if scenario.model not in MODELS:
        raise ValueError(f"unknown model {scenario.model!r}; "
                         f"choose from {sorted(MODELS)}")
    spec = MODELS[scenario.model]
    params = dict(spec.defaults)
    for key, value in scenario.parameters.items():
        if key not in spec.defaults:
            raise ValueError(f"unknown parameter {key!r} for model {scenario.model!r}")
        depth = 2 if key in spec.matrices else 1 if isinstance(spec.defaults[key], list) else 0
        if not _nested_numbers(value, depth):
            raise ValueError(f"parameter {key!r} must be {_SHAPES[depth]}, got {value!r}")
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

    sweep = scenario.sweep
    if sweep is not None:
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
    # the models take an int where the default is one; the metadata keeps the
    # value as it was given
    point = {**params, **{key: _whole(params, key) for key, default in spec.defaults.items()
                          if isinstance(default, int)}}
    # a float that overflows or turns NaN inside a model raises FloatingPointError
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        if sweep is None:
            columns = {name: [value] for name, value in _evaluate(spec, point).items()}
        else:
            columns = _sweep_columns(spec, point, sweep.parameter, values)
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


def _parse_sweep(raw: str) -> dict:
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
    return {"parameter": key, "start": float(parts[0]), "stop": float(parts[1]),
            "points": int(parts[2]), "log": log}


def build_scenario(args) -> ScenarioConfig:
    """The config file overlaid with the flags; every value is checked, none coerced."""
    doc = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config file must contain a JSON object")
        unknown = set(doc) - {"model", "parameters", "sweep", "output",
                              "si_scale_factors"}
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
    # the flags, written in the config file's shape
    flags = {"parameters": dict(_parse_set(raw) for raw in args.set or []),
             "sweep": {} if args.sweep is None else _parse_sweep(args.sweep),
             "output": {k: v for k, v in {"format": args.format, "path": args.out}.items()
                        if v is not None}}
    parameters, s, out = ({**_object(doc, key), **value} for key, value in flags.items())
    sweep = None
    if s:
        parameter, log = s["parameter"], s.get("log", False)
        if not isinstance(parameter, str):
            raise ValueError(f"sweep 'parameter' must be a string, got {parameter!r}")
        if not isinstance(log, bool):
            raise ValueError(f"sweep 'log' must be true or false, got {log!r}")
        sweep = SweepSpec(parameter, _real(s, "start"), _real(s, "stop"),
                          _whole(s, "points"), log)
    out_format, out_path = out.get("format", "csv"), out.get("path")
    if out_format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {out_format!r}")
    if not isinstance(out_path, (str, type(None))):
        raise ValueError(f"output 'path' must be a string, got {out_path!r}")
    si_scale_factors = doc.get("si_scale_factors")
    if _depth(si_scale_factors) > MAX_NESTING:
        raise ValueError(f"si_scale_factors must not nest more than {MAX_NESTING} deep")
    if not _is_finite(si_scale_factors):
        raise ValueError("si_scale_factors must not hold NaN or infinite numbers")
    return ScenarioConfig(args.model, parameters, sweep, out_format, out_path,
                          si_scale_factors)


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


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)

    try:
        scenario = build_scenario(args)
    except (ValueError, KeyError, TypeError, ArithmeticError, RecursionError) as exc:
        print(f"qvdw: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qvdw: i/o error: {exc}", file=sys.stderr)
        return 4

    try:
        table = run_scenario(scenario)
    except (ModelError, ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught here first
        print(f"qvdw: model error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError) as exc:
        print(f"qvdw: config error: {exc}", file=sys.stderr)
        return 2

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
