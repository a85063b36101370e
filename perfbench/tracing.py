"""Span tracing for the benchmark's traced runs.

While one traced point runs, qvdw's public functions -- and numpy's dense
eigensolvers, as qvdw calls them -- are replaced by wrappers that record a
span per call: name, start, end, parent span and point id.  A function is
wrapped in every module that looks it up, because a name imported with
``from x import f`` is a separate binding.  Spans stay in memory; the
caller writes them out once at the end.  Outside a traced point every
attribute is the original object.

A layer's self time is its span's duration minus the part its child spans
cover, so the self times of one point's spans add up to its wall time.
"""

import contextlib
import functools
import inspect
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    point: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans for calls made while a point is open."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._point = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent=parent, point=self._point))
        self._stack.append(len(self.spans) - 1)
        self.spans[-1].start = time.perf_counter()
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def point(self, point_id, targets):
        """Wrap ``targets`` and record one point as a root span named "point".

        ``targets`` holds (owner, attribute, span name, describe) tuples;
        ``describe(args, kwargs, result)`` returns the span's attributes.
        Every wrapped attribute is restored on exit, also after an error.
        """
        patched = []
        try:
            for owner, attr, name, describe in targets:
                original = vars(owner)[attr]
                patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, describe))
            self._point = point_id
            span = self._open("point")
            try:
                yield span
            finally:
                self._close(span)
                self._point = None
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def _wrap(self, original, name, describe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result
        return traced


def children_of(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    out = []
    for s, kids in zip(spans, children_of(spans)):
        covered, cursor = 0.0, s.start
        for a, b in sorted((spans[k].start, spans[k].end) for k in kids):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.duration - covered)
    return out


def _n_max_squared(fn):
    signature = inspect.signature(fn)

    def describe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"dim": bound.arguments["n_max"] ** 2}
    return describe


def _matrix(args, kwargs, result):
    return {"dim": args[0].shape[-1], "complex": bool(np.iscomplexobj(args[0]))}


def _built(args, kwargs, result):
    return {"dim": result.dim, "bytes": result.entries.nbytes}


def qvdw_targets():
    """Every (owner, attribute, span name, describe) the traced run wraps."""
    from qvdw import cli, entanglement, full_model, operators, perturbation, vdw

    closed_form = [(vdw, f, "vdw.closed_form", None)
                   for f in ("config_for_coupling", "dipole_coupling_lambda",
                             "normal_modes", "exact_ground_shift",
                             "perturbative_ground_shift")]
    gaussian = [(entanglement, f, "entanglement.gaussian", None)
                for f in ("ground_state_covariance", "log_negativity_gaussian")]
    bell = [(entanglement, f, "entanglement.bell", None)
            for f in ("bell_state", "chsh_max", "concurrence")]
    return [
        (cli, "main", "cli.main", None),
        (cli, "build_scenario", "cli.build_scenario", None),
        (cli, "run_scenario", "cli.run_scenario", None),
        (cli.ResultTable, "to_csv", "cli.serialize", None),
        (cli.ResultTable, "to_json", "cli.serialize", None),
        (cli, "fit_power_law", "cli.fit_power_law", None),
        (full_model, "dressed_transition", "full_model.dressed_transition",
         lambda a, k, r: {"dim": a[0].dim}),
        (full_model, "dispersive_single_mode", "full_model.dispersive_single_mode", None),
        (full_model, "build_h0", "full_model.build_h0", _built),
        (full_model, "build_hint", "full_model.build_hint", _built),
        (operators.HermitianOperator, "__init__", "operators.HermitianOperator",
         lambda a, k, r: {"bytes": a[0].entries.nbytes}),
        (np.linalg, "eigh", "linalg.eigh", _matrix),
        (np.linalg, "eigvalsh", "linalg.eigvalsh", _matrix),
        (perturbation, "second_order_shift", "perturbation.second_order_shift",
         lambda a, k, r: {"dim": len(a[0]), "terms": r.terms_used}),
        (vdw, "coupled_hamiltonian_fock", "vdw.coupled_hamiltonian_fock",
         lambda a, k, r: {"dim": r.shape[0]}),
        # entanglement imported it by name, so its oracle looks it up there
        (entanglement, "coupled_hamiltonian_fock", "vdw.coupled_hamiltonian_fock",
         lambda a, k, r: {"dim": r.shape[0]}),
        (vdw, "vdw_fock_oracle", "vdw.vdw_fock_oracle",
         _n_max_squared(vdw.vdw_fock_oracle)),
        *closed_form,
        (entanglement, "normal_modes", "vdw.closed_form", None),
        (entanglement, "negativity_fock_oracle", "entanglement.negativity_fock_oracle",
         _n_max_squared(entanglement.negativity_fock_oracle)),
        *gaussian,
        (entanglement.GaussianTwoModeState, "__init__", "entanglement.gaussian", None),
        *bell,
        (entanglement.TwoQubitState, "__init__", "entanglement.bell", None),
    ]


# span name -> the per-layer metric its self time is added to
SELF_METRIC = {
    "point": "trace.unattributed_s",
    "cli.main": "cli.parse_s",
    "cli.build_scenario": "cli.parse_s",
    "cli.run_scenario": "cli.run_scenario_s",
    "cli.serialize": "cli.serialize_s",
    "cli.fit_power_law": "cli.fit_s",
    "full_model.dressed_transition": "full_model.dressed_transition_self_s",
    "full_model.dispersive_single_mode": "full_model.dispersive_self_s",
    "full_model.build_h0": "full_model.build_h0_s",
    "full_model.build_hint": "full_model.build_hint_s",
    "operators.HermitianOperator": "operators.hermitian_op_s",
    "linalg.eigh": "linalg.eigh_s",
    "linalg.eigvalsh": "linalg.eigvalsh_s",
    "perturbation.second_order_shift": "perturbation.second_order_shift_s",
    "vdw.coupled_hamiltonian_fock": "vdw.coupled_hamiltonian_fock_s",
    "vdw.vdw_fock_oracle": "vdw.fock_oracle_self_s",
    "vdw.closed_form": "vdw.closed_form_s",
    "entanglement.negativity_fock_oracle": "entanglement.negativity_oracle_self_s",
    "entanglement.gaussian": "entanglement.gaussian_s",
    "entanglement.bell": "entanglement.bell_s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, untraced_wall):
    """Per-layer metrics of a traced run.

    ``untraced_wall`` maps traced point ids to the wall time of the same
    point run without tracing.  Times, counts and bytes are means per traced
    point.
    """
    selfs = self_times(spans)
    roots = {s.point: (s, t) for s, t in zip(spans, selfs) if s.parent is None}
    n = len(roots)
    paired = {p: r for p, r in roots.items() if p in untraced_wall}
    kids = children_of(spans)
    metrics = dict.fromkeys(SELF_METRIC.values(), 0.0)
    for s, t in zip(spans, selfs):
        metrics[SELF_METRIC[s.name]] += t / n

    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def spans_named(name):
        return [spans[i] for i in by_name[name]]

    def children(parent_name, child_name=None):
        return [(spans[i], spans[c]) for i in by_name[parent_name] for c in kids[i]
                if child_name is None or spans[c].name == child_name]

    def probe_share(parent_name):
        # children at another dimension than the requested one are the truncation probe
        probe = sum(c.duration for p, c in children(parent_name)
                    if c.attrs.get("dim", p.attrs["dim"]) != p.attrs["dim"])
        return _ratio(probe, sum(p.duration for p in spans_named(parent_name)))

    dressed = spans_named("full_model.dressed_transition")
    solves = [c for _, c in children("full_model.dressed_transition", "linalg.eigh")]
    builds = spans_named("full_model.build_h0") + spans_named("full_model.build_hint")
    herm = spans_named("operators.HermitianOperator")
    eigh = spans_named("linalg.eigh")
    n3 = [s.attrs["dim"] ** 3 for s in eigh]
    n3_complex = [s.attrs["dim"] ** 3 for s in eigh if s.attrs["complex"]]
    pert = spans_named("perturbation.second_order_shift")
    pt = [c.attrs["dim"] for _, c in
          children("entanglement.negativity_fock_oracle", "linalg.eigvalsh")]

    metrics.update({
        "full_model.build_calls": len(builds) / n,
        "full_model.solves_per_point": _ratio(len(solves), len(dressed)),
        "full_model.probe_share": probe_share("full_model.dressed_transition"),
        "full_model.eigpairs_used_ratio":
            _ratio(2 * len(solves), sum(c.attrs["dim"] for c in solves)),
        "full_model.matrix_bytes_computed": sum(s.attrs["bytes"] for s in builds) / n,
        "operators.hermitian_op_calls": len(herm) / n,
        "operators.complex_bytes_computed": sum(s.attrs["bytes"] for s in herm) / n,
        "linalg.eigh_calls": len(eigh) / n,
        "linalg.eigh_n3_sum": sum(n3) / n,
        "linalg.eigh_complex_share": _ratio(sum(n3_complex), sum(n3)),
        "linalg.eigvalsh_n3_sum":
            sum(s.attrs["dim"] ** 3 for s in spans_named("linalg.eigvalsh")) / n,
        "vdw.fock_dim_max":
            max((s.attrs["dim"] for s in spans_named("vdw.coupled_hamiltonian_fock")),
                default=0),
        "vdw.probe_share": probe_share("vdw.vdw_fock_oracle"),
        "entanglement.pt_dim": max(pt, default=0),
        "entanglement.probe_share": probe_share("entanglement.negativity_fock_oracle"),
        "perturbation.calls": len(pert) / n,
        "perturbation.terms_used_ratio": _ratio(sum(s.attrs["terms"] for s in pert),
                                                sum(s.attrs["dim"] for s in pert)),
        "trace_overhead_ratio": _ratio(sum(r.duration for r, _ in paired.values()),
                                       sum(untraced_wall[p] for p in paired)),
        # what the layers' self times add up to, against the untraced wall time
        "trace.accounted_ratio_p50": statistics.median(
            (r.duration - t) / untraced_wall[p] for p, (r, t) in paired.items()),
    })
    return metrics
