"""The benchmark's workloads: input generation, calls, checks.

A point is one generated input taken through every route the workload
exercises, the way a user waiting on each answer would issue it.  Each
workload class offers:

- ``cycle()``: the next batch of points, drawn from the seeded generator;
- ``run(point)``: the calls into qvdw, returning what they produced (this is
  the part the runner times);
- ``check(point, out)``: a list of problems, empty when every output agrees
  with an independent route.

qvdw is imported by the caller before this module, so that the copy under
the checkout's ``src`` is the one measured.
"""

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qvdw import cli, entanglement, vdw

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# microscopic model shared by every full-dressed point
FIELD_FREQ = 5.0
DIPOLE_FREQ = 3.0
COUPLING = 0.01
SWEEP_N_MAX = 14
SINGLE_N_MAX = 30
THREE_MODE_N_MAX = 9
SWEEP_POINTS_PER_CYCLE = 38
# frozen shifts must reproduce to this; runs differ by ~1e-17 across BLAS threads
FROZEN_ATOL = 1e-10
# the dipole enters the qubit shift only at fourth order, so the dispersive
# closed form of the bare qubit + field pair is an independent route to 1 %
DISPERSIVE_RTOL = 1e-2

FOCK_N_MAX = 40
FOCK_COUPLINGS = (0.05, 0.6)  # stable, and converged at n_max 40 to 1e-8

SQRT8 = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class Point:
    kind: str
    inputs: dict


def call_cli(argv):
    """Run ``qvdw <argv>`` in-process; return (exit code, standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def dispersive_closed_form(qubit_freq, mode_freq, coupling):
    """Second-order transition shift of a qubit coupled to one mode, by hand."""
    return coupling**2 * (1.0 / (qubit_freq - mode_freq) + 1.0 / (qubit_freq + mode_freq))


def gaussian_log_negativity_closed_form(u):
    """E_N of the coupled-oscillator ground state at |lambda|/(m w0^2) = u."""
    return 0.25 * math.log((1.0 + u) / (1.0 - u))


def _close(got, want, atol=0.0, rtol=0.0):
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


def full_model_argv(qubit_freq, n_dipoles, n_max):
    dipoles = [DIPOLE_FREQ] * n_dipoles
    couplings = [[COUPLING]] * n_dipoles
    return ["full",
            "--set", f"qubit_freq={qubit_freq!r}",
            "--set", f"field_freqs={[FIELD_FREQ]}",
            "--set", f"dipole_freqs={dipoles}",
            "--set", f"qubit_field_couplings={[COUPLING]}",
            "--set", f"dipole_field_couplings={couplings}",
            "--set", f"n_max={n_max}",
            "--format", "json"]


# kind -> (dipole modes, n_max); the reference file holds one table per kind
FULL_KINDS = {
    "sweep": (1, SWEEP_N_MAX),
    "single": (1, SINGLE_N_MAX),
    "three_mode": (2, THREE_MODE_N_MAX),
}


class FullDressed:
    """CLI ``full``: a qubit_freq sweep at n_max 14 across the dipole
    frequency, one point at n_max 30 and one three-mode point; plus one
    closed-form session per cycle."""

    name = "full-dressed"
    smallest_argv = full_model_argv(1.0, 1, 2)

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.references = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
        self.session = ClosedFormSession(self.rng)

    def _draw(self, keys, k):
        return [str(q) for q in self.rng.choice(sorted(keys, key=float), k, replace=False)]

    def cycle(self):
        keys = self.references["sweep"]
        half = SWEEP_POINTS_PER_CYCLE // 2
        # half the sweep below the dipole frequency, half above it
        sweep = self._draw([q for q in keys if float(q) < DIPOLE_FREQ], half)
        sweep += self._draw([q for q in keys if float(q) > DIPOLE_FREQ],
                            SWEEP_POINTS_PER_CYCLE - half)
        points = [Point(kind, {"qubit_freq": self._draw(self.references[kind], 1)[0]})
                  for kind in ("single", "three_mode")]
        points += [Point("sweep", {"qubit_freq": q}) for q in sorted(sweep, key=float)]
        return points + [self.session.draw()]

    def run(self, point):
        if point.kind == "session":
            return self.session.run(point)
        n_dipoles, n_max = FULL_KINDS[point.kind]
        return {"cli": call_cli(full_model_argv(float(point.inputs["qubit_freq"]),
                                                n_dipoles, n_max))}

    def check(self, point, out):
        if point.kind == "session":
            return self.session.check(point, out)
        code, text = out["cli"]
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(text)
        cols = {k: v[0] for k, v in doc["columns"].items()}
        key = point.inputs["qubit_freq"]
        q = float(key)
        n_dipoles, n_max = FULL_KINDS[point.kind]
        problems = []
        probe_dim = 2 * (n_max + 2) ** (1 + n_dipoles)
        if probe_dim <= doc["metadata"]["parameters"]["dim_limit"] and cols["converged"] != 1:
            problems.append("not converged although the n_max+2 probe fits dim_limit")
        for name in ("overlap_ground", "overlap_excited"):
            if not cols[name] > 0.5:
                problems.append(f"{name} {cols[name]} <= 0.5")
        if cols["bare_transition"] != q:
            problems.append(f"bare_transition {cols['bare_transition']} != {q}")
        if not _close(cols["shift"], self.references[point.kind][key], atol=FROZEN_ATOL):
            problems.append(f"shift {cols['shift']!r} differs from frozen "
                            f"{self.references[point.kind][key]!r}")
        closed = dispersive_closed_form(q, FIELD_FREQ, COUPLING)
        if not _close(cols["shift"], closed, rtol=DISPERSIVE_RTOL):
            problems.append(f"shift {cols['shift']!r} far from dispersive closed form {closed!r}")
        return problems


class FockOracles:
    """CLI ``entangle`` and ``vdw_fock_oracle`` at n_max 40 over a coupling sweep."""

    name = "fock-oracles"
    smallest_argv = ["entangle", "--set", "coupling=0.1", "--set", "n_max=12"]

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def cycle(self):
        return [Point("coupling", {"u": float(self.rng.uniform(*FOCK_COUPLINGS))})]

    def run(self, point):
        u = point.inputs["u"]
        return {
            "cli": call_cli(["entangle", "--set", f"coupling={u!r}",
                             "--set", f"n_max={FOCK_N_MAX}"]),
            "oracle": vdw.vdw_fock_oracle(vdw.config_for_coupling(u), FOCK_N_MAX),
        }

    def check(self, point, out):
        u = point.inputs["u"]
        code, text = out["cli"]
        if code != 0:
            return [f"entangle exit code {code}"]
        cols = _parse_csv(text)
        gauss, fock = cols["E_N_gaussian"][0], cols["E_N_fock"][0]
        problems = []
        if not _close(gauss, gaussian_log_negativity_closed_form(u), atol=1e-12):
            problems.append(f"E_N_gaussian {gauss!r} differs from closed form")
        if not _close(fock, gauss, atol=vdw.FOCK_CONVERGENCE_TOL):
            problems.append(f"E_N_fock {fock!r} differs from E_N_gaussian {gauss!r}")
        oracle = out["oracle"]
        exact = vdw.exact_ground_shift(vdw.config_for_coupling(u))
        if not oracle.converged:
            problems.append("vdw_fock_oracle not converged")
        if not _close(oracle.value, exact, atol=vdw.FOCK_CONVERGENCE_TOL):
            problems.append(f"vdw_fock_oracle {oracle.value!r} differs from exact {exact!r}")
        return problems


def werner_state(p):
    """p |phi+><phi+| + (1 - p) I/4."""
    ket = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return p * np.outer(ket, ket) + (1.0 - p) * np.eye(4) / 4.0


class ClosedFormSession:
    """Cheap CLI sweeps (vdw with its R^-6 fit, dispersive, refractive) and the
    library's Bell, concurrence and Gaussian E_N calls, as one point of
    ROUNDS rounds with fresh inputs each.

    These calls reach build_h0/build_hint through the perturbation engine
    instead of eigh, and per-call overhead, parsing and serialization
    dominate them.  They ride in the full-dressed cycle, which keeps their
    layers in the trace: run alone, calls of a few milliseconds each sit
    wholly inside or outside a busy host's slow spells, so their median
    jumps between two modes from run to run.
    """

    SWEEP_POINTS = {"vdw": 50, "dispersive": 20, "refractive": 20}
    ROUNDS = 20

    def __init__(self, rng):
        self.rng = rng

    def draw(self):
        return Point("session", {"rounds": [self._draw_round()
                                            for _ in range(self.ROUNDS)]})

    def run(self, point):
        return {"rounds": [self._run_round(x) for x in point.inputs["rounds"]]}

    def check(self, point, out):
        return [f"round {i}: {problem}"
                for i, (x, o) in enumerate(zip(point.inputs["rounds"], out["rounds"]))
                for problem in self._check_round(x, o)]

    def _draw_round(self):
        r = self.rng
        sep = float(r.uniform(4.0, 6.0))
        return {
            "separation": (sep, sep * float(r.uniform(5.0, 10.0))),
            "qubit_freq": (float(r.uniform(0.5, 1.5)), float(r.uniform(2.0, 3.5))),
            "freq": float(r.uniform(0.5, 2.0)),
            "index": (1.0, float(r.uniform(1.5, 3.0))),
            "bell": str(r.choice(["phi+", "phi-", "psi+", "psi-"])),
            "werner_p": float(r.uniform(0.0, 1.0)),
            "u": float(r.uniform(0.05, 0.9)),
        }

    def _run_round(self, x):
        n = self.SWEEP_POINTS
        werner = entanglement.TwoQubitState(werner_state(x["werner_p"]))
        return {
            "vdw": call_cli(["vdw", "--sweep", "separation=%r:%r:%d:log"
                             % (*x["separation"], n["vdw"]), "--format", "json"]),
            "dispersive": call_cli(["dispersive", "--sweep", "qubit_freq=%r:%r:%d"
                                    % (*x["qubit_freq"], n["dispersive"])]),
            "refractive": call_cli(["refractive", "--set", f"freq={x['freq']!r}",
                                    "--sweep", "index=%r:%r:%d"
                                    % (*x["index"], n["refractive"])]),
            "chsh_bell": entanglement.chsh_max(entanglement.bell_state(x["bell"])),
            "chsh_werner": entanglement.chsh_max(werner),
            "concurrence": entanglement.concurrence(werner),
            "gaussian": entanglement.log_negativity_gaussian(
                entanglement.ground_state_covariance(vdw.config_for_coupling(x["u"]))),
        }

    def _check_round(self, x, out):
        problems = []
        for name in ("vdw", "dispersive", "refractive"):
            if out[name][0] != 0:
                problems.append(f"{name} exit code {out[name][0]}")
        if problems:
            return problems

        doc = json.loads(out["vdw"][1])
        fit, cols = doc["metadata"]["fit"], doc["columns"]
        for label in ("pert", "exact"):
            if not _close(fit[f"{label}_slope"], -6.0, atol=1e-2):
                problems.append(f"{label}_slope {fit[label + '_slope']!r} is not -6")
        if len(cols["separation"]) != self.SWEEP_POINTS["vdw"]:
            problems.append("vdw sweep has the wrong number of rows")
        for r, lam, pert, exact in zip(cols["separation"], cols["lambda"],
                                       cols["pert_shift"], cols["exact_shift"]):
            if not (_close(lam, -2.0 / r**3, rtol=1e-12)
                    and _close(pert, -lam * lam / 8.0, rtol=1e-12)
                    and _close(exact, pert, rtol=1e-2)):
                problems.append(f"vdw row at separation {r!r} is wrong")

        cols = _parse_csv(out["dispersive"][1])
        want = np.linspace(*x["qubit_freq"], self.SWEEP_POINTS["dispersive"])
        if not np.array_equal(np.array(cols["qubit_freq"]), want):
            problems.append("dispersive sweep abscissas differ from the request")
        for q, shift in zip(cols["qubit_freq"], cols["shift"]):
            # mode_freq 5 and coupling 0.01 are the CLI defaults
            if not _close(shift, dispersive_closed_form(q, 5.0, 0.01), rtol=1e-9):
                problems.append(f"dispersive shift at {q!r} differs from closed form")

        cols = _parse_csv(out["refractive"][1])
        if len(cols["index"]) != self.SWEEP_POINTS["refractive"]:
            problems.append("refractive sweep has the wrong number of rows")
        for n, mod, shift in zip(cols["index"], cols["modulated_freq"], cols["shift"]):
            if not (_close(mod, x["freq"] / n, rtol=1e-15)
                    and _close(shift, mod - x["freq"], atol=1e-15)):
                problems.append(f"refractive row at index {n!r} is wrong")

        p = x["werner_p"]
        # Wootters takes square roots of eigenvalues ((1-p)/4)^2, so a rounding
        # error e in them moves the concurrence by about 6e/(1-p)
        for name, want, atol in (
                ("chsh_bell", SQRT8, 1e-12),
                ("chsh_werner", SQRT8 * p, 1e-12),
                ("concurrence", max(0.0, (3.0 * p - 1.0) / 2.0), 1e-12 + 1e-13 / (1.0 - p)),
                ("gaussian", gaussian_log_negativity_closed_form(x["u"]), 1e-12)):
            if not _close(out[name], want, atol=atol):
                problems.append(f"{name} {out[name]!r} differs from {want!r}")
        return problems


WORKLOADS = {w.name: w for w in (FullDressed, FockOracles)}
