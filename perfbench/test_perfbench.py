"""Tests of the benchmark itself: checkers, tracing and output.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.prepare()

import tracing  # noqa: E402
import workloads as w  # noqa: E402
from qvdw import vdw  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_and_check(workload, point):
    out = workload.run(point)
    assert workload.check(point, out) == []
    return out


def _edit_json(out, key, edit):
    code, text = out[key]
    doc = json.loads(text)
    edit(doc)
    return {**out, key: (code, json.dumps(doc))}


def test_full_dressed_checker_rejects_perturbed_shift():
    wl = w.FullDressed(0)
    point = next(p for p in wl.cycle() if p.kind == "sweep")
    out = _run_and_check(wl, point)

    def nudge(doc):
        doc["columns"]["shift"][0] += 1e-9
    assert wl.check(point, _edit_json(out, "cli", nudge))

    def unconverge(doc):
        doc["columns"]["converged"][0] = 0.0
    assert wl.check(point, _edit_json(out, "cli", unconverge))


def test_fock_checker_rejects_perturbed_values():
    wl = w.FockOracles(0)
    point = wl.cycle()[0]
    out = _run_and_check(wl, point)
    code, text = out["cli"]
    header, row = text.splitlines()
    gauss, fock = (float(v) for v in row.split(","))
    bad_cli = {**out, "cli": (code, f"{header}\n{gauss!r},{fock + 1e-7!r}\n")}
    assert wl.check(point, bad_cli)
    bad_oracle = dataclasses.replace(out["oracle"], value=out["oracle"].value + 1e-7)
    assert wl.check(point, {**out, "oracle": bad_oracle})


def test_closed_form_checker_rejects_perturbed_values():
    wl = w.ClosedFormSession(np.random.default_rng(0))
    point = wl.draw()
    out = _run_and_check(wl, point)
    first = out["rounds"][0]

    def with_first(changed):
        return {"rounds": [changed] + out["rounds"][1:]}
    assert wl.check(point, with_first({**first, "chsh_bell": first["chsh_bell"] + 1e-9}))

    def tilt(doc):
        doc["metadata"]["fit"]["exact_slope"] = -5.9
    assert wl.check(point, with_first(_edit_json(first, "vdw", tilt)))
    code, text = first["refractive"]
    assert wl.check(point, with_first({**first, "refractive": (code, text[:-5] + "\n")}))


def test_concurrence_tolerance_follows_its_conditioning():
    wl = w.ClosedFormSession(np.random.default_rng(0))
    x = {**wl.draw().inputs["rounds"][0], "werner_p": 0.9999057713101278}
    out = wl._run_round(x)
    assert wl._check_round(x, out) == []
    assert wl._check_round(x, {**out, "concurrence": out["concurrence"] + 1e-8})


def test_self_times_on_synthetic_tree():
    S = tracing.Span
    spans = [
        S("point", 0.0, 10.0),
        S("a", 1.0, 4.0, parent=0),
        S("b", 5.0, 9.0, parent=0),
        S("c", 6.0, 7.0, parent=2),
        S("d", 6.5, 8.0, parent=2),  # overlaps c: the union is counted once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])


@pytest.mark.parametrize("n,value,pct", [
    (40, 30.0, 75.0),      # p75 leaves exactly ten beyond
    (2000, 1980.0, 99.0),  # p99.9 would leave two
    (15, 5.0, 100 / 3),    # no ladder step fits: the value with ten beyond
])
def test_tail_leaves_ten_samples_beyond(n, value, pct):
    assert run.tail([float(i) for i in range(n, 0, -1)]) == (value, pytest.approx(pct), n)


def test_traced_run_restores_every_wrapped_attribute():
    targets = tracing.qvdw_targets()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    records, _ = run.run_loop(w.FockOracles(1), 0.01, lambda: None, 1, tracer, targets)
    assert all(not r["problems"] for r in records)
    assert {s.name for s in tracer.spans} >= {"point", "cli.main", "linalg.eigh",
                                              "vdw.vdw_fock_oracle"}
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before

    with pytest.raises(ZeroDivisionError):
        with tracer.point(-1, targets):
            vdw.exact_ground_shift(vdw.VdwConfig(separation=3.0))
            raise ZeroDivisionError
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_listed_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fock-oracles",
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock-oracles",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
