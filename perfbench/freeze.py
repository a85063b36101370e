"""Regenerate reference.json, the full-dressed shifts the benchmark checks against.

Run from the repository root on a commit whose results are trusted:

    python3 perfbench/freeze.py

Each entry is computed with ``dressed_transition`` and kept only if it
converged, both dressed states are identified with overlap > 0.5 and the
shift agrees with the dispersive closed form; anything else aborts.
"""

import json

import run


def grid(start, stop, step):
    return ["%.2f" % (start + i * step) for i in range(round((stop - start) / step) + 1)]


def main():
    run.prepare()
    from qvdw import full_model

    import workloads as w

    heavy = ["1.20", "1.70", "2.20", "3.40", "3.90", "4.40"]
    keys = {
        # qubit_freq below and above the dipole frequency, 0.3 clear of it
        "sweep": grid(1.0, 2.7, 0.02) + grid(3.3, 4.6, 0.02),
        "single": heavy,
        "three_mode": heavy,
    }
    references = {}
    for kind, qs in keys.items():
        n_dipoles, n_max = w.FULL_KINDS[kind]
        table = references[kind] = {}
        for q in qs:
            cfg = full_model.FullModelConfig(
                float(q), (w.FIELD_FREQ,), (w.DIPOLE_FREQ,) * n_dipoles, (w.COUPLING,),
                ((w.COUPLING,),) * n_dipoles, n_max)
            r = full_model.dressed_transition(cfg)
            closed = w.dispersive_closed_form(float(q), w.FIELD_FREQ, w.COUPLING)
            if not (r.converged and min(r.overlap_ground, r.overlap_excited) > 0.5
                    and abs(r.shift - closed) <= w.DISPERSIVE_RTOL * abs(closed)):
                raise SystemExit(f"{kind} qubit_freq={q}: {r} fails the checks")
            table[q] = float(r.shift)
            print(kind, q, table[q], flush=True)
    w.REFERENCE_PATH.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
