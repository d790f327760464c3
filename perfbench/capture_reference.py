"""Capture reference rows for the canonical seed from the current checkout.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Writes ``perfbench/reference.json``: the inputs and result rows of the
untimed op and of the first ops of each workload at seed
``checks.CANONICAL_SEED`` and default sizes. Run it only on the commit
whose outputs are the reference; the committed file was captured at the
commit that introduced the benchmark.

The file holds one op per line. Row keys ``(sweep, quantity, method)`` are
stored once per distinct layout; an op stores its layout index and its
values, rounded to ``SIGNIFICANT_DIGITS``, far finer than any tolerance.
``checks.load_reference`` expands it back into rows.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402

# Ops captured per workload after the untimed one. At the baseline a 20 s
# run attempts about 20 bounds, 10 mc and 40 simulate ops; these cover a
# 20 s run of a program about six times faster. Ops beyond them get the
# invariant checks only, and the run reports how many there were.
CAPTURED_OPS = {"bounds": 128, "mc": 64, "simulate": 256}
SIGNIFICANT_DIGITS = 10
# Monte Carlo and single-estimate rows must match to this share of their
# standard error.
SE_SHARE = 0.01


def _round(value, digits=SIGNIFICANT_DIGITS):
    return float(f"{value:.{digits}g}")


def _mc_tolerances(rows):
    """Absolute tolerance per row: a share of its Monte Carlo standard error
    for variance and bias rows, None (the bound tolerance) otherwise."""
    var = {(r[0], r[1]): (r[3], r[4]) for r in rows if r[1].startswith("var_")}
    out = []
    for sweep, quantity, _method, value, n_trials in rows:
        tol = None
        if quantity.startswith("var_"):
            tol = SE_SHARE * value * math.sqrt(2.0 / (n_trials - 1))
        elif quantity.startswith("bias_"):
            v, n = var[(sweep, "var_" + quantity[len("bias_"):])]
            tol = SE_SHARE * math.sqrt(v / n)
        out.append(tol)
    return out


def _estimate_tolerances(bundle, inputs, rows):
    """A share of the point-target CRB deviation at the op's pose."""
    from hcrb import contour, fisher

    pose = contour.TargetPose(d=inputs["range_m"], phi=math.radians(inputs["bearing_deg"]),
                              heading=math.radians(inputs["heading_deg"]))
    crb = fisher.point_target_crb(bundle.scenario.with_pose(pose))
    tol = {"d_hat": SE_SHARE * math.sqrt(crb[0, 0]),
           "phi_hat": SE_SHARE * math.sqrt(crb[1, 1])}
    return [tol[row[1]] for row in rows]


def capture(workload, bundle):
    size = workloads.SIZES["default"]
    layouts, ops = [], []
    for index in range(-1, CAPTURED_OPS[workload]):
        inputs = workloads.op_inputs(workload, checks.CANONICAL_SEED, index)
        rows, raised = [], None
        try:
            workloads.OPS[workload](bundle, inputs, size, rows)
        except Exception as err:  # recorded, as the benchmark counts it
            raised = f"{type(err).__name__}: {err}"
        if workload == "simulate":
            tols = _estimate_tolerances(bundle, inputs, rows)
            problems = checks.check_estimates(rows, inputs,
                                              checks.contour_extent(bundle.document))
        else:
            tols = _mc_tolerances(rows)
            problems = checks.check_bound_invariants(rows, inputs.get("heading_deg"))
        print(f"{workload} op {index}: {len(rows)} rows, raised={raised}, "
              f"problems={problems[:3]}", file=sys.stderr)
        keys = [list(row[:3]) for row in rows]
        if keys not in layouts:
            layouts.append(keys)
        op = {"index": index, "inputs": inputs, "raises": raised,
              "layout": layouts.index(keys), "values": [_round(r[3]) for r in rows]}
        if any(r[4] for r in rows):
            op["n_trials"] = [r[4] for r in rows]
        if any(t is not None for t in tols):
            op["abs_tol"] = [None if t is None else _round(t, 4) for t in tols]
        ops.append(op)
    return {"layouts": layouts, "ops": ops}


def main():
    from hcrb import scenario_io

    bundle = scenario_io.load_file(workloads.SCENARIO_FILE)
    captured = {w: capture(w, bundle) for w in workloads.WORKLOADS}

    def dump(obj):
        return json.dumps(obj, separators=(",", ":"))

    lines = ["{", f'"seed":{checks.CANONICAL_SEED},',
             f'"bound_rel_tol":{checks.BOUND_REL_TOL},', '"workloads":{']
    for w_index, (workload, part) in enumerate(captured.items()):
        lines.append(f'{dump(workload)}:{{"layouts":{dump(part["layouts"])},"ops":[')
        lines += [dump(op) + ("," if i < len(part["ops"]) - 1 else "")
                  for i, op in enumerate(part["ops"])]
        lines.append("]}" + ("," if w_index < len(captured) - 1 else ""))
    lines.append("}}")
    with open(checks.REFERENCE_FILE, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
