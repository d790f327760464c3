"""Workload definitions: seeded inputs and one operation per workload.

Inputs come from ``random.Random`` seeded with a string, which is stable
across Python versions and needs no numpy, so drawing them costs nothing
before ``import hcrb`` starts the set-up clock. Every operation goes through
``hcrb`` module attributes at call time, so a tracer that replaces those
attributes sees the calls.

Each operation appends its result rows to ``out`` as it goes, so the rows an
operation produced before it raised are still available to the checks.
A row is ``(sweep, quantity, method, value, n_trials)``.
"""

import math
import random
from contextlib import nullcontext

SCENARIO_FILE = "scenarios/vehicle.json"

# Bounds workload: seeded target heading, kept well off the bow-stern axis.
HEADING_BAND_DEG = (60.0, 120.0)
DEFAULT_RADIUS_M = 7.0
# Off-default constellation radii. At the baseline commit run_diversity's
# PEB monotonicity assert trips at each of these, so ops drawing them fail.
# They stay in the schedule on purpose: the failure is a program defect.
OFF_DEFAULT_RADII_M = (5.0, 8.0, 10.0, 15.0)
# One op in every round of BOUNDS_ROUND uses an off-default radius, at a
# seeded position, so the failing share is the same whatever the run length.
BOUNDS_ROUND = 4

# Range band shared by the mc and simulate workloads.
RANGE_BAND_M = (6.7, 80.0)
# Simulate: bearing kept off endfire, heading anywhere.
BEARING_BAND_DEG = (-60.0, 60.0)

SIZES = {
    # sweep points, diversity counts, mc trials per range, simulate frames
    "default": {"n_points": 30, "counts": tuple(range(1, 7)), "trials": 10,
                "frames": 4},
    # for the benchmark's own tests, which pass it in-process
    "tiny": {"n_points": 3, "counts": (1, 2), "trials": 2, "frames": 1},
}


def round_length(workload: str) -> int:
    """Ops per round; a timed phase always runs whole rounds."""
    return BOUNDS_ROUND if workload == "bounds" else 1


def _rng(workload: str, seed: int, *key) -> random.Random:
    return random.Random(":".join(str(part) for part in (workload, seed) + key))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def op_inputs(workload: str, seed: int, index: int) -> dict:
    """Inputs of op ``index`` (-1 is the untimed set-up op)."""
    rng = _rng(workload, seed, "op", index)
    if workload == "bounds":
        radius = DEFAULT_RADIUS_M
        if index >= 0:
            k, pos = divmod(index, BOUNDS_ROUND)
            if _rng(workload, seed, "round", k).randrange(BOUNDS_ROUND) == pos:
                radius = rng.choice(OFF_DEFAULT_RADII_M)
        return {"heading_deg": rng.uniform(*HEADING_BAND_DEG), "radius_m": radius}
    if workload == "mc":
        return {"range_m": _log_uniform(rng, *RANGE_BAND_M),
                "seed": rng.randrange(2**32)}
    if workload == "simulate":
        return {"range_m": _log_uniform(rng, *RANGE_BAND_M),
                "bearing_deg": rng.uniform(*BEARING_BAND_DEG),
                "heading_deg": rng.uniform(0.0, 360.0),
                "seed": rng.randrange(2**32)}
    raise ValueError(f"unknown workload {workload!r}")


def _table_rows(table):
    return [(r.sweep, r.quantity, r.method, r.value, r.n_trials) for r in table.rows]


def run_bounds(bundle, inputs, size, out, span=nullcontext):
    """Range sweep then constellation diversity at one target heading."""
    from hcrb import contour, experiments

    heading = math.radians(inputs["heading_deg"])
    base = bundle.scenario
    scenario = base.with_pose(contour.TargetPose(d=base.pose.d, phi=base.pose.phi,
                                                 heading=heading))
    sweep = experiments.run_range_sweep(scenario, n_points=size["n_points"])
    with span("experiments.csv"):
        sweep.csv_text()
    out.extend(_table_rows(sweep))
    diversity = experiments.run_diversity(scenario, bundle.target_xy, heading,
                                          counts=size["counts"],
                                          radius=inputs["radius_m"])
    with span("experiments.csv"):
        diversity.csv_text()
    out.extend(_table_rows(diversity))
    return size["n_points"]


def run_mc(bundle, inputs, size, out, span=nullcontext):
    """Monte Carlo at one range: bound rows plus estimator variance rows."""
    from hcrb import experiments

    table = experiments.run_mc(bundle.scenario, ranges=(inputs["range_m"],),
                               trials=size["trials"], seed=inputs["seed"],
                               segmentation=bundle.segmentation)
    with span("experiments.csv"):
        table.csv_text()
    out.extend(_table_rows(table))
    return 2 * size["trials"]  # extended-target and point-target frames


def run_simulate(bundle, inputs, size, out, span=nullcontext):
    """One pose: build the synthesis workspace, then synthesize and estimate
    a few frames, as ``hcrb simulate`` does."""
    import numpy as np
    from hcrb import contour, estimators, waveform

    pose = contour.TargetPose(d=inputs["range_m"],
                              phi=math.radians(inputs["bearing_deg"]),
                              heading=math.radians(inputs["heading_deg"]))
    scenario = bundle.scenario.with_pose(pose)
    workspace = waveform.synthesis_workspace(scenario, bundle.segmentation)
    seeds = np.random.SeedSequence(inputs["seed"]).generate_state(
        size["frames"], dtype=np.uint64)
    for k, frame_seed in enumerate(seeds):
        frame = waveform.synthesize_frame(workspace, int(frame_seed))
        result = estimators.estimate(frame, scenario.waveform)
        out.append((f"frame:{k}", "d_hat", "estimate", float(result.d),
                    int(result.confident)))
        out.append((f"frame:{k}", "phi_hat", "estimate", float(result.phi),
                    int(result.confident)))
    return size["frames"]


OPS = {"bounds": run_bounds, "mc": run_mc, "simulate": run_simulate}
WORKLOADS = tuple(OPS)
