"""hcrb benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload {bounds,mc,simulate} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; it benchmarks ``src/hcrb`` of that
checkout. Each measurement runs in a fresh ``worker.py`` process, one at a
time. With ``--trace 0`` it prints every end-to-end metric, with
``--trace 1`` every per-layer metric, first as ``name value unit`` lines
and then as one JSON object on the last line. The full record (environment,
load average, per-op times and failures) goes to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # fresh processes timed for setup_s; the run process is one
CHILD_TIMEOUT_S = 170.0
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text()) \
    if (HERE.parent / "BENCHMARK.json").exists() else None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def child(args, mode, env, deadline, spans=None):
    """Run one worker process to completion and return its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="hcrb benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if CONFIG is None or not (root / "src" / "hcrb" / "__init__.py").is_file() \
            or not (root / "scenarios" / "vehicle.json").is_file():
        sys.stderr.write("error: run from the root of an hcrb checkout "
                         "(needs BENCHMARK.json, src/hcrb and scenarios/vehicle.json)\n")
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Program defaults: one worker, whatever the caller's shell sets.
    inherited_threads = env.pop("HCRB_THREADS", None)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg_start": loadavg(),
              "inherited_HCRB_THREADS": inherited_threads}

    if args.trace:
        spans = out_dir / f"{stem}.spans.jsonl"
        main_run = child(args, "trace", env, deadline, spans=spans)
        metrics = main_run["metrics"]
        kind = "per_layer"
    else:
        setups = [child(args, "setup", env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        main_run = child(args, "run", env, deadline)
        setups.append(main_run["setup_s"])
        metrics = dict(main_run["metrics"], setup_s=statistics.median(setups))
        record["setup_samples_s"] = setups
        kind = "end_to_end"
    record["loadavg_end"] = loadavg()

    expected = str(root / "src" / "hcrb")
    if not main_run["hcrb_file"].startswith(expected):
        raise SystemExit(f"benchmarked {main_run['hcrb_file']}, not {expected}")

    units = {m["name"]: m["unit"] for m in CONFIG[kind]}
    result = {
        "correct": main_run["incorrect"] == 0 and not main_run["warmup_failed"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record.update(main_run, result=result)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env_rec = main_run["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python {env_rec['python']} numpy {env_rec['numpy']} scipy {env_rec['scipy']} "
          f"blas {env_rec['numpy_blas']} nproc {env_rec['nproc']} "
          f"threads {env_rec['thread_env'] or '{}'} loadavg "
          f"{record['loadavg_start']} -> {record['loadavg_end']}")
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]!r} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    if not args.trace:
        print(f"{args.workload} failed_frac {failed / attempted!r} fraction "
              f"({failed} of {attempted} ops)")
        tail = main_run["op_tail"]
        print(f"{args.workload} op_tail_ms " + (
            f"{tail['ms']!r} ms (p{tail['percentile']:.1f} of {tail['ops']} ops)" if tail
            else "n/a ms (needs more than 20 completed ops to sit above the median)"))
    errors = sorted({op["error"] for op in main_run["ops"] if op["error"]})
    for err in errors:
        print(f"{args.workload} op error: {err}")
    for op in main_run["ops"]:
        for problem in op["problems"]:
            print(f"{args.workload} op {op['index']} check failed: {problem}")
    for problem in main_run.get("missing_layers", []):
        print(f"{args.workload} tracer: not traced: {problem}")
    ref = main_run.get("reference")
    if ref is not None:
        print(f"{args.workload} reference: {ref['compared']} checked ops compared with "
              f"reference.json, {ref['unreferenced']} beyond it got invariant checks only")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
