"""Command-line front end: bounds, simulate, sweep, mc, diversity.

Scenario files are JSON (angles in degrees); all CSV output is in radians
and meters. Exit codes: 0 success; 1 usage, configuration or schema error,
non-finite scenario numbers included, or an output that cannot be written;
2 singular information matrix (an unfactorable shape block too) or partial
sweep results.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import t_blocks
from .errors import HcrbError, IdentifiabilityError, ScenarioError
from .estimators import estimate
from .experiments import (
    MC_RANGES,
    ResultTable,
    run_diversity,
    run_mc,
    run_range_sweep,
)
from .fisher import efim_exact, point_target_crb
from .multiradar import fuse, peb
from .scenario_io import SCHEMA_VERSION, ScenarioBundle, dumps_normalized, load_file
from .waveform import dump_frame, point_workspace, synthesis_workspace, synthesize_frame


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ScenarioError (exit 1); argparse would exit 2, the
    code for a singular matrix. Subcommand parsers inherit this class."""

    def error(self, message):
        raise ScenarioError(f"{self.prog}: {message}")


def _number(kind, rule: str, least=None):
    """An argparse type= converter: text to kind, finite and at least least."""
    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or (kind is float and not np.isfinite(value)) or (
                least is not None and value < least):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return convert


_SEED = _number(int, "a non-negative integer", 0)
_COUNT = _number(int, "an integer of at least 1", 1)
_FINITE = _number(float, "a finite number")


def _add_scenario_arg(parser):
    parser.add_argument("--scenario", required=True, metavar="FILE",
                        help="JSON scenario file")
    parser.add_argument("--print-normalized", action="store_true",
                        help="echo the validated scenario with defaults filled "
                             "and exit")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hcrb",
        description="Position/orientation estimation bounds for extended "
                    "radar targets with Fourier contours.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"hcrb {__version__} (scenario schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="exact/asymptotic bound report")
    _add_scenario_arg(p_bounds)
    shape = p_bounds.add_mutually_exclusive_group()
    shape.add_argument("--known", dest="known", action="store_true",
                       help="treat the contour coefficients as known")
    shape.add_argument("--unknown", dest="known", action="store_false",
                       help="estimate the contour jointly (default)")
    p_bounds.set_defaults(known=False)
    method = p_bounds.add_mutually_exclusive_group()
    method.add_argument("--exact", dest="exact", action="store_true",
                        help="exact quadrature bound (default)")
    method.add_argument("--asymptotic", dest="exact", action="store_false",
                        help="long-range (far-field) limit")
    p_bounds.set_defaults(exact=True)
    p_bounds.add_argument("--out", metavar="CSV", help="write rows to CSV")

    p_sim = sub.add_parser("simulate", help="synthesize frames and run the "
                                            "matched-filter estimator")
    _add_scenario_arg(p_sim)
    p_sim.add_argument("--seed", type=_SEED, default=0)
    p_sim.add_argument("--trials", type=_COUNT, default=10)
    p_sim.add_argument("--point", action="store_true",
                       help="point target instead of the extended contour")
    p_sim.add_argument("--dump-frames", metavar="DIR",
                       help="write raw complex64 frames plus JSON sidecars")
    p_sim.add_argument("--out", metavar="CSV", help="write estimates to CSV")

    p_sweep = sub.add_parser("sweep", help="bounds along the range sweep")
    _add_scenario_arg(p_sweep)
    p_sweep.add_argument("--points", type=_COUNT, default=30)
    p_sweep.add_argument("--seed", type=_SEED, default=0)
    p_sweep.add_argument("--out", metavar="CSV", required=True)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimator variance vs bounds")
    _add_scenario_arg(p_mc)
    p_mc.add_argument("--trials", type=_COUNT, default=500)
    p_mc.add_argument("--seed", type=_SEED, default=0)
    p_mc.add_argument("--ranges", type=_parse_ranges, default=MC_RANGES,
                      help="comma-separated target ranges in meters")
    p_mc.add_argument("--out", metavar="CSV", required=True)

    p_div = sub.add_parser("diversity", help="PEB vs constellation size")
    _add_scenario_arg(p_div)
    p_div.add_argument("--counts", type=_parse_counts, default=range(1, 7),
                       help="radar counts, e.g. 1-6 or 1,2,4")
    p_div.add_argument("--radius", type=_FINITE, default=7.0)
    p_div.add_argument("--total-db", type=_FINITE, default=40.0,
                       help="aggregate E/N0 budget in dB, split evenly")
    p_div.add_argument("--seed", type=_SEED, default=0)
    p_div.add_argument("--out", metavar="CSV", required=True)
    return parser


def _parse_counts(text: str):
    text = text.strip()
    try:
        if "-" in text and "," not in text:
            lo, hi = text.split("-", 1)
            counts = list(range(int(lo), int(hi) + 1))
        else:
            counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        counts = []
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(f"invalid radar counts {text!r} "
                                         "(e.g. 1-6 or 1,2,4)")
    return counts


def _parse_ranges(text: str):
    try:
        ranges = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        ranges = []
    if not ranges:
        raise argparse.ArgumentTypeError(f"invalid target ranges {text!r} "
                                         "(e.g. 6.7,15,35)")
    return ranges


def _cmd_bounds(args, bundle: ScenarioBundle) -> ResultTable:
    scenario = bundle.scenario
    table = ResultTable()
    label = "known" if args.known else "unknown"

    if len(bundle.radars) > 1:
        if not args.exact:
            raise ScenarioError("bounds: --asymptotic takes a single-radar "
                                f"scenario; this one has {len(bundle.radars)} "
                                "radars (their fused bound is exact only)")
        info = fuse(scenario, bundle.target_xy, bundle.heading, bundle.radars)
        report = (info.pose_block() if args.known else info).crb()
        heading = report.c_heading
        bound = peb(report)
        print(f"{len(bundle.radars)} radars, contour {label}")
        print(f"  position error bound : {bound:.6g} m")
        print(f"  heading variance     : {heading:.6g} rad^2")
        sweep = f"bounds:{len(bundle.radars)}radars"
        table.add(sweep, f"peb_{label}", "exact", bound, "m")
        table.add(sweep, f"c_heading_{label}", "exact", heading, "rad^2")
        return table

    method = "exact" if args.exact else "asymptotic"
    info = efim_exact(scenario) if args.exact else t_blocks(scenario)
    report = (info.pose_block() if args.known else info).crb()
    point = point_target_crb(scenario)
    pose = scenario.pose
    print(f"target at d = {pose.d:.4g} m, phi = {pose.phi:.6g} rad, "
          f"heading = {pose.heading:.6g} rad; contour {label}, {method}")
    print(f"  range variance   : {report.c_range:.6g} m^2")
    print(f"  bearing variance : {report.c_bearing:.6g} rad^2")
    print(f"  heading variance : {report.c_heading:.6g} rad^2")
    print(f"  point-target     : {point[0, 0]:.6g} m^2, {point[1, 1]:.6g} rad^2")
    sweep = f"bounds:{pose.d:.6g}"
    table.add_report(sweep, label, method, report)
    table.add_point(sweep, point)
    return table


def _cmd_simulate(args, bundle: ScenarioBundle) -> ResultTable:
    scenario = bundle.scenario
    if args.point:
        workspace = point_workspace(scenario)
    else:
        workspace = synthesis_workspace(scenario, bundle.segmentation)
    dump_dir = Path(args.dump_frames) if args.dump_frames else None
    if dump_dir:
        dump_dir.mkdir(parents=True, exist_ok=True)

    seeds = np.random.SeedSequence(args.seed).generate_state(
        args.trials, dtype=np.uint64)
    table = ResultTable()
    kind = "point" if args.point else "extended"
    sweep = f"simulate:{scenario.pose.d:.6g}"
    d_hats, phi_hats = [], []
    for trial, trial_seed in enumerate(seeds):
        frame = synthesize_frame(workspace, int(trial_seed))
        if dump_dir:
            dump_frame(frame, dump_dir / f"frame_{trial:04d}.c64")
        result = estimate(frame, scenario.waveform)
        d_hats.append(result.d)
        phi_hats.append(result.phi)
        flag = "" if result.confident else "  (low confidence)"
        print(f"trial {trial:3d}: d = {result.d:.4f} m, "
              f"phi = {result.phi:.6f} rad{flag}")
        table.add(sweep, "d_hat", "monte_carlo", result.d, "m", trial, args.seed)
        table.add(sweep, "phi_hat", "monte_carlo", result.phi, "rad", trial,
                  args.seed)
    pose = scenario.pose
    print(f"{kind} target truth: d = {pose.d:.4f} m, phi = {pose.phi:.6f} rad")
    print(f"mean estimate   : d = {np.mean(d_hats):.4f} m, "
          f"phi = {np.mean(phi_hats):.6f} rad over {args.trials} trials")
    return table


def _cmd_sweep(args, bundle: ScenarioBundle) -> ResultTable:
    return run_range_sweep(bundle.scenario, n_points=args.points,
                           seed=args.seed, skip_singular=True)


def _cmd_mc(args, bundle: ScenarioBundle) -> ResultTable:
    return run_mc(bundle.scenario, ranges=args.ranges, trials=args.trials,
                  seed=args.seed, segmentation=bundle.segmentation)


def _cmd_diversity(args, bundle: ScenarioBundle) -> ResultTable:
    return run_diversity(bundle.scenario, bundle.target_xy, bundle.heading,
                         counts=args.counts, radius=args.radius,
                         total_e_over_n0_db=args.total_db, seed=args.seed)


_COMMANDS = {
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "mc": _cmd_mc,
    "diversity": _cmd_diversity,
}


def _check_out(path: Path):
    """Raise ScenarioError unless a CSV can be written at path: its
    directory exists and is writable, and path is not a directory or a
    file that cannot be written."""
    if not path.parent.is_dir():
        raise ScenarioError(f"--out: no such directory: {path.parent}")
    if path.is_dir():
        raise ScenarioError(f"--out: is a directory: {path}")
    if path.exists():
        writable = os.access(path, os.W_OK)
    else:
        writable = os.access(path.parent, os.W_OK | os.X_OK)
    if not writable:
        raise ScenarioError(f"--out: cannot write {path}")


def entry(argv=None) -> int:
    """Run one command: load its scenario, echo it or compute the command's
    table, write --out, and report skipped sweep points (exit 2). An --out
    that cannot be written (no such directory, a directory, no write
    permission) is reported before the command runs; a write that fails
    anyway is one error line (exit 1)."""
    try:
        args = _parser().parse_args(argv)
        bundle = load_file(args.scenario)
        if args.print_normalized:
            sys.stdout.write(dumps_normalized(bundle.document))
            return 0
        if args.out:
            _check_out(Path(args.out))
        table = _COMMANDS[args.command](args, bundle)
        if args.out:
            table.to_csv(args.out)
            print(f"wrote {len(table.rows)} rows to {args.out}")
        for line in table.failures:
            print(f"skipped {line}", file=sys.stderr)
        return 2 if table.failures else 0
    except IdentifiabilityError as err:
        print(f"error: {err}", file=sys.stderr)
        if getattr(err, "labels", None):
            print(f"  null space involves: {', '.join(err.labels)}",
                  file=sys.stderr)
        return 2
    except (HcrbError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(entry())
