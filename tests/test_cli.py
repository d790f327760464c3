"""End-to-end checks of the hcrb command line."""

import json
import os

import numpy as np
import pytest

from conftest import SCENARIO_FILE

import hcrb.cli
import hcrb.experiments
import hcrb.waveform
from hcrb import __version__
from hcrb._pool import THREADS_ENV
from hcrb.cli import entry
from hcrb.experiments import ResultTable, _bound_rows
from hcrb.multiradar import fuse, peb
from hcrb.scenario_io import SCHEMA_VERSION, dumps_normalized, load_file, normalize

SCENARIO = str(SCENARIO_FILE)


def _vehicle_with(tmp_path, edit) -> str:
    """The path of a copy of the vehicle scenario that edit changed."""
    doc = json.loads(SCENARIO_FILE.read_text())
    edit(doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == f"hcrb {__version__} (scenario schema {SCHEMA_VERSION})\n"


@pytest.mark.parametrize("method", ["exact", "asymptotic"])
@pytest.mark.parametrize("label", ["known", "unknown"])
def test_bounds_report_and_csv(tmp_path, capsys, bundle, method, label):
    out = tmp_path / "bounds.csv"
    assert entry(["bounds", "--scenario", SCENARIO, f"--{method}", f"--{label}",
                  "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert f"contour {label}, {method}" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "sweep,quantity,method,value,units,n_trials,seed"
    quantities = [line.split(",")[1] for line in lines[1:]]
    assert quantities == [f"c_range_{label}", f"c_bearing_{label}",
                          f"c_heading_{label}", "c_range_point",
                          "c_bearing_point"]
    values = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(np.isfinite(values)) and all(v > 0 for v in values)
    # the same rows, bit for bit, as the sweep writes for this pose
    sweep = ResultTable()
    _bound_rows(sweep, "pose", bundle.scenario)
    expected = [[r.quantity, r.method, f"{r.value:.17g}", r.units, "0", "0"]
                for r in sweep.rows
                if (r.method, r.quantity.rsplit("_", 1)[1]) in
                ((method, label), ("point_target", "point"))]
    assert [line.split(",")[1:] for line in lines[1:]] == expected


def test_bounds_known_asymptotic(capsys):
    assert entry(["bounds", "--scenario", SCENARIO,
                  "--known", "--asymptotic"]) == 0
    assert "contour known, asymptotic" in capsys.readouterr().out


@pytest.mark.parametrize("command",
                         ["bounds", "simulate", "sweep", "mc", "diversity"])
def test_print_normalized_round_trips(tmp_path, capsys, command):
    """Every command echoes the scenario and stops: no report, no CSV."""
    out = tmp_path / "out.csv"
    required = ["--out", str(out)] if command in ("sweep", "mc", "diversity") \
        else []
    assert entry([command, "--scenario", SCENARIO, "--print-normalized",
                  *required]) == 0
    printed = capsys.readouterr().out
    expected = normalize(json.loads(SCENARIO_FILE.read_text()))
    assert printed == dumps_normalized(expected)
    assert not out.exists()


def test_schema_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert entry(["bounds", "--scenario", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err

    for edit, message in ((lambda doc: doc.update(bogus={}), "unknown top-level"),
                          (lambda doc: doc.update(radar=[5]), "radar[0] must be a JSON object"),
                          (lambda doc: doc["waveform"].update(fc=0), "carrier")):
        assert entry(["bounds", "--scenario", _vehicle_with(tmp_path, edit)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["diversity", "--counts", "1-2,4"],
    ["diversity", "--counts", "a"],
    ["sweep", "--points", "-3"],
    ["sweep", "--points", "0"],
    ["mc", "--ranges", "10,abc"],
    ["mc", "--seed", "-1"],
    ["mc", "--trials", "-1"],
    ["simulate", "--seed", "-1"],
    ["simulate", "--trials", "-1"],
    ["simulate", "--trials", "0"],
    ["simulate", "--seed", "abc"],
    ["mc", "--seed", "abc"],
    ["sweep", "--points", "1.5"],
    ["mc", "--trials", "x"],
    ["diversity", "--radius", "abc"],
    ["diversity", "--total-db", "abc"],
    ["diversity", "--total-db", "nan"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_argument_errors_exit_one(tmp_path, capsys, argv):
    command, option, value = argv
    out = [] if command == "simulate" else ["--out", str(tmp_path / "out.csv")]
    assert entry([command, "--scenario", SCENARIO, option, value, *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--out", "x.csv"],
    ["bounds", "--scenario", SCENARIO, "--bogus"],
    [],
    # the bound studies draw no random numbers, so they take no --seed
    ["sweep", "--scenario", SCENARIO, "--seed", "1", "--out", "x.csv"],
    ["diversity", "--scenario", SCENARIO, "--seed", "1", "--out", "x.csv"],
], ids=("no_scenario", "unknown_option", "no_subcommand", "sweep_seed", "diversity_seed"))
def test_usage_errors_exit_one(capsys, argv):
    # argparse would exit 2, the code for a singular matrix
    assert entry(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hcrb") and err.count("\n") == 1, err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--points" in capsys.readouterr().out


@pytest.mark.parametrize("want", ("nan", "-5", "1000"))
def test_mc_range_off_the_sweep_exits_one(tmp_path, capsys, want):
    out = tmp_path / "mc.csv"
    assert entry(["mc", "--scenario", SCENARIO, "--trials", "2", "--ranges", want,
                  "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"range {want} m" in err
    assert not out.exists()


def test_mc_single_trial_exits_one_before_any_work(tmp_path, capsys, monkeypatch):
    # one trial cannot form a variance; simulate --trials 1 stays valid
    calls = []
    original = hcrb.experiments._bound_rows

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hcrb.experiments, "_bound_rows", counted)
    out = tmp_path / "mc.csv"
    assert entry(["mc", "--scenario", SCENARIO, "--trials", "1", "--ranges", "15",
                  "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trials" in err
    assert calls == []
    assert not out.exists()


def test_singular_geometry_exits_two(tmp_path, capsys):
    doc = json.loads(SCENARIO_FILE.read_text())
    doc["target"] = {"x": 0.0, "y": 7.0, "heading": 90.0}
    path = tmp_path / "bow_on.json"
    path.write_text(json.dumps(doc))
    assert entry(["bounds", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "singular" in err
    # only the parameters with weight in the null space are named
    line = next(s for s in err.splitlines() if "null space involves:" in s)
    named = [name.strip() for name in line.split(":", 1)[1].split(",")]
    assert "d" in named
    assert "phi" not in named and "heading" not in named


def test_fully_shadowed_pose_exit_codes(tmp_path, capsys):
    """With the radar inside the contour no node is lit: the bounds are
    singular (exit 2), and synthesis has no energy to place (exit 1)."""
    doc = json.loads(SCENARIO_FILE.read_text())
    doc["target"] = {"x": 0.1, "y": 0.05, "heading": 30.0}
    path = tmp_path / "inside.json"
    path.write_text(json.dumps(doc))
    for method in ("--exact", "--asymptotic"):
        assert entry(["bounds", "--scenario", str(path), method]) == 2
        assert "no contour point is lit" in capsys.readouterr().err
    assert entry(["simulate", "--scenario", str(path), "--trials", "1"]) == 1
    assert "fully shadowed" in capsys.readouterr().err


def _q257_contour(doc):
    """A circle with a 257th harmonic of 0.9 / 257: its speed nearly
    vanishes 257 times a turn, so the perimeter on every second point of
    the arc-length table is off by 7e-4."""
    m = [0.0] * 257
    m[0], m[-1] = 1.0, 0.9 / 257
    doc["contour"] = {"Q": 257, "m": m, "n": list(m)}


@pytest.mark.parametrize("edit, message", [
    # an astroid: its speed vanishes at its four cusps, all on the grid
    (lambda doc: doc.update(contour={"Q": 3, "m": [3.0, 0.0, 1.0], "n": [3.0, 0.0, -1.0]}),
     "error: contour is not regular: "),
    (_q257_contour, "error: perimeter quadrature not converged: 7.634650588444285 "
                    "vs 7.640031813458245 at 4096 nodes"),
    (lambda doc: doc.update(contour={"Q": 3, "m": [1.0, 0.0, 2.0], "n": [1.0, 0.0, 2.0]}),
     "error: contour crosses itself "),
], ids=("astroid", "q257", "crossing"))
def test_contour_errors_exit_one(tmp_path, capsys, edit, message):
    """Every command refuses a contour the arc-length table does not admit
    when it loads the file, the echo of the normalized file included."""
    path = _vehicle_with(tmp_path, edit)
    out = ["--out", str(tmp_path / "out.csv")]
    for argv in (["bounds"], ["bounds", "--print-normalized"], ["simulate", "--trials", "1"],
                 ["sweep", *out], ["mc", *out], ["diversity", *out]):
        assert entry([argv[0], "--scenario", path, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("db, argv", [
    (1e5, ["bounds"]),
    (-1e5, ["bounds"]),
    (40.0, ["diversity", "--counts", "1,2", "--total-db", "1e5"]),
], ids=("overflow", "underflow", "diversity_total-db"))
def test_out_of_range_e_over_n0_exits_one(tmp_path, capsys, db, argv):
    """A dB value whose linear E/N0 overflows to inf or underflows to 0 is
    a scenario error, in the file or on the command line."""
    path = _vehicle_with(tmp_path, lambda doc: doc["channel"].update(E_over_N0_dB=db))
    assert entry([argv[0], "--scenario", path, *argv[1:],
                  "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: E/N0 of ") and "out of range" in err, err
    assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("edit, argv", [
    # d^2 overflows near 1.3e154 m
    (lambda doc: doc["target"].update(x=1e160), ["bounds"]),
    (lambda doc: None, ["diversity", "--radius", "1e300"]),
], ids=("bounds_far_target", "diversity_radius"))
def test_overflowing_scenario_exits_one(tmp_path, capsys, edit, argv):
    """A scenario whose bound overflows float64 is one error line, exit 1,
    with no traceback and no CSV."""
    path = _vehicle_with(tmp_path, edit)
    out = tmp_path / "out.csv"
    assert entry([argv[0], "--scenario", path, *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: information matrix is not finite") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["bounds"], ["simulate", "--trials", "1"]],
                         ids=("bounds", "simulate"))
def test_sample_count_that_overflows_exits_one(tmp_path, capsys, argv):
    """T = 1e300 s at fs = 2 GHz: T fs overflows, so the file is refused at
    load, one error line and no CSV, where it used to end in a traceback."""
    path = _vehicle_with(tmp_path, lambda doc: doc["waveform"].update(T=1e300))
    out = tmp_path / "out.csv"
    assert entry([*argv, "--scenario", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: waveform duration times sample rate") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("exponent", [160, 400])
@pytest.mark.parametrize("argv", [["--print-normalized"], []], ids=("normalized", "bounds"))
def test_array_size_whose_square_overflows_exits_one(tmp_path, capsys, exponent, argv):
    """The bounds read N^2 - 1 as a float64 (M = pi^2 (N^2 - 1) / 12): an N
    for which it is not finite is refused at load, one error line naming
    the key, even before --print-normalized echoes the file."""
    path = _vehicle_with(tmp_path, lambda doc: doc["radar"][0].update(N=10**exponent))
    assert entry(["bounds", "--scenario", path, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: radar[0].N must be an integer >= 2 with N^2 - 1 finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bounds"],
    ["bounds", "--asymptotic"],
    ["bounds", "--known"],
    ["simulate", "--trials", "1"],
    ["simulate", "--trials", "1", "--point"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_physical_gain_at_an_overflowing_range_exits_one(tmp_path, capsys, argv):
    """Under a physical gain, g = sqrt(G)/d^2: a d^2 beyond float64 is one
    error line, exit 1, before any bound or frame is built."""
    def far(doc):
        doc["channel"] = {"alpha": 5, "gain": 1}
        doc["target"]["x"] = 1e160
    path = _vehicle_with(tmp_path, far)
    assert entry([argv[0], "--scenario", path, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err == ("error: target range 1e+160 m: d^2 overflows float64 "
                   "in the physical-gain model\n")


@pytest.mark.parametrize("edit, argv, message", [
    # the range delay sets the frame's length, the array its rows
    (lambda doc: doc["target"].update(x=1e160), ["simulate", "--trials", "1"],
     "error: synthesis needs 57 x 1.33e+161 complex samples, "),
    (lambda doc: doc["radar"][0].update(N=10**30), ["simulate", "--trials", "1"],
     "error: synthesis needs 1e+30 x 2.01e+04 complex samples, "),
    (lambda doc: doc["quadrature"].update(nodes=8 * 10**30), ["bounds"],
     f"error: quadrature.nodes = {8 * 10**30}: its Fourier basis is "),
], ids=("simulate_far_target", "simulate_large_array", "bounds_large_quadrature"))
def test_arrays_past_numpys_index_range_exit_one(tmp_path, capsys, edit, argv, message):
    """A frame or a Fourier basis with more bytes than numpy can index is
    one error line, exit 1: it is refused before any array of that size is
    asked for, so this test allocates nothing."""
    path = _vehicle_with(tmp_path, edit)
    assert entry([argv[0], "--scenario", path, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err == message + "beyond numpy's array size limit\n"


@pytest.mark.parametrize("argv", [["bounds"], ["simulate", "--trials", "1"]],
                         ids=("bounds", "simulate"))
def test_range_past_float64_exits_one(tmp_path, capsys, argv):
    """A target whose range from the radar overflows float64 is refused at
    load: one error line, exit 1, and no overflow warning before it."""
    path = _vehicle_with(tmp_path, lambda doc: doc["target"].update(x=1.7e308, y=1.7e308))
    assert entry([argv[0], "--scenario", path, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err == ("error: target range inf m: the offset (1.7e+308, 1.7e+308) m "
                   "from a radar overflows float64\n")


def test_radar_facing_asymptotic_unknown_shape_exits_two(tmp_path, capsys):
    """With the bow facing the radar the shape block is singular: the
    asymptotic unknown-shape bound exits 2, the known-shape bound still 0.
    Both limits name the null space's parameters alike, in the state order."""
    doc = json.loads(SCENARIO_FILE.read_text())
    doc["target"]["heading"] = 206.565
    path = tmp_path / "facing.json"
    path.write_text(json.dumps(doc))
    null_lines = {}
    for method in ("asymptotic", "exact"):
        assert entry(["bounds", "--scenario", str(path), f"--{method}"]) == 2
        captured = capsys.readouterr()
        assert "singular" in captured.err and "range variance" not in captured.out
        null_lines[method] = [line for line in captured.err.splitlines()
                              if "null space involves:" in line]
    assert len(null_lines["exact"]) == 1
    assert null_lines["asymptotic"] == null_lines["exact"]
    assert entry(["bounds", "--scenario", str(path), "--asymptotic", "--known"]) == 0


def test_multi_radar_bounds(tmp_path, capsys):
    """Two radars: the known-contour PEB is the pose block's, and no worse."""
    doc = json.loads(SCENARIO_FILE.read_text())
    doc["radar"] = [{"x": 0.0, "y": 0.0, "kappa": 0.0, "N": 30},
                    {"x": 12.0, "y": 0.0, "kappa": 180.0, "N": 30}]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    pebs = {}
    for label in ("known", "unknown"):
        out = tmp_path / f"{label}.csv"
        assert entry(["bounds", "--scenario", str(path), f"--{label}",
                      "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == [f"peb_{label}", f"c_heading_{label}"]
        assert all(r[0] == "bounds:2radars" for r in rows)
        pebs[label] = float(rows[0][3])
    assert pebs["known"] <= pebs["unknown"]
    bundle = load_file(path)
    fused = fuse(bundle.scenario, bundle.target_xy, bundle.heading, bundle.radars)
    assert pebs["known"] == peb(fused.pose_block().crb())


@pytest.mark.parametrize("shape", ["--known", "--unknown"])
def test_multi_radar_asymptotic_is_a_usage_error(tmp_path, capsys, shape):
    """The fused bound is exact only: --asymptotic on two radars exits 1,
    names the flag and writes nothing."""
    doc = json.loads(SCENARIO_FILE.read_text())
    doc["radar"] = [{"x": 0.0, "y": 0.0, "kappa": 0.0, "N": 30},
                    {"x": 12.0, "y": 0.0, "kappa": 180.0, "N": 30}]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "bounds.csv"
    assert entry(["bounds", "--scenario", str(path), "--asymptotic", shape,
                  "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--asymptotic" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_row_count(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert entry(["sweep", "--scenario", SCENARIO, "--points", "3",
                  "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3 * 14
    assert len({line.split(",")[0] for line in lines[1:]}) == 3


def test_rough_vehicle_row_counts(tmp_path, capsys):
    # an alpha = 0 copy of the vehicle: its lit weights kink at the shadow
    # boundaries, so every bound takes the full grid, unsized
    path = _vehicle_with(tmp_path, lambda doc: doc["channel"].update(alpha=0))
    sweep, bounds = tmp_path / "sweep.csv", tmp_path / "bounds.csv"
    assert entry(["sweep", "--scenario", path, "--points", "5",
                  "--out", str(sweep)]) == 0
    assert len(sweep.read_text().splitlines()) == 1 + 5 * 14
    assert entry(["bounds", "--scenario", path, "--exact", "--unknown",
                  "--out", str(bounds)]) == 0
    assert len(bounds.read_text().splitlines()) == 1 + 5


def test_sweep_skipping_every_point_exits_two(tmp_path, capsys):
    """With the bow facing the radar along the whole ray every sweep point is
    singular: each is named on stderr, the CSV keeps only its header, exit 2."""
    doc = json.loads(SCENARIO_FILE.read_text())
    doc["target"]["heading"] = 206.565
    path = tmp_path / "facing.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    assert entry(["sweep", "--scenario", str(path), "--points", "3",
                  "--out", str(out)]) == 2
    assert out.read_text().splitlines() == [
        "sweep,quantity,method,value,units,n_trials,seed"]
    captured = capsys.readouterr()
    assert f"wrote 0 rows to {out}" in captured.out
    skipped = captured.err.splitlines()
    assert len(skipped) == 3
    assert all(line.startswith("skipped range:") for line in skipped)


def test_simulate_deterministic_with_frame_dump(tmp_path, capsys):
    frames = tmp_path / "frames"
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["simulate", "--scenario", SCENARIO, "--trials", "2", "--seed", "3"]
    assert entry(args + ["--dump-frames", str(frames), "--out", str(first)]) == 0
    assert entry(args + ["--out", str(second)]) == 0
    assert first.read_text() == second.read_text()
    names = sorted(p.name for p in frames.iterdir())
    assert names == ["frame_0000.c64", "frame_0000.c64.json",
                     "frame_0001.c64", "frame_0001.c64.json"]
    sidecar = json.loads((frames / "frame_0000.c64.json").read_text())
    assert sidecar["dtype"] == "complex64-interleaved-le"

    rows = first.read_text().splitlines()[1:]
    assert len(rows) == 4
    assert {row.split(",")[1] for row in rows} == {"d_hat", "phi_hat"}
    assert all(row.split(",")[6] == "3" for row in rows)


def test_simulate_is_the_same_at_one_and_two_workers(tmp_path, capsys, monkeypatch):
    # a lone frame splits its work over the workers: the same CSV and the
    # same frame files at one worker and at two
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv(THREADS_ENV, threads)
        frames, out = tmp_path / f"frames_{threads}", tmp_path / f"sim_{threads}.csv"
        assert entry(["simulate", "--scenario", SCENARIO, "--trials", "2",
                      "--dump-frames", str(frames), "--out", str(out)]) == 0
        outputs.append({"csv": out.read_bytes(),
                        **{path.name: path.read_bytes() for path in frames.iterdir()}})
    assert len(outputs[0]) == 1 + 2 * 2
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["bounds", "simulate", "sweep", "mc", "diversity"])
def test_missing_out_directory_exits_one_before_the_command(tmp_path, capsys,
                                                            monkeypatch, command):
    monkeypatch.setitem(hcrb.cli._COMMANDS, command,
                        lambda args, bundle: pytest.fail("the command ran"))
    missing = tmp_path / "missing"
    assert entry([command, "--scenario", SCENARIO,
                  "--out", str(missing / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not missing.exists()


@pytest.mark.parametrize("command", ["bounds", "simulate", "sweep", "mc", "diversity"])
def test_unwritable_out_exits_one(tmp_path, capsys, monkeypatch, command):
    # the table is written to a path that is a directory
    monkeypatch.setitem(hcrb.cli._COMMANDS, command, lambda args, bundle: ResultTable())
    assert entry([command, "--scenario", SCENARIO, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["directory", "unwritable_directory", "empty"])
def test_unwritable_out_exits_one_before_mc_runs(tmp_path, capsys, monkeypatch,
                                                 case):
    # an --out that cannot take the table must not cost the trials
    monkeypatch.setattr(hcrb.cli, "run_mc",
                        lambda *args, **kwargs: pytest.fail("run_mc ran"))
    if case == "directory":
        out = tmp_path
    elif case == "empty":
        out = ""
    else:
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        if os.access(locked, os.W_OK):
            pytest.skip("this user can write into a read-only directory")
        out = locked / "mc.csv"
    assert entry(["mc", "--scenario", SCENARIO, "--trials", "2",
                  "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and err.count("\n") == 1
    assert str(out) in err


def test_dump_frames_onto_a_file_exits_one(tmp_path, capsys, monkeypatch):
    # a frame directory that cannot be made must not cost the workspace
    monkeypatch.setattr(hcrb.waveform, "synthesis_workspace",
                        lambda *args, **kwargs: pytest.fail("synthesis ran"))
    taken = tmp_path / "taken"
    taken.write_text("")
    for target in (taken, taken / "frames"):
        assert entry(["simulate", "--scenario", SCENARIO, "--trials", "1",
                      "--dump-frames", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --dump-frames: cannot make directory {target} (")
        assert err.count("\n") == 1


def test_empty_dump_frames_exits_one_before_synthesis(capsys, monkeypatch):
    monkeypatch.setattr(hcrb.waveform, "synthesis_workspace",
                        lambda *args, **kwargs: pytest.fail("synthesis ran"))
    assert entry(["simulate", "--scenario", SCENARIO, "--trials", "1",
                  "--dump-frames", ""]) == 1
    err = capsys.readouterr().err
    assert err == "error: --dump-frames: empty path\n"


def test_simulate_point_target(capsys):
    assert entry(["simulate", "--scenario", SCENARIO, "--trials", "1",
                  "--point", "--seed", "1"]) == 0
    assert "point target truth" in capsys.readouterr().out


def test_mc_subcommand(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert entry(["mc", "--scenario", SCENARIO, "--trials", "2",
                  "--ranges", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 14 + 8
    assert all(line.split(",")[0].startswith("mc:") for line in lines[1:])


def test_diversity_subcommand(tmp_path, capsys):
    out = tmp_path / "div.csv"
    assert entry(["diversity", "--scenario", SCENARIO, "--counts", "1,2",
                  "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("diversity:1", "peb_known"), ("diversity:1", "peb_unknown"),
        ("diversity:2", "peb_known"), ("diversity:2", "peb_unknown")]
    assert entry(["diversity", "--scenario", SCENARIO, "--counts", "0",
                  "--out", str(out)]) == 1
    assert "invalid radar counts" in capsys.readouterr().err
    assert entry(["diversity", "--scenario", SCENARIO, "--counts", "1-6",
                  "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 6 * 2
