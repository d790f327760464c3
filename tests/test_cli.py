"""End-to-end checks of the hcrb command line."""

import json
import os

import numpy as np
import pytest

from conftest import SCENARIO_FILE

import hcrb.cli
import hcrb.experiments
from hcrb import __version__
from hcrb.cli import entry
from hcrb.experiments import ResultTable, _bound_rows
from hcrb.multiradar import fuse, peb
from hcrb.scenario_io import SCHEMA_VERSION, dumps_normalized, load_file, normalize

SCENARIO = str(SCENARIO_FILE)


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
    _bound_rows(sweep, "pose", bundle.scenario, 0)
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

    doc = json.loads(SCENARIO_FILE.read_text())
    doc["bogus"] = {}
    bad.write_text(json.dumps(doc))
    assert entry(["bounds", "--scenario", str(bad)]) == 1
    assert "unknown top-level" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["diversity", "--counts", "1-2,4"],
    ["diversity", "--counts", "a"],
    ["diversity", "--seed", "-1"],
    ["sweep", "--seed", "-1"],
    ["sweep", "--points", "-3"],
    ["sweep", "--points", "0"],
    ["mc", "--ranges", "10,abc"],
    ["mc", "--seed", "-1"],
    ["mc", "--trials", "-1"],
    ["simulate", "--seed", "-1"],
    ["simulate", "--trials", "-1"],
    ["simulate", "--trials", "0"],
    ["sweep", "--seed", "abc"],
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
], ids=("no_scenario", "unknown_option", "no_subcommand"))
def test_usage_errors_exit_one(capsys, argv):
    # argparse would exit 2, the code for a singular matrix
    assert entry(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hcrb")


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


@pytest.mark.parametrize("case", ["directory", "unwritable_directory"])
def test_unwritable_out_exits_one_before_mc_runs(tmp_path, capsys, monkeypatch,
                                                 case):
    # an --out that cannot take the table must not cost the trials
    monkeypatch.setattr(hcrb.cli, "run_mc",
                        lambda *args, **kwargs: pytest.fail("run_mc ran"))
    if case == "directory":
        out = tmp_path
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


def test_dump_frames_onto_a_file_exits_one(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert entry(["simulate", "--scenario", SCENARIO, "--trials", "1",
                  "--dump-frames", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err


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
