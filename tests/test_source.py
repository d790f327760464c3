"""Rules on the package source itself, and on the README's example."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import scipy.constants

import hcrb
from hcrb.scenario_io import _OMITTED, _POLAR_TARGET, _REQUIRED, _SCHEMA

ROOT = Path(__file__).resolve().parent.parent


def test_package_has_no_assert_statements():
    # an assert vanishes under python -O, so no check may rest on one
    modules = sorted(Path(hcrb.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_IMPORT_PROBE = """
import json, sys
import hcrb
from hcrb.cli import entry
from hcrb.experiments import run_range_sweep
from hcrb.scenario_io import load_file

def loaded():
    return {name: name in sys.modules
            for name in ("scipy.fft", "scipy._lib._util", "scipy.optimize",
                         "scipy.linalg", "scipy.constants")}

entry(["bounds", "--scenario", sys.argv[1]])
bundle = load_file(sys.argv[1])
sc = bundle.scenario
run_range_sweep(sc, 3)
hcrb.t_blocks(sc)
hcrb.fuse(sc, bundle.target_xy, bundle.heading,
          hcrb.uniform_constellation(bundle.target_xy, 2, radius=7.0))
bounds = {"waveform": "hcrb.waveform" in sys.modules, **loaded()}
from hcrb.waveform import synthesis_workspace, synthesize_frame
frame = synthesize_frame(synthesis_workspace(sc, bundle.segmentation), seed=0)
hcrb.estimate(frame, sc.waveform)
print(json.dumps({"bounds": bounds, "estimate": loaded()}))
"""


def test_no_process_loads_scipy_optimize_linalg_or_constants():
    # a fresh process that computes bounds (hcrb bounds, a sweep, the
    # long-range limit, a fusion) imports neither hcrb.waveform nor any
    # SciPy FFT (nor scipy._lib._util, which it would bring); once it has
    # synthesized and estimated a frame, scipy.fft is loaded, which shows
    # the probe sees loaded modules. No stage imports scipy.optimize (the
    # estimators' polish is in-package), scipy.linalg (_linalg loads
    # LAPACK's extension from its file) nor scipy.constants (SPEED_OF_LIGHT
    # is scenario's literal)
    env = {**os.environ, "PYTHONPATH": str(Path(hcrb.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                          str(ROOT / "scenarios" / "vehicle.json")],
                         capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded["bounds"] == {"waveform": False, "scipy.fft": False,
                                "scipy._lib._util": False, "scipy.optimize": False,
                                "scipy.linalg": False, "scipy.constants": False}
    assert loaded["estimate"] == {"scipy.fft": True, "scipy._lib._util": True,
                                  "scipy.optimize": False, "scipy.linalg": False,
                                  "scipy.constants": False}


def test_waveform_reexports_the_frame_names():
    # hcrb.waveform.<name> is still each name that moved to hcrb.frames
    # (perfbench traces hcrb.waveform.synthesize_frame and .chirp)
    import hcrb.frames
    import hcrb.waveform

    moved = {name for name, value in vars(hcrb.frames).items()
             if getattr(value, "__module__", None) == "hcrb.frames"}
    assert moved == {"chirp", "effective_bandwidth", "steering", "SignalFrame",
                     "synthesize_frame", "dump_frame"}
    for name in moved:
        assert getattr(hcrb.waveform, name) is getattr(hcrb.frames, name), name


def test_speed_of_light_is_scipys_constant():
    assert hcrb.scenario.SPEED_OF_LIGHT == scipy.constants.c


def test_readme_library_example_runs(monkeypatch):
    # the example imports only names the package exports, and runs as
    # written from the repository root: one frame and one three-radar fuse
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    monkeypatch.chdir(ROOT)
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})


def test_readme_lists_every_scenario_key_with_its_kind_and_default():
    # the "Scenario files" table has one row per key of the schema, no
    # more: its kind's phrase, and its default unless computed or omitted
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    rows = {line.split("|")[1].strip(): line for line in section.splitlines()
            if line.startswith("| `")}
    names = set()
    for name, fields in [*_SCHEMA.items(), ("target", _POLAR_TARGET)]:
        prefix = "radar[]" if name == "radar" else name
        for key, ((phrase, _), default) in fields.items():
            names.add(f"`{prefix}.{key}`")
            row = rows.get(f"`{prefix}.{key}`", "")
            assert f"| {phrase} |" in row, f"{prefix}.{key}: {row!r}"
            if default is _REQUIRED:
                assert "required" in row, row
            elif not callable(default) and default is not _OMITTED:
                assert f"| {default:g} " in row, row
    assert set(rows) == names


def test_readme_code_names_resolve():
    # every backticked module.name or Class.attr whose head is a module or
    # class of the package names something in it; scenario keys such as
    # contour.Q are the key table's (the test above)
    readme = (ROOT / "README.md").read_text()
    package = Path(hcrb.__file__).parent
    modules = {path.stem: importlib.import_module(f"hcrb.{path.stem}")
               for path in package.glob("*.py") if path.stem != "__init__"}
    classes = {name: value for module in modules.values() for name, value in vars(module).items()
               if isinstance(value, type) and value.__module__ == module.__name__}
    keys = {f"{name}.{key}" for name, fields in [*_SCHEMA.items(), ("target", _POLAR_TARGET)]
            for key in fields}
    cited, missing = set(), set()
    for span in re.findall(r"`([^`\n]+)`", readme):
        found = re.match(r"(\w+)\.(\w+)", span)
        if found is None or found.group(0) in keys:
            continue
        head, name = found.groups()
        owner = modules.get(head, classes.get(head))
        if owner is not None:
            cited.add(found.group(0))
            if not hasattr(owner, name) and name not in getattr(owner, "__dataclass_fields__", {}):
                missing.add(found.group(0))
    assert len(cited) >= 20
    assert missing == set()
