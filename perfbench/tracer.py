"""Outside-in tracer: span-recording wrappers swapped into hcrb's modules.

``install`` finds each layer function by its home module and attribute,
then replaces every attribute of every loaded ``hcrb`` module (and of the
FFT modules) that *is* that function object, so imported aliases such as
``hcrb.experiments.synthesize_frame`` are traced too. ``uninstall`` puts
the originals back. A layer whose function no longer exists records zero
calls, and a computed count that cannot be read off a call (say, after a
refactor changed the argument's type) is left empty; neither raises, and
both are listed in ``missing``. No file of the package is changed.

Spans are kept in memory as tuples ``(name, start, end, parent, op, info)``
where ``parent`` is the index of the enclosing span (or None) and ``info``
a computed count for the call (nodes, flops, bytes, FFT points, or whether
an estimate was confident).
"""

import sys
import time
from contextlib import contextmanager
from functools import wraps


def _rows(values) -> int:
    shape = getattr(values, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _geometry_nodes(args, kwargs, result):
    return int(result.u.size)


def _star_inner_flops(args, kwargs, result):
    # (P1 x K) @ (K x P2) Gram: 2 P1 P2 K flops, read off the argument shapes
    f, g = args[0], args[1]
    return 2 * _rows(f.values) * _rows(g.values) * int(f.arc_weights.size)


def _frame_bytes(args, kwargs, result):
    return int(result.samples.nbytes)


def _fft_points(args, kwargs, result):
    return int(result.size)


def _confident(args, kwargs, result):
    return int(bool(result.confident))


# (layer name, home module, attribute, computed count or None)
LAYERS = (
    ("scenario_io.load_file", "hcrb.scenario_io", "load_file", None),
    ("contour.geometry_table", "hcrb.contour", "geometry_table", _geometry_nodes),
    ("contour.perimeter", "hcrb.contour", "perimeter", None),
    ("contour.arclength_params", "hcrb.contour", "arclength_params", None),
    ("starcalc.star_inner", "hcrb.starcalc", "star_inner", _star_inner_flops),
    ("fisher.efim_exact", "hcrb.fisher", "efim_exact", None),
    ("fisher.hcrb_exact", "hcrb.fisher", "hcrb_exact", None),
    ("asymptotics.t_blocks", "hcrb.asymptotics", "t_blocks", None),
    ("multiradar.fuse", "hcrb.multiradar", "fuse", None),
    ("linalg.solve_spd", "hcrb._linalg", "solve_spd", None),
    ("linalg.invert_info_matrix", "hcrb._linalg", "invert_info_matrix", None),
    ("waveform.synthesis_workspace", "hcrb.waveform", "synthesis_workspace", None),
    ("waveform.synthesize_frame", "hcrb.waveform", "synthesize_frame", _frame_bytes),
    ("waveform.chirp", "hcrb.waveform", "chirp", None),
    ("estimators.estimate", "hcrb.estimators", "estimate", _confident),
    ("estimators.estimate_direction", "hcrb.estimators", "estimate_direction", None),
    ("estimators.estimate_range", "hcrb.estimators", "estimate_range", None),
    ("experiments.run_range_sweep", "hcrb.experiments", "run_range_sweep", None),
    ("experiments.run_diversity", "hcrb.experiments", "run_diversity", None),
    ("experiments.run_mc", "hcrb.experiments", "run_mc", None),
    ("fft", "numpy.fft", "fft", _fft_points),
    ("fft", "numpy.fft", "ifft", _fft_points),
    ("fft", "scipy.fft", "fft", _fft_points),
    ("fft", "scipy.fft", "ifft", _fft_points),
)

# Spans under these belong to the per-frame pipeline.
FRAME_ROOTS = ("waveform.synthesize_frame", "estimators.estimate")
# Orchestration spans: their self time is not layer work, so it does not
# count towards trace.coverage.
ORCHESTRATION = ("experiments.run_range_sweep", "experiments.run_diversity",
                 "experiments.run_mc")
OP = "op"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.missing = []
        self._stack = []
        self._op = None
        self._patches = []

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start, info):
        end = self.clock()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self._op, info)

    @contextmanager
    def span(self, name):
        index, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(index, parent, name, start, None)

    @contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            with self.span(OP):
                yield
        finally:
            self._op = None

    def wrap(self, name, fn, count=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = self.clock()
            info = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    try:
                        info = count(args, kwargs, result)
                    except Exception as err:  # the layer's data changed shape
                        self._note(f"{name}: count failed ({type(err).__name__})")
                return result
            finally:
                self._close(index, parent, name, start, info)

        return traced

    def _note(self, problem):
        if problem not in self.missing:
            self.missing.append(problem)

    def install(self, layers=LAYERS):
        """Swap a wrapper in for every module attribute bound to a layer."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hcrb" or key.startswith("hcrb."))]
        for name, home, attr, count in layers:
            owner = sys.modules.get(home)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self._note(f"{home}.{attr}")
                continue
            traced = self.wrap(name, fn, count)
            for module in [owner] + modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, traced)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = [[] for _ in spans]
    for index, (_, start, end, parent, _, _) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, reach), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                reach = k_end
        out.append((end - start) - covered)
    return out


def in_frame(spans):
    """Whether each span runs inside the per-frame pipeline."""
    flags = []
    for name, _, _, parent, _, _ in spans:
        flags.append(name in FRAME_ROOTS or (parent is not None and flags[parent]))
    return flags


def layer_metrics(spans):
    """Per-layer metrics from the spans of whole traced ops."""
    selfs = self_times(spans)
    frame = in_frame(spans)
    ops = [i for i, s in enumerate(spans) if s[0] == OP]
    n_ops = len(ops)

    calls, self_s, info = {}, {}, {}
    frame_calls, frame_self, frame_info = {}, {}, {}
    for span, own, inside in zip(spans, selfs, frame):
        name, value = span[0], span[5] or 0
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        info[name] = info.get(name, 0) + value
        if inside:
            frame_calls[name] = frame_calls.get(name, 0) + 1
            frame_self[name] = frame_self.get(name, 0.0) + own
            frame_info[name] = frame_info.get(name, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    n_frames = calls.get("waveform.synthesize_frame", 0)
    metrics = {}
    for name in ("contour.geometry_table", "starcalc.star_inner", "fisher.efim_exact",
                 "fisher.hcrb_exact", "multiradar.fuse", "linalg.solve_spd"):
        metrics[f"{name}.calls_per_op"] = ratio(calls.get(name, 0), n_ops)
    for name in ("contour.geometry_table", "starcalc.star_inner", "fisher.efim_exact",
                 "asymptotics.t_blocks", "multiradar.fuse",
                 "linalg.invert_info_matrix", "contour.perimeter",
                 "contour.arclength_params", "experiments.run_range_sweep",
                 "experiments.run_diversity", "experiments.run_mc",
                 "experiments.csv"):
        metrics[f"{name}.self_ms_per_op"] = 1e3 * ratio(self_s.get(name, 0.0), n_ops)
    metrics["contour.geometry_table.nodes_per_call"] = ratio(
        info.get("contour.geometry_table", 0), calls.get("contour.geometry_table", 0))
    metrics["starcalc.star_inner.gflop_per_op"] = 1e-9 * ratio(
        info.get("starcalc.star_inner", 0), n_ops)
    metrics["waveform.synthesis_workspace.self_ms_per_call"] = 1e3 * ratio(
        self_s.get("waveform.synthesis_workspace", 0.0),
        calls.get("waveform.synthesis_workspace", 0))
    metrics["waveform.synthesize_frame.self_ms_per_frame"] = 1e3 * ratio(
        self_s.get("waveform.synthesize_frame", 0.0), n_frames)
    metrics["waveform.synthesize_frame.bytes_per_frame"] = ratio(
        info.get("waveform.synthesize_frame", 0), n_frames)
    metrics["waveform.chirp.calls_per_frame"] = ratio(
        frame_calls.get("waveform.chirp", 0), n_frames)
    metrics["fft.calls_per_frame"] = ratio(frame_calls.get("fft", 0), n_frames)
    metrics["fft.points_per_frame"] = ratio(frame_info.get("fft", 0), n_frames)
    metrics["fft.self_ms_per_frame"] = 1e3 * ratio(frame_self.get("fft", 0.0), n_frames)
    for name in ("estimators.estimate_direction", "estimators.estimate_range"):
        metrics[f"{name}.self_ms_per_frame"] = 1e3 * ratio(
            self_s.get(name, 0.0), n_frames)
    metrics["estimators.confident_ratio"] = ratio(
        info.get("estimators.estimate", 0), calls.get("estimators.estimate", 0))

    # Share of op time spent in the self time of layer spans: time that
    # falls into the op's or an orchestrator's own code is not covered, so
    # a layer function that disappears lowers it.
    op_time = sum(spans[i][2] - spans[i][1] for i in ops)
    covered = sum(own for span, own in zip(spans, selfs)
                  if span[0] != OP and span[0] not in ORCHESTRATION)
    metrics["trace.coverage"] = ratio(covered, op_time)
    return metrics
