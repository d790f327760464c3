"""Output checks. An op whose rows fail any check counts as a failed op.

Every seed gets the invariant checks. On the canonical seed the untimed op
and the first ops (as many as ``capture_reference.CAPTURED_OPS`` names)
are also compared with ``reference.json``, captured from the baseline
commit by ``capture_reference.py``:

- bound rows (methods exact, asymptotic, point_target) at relative 1e-6,
  loose enough for BLAS reordering and a converged quadrature, tight enough
  for a real error;
- Monte Carlo rows and simulate estimates at an absolute tolerance stored
  with each row, one hundredth of the row's Monte Carlo standard error (or
  of the point-target CRB deviation for single estimates).
"""

import json
import math
from pathlib import Path

CANONICAL_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
BOUND_REL_TOL = 1e-6
BOUND_METHODS = ("exact", "asymptotic", "point_target")

# Criterion 4 of the acceptance suite: beyond 40 m the known-contour bound
# matches the point-target CRB within 5 % and the unknown-contour closed
# forms match the exact bound within 10 %. The criterion is stated for the
# shipped 90 degree heading; at the baseline the ratios reach 2.07 (known/
# point range at 60 degrees) and 0.33 (asymptotic/exact at 110 degrees), so
# the check applies only within HEADING_WINDOW_DEG of 90 degrees.
FAR_RANGE_M = 40.0
KNOWN_POINT_TOL = 0.05
ASYMPTOTIC_TOL = 0.10
SHIPPED_HEADING_DEG = 90.0
HEADING_WINDOW_DEG = 5.0

# Estimates of an extended target land on the contour, not at its centre.
EXTENT_MARGIN_M = 0.5


def _isfinite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _by_sweep(rows):
    grouped = {}
    for sweep, quantity, method, value, n_trials in rows:
        grouped.setdefault(sweep, {})[(quantity, method)] = (value, n_trials)
    return grouped


def _sweep_distance(sweep: str):
    kind, _, where = sweep.partition(":")
    return float(where) if kind in ("range", "mc") else None


def check_bound_invariants(rows, heading_deg=None):
    """Problems found in bound, diversity and Monte Carlo rows (list of str)."""
    problems = []
    for sweep, quantity, method, value, n_trials in rows:
        if not _isfinite(value):
            problems.append(f"{sweep} {quantity}/{method} is not finite: {value!r}")
        elif (method in BOUND_METHODS or quantity.startswith(("peb_", "var_"))) \
                and not value > 0.0:
            problems.append(f"{sweep} {quantity}/{method} is not positive: {value!r}")
        if method == "monte_carlo" and n_trials < 2:
            problems.append(f"{sweep} {quantity}: only {n_trials} confident trials")
    if problems:
        return problems

    near_shipped = heading_deg is None or \
        abs(heading_deg - SHIPPED_HEADING_DEG) <= HEADING_WINDOW_DEG
    for sweep, vals in _by_sweep(rows).items():
        def get(quantity, method):
            hit = vals.get((quantity, method))
            return None if hit is None else hit[0]

        for method in ("exact", "asymptotic"):
            for axis in ("range", "bearing", "heading"):
                known = get(f"c_{axis}_known", method)
                unknown = get(f"c_{axis}_unknown", method)
                if known is not None and unknown is not None \
                        and unknown < known * (1.0 - 1e-9):
                    problems.append(f"{sweep} c_{axis} {method}: unknown {unknown!r} "
                                    f"< known {known!r}")
        # Heading carries the bearing floor plus a contour term. The exact
        # unknown-contour bound is left out: its bearing term exceeds the
        # heading term at close range for headings below about 72 degrees.
        for label, method in (("known", "exact"), ("known", "asymptotic"),
                              ("unknown", "asymptotic")):
            heading = get(f"c_heading_{label}", method)
            bearing = get(f"c_bearing_{label}", method)
            if heading is not None and bearing is not None and heading < bearing:
                problems.append(f"{sweep} {label}/{method}: c_heading {heading!r} "
                                f"< c_bearing {bearing!r}")
        known_peb, unknown_peb = get("peb_known", "exact"), get("peb_unknown", "exact")
        if known_peb is not None and unknown_peb is not None \
                and unknown_peb < known_peb * (1.0 - 1e-9):
            problems.append(f"{sweep} peb: unknown {unknown_peb!r} < known {known_peb!r}")

        dist = _sweep_distance(sweep)
        if not near_shipped or dist is None or dist <= FAR_RANGE_M:
            continue
        for axis in ("range", "bearing"):
            known = get(f"c_{axis}_known", "exact")
            point = get(f"c_{axis}_point", "point_target")
            if known is not None and point is not None \
                    and abs(known / point - 1.0) >= KNOWN_POINT_TOL:
                problems.append(f"{sweep} c_{axis}: known/point = {known / point:.4f}")
        for axis in ("range", "heading"):
            exact = get(f"c_{axis}_unknown", "exact")
            asym = get(f"c_{axis}_unknown", "asymptotic")
            if exact is not None and asym is not None \
                    and abs(asym / exact - 1.0) >= ASYMPTOTIC_TOL:
                problems.append(f"{sweep} c_{axis}_unknown: asymptotic/exact = "
                                f"{asym / exact:.4f}")
    return problems


def contour_extent(document) -> float:
    """Upper bound on the contour radius from its Fourier coefficients."""
    m = sum(abs(c) for c in document["contour"]["m"])
    n = sum(abs(c) for c in document["contour"]["n"])
    return math.hypot(m, n)


def check_estimates(rows, inputs, extent_m):
    """Simulate rows: finite, and on the target's extent when confident.

    A low-confidence estimate is an outcome the program reports, not an
    error: ``hcrb simulate`` flags it and ``run_mc`` leaves it out of the
    variance. Its share is the traced ``estimators.confident_ratio``.
    """
    problems = []
    d_true = inputs["range_m"]
    phi_true = math.radians(inputs["bearing_deg"])
    reach = extent_m + EXTENT_MARGIN_M
    max_dphi = math.asin(min(1.0, reach / d_true))
    for sweep, quantity, _method, value, confident in rows:
        if not _isfinite(value):
            problems.append(f"{sweep} {quantity} is not finite: {value!r}")
            continue
        if not confident:
            continue
        if quantity == "d_hat" and abs(value - d_true) > reach:
            problems.append(f"{sweep} d_hat {value:.4f} m is off the target "
                            f"({d_true:.4f} m +- {reach:.2f} m)")
        if quantity == "phi_hat":
            error = math.remainder(value - phi_true, 2.0 * math.pi)
            if abs(error) > max_dphi:
                problems.append(f"{sweep} phi_hat off by {error:.4f} rad "
                                f"(limit {max_dphi:.4f})")
    return problems


def compare_reference(rows, reference_rows):
    """Problems from comparing rows with reference rows.

    A reference row is (sweep, quantity, method, value, n_trials, abs_tol);
    abs_tol None means the bound tolerance, relative BOUND_REL_TOL.
    Rows absent from the reference are covered by the invariants only.
    """
    have = {(r[0], r[1], r[2]): r for r in rows}
    problems = []
    for sweep, quantity, method, ref_value, ref_trials, abs_tol in reference_rows:
        row = have.get((sweep, quantity, method))
        if row is None:
            problems.append(f"{sweep} {quantity}/{method} missing (reference has it)")
            continue
        value, n_trials = row[3], row[4]
        tol = BOUND_REL_TOL * abs(ref_value) if abs_tol is None else abs_tol
        if not abs(value - ref_value) <= tol:
            problems.append(f"{sweep} {quantity}/{method} = {value!r}, reference "
                            f"{ref_value!r} (tolerance {tol:.3g})")
        if method == "monte_carlo" and n_trials != ref_trials:
            problems.append(f"{sweep} {quantity}: {n_trials} confident trials, "
                            f"reference {ref_trials}")
    return problems


def load_reference(workload, path=REFERENCE_FILE):
    """Reference ops of one workload, by op index, each with rows
    ``[sweep, quantity, method, value, n_trials, abs_tol]``."""
    with open(path) as handle:
        part = json.load(handle)["workloads"][workload]
    ops = {}
    for op in part["ops"]:
        keys = part["layouts"][op["layout"]]
        n = len(keys)
        rows = [[*key, value, n_trials, tol] for key, value, n_trials, tol in
                zip(keys, op["values"], op.get("n_trials", [0] * n),
                    op.get("abs_tol", [None] * n))]
        ops[op["index"]] = {"inputs": op["inputs"], "raises": op["raises"], "rows": rows}
    return ops


class Checker:
    """Runs every check that applies to one op of one workload.

    Calling it runs the invariant checks. On the canonical seed,
    ``reference_problems`` also compares an op with the reference; the
    benchmark calls it only after the measurement, so loading the reference
    costs neither time nor peak RSS of the measured phase. It counts the
    ops it compared and those beyond the captured ones, which get the
    invariant checks only.
    """

    def __init__(self, workload, seed, document):
        self.workload = workload
        self.extent_m = contour_extent(document)
        self.canonical = seed == CANONICAL_SEED
        self.reference = None
        self.compared = 0
        self.unreferenced = 0

    def __call__(self, index, inputs, rows):
        if self.workload == "simulate":
            return check_estimates(rows, inputs, self.extent_m)
        return check_bound_invariants(rows, inputs.get("heading_deg"))

    def reference_problems(self, index, inputs, rows):
        if not self.canonical:
            return []
        if self.reference is None:
            self.reference = load_reference(self.workload)
        ref = self.reference.get(index)
        if ref is None:
            self.unreferenced += 1
            return []
        self.compared += 1
        if ref["inputs"] != inputs:
            return [f"op {index} inputs {inputs} differ from the "
                    f"reference inputs {ref['inputs']}"]
        return compare_reference(rows, ref["rows"])
