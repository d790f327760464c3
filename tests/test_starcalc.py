"""Star-product calculus: inner products, projections, the doubled grid."""

import sys
import threading
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from referees import project, project_perp, star_norm_sq

from hcrb._linalg import invert_info_matrix, solve_spd, triangular_factor
from hcrb.errors import IdentifiabilityError, ScenarioError
from hcrb.starcalc import SampledField, star_inner

values = st.floats(-5.0, 5.0)
weights = st.floats(0.1, 3.0)


@st.composite
def field_triples(draw):
    k = draw(st.integers(4, 32))
    arc = draw(arrays(np.float64, k, elements=weights))
    du = draw(st.floats(0.01, 1.0))
    vecs = [draw(arrays(np.float64, k, elements=values)) for _ in range(3)]
    return [SampledField(v, arc, du) for v in vecs]


@given(field_triples(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_inner_is_symmetric_and_bilinear(fields, a, b):
    f, g, h = fields
    assert star_inner(f, g) == pytest.approx(star_inner(g, f), abs=1e-12)
    combo = f.with_values(a * f.values + b * g.values)
    lhs = star_inner(combo, h)
    rhs = a * star_inner(f, h) + b * star_inner(g, h)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(field_triples())
def test_cauchy_schwarz_and_positivity(fields):
    f, g, _ = fields
    nf, ng = star_norm_sq(f), star_norm_sq(g)
    assert nf >= 0.0 and ng >= 0.0
    assert star_inner(f, g) ** 2 <= nf * ng * (1.0 + 1e-9) + 1e-12


@given(field_triples())
def test_projection_decomposition(fields):
    f, basis, _ = fields
    assume(star_norm_sq(basis) > 1e-6)
    par = project(f, basis)
    perp = project_perp(f, basis)
    scale = max(star_norm_sq(f), 1.0)
    # f = P f + P_perp f, and the two parts are orthogonal
    npt.assert_allclose(par.values + perp.values, f.values, atol=1e-9)
    assert abs(star_inner(perp, basis)) <= 1e-9 * scale
    # Pythagoras
    assert star_norm_sq(f) == pytest.approx(
        star_norm_sq(par) + star_norm_sq(perp), rel=1e-9, abs=1e-9
    )
    # idempotence
    again = project_perp(perp, basis)
    npt.assert_allclose(again.values, perp.values, atol=1e-9 * np.sqrt(scale))


def test_constant_field_norm_is_perimeter():
    k = 128
    arc = np.full(k, 2.0)  # circle of radius 2
    du = 2.0 * np.pi / k
    ones = SampledField(np.ones(k), arc, du)
    assert star_norm_sq(ones) == pytest.approx(4.0 * np.pi, rel=1e-12)


def test_stacked_basis_gram():
    k = 64
    u = np.arange(k) * (2.0 * np.pi / k)
    arc = np.ones(k)
    du = 2.0 * np.pi / k
    basis = SampledField(np.stack([np.cos(u), np.sin(u)]), arc, du)
    gram = np.asarray(star_inner(basis, basis))
    npt.assert_allclose(gram, np.pi * np.eye(2), atol=1e-12)
    f = SampledField(3.0 * np.cos(u) + 0.5 * np.sin(u) + 2.0 * np.cos(2 * u), arc, du)
    perp = project_perp(f, basis)
    npt.assert_allclose(perp.values, 2.0 * np.cos(2 * u), atol=1e-10)


def test_singular_gram_raises_without_a_warning():
    # a rank-deficient basis raises; it is never regularized into an answer
    gram = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IdentifiabilityError, match="singular"):
            solve_spd(gram, np.ones(2))
    npt.assert_allclose(solve_spd(np.diag([2.0, 4.0]), np.ones(2)), [0.5, 0.25])


def test_covariance_from_a_factor():
    rng = np.random.default_rng(8)
    factor = rng.normal(size=(5, 40))
    expected = np.linalg.inv(factor @ factor.T)
    npt.assert_allclose(invert_info_matrix(triangular_factor(factor.copy())), expected,
                        rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    # three columns for five parameters: J = F F^T has two null directions
    with pytest.raises(IdentifiabilityError, match="singular") as err:
        invert_info_matrix(triangular_factor(factor[:, :3].copy()),
                           labels=list("abcde"))
    assert err.value.null_space.shape == (5, 2)
    assert err.value.labels == list("abcde")


@pytest.mark.parametrize("p", [3, 23])
@pytest.mark.parametrize("n", [1, 2, 5, 7, 23, 6141])
def test_triangular_factor_over_shapes(p, n):
    # the blocked QR's block is clamped to min(P, N): every shape factors
    rows = np.random.default_rng(p * 10_000 + n).normal(size=(p, n))
    gram = rows @ rows.T
    r = triangular_factor(rows.copy())
    assert r.shape == (p, p)
    npt.assert_allclose(r.T @ r, gram, rtol=1e-13, atol=1e-13 * np.abs(gram).max())
    # R agrees with numpy's QR up to the sign of each row
    ref = np.linalg.qr(rows.T, mode="r")
    k = min(p, n)
    signs = np.sign(np.diag(r)[:k]) * np.sign(np.diag(ref))
    npt.assert_allclose(r[:k], signs[:, None] * ref, rtol=0,
                        atol=1e-12 * np.abs(ref).max())
    assert not r[k:].any()


def test_grid_mismatch_rejected():
    f = SampledField(np.ones(8), np.ones(8), 0.1)
    g = SampledField(np.ones(8), 2.0 * np.ones(8), 0.1)
    with pytest.raises(ScenarioError):
        star_inner(f, g)
    with pytest.raises(ScenarioError):
        SampledField(np.ones(4), -np.ones(4), 0.1)


def test_with_values_keeps_the_grid_and_checks_length():
    f = SampledField(np.ones(8), np.full(8, 2.0), 0.1)
    g = f.with_values(np.arange(16.0).reshape(2, 8))
    assert g.arc_weights is f.arc_weights and g.du is f.du
    assert g.values.shape == (2, 8) and f.values.shape == (8,)
    with pytest.raises(ScenarioError):
        f.with_values(np.ones(7))


def test_star_inner_agrees_across_threads():
    # star_inner keeps no state between calls: threads calling it at once
    # each get their own Gram
    rng = np.random.default_rng(11)
    k = 512
    arc = rng.uniform(0.5, 2.0, k)
    fields = [SampledField(rng.normal(size=(rows, k)), arc, 0.01)
              for rows in (1, 3, 7, 12)]
    expected = [np.asarray(star_inner(f, f)) for f in fields]
    results = [[] for _ in fields]

    def work(index):
        for _ in range(200):
            results[index].append(np.asarray(star_inner(fields[index], fields[index])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(expected, results):
        assert len(got) == 200
        assert all(np.array_equal(g, want) for g in got)
