"""The worker pool and the OpenBLAS thread limit it holds while it runs."""

import threading

import numpy as np
import pytest

import hcrb.experiments
from hcrb._pool import THREADS_ENV, map_items, map_workers, openblas_libraries
from hcrb.experiments import run_mc


def _counts():
    return [get() for get, _ in openblas_libraries()]


@pytest.fixture
def blas_at_two():
    """Every OpenBLAS at 2 threads (so 1 inside a map is visible), and the
    original counts back afterwards."""
    original = _counts()
    for _, put in openblas_libraries():
        put(2)
    yield _counts()
    for (_, put), count in zip(openblas_libraries(), original):
        put(count)


def test_pooled_items_see_one_blas_thread(monkeypatch, blas_at_two):
    monkeypatch.setenv(THREADS_ENV, "2")
    seen = map_items(lambda _: _counts(), range(6))
    assert seen == [[1] * len(blas_at_two)] * 6
    assert _counts() == blas_at_two


def test_serial_map_leaves_blas_alone(monkeypatch, blas_at_two):
    monkeypatch.setenv(THREADS_ENV, "1")
    assert map_items(lambda _: _counts(), range(3)) == [blas_at_two] * 3


def test_failing_map_restores_blas_counts(monkeypatch, blas_at_two):
    monkeypatch.setenv(THREADS_ENV, "3")

    def fails_on_four(x):
        if x == 4:
            raise ValueError("four")
        return x

    with pytest.raises(ValueError, match="four"):
        map_items(fails_on_four, range(9))
    assert _counts() == blas_at_two


def test_nested_and_concurrent_maps_restore_blas_counts(monkeypatch, blas_at_two):
    # the first map to enter sets the counts, the last to leave restores them
    monkeypatch.setenv(THREADS_ENV, "2")
    overlap = threading.Barrier(2)
    seen = []

    def leaf(_):
        seen.append(_counts())

    def inner(_):
        seen.append(_counts())
        map_items(leaf, range(2))

    def outer():
        overlap.wait()
        for _ in range(5):
            map_items(inner, range(4))

    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == [[1] * len(blas_at_two)] * (2 * 5 * 4 * 3)
    assert _counts() == blas_at_two


def test_nested_maps_stay_on_their_thread(monkeypatch):
    # an inner map on the caller would otherwise queue its items behind the
    # outer map's items on the pool threads
    monkeypatch.setenv(THREADS_ENV, "2")

    def outer(_):
        return threading.get_ident(), map_items(
            lambda _: threading.get_ident(), range(3))

    seen = map_items(outer, range(4))
    assert seen[0][0] == threading.get_ident()
    assert len({thread for thread, _ in seen}) == 2
    for thread, inner in seen:
        assert inner == [thread] * 3


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_map_workers_is_one_inside_a_pooled_map(monkeypatch, threads):
    monkeypatch.setenv(THREADS_ENV, threads)
    assert map_workers() == int(threads)
    assert map_items(lambda _: map_workers(), range(4)) == [1] * 4
    assert map_workers() == int(threads)


def test_run_mc_restores_blas_counts(scenario, monkeypatch, blas_at_two):
    monkeypatch.setenv(THREADS_ENV, "2")
    run_mc(scenario, ranges=(10.0,), trials=2, seed=5)
    assert _counts() == blas_at_two

    def broken(frame, wf):
        raise FloatingPointError("estimator failed")

    monkeypatch.setattr(hcrb.experiments, "estimate", broken)
    with pytest.raises(FloatingPointError):
        run_mc(scenario, ranges=(10.0,), trials=2, seed=5)
    assert _counts() == blas_at_two


def test_openblas_is_found_when_numpy_uses_it():
    # on the OpenBLAS wheels the limit must not silently find nothing
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not report its BLAS")
    if "scipy-openblas" not in str(blas.get("name", "")):
        pytest.skip(f"numpy uses {blas.get('name')!r}, not scipy-openblas")
    libraries = openblas_libraries()
    assert libraries
    assert all(get() >= 1 for get, _ in libraries)
