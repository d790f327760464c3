"""The thread pool behind the Monte Carlo trials, the delayed chirps and
the two hot spots of a frame run on its own.

map_items runs a function over items on worker_count() threads: the
caller and pool threads kept for the life of the process. A map started
inside a pooled map, on the caller or a pool thread, runs serially;
map_workers() tells a caller how many workers its map would get, so it
can size its work to them. While a pooled map runs, every OpenBLAS
library in the process is held to one thread: a GEMM issued from a pool
thread otherwise wakes OpenBLAS's own worker thread, which spins beside
the pool's threads for the core they need. The limit changes OpenBLAS's
process-wide thread count for the length of the map, and does nothing
where no OpenBLAS can be found (no /proc, or another BLAS).
"""

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache

from .errors import ScenarioError

THREADS_ENV = "HCRB_THREADS"


def worker_count() -> int:
    """Workers: HCRB_THREADS if set (1 runs serially), otherwise the CPUs
    this process may run on."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        count = None
    if count is None or count < 1:
        raise ScenarioError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return count


# (get, set) thread-count symbols, in the order they are tried
_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("openblas_", "scipy_openblas_") for suffix in ("", "64_"))


@lru_cache(maxsize=1)
def openblas_libraries() -> tuple:
    """(get_num_threads, set_num_threads) of each OpenBLAS in the process.

    Libraries are found by name among the files mapped into the process;
    numpy and scipy wheels each bring their own, with prefixed and
    64-bit-suffixed symbol names. Empty without /proc or without OpenBLAS.
    """
    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in fields[5]:
                    paths.add(fields[5].strip())
    except OSError:
        return ()
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                found.append((get, put))
                break
    return tuple(found)


class _OneBlasThread:
    """Context manager holding every OpenBLAS to one thread.

    Nested and concurrent maps share one depth count: the first to enter
    saves and sets the counts, the last to leave restores them.
    (openblas_set_num_threads_local is no help: in pthreads builds it is
    process-wide as well.)
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                libraries = openblas_libraries()
                self._saved = tuple((put, get()) for get, put in libraries)
                for put, _ in self._saved:
                    put(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for put, count in self._saved:
                    put(count)


_ONE_BLAS_THREAD = _OneBlasThread()

# executors by (process, thread count), kept for the life of the process
_EXECUTORS = {}
_EXECUTORS_LOCK = threading.Lock()
# active on pool threads, and on a caller while its pooled map runs
_IN_MAP = threading.local()


def _mark_pool_thread():
    _IN_MAP.active = True


def map_workers() -> int:
    """Workers a map started on this thread would get: 1 inside a pooled
    map (on the caller or a pool thread), worker_count() otherwise."""
    if getattr(_IN_MAP, "active", False):
        return 1
    return worker_count()


def _executor(threads: int) -> ThreadPoolExecutor:
    """The process's executor of `threads` threads, made on first use.

    Reused threads keep their malloc arenas. A thread started per map gets
    a fresh glibc arena whenever it starts before the previous map's thread
    has released its own; seen as a second arena holding about 30 MB freed.
    """
    key = (os.getpid(), threads)
    with _EXECUTORS_LOCK:
        if key not in _EXECUTORS:
            _EXECUTORS[key] = ThreadPoolExecutor(
                max_workers=threads, initializer=_mark_pool_thread)
        return _EXECUTORS[key]


def map_items(fn, items):
    """[fn(item) for item in items] on worker_count() threads, in order.

    The calling thread is one of the workers: it runs every w-th item while
    w - 1 pool threads run the rest. Each pool thread gets its own glibc
    malloc arena, so one fewer pool thread keeps the peak RSS of a run
    close to the serial one. A pooled map holds OpenBLAS to one thread. A
    map called from inside a pooled map, by its caller or a pool thread,
    runs serially on that thread, so no item waits on items queued behind
    it.
    """
    items = list(items)
    threads = map_workers()
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    out = [None] * len(items)
    with _ONE_BLAS_THREAD:
        pool = _executor(threads - 1)
        pooled = [(i, pool.submit(fn, item)) for i, item in enumerate(items)
                  if i % workers]
        _IN_MAP.active = True
        try:
            for i in range(0, len(items), workers):
                out[i] = fn(items[i])
            for i, future in pooled:
                out[i] = future.result()
        except BaseException:
            for _, future in pooled:
                future.cancel()
            wait([future for _, future in pooled])
            raise
        finally:
            _IN_MAP.active = False
    return out
