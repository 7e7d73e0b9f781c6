"""The shard executor: serial-inline or process-pool shard dispatch.

:class:`ShardExecutor` is the one object AG-TR's pair sharding
(:mod:`repro.runtime.pairwise`) talks to.  Its contract is deliberately
narrow:

* ``map(fn, payloads)`` applies a **module-level** function to every
  payload and returns the results *in payload order* — never in
  completion order — so merging shard outputs is deterministic
  regardless of worker count or scheduling;
* ``workers <= 1`` (or a single payload) executes inline in the calling
  process: zero IPC, zero pickling, and the exact code path a pool
  worker would run;
* pool construction is lazy, reused across ``map`` calls, and
  falls back to inline execution — with a ``runtime.pool_fallbacks``
  counter — in environments where process pools are unavailable
  (restricted sandboxes, missing ``/dev/shm`` semaphores).  The results
  are identical either way; only the wall-clock differs.

Every ``map`` emits a ``runtime.map`` span with shard/worker counts and
bumps ``runtime.maps`` / ``runtime.shards_executed``, so a trace shows
exactly how a stage was decomposed.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, List, Optional, Sequence

from repro.obs import get_metrics, get_tracer


def _pool_context():
    """Prefer fork (cheap, shares the loaded library pages) where legal."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class ShardExecutor:
    """Execute shard work units inline or on a persistent process pool.

    Parameters
    ----------
    workers:
        Degree of parallelism.  ``0`` or ``1`` means inline serial
        execution (the default runtime); ``N > 1`` lazily creates a
        process pool of ``N`` workers on first use.

    Notes
    -----
    The executor is also a context manager; exiting shuts the pool down.
    A module-global default executor (``workers=1``) is installed by
    :mod:`repro.runtime`, so library code can always obtain one via
    ``get_runtime()`` without configuration.
    """

    def __init__(self, workers: int = 1):
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        self.workers = int(workers)
        self._pool = None
        self._pool_broken = False

    # ------------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Whether this executor would try to use more than one process."""
        return self.workers > 1 and not self._pool_broken

    # ------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        label: Optional[str] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every payload, returning results in payload order.

        ``fn`` must be picklable (a module-level function) when
        ``workers > 1``; payloads should be plain tuples of numpy arrays
        and scalars.  Falls back to inline execution if the pool cannot
        be created or dies — the deterministic merge contract makes the
        two paths indistinguishable apart from speed.
        """
        payloads = list(payloads)
        name = label or getattr(fn, "__name__", "shard_fn")
        metrics = get_metrics()
        with get_tracer().span(
            "runtime.map", fn=name, shards=len(payloads), workers=self.workers
        ) as span:
            metrics.counter("runtime.maps").inc()
            metrics.counter("runtime.shards_executed").inc(len(payloads))
            if self.workers <= 1 or len(payloads) <= 1 or self._pool_broken:
                span.set("mode", "inline")
                return [fn(payload) for payload in payloads]
            pool = self._ensure_pool()
            if pool is None:
                span.set("mode", "inline_fallback")
                return [fn(payload) for payload in payloads]
            try:
                results = pool.map(fn, payloads)
                span.set("mode", "pool")
                return list(results)
            except Exception:
                # A broken pool (killed worker, unpicklable payload) must
                # not take the computation down: recompute inline.  Mark
                # the pool broken so we do not retry it every map.
                self._shutdown_pool(force=True)
                self._pool_broken = True
                metrics.counter("runtime.pool_fallbacks").inc()
                span.set("mode", "inline_after_error")
                return [fn(payload) for payload in payloads]

    # ------------------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_pool_context()
                )
            except (OSError, ImportError, PermissionError):
                self._pool_broken = True
                get_metrics().counter("runtime.pool_fallbacks").inc()
                return None
        return self._pool

    def _shutdown_pool(self, force: bool = False) -> None:
        if self._pool is not None:
            try:
                if force:
                    # A failed map can leave the pool's manager thread
                    # waiting on a work item that will never resolve, so
                    # a waiting shutdown would hang.  Return immediately
                    # and kill the workers; the manager notices the dead
                    # pipe and unwinds itself.
                    processes = list(self._pool._processes.values())
                    self._pool.shutdown(wait=False)
                    for process in processes:
                        process.kill()
                else:
                    # wait=True: letting worker teardown finish here
                    # avoids racing the interpreter's own atexit pool
                    # cleanup.
                    self._pool.shutdown(wait=True)
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
            self._pool = None

    def close(self) -> None:
        """Shut down the process pool (if one was ever created)."""
        self._shutdown_pool()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardExecutor(workers={self.workers})"


#: The process-global runtime: serial inline execution unless a session
#: (or the CLI's ``--workers``) installs a parallel executor.
_DEFAULT_RUNTIME = ShardExecutor(workers=1)
_current_runtime: ShardExecutor = _DEFAULT_RUNTIME


def get_runtime() -> ShardExecutor:
    """The process-global shard executor (serial inline by default)."""
    return _current_runtime


def set_runtime(runtime: ShardExecutor) -> ShardExecutor:
    """Install ``runtime`` as the process-global executor; returns the old one."""
    global _current_runtime
    previous = _current_runtime
    _current_runtime = runtime
    return previous
