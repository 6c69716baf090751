"""Timing shims around each layer's public calls, for the traced run.

A shim replaces one function or method, looked up where the caller looks it
up, with a wrapper that records one span per call.  Spans are folded into
per-name tallies as they close instead of being stored, so a traced run of
millions of calls holds no span list in memory.  A layer's self time is its
span minus the spans of the shimmed calls made inside it (its children).

Spans nest on one shared stack, not one stack per thread.  The pool hands a
multi-device batch to its fan-out executor and blocks until the executor
returns, and the benchmark caps that executor at one thread, so only one
thread runs shimmed code at any moment; a device call on the fan-out thread
then nests under the pool call waiting for it, which is its real parent.
"""

from __future__ import annotations

import os
import resource
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.hct import HybridComputeTile
from repro.plan import backends
from repro.runtime.cluster import gateway, transport, worker
from repro.runtime.integrity import IntegrityChecker
from repro.runtime.pool import DevicePool
from repro.runtime.server import PumServer
from repro.runtime.session import DarthPumDevice

from common import median

__all__ = [
    "SERVER_COUNTERS", "WORKER_METRICS", "Tracer", "WorkerTap", "install",
    "layer_metrics", "reuse_share", "server_metrics", "traced_metrics",
    "unaccounted_share",
]


class Tracer:
    """Per-span-name tallies: calls, inclusive seconds, self seconds, counts."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Child seconds accumulated by each open span, innermost last.
        self._stack: List[float] = []

    def _open(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _close(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        children = self._stack.pop()
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - children
        if self._stack:
            self._stack[-1] += elapsed

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` timed as span ``name``; ``count(tracer, args, result)`` adds counts."""
        tracer = self

        def shim(*args, **kwargs):
            start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, start)
            if count is not None:
                count(tracer, args, result)
            return result

        shim.__wrapped__ = fn
        return shim

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a coroutine function that never suspends.

        ``ClusterGateway.submit_batch`` is ``async`` but awaits nothing, so
        its span cannot interleave with another task's.
        """
        tracer = self

        async def shim(*args, **kwargs):
            start = tracer._open()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._close(name, start)

        shim.__wrapped__ = fn
        return shim

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict copy of the tallies (picklable, for the worker pipe)."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def _count_vectors(tracer: Tracer, args: Tuple, result: Any) -> None:
    # VectorizedExecutor.execute_batch(self, tile, plan, vectors, ...)
    tracer.counts["backend.vectors"] += len(args[3])


def _count_push(tracer: Tracer, args: Tuple, result: Any) -> None:
    # ShmRing.push(self, parts) -> False when the ring is full
    if result:
        tracer.counts["ring.frames"] += 1
        tracer.counts["ring.bytes"] += sum(
            memoryview(part).nbytes for part in args[1]
        )
    else:
        tracer.counts["ring.push_full"] += 1


def _targets() -> List[Tuple[Any, str, str, str, Callable]]:
    """(owner, attribute, span name, kind, count hook) for every shim."""
    return [
        # The backend looks the kernel up in its own module's globals.
        (backends, "ace_forward_vectorized", "kernels.forward", "fn", None),
        (backends.VectorizedExecutor, "execute_batch", "backend", "fn",
         _count_vectors),
        (HybridComputeTile, "execute_mvm_batch", "tile", "fn", None),
        (DarthPumDevice, "exec_mvm_batch", "session", "fn", None),
        (DevicePool, "exec_mvm_batch", "pool", "fn", None),
        (DevicePool, "set_matrix", "pool.set_matrix", "fn", None),
        (IntegrityChecker, "verify", "pool.verify", "fn", None),
        (PumServer, "submit", "server.admit", "fn", None),
        (PumServer, "submit_batch", "server.admit", "fn", None),
        (PumServer, "tick", "server.tick", "fn", None),
        (PumServer, "register_matrix", "server.register", "fn", None),
        (transport.ShmRing, "push", "ring.push", "fn", _count_push),
        (transport.ShmRing, "peek", "ring.peek", "fn", None),
        # The gateway and the worker each import the codec by name.
        (gateway, "encode_message", "msg.encode", "fn", None),
        (gateway, "decode_message", "msg.decode", "fn", None),
        (worker, "encode_message", "msg.encode", "fn", None),
        (worker, "decode_message", "msg.decode", "fn", None),
        (gateway.ClusterGateway, "submit_batch", "gateway.submit", "async",
         None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Put every shim in place; returns the function that takes them out."""
    originals = []
    for owner, attribute, name, kind, count in _targets():
        fn = getattr(owner, attribute)
        if kind == "async":
            shim = tracer.wrap_async(name, fn)
        else:
            shim = tracer.wrap(name, fn, count)
        originals.append((owner, attribute, fn))
        setattr(owner, attribute, shim)

    def uninstall() -> None:
        for owner, attribute, fn in reversed(originals):
            setattr(owner, attribute, fn)

    return uninstall


class WorkerTap:
    """Stands in for ``gateway.worker_main``: reports from inside the worker.

    The tap runs the real entry point and, when the worker stops, sends
    ``extras()`` (read after the entry point returns) home through ``conn``,
    with how far the worker's peak resident set rose above the one it was
    forked with: the pages it shares with the parent at the fork are the
    parent's, already counted in the parent's peak.  When tracing, the
    worker -- started by ``fork`` -- has inherited the shims the parent
    installed, bound to the parent's ``tracer`` object; the tap empties that
    tracer first and sends the worker's own tallies too.  Given a ``cpu``,
    the worker pins itself to it before serving.
    """

    def __init__(self, entry: Callable, conn,
                 extras: Callable[[], Dict[str, Any]],
                 tracer: Optional[Tracer] = None,
                 cpu: Optional[int] = None) -> None:
        self.entry = entry
        self.conn = conn
        self.extras = extras
        self.tracer = tracer
        self.cpu = cpu

    def __call__(self, spec: Dict[str, Any]) -> None:
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        if self.tracer is not None:
            self.tracer.reset()
        forked_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            self.entry(spec)
        finally:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            report = {"extras": self.extras(),
                      "rss_growth_mb": (peak_kb - forked_kb) / 1024.0}
            if self.tracer is not None:
                report["tallies"] = self.tracer.snapshot()
            self.conn.send(report)
            self.conn.close()


def layer_metrics(tallies: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics named as in ``BENCHMARK.json`` from one tally set."""
    calls = tallies["calls"]
    total = tallies["total_s"]
    own = tallies["self_s"]
    counts = tallies["counts"]
    return {
        "kernels.forward_s": own.get("kernels.forward", 0.0),
        "kernels.calls": calls.get("kernels.forward", 0),
        # The backend's self time: DCE reduction plus IIU accounting.
        "backend.reduce_s": own.get("backend", 0.0),
        "backend.calls": calls.get("backend", 0),
        "backend.vectors": counts.get("backend.vectors", 0),
        "tile.self_s": own.get("tile", 0.0),
        "tile.calls": calls.get("tile", 0),
        "session.self_s": own.get("session", 0.0),
        "session.calls": calls.get("session", 0),
        # Fan-out, thread hand-off and partial merge: the pool's span less
        # its device calls and checksum checks.
        "pool.self_s": own.get("pool", 0.0),
        "pool.calls": calls.get("pool", 0),
        "pool.verify_s": total.get("pool.verify", 0.0),
        "pool.verify_checks": calls.get("pool.verify", 0),
        "pool.shard_calls": calls.get("session", 0),
        "pool.set_matrix_s": total.get("pool.set_matrix", 0.0),
        "server.admit_s": own.get("server.admit", 0.0),
        "server.tick_self_s": own.get("server.tick", 0.0),
        "server.ticks": calls.get("server.tick", 0),
        "server.register_s": total.get("server.register", 0.0),
        "server.register_calls": calls.get("server.register", 0),
        "ring.push_s": total.get("ring.push", 0.0),
        "ring.peek_s": total.get("ring.peek", 0.0),
        "ring.frames": counts.get("ring.frames", 0),
        "ring.bytes": counts.get("ring.bytes", 0),
        "ring.push_full": counts.get("ring.push_full", 0),
        "msg.encode_s": total.get("msg.encode", 0.0),
        "msg.decode_s": total.get("msg.decode", 0.0),
        "gateway.submit_self_s": own.get("gateway.submit", 0.0),
    }


#: Per-layer metrics read from a server's and its pool's own counters.
SERVER_COUNTERS = (
    "pool.reexecutions", "server.batches", "server.batch_fill",
    "server.zero_copy_share", "server.queue_wait_ticks_p50",
    "server.queue_wait_samples", "server.planner_builds",
    "server.registration_reuses",
)


def server_metrics(server, planner_builds_before: int) -> Dict[str, float]:
    """:data:`SERVER_COUNTERS` of ``server``, built inside the window, so its
    lifetime counters are the window's.  Planner builds count from
    ``planner_builds_before`` (taken once set-up finished) because set-up
    compiles every plan by design."""
    stats = server.stats
    pool = server.pool
    batches = stats.batches
    values = {
        "pool.reexecutions": pool.integrity_reexecutions + pool.replica_retries,
        "server.batches": batches,
        "server.batch_fill": (
            stats.completed / batches / server.scheduling.max_batch
            if batches else 0.0
        ),
        "server.zero_copy_share": (
            stats.zero_copy_batches / batches if batches else 0.0
        ),
        "server.queue_wait_ticks_p50": stats.latency_percentile(50),
        "server.queue_wait_samples": len(stats.latencies),
        "server.planner_builds": server.planner_builds() - planner_builds_before,
        "server.registration_reuses": server.registration_reuses,
    }
    return {name: values[name] for name in SERVER_COUNTERS}


#: Layers measured inside the gateway's worker, reported as ``worker.<name>``.
WORKER_METRICS = (
    "kernels.forward_s", "kernels.calls", "backend.reduce_s", "backend.calls",
    "backend.vectors", "tile.self_s", "tile.calls", "session.self_s",
    "session.calls", "pool.self_s", "pool.calls", "pool.verify_s",
    "pool.verify_checks", "pool.shard_calls", "pool.reexecutions",
    "pool.set_matrix_s", "server.admit_s", "server.tick_self_s",
    "server.ticks", "server.batches", "server.batch_fill",
    "server.zero_copy_share", "server.queue_wait_ticks_p50",
    "server.queue_wait_samples", "server.register_s", "server.register_calls",
    "server.register_reuse_share", "ring.push_s", "ring.peek_s",
    "msg.encode_s", "msg.decode_s",
)

#: Metrics of parts a workload may not run (an open-loop generator, the
#: gateway, a worker process); they read zero where the part is absent.
ABSENT_IS_ZERO = (
    ("gateway.flight_ms_p50", "gateway.flight_samples", "gateway.shed_share",
     "loadgen.offered_rps", "loadgen.lag_ms_p99", "loadgen.lag_samples")
    + tuple(f"worker.{name}" for name in WORKER_METRICS)
)


def reuse_share(metrics: Dict[str, float]) -> None:
    """Replace the server's registration reuse count with its share of the
    registrations."""
    reuses = metrics.pop("server.registration_reuses")
    calls = metrics["server.register_calls"]
    metrics["server.register_reuse_share"] = reuses / calls if calls else 0.0


def finish_layers(metrics: Dict[str, float]) -> Dict[str, float]:
    """Derive the registration reuse share and zero the absent parts."""
    reuse_share(metrics)
    for name in ABSENT_IS_ZERO:
        metrics.setdefault(name, 0.0)
    return metrics


def traced_metrics(windows) -> Dict[str, float]:
    """Per-layer metrics of a traced run: the mean over its traced windows
    (each a fixed amount of work), plus tracing overhead against the run's
    untraced reference windows."""
    traced = [w for w in windows if w.layers]
    reference = [w for w in windows if not w.layers]
    metrics = {
        name: sum(w.layers[name] for w in traced) / len(traced)
        for name in traced[0].layers
    }
    # Reference over traced throughput: 1.0 means tracing cost nothing.
    metrics["trace.overhead"] = (
        median([w.throughput for w in reference])
        / median([w.throughput for w in traced])
    )
    return finish_layers(metrics)


def unaccounted_share(tallies: Dict[str, Dict[str, float]], wall_s: float) -> float:
    """Share of ``wall_s`` that no shimmed span's self time covers."""
    if wall_s <= 0:
        return 0.0
    return (wall_s - sum(tallies["self_s"].values())) / wall_s
