"""Helpers shared by the workloads: windows, metrics, memory, environment."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Window:
    """One fresh deployment serving a fixed amount of work.

    Every window sets the stack up from scratch and serves the same amount
    of work, so state that grows with work served (op logs, caches) is the
    same in every window and in every run, however fast the code is.
    """

    #: Set-up times in seconds, the deployment the window served from last.
    setups: List[float] = field(default_factory=list)
    #: Requests completed in the closed loop, and the seconds it took.
    closed_requests: int = 0
    closed_s: float = 0.0
    #: Closed-loop latencies in seconds (an image, or a request operation).
    latencies: List[float] = field(default_factory=list)
    #: Open-loop latencies in seconds, each from when the operation was due.
    open_latencies: List[float] = field(default_factory=list)
    #: How late each open-loop operation was sent, in seconds.
    lags: List[float] = field(default_factory=list)
    #: Gateway submit-to-resolution times of open-loop requests, in seconds.
    flights: List[float] = field(default_factory=list)
    offered_rps: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Modelled cost of the window's MVM execution, the requests it served,
    #: and its ``model.*`` per-layer metrics.
    cycles: float = 0.0
    energy_pj: float = 0.0
    requests: int = 0
    model: Dict[str, float] = field(default_factory=dict)
    #: How far the gateway's worker rose above the resident set it was
    #: forked with, in MB (0 without a worker).
    worker_rss_mb: float = 0.0
    #: Threads alive in the generator process once serving ended (the pool's
    #: fan-out thread included).
    threads: int = 0
    #: Wrong answers found in the window.
    errors: List[str] = field(default_factory=list)
    #: Traced windows only: wall time and per-window layer metrics.
    wall_s: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Closed-loop completed requests per second."""
        return self.closed_requests / self.closed_s


def run_windows(seconds: float, minimum: int, window) -> List[Window]:
    """Call ``window(i)`` until another window would end past ``seconds``
    (judged by the last one's length), and at least ``minimum`` times.

    A full collection before each window frees the previous deployment's
    garbage and starts every window from the same collector state, so the
    collector's own pauses fall at the same points of every window.
    """
    windows: List[Window] = []
    start = time.perf_counter()
    last = 0.0
    while len(windows) < minimum or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        gc.collect()
        windows.append(window(len(windows)))
        last = time.perf_counter() - began
    return windows


def end_to_end(windows: List[Window]) -> Dict[str, float]:
    """The end-to-end metrics.  Throughput is every window's closed-loop
    requests over their seconds.  Set-up is the median of every set-up in
    the run, and each latency percentile the median over the windows of the
    window's own figure, so one window that a stall or a slow spell of the
    machine hit does not move them."""
    requests = sum(w.requests for w in windows)
    return {
        "setup_s": median([s for w in windows for s in w.setups]),
        "throughput_rps": (sum(w.closed_requests for w in windows)
                           / sum(w.closed_s for w in windows)),
        "latency_p50_ms": window_percentile(windows, 50) * 1e3,
        "latency_p90_ms": window_percentile(windows, 90) * 1e3,
        "modelled_cycles_per_request": sum(w.cycles for w in windows) / requests,
        "modelled_energy_nj_per_request":
            sum(w.energy_pj for w in windows) / requests / 1e3,
        "peak_rss_mb": peak_rss_mb(max(w.worker_rss_mb for w in windows)),
    }


def window_percentile(windows: List[Window], q: float,
                      open_loop: bool = False) -> float:
    """Median over the windows of each window's ``q``-th latency percentile."""
    return median([
        percentile(w.open_latencies if open_loop else w.latencies, q)
        for w in windows
    ])


def samples(windows: List[Window]) -> Dict[str, object]:
    """Sample counts behind the medians and percentiles, per-window figures,
    and the open-loop latencies (printed, not bounded: see README)."""
    quantiles = (50, 75, 90, 99)
    return {
        "windows": len(windows),
        "latency_samples_per_window": [len(w.latencies) for w in windows],
        "latency_p99_ms": window_percentile(windows, 99) * 1e3,
        "setup_s_per_window": [w.setups for w in windows],
        "throughput_rps_per_window": [w.throughput for w in windows],
        "latency_ms_per_window": [
            [percentile(w.latencies, q) * 1e3 for q in quantiles]
            for w in windows
        ],
        "open_latency_ms": {
            f"p{q}": window_percentile(windows, q, open_loop=True) * 1e3
            for q in quantiles
        },
        "open_latency_samples_per_window": [
            len(w.open_latencies) for w in windows],
        "open_latency_ms_per_window": [
            [percentile(w.open_latencies, q) * 1e3 for q in quantiles]
            for w in windows
        ],
        "lag_ms_p99_per_window": [percentile(w.lags, 99) * 1e3 for w in windows],
        "worker_rss_mb_per_window": [w.worker_rss_mb for w in windows],
        "max_threads": max(w.threads for w in windows),
    }


def model_breakdown(cycles: Dict[str, float], energy_pj: Dict[str, float],
                    per: float) -> Dict[str, float]:
    """The ``model.*`` per-layer metrics from ledger breakdowns, per ``per``
    requests."""
    return {
        "model.ace_mvm_cycles": cycles.get("ace.mvm", 0.0) / per,
        "model.hct_batch_cycles": cycles.get("hct.mvm_batch", 0.0) / per,
        "model.ace_energy_uj": energy_pj.get("ace.mvm", 0.0) / per / 1e6,
        "model.dce_energy_uj": sum(
            value for key, value in energy_pj.items() if key.startswith("dce.")
        ) / per / 1e6,
    }


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)
    #: Sample counts and parameters printed beside the result.
    info: Dict[str, object] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb(worker_mb: float = 0.0) -> float:
    """Peak resident set of this process plus ``worker_mb``, what its
    worker added above the pages it shares with this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + worker_mb


def _git_sha() -> Optional[str]:
    """HEAD of the checkout read from ``.git`` (None when not a repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """sha256 over every file under ``src/``: identifies the code measured
    even in a checkout without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload: str, seed: int, seconds: float, trace: bool,
                params: Dict[str, object]) -> Dict[str, object]:
    """The run environment recorded beside every result."""
    return {
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }
