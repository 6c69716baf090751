"""``tenants_gateway``: small multi-tenant MVM traffic through the gateway.

Eight tenant matrices, 16x16 up to 128x64 with 4-bit weights, are served
with 8-bit request vectors by one ``ClusterGateway`` worker: two ``small``
chips of 16 HCTs each, ``verify="full"``.  At that size the 128x64 tenant is
split into three row bands across both chips, so its requests fan out and
every band's partial is checked against its column checksum.  The worker's
server comes from the worker's own builder; every request crosses the ring
and the message codec both ways.

Traffic is mostly single-vector ``submit`` calls from independent users (the
gather path), every 20th operation a ``submit_batch`` wave (the zero-copy
path), and every 50th a re-registration, alternating between changed weights
(reprogramming) and byte-identical weights (the registration memo).  Tenants
get equal shares of the operations.  A run is a series of windows, each a
fresh deployment serving the same amount of work from its own seeded
schedules:

* first an open loop sends a precomputed Poisson schedule at
  ``OFFERED_RPS`` vectors per second for ``OPEN_SECONDS`` and times each
  request operation from when it was due until its last answer landed (a
  wave is one user's request); these latencies are printed beside the
  result, not bounded (see the README);
* then a closed loop of ``CLIENTS`` virtual clients, each sending its next
  operation once the previous one completed, works through ``CLOSED_OPS``
  operations and gives ``throughput_rps``, and, timing each request
  operation from its send to its last answer, ``latency_p50_ms`` and
  ``latency_p90_ms``.

The open loop comes first because the DCE op logs grow with every MVM and
the collector's pauses with them: latency measured later in a window would
depend on how much the window had already served.

A completed answer must equal ``vector @ M_v`` for the tenant version live
when the request was sent or any later version.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import AdmissionError
from repro.runtime.cluster import gateway as gateway_module
from repro.runtime.cluster import worker as worker_module

from common import (
    Outcome,
    Window,
    end_to_end,
    model_breakdown,
    percentile,
    run_windows,
    samples,
)
from resnet20 import LABELS
from tracing import (
    SERVER_COUNTERS,
    WORKER_METRICS,
    Tracer,
    WorkerTap,
    install,
    layer_metrics,
    reuse_share,
    server_metrics,
    traced_metrics,
    unaccounted_share,
)

TENANT_SHAPES = (
    (16, 16), (24, 16), (32, 32), (48, 32),
    (64, 32), (64, 64), (96, 64), (128, 64),
)
#: Eight tenants fit the two 16-HCT chips only at 4-bit weights.
WEIGHT_BITS = 4
INPUT_BITS = 8
CLIENTS = 16
#: Operation ``i`` is a wave when ``i % WAVE_EVERY == WAVE_EVERY // 2`` and a
#: re-registration when ``i % REGISTER_EVERY == REGISTER_EVERY - 1``: 5% and
#: 2% of operations in every schedule, so seeds differ in order and values,
#: not in the mix.
WAVE_EVERY = 20
WAVE_SIZES = (8, 16)
REGISTER_EVERY = 50
#: Closed-loop operations per window.
CLOSED_OPS = 1200
#: Open-loop offered load in vectors per second, about a sixth of what the
#: gateway path serves, and the open-loop length per window.  The two
#: lengths split a run about evenly between the loops and keep windows
#: short enough for a run to hold nine or more.
OFFERED_RPS = 100.0
OPEN_SECONDS = 3.0
#: Seeded request vectors kept per tenant; requests index into them.
VECTOR_POOL = 512
MIN_WINDOWS = 3
#: Each window sets up this many deployments, closing all but the last
#: untouched, and serves from the last: a set-up is a fraction of a second,
#: much of it waiting for processes to wake, so ``setup_s`` needs the extra
#: samples for a steady median.
SETUPS_PER_WINDOW = 3

#: The worker spec ``ClusterGateway(**GATEWAY_ARGS)`` hands its worker; each
#: window checks that the spec its worker received equals this one.
SERVER_SPEC = {
    "num_devices": 2,
    "chip": "small",
    "num_hcts": 16,
    "noise": None,
    "backend": None,
    "policy": "cache_affinity",
    "max_batch": None,
    "max_wait_ticks": None,
    "queue_capacity": 4096,
    "verify": "full",
}
GATEWAY_ARGS = {"num_workers": 1, "devices_per_worker": 2, "chip": "small",
                "num_hcts": 16, "verify": "full"}

SINGLE, WAVE, REPROGRAM, REUSE = 0, 1, 2, 3


def params() -> Dict[str, Any]:
    """Workload parameters recorded beside each result."""
    return {
        "tenant_shapes": [list(shape) for shape in TENANT_SHAPES],
        "weight_bits": WEIGHT_BITS, "input_bits": INPUT_BITS,
        "clients": CLIENTS, "wave_every": WAVE_EVERY,
        "wave_sizes": list(WAVE_SIZES), "register_every": REGISTER_EVERY,
        "closed_ops": CLOSED_OPS, "offered_rps": OFFERED_RPS,
        "open_seconds": OPEN_SECONDS, "setups_per_window": SETUPS_PER_WINDOW,
        "server": SERVER_SPEC,
        "gateway": GATEWAY_ARGS,
    }


class Schedule:
    """A seeded operation stream: kind, tenant, vector rows, new weights."""

    def __init__(self, rng: np.random.Generator, count: int,
                 due: Optional[np.ndarray] = None) -> None:
        index = np.arange(count)
        self.kinds = np.full(count, SINGLE, dtype=np.int8)
        self.kinds[index % WAVE_EVERY == WAVE_EVERY // 2] = WAVE
        registers = index[index % REGISTER_EVERY == REGISTER_EVERY - 1]
        number = registers // REGISTER_EVERY
        self.kinds[registers] = np.where(number % 2 == 0, REPROGRAM, REUSE)
        tenants = len(TENANT_SHAPES)
        # Every tenant gets an equal share of the single vectors, and of the
        # waves of each size; the seed picks their order.
        singles = np.flatnonzero(self.kinds == SINGLE)
        waves = np.flatnonzero(self.kinds == WAVE)
        self.tenants = np.zeros(count, dtype=np.int64)
        self.tenants[singles] = rng.permutation(np.arange(len(singles)) % tenants)
        self.sizes = (self.kinds == SINGLE).astype(np.int64)
        order = rng.permutation(len(waves))
        self.tenants[waves] = order % tenants
        self.sizes[waves] = WAVE_SIZES[0] + (order // tenants) % (
            WAVE_SIZES[1] - WAVE_SIZES[0] + 1)
        # Re-registrations walk the tenants from the largest down, so a short
        # schedule always reprograms the costly ones; each reuse re-registers
        # the bytes the reprogramming before it installed.
        self.tenants[registers] = tenants - 1 - (number // 2) % tenants
        self.offsets = rng.integers(0, VECTOR_POOL - WAVE_SIZES[1], size=count)
        low = -(1 << (WEIGHT_BITS - 1))
        self.weights = {
            int(i): rng.integers(low, -low, size=TENANT_SHAPES[self.tenants[i]],
                                 dtype=np.int8)
            for i in np.flatnonzero(self.kinds == REPROGRAM)
        }
        #: Open loop only: when each operation is due, in seconds.
        self.due = due

    def __len__(self) -> int:
        return len(self.kinds)


def open_schedule(rng: np.random.Generator) -> Schedule:
    """Poisson arrivals offering ``OFFERED_RPS`` vectors/s for ``OPEN_SECONDS``."""
    mean_size = (1 - 1 / WAVE_EVERY - 1 / REGISTER_EVERY
                 + sum(WAVE_SIZES) / 2 / WAVE_EVERY)
    rate = OFFERED_RPS / mean_size
    gaps = rng.exponential(1.0 / rate, size=int(rate * OPEN_SECONDS * 2) + 64)
    due = np.cumsum(gaps)
    due = due[: int(np.searchsorted(due, OPEN_SECONDS))]
    return Schedule(rng, len(due), due)


class Traffic:
    """Seeded tenants and request vectors, each window's schedules, and the
    version history every answer is checked against."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        low = -(1 << (WEIGHT_BITS - 1))
        self.initial = [rng.integers(low, -low, size=shape)
                        for shape in TENANT_SHAPES]
        self.vectors = [
            rng.integers(0, 1 << INPUT_BITS, size=(VECTOR_POOL, rows))
            for rows, _ in TENANT_SHAPES
        ]
        self.begin_window(0)

    def begin_window(self, number: int) -> None:
        """Schedules of window ``number`` (each window draws its own, so a
        run averages over several); a fresh deployment holds the initial
        tenants and no answers."""
        self.closed = Schedule(
            np.random.default_rng([self.seed, 1, number]), CLOSED_OPS)
        self.open = open_schedule(np.random.default_rng([self.seed, 2, number]))
        self.versions = [[matrix] for matrix in self.initial]
        self.live = [0] * len(TENANT_SHAPES)
        # Answers are checked after the window.  They are kept as a list of
        # packed ints and a list of arrays, neither of which the garbage
        # collector traverses, so holding them does not lengthen the
        # collector's pauses inside the measurement.
        self.keys: List[int] = []
        self.results: List[np.ndarray] = []
        self.failed = 0

    def record(self, tenant: int, version: int, row: int, status: str,
               result) -> bool:
        if status != "completed":
            self.failed += 1
            return False
        self.keys.append((tenant << 48) | (version << 24) | row)
        self.results.append(result)
        return True

    def check(self) -> List[str]:
        """Every answer equals its vector times an allowed tenant version."""
        errors = []
        mask = (1 << 24) - 1
        for key, result in zip(self.keys, self.results):
            tenant, version, row = key >> 48, (key >> 24) & mask, key & mask
            vector = self.vectors[tenant][row]
            if not any(np.array_equal(result, vector @ matrix)
                       for matrix in self.versions[tenant][version:]):
                errors.append(
                    f"tenant{tenant} row {row}: answer matches no version "
                    f">= {version}"
                )
                if len(errors) >= 5:
                    break
        self.keys.clear()
        self.results.clear()
        return errors

    def new_version(self, schedule: Schedule, index: int) -> Tuple[int, np.ndarray]:
        """Append the changed weights of operation ``index``; returns
        (version, matrix).  The caller marks it live once registered."""
        tenant = int(schedule.tenants[index])
        matrix = schedule.weights[index].astype(np.int64)
        self.versions[tenant].append(matrix)
        return len(self.versions[tenant]) - 1, matrix


def name_of(tenant: int) -> str:
    return f"tenant{tenant}"


class ServerBuilder:
    """The worker's server builder, keeping the server it built.

    ``repro.runtime.cluster.worker.build_worker_server`` builds the server
    from the worker spec.  The one change is the pool's fan-out executor,
    capped at one thread before the pool first builds it: the worker's main
    thread waits while that thread runs, so the worker and the gateway
    process beside it never need more than the two CPUs this benchmark is
    sized for.  The server is kept for the report the worker sends home.
    """

    def __init__(self, build: Callable[[Dict[str, Any]], Any]) -> None:
        self.build = build
        self.server = None
        self.spec: Dict[str, Any] = {}

    def __call__(self, spec: Dict[str, Any]):
        server = self.build(spec)
        if server.pool._executor is not None:
            raise RuntimeError("the pool built its fan-out executor early")
        # DevicePool sizes its lazily built executor from this field.
        server.pool._max_workers = 1
        self.server = server
        self.spec = {key: spec.get(key) for key in SERVER_SPEC}
        return server

    def report(self) -> Dict[str, Any]:
        """What the worker sends home when it stops."""
        server = self.server
        ledger = server.pool.total_ledger()
        return {
            "spec": self.spec,
            "completed": server.stats.completed,
            "cycle_breakdown": dict(ledger.cycle_breakdown),
            "energy_breakdown": dict(ledger.energy_breakdown),
            "server": server_metrics(server, 0),
        }


def _cost(window: Window, cycle_breakdown: Dict[str, float],
          energy_breakdown: Dict[str, float], completed: int) -> None:
    """Modelled MVM execution cost of the window (programming excluded)."""
    window.requests = completed
    window.cycles = sum(v for k, v in cycle_breakdown.items()
                        if k != "ace.program")
    window.energy_pj = sum(v for k, v in energy_breakdown.items()
                           if k != "ace.program")
    window.model = model_breakdown(
        cycle_breakdown, energy_breakdown, max(completed, 1))


def _open_layers(window: Window) -> Dict[str, float]:
    """Per-layer metrics of the open-loop generator and gateway flights."""
    layers = {
        "loadgen.offered_rps": window.offered_rps,
        "loadgen.lag_ms_p99": percentile(window.lags, 99) * 1e3,
        "loadgen.lag_samples": len(window.lags),
        "gateway.flight_ms_p50": percentile(window.flights, 50) * 1e3,
        "gateway.flight_samples": len(window.flights),
    }
    layers.update(window.model)
    layers.update({f"model.cycles.{label}": 0.0 for label in LABELS})
    return layers


class Remote:
    """The traffic through a one-worker gateway, one window at a time."""

    def __init__(self, traffic: Traffic, worker_cpu: Optional[int]) -> None:
        self.traffic = traffic
        self.worker_cpu = worker_cpu
        self.builder = ServerBuilder(worker_module.build_worker_server)
        self.registering: Optional[asyncio.Lock] = None

    def window(self, number: int, traced: bool) -> Window:
        return asyncio.run(self._window(number, traced))

    async def _window(self, number: int, traced: bool) -> Window:
        traffic = self.traffic
        traffic.begin_window(number)
        self.registering = asyncio.Lock()
        setups = []
        for _ in range(SETUPS_PER_WINDOW - 1):
            gateway, seconds, receive = await self.setup(None)
            await self.close(gateway, receive)
            setups.append(seconds)
        tracer = Tracer() if traced else None
        uninstall = install(tracer) if traced else None
        try:
            began = time.perf_counter()
            gateway, seconds, receive = await self.setup(tracer)
            window = Window(setups=setups + [seconds])
            await self.open(gateway, window)
            await self.closed(gateway, window)
            window.wall_s = time.perf_counter() - began
            window.threads = threading.active_count()
            stats = gateway.stats.snapshot()
            report = await self.close(gateway, receive)
        finally:
            if uninstall is not None:
                uninstall()
        _cost(window, report["cycle_breakdown"], report["energy_breakdown"],
              report["completed"])
        window.worker_rss_mb = report["rss_growth_mb"]
        window.failed = traffic.failed
        window.errors = traffic.check()
        if report["spec"] != SERVER_SPEC:
            window.errors.append(
                f"worker server spec {report['spec']} != {SERVER_SPEC}")
        if traced:
            tallies = tracer.snapshot()
            window.layers = layer_metrics(tallies)
            # This process holds no server: the worker's show as worker.*.
            window.layers.update(dict.fromkeys(SERVER_COUNTERS, 0.0))
            inside = layer_metrics(report["tallies"])
            inside.update(report["server"])
            reuse_share(inside)
            window.layers.update({f"worker.{name}": inside[name]
                                  for name in WORKER_METRICS})
            window.layers.update(_open_layers(window))
            offered = stats["submitted"] + stats["shed"]
            window.layers["gateway.shed_share"] = (
                stats["shed"] / offered if offered else 0.0)
            window.layers["trace.unaccounted_share"] = unaccounted_share(
                tallies, window.wall_s)
        return window

    async def setup(self, tracer: Optional[Tracer]):
        """Spawn the worker and register every tenant.

        The worker is started with this benchmark's server builder and a
        tap that sends the worker's report home when it stops; returns
        (gateway, seconds, pipe end the report arrives on).
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("the gateway workload needs fork-started workers")
        receive, send = multiprocessing.Pipe(duplex=False)
        entry = gateway_module.worker_main
        builder = worker_module.build_worker_server
        gateway_module.worker_main = WorkerTap(entry, send, self.builder.report,
                                               tracer, self.worker_cpu)
        worker_module.build_worker_server = self.builder
        try:
            start = time.perf_counter()
            gateway = gateway_module.ClusterGateway(**GATEWAY_ARGS)
            await gateway.start()
            for tenant, matrix in enumerate(self.traffic.initial):
                await gateway.register_matrix(
                    name_of(tenant), matrix, element_size=WEIGHT_BITS,
                    input_bits=INPUT_BITS,
                )
            elapsed = time.perf_counter() - start
        finally:
            gateway_module.worker_main = entry
            worker_module.build_worker_server = builder
        send.close()
        return gateway, elapsed, receive

    @staticmethod
    async def close(gateway, receive) -> Dict[str, Any]:
        """Stop the worker and collect its report."""
        await gateway.close()
        try:
            if not receive.poll(10.0):
                raise RuntimeError("worker sent no report")
            message = receive.recv()
            return {**message["extras"], "tallies": message.get("tallies"),
                    "rss_growth_mb": message["rss_growth_mb"]}
        finally:
            receive.close()

    async def register(self, gateway, schedule: Schedule, index: int) -> None:
        """Re-register a tenant (operation ``index``), one at a time: the
        gateway keys a registration's reply by name, so two in flight for
        one tenant would collide."""
        traffic = self.traffic
        tenant = int(schedule.tenants[index])
        async with self.registering:
            if schedule.kinds[index] == REPROGRAM:
                version, matrix = traffic.new_version(schedule, index)
            else:
                version = traffic.live[tenant]
                matrix = traffic.versions[tenant][version]
            await gateway.register_matrix(
                name_of(tenant), matrix, element_size=WEIGHT_BITS,
                input_bits=INPUT_BITS,
            )
            # Requests sent while the registration was in flight may see
            # either version; their recorded version stays the older one.
            traffic.live[tenant] = version

    async def issue(self, gateway, schedule: Schedule, index: int):
        """Send request operation ``index``; returns (futures, tenant,
        version, row, size)."""
        traffic = self.traffic
        kind = schedule.kinds[index]
        tenant = int(schedule.tenants[index])
        name = name_of(tenant)
        row = int(schedule.offsets[index])
        version = traffic.live[tenant]
        size = int(schedule.sizes[index])
        try:
            if kind == SINGLE:
                futures = [await gateway.submit(
                    name, traffic.vectors[tenant][row], input_bits=INPUT_BITS)]
            else:
                futures = await gateway.submit_batch(
                    name, traffic.vectors[tenant][row: row + size],
                    input_bits=INPUT_BITS,
                )
        except AdmissionError:
            traffic.failed += size
            return [], tenant, version, row, size
        return futures, tenant, version, row, size

    async def closed(self, gateway, window: Window) -> None:
        schedule = self.traffic.closed
        cursor = [0]
        completed = [0]

        async def client() -> None:
            while cursor[0] < len(schedule):
                index = cursor[0]
                cursor[0] += 1
                if schedule.kinds[index] >= REPROGRAM:
                    await self.register(gateway, schedule, index)
                    continue
                sent = time.perf_counter()
                futures, tenant, version, row, size = await self.issue(
                    gateway, schedule, index)
                window.attempted += size
                responses = await asyncio.gather(*futures)
                landed = time.perf_counter()
                answered = 0
                for k, response in enumerate(responses):
                    answered += self.traffic.record(
                        tenant, version, row + k, response.status,
                        response.result)
                completed[0] += answered
                if futures and answered == len(futures):
                    window.latencies.append(landed - sent)

        start = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(CLIENTS)))
        window.closed_requests = completed[0]
        window.closed_s = time.perf_counter() - start

    async def open(self, gateway, window: Window) -> None:
        schedule = self.traffic.open
        due = schedule.due
        # Requests not yet answered; once the schedule is sent, ``drained``
        # fires when the last one lands.  ``left`` counts each operation's
        # unanswered vectors: its latency runs from when it was due until
        # its last answer landed.
        outstanding = [0]
        left: Dict[int, int] = {}
        sent_all = [False]
        drained = asyncio.Event()
        writes: List[asyncio.Task] = []
        offered = 0
        start = time.perf_counter()

        def landed(op: int, sent: float, tenant: int, version: int,
                   row: int, future: asyncio.Future) -> None:
            now = time.perf_counter()
            outstanding[0] -= 1
            if sent_all[0] and not outstanding[0]:
                drained.set()
            if future.cancelled():
                self.traffic.failed += 1
                left[op] = -len(due)  # a lost answer: no latency
            else:
                response = future.result()
                if not self.traffic.record(tenant, version, row,
                                           response.status, response.result):
                    left[op] = -len(due)
            left[op] -= 1
            if left[op] == 0:
                window.open_latencies.append(now - start - due[op])
                window.flights.append(now - sent)

        for index in range(len(due)):
            delay = start + due[index] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            window.lags.append(time.perf_counter() - start - due[index])
            if schedule.kinds[index] >= REPROGRAM:
                # An administrator's write does not hold up the users' sends.
                writes.append(asyncio.create_task(
                    self.register(gateway, schedule, index)))
                continue
            futures, tenant, version, row, size = await self.issue(
                gateway, schedule, index)
            offered += size
            submitted = time.perf_counter()
            left[index] = len(futures)
            for k, future in enumerate(futures):
                future.add_done_callback(functools.partial(
                    landed, index, submitted, tenant, version, row + k))
                outstanding[0] += 1
        for write in writes:
            await write
        sent_all[0] = True
        if outstanding[0]:
            try:
                await asyncio.wait_for(drained.wait(), timeout=60.0)
            except asyncio.TimeoutError:
                self.traffic.failed += outstanding[0]
        window.attempted += offered
        window.offered_rps = offered / OPEN_SECONDS


def pin_processes() -> Optional[int]:
    """Give this process and the gateway's worker a CPU each.

    Left to the scheduler, the two busy processes shared one CPU for some
    stretches of a run and not for others, which moved closed-loop
    throughput by a third from run to run.  Pins this process to the first
    CPU it may use and returns the second, for the worker to pin itself to;
    returns None, pinning nothing, when fewer than two are allowed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1]


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` started for the rings'
    shared memory, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """Windows until ``seconds`` are used; traced runs alternate an
    untraced reference window with a traced one."""
    runner = Remote(Traffic(seed), pin_processes())
    try:
        windows = run_windows(
            seconds, 2 if trace else MIN_WINDOWS,
            lambda number: runner.window(number, trace and number % 2 == 1),
        )
    finally:
        _stop_resource_tracker()
    metrics = traced_metrics(windows) if trace else end_to_end(windows)
    return Outcome(
        metrics=metrics,
        attempted=sum(w.attempted for w in windows),
        failed=sum(w.failed for w in windows),
        errors=[error for w in windows for error in w.errors],
        info={"samples": samples(windows)},
    )
