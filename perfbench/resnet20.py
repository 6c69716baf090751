"""``resnet20``: every ResNet-20 convolution served one image at a time.

The 21 conv layers (``c1-Conv1`` ... ``r3-b2-Conv2``, ``r2-ds``, ``r3-ds``)
are registered at set-up as 6-bit Toeplitz weight matrices on a
``PumServer`` over two paper-default chips, ``verify="off"``.  Each window
sets this up afresh and serves ``IMAGES_PER_WINDOW`` images after an untimed
golden image.  An image is served as 21
``submit_batch`` + ``run_until_idle`` calls, one per layer, each carrying
that layer's im2col patches quantised to 6 bits and shifted non-negative the
way ``repro.runtime.apps.serve_cnn_conv`` does (so requests use 7 input
bits).  Images follow each other in a closed loop of one client.

Layer inputs come from a float NumPy forward pass of the seeded images and
are all computed before timing starts.  Every layer's answer must equal the
integer product ``q_patches @ q_weight``, and the modelled cost of the first
image after set-up must equal ``golden_resnet20.json`` exactly.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.runtime.pool import DevicePool
from repro.runtime.server import PumServer
from repro.workloads.cnn import ResNet20
from repro.workloads.cnn.quantize import quantize

from common import (
    Outcome,
    Window,
    end_to_end,
    model_breakdown,
    run_windows,
    samples,
)
from tracing import (
    Tracer,
    install,
    layer_metrics,
    server_metrics,
    traced_metrics,
    unaccounted_share,
)

GOLDEN = Path(__file__).with_name("golden_resnet20.json")

WEIGHT_BITS = 6
ACTIVATION_BITS = 6
#: Shifted 6-bit activations span [0, 62], so requests carry 7 input bits.
INPUT_BITS = ACTIVATION_BITS + 1
#: Distinct seeded images; the closed loop cycles through them.  Every image
#: costs the same work, so more images would only lengthen input generation.
NUM_IMAGES = 4
#: Timed images per window, after the untimed golden image.
IMAGES_PER_WINDOW = 8
MIN_WINDOWS = 3
MODEL_SEED = 0
#: Figure 15 labels of the 21 conv layers, in network order.
LABELS = (
    "c1-Conv1",
    "r1-b0-Conv1", "r1-b0-Conv2", "r1-b1-Conv1", "r1-b1-Conv2",
    "r1-b2-Conv1", "r1-b2-Conv2",
    "r2-b0-Conv1", "r2-b0-Conv2", "r2-ds", "r2-b1-Conv1", "r2-b1-Conv2",
    "r2-b2-Conv1", "r2-b2-Conv2",
    "r3-b0-Conv1", "r3-b0-Conv2", "r3-ds", "r3-b1-Conv1", "r3-b1-Conv2",
    "r3-b2-Conv1", "r3-b2-Conv2",
)

PARAMS = {
    "chips": "2 x paper_default",
    "verify": "off",
    "weight_bits": WEIGHT_BITS,
    "activation_bits": ACTIVATION_BITS,
    "input_bits": INPUT_BITS,
    "images": NUM_IMAGES,
    "images_per_window": IMAGES_PER_WINDOW,
    "clients": 1,
}


def _patches(x: np.ndarray, conv) -> np.ndarray:
    """im2col of one NCHW image: ``(positions, C * k * k)``.

    Equal element for element to ``repro.workloads.cnn.tensors.im2col``,
    whose per-position Python loop would add seconds of input generation to
    every run.
    """
    pad = conv.padding
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(
        x[0], (conv.kernel, conv.kernel), axis=(1, 2)
    )[:, ::conv.stride, ::conv.stride]
    channels, out_h, out_w = windows.shape[:3]
    return windows.transpose(1, 2, 0, 3, 4).reshape(out_h * out_w, -1)


def _conv(x: np.ndarray, conv, patches: np.ndarray) -> np.ndarray:
    """``conv.forward(x)`` from patches already computed."""
    out_h = (x.shape[2] + 2 * conv.padding - conv.kernel) // conv.stride + 1
    weight = conv.weight.reshape(conv.out_channels, -1).T
    out = patches @ weight + conv.bias
    return out.reshape(1, out_h, -1, conv.out_channels).transpose(0, 3, 1, 2)


def layer_inputs(model, image: np.ndarray) -> Dict[str, np.ndarray]:
    """Quantised im2col patches of every conv layer for one float image."""
    inputs: Dict[str, np.ndarray] = {}

    def conv(label: str, layer, x: np.ndarray) -> np.ndarray:
        patches = _patches(x, layer)
        inputs[label] = quantize(patches, bits=ACTIVATION_BITS).values
        return _conv(x, layer, patches)

    h = np.maximum(model.bn1.forward(conv("c1-Conv1", model.conv1, image)), 0)
    for stage, blocks in enumerate(model.stages, start=1):
        for index, block in enumerate(blocks):
            name = f"r{stage}-b{index}"
            mid = np.maximum(
                block.bn1.forward(conv(f"{name}-Conv1", block.conv1, h)), 0
            )
            out = block.bn2.forward(conv(f"{name}-Conv2", block.conv2, mid))
            shortcut = h
            if block.downsample is not None:
                shortcut = conv(f"r{stage}-ds", block.downsample, h)
            h = np.maximum(out + shortcut, 0)
    return inputs


class Resnet20:
    """Inputs, weights and the serving stack of one ``resnet20`` run."""

    def __init__(self, seed: int) -> None:
        model = ResNet20(seed=MODEL_SEED)
        layers = {label: layer for label, layer, _ in model.named_mvm_layers()}
        self.labels = LABELS
        if set(LABELS) != set(layers) - {"Seq-b4-Seq"}:
            raise RuntimeError("ResNet-20 conv labels changed")
        self.weights = {
            label: quantize(
                layers[label].weight.reshape(layers[label].out_channels, -1).T,
                bits=WEIGHT_BITS,
            ).values
            for label in self.labels
        }
        rng = np.random.default_rng(seed)
        self.images = []
        for _ in range(NUM_IMAGES):
            inputs = layer_inputs(model, rng.normal(size=(1, 3, 32, 32)))
            image = {}
            for label in self.labels:
                q = inputs[label]
                offsets = np.maximum(0, -q.min(axis=1))
                image[label] = (np.ascontiguousarray(q + offsets[:, None]),
                                offsets, q @ self.weights[label])
            self.images.append(image)
        self.column_sums = {
            label: self.weights[label].sum(axis=0) for label in self.labels
        }
        self.mvms_per_image = sum(
            self.images[0][label][0].shape[0] for label in self.labels
        )
        self.golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None
        self.errors: List[str] = []

    def setup(self):
        """Pool + server construction and every layer's registration."""
        start = time.perf_counter()
        # One fan-out thread: with the generator's own thread that is two,
        # the CPU count this benchmark is sized for.
        pool = DevicePool(num_devices=2, policy="cache_affinity",
                          max_workers=1)
        server = PumServer(pool=pool, queue_capacity=4096, verify="off")
        for label in self.labels:
            server.register_matrix(label, self.weights[label],
                                   element_size=WEIGHT_BITS,
                                   input_bits=INPUT_BITS)
        return server, time.perf_counter() - start

    def serve_image(self, server, index: int) -> Tuple[float, Dict[str, Tuple[float, float]], int]:
        """One image; returns (seconds, per-layer modelled cost, failures).

        Only submit-to-resolution is timed; the ledger reads between layers
        (which check the modelled cost) fall outside it.
        """
        pool = server.pool
        image = self.images[index % NUM_IMAGES]
        seconds = 0.0
        failed = 0
        costs: Dict[str, Tuple[float, float]] = {}
        for label in self.labels:
            shifted, offsets, expected = image[label]
            before = pool.total_ledger()
            start = time.perf_counter()
            futures = server.submit_batch(label, shifted, input_bits=INPUT_BITS)
            server.run_until_idle()
            responses = [future.result() for future in futures]
            seconds += time.perf_counter() - start
            after = pool.total_ledger()
            costs[label] = (after.cycles - before.cycles,
                            after.energy_pj - before.energy_pj)
            ok = [response.ok for response in responses]
            failed += ok.count(False)
            if all(ok):
                raw = np.stack([response.result for response in responses])
                got = raw - offsets[:, None] * self.column_sums[label][None, :]
                if not np.array_equal(got, expected):
                    self.errors.append(f"{label}: result differs from q_patches @ q_weight")
        return seconds, costs, failed

    def take_errors(self) -> List[str]:
        errors, self.errors = self.errors, []
        return errors

    def check_golden(self, costs: Dict[str, Tuple[float, float]]) -> None:
        """The first image after set-up must cost exactly the golden ledger."""
        if self.golden is None:
            self.errors.append(f"{GOLDEN.name} is missing")
            return
        for label in self.labels:
            cycles, energy = costs[label]
            want = self.golden["layers"][label]
            if cycles != want["cycles"] or energy != want["energy_pj"]:
                self.errors.append(
                    f"{label}: modelled ({cycles!r} cycles, {energy!r} pJ) "
                    f"differs from golden ({want['cycles']!r}, {want['energy_pj']!r})"
                )

    def check_cycles(self, costs: Dict[str, Tuple[float, float]]) -> None:
        """Later images must cost the golden cycles (energies are float
        deltas of a growing total, so only the first image's are exact)."""
        if self.golden is None:
            return
        for label in self.labels:
            if costs[label][0] != self.golden["layers"][label]["cycles"]:
                self.errors.append(f"{label}: modelled cycles drifted")


def _model(costs: Dict[str, Tuple[float, float]], before, after,
           per: float) -> Dict[str, float]:
    """``model.*`` of the golden image: ledger deltas per request, plus each
    layer's cycles."""
    metrics = model_breakdown(
        {key: value - before.cycle_breakdown.get(key, 0.0)
         for key, value in after.cycle_breakdown.items()},
        {key: value - before.energy_breakdown.get(key, 0.0)
         for key, value in after.energy_breakdown.items()},
        per,
    )
    for label, (cycles, _) in costs.items():
        metrics[f"model.cycles.{label}"] = cycles
    return metrics


def window(bench: Resnet20, traced: bool) -> Window:
    """Set up afresh, serve the golden image, then ``IMAGES_PER_WINDOW``
    timed images."""
    tracer = Tracer() if traced else None
    uninstall = install(tracer) if traced else None
    try:
        began = time.perf_counter()
        server, setup_s = bench.setup()
        builds = server.planner_builds()
        before = server.pool.total_ledger()
        # The first image after set-up is the golden check and the warm-up.
        _, costs, failed = bench.serve_image(server, 0)
        after = server.pool.total_ledger()
        bench.check_golden(costs)
        latencies = []
        for index in range(1, IMAGES_PER_WINDOW + 1):
            seconds, later, lost = bench.serve_image(server, index)
            bench.check_cycles(later)
            latencies.append(seconds)
            failed += lost
        wall = time.perf_counter() - began
    finally:
        if uninstall is not None:
            uninstall()
    threads = threading.active_count()
    server.pool.close()
    mvms = bench.mvms_per_image
    result = Window(
        setups=[setup_s],
        closed_requests=mvms * len(latencies),
        closed_s=sum(latencies),
        latencies=latencies,
        attempted=(IMAGES_PER_WINDOW + 1) * mvms,
        failed=failed,
        cycles=sum(cycles for cycles, _ in costs.values()),
        energy_pj=sum(energy for _, energy in costs.values()),
        requests=mvms,
        threads=threads,
        errors=bench.take_errors(),
        wall_s=wall,
    )
    if traced:
        tallies = tracer.snapshot()
        result.layers = layer_metrics(tallies)
        result.layers.update(server_metrics(server, builds))
        result.layers.update(_model(costs, before, after, mvms))
        result.layers["trace.unaccounted_share"] = unaccounted_share(
            tallies, wall)
    return result


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """Windows until ``seconds`` are used; traced runs alternate an
    untraced reference window with a traced one."""
    bench = Resnet20(seed)
    windows = run_windows(
        seconds, 2 if trace else MIN_WINDOWS,
        lambda number: window(bench, traced=trace and number % 2 == 1),
    )
    return Outcome(
        metrics=traced_metrics(windows) if trace else end_to_end(windows),
        attempted=sum(w.attempted for w in windows),
        failed=sum(w.failed for w in windows),
        errors=[error for w in windows for error in w.errors],
        info={"samples": samples(windows),
              "mvms_per_image": bench.mvms_per_image},
    )


def capture_golden() -> None:
    """Write the golden per-layer ledger of the first image after set-up.

    Run ``python3 perfbench/run.py --capture-golden`` only when a change is
    meant to alter the modelled hardware; a host-side optimisation must
    leave this file valid.
    """
    bench = Resnet20(seed=0)
    server, _ = bench.setup()
    _, costs, _ = bench.serve_image(server, 0)
    server.pool.close()
    layers = {label: {"cycles": cycles, "energy_pj": energy}
              for label, (cycles, energy) in costs.items()}
    GOLDEN.write_text(json.dumps({"layers": layers}, indent=1) + "\n")
