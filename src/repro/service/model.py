"""Per-device request cost models calibrated from the hw layer.

The service layer needs ``(nbytes, ratio) -> latency budget`` for every
fleet device without running the functional codecs per request.  This
module runs a handful of real requests through a
:class:`~repro.hw.engine.CdpuDevice` at calibration time, splits each
measured :class:`~repro.hw.engine.RequestResult` with
:meth:`~repro.hw.engine.CdpuDevice.service_profile`, and fits a small
parametric model:

* ``submit_ns`` — the doorbell/descriptor cost, kept separate so
  batching can amortize it across a batch (Finding 2's per-request
  overhead is exactly what batch submission buys back);
* ``pre_ns``/``post_ns`` — transfer-in / transfer-out + completion,
  linear in request size (the interconnect term that separates the
  placements in Figure 11);
* ``engine_ns`` — engine occupancy, linear in size with the slope and
  intercept interpolated between compressibility anchors (the Figure 12
  degradation axis).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServiceError
from repro.hw.engine import CdpuDevice
from repro.workloads.datagen import ratio_controlled_bytes


@dataclass(slots=True)
class ModeledCost:
    """Predicted latency budget for one request (all ns)."""

    submit_ns: float
    pre_ns: float
    engine_ns: float
    post_ns: float

    @property
    def total_ns(self) -> float:
        return self.submit_ns + self.pre_ns + self.engine_ns + self.post_ns


@dataclass(slots=True)
class RatioAnchor:
    """Linear-in-size engine occupancy fit at one achieved ratio."""

    ratio: float
    overhead_ns: float
    per_byte_ns: float

    def engine_ns(self, nbytes: int) -> float:
        return self.overhead_ns + self.per_byte_ns * nbytes


class DeviceCostModel:
    """Predicts a request's phase budget for one device."""

    def __init__(self, anchors: list[RatioAnchor],
                 submit_ns: float = 0.0,
                 pre_overhead_ns: float = 0.0,
                 pre_per_byte_ns: float = 0.0,
                 post_overhead_ns: float = 0.0,
                 post_per_byte_ns: float = 0.0) -> None:
        if not anchors:
            raise ServiceError("cost model needs at least one ratio anchor")
        self.anchors = sorted(anchors, key=lambda a: a.ratio)
        self.submit_ns = submit_ns
        self.pre_overhead_ns = pre_overhead_ns
        self.pre_per_byte_ns = pre_per_byte_ns
        self.post_overhead_ns = post_overhead_ns
        self.post_per_byte_ns = post_per_byte_ns

    # -- prediction ----------------------------------------------------------

    def _engine_ns(self, nbytes: int, ratio: float) -> float:
        anchors = self.anchors
        if ratio <= anchors[0].ratio:
            return anchors[0].engine_ns(nbytes)
        if ratio >= anchors[-1].ratio:
            return anchors[-1].engine_ns(nbytes)
        for low, high in zip(anchors, anchors[1:]):
            if low.ratio <= ratio <= high.ratio:
                span = high.ratio - low.ratio
                weight = (ratio - low.ratio) / span if span > 0 else 0.0
                return (low.engine_ns(nbytes) * (1 - weight)
                        + high.engine_ns(nbytes) * weight)
        return anchors[-1].engine_ns(nbytes)  # pragma: no cover

    def predict(self, nbytes: int, ratio: float = 1.0) -> ModeledCost:
        if nbytes <= 0:
            raise ServiceError(f"request size must be > 0, got {nbytes}")
        return ModeledCost(
            submit_ns=max(self.submit_ns, 0.0),
            pre_ns=max(self.pre_overhead_ns
                       + self.pre_per_byte_ns * nbytes, 0.0),
            engine_ns=max(self._engine_ns(nbytes, ratio), 1.0),
            post_ns=max(self.post_overhead_ns
                        + self.post_per_byte_ns * nbytes, 0.0),
        )

    # -- calibration ---------------------------------------------------------

    @classmethod
    def calibrate(cls, device: CdpuDevice, op: str = "compress",
                  sizes: tuple[int, int] = (2048, 8192),
                  ratios: tuple[float, ...] = (0.35, 1.0),
                  seed: int = 17) -> "DeviceCostModel":
        """Fit a model by measuring real requests against ``device``."""
        if len(sizes) != 2 or sizes[0] >= sizes[1]:
            raise ServiceError(f"need two ascending sizes, got {sizes}")
        small, large = sizes
        anchors: list[RatioAnchor] = []
        submit_samples: list[float] = []
        pre_points: list[tuple[int, float]] = []
        post_points: list[tuple[int, float]] = []
        for index, target in enumerate(ratios):
            measured: list[tuple[int, float, float]] = []
            for size in (small, large):
                data = ratio_controlled_bytes(size, target,
                                              seed=seed + index)
                if op == "decompress":
                    payload = device.compress(data).payload
                    result = device.decompress(payload)
                else:
                    result = device.compress(data)
                profile = device.service_profile(result)
                submit = result.latency.submit_ns
                submit_samples.append(submit)
                pre_points.append((size, max(profile.pre_ns - submit, 0.0)))
                post_points.append((size, profile.post_ns))
                measured.append((size, profile.engine_busy_ns, result.ratio))
            (s0, e0, r0), (s1, e1, _) = measured
            per_byte = max((e1 - e0) / (s1 - s0), 0.0)
            overhead = max(e0 - per_byte * s0, 0.0)
            anchors.append(RatioAnchor(ratio=r0, overhead_ns=overhead,
                                       per_byte_ns=per_byte))
        # Collapse duplicate achieved ratios (devices that ignore the
        # compressibility axis, e.g. the CPU cost model).
        deduped: dict[float, RatioAnchor] = {}
        for anchor in anchors:
            deduped[round(anchor.ratio, 4)] = anchor
        pre_overhead, pre_per_byte = _fit_linear(pre_points)
        post_overhead, post_per_byte = _fit_linear(post_points)
        return cls(
            anchors=list(deduped.values()),
            submit_ns=max(submit_samples),
            pre_overhead_ns=pre_overhead,
            pre_per_byte_ns=pre_per_byte,
            post_overhead_ns=post_overhead,
            post_per_byte_ns=post_per_byte,
        )


class CostTable:
    """Precomputed lookup over a :class:`DeviceCostModel`.

    The dispatch hot path predicts a cost for every candidate device on
    every request; with workload generators drawing sizes from a small
    fixed palette, those predictions endlessly recompute the same
    handful of linear fits.  A ``CostTable`` caches, per request size,
    the size-dependent terms (submit/pre/post budgets and the engine
    occupancy at each calibration anchor) and finishes a prediction
    with only the ratio interpolation.

    Every arithmetic expression is copied verbatim from
    :meth:`DeviceCostModel.predict` / ``_engine_ns`` and evaluated in
    the same order on the same doubles, so ``table.predict(n, r)`` is
    **bit-identical** to ``model.predict(n, r)`` — the byte-identity
    bar of the golden-run tests holds with tables on or off.

    One table per (device-kind, op) is built at cluster assembly and
    shared across identical fleet members (they share the calibrated
    model too), so the row cache warms once for the whole fleet.
    """

    __slots__ = ("model", "_rows")

    def __init__(self, model: DeviceCostModel) -> None:
        self.model = model
        #: nbytes -> (submit, pre, post, anchor ratios, anchor engines)
        self._rows: dict[int, tuple[float, float, float,
                                    tuple[float, ...],
                                    tuple[float, ...]]] = {}

    def _build_row(self, nbytes: int) -> tuple:
        if nbytes <= 0:
            raise ServiceError(f"request size must be > 0, got {nbytes}")
        model = self.model
        anchors = model.anchors
        row = (
            max(model.submit_ns, 0.0),
            max(model.pre_overhead_ns
                + model.pre_per_byte_ns * nbytes, 0.0),
            max(model.post_overhead_ns
                + model.post_per_byte_ns * nbytes, 0.0),
            tuple(anchor.ratio for anchor in anchors),
            tuple(anchor.overhead_ns + anchor.per_byte_ns * nbytes
                  for anchor in anchors),
        )
        self._rows[nbytes] = row
        return row

    def predict(self, nbytes: int, ratio: float = 1.0) -> ModeledCost:
        row = self._rows.get(nbytes)
        if row is None:
            row = self._build_row(nbytes)
        submit_ns, pre_ns, post_ns, ratios, engines = row
        if ratio <= ratios[0]:
            engine = engines[0]
        elif ratio >= ratios[-1]:
            engine = engines[-1]
        else:
            engine = engines[-1]
            for index in range(len(ratios) - 1):
                low = ratios[index]
                high = ratios[index + 1]
                if low <= ratio <= high:
                    span = high - low
                    weight = (ratio - low) / span if span > 0 else 0.0
                    engine = (engines[index] * (1 - weight)
                              + engines[index + 1] * weight)
                    break
        return ModeledCost(submit_ns, pre_ns, max(engine, 1.0), post_ns)


def _fit_linear(points: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares ``overhead + per_byte * size`` fit, clamped >= 0."""
    n = len(points)
    if n == 0:
        return 0.0, 0.0
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var == 0:
        return max(mean_y, 0.0), 0.0
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / var
    slope = max(slope, 0.0)
    return max(mean_y - slope * mean_x, 0.0), slope


def calibrated(devices: list[CdpuDevice], op: str = "compress",
               **kwargs) -> list[tuple[CdpuDevice, DeviceCostModel]]:
    """Pair each device with its calibrated cost model."""
    return [(device, DeviceCostModel.calibrate(device, op=op, **kwargs))
            for device in devices]


def calibrated_ops(
        devices: list[CdpuDevice],
        ops: tuple[str, ...] = ("compress", "decompress"),
        **kwargs) -> list[tuple[CdpuDevice, dict[str, DeviceCostModel]]]:
    """Pair each device with per-op cost models for mixed-op serving.

    The returned ``(device, {op: model})`` pairs plug straight into
    :class:`~repro.service.fleet.FleetDevice` /
    :func:`~repro.service.offload.build_fleet`, so decompress
    requests are priced by a decompress-calibrated model instead of
    being silently costed as compress.
    """
    return [(device, {op: DeviceCostModel.calibrate(device, op=op, **kwargs)
                      for op in ops})
            for device in devices]
