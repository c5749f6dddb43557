"""Fleet-side device wrapper: submission queue, batching, arbitration.

A :class:`FleetDevice` is one member of the offload fleet.  It bounds
the number of requests a device will hold (``queue_limit`` — the
backpressure surface the dispatcher and admission controller react to),
coalesces submissions into batches that share one doorbell, and serves
engine occupancy through the :mod:`repro.virt.qos` arbiters so the
multi-tenant scheduling behaviour of Figure 20 (shared-FIFO QAT vs
fair-scheduled DP-CSD) carries over into the service layer unchanged.

Fleet membership is dynamic: each device carries a lifecycle
:class:`DeviceState` (online → draining → offline, driven by the
:class:`~repro.service.control.FleetController`) and a ``speed_factor``
that models brown-out/power-cap derating — engine occupancy is scaled
by ``1 / speed_factor`` both in the served timing and in the response
estimates the placement policies consult, so dispatch adapts to a
derated device without being told.

The serving data plane runs on bare heap callbacks.  A device's
submission path is a deque of batches waiting for the doorbell plus an
idle flag, and each submission walks its own slotted pipeline
(:class:`_Submission`): start, pre-processing, VF arbiter,
post-processing, completion.  Every stage boundary is exactly one heap
push, zero-delay hops included (the one-push-for-one-push rule in
:mod:`repro.sim.engine`); calling through a hop directly would reorder
same-timestamp work.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ServiceError
from repro.hw.engine import CdpuDevice, Placement
from repro.service.model import CostTable, DeviceCostModel, ModeledCost
from repro.service.request import OffloadRequest
from repro.sim.engine import Simulator
from repro.sim.stats import ThroughputTracker
from repro.telemetry import DISABLED
from repro.virt.qos import FairArbiter, FcfsArbiter, VfRequest


class DeviceState(enum.Enum):
    """Lifecycle of one fleet member."""

    ONLINE = "online"        # accepting and serving work
    DRAINING = "draining"    # serving in-flight work, accepting nothing
    OFFLINE = "offline"      # unplugged; holds no work


class Batcher:
    """Coalesces items into batches flushed on size or timeout.

    The first item into an empty buffer arms a flush timer; reaching
    ``batch_size`` flushes immediately.  A generation counter voids
    timers for batches that already flushed on size, so no wall-clock
    state or cancellation machinery is needed.
    """

    __slots__ = ("sim", "batch_size", "timeout_ns", "_flush_fn",
                 "_buffer", "_generation")

    def __init__(self, sim: Simulator, batch_size: int,
                 timeout_ns: float | None,
                 flush: Callable[[list], None]) -> None:
        if batch_size < 1:
            raise ServiceError(f"batch size must be >= 1, got {batch_size}")
        if timeout_ns is not None and timeout_ns < 0:
            raise ServiceError(f"negative batch timeout {timeout_ns}")
        self.sim = sim
        self.batch_size = batch_size
        self.timeout_ns = timeout_ns
        self._flush_fn = flush
        self._buffer: list = []
        self._generation = 0

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def add(self, item: Any) -> None:
        self._buffer.append(item)
        if len(self._buffer) >= self.batch_size:
            self.flush_now()
        elif len(self._buffer) == 1 and self.timeout_ns is not None:
            generation = self._generation
            self.sim.call_later(self.timeout_ns,
                                lambda: self._expire(generation))

    def _expire(self, generation: int) -> None:
        if generation == self._generation and self._buffer:
            self.flush_now()

    def flush_now(self) -> None:
        """Flush whatever is buffered (also used to drain at stream end)."""
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self._generation += 1
        self._flush_fn(batch)

    def drain_buffer(self) -> list:
        """Take the buffered items back without flushing them.

        Used when a device is unplugged mid-run: work that has not yet
        rung a doorbell can still migrate to another fleet member.  The
        generation bump voids any armed flush timer.
        """
        buffer, self._buffer = self._buffer, []
        self._generation += 1
        return buffer


@dataclass(slots=True)
class _Submission:
    """One queued request plus its predicted cost and completion hook.

    After the doorbell the submission is also the request's serving
    pipeline: a zero-delay hop into :meth:`start`, the pre-processing
    delay, the VF arbiter, a zero-delay hop when the engine finishes,
    the post-processing delay, then completion.
    """

    device: "FleetDevice"
    request: OffloadRequest
    cost: ModeledCost
    on_complete: Callable[[OffloadRequest, "FleetDevice", ModeledCost],
                          None] | None
    #: When the request entered this device's queue (telemetry only).
    enqueue_ns: float
    #: When the pipeline started, after the doorbell.
    entry_ns: float = 0.0
    #: Engine occupancy at the derate sampled on arbiter entry.
    engine_ns: float = 0.0

    def start(self) -> None:
        device = self.device
        self.entry_ns = device.sim.now
        pre_ns = self.cost.pre_ns
        if pre_ns > 0:
            device.sim.call_later(pre_ns, self.arbitrate)
        else:
            self.arbitrate()

    def arbitrate(self) -> None:
        device = self.device
        request = self.request
        vf_count = device._vf_count
        # Derate sampled at engine-entry time: a brown-out mid-run slows
        # queued work too, exactly like a clock throttle would.
        engine_ns = self.cost.engine_ns / device.speed_factor
        self.engine_ns = engine_ns
        device.arbiter.submit(VfRequest(
            vf_index=request.tenant % vf_count if vf_count else 0,
            nbytes=request.nbytes,
            service_ns=engine_ns,
            done=self.engine_done,
        ))

    def engine_done(self) -> None:
        self.device.sim.call_later(0.0, self.post)

    def post(self) -> None:
        post_ns = self.cost.post_ns
        if post_ns > 0:
            self.device.sim.call_later(post_ns, self.complete)
        else:
            self.complete()

    def complete(self) -> None:
        device = self.device
        request = self.request
        cost = self.cost
        device.inflight -= 1
        device.backlog_ns = max(device.backlog_ns - cost.engine_ns, 0.0)
        device.completed += 1
        device.throughput.record(request.nbytes, self.engine_ns)
        tel = device.telemetry
        if tel.tracing:
            # ``dispatch`` covers batching + the shared doorbell ring;
            # ``serve`` is the device's own pre/engine/post pipeline.
            tel.span(device.name, "dispatch", self.enqueue_ns,
                     self.entry_ns, {"req": request.trace_id})
            tel.span(device.name, "serve", self.entry_ns, device.sim.now, {
                "req": request.trace_id, "op": request.op,
                "tenant": request.tenant,
            })
        if self.on_complete is not None:
            self.on_complete(request, device, cost)


class FleetDevice:
    """One device of the fleet, wrapped for service-level dispatch."""

    # "state" is a property backed by _state (with is_online as its
    # hot-path mirror), so it must not appear as a slot itself.
    __slots__ = ("sim", "device", "models", "_engines", "queue_limit",
                 "arbiter", "_vf_count", "batcher", "_batches",
                 "_ringing", "_submitter_idle",
                 "cost_tables", "_state", "is_online", "speed_factor",
                 "inflight", "peak_inflight", "completed",
                 "batches_submitted", "backlog_ns", "throughput",
                 "_cost_cache", "telemetry")

    def __init__(self, sim: Simulator, device: CdpuDevice,
                 model: DeviceCostModel | dict[str, DeviceCostModel]
                 | None = None, *,
                 queue_limit: int | None = None,
                 batch_size: int = 1,
                 batch_timeout_ns: float | None = None,
                 fair_share_tenants: int | None = None) -> None:
        self.sim = sim
        self.device = device
        # Per-op cost models: a bare model is the compress model (the
        # historical calling convention); a dict supplies one model per
        # op so decompress requests are never priced off the compress
        # calibration.  Missing ops calibrate lazily on first use.
        if isinstance(model, dict):
            self.models = dict(model)
        elif model is not None:
            self.models = {"compress": model}
        else:
            self.models = {"compress": DeviceCostModel.calibrate(device)}
        engines = max(device.engine_count, 1)
        self._engines = engines
        if queue_limit is None:
            # Enough slack to keep every engine fed through transfer
            # phases without letting one device absorb the whole fleet's
            # backlog; never beyond the hardware queue ceiling.
            queue_limit = min(4 * engines + 16, device.queue_depth)
        if queue_limit < 1:
            raise ServiceError(f"queue limit must be >= 1, got {queue_limit}")
        self.queue_limit = queue_limit
        if fair_share_tenants:
            self.arbiter: FairArbiter | FcfsArbiter = FairArbiter(
                sim, engines, fair_share_tenants)
            self._vf_count: int | None = fair_share_tenants
        else:
            self.arbiter = FcfsArbiter(sim, engines, device.queue_depth)
            self._vf_count = None
        self.batcher = Batcher(sim, batch_size, batch_timeout_ns,
                               self._launch_batch)
        # The serial submission path: batches waiting for the doorbell,
        # the batch being rung, and whether the path is idle.  It
        # starts busy until its start-up hop runs.
        self._batches: deque[list[_Submission]] = deque()
        self._ringing: list[_Submission] = []
        self._submitter_idle = False
        sim.call_later(0.0, self._next_batch)
        # Let the runtime sanitizer audit undelivered batches at run end.
        register = getattr(sim, "_register_waitable", None)
        if register is not None:
            register(self)
        #: Per-op precomputed cost tables (:class:`~repro.service.model.
        #: CostTable`), attached at cluster assembly and shared across
        #: identical fleet members; empty means predict off the live
        #: model.
        self.cost_tables: dict[str, CostTable] = {}
        self.state = DeviceState.ONLINE
        #: Brown-out/power-cap derating: fraction of nominal engine
        #: speed (1.0 = healthy).  Served engine occupancy and response
        #: estimates both scale by ``1 / speed_factor``.
        self.speed_factor = 1.0
        self.inflight = 0
        self.peak_inflight = 0
        self.completed = 0
        self.batches_submitted = 0
        #: Predicted engine-time backlog of everything in flight, in
        #: *healthy* (underated) engine-ns; the cost-model policy's
        #: queue-depth signal, scaled by the derate at estimate time.
        self.backlog_ns = 0.0
        self.throughput = ThroughputTracker()
        # One-slot prediction cache keyed by request identity: the
        # cost-model policy estimates every candidate right before the
        # winner is enqueued, so the enqueue predict is always a repeat.
        self._cost_cache: tuple[OffloadRequest, ModeledCost] | None = None
        #: Telemetry sink; the shared no-op unless the session wires a
        #: live one in (hot-path sites guard on ``telemetry.tracing``).
        self.telemetry = DISABLED

    @property
    def name(self) -> str:
        return self.device.name

    @property
    def placement(self) -> Placement:
        return self.device.placement

    @property
    def model(self) -> DeviceCostModel:
        """The compress-path model (historical single-op accessor)."""
        return self.model_for("compress")

    def model_for(self, op: str) -> DeviceCostModel:
        """The cost model pricing ``op``, calibrating it on first use."""
        model = self.models.get(op)
        if model is None:
            model = DeviceCostModel.calibrate(self.device, op=op)
            self.models[op] = model
        return model

    # -- lifecycle -------------------------------------------------------------

    @property
    def state(self) -> DeviceState:
        return self._state

    @state.setter
    def state(self, value: DeviceState) -> None:
        # ``is_online`` is kept as a plain attribute so the dispatch
        # hot path (every policy filters the fleet per request) reads
        # it without a property call; the setter keeps it in sync with
        # the (rarely changed) lifecycle state.
        self._state = value
        self.is_online = value is DeviceState.ONLINE

    def set_speed(self, factor: float) -> None:
        """Derate (or restore) the device to ``factor`` of nominal speed."""
        if not 0.0 < factor <= 1.0:
            raise ServiceError(
                f"speed factor {factor} outside (0, 1]"
            )
        self.speed_factor = factor

    def drain(self) -> None:
        """Stop accepting new work; in-flight work keeps serving."""
        if self.state is DeviceState.ONLINE:
            self.state = DeviceState.DRAINING

    def set_online(self) -> None:
        self.state = DeviceState.ONLINE

    def set_offline(self) -> None:
        if self.inflight > 0:
            raise ServiceError(
                f"{self.name}: cannot go offline with {self.inflight} "
                f"requests in flight (drain first)"
            )
        self.state = DeviceState.OFFLINE

    def take_buffered(self) -> list[_Submission]:
        """Reclaim not-yet-doorbelled submissions for migration.

        Work sitting in the batch buffer has not reached the hardware,
        so an unplug can hand it back to the scheduler; anything past
        the doorbell completes on the draining device.  Reverses the
        enqueue-side accounting for each reclaimed submission.
        """
        submissions = self.batcher.drain_buffer()
        for submission in submissions:
            self.inflight -= 1
            self.backlog_ns = max(
                self.backlog_ns - submission.cost.engine_ns, 0.0)
        return submissions

    # -- dispatch interface ----------------------------------------------------

    def can_accept(self) -> bool:
        return self.is_online and self.inflight < self.queue_limit

    def _predict(self, request: OffloadRequest) -> ModeledCost:
        cached = self._cost_cache
        if cached is not None and cached[0] is request:
            return cached[1]
        # Calibration-table fast path: identical devices share one
        # precomputed table per op (attached at cluster assembly), so
        # the common case is a dict hit plus the ratio interpolation.
        # Derated devices fall back to the live model — the table is
        # built against nominal calibration.
        table = self.cost_tables.get(request.op)
        if table is not None and self.speed_factor == 1.0:
            cost = table.predict(request.nbytes, request.ratio)
        else:
            cost = self.model_for(request.op).predict(request.nbytes,
                                                      request.ratio)
        self._cost_cache = (request, cost)
        return cost

    def estimate_response_ns(self, request: OffloadRequest) -> float:
        """Predicted response time if the request were routed here now.

        Queue wait is the predicted engine backlog spread over the
        device's engines, plus this request's own phase budget — the
        cost-model policy minimizes exactly this quantity.  Engine
        terms are scaled by the current derate, so a browned-out device
        prices itself honestly and placement adapts.
        """
        cost = self._predict(request)
        engine_wait = (self.backlog_ns / self._engines
                       + cost.engine_ns) / self.speed_factor
        return (engine_wait + cost.submit_ns + cost.pre_ns + cost.post_ns)

    def enqueue(self, request: OffloadRequest,
                on_complete: Callable[[OffloadRequest, "FleetDevice",
                                       ModeledCost], None] | None = None
                ) -> None:
        if not self.can_accept():
            raise ServiceError(
                f"{self.name}: enqueue rejected "
                f"(state={self.state.value}, inflight={self.inflight}, "
                f"queue limit {self.queue_limit})"
            )
        cost = self._predict(request)
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)
        self.backlog_ns += cost.engine_ns
        now = self.sim.now
        tel = self.telemetry
        if tel.tracing:
            # Scheduler-side wait: admission stamp to device entry.
            # Every routing path (dispatch, pump, spill, migrate) funnels
            # through here, so this one span covers them all.
            tel.span("scheduler", "queue", request.arrival_ns, now, {
                "req": request.trace_id, "device": self.name,
            })
        self.batcher.add(_Submission(self, request, cost, on_complete, now))

    # -- submission path -------------------------------------------------------

    # The submission path is serial per device: each batch rings the
    # doorbell once, so batching amortizes the ring across the batch
    # while back-to-back singleton submissions pay it every time.

    def _launch_batch(self, batch: list[_Submission]) -> None:
        self.batches_submitted += 1
        self._batches.append(batch)
        if self._submitter_idle:
            self._next_batch()

    def _next_batch(self) -> None:
        # Take the next batch through one zero-delay hop, or go idle.
        self._submitter_idle = not self._batches
        if self._batches:
            self._ringing = self._batches.popleft()
            self.sim.call_later(0.0, self._ring)

    def _ring(self) -> None:
        self.sim.call_later(max(s.cost.submit_ns for s in self._ringing),
                            self._rung)

    def _rung(self) -> None:
        call_later = self.sim.call_later
        for submission in self._ringing:
            call_later(0.0, submission.start)
        self._next_batch()
