"""Device-side arbitration between virtual functions (paper §5.5.2).

Two arbiters over the same engine pool:

* :class:`FcfsArbiter` — one shared FIFO (QAT): whoever enqueues first
  is served first, so a bursty tenant monopolizes the engines and the
  hardware queue ceiling blocks everyone else's submissions;
* :class:`FairArbiter` — per-VF queues served round-robin (DP-CSD's
  front-end QoS): each VF gets an equal share of engine passes
  regardless of how deeply its neighbours queue.

Both are real queueing processes on the DES, not closed-form formulas:
the CV gap in Figure 20 *emerges* from the scheduling discipline.

The engines are callbacks on the simulator heap.  An engine's start-up
hop, each service timeout and the zero-delay wake that sleeping engines
get when work arrives are one
:meth:`~repro.sim.engine.Simulator.call_later` push each, as the
one-push-for-one-push rule in :mod:`repro.sim.engine` requires.  A
request's ``done`` hook is called when its service ends; callers that
wait on an event pass ``event.succeed``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.engine import Simulator


@dataclass(slots=True)
class VfRequest:
    """One tenant request passing through the device."""

    vf_index: int
    nbytes: int
    service_ns: float
    #: Called with no arguments when an engine finishes the request.
    done: Callable[[], Any]


class _ArbiterBase:
    """Engine-slot dispatch shared by both policies.

    Engine slots are interchangeable, so idle ones are only counted:
    ``_sleeping`` engines wait for work, and ``_wake_pending`` marks
    the one zero-delay wake already on the heap for them.
    """

    __slots__ = ("sim", "engine_slots", "_sleeping", "_wake_pending")

    def __init__(self, sim: Simulator, engine_slots: int) -> None:
        if engine_slots < 1:
            raise SimulationError("need at least one engine slot")
        self.sim = sim
        self.engine_slots = engine_slots
        self._sleeping = 0
        self._wake_pending = False
        # Let the runtime sanitizer audit arbiter queues at run end.
        register = getattr(sim, "_register_waitable", None)
        if register is not None:
            register(self)
        for _ in range(engine_slots):
            sim.call_later(0.0, self._engine_step)

    # -- subclass interface --

    def _pop_next(self) -> VfRequest | None:
        raise NotImplementedError

    def submit(self, request: VfRequest) -> None:
        raise NotImplementedError

    # -- engine machinery --

    def _notify(self) -> None:
        if self._sleeping and not self._wake_pending:
            self._wake_pending = True
            self.sim.call_later(0.0, self._wake)

    def _wake(self) -> None:
        sleepers = self._sleeping
        self._sleeping = 0
        self._wake_pending = False
        for _ in range(sleepers):
            self._engine_step()

    def _engine_step(self) -> None:
        """One idle engine takes the next request, or goes to sleep."""
        request = self._pop_next()
        if request is None:
            self._sleeping += 1
            return
        self.sim.call_later(request.service_ns,
                            partial(self._engine_done, request))

    def _engine_done(self, request: VfRequest) -> None:
        request.done()
        self._engine_step()


class FcfsArbiter(_ArbiterBase):
    """Shared FIFO with a device-wide in-flight ceiling (QAT)."""

    __slots__ = ("_queue", "_ceiling", "_blocked")

    def __init__(self, sim: Simulator, engine_slots: int,
                 queue_ceiling: int) -> None:
        self._queue: deque[VfRequest] = deque()
        self._ceiling = queue_ceiling
        self._blocked: deque[VfRequest] = deque()
        super().__init__(sim, engine_slots)

    def submit(self, request: VfRequest) -> None:
        if len(self._queue) >= self._ceiling:
            # Hardware queue full: the submission itself blocks until a
            # slot frees (the "concurrency ceiling" of Finding 6).
            self._blocked.append(request)
            return
        self._queue.append(request)
        self._notify()

    def _pop_next(self) -> VfRequest | None:
        if not self._queue:
            return None
        request = self._queue.popleft()
        while self._blocked and len(self._queue) < self._ceiling:
            self._queue.append(self._blocked.popleft())
        return request


class FairArbiter(_ArbiterBase):
    """Per-VF queues served round-robin (DP-CSD front-end QoS)."""

    __slots__ = ("_queues", "_cursor")

    def __init__(self, sim: Simulator, engine_slots: int,
                 vf_count: int) -> None:
        self._queues: list[deque[VfRequest]] = [deque()
                                                for _ in range(vf_count)]
        self._cursor = 0
        super().__init__(sim, engine_slots)

    def submit(self, request: VfRequest) -> None:
        self._queues[request.vf_index].append(request)
        self._notify()

    def _pop_next(self) -> VfRequest | None:
        vf_count = len(self._queues)
        for step in range(vf_count):
            index = (self._cursor + step) % vf_count
            if self._queues[index]:
                self._cursor = (index + 1) % vf_count
                return self._queues[index].popleft()
        return None
