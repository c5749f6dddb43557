"""Runtime simulation sanitizer: a :class:`Simulator` that checks its
own invariants while producing byte-identical results.

:class:`SanitizedSimulator` re-implements :meth:`Simulator.run` with
the exact same pop order and dispatch as the production kernel, adding
validation at each pop:

* **monotonic time** — popped timestamps never decrease and never fall
  behind the clock by more than the engine's own 1e-9 tolerance;
* **heap-entry discipline** — every queue entry is a
  ``(when, seq, item)`` triple with a numeric ``when``, an ``int``
  ``seq`` that is unique across the run, and an ``item`` that is an
  :class:`Event` or a bare callable;
* **event lifecycle** — an event fires exactly once, and its callback
  slot is empty immediately after firing and stays empty (late waiters
  must go through :meth:`Event.add_callback`, which schedules a fresh
  queue entry instead of mutating a fired event);
* **waiter-queue leaks** — at :meth:`finish`, no
  :class:`~repro.sim.engine.Resource` still has blocked acquirers, no
  :class:`~repro.sim.engine.Store` still holds undelivered items, no
  QoS arbiter still has queued or blocked requests, and no fleet
  device still holds batches its submission path never rang.  (Idle
  consumers are fine: a parked ``Store.get()`` waiter, a sleeping
  arbiter engine or an idle device submitter ends every run waiting
  for work that never comes.)

Validation happens at pop time inside the run loop, never by changing
what is scheduled or when, so a sanitized run's ``RunResult`` rows and
exported trace are byte-for-byte identical to a plain run — the golden
test asserts exactly that.

Enable it per run with ``Cluster.from_spec(spec, sanitize=True)``, the
``--sanitize`` CLI flag, or ``REPRO_SANITIZE=1`` in the environment.
"""

from __future__ import annotations

import os
from heapq import heappop
from typing import Any

from repro.errors import SanitizerError
from repro.sim.engine import Event, Simulator

__all__ = ["SanitizedSimulator", "sanitize_from_env"]

#: Environment values that turn the sanitizer on.
_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitize_from_env(default: bool = False) -> bool:
    """Whether ``REPRO_SANITIZE`` asks for a sanitized simulator."""
    value = os.environ.get("REPRO_SANITIZE")
    if value is None:
        return default
    return value.strip().lower() in _TRUTHY


class SanitizedSimulator(Simulator):
    """Drop-in :class:`Simulator` with invariant checking.

    Construction is identical; :meth:`run` validates every queue entry
    it pops, and :meth:`finish` audits waiter queues after the driver
    has drained the run.  Components that want leak auditing register
    themselves via the ``_register_waitable`` hook (a plain
    :class:`Simulator` has no such attribute, so registration costs one
    failed ``getattr`` at construction time and nothing per event).
    """

    def __init__(self) -> None:
        super().__init__()
        self._seen_seqs: set[int] = set()
        #: Events fired in the current timestamp batch (checked and
        #: promoted to _fired_events at each batch boundary).
        self._batch_fired: list[Event] = []
        #: Every event fired this run (audited once more at finish()).
        self._fired_events: list[Event] = []
        self._waitables: list[Any] = []
        self.entries_checked = 0

    def _register_waitable(self, waitable: Any) -> None:
        """Called by Resource/Store/arbiter constructors (via getattr)."""
        self._waitables.append(waitable)

    # -- invariant helpers -----------------------------------------------------

    def _check_entry(self, entry: Any) -> None:
        if not (type(entry) is tuple and len(entry) == 3):
            raise SanitizerError(
                f"heap entry {entry!r} is not a (when, seq, item) triple"
            )
        when, seq, item = entry
        if not isinstance(when, (int, float)):
            raise SanitizerError(
                f"heap entry timestamp {when!r} is not a number"
            )
        if type(seq) is not int:
            raise SanitizerError(
                f"heap entry sequence {seq!r} is not an int"
            )
        if seq in self._seen_seqs:
            raise SanitizerError(
                f"heap entry sequence {seq} popped twice; sequence "
                f"numbers must come from the simulator's single counter"
            )
        self._seen_seqs.add(seq)
        if not isinstance(item, Event) and not callable(item):
            raise SanitizerError(
                f"heap entry item {item!r} is neither an Event nor a "
                f"callable"
            )

    def _check_fired(self, events: list[Event]) -> None:
        """Fired events must keep an empty callback slot forever."""
        for event in events:
            if event._callbacks is not None:
                raise SanitizerError(
                    "callbacks were attached to an already-fired event "
                    "by direct mutation; late waiters must use "
                    "Event.add_callback (which schedules a fresh queue "
                    "entry) or Simulator.call_later"
                )

    # -- the checked run loop --------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Identical pop order and dispatch to :meth:`Simulator.run`,
        with each entry validated as it is popped."""
        queue = self._queue
        while queue:
            when = queue[0][0]
            if until is not None and when > until:
                self._now = until
                return
            if when < self._now - 1e-9:
                raise SanitizerError(
                    f"time moved backwards: entry at {when} popped with "
                    f"the clock at {self._now}"
                )
            self._now = when
            while queue and queue[0][0] == when:
                entry = queue[0]
                self._check_entry(entry)
                item = heappop(queue)[2]
                self.entries_checked += 1
                if isinstance(item, Event):
                    if item.fired:
                        raise SanitizerError(
                            f"{type(item).__name__} fired twice; events "
                            f"are one-shot"
                        )
                    if not item.triggered:
                        raise SanitizerError(
                            f"{type(item).__name__} reached the queue "
                            f"without being triggered"
                        )
                    item._fire()
                    if item._callbacks is not None:
                        raise SanitizerError(
                            "event callback slot non-empty immediately "
                            "after firing; _fire must clear it and "
                            "late waiters must schedule fresh entries"
                        )
                    self._batch_fired.append(item)
                else:
                    item()
            self._check_fired(self._batch_fired)
            self._fired_events.extend(self._batch_fired)
            del self._batch_fired[:]
        if until is not None:
            self._now = max(self._now, until)

    # -- end-of-run audit ------------------------------------------------------

    def finish(self) -> None:
        """Audit waiter queues once the driver has drained the run.

        Raises :class:`SanitizerError` naming every leak:  a
        :class:`Resource` with blocked acquirers, a :class:`Store` with
        undelivered items, an arbiter with queued or blocked requests,
        or a fleet device with undelivered batches.  Idle consumers
        (parked ``Store.get()`` waiters, sleeping engines, idle
        submitters) are deliberately *not* leaks — they legitimately
        end every run waiting for their next work item.
        """
        self._check_fired(self._batch_fired)
        self._check_fired(self._fired_events)
        leaks: list[str] = []
        for waitable in self._waitables:
            name = type(waitable).__name__
            waiting = getattr(waitable, "_waiting", None)
            if waiting:
                leaks.append(
                    f"{name} ended the run with {len(waiting)} blocked "
                    f"acquirer(s)"
                )
            items = getattr(waitable, "_items", None)
            if items:
                leaks.append(
                    f"{name} ended the run with {len(items)} "
                    f"undelivered item(s)"
                )
            batches = getattr(waitable, "_batches", None)
            if batches:
                leaks.append(
                    f"{name} ended the run with {len(batches)} "
                    f"undelivered batch(es)"
                )
            blocked = getattr(waitable, "_blocked", None)
            if blocked:
                leaks.append(
                    f"{name} ended the run with {len(blocked)} blocked "
                    f"request(s)"
                )
            shared_queue = getattr(waitable, "_queue", None)
            if shared_queue:
                leaks.append(
                    f"{name} ended the run with {len(shared_queue)} "
                    f"undispatched request(s)"
                )
            queues = getattr(waitable, "_queues", None)
            if queues is not None:
                per_vf = (queues.values()
                          if hasattr(queues, "values") else queues)
                pending = sum(len(q) for q in per_vf)
                if pending:
                    leaks.append(
                        f"{name} ended the run with {pending} queued "
                        f"request(s)"
                    )
        if leaks:
            raise SanitizerError(
                "waiter-queue leak(s) at run end: " + "; ".join(leaks)
            )
