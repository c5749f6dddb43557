"""Benchmark-side span tracing around the program's layer boundaries.

The traced run wraps public (and a few process-body) functions of each
layer from outside the program: a wrapper records a span (name, start,
end, parent) in memory, and each layer's *self time* is its spans'
duration minus the time their child spans cover.  Nothing inside
``src/`` changes, and an untraced run executes the unwrapped code,
because :meth:`Tracer.uninstall` puts every original attribute back.

Span names are ``<layer>:<function>``; the layer is the module name the
per-layer metrics report under (``sim``, ``service``, ``core`` ...).
The whole measured iteration runs inside one ``bench:iteration`` root
span, so the root's self time is what no layer claimed; coverage is
one minus that share.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_clock = time.perf_counter_ns

ROOT_KEY = "bench:iteration"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Wrappers only append to :attr:`log` — ``(key, start_ns)`` when a
    span opens, ``end_ns`` when it closes — so the traced run pays two
    clock reads and two appends per span; :meth:`summarize` turns the
    log into spans, self times and call counts after the run.
    """

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.log: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.nbytes: dict[str, int] = defaultdict(int)
        self.matcher: dict[str, int] = defaultdict(int)
        #: ``hash(data)`` of every deflate compress input.
        self.compress_inputs: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter (start of a traced run).

        Containers are cleared in place: installed wrappers hold them.
        """
        for recorded in (self.log, self.counts, self.nbytes, self.matcher,
                         self.compress_inputs):
            recorded.clear()
        #: ``[key, start_ns, end_ns, parent_index]`` per span, in open
        #: order (a parent precedes its children); filled by summarize.
        self.spans: list[list] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)

    def summarize(self) -> None:
        """Fold :attr:`log` into spans, per-layer self time and per-key
        inclusive time and calls.

        A span's self time is its duration minus the time its direct
        children cover; it is billed to the layer its key names.
        """
        spans = self.spans
        self_ns = self.self_ns
        inclusive = self.inclusive_ns
        calls = self.calls
        stack: list[list] = []  # [index, key, start_ns, child_ns]
        for item in self.log:
            if item.__class__ is tuple:
                key, start = item
                parent = stack[-1][0] if stack else -1
                stack.append([len(spans), key, start, 0])
                spans.append([key, start, 0, parent])
                continue
            index, key, start, child_ns = stack.pop()
            elapsed = item - start
            spans[index][2] = item
            self_ns[key.split(":", 1)[0]] += elapsed - child_ns
            inclusive[key] += elapsed
            calls[key] += 1
            if stack:
                stack[-1][3] += elapsed
        self.log.clear()

    @contextmanager
    def span(self, key: str):
        """Record one span around a block."""
        append = self.log.append
        append((key, _clock()))
        try:
            yield
        finally:
            append(_clock())

    # -- wrapping --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer: str, kind: str = "call",
             key: str | None = None) -> None:
        """Wrap ``owner.attr`` (a class or a module) in place.

        ``kind`` is ``call`` (one span per call), ``gen`` (the function
        returns a generator; one span per resumption, so process bodies
        the event loop drives are billed to their layer) or ``count``
        (count calls under ``key``, no span).  Attributes a class only
        inherits are left alone: the defining class is wrapped instead.
        """
        if isinstance(owner, type) and attr not in owner.__dict__:
            return
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        binder = None
        if isinstance(raw, (classmethod, staticmethod)):
            binder = type(raw)
            raw = raw.__func__
        name = getattr(owner, "__name__", "?").rsplit(".", 1)[-1]
        key = key or f"{layer}:{name}.{attr}"
        wrapped = _WRAPPERS[kind](self, raw, key)
        self._patch(owner, attr, binder(wrapped) if binder else wrapped)

    def wrap_custom(self, owner, attr: str, factory) -> None:
        """Replace ``owner.attr`` with ``factory(tracer, original)``."""
        self._patch(owner, attr, factory(self, owner.__dict__[attr]))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------------

    def coverage(self) -> float:
        """Share of the root span's time that some layer claimed."""
        total = self.inclusive_ns.get(ROOT_KEY, 0)
        if total <= 0:
            return 0.0
        return 1.0 - self.self_ns.get("bench", 0) / total

    def write(self, path: Path, meta: dict) -> None:
        """Write the recorded spans (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps({**meta, "fields": [
                "name", "start_ns", "end_ns", "parent"]}) + "\n")
            for key, start, end, parent in self.spans:
                handle.write(json.dumps(
                    [key, start - origin, end - origin, parent]) + "\n")


class _TimedGenerator:
    """Generator proxy: each resumption runs inside one span."""

    __slots__ = ("_gen", "_append", "_key")

    def __init__(self, gen, append, key: str) -> None:
        self._gen = gen
        self._append = append
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        append = self._append
        append((self._key, _clock()))
        try:
            return self._gen.send(value)
        finally:
            append(_clock())

    def throw(self, *args):
        append = self._append
        append((self._key, _clock()))
        try:
            return self._gen.throw(*args)
        finally:
            append(_clock())

    def close(self) -> None:
        self._gen.close()


def _call_wrapper(tracer: Tracer, fn, key: str):
    append = tracer.log.append

    def wrapped(*args, **kwargs):
        append((key, _clock()))
        try:
            return fn(*args, **kwargs)
        finally:
            append(_clock())
    return wrapped


def _gen_wrapper(tracer: Tracer, fn, key: str):
    append = tracer.log.append

    def wrapped(*args, **kwargs):
        return _TimedGenerator(fn(*args, **kwargs), append, key)
    return wrapped


def _count_wrapper(tracer: Tracer, fn, key: str):
    counts = tracer.counts

    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapped


_WRAPPERS = {"call": _call_wrapper, "gen": _gen_wrapper,
             "count": _count_wrapper}


# -- codec wrappers with byte and search-work accounting ----------------------

def _deflate_compress(tracer: Tracer, fn):
    key = "core:DeflateCodec.compress"

    append = tracer.log.append

    def compress(self, data):
        append((key, _clock()))
        try:
            payload = fn(self, data)
        finally:
            append(_clock())
        tracer.nbytes[key] += len(data)
        tracer.compress_inputs.append(hash(bytes(data)))
        matcher = self.last_stats.matcher
        tracer.matcher["chain_steps"] += matcher.get("chain_steps", 0)
        tracer.matcher["compare_bytes"] += matcher.get("compare_bytes", 0)
        return payload
    return compress


def _deflate_decompress(tracer: Tracer, fn):
    key = "core:DeflateCodec.decompress"

    append = tracer.log.append

    def decompress(self, payload):
        append((key, _clock()))
        try:
            data = fn(self, payload)
        finally:
            append(_clock())
        tracer.nbytes[key] += len(data)
        return data
    return decompress


def _tokenize(tracer: Tracer, fn):
    key = "core:ChainMatcher.tokenize"

    append = tracer.log.append

    def tokenize(self, data):
        append((key, _clock()))
        try:
            return fn(self, data)
        finally:
            append(_clock())
            tracer.nbytes[key] += len(data)
    return tokenize


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.apps.kv.lsm import LsmStore
    from repro.cluster.clients import OpenLoopClient, StoreClient
    from repro.cluster.session import Cluster
    from repro.core.deflate import DeflateCodec
    from repro.core.matchers import ChainMatcher
    from repro.federation.router import GlobalRouter
    from repro.federation.session import Federation
    from repro.hw.engine import CdpuDevice
    from repro.service.fleet import Batcher, FleetDevice
    from repro.service.request import OpenLoopStream
    from repro.service.scheduler import SchedulerCore
    from repro.sim.engine import Simulator
    from repro.store.store import CompressedBlockStore
    from repro.telemetry.trace import TraceRecorder
    from repro.virt import qos
    from repro.workloads import population
    from repro.workloads.mixed import MixedStream
    from repro.workloads.ycsb import YcsbWorkload
    # Device models register as CdpuDevice subclasses on import.
    import repro.hw.cpu  # noqa: F401
    import repro.hw.dpzip  # noqa: F401
    import repro.hw.qat  # noqa: F401

    wrap = tracer.wrap
    wrap(Simulator, "run", "sim")
    for attr in ("timeout", "call_later", "spawn"):
        wrap(Simulator, attr, "sim", "count", key="sim.schedule_calls")

    # Entry points reached from outside the service layer only: nested
    # same-layer spans would add cost without changing self times.
    for attr in ("submit", "flush_batches"):
        wrap(SchedulerCore, attr, "service")
    wrap(FleetDevice, "_serve", "service", "gen")
    wrap(FleetDevice, "_submitter", "service", "gen")
    wrap(Batcher, "_expire", "service")

    wrap(qos._ArbiterBase, "_engine_loop", "virt", "gen")
    for arbiter in (qos.FcfsArbiter, qos.FairArbiter):
        wrap(arbiter, "submit", "virt")

    wrap(Cluster, "from_spec", "cluster")
    wrap(Cluster, "run", "cluster")
    wrap(OpenLoopClient, "_arrivals", "cluster", "gen")
    wrap(StoreClient, "_arrivals", "cluster", "gen")

    wrap(Federation, "from_spec", "federation")
    wrap(Federation, "run", "federation")
    wrap(GlobalRouter, "submit", "federation")

    wrap(OpenLoopStream, "make_request", "workloads",
         key="workloads:make_request")
    wrap(population.PopulationStream, "make_request", "workloads",
         key="workloads:make_request")
    wrap(MixedStream, "make_op", "workloads", key="workloads:make_request")
    wrap(population, "realize_population", "workloads")
    wrap(YcsbWorkload, "operations", "workloads", "gen")
    wrap(YcsbWorkload, "value_for", "workloads")

    wrap(CompressedBlockStore, "get", "store")
    wrap(CompressedBlockStore, "put", "store")

    wrap(TraceRecorder, "span", "telemetry")
    wrap(TraceRecorder, "instant", "telemetry")

    devices = list(CdpuDevice.__subclasses__())
    while devices:
        device = devices.pop()
        devices.extend(device.__subclasses__())
        for attr in ("compress", "decompress"):
            wrap(device, attr, "hw")

    tracer.wrap_custom(DeflateCodec, "compress", _deflate_compress)
    tracer.wrap_custom(DeflateCodec, "decompress", _deflate_decompress)
    tracer.wrap_custom(ChainMatcher, "tokenize", _tokenize)

    wrap(LsmStore, "put", "apps.kv")
    wrap(LsmStore, "get", "apps.kv")
