"""The four benchmark workloads, driven through the program's public API.

Each workload turns a seed into generated inputs, assembles the system
(:meth:`prepare`) and runs it once (:meth:`execute`), returning an
:class:`Outcome`: the operations attempted and failed, invariant
violations, the canonical simulated outputs the correctness digest is
taken over, the simulated end-to-end figures, and per-layer simulated
statistics the traced run reports.  Input sizes are fixed here, never by
the run length, so one seed always yields the same digest.

See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.kv import LsmStore, make_hook
from repro.cluster import Cluster, TelemetrySpec, default_cluster_spec
from repro.federation import Federation, FederationSpec
from repro.sim.stats import LatencyRecorder
from repro.workloads import population
from repro.workloads.ycsb import OpType, YcsbWorkload

#: Open-loop offered load for the serving and store workloads (GB/s).
OFFERED_GBPS = 36.0
#: Simulated length of one serve-saturated / store-mixed run (long
#: enough that the simulated mean and p99 vary by under 5% across seeds).
SERVE_NS = 40e6
#: Simulated length of one federation-light run (the checked-in spec
#: runs 0.5 ms, 165 requests; lengthened so a run serves ~14k).
FEDERATION_NS = 40e6
#: Store traffic: 70/30 GET/PUT, Zipf 0.99 over 4x the 512-block cache.
STORE_READ_FRACTION = 0.7
STORE_BLOCKS = 2048
STORE_ZIPF = 0.99
#: kv-ycsb: Figure 15's quick configuration set, at the quick
#: ``ycsb_suite.profile_config`` sizes (YCSB-A, 600 records, 500 ops,
#: 320-byte values) and its quick LSM geometry.
KV_CONFIGS = ("off", "cpu-deflate", "qat4xxx", "dpcsd")
KV_RECORDS = 600
KV_OPS = 500
KV_VALUE_BYTES = 320
KV_GEOMETRY = dict(memtable_bytes=24 * 1024, block_bytes=8 * 1024,
                   level_base_bytes=192 * 1024,
                   target_file_bytes=96 * 1024)

FEDERATION_SPEC = Path(__file__).resolve().parent.parent \
    / "examples" / "federation.json"


@dataclass
class Outcome:
    """One run of a workload, as the benchmark checks and reports it."""

    ops: int
    failed: int
    canonical: object
    #: Simulated end-to-end figures: goodput_gbps, mean_us, p50_us,
    #: p99_us and the latency sample count.
    sim: dict
    #: Simulated per-layer statistics (utilization, hit rate, ...).
    layers: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: Host wall-clock section split when the cluster was profiled.
    wall_profile: object = None

    @property
    def digest(self) -> str:
        text = json.dumps(self.canonical, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _sim_figures(goodput_gbps: float, latency: LatencyRecorder) -> dict:
    summary = latency.summary_us()
    return {"goodput_gbps": goodput_gbps, "mean_us": summary["mean_us"],
            "p50_us": summary["p50_us"], "p99_us": summary["p99_us"],
            "samples": summary["count"]}


def _check(errors: list[str], condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)


def _device_layers(services, end_ns: float) -> dict:
    """Spill share and per-device engine utilization, fleet by fleet.

    Utilization is engine busy time over engine count times the whole
    simulated run, drain included.  Members sharing a device name
    (federation) pool their busy time over their pooled engines.
    """
    busy: dict[str, float] = {}
    engines: dict[str, int] = {}
    offered = spilled = 0
    for service in services:
        scheduler = service.scheduler
        offered += scheduler.metrics.offered
        spilled += scheduler.metrics.spilled
        members = list(scheduler.devices)
        if scheduler.spill_device is not None:
            members.append(scheduler.spill_device)
        for member in members:
            busy[member.name] = busy.get(member.name, 0.0) \
                + member.throughput.busy_ns
            engines[member.name] = engines.get(member.name, 0) \
                + max(member.device.engine_count, 1)
    layers = {f"service.util.{name}": busy[name] / (engines[name] * end_ns)
              for name in busy}
    layers["service.spill_frac"] = spilled / offered if offered else 0.0
    return layers


def _telemetry_layers(report) -> dict:
    if report is None:
        return {}
    return {"telemetry.recorded": report.recorded,
            "telemetry.dropped": report.dropped}


class ServeSaturated:
    """The full placement mix driven open loop at fleet capacity."""

    name = "serve-saturated"
    #: The first run in a process pays first-use costs (device
    #: calibration, cost-table rows) that belong to set-up.
    warm_up = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, traced: bool = False):
        spec = default_cluster_spec()
        if traced:
            spec = dataclasses.replace(spec,
                                       telemetry=TelemetrySpec(trace=True))
        cluster = Cluster.from_spec(spec)
        if traced:
            cluster.enable_profiling()
        client = cluster.open_loop(offered_gbps=OFFERED_GBPS,
                                   duration_ns=SERVE_NS, tenants=4,
                                   seed=self.seed)
        return cluster, client

    def execute(self, prepared) -> Outcome:
        cluster, client = prepared
        result = cluster.run()
        service = result.service
        errors: list[str] = []
        _check(errors, client.submitted == service.offered,
               f"client submitted {client.submitted} != fleet offered "
               f"{service.offered}")
        _check(errors, service.completed + service.shed == service.offered,
               f"completed {service.completed} + shed {service.shed} != "
               f"offered {service.offered}")
        _check(errors, client.completed == service.completed,
               f"client saw {client.completed} completions, fleet "
               f"{service.completed}")
        layers = _device_layers([cluster.service], cluster.sim.now)
        layers.update(_telemetry_layers(result.telemetry))
        return Outcome(
            ops=client.submitted, failed=service.shed,
            canonical={"row": result.row(), "clients": result.clients},
            sim=_sim_figures(service.completed_gbps, client.latency),
            layers=layers, errors=errors,
            wall_profile=result.wall_profile)


class FederationLight:
    """The checked-in three-cluster federation, lightly loaded."""

    name = "federation-light"
    warm_up = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        document = json.loads(FEDERATION_SPEC.read_text())
        document.pop("telemetry", None)
        document["root_seed"] = seed
        document["workload"]["duration_ns"] = FEDERATION_NS
        document["workload"]["population"]["seed"] = seed
        self.spec = FederationSpec.from_dict(document)

    def prepare(self, traced: bool = False):
        spec = self.spec
        if traced:
            spec = dataclasses.replace(spec,
                                       telemetry=TelemetrySpec(trace=True))
        federation = Federation.from_spec(spec)
        # Realize (and cache) the tenant population as part of set-up;
        # the run's stream then draws from the cached table.
        population.realize_population(spec.workload.population)
        return federation

    def execute(self, federation) -> Outcome:
        result = federation.run()
        merged = result.run.service
        client = result.run.clients[0]
        router = result.router
        errors: list[str] = []
        _check(errors, router.total_routed == client["submitted"],
               f"router routed {router.total_routed} != client submitted "
               f"{client['submitted']}")
        _check(errors, merged.offered == client["submitted"],
               f"members offered {merged.offered} != client submitted "
               f"{client['submitted']}")
        _check(errors, merged.completed + merged.shed == merged.offered,
               f"completed {merged.completed} + shed {merged.shed} != "
               f"offered {merged.offered}")
        layers = _device_layers(
            [cluster.service for _, cluster in federation.clusters],
            federation.sim.now)
        layers.update(_telemetry_layers(result.run.telemetry))
        layers["federation.routed"] = router.total_routed
        layers["federation.remote_frac"] = router.remote_fraction
        # The merged report's percentiles come from the federated client's
        # own end-to-end recorder (fabric hops included).
        sim = {"goodput_gbps": merged.completed_gbps,
               "mean_us": merged.mean_us, "p50_us": merged.p50_us,
               "p99_us": merged.p99_us, "samples": merged.completed}
        return Outcome(
            ops=client["submitted"], failed=merged.shed,
            canonical={"row": result.row(), "members": result.member_rows(),
                       "router": result.router_rows()},
            sim=sim, layers=layers, errors=errors)


class StoreMixed:
    """Mixed GET/PUT traffic against the compressed block-store tier."""

    name = "store-mixed"
    warm_up = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, traced: bool = False):
        spec = default_cluster_spec(store=True)
        if traced:
            spec = dataclasses.replace(spec,
                                       telemetry=TelemetrySpec(trace=True))
        cluster = Cluster.from_spec(spec)
        if traced:
            cluster.enable_profiling()
        client = cluster.store_client(
            offered_gbps=OFFERED_GBPS, duration_ns=SERVE_NS,
            read_fraction=STORE_READ_FRACTION, blocks=STORE_BLOCKS,
            zipf_theta=STORE_ZIPF, seed=self.seed)
        return cluster, client

    def execute(self, prepared) -> Outcome:
        cluster, client = prepared
        result = cluster.run()
        store = result.store
        row = result.clients[0]
        failed_io = store.failed_reads + store.failed_writes
        errors: list[str] = []
        _check(errors, store.reads + store.writes == client.submitted,
               f"store served {store.reads} GETs + {store.writes} PUTs != "
               f"{client.submitted} submitted")
        _check(errors, row["completed"] + failed_io == client.submitted,
               f"completed {row['completed']} + failed {failed_io} != "
               f"submitted {client.submitted}")
        metrics = cluster.store.metrics
        latency = LatencyRecorder(metrics.read_latency.samples
                                  + metrics.write_latency.samples)
        layers = _device_layers([cluster.service], cluster.sim.now)
        layers.update(_telemetry_layers(result.telemetry))
        layers.update({
            "store.hit_rate": store.hit_rate,
            "store.coalesced_frac": (store.coalesced_reads / store.reads
                                     if store.reads else 0.0),
            "store.compression_ratio": store.compression_ratio,
            "store.read_p99_us": store.read_p99_us,
            "store.write_p99_us": store.write_p99_us,
        })
        return Outcome(
            ops=client.submitted, failed=failed_io,
            canonical={"row": result.row(), "clients": result.clients},
            sim=_sim_figures(row["goodput_gbps"], latency),
            layers=layers, errors=errors,
            wall_profile=result.wall_profile)


class KvYcsb:
    """YCSB-A load + run through the functional LSM store, four configs."""

    name = "kv-ycsb"
    #: No process-wide caches: every run builds fresh hooks and stores.
    warm_up = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, traced: bool = False):
        return [(config,
                 LsmStore(hook=make_hook(config), **KV_GEOMETRY),
                 YcsbWorkload("A", KV_RECORDS, value_size=KV_VALUE_BYTES,
                              seed=self.seed))
                for config in KV_CONFIGS]

    def execute(self, prepared) -> Outcome:
        latency = LatencyRecorder()
        record = latency.record
        logical = 0
        bad_gets = 0
        canonical = []
        errors: list[str] = []
        depth = physical_bytes = logical_bytes = 0
        for config, store, workload in prepared:
            # The loop of ycsb_suite.profile_config, checking every GET.
            for key in workload.load_keys():
                value = workload.value_for(key)
                cost = store.put(f"user{key:010d}".encode(), value)
                record(cost.foreground_ns)
                logical += len(value)
            for op in workload.operations(KV_OPS):
                key = f"user{op.key:010d}".encode()
                expected = workload.value_for(op.key)
                if op.op is OpType.READ:
                    value, cost = store.get(key)
                    record(cost.foreground_ns)
                    if value != expected:
                        bad_gets += 1
                elif op.op is OpType.UPDATE:
                    record(store.put(key, expected).foreground_ns)
                else:
                    errors.append(f"{config}: unexpected YCSB-A op {op.op}")
                logical += len(expected)
            ledger = store.ledger
            _check(errors, ledger.ops == KV_RECORDS + KV_OPS,
                   f"{config}: ledger counted {ledger.ops} ops, expected "
                   f"{KV_RECORDS + KV_OPS}")
            canonical.append({
                "config": config, "ledger": dataclasses.asdict(ledger),
                "depth": store.depth, "tables": store.table_count,
                "logical_bytes": store.logical_bytes,
                "physical_bytes": store.physical_bytes,
            })
            depth += store.depth
            logical_bytes += store.logical_bytes
            physical_bytes += store.physical_bytes
        _check(errors, bad_gets == 0,
               f"{bad_gets} GETs returned a wrong or missing value")
        total_ns = sum(latency.samples)
        layers = {
            "apps.kv.lsm_depth": depth / len(prepared),
            "apps.kv.physical_over_logical": physical_bytes / logical_bytes,
        }
        return Outcome(
            ops=latency.count, failed=bad_gets, canonical=canonical,
            sim=_sim_figures(logical / total_ns, latency),
            layers=layers, errors=errors)


WORKLOADS = {cls.name: cls for cls in (ServeSaturated, FederationLight,
                                       StoreMixed, KvYcsb)}
