"""Contract of the strict spec codec (:mod:`repro.specjson`).

Every declarative spec type decodes through one codec, so one
parametrized table checks them all: the dict and JSON round trips, the
unknown-key rejection with the type's own error class and the dotted
document path, and the null/default rules.  The defaults that used to
live only in hand-written decoders are pinned to the values those
decoders produced.
"""

import json
import math
from pathlib import Path

import pytest

from repro.cluster.spec import (
    AdmissionSpec,
    ClusterSpec,
    DeviceSpec,
    FleetSpec,
    ReconfigEvent,
    SloShare,
    SloSpec,
    StoreSpec,
    TelemetrySpec,
    default_cluster_spec,
)
from repro.errors import (
    ClusterSpecError,
    FederationSpecError,
    SweepSpecError,
    TelemetryError,
    WorkloadError,
)
from repro.federation.spec import (
    FederationSpec,
    LinkSpec,
    example_federation_spec,
)
from repro.specjson import JsonSpec
from repro.sweep.spec import (
    AxisPoint,
    SweepAxis,
    SweepFilter,
    SweepSpec,
    WorkloadSpec,
    example_sweep_spec,
)
from repro.telemetry.analysis import SloObjective
from repro.workloads.population import DiurnalSpec, TenantPopulationSpec

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

OBJECTIVE = SloObjective(name="shed", column="shed_rate", limit=0.0,
                         budget=0.02, description="no shedding")

#: One non-default instance of every spec type, with its error class.
CASES = [
    (DeviceSpec("cpu", name="cpu0", algorithm="snappy", threads=8),
     ClusterSpecError),
    (FleetSpec(devices=(DeviceSpec("dpzip"),), spill=DeviceSpec("cpu"),
               batch_timeout_ns=None, ops=("compress", "decompress")),
     ClusterSpecError),
    (AdmissionSpec(spill_threshold=0.5, shed_threshold=0.9,
                   ewma_alpha=0.3), ClusterSpecError),
    (SloSpec("scavenger", tier=2, deadline_ns=math.inf), ClusterSpecError),
    (SloShare(SloSpec("batch", tier=1, deadline_ns=5e6), weight=0.25),
     ClusterSpecError),
    (StoreSpec(cache_blocks=64, client_window=4,
               read_slo=SloSpec("r", tier=0, deadline_ns=1e5)),
     ClusterSpecError),
    (ReconfigEvent(at_ns=1e6, action="brown-out", device="dpzip",
                   speed_factor=0.5), ClusterSpecError),
    (TelemetrySpec(trace=True, metrics_interval_ns=1e5,
                   objectives=(OBJECTIVE,)), ClusterSpecError),
    (default_cluster_spec(store=True), ClusterSpecError),
    (OBJECTIVE, TelemetryError),
    (TenantPopulationSpec(tenants=1_000, distribution="lognormal",
                          sigma=2.5, seed=3), WorkloadError),
    (DiurnalSpec(period_ns=1e5, amplitude=0.3, phase=0.25), WorkloadError),
    (WorkloadSpec(duration_ns=2e5, population=TenantPopulationSpec(),
                  diurnal=DiurnalSpec()), SweepSpecError),
    (AxisPoint(label="a", overrides={"policy": "round-robin"}),
     SweepSpecError),
    (SweepAxis.over("load", "workload.offered_gbps", (8.0, 24.0)),
     SweepSpecError),
    (SweepFilter(when={"load": [8.0]}), SweepSpecError),
    (example_sweep_spec(), SweepSpecError),
    (LinkSpec(latency_ns=1e3, pcie_generation=4, pcie_lanes=4),
     FederationSpecError),
    (example_federation_spec().members[0], FederationSpecError),
    (example_federation_spec(), FederationSpecError),
]

IDS = [type(spec).__name__ for spec, _ in CASES]


def test_every_spec_type_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert {cls.__name__ for cls in subclasses(JsonSpec)} == set(IDS)


@pytest.mark.parametrize("spec, error", CASES, ids=IDS)
class TestEverySpecType:
    def test_dict_and_json_round_trip(self, spec, error):
        cls = type(spec)
        assert cls.from_dict(spec.to_dict()) == spec
        assert cls.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert cls.from_json(spec.to_json()) == spec

    def test_unknown_key_raises_type_error_class(self, spec, error):
        data = spec.to_dict()
        data["typo_knob"] = 1
        with pytest.raises(error, match=r"unknown key\(s\) \['typo_knob'\] "
                                        rf"for {type(spec).__name__}"):
            type(spec).from_dict(data)

    def test_non_mapping_rejected(self, spec, error):
        with pytest.raises(error, match="expects a mapping"):
            type(spec).from_dict([1, 2])


class TestDottedPaths:
    def test_nested_fleet_device_key(self):
        data = default_cluster_spec().to_dict()
        data["fleet"]["devices"][0]["frequency_thz"] = 9000
        with pytest.raises(ClusterSpecError,
                           match=r"^fleet\.devices\[0\]: unknown key\(s\) "
                                 r"\['frequency_thz'\] for DeviceSpec"):
            ClusterSpec.from_dict(data)

    def test_nested_axis_point_key(self):
        data = example_sweep_spec().to_dict()
        data["axes"][0]["points"][0]["wat"] = 1
        with pytest.raises(SweepSpecError,
                           match=r"^axes\[0\]\.points\[0\]: unknown key\(s\) "
                                 r"\['wat'\] for AxisPoint"):
            SweepSpec.from_dict(data)

    def test_member_errors_stay_unwrapped(self):
        data = example_federation_spec().to_dict()
        data["members"][1]["cluster"]["policy_x"] = 1
        with pytest.raises(ClusterSpecError,
                           match=r"^members\[1\]\.cluster: unknown key"):
            FederationSpec.from_dict(data)

    def test_federation_sections_rewrapped(self):
        data = example_federation_spec().to_dict()
        data["workload"]["population"]["tenant"] = 3
        with pytest.raises(FederationSpecError,
                           match=r"^workload\.population: unknown key"):
            FederationSpec.from_dict(data)
        data = example_federation_spec().to_dict()
        data["telemetry"]["sampel_ns"] = 1.0
        with pytest.raises(FederationSpecError,
                           match=r"^telemetry: unknown key"):
            FederationSpec.from_dict(data)

    def test_workload_population_rewrapped_as_sweep_error(self):
        with pytest.raises(SweepSpecError,
                           match=r"^population: unknown key"):
            WorkloadSpec.from_dict({"population": {"tenant": 3}})

    def test_missing_required_key_names_path(self):
        data = example_sweep_spec().to_dict()
        del data["axes"][1]["name"]
        with pytest.raises(SweepSpecError,
                           match=r"^axes\[1\]: missing required key 'name' "
                                 r"for SweepAxis"):
            SweepSpec.from_dict(data)

    def test_list_field_rejects_scalar(self):
        with pytest.raises(ClusterSpecError,
                           match=r"^fleet\.devices: expected a list"):
            ClusterSpec.from_dict({"fleet": {"devices": "dpzip"}})


class TestDefaultsAndNulls:
    def test_moved_defaults_decode_as_before(self):
        assert SloSpec.from_dict({"name": "x"}) == \
            SloSpec(name="x", tier=0, deadline_ns=math.inf)
        assert SloShare.from_dict({"slo": "interactive"}).weight == 1.0
        event = ReconfigEvent.from_dict({"action": "restore",
                                         "device": "dpzip"})
        assert event.at_ns == 0.0
        objective = SloObjective.from_dict({"name": "o", "column": "c"})
        assert objective.limit == 0.0

    def test_constructors_share_the_defaults(self):
        assert SloSpec(name="x") == SloSpec.from_dict({"name": "x"})
        assert SloShare(SloSpec.of("interactive")) == \
            SloShare.from_dict({"slo": "interactive"})
        assert ReconfigEvent(action="restore", device="d").at_ns == 0.0
        assert SloObjective(name="o", column="c").limit == 0.0

    def test_null_gives_none_for_optional_fields(self):
        spec = ClusterSpec.from_dict({"fleet": {"devices": [{"kind": "cpu"}],
                                                "batch_timeout_ns": None},
                                      "admission": None})
        assert spec.fleet.batch_timeout_ns is None
        assert spec.admission is None

    def test_null_takes_default_for_non_optional_fields(self):
        data = example_federation_spec().to_dict()
        data["members"][0]["link"] = None
        data["workload"] = None
        spec = FederationSpec.from_dict(data)
        assert spec.members[0].link == LinkSpec(bandwidth_gbps=12.5)
        assert spec.workload == WorkloadSpec()
        data = example_sweep_spec().to_dict()
        data["workload"] = None
        assert SweepSpec.from_dict(data).workload == WorkloadSpec()

    def test_checked_in_federation_document(self):
        text = (EXAMPLES_DIR / "federation.json").read_text()
        assert FederationSpec.from_json(text) == example_federation_spec()
        assert example_federation_spec().to_json() + "\n" == text
