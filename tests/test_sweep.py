"""Sweep-API tests: grid expansion, overrides, hashing, determinism.

Expansion/serialization scenarios are pure spec manipulation (no
simulation); the determinism and runner scenarios build small real
clusters — single cheap CPU devices where possible, the calibrated
mixed fleet only for the slo_degradation acceptance check (models are
cached process-wide, so the cost is paid once per test session).
"""

import json
import math

import pytest

from repro.cluster import (
    ClusterSpec,
    DeviceSpec,
    FleetSpec,
    default_cluster_spec,
)
from repro.cluster.spec import apply_override, parse_override_path
from repro.errors import (
    ClusterSpecError,
    SweepError,
    SweepSpecError,
)
from repro.sweep import (
    AxisPoint,
    SweepAxis,
    SweepFilter,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
    example_sweep_spec,
)

CHEAP_CLUSTER = ClusterSpec(
    fleet=FleetSpec(
        devices=(DeviceSpec("cpu", algorithm="snappy", threads=4),),
    ),
)

CHEAP_WORKLOAD = WorkloadSpec(mode="open-loop", duration_ns=2e5,
                              offered_gbps=2.0, tenants=2)


def cheap_sweep(**kwargs) -> SweepSpec:
    kwargs.setdefault("cluster", CHEAP_CLUSTER)
    kwargs.setdefault("workload", CHEAP_WORKLOAD)
    kwargs.setdefault("axes", (
        SweepAxis.over("offered_gbps", "workload.offered_gbps",
                       (1.0, 2.0)),
        SweepAxis.over("policy", "policy",
                       ("round-robin", "cost-model")),
    ))
    return SweepSpec(**kwargs)


class TestOverridePaths:
    def test_parse_segments_and_indices(self):
        assert parse_override_path("fleet.devices[1].threads") \
            == ["fleet", "devices", 1, "threads"]
        assert parse_override_path("policy") == ["policy"]

    def test_bad_syntax_rejected(self):
        for path in ("", "a..b", "a[x]", "a[-1]", "[0]", "a b"):
            with pytest.raises(ClusterSpecError):
                parse_override_path(path)

    def test_apply_sets_nested_values(self):
        data = default_cluster_spec(store=True).to_dict()
        apply_override(data, "store.cache_blocks", 64)
        apply_override(data, "fleet.devices[1].name", "qat-east")
        spec = ClusterSpec.from_dict(data)
        assert spec.store.cache_blocks == 64
        assert spec.fleet.devices[1].name == "qat-east"

    def test_unknown_key_error_names_path_and_candidates(self):
        data = default_cluster_spec().to_dict()
        with pytest.raises(ClusterSpecError,
                           match=r"store\.cache_block"):
            apply_override(data, "store.cache_block", 64)

    def test_index_out_of_range_names_path(self):
        data = default_cluster_spec().to_dict()
        with pytest.raises(ClusterSpecError, match=r"devices\[9\]"):
            apply_override(data, "fleet.devices[9].threads", 2)

    def test_descending_into_null_names_location(self):
        data = default_cluster_spec(store=False).to_dict()
        with pytest.raises(ClusterSpecError, match="NoneType at 'store'"):
            apply_override(data, "store.cache_blocks", 64)

    def test_with_overrides_returns_validated_copy(self):
        spec = default_cluster_spec(store=True)
        changed = spec.with_overrides({"store.cache_blocks": 64,
                                       "policy": "round-robin"})
        assert changed.store.cache_blocks == 64
        assert changed.policy == "round-robin"
        assert spec.store.cache_blocks == 512  # original untouched
        with pytest.raises(ClusterSpecError, match="cache size"):
            spec.with_overrides({"store.cache_blocks": -1})


class TestGridExpansion:
    def test_product_count_and_nested_loop_order(self):
        points = cheap_sweep().expand()
        assert len(points) == 4
        # Last axis fastest, like nested for loops.
        assert [p.coords for p in points] == [
            {"offered_gbps": 1.0, "policy": "round-robin"},
            {"offered_gbps": 1.0, "policy": "cost-model"},
            {"offered_gbps": 2.0, "policy": "round-robin"},
            {"offered_gbps": 2.0, "policy": "cost-model"},
        ]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_no_axes_expands_to_the_base_point(self):
        spec = SweepSpec(cluster=CHEAP_CLUSTER, workload=CHEAP_WORKLOAD)
        points = spec.expand()
        assert len(points) == 1
        assert points[0].coords == {}
        assert points[0].cluster == CHEAP_CLUSTER

    def test_zipped_axis_contributes_rows_not_a_product(self):
        axis = SweepAxis.zipped(
            "combo", ("workload.offered_gbps", "policy"),
            ((1.0, "round-robin"), (2.0, "cost-model")),
            labels=("slow-rr", "fast-cm"))
        points = cheap_sweep(axes=(axis,)).expand()
        assert len(points) == 2
        assert points[0].coords == {"combo": "slow-rr"}
        assert points[0].workload.offered_gbps == 1.0
        assert points[0].cluster.policy == "round-robin"
        assert points[1].workload.offered_gbps == 2.0
        assert points[1].cluster.policy == "cost-model"

    def test_filters_drop_matching_points(self):
        spec = cheap_sweep(filters=(
            SweepFilter(when={"offered_gbps": 1.0,
                              "policy": "round-robin"}),
        ))
        points = spec.expand()
        assert spec.grid_size() == 4
        assert len(points) == 3
        assert all(p.coords != {"offered_gbps": 1.0,
                                "policy": "round-robin"}
                   for p in points)
        # Indices re-pack over the kept grid.
        assert [p.index for p in points] == [0, 1, 2]

    def test_filter_list_selector_matches_any(self):
        spec = cheap_sweep(filters=(
            SweepFilter(when={"offered_gbps": [1.0, 2.0],
                              "policy": "round-robin"}),
        ))
        assert len(spec.expand()) == 2

    def test_later_axis_wins_conflicting_paths(self):
        axes = (
            SweepAxis.over("first", "policy", ("static",),
                           labels=("s",)),
            SweepAxis.over("second", "policy", ("cost-model",),
                           labels=("c",)),
        )
        points = cheap_sweep(axes=axes).expand()
        assert points[0].cluster.policy == "cost-model"

    def test_expansion_error_names_the_point_and_path(self):
        spec = cheap_sweep(axes=(
            SweepAxis.over("cache", "store.cache_blocks", (0, 64)),
        ))
        with pytest.raises(SweepSpecError,
                           match=r"\{'cache': 0\}.*store"):
            spec.expand()

    def test_invalid_resolved_value_is_a_loud_point_error(self):
        spec = cheap_sweep(axes=(
            SweepAxis.over("batch", "fleet.batch_size", (0,)),
        ))
        with pytest.raises(SweepSpecError, match="batch"):
            spec.expand()

    def test_overrides_never_mutate_axis_points_or_the_spec(self):
        # One axis inserts a subtree (a device list); a later irregular
        # axis descends into it for only some points.  The inserted
        # value must be copied per point: the non-descending point
        # keeps the declared baseline, and the frozen spec's JSON is
        # unchanged by expansion.
        devices = [{"kind": "cpu", "algorithm": "snappy", "threads": 4}]
        spec = cheap_sweep(axes=(
            SweepAxis("mix", (
                AxisPoint(label="solo",
                          overrides={"fleet.devices": devices}),
            )),
            SweepAxis("threads", (
                AxisPoint(label="one",
                          overrides={"fleet.devices[0].threads": 1}),
                AxisPoint(label="base", overrides={"policy": "cost-model"}),
            )),
        ))
        before = spec.to_json()
        points = spec.expand()
        assert points[0].cluster.fleet.devices[0].threads == 1
        assert points[1].cluster.fleet.devices[0].threads == 4
        assert devices[0]["threads"] == 4
        assert spec.to_json() == before
        # Re-expansion sees the same untouched base every time.
        again = spec.expand()
        assert [p.spec_hash for p in again] \
            == [p.spec_hash for p in points]

    def test_store_mode_requires_a_store_section(self):
        spec = SweepSpec(cluster=CHEAP_CLUSTER,
                         workload=WorkloadSpec(mode="store",
                                               duration_ns=1e5))
        with pytest.raises(SweepSpecError, match="store section"):
            spec.expand()


class TestSweepValidation:
    def test_duplicate_axis_names_rejected(self):
        axis = SweepAxis.over("a", "policy", ("static", "cost-model"))
        with pytest.raises(SweepSpecError, match="duplicate axis"):
            SweepSpec(cluster=CHEAP_CLUSTER, axes=(axis, axis))

    def test_reserved_axis_names_rejected(self):
        with pytest.raises(SweepSpecError, match="reserved"):
            SweepAxis.over("spec_hash", "policy", ("static",))

    def test_filter_naming_unknown_axis_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown axis"):
            cheap_sweep(filters=(SweepFilter(when={"nope": 1}),))

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepSpecError, match="at least one point"):
            SweepAxis("empty", ())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SweepSpecError, match="duplicate point labels"):
            SweepAxis.over("a", "policy", ("static", "cost-model"),
                           labels=("same", "same"))

    def test_unknown_workload_mode_rejected(self):
        with pytest.raises(SweepSpecError, match="laser"):
            WorkloadSpec(mode="laser")

    def test_workload_bounds_checked(self):
        with pytest.raises(SweepSpecError, match="duration"):
            WorkloadSpec(duration_ns=0.0)
        with pytest.raises(SweepSpecError, match="read fraction"):
            WorkloadSpec(read_fraction=1.5)
        with pytest.raises(SweepSpecError, match="window"):
            WorkloadSpec(window=0)


class TestSerialization:
    def test_sweep_spec_json_round_trip_is_identity(self):
        spec = cheap_sweep(filters=(
            SweepFilter(when={"policy": "round-robin"}),
        ))
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_example_spec_round_trips(self):
        spec = example_sweep_spec()
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_unknown_keys_rejected_at_every_level(self):
        data = cheap_sweep().to_dict()
        data["turbo"] = True
        with pytest.raises(SweepSpecError, match="turbo"):
            SweepSpec.from_dict(data)
        data = cheap_sweep().to_dict()
        data["workload"]["warp"] = 9
        with pytest.raises(SweepSpecError, match="warp"):
            SweepSpec.from_dict(data)
        data = cheap_sweep().to_dict()
        data["axes"][0]["points"][0]["wat"] = 1
        with pytest.raises(SweepSpecError, match="wat"):
            SweepSpec.from_dict(data)

    def test_invalid_json_raises_spec_error(self):
        with pytest.raises(SweepSpecError, match="JSON"):
            SweepSpec.from_json("{not json")

    def test_spec_object_and_tuple_override_values_round_trip(self):
        # Axis points may carry spec dataclasses and tuples directly;
        # they normalize to JSON shapes at construction, so the
        # round-trip identity holds for them too.
        spec = cheap_sweep(axes=(
            SweepAxis("mix", (
                AxisPoint(label="two-cpu", overrides={
                    "fleet.devices": (
                        DeviceSpec("cpu", name="a", algorithm="snappy"),
                        DeviceSpec("cpu", name="b", algorithm="snappy"),
                    )}),
            )),
        ))
        assert SweepSpec.from_json(spec.to_json()) == spec
        point = spec.expand()[0]
        assert [d.name for d in point.cluster.fleet.devices] == ["a", "b"]


class TestSpecHash:
    def test_hash_is_stable_across_round_trips(self):
        first = cheap_sweep().expand()
        rebuilt = SweepSpec.from_json(cheap_sweep().to_json()).expand()
        assert [p.spec_hash for p in first] \
            == [p.spec_hash for p in rebuilt]

    def test_hash_depends_on_resolved_document_only(self):
        # Two routes to the same resolved spec hash identically: an
        # axis override vs the value baked into the base document.
        via_axis = cheap_sweep(axes=(
            SweepAxis.over("policy", "policy", ("round-robin",)),
        )).expand()[0]
        baked = SweepSpec(
            cluster=ClusterSpec(fleet=CHEAP_CLUSTER.fleet,
                                policy="round-robin"),
            workload=CHEAP_WORKLOAD,
        ).expand()[0]
        assert via_axis.spec_hash == baked.spec_hash

    def test_distinct_points_hash_differently(self):
        hashes = [p.spec_hash for p in cheap_sweep().expand()]
        assert len(set(hashes)) == len(hashes)

    def test_root_seed_does_not_change_the_hash(self):
        a = cheap_sweep(root_seed=1).expand()[0]
        b = cheap_sweep(root_seed=2).expand()[0]
        assert a.spec_hash == b.spec_hash
        assert a.seed != b.seed


class TestSweepRunner:
    def test_serial_and_parallel_rows_are_byte_identical(self):
        serial = SweepRunner(cheap_sweep(), workers=0).run()
        parallel = SweepRunner(cheap_sweep(), workers=2).run()
        assert json.dumps(serial.rows()) == json.dumps(parallel.rows())
        assert json.dumps(serial.client_rows()) \
            == json.dumps(parallel.client_rows())

    def test_progress_reports_every_point(self):
        seen = []
        SweepRunner(cheap_sweep(),
                    progress=lambda done, total, point:
                    seen.append((done, total, point.index))).run()
        assert [entry[0] for entry in seen] == [1, 2, 3, 4]
        assert all(total == 4 for _, total, _ in seen)

    def test_fail_fast_raises_naming_the_point(self):
        # Duplicate device names pass spec validation but the fleet
        # builder rejects them at run time — a genuine point failure.
        spec = cheap_sweep(axes=(
            SweepAxis("dup", (
                AxisPoint(label="ok", overrides={"policy": "cost-model"}),
                AxisPoint(label="broken", overrides={
                    "fleet.devices": [{"kind": "cpu",
                                       "algorithm": "snappy",
                                       "threads": 4},
                                      {"kind": "cpu",
                                       "algorithm": "snappy",
                                       "threads": 4}]}),
            )),
        ))
        with pytest.raises(SweepError, match="dup=broken"):
            SweepRunner(spec, workers=0).run()

    def test_continue_on_error_records_failures(self):
        spec = cheap_sweep(axes=(
            SweepAxis("dup", (
                AxisPoint(label="ok", overrides={"policy": "cost-model"}),
                AxisPoint(label="broken", overrides={
                    "fleet.devices": [{"kind": "cpu",
                                       "algorithm": "snappy",
                                       "threads": 4},
                                      {"kind": "cpu",
                                       "algorithm": "snappy",
                                       "threads": 4}]}),
            )),
        ))
        result = SweepRunner(spec, workers=0, on_error="continue").run()
        assert len(result.rows()) == 1
        assert len(result.failures) == 1
        assert result.failures[0].coords == {"dup": "broken"}
        assert "duplicate device name" in result.failures[0].error

    def test_continue_on_error_survives_worker_pool(self):
        spec = cheap_sweep(axes=(
            SweepAxis("dup", (
                AxisPoint(label="ok", overrides={"policy": "cost-model"}),
                AxisPoint(label="broken", overrides={
                    "fleet.devices": [{"kind": "cpu",
                                       "algorithm": "snappy",
                                       "threads": 4},
                                      {"kind": "cpu",
                                       "algorithm": "snappy",
                                       "threads": 4}]}),
            )),
        ))
        result = SweepRunner(spec, workers=2, on_error="continue").run()
        assert len(result.rows()) == 1
        assert len(result.failures) == 1

    def test_all_points_filtered_out_is_loud(self):
        spec = cheap_sweep(filters=(
            SweepFilter(when={"offered_gbps": [1.0, 2.0]}),
        ))
        with pytest.raises(SweepError, match="zero points"):
            SweepRunner(spec).run()

    def test_axis_coords_survive_report_column_collisions(self):
        # An axis named like a report column ("policy") with labels
        # that differ from the report value: the coordinate is the
        # grid identity and must win in the flat rows.
        spec = SweepSpec(
            cluster=CHEAP_CLUSTER, workload=CHEAP_WORKLOAD,
            axes=(SweepAxis.over("policy", "policy",
                                 ("round-robin", "cost-model"),
                                 labels=("rr", "cm")),),
        )
        rows = SweepRunner(spec, workers=0).run().rows()
        assert [row["policy"] for row in rows] == ["rr", "cm"]
        assert all(row["completed_gbps"] > 0 for row in rows)

    def test_pool_failures_are_reported_in_grid_order(self):
        broken = AxisPoint(label="broken", overrides={
            "fleet.devices": [{"kind": "cpu", "algorithm": "snappy",
                               "threads": 4},
                              {"kind": "cpu", "algorithm": "snappy",
                               "threads": 4}]})
        spec = cheap_sweep(axes=(
            SweepAxis.over("offered_gbps", "workload.offered_gbps",
                           (1.0, 2.0)),
            SweepAxis("dup", (
                AxisPoint(label="ok", overrides={"policy": "cost-model"}),
                broken,
            )),
        ))
        inline = SweepRunner(spec, workers=0, on_error="continue").run()
        pooled = SweepRunner(spec, workers=3, on_error="continue").run()
        assert [f.index for f in inline.failures] == [1, 3]
        assert [f.index for f in pooled.failures] == [1, 3]
        assert json.dumps(inline.to_json()) == json.dumps(pooled.to_json())

    def test_run_for_selects_by_coords(self):
        result = SweepRunner(cheap_sweep(), workers=0).run()
        run = result.run_for(offered_gbps=2.0, policy="cost-model")
        assert run.service.completed > 0
        with pytest.raises(SweepError, match="2 sweep points"):
            result.run_for(policy="cost-model")

    def test_closed_loop_workload_attaches_window_clients(self):
        spec = SweepSpec(
            cluster=CHEAP_CLUSTER,
            workload=WorkloadSpec(mode="closed-loop", duration_ns=1e5,
                                  clients=2, window=3, think_ns=0.0),
        )
        result = SweepRunner(spec, workers=0).run()
        rows = result.client_rows()
        assert len(rows) == 2
        assert all(row["mode"] == "closed-loop" for row in rows)
        assert all(row["peak_inflight"] <= 3 for row in rows)


class TestSloDegradationAcceptance:
    """The PR's acceptance check, scaled to test time: the whole
    slo_degradation grid through SweepRunner, 4 workers vs inline."""

    def test_workers4_matches_inline_row_for_row(self):
        from repro.experiments.slo_degradation import build_sweep
        spec = build_sweep(brownout_fracs=(None, 0.33),
                           duration_ns=4e5)
        inline = SweepRunner(spec, workers=0).run()
        pooled = SweepRunner(spec, workers=4).run()
        assert json.dumps(inline.rows()) == json.dumps(pooled.rows())
        assert json.dumps(inline.to_csv()) == json.dumps(pooled.to_csv())
        assert len(inline.rows()) == 4


class TestExperimentBuilders:
    def test_service_scaling_builder_round_trips(self):
        from repro.experiments.service_scaling import build_sweep
        spec = build_sweep(loads_gbps=(8.0, 24.0), mixes=("mixed", "asic"))
        assert SweepSpec.from_json(spec.to_json()) == spec
        assert len(spec.expand()) == 2 * 2 * 4

    def test_store_scaling_builder_round_trips(self):
        from repro.experiments.store_scaling import build_sweep
        spec = build_sweep()
        assert SweepSpec.from_json(spec.to_json()) == spec
        assert len(spec.expand()) == 2 * 3 * 2

    def test_slo_degradation_builder_round_trips(self):
        from repro.experiments.slo_degradation import build_sweep
        spec = build_sweep()
        assert SweepSpec.from_json(spec.to_json()) == spec
        points = spec.expand()
        assert len(points) == 1 * 2 * 2
        healthy = [p for p in points
                   if p.coords["brownout_at"] == -1.0]
        assert all(p.cluster.reconfig == () for p in healthy)
        browned = [p for p in points if p.coords["brownout_at"] == 0.33]
        assert all(p.cluster.reconfig[0].action == "brown-out"
                   for p in browned)
        assert math.isclose(browned[0].cluster.reconfig[0].at_ns,
                            0.33 * 3e6)

    def test_unknown_mix_names_raise_helpful_service_errors(self):
        from repro.errors import ServiceError
        from repro.experiments.service_scaling import build_sweep as svc
        from repro.experiments.slo_degradation import build_sweep as slo
        with pytest.raises(ServiceError, match="unknown fleet mix 'bogus'"):
            svc(loads_gbps=(8.0,), mixes=("bogus",))
        with pytest.raises(ServiceError, match="unknown SLO mix 'bogus'"):
            slo(mixes=("bogus",))

    def test_service_alias_spec_round_trip_is_byte_identical(
            self, tmp_path, capsys):
        # The printed built-in spec, run back through --spec, exports
        # the same table as the alias run at its defaults.
        from repro.experiments.cli import main
        spec_path = tmp_path / "service.json"
        assert main(["service", "--print-example-spec"]) == 0
        spec_path.write_text(capsys.readouterr().out)
        assert main(["service", "--quiet", "--json",
                     str(tmp_path / "default.json")]) == 0
        assert main(["service", "--quiet", "--spec", str(spec_path),
                     "--json", str(tmp_path / "edited.json")]) == 0
        assert (tmp_path / "edited.json").read_bytes() == \
            (tmp_path / "default.json").read_bytes()

    def test_experiment_result_exports(self, tmp_path):
        from repro.experiments.common import ExperimentResult
        result = ExperimentResult(experiment_id="x", title="t")
        result.rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5}]
        csv_path = tmp_path / "rows.csv"
        text = result.to_csv(str(csv_path))
        assert text.splitlines()[0] == "a,b"
        assert csv_path.read_text().splitlines()[1] == "1,2.5"
        doc = json.loads(result.to_json())
        assert doc["rows"][1]["a"] == 2


class TestReplicates:
    def test_implicit_replicate_axis_is_innermost(self):
        spec = cheap_sweep(replicates=3)
        assert spec.grid_size() == 12
        points = spec.expand()
        assert [p.coords["replicate"] for p in points[:4]] == [0, 1, 2, 0]
        # Replicates decorrelate through workload.seed_offset only.
        seeds = {p.workload.seed_offset for p in points[:3]}
        assert len(seeds) == 3
        assert points[0].cluster == points[1].cluster

    def test_replicates_round_trip_and_validate(self):
        spec = cheap_sweep(replicates=2)
        assert SweepSpec.from_json(spec.to_json()) == spec
        with pytest.raises(SweepSpecError, match="replicates"):
            cheap_sweep(replicates=0)
        with pytest.raises(SweepSpecError, match="implicit"):
            cheap_sweep(
                replicates=2,
                axes=(SweepAxis.over("replicate",
                                     "workload.seed_offset", (0, 1)),))

    def test_rows_aggregate_mean_and_stddev_per_point(self):
        spec = cheap_sweep(
            replicates=3,
            axes=(SweepAxis.over("offered_gbps",
                                 "workload.offered_gbps", (1.0, 2.0)),))
        result = SweepRunner(spec).run()
        raw = result.rows(replicate_stats=False)
        assert len(raw) == 6
        assert {row["replicate"] for row in raw} == {0, 1, 2}
        rows = result.rows()
        assert len(rows) == 2
        for row in rows:
            assert row["replicates"] == 3
            assert "completed_mean" in row and "completed_stddev" in row
            assert "seed" not in row and "replicate" not in row
        group = [row for row in raw
                 if row["offered_gbps"] == rows[0]["offered_gbps"]]
        mean = sum(r["completed"] for r in group) / 3
        assert rows[0]["completed_mean"] == pytest.approx(mean)

    def test_single_replicate_rows_unchanged(self):
        result = SweepRunner(cheap_sweep()).run()
        assert "completed" in result.rows()[0]
        assert "completed_mean" not in result.rows()[0]
