"""Tests for the FEBench-inspired workload."""

import pytest

from repro import OpenMLDB, verify_consistency
from repro.workloads.febench import (FEBenchConfig, TRIP_INDEX,
                                     TRIP_SCHEMA, feature_sql,
                                     generate_trips)


@pytest.fixture(scope="module")
def loaded_db():
    db = OpenMLDB()
    db.create_table("trips", TRIP_SCHEMA, indexes=[TRIP_INDEX])
    db.insert_many("trips", list(generate_trips(
        FEBenchConfig(drivers=10, trips=600))))
    db.deploy("d", feature_sql())
    return db


class TestGenerator:
    def test_deterministic(self):
        config = FEBenchConfig(trips=50)
        assert list(generate_trips(config)) \
            == list(generate_trips(config))

    def test_time_ordered_and_positive(self):
        rows = list(generate_trips(FEBenchConfig(trips=200)))
        stamps = [row[1] for row in rows]
        assert stamps == sorted(stamps)
        assert all(row[2] > 0 and row[3] > 0 for row in rows)

    def test_schema_matches(self):
        row = next(generate_trips(FEBenchConfig(trips=1)))
        TRIP_SCHEMA.validate_row(row)


class TestFeatureScript:
    def test_four_windows(self, loaded_db):
        deployment = loaded_db.deployments["d"]
        assert len(deployment.compiled.windows) == 4

    def test_request_shape(self, loaded_db):
        features = loaded_db.request(
            "d", ("d0003", 1_690_000_000_000, 12.0, 3.0, "campus", 1.0))
        assert features["trips_1h"] >= 1
        assert features["best_fare_7d"] >= 12.0
        assert isinstance(features["top_zones_30d"], str)

    def test_online_offline_consistent(self, loaded_db):
        report = verify_consistency(loaded_db, "d")
        assert report.consistent, report.mismatches[:3]

    def test_offline_uses_parallel_windows(self, loaded_db):
        # EXPLAIN's ConcatJoin names the windows the offline run pools.
        _rows, stats = loaded_db.offline_query(feature_sql())
        assert len(stats.window_seconds) == 4
        concat = f"ConcatJoin({', '.join(stats.window_tasks)}) over " \
            "SimpleProject(+index)"
        assert concat in loaded_db.explain(feature_sql())
