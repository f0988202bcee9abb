"""Tests for memory estimation (Section 8.1) and governance (8.2)."""

import pytest

from repro.errors import MemoryLimitExceededError, SchemaError
from repro.memory.estimator import (IndexProfile,
                                    TableProfile, estimate_table_bytes,
                                    recommend_engine)
from repro.memory.governor import MemoryGovernor
from repro.schema import TTLKind


class TestEstimatorFormula:
    def test_paper_worked_example(self):
        """Section 8.1: 1 M rows × 300 B, two 16 B-key indexes, two
        replicas, C=70, K=1 → about 1.568 GB."""
        profile = TableProfile(
            rows=1_000_000, avg_row_bytes=300,
            indexes=[IndexProfile(unique_keys=1_000_000, avg_key_bytes=16),
                     IndexProfile(unique_keys=1_000_000, avg_key_bytes=16)],
            replicas=2, ttl_kind=TTLKind.LATEST, data_copies=1)
        estimate_gb = estimate_table_bytes(profile) / 1e9
        assert estimate_gb == pytest.approx(1.568, abs=0.02)

    def test_c_constant_by_ttl_kind(self):
        base = dict(rows=1000, avg_row_bytes=100,
                    indexes=[IndexProfile(10, 8.0)])
        latest = estimate_table_bytes(
            TableProfile(ttl_kind=TTLKind.LATEST, **base))
        absolute = estimate_table_bytes(
            TableProfile(ttl_kind=TTLKind.ABSOLUTE, **base))
        # C: 70 vs 74 per row per index.
        assert absolute - latest == 1000 * 4

    def test_replicas_multiply(self):
        base = dict(rows=1000, avg_row_bytes=100,
                    indexes=[IndexProfile(10, 8.0)])
        single = estimate_table_bytes(TableProfile(replicas=1, **base))
        double = estimate_table_bytes(TableProfile(replicas=2, **base))
        assert double == 2 * single

    def test_data_copies_bounds(self):
        with pytest.raises(SchemaError):
            TableProfile(rows=1, avg_row_bytes=1,
                         indexes=[IndexProfile(1, 1)], data_copies=2)


class TestEngineRecommendation:
    PROFILE = TableProfile(rows=1_000_000, avg_row_bytes=300,
                           indexes=[IndexProfile(1_000_000, 16)],
                           replicas=1)

    def test_memory_when_it_fits_and_latency_tight(self):
        choice = recommend_engine(self.PROFILE,
                                  available_memory_bytes=8e9,
                                  latency_budget_ms=10)
        assert choice.engine == "memory"
        assert choice.expected_latency_ms == (1, 10)

    def test_disk_when_memory_short_and_latency_loose(self):
        choice = recommend_engine(self.PROFILE,
                                  available_memory_bytes=1e8,
                                  latency_budget_ms=25)
        assert choice.engine == "disk"
        assert choice.expected_latency_ms == (20, 30)
        assert "80%" in choice.reason

    def test_conflict_surfaces_in_reason(self):
        choice = recommend_engine(self.PROFILE,
                                  available_memory_bytes=1e6,
                                  latency_budget_ms=5)
        assert choice.engine == "memory"
        assert "EXCEEDS" in choice.reason


class TestGovernor:
    def test_writes_fail_past_limit(self):
        governor = MemoryGovernor("tablet-1", max_memory_mb=1)
        governor.charge(1024 * 1024 - 10)
        with pytest.raises(MemoryLimitExceededError):
            governor.charge(100)
        assert governor.rejected_writes == 1
        # The failed charge did not count.
        assert governor.used_bytes == 1024 * 1024 - 10

    def test_unlimited_by_default(self):
        governor = MemoryGovernor("t")
        governor.charge(10 ** 12)  # no limit, no error

    def test_release_reopens_writes(self):
        governor = MemoryGovernor("t", max_memory_mb=1)
        governor.charge(1024 * 1024)
        with pytest.raises(MemoryLimitExceededError):
            governor.charge(1)
        governor.release(512 * 1024)
        governor.charge(1)  # fits again

    def test_alert_fires_once_per_crossing(self):
        governor = MemoryGovernor("t", max_memory_mb=1,
                                  alert_fraction=0.5)
        alerts = []
        governor.on_alert(lambda tablet, used, limit: alerts.append(
            (tablet, used, limit)))
        governor.charge(600 * 1024)
        governor.charge(10)
        assert len(alerts) == 1
        assert alerts[0][0] == "t"
        governor.release(400 * 1024)
        governor.charge(400 * 1024)
        assert len(alerts) == 2  # re-armed after dropping below threshold

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryGovernor("t", max_memory_mb=0)
        with pytest.raises(ValueError):
            MemoryGovernor("t", alert_fraction=0.0)

