"""Tests for the structured event log."""

import json

import numpy as np

from repro.utils import EventLog, EventRecord


class TestEventLog:
    def test_emit_and_len(self):
        log = EventLog()
        log.emit(1.0, "coordinator", "client_assigned", client=3)
        assert len(log) == 1

    def test_of_kind_filters(self):
        log = EventLog()
        log.emit(1.0, "a", "x")
        log.emit(2.0, "a", "y")
        log.emit(3.0, "b", "x")
        assert [r.time for r in log.of_kind("x")] == [1.0, 3.0]

    def test_from_component_filters(self):
        log = EventLog()
        log.emit(1.0, "aggregator:0", "k")
        log.emit(2.0, "aggregator:1", "k")
        assert len(log.from_component("aggregator:1")) == 1

    def test_where_predicate(self):
        log = EventLog()
        for t in range(5):
            log.emit(float(t), "c", "tick")
        assert len(log.where(lambda r: r.time >= 3)) == 2

    def test_count(self):
        log = EventLog()
        log.emit(0.0, "c", "a")
        log.emit(0.0, "c", "a")
        assert log.count("a") == 2 and log.count("b") == 0

    def test_detail_payload(self):
        log = EventLog()
        log.emit(0.0, "c", "assign", task="lm", client=7)
        rec = next(iter(log))
        assert rec.detail == {"task": "lm", "client": 7}

    def test_clear(self):
        log = EventLog()
        log.emit(0.0, "c", "a")
        log.clear()
        assert len(log) == 0


class TestKindTotals:
    def test_kind_totals_sorted_and_exact(self):
        log = EventLog()
        for kind in ("zeta", "alpha", "zeta"):
            log.emit(0.0, "c", kind)
        assert list(log.kind_totals().items()) == [("alpha", 1), ("zeta", 2)]

    def test_clear_resets_tallies(self):
        log = EventLog()
        log.emit(0.0, "c", "a")
        log.emit(1.0, "c", "a")
        log.clear()
        assert log.count("a") == 0 and log.kind_totals() == {}
        assert log.of_kind("a") == []


class TestJsonExport:
    def test_record_envelope(self):
        rec = EventRecord(1.5, "aggregator:0", "server_step", {"version": 3})
        assert json.loads(rec.to_json()) == {
            "time": 1.5,
            "component": "aggregator:0",
            "kind": "server_step",
            "detail": {"version": 3},
        }

    def test_numpy_and_container_details_degrade_to_json(self):
        rec = EventRecord(0.0, "c", "k", {
            "scalar": np.int64(7),
            "array": np.arange(3),
            "members": {3, 1, 2},
            "pair": (1, 2),
            "other": object,
        })
        detail = json.loads(rec.to_json())["detail"]
        assert detail["scalar"] == 7
        assert detail["array"] == [0, 1, 2]
        assert detail["members"] == [1, 2, 3]
        assert detail["pair"] == [1, 2]
        assert detail["other"] == repr(object)

    def test_to_jsonl_is_one_line_per_record(self):
        log = EventLog()
        for t in range(3):
            log.emit(float(t), "c", "tick", step=t)
        lines = log.to_jsonl().splitlines()
        assert [json.loads(line)["detail"]["step"] for line in lines] == [0, 1, 2]
