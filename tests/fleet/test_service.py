"""FleetService end-to-end: concurrent sessions, fault recovery, metrics,
and scheduler-vs-serial equivalence."""

import json

import pytest

from repro.fleet import (
    EmulatedSession,
    FleetScheduler,
    FleetService,
    RestartEvent,
    StateChangeEvent,
    VehicleSpec,
)


def session_transitions(service, session_id):
    return [
        (e.old_state, e.new_state)
        for e in service.events_of(StateChangeEvent)
        if e.session_id == session_id
    ]


class TestVehicleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            VehicleSpec("v", duration_s=0.0)
        with pytest.raises(ValueError):
            VehicleSpec("v", duration_s=10.0, fault_at_s=10.0)
        with pytest.raises(ValueError):
            VehicleSpec("v", duration_s=10.0, fault_at_s=-1.0)

    def test_duplicate_vehicle_rejected(self):
        service = FleetService()
        service.add_vehicle(VehicleSpec("v00", duration_s=4.0, seed=1))
        with pytest.raises(ValueError):
            service.add_vehicle(VehicleSpec("v00", duration_s=4.0, seed=2))

    def test_run_without_sessions_rejected(self):
        with pytest.raises(RuntimeError):
            FleetService().run()


class TestFleetRun:
    @pytest.fixture(scope="class")
    def service(self, fleet_trace, fleet_trace_b):
        service = FleetService(FleetScheduler(workers=4))
        service.add_session("v00", fleet_trace.frames)
        service.add_session("v01", fleet_trace_b.frames)
        service.run()
        return service

    def test_all_sessions_stop_clean(self, service):
        health = service.health()
        assert set(health) == {"v00", "v01"}
        for snapshot in health.values():
            assert snapshot["state"] == "stopped"
            assert snapshot["restarts"] == 0
            assert snapshot["dropped_fifo"] == 0
            assert snapshot["dropped_queue"] == 0

    def test_scheduled_run_equals_serial_run(self, service, fleet_trace):
        """The scheduler must not change detection results: a session run
        through the worker pool reports the same blinks as one driven
        frame-by-frame on a single thread."""
        reference = EmulatedSession("ref", fleet_trace.frames)
        reference.run_serial()
        assert service.sessions["v00"].blink_times_s == reference.blink_times_s
        assert len(reference.blink_times_s) > 0

    def test_metrics_snapshot_is_json_ready(self, service):
        snap = service.metrics_snapshot()
        assert json.loads(json.dumps(snap)) == snap
        n_world = sum(len(s._world.frames) for s in service.sessions.values())
        assert snap["counters"]["fleet.frames_processed"] == n_world
        assert snap["histograms"]["fleet.latency_s"]["count"] == n_world
        assert snap["gauges"]["fleet.wall_s"] > 0
        assert snap["gauges"]["fleet.throughput_fps"] > 0

    def test_latency_percentiles_ordered(self, service):
        latency = service.metrics_snapshot()["histograms"]["fleet.latency_s"]
        assert latency["min"] <= latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]


class TestFaultedFleet:
    @pytest.fixture(scope="class")
    def service(self):
        service = FleetService(FleetScheduler(workers=4))
        service.add_vehicle(VehicleSpec("ok", duration_s=12.0, seed=3))
        service.add_vehicle(VehicleSpec("hurt", duration_s=12.0, seed=4, fault_at_s=5.0))
        service.run()
        return service

    def test_faulted_session_recovers(self, service):
        seq = session_transitions(service, "hurt")
        # Entry state depends on worker lag (the RUNNING mirror is
        # worker-side), but the DEGRADED spell itself must be recorded.
        assert any(new == "degraded" for _, new in seq)
        recovered_at = seq.index(("degraded", "cold_start"))
        assert ("cold_start", "running") in seq[recovered_at:]
        assert seq[-1][1] == "stopped"

    def test_restart_and_drop_counters_nonzero(self, service):
        restarts = [e for e in service.events_of(RestartEvent) if e.session_id == "hurt"]
        assert len(restarts) == 1
        assert restarts[0].reason == "spi_fault"
        counters = service.metrics_snapshot()["counters"]
        assert counters["fleet.restarts"] == 1
        assert counters["fleet.dropped_fifo"] > 0
        assert counters["session.hurt.dropped_fifo"] > 0
        assert counters["fleet.faults"] >= 1

    def test_healthy_neighbour_unaffected(self, service):
        health = service.health()
        assert health["ok"]["restarts"] == 0
        assert health["ok"]["dropped_fifo"] == 0
        n_world = len(service.sessions["ok"]._world.frames)
        assert health["ok"]["frames_processed"] == n_world

    def test_faulted_frames_accounted(self, service):
        """World frames either reached the detector or were lost in the
        device FIFO: the pump drains a session before its chip comes back
        up, so no accepted frame is thrown away."""
        session = service.sessions["hurt"]
        counters = service.metrics_snapshot()["counters"]
        accounted = session.frames_processed + counters["session.hurt.dropped_fifo"]
        assert accounted == len(session._world.frames)


class TestOperatorControl:
    def test_manual_restart_before_run(self, fleet_trace):
        service = FleetService(FleetScheduler(workers=2))
        service.add_session("v00", fleet_trace.frames)
        service.restart("v00")  # honoured on the first produce
        service.run()
        restarts = service.events_of(RestartEvent)
        assert [e.reason for e in restarts] == ["manual"]
        assert service.health()["v00"]["state"] == "stopped"

    def test_stop_request(self, fleet_trace):
        service = FleetService(FleetScheduler(workers=2))
        service.add_session("v00", fleet_trace.frames)
        service.stop("v00")
        service.run()
        health = service.health()["v00"]
        assert health["state"] == "stopped"
        assert health["frames_processed"] == 0
