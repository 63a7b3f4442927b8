"""Canonical state capture: stability, exclusions, stable stand-ins."""

from repro.ckpt.capture import (
    canonical_json,
    capture_state,
    count_position,
    stable_value,
    state_hash,
)
from repro.cluster import build_cluster
from repro.faults.injector import InjectionConfig, resume_injection


def _paused_cluster(seed=2003, at=5_000.0):
    config = InjectionConfig(run_id=0, seed=seed)
    cluster = build_cluster(2, flavor="gm", interpreted_nodes=[0],
                            seed=seed)
    paused = resume_injection(cluster, config, pause_at=at)
    return paused


class TestCountPosition:
    def test_reads_without_consuming(self):
        import itertools

        counter = itertools.count(7)
        assert count_position(counter) == 7
        assert next(counter) == 7     # untouched by the read
        assert count_position(counter) == 8


class TestStableValue:
    def test_primitives_pass_through(self):
        assert stable_value(3) == 3
        assert stable_value("x") == "x"
        assert stable_value(None) is None

    def test_containers_recurse(self):
        assert stable_value([1, (2, 3)]) == [1, [2, 3]]
        assert stable_value({"a": {"b": 1}}) == {"a": {"b": 1}}

    def test_opaque_objects_never_use_repr(self):
        class Opaque:
            pass

        # Default reprs embed memory addresses; the stand-in must not.
        assert stable_value(Opaque()) == "<Opaque>"

    def test_ckpt_state_contract_is_honored(self):
        class Declared:
            def ckpt_state(self):
                return {"x": 1}

        assert stable_value(Declared()) == {"x": 1}


class TestCaptureStability:
    def test_same_instant_hashes_equal(self):
        a = _paused_cluster().capture()
        b = _paused_cluster().capture()
        assert a["state_hash"] == b["state_hash"]
        assert canonical_json(a["state"]) == canonical_json(b["state"])

    def test_different_instants_hash_differently(self):
        a = _paused_cluster(at=5_000.0).capture()
        b = _paused_cluster(at=6_000.0).capture()
        assert a["state_hash"] != b["state_hash"]

    def test_hash_covers_only_the_state_section(self):
        capture = _paused_cluster().capture()
        assert capture["state_hash"] == state_hash(capture["state"])
        assert "observability" in capture
        assert "tracer" not in capture["state"]

    def test_telemetry_mode_does_not_change_the_hash(self):
        from repro.obs import runtime as obs_runtime

        try:
            off = _paused_cluster().capture()
            obs_runtime.configure(metrics=True, tracing=False)
            obs_runtime.begin_run()
            on = _paused_cluster().capture()
        finally:
            obs_runtime.reset()
            obs_runtime.configure(metrics=False, tracing=False)
        assert on["state_hash"] == off["state_hash"]

    def test_extras_are_captured_and_hashed(self):
        class Plane:
            def ckpt_state(self):
                return {"k": 1}

        paused = _paused_cluster()
        bare = capture_state(paused.cluster)
        with_extras = capture_state(paused.cluster, {"marker": Plane()})
        assert with_extras["state"]["extras"] == {"marker": {"k": 1}}
        assert with_extras["state_hash"] != bare["state_hash"]
