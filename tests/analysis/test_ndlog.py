"""NDLog unit tests: record/replay fidelity, digests, serialization, and
divergence detection.

The load-bearing properties are the ISSUE acceptance criteria for the
runtime layer: a replay fed from the serialized log alone reproduces
every draw; any truncation, corruption, extra draw or method mismatch is
refused with the exact stream name and sequence number.
"""

import json

import pytest

from repro.net import World
from repro.sim.ndlog import (
    NDLog,
    ReplayDivergence,
    ReplayTieBreak,
    TIEBREAK_STREAM,
    attach_ndlog,
    detach_ndlog,
)
from repro.sim.rng import RngRegistry


def _recorded_pair():
    """A record-mode registry plus its log, with a few draws taken."""
    from repro.sim.ndlog import _RegistryRecorder

    log = NDLog(mode="record")
    registry = RngRegistry(seed=7)
    registry.set_recorder(_RegistryRecorder(log))
    stream = registry.stream("zz-test")
    values = [
        stream.random(),
        stream.randrange(100),
        stream.randrange(5, 10),
        stream.expovariate(3.0),
        stream.random(),
    ]
    return log, values


def _replay_registry(log):
    from repro.sim.ndlog import _RegistryRecorder

    registry = RngRegistry(seed=999)  # wrong seed on purpose: never consulted
    registry.set_recorder(_RegistryRecorder(log))
    return registry


def test_record_replay_roundtrip_reproduces_every_draw():
    log, values = _recorded_pair()
    replay_log = NDLog.from_dict(log.to_dict(), mode="replay")
    stream = _replay_registry(replay_log).stream("zz-test")
    replayed = [
        stream.random(),
        stream.randrange(100),
        stream.randrange(5, 10),
        stream.expovariate(3.0),
        stream.random(),
    ]
    assert replayed == values
    assert replay_log.unconsumed() == {}
    assert replay_log.digest() == log.digest()


def test_json_roundtrip_is_bit_identical():
    log, _ = _recorded_pair()
    wire = json.dumps(log.to_dict())
    back = NDLog.from_dict(json.loads(wire), mode="record")
    assert back.digest() == log.digest()
    assert back.draw_counts() == log.draw_counts()


def test_truncated_log_is_detected_with_stream_and_seq():
    log, _ = _recorded_pair()
    data = log.to_dict()
    data["streams"]["zz-test"] = data["streams"]["zz-test"][:3]
    del data["digest"]  # truncation without the digest tripwire
    replay_log = NDLog.from_dict(data, mode="replay")
    stream = _replay_registry(replay_log).stream("zz-test")
    stream.random()
    stream.randrange(100)
    stream.randrange(5, 10)
    with pytest.raises(ReplayDivergence) as exc:
        stream.expovariate(3.0)
    assert exc.value.stream == "zz-test"
    assert exc.value.seq == 3
    assert "log exhausted" in str(exc.value)


def test_corrupted_log_is_refused_before_replay_begins():
    log, _ = _recorded_pair()
    data = log.to_dict()
    data["streams"]["zz-test"][1][1] = 0  # tamper with a recorded value
    with pytest.raises(ReplayDivergence) as exc:
        NDLog.from_dict(data, mode="replay")
    assert "digest mismatch" in str(exc.value)


def test_method_mismatch_names_the_decision():
    log = NDLog(mode="record")
    log.record("zz-s", "random", 0.5)
    replay_log = NDLog.from_dict(log.to_dict(), mode="replay")
    with pytest.raises(ReplayDivergence) as exc:
        replay_log.replay("zz-s", "randrange")
    assert exc.value.stream == "zz-s"
    assert exc.value.seq == 0
    assert "method mismatch" in str(exc.value)


def test_never_recorded_stream_is_a_divergence():
    log = NDLog(mode="record")
    log.record("zz-s", "random", 0.5)
    replay_log = NDLog.from_dict(log.to_dict(), mode="replay")
    with pytest.raises(ReplayDivergence) as exc:
        replay_log.replay("zz-other", "random")
    assert exc.value.stream == "zz-other"
    assert "never recorded" in str(exc.value)


def test_unlogged_draw_during_replay_is_a_divergence():
    # A consumer that calls record() while the log replays is exactly the
    # unsafe_unlogged_draw bug class: refuse loudly.
    replay_log = NDLog.from_dict(
        NDLog(mode="record").to_dict(), mode="replay")
    with pytest.raises(ReplayDivergence) as exc:
        replay_log.record("zz-s", "random", 0.1)
    assert "unlogged" in str(exc.value)


def test_unconsumed_reports_leftover_draws():
    log = NDLog(mode="record")
    for _ in range(4):
        log.record("zz-s", "random", 0.25)
    replay_log = NDLog.from_dict(log.to_dict(), mode="replay")
    replay_log.replay("zz-s", "random")
    assert replay_log.unconsumed() == {"zz-s": 3}


def test_digest_is_per_stream_order_only():
    # Interleaving across streams is scheduling, not provenance: two logs
    # whose per-stream sequences match digest identically regardless of
    # global record order.
    a = NDLog(mode="record")
    a.record("zz-x", "random", 0.1)
    a.record("zz-y", "random", 0.2)
    a.record("zz-x", "random", 0.3)
    b = NDLog(mode="record")
    b.record("zz-y", "random", 0.2)
    b.record("zz-x", "random", 0.1)
    b.record("zz-x", "random", 0.3)
    assert a.digest() == b.digest()
    # ...but per-stream reordering must change it.
    c = NDLog(mode="record")
    c.record("zz-x", "random", 0.3)
    c.record("zz-y", "random", 0.2)
    c.record("zz-x", "random", 0.1)
    assert c.digest() != a.digest()


def test_replay_digest_covers_only_the_draws_served():
    log = NDLog(mode="record")
    for value in (0.1, 0.2):
        log.record("zz-x", "random", value)
    log.record("zz-y", "randrange", 7)
    replay_log = NDLog.from_dict(log.to_dict(), mode="replay")
    assert replay_log.n_draws == 0
    replay_log.replay("zz-x", "random")
    replay_log.replay("zz-y", "randrange")
    assert replay_log.n_draws == 2
    assert replay_log.digest() != log.digest()
    replay_log.replay("zz-x", "random")
    assert replay_log.unconsumed() == {}
    assert replay_log.n_draws == log.n_draws == 3
    assert replay_log.digest() == log.digest()


def test_attach_and_detach_on_a_world():
    world = World(seed=3)
    log = NDLog(mode="record")
    attach_ndlog(world, log)
    world.rng.stream("zz-live").random()
    assert log.draw_counts() == {"zz-live": 1}
    detach_ndlog(world)
    world.rng.stream("zz-live").random()  # no longer recorded
    assert log.draw_counts() == {"zz-live": 1}


def test_replay_mode_installs_tiebreak_replayer_iff_recorded():
    record = NDLog(mode="record")
    record.record(TIEBREAK_STREAM, "key", 17)
    world = World(seed=3)
    attach_ndlog(world, NDLog.from_dict(record.to_dict(), mode="replay"))
    assert isinstance(world.engine._tiebreak, ReplayTieBreak)
    assert world.engine._tiebreak.key(0) == 17

    bare = World(seed=3)
    attach_ndlog(bare, NDLog.from_dict(
        NDLog(mode="record").to_dict(), mode="replay"))
    assert bare.engine._tiebreak is None
