"""Epoch windows of an NDLog: the draws between two ``draw_counts()``
snapshots, the span one HyCoR flush ships."""

from repro.sim.ndlog import NDLog, entries_digest


def _record_three_epochs():
    """A log of three epochs, with the ``draw_counts()`` taken at each
    epoch boundary."""
    log = NDLog(mode="record")
    bounds = [log.draw_counts()]
    for epoch in range(3):
        for i in range(4):
            log.record("svc.mm0", "write", (epoch * 10 + i, f"v{epoch}.{i}"))
        log.record("svc.clock", "tick", epoch)
        bounds.append(log.draw_counts())
    return log, bounds


def _window(log, start, end):
    """``(stream, seq, method, value)`` of the draws in ``[start, end)``."""
    streams = log.to_dict()["streams"]
    return [
        (name, seq, method, value)
        for name in sorted(streams)
        for seq, (method, value) in enumerate(streams[name])
        if start.get(name, 0) <= seq < end.get(name, 0)
    ]


def test_segment_entries_cover_exactly_the_window():
    log, bounds = _record_three_epochs()
    middle = _window(log, bounds[1], bounds[2])
    assert len(middle) == 5
    assert all(seq in range(4, 8) for s, seq, m, v in middle
               if s == "svc.mm0")
    assert ("svc.clock", 1, "tick", 1) in middle
    # The windows tile the log: together they are every draw, once.
    windows = [_window(log, a, b) for a, b in zip(bounds, bounds[1:])]
    assert sorted(e for w in windows for e in w) == sorted(
        _window(log, bounds[0], bounds[-1]))
    assert entries_digest(e for w in windows for e in w) == log.digest()
    # A replay stopped at a window's end has served exactly the windows
    # before it.
    replay = NDLog.from_dict(log.to_dict(), mode="replay")
    for epoch in range(2):
        for i in range(4):
            assert replay.replay("svc.mm0", "write") == \
                (epoch * 10 + i, f"v{epoch}.{i}")
        assert replay.replay("svc.clock", "tick") == epoch
    assert replay.digest() == entries_digest(windows[0] + windows[1])
    assert replay.unconsumed() == {"svc.mm0": 4, "svc.clock": 1}
