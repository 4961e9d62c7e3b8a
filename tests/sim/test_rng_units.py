"""Tests for RNG streams and time-unit helpers."""

from repro.sim import RngRegistry
from repro.sim.units import MILLISECOND, SECOND, ms, sec, us


def test_units_are_integer_microseconds():
    assert us(1) == 1
    assert ms(1) == MILLISECOND == 1_000
    assert sec(1) == SECOND == 1_000_000
    assert ms(0.5) == 500
    assert sec(0.03) == 30_000
    assert isinstance(ms(1.5), int)


def test_rng_streams_reproducible():
    a = RngRegistry(seed=42).stream("faults")
    b = RngRegistry(seed=42).stream("faults")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_streams_independent_of_creation_order():
    reg1 = RngRegistry(seed=7)
    s1 = reg1.stream("alpha")
    reg1.stream("beta")
    first = [s1.random() for _ in range(3)]

    reg2 = RngRegistry(seed=7)
    reg2.stream("beta")  # created in swapped order
    s2 = reg2.stream("alpha")
    assert [s2.random() for _ in range(3)] == first


def test_rng_distinct_names_distinct_streams():
    reg = RngRegistry(seed=1)
    xs = [reg.stream("x").random() for _ in range(4)]
    ys = [reg.stream("y").random() for _ in range(4)]
    assert xs != ys


def test_rng_same_name_returns_same_stream():
    reg = RngRegistry(seed=9)
    assert reg.stream("s") is reg.stream("s")


def test_rng_golden_values_pinned():
    """Stream draws are pinned forever: these exact values are what every
    experiment seed in the repo reproduces.  ``random.Random.random`` is
    guaranteed stable across Python versions, so a change here means the
    seed-derivation scheme itself changed — a replayability break."""
    reg = RngRegistry(seed=42)
    faults = reg.stream("faults")
    assert [faults.random() for _ in range(4)] == [
        0.32275310513885425,
        0.7164008028809598,
        0.4577420671860519,
        0.9709664115862929,
    ]
    epochs = reg.stream("epochs")
    assert [epochs.randint(0, 10**6) for _ in range(4)] == [
        286440,
        71490,
        38997,
        149296,
    ]
    assert RngRegistry(seed=42).spawn("host1").seed == 1094124638426376144


def test_rng_new_stream_does_not_perturb_existing_draws():
    """Adding a stream mid-run must not shift any other stream's sequence
    (per-stream seeding, not a shared generator)."""
    solo = RngRegistry(seed=123).stream("workload")
    expected = [solo.random() for _ in range(6)]

    reg = RngRegistry(seed=123)
    interleaved = reg.stream("workload")
    got = [interleaved.random() for _ in range(3)]
    reg.stream("latecomer").random()  # new stream appears mid-run
    reg.spawn("child").stream("w").random()
    got += [interleaved.random() for _ in range(3)]
    assert got == expected


def test_rng_spawn_children_differ():
    reg = RngRegistry(seed=5)
    c1 = reg.spawn("host1")
    c2 = reg.spawn("host2")
    assert c1.seed != c2.seed
    assert c1.stream("w").random() != c2.stream("w").random()
    # but spawning is itself deterministic
    assert reg.spawn("host1").seed == c1.seed
