"""Protocol sequence conformance, checked mechanically via the tracer.

The paper's protocol (Fig. 1, §IV) prescribes a strict order of steps in
every epoch and during recovery.  These tests install a tracer and verify
the implementation's event sequences against that order — for every epoch
of a run, not just a hand-picked one.
"""

from repro.sim import ms, sec
from repro.sim.trace import install_tracer

from .conftest import make_deployment

EPOCH_ORDER = [
    "frozen",
    "input_blocked",
    "disk_barrier",
    "collected",
    "resumed",
    "state_sent",
    "acked",
    "output_released",
]

RECOVERY_ORDER = ["detected", "images_written", "restored", "arp_announced"]


def test_every_epoch_follows_fig1_order(world):
    tracer = install_tracer(world.engine)
    deployment = make_deployment(world)
    deployment.start()
    world.run(until=ms(600))
    deployment.stop()

    n_epochs = deployment.primary_agent.epoch
    assert n_epochs >= 8
    # Check the full step sequence of every completed epoch.
    for epoch in range(n_epochs - 1):
        events = [e for e in tracer.select(category="epoch")
                  if e.detail.get("epoch") == epoch]
        names = [e.name for e in events]
        assert names == EPOCH_ORDER, (epoch, names)
        times = [e.at_us for e in events]
        assert times == sorted(times)

    # The staging buffer means state is sent after resume (SSV-D): the
    # container must never wait on the wire.
    for epoch in range(n_epochs - 1):
        resumed = tracer.select("epoch", "resumed", epoch=epoch)[0]
        sent = tracer.select("epoch", "state_sent", epoch=epoch)[0]
        assert sent.at_us >= resumed.at_us


def test_no_staging_sends_before_resume(world):
    from repro.replication import NiliconConfig

    tracer = install_tracer(world.engine)
    deployment = make_deployment(
        world, config=NiliconConfig.nilicon().with_(staging_buffer=False)
    )
    deployment.start()
    world.run(until=ms(600))
    deployment.stop()
    for epoch in range(1, deployment.primary_agent.epoch - 1):
        sent = tracer.select("epoch", "state_sent", epoch=epoch)[0]
        resumed = tracer.select("epoch", "resumed", epoch=epoch)[0]
        # Without the staging buffer, the container stays frozen until the
        # state is on the wire and acknowledged as received.
        assert sent.at_us <= resumed.at_us


def test_release_never_precedes_backup_ack(world):
    tracer = install_tracer(world.engine)
    deployment = make_deployment(world)
    deployment.start()
    world.run(until=ms(600))
    deployment.stop()
    for release in tracer.select("epoch", "output_released"):
        epoch = release.detail["epoch"]
        acks = tracer.select("backup", "ack_sent", epoch=epoch)
        assert acks, f"epoch {epoch} released without any backup ack"
        assert acks[0].at_us <= release.at_us


def test_recovery_follows_prescribed_order(world):
    tracer = install_tracer(world.engine)
    deployment = make_deployment(world)
    deployment.start()
    world.run(until=ms(500))
    deployment.inject_fail_stop()
    world.run(until=world.now + sec(2))
    names = tracer.names(category="recovery")
    assert names == RECOVERY_ORDER
    times = [e.at_us for e in tracer.select(category="recovery")]
    assert times == sorted(times)


def test_tracer_off_by_default_costs_nothing(world):
    deployment = make_deployment(world)
    deployment.start()
    world.run(until=ms(200))
    deployment.stop()
    assert world.engine.tracer is None
