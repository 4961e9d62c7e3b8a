"""Unit tests for the happens-before race detector (nraces)."""

from repro.analysis.races import (
    TRACKED_STATE,
    install_detector,
    recorded_fields,
    verify_access_coverage,
)
from repro.sim import AnyOf, Engine, Event
from repro.sim.access import record_access


def _checks(detector):
    return [f.check for f in detector.findings]


# --------------------------------------------------------------------------- #
# Same-timestamp conflicts                                                    #
# --------------------------------------------------------------------------- #


def test_unordered_same_time_writes_flagged():
    eng = Engine()
    det = install_detector(eng)

    def writer(name):
        yield eng.timeout(100)
        record_access(eng, "state", "field", "w", site=name)

    eng.process(writer("a"), name="writer-a")
    eng.process(writer("b"), name="writer-b")
    eng.run()

    assert _checks(det) == ["same-time-conflict"]
    finding = det.findings[0]
    assert finding.at_us == 100
    assert {a[1] for a in finding.accesses} == {"writer-a", "writer-b"}
    assert "writer-a" in finding.message and "writer-b" in finding.message


def test_same_time_writes_with_happens_before_edge_not_flagged():
    eng = Engine()
    det = install_detector(eng)
    gate = Event(eng)

    def first():
        yield eng.timeout(100)
        record_access(eng, "state", "field", "w", site="first")
        gate.succeed(None)

    def second():
        yield gate
        record_access(eng, "state", "field", "w", site="second")

    eng.process(first())
    eng.process(second())
    eng.run()
    assert det.findings == []
    assert det.accesses_recorded == 2


def test_reads_never_conflict_with_reads():
    eng = Engine()
    det = install_detector(eng)

    def reader():
        yield eng.timeout(100)
        record_access(eng, "state", "field", "r")

    eng.process(reader())
    eng.process(reader())
    eng.run()
    assert det.findings == []


def test_unordered_same_time_read_write_flagged():
    eng = Engine()
    det = install_detector(eng)

    def reader():
        yield eng.timeout(100)
        record_access(eng, "state", "field", "r", site="reader")

    def writer():
        yield eng.timeout(100)
        record_access(eng, "state", "field", "w", site="writer")

    eng.process(reader())
    eng.process(writer())
    eng.run()
    assert _checks(det) == ["same-time-conflict"]


def test_same_task_accesses_never_conflict():
    eng = Engine()
    det = install_detector(eng)

    def proc():
        yield eng.timeout(100)
        record_access(eng, "state", "field", "w")
        record_access(eng, "state", "field", "w")

    eng.process(proc())
    eng.run()
    assert det.findings == []


def test_different_fields_and_keys_do_not_conflict():
    eng = Engine()
    det = install_detector(eng)

    def writer(field, key):
        yield eng.timeout(100)
        record_access(eng, "state", field, "w", key=key)

    eng.process(writer("a", None))
    eng.process(writer("b", None))
    eng.process(writer("a", 1))
    eng.process(writer("a", 2))
    eng.run()
    assert det.findings == []


def test_different_timestamps_do_not_conflict():
    eng = Engine()
    det = install_detector(eng)

    def writer(delay):
        yield eng.timeout(delay)
        record_access(eng, "state", "field", "w")

    eng.process(writer(100))
    eng.process(writer(200))
    eng.run()
    assert det.findings == []


def test_interrupt_creates_happens_before_edge():
    """The interrupter's clock travels on the Interrupt, so a write made
    by the victim's except-handler at the same instant is ordered."""
    from repro.sim import Interrupt

    eng = Engine()
    det = install_detector(eng)
    box = []

    def interrupter():
        yield eng.timeout(100)
        record_access(eng, "state", "field", "w", site="pre-interrupt")
        box[0].interrupt()

    def victim():
        try:
            yield eng.timeout(1_000)
        except Interrupt:
            record_access(eng, "state", "field", "w", site="handler")

    eng.process(interrupter())
    box.append(eng.process(victim()))
    eng.run()
    assert det.findings == []


def test_anyof_join_creates_happens_before_edges():
    """A condition waiter happens-after *all* constituents it joined —
    including already-settled ones."""
    eng = Engine()
    det = install_detector(eng)
    a, b = Event(eng), Event(eng)

    def producer(event, delay, site):
        yield eng.timeout(delay)
        record_access(eng, "state", "field", "w", site=site)
        event.succeed(None)

    def waiter():
        yield AnyOf(eng, [a, b])
        # Resumes at t=100 when `a` fires; joined a's producer clock.
        record_access(eng, "state", "field", "w", site="waiter")

    eng.process(producer(a, 100, "prod-a"))
    eng.process(waiter())
    eng.run()
    assert det.findings == []


def test_consuming_a_processed_event_creates_happens_before_edge():
    """Yielding an event that already fired resumes inline; the process
    still happens-after whoever triggered it."""
    eng = Engine()
    det = install_detector(eng)
    done = Event(eng)

    def writer():
        yield eng.timeout(100)
        record_access(eng, "state", "field", "w", site="writer")
        done.succeed(None)

    def reader():
        yield eng.timeout(100)
        yield eng.timeout(0)  # `done` is processed by now
        yield done
        record_access(eng, "state", "field", "r", site="reader")

    eng.process(writer())
    eng.process(reader())
    eng.run()
    assert det.findings == []


def test_context_returns_to_setup_after_each_event():
    """Code run between engine steps acts as ``<setup>`` again, not as
    the last dispatched event."""
    eng = Engine()
    det = install_detector(eng)
    eng.call_later(100, record_access, eng, "state", "field", "w", None, "call")
    eng.run()
    record_access(eng, "state", "field", "w", site="setup")
    assert [f.accesses for f in det.findings] == [
        (("w", "event:Call", "call"), ("w", "<setup>", "setup")),
    ]


# --------------------------------------------------------------------------- #
# Ordering obligations ("r+")                                                 #
# --------------------------------------------------------------------------- #


def test_ordered_read_with_no_write_at_all():
    eng = Engine()
    det = install_detector(eng)

    def reader():
        yield eng.timeout(100)
        record_access(eng, "ledger", "commit", "r+", key=7, site="release")

    eng.process(reader())
    eng.run()
    assert _checks(det) == ["missing-write-for-ordered-read"]
    assert det.findings[0].key == 7


def test_ordered_read_after_ordered_write_is_clean():
    eng = Engine()
    det = install_detector(eng)
    gate = Event(eng)

    def committer():
        yield eng.timeout(50)
        record_access(eng, "ledger", "commit", "w", key=7, site="commit")
        gate.succeed(None)

    def releaser():
        yield gate
        yield eng.timeout(100)  # any later time; the edge persists
        record_access(eng, "ledger", "commit", "r+", key=7, site="release")

    eng.process(committer())
    eng.process(releaser())
    eng.run()
    assert det.findings == []


def test_ordered_read_after_unordered_write_flagged():
    eng = Engine()
    det = install_detector(eng)

    def committer():
        yield eng.timeout(50)
        record_access(eng, "ledger", "commit", "w", key=7, site="commit")

    def releaser():
        # No edge from the committer: different process, independent timer.
        yield eng.timeout(100)
        record_access(eng, "ledger", "commit", "r+", key=7, site="release")

    eng.process(committer())
    eng.process(releaser())
    eng.run()
    assert _checks(det) == ["unordered-ordered-read"]
    assert "release" in det.findings[0].message
    assert "commit" in det.findings[0].message


def test_write_after_unordered_read_flagged():
    eng = Engine()
    det = install_detector(eng)

    def releaser():
        yield eng.timeout(50)
        record_access(eng, "ledger", "commit", "r+", key=7, site="release")

    def committer():
        yield eng.timeout(100)
        record_access(eng, "ledger", "commit", "w", key=7, site="commit")

    eng.process(releaser())
    eng.process(committer())
    eng.run()
    # The read itself is a missing-write finding; the late write is the
    # companion write-after-unordered-read.
    assert sorted(_checks(det)) == [
        "missing-write-for-ordered-read",
        "write-after-unordered-read",
    ]


# --------------------------------------------------------------------------- #
# Reporting mechanics                                                         #
# --------------------------------------------------------------------------- #


def test_findings_deduplicate_across_keys():
    """One broken path produces one finding, not one per epoch."""
    eng = Engine()
    det = install_detector(eng)

    def reader():
        for key in range(5):
            yield eng.timeout(10)
            record_access(eng, "ledger", "commit", "r+", key=key, site="release")

    eng.process(reader(), name="releaser")
    eng.run()
    assert len(det.findings) == 1
    assert det.dropped_findings == 4
    report = det.report()
    assert report["count"] == 1
    assert report["dropped_findings"] == 4
    assert report["accesses_recorded"] == 5
    assert "releaser" in report["tasks"]


def test_max_findings_cap():
    eng = Engine()
    det = install_detector(eng, max_findings=2)

    def reader(field):
        yield eng.timeout(10)
        record_access(eng, "ledger", field, "r+")

    for i in range(5):
        eng.process(reader(f"f{i}"))
    eng.run()
    assert len(det.findings) == 2
    assert det.dropped_findings == 3


def test_record_access_is_noop_without_detector():
    eng = Engine()

    def proc():
        yield eng.timeout(10)
        record_access(eng, "state", "field", "w")

    eng.process(proc())
    eng.run()  # nothing to assert beyond "does not blow up"
    assert eng._observer is None


def test_uninstall_detaches():
    eng = Engine()
    det = install_detector(eng)
    eng.observe(None)

    def proc():
        yield eng.timeout(10)
        record_access(eng, "state", "field", "r+")

    eng.process(proc())
    eng.run()
    assert det.findings == []
    assert det.accesses_recorded == 0


def test_object_labels_are_stable_and_distinct():
    eng = Engine()
    det = install_detector(eng)

    class Store:
        pass

    s1, s2 = Store(), Store()

    def writer(obj, site):
        yield eng.timeout(100)
        record_access(eng, obj, "field", "w", site=site)

    eng.process(writer(s1, "a"))
    eng.process(writer(s2, "b"))  # distinct object: no conflict
    eng.process(writer(s1, "c"))  # same object as "a": conflict
    eng.run()
    assert len(det.findings) == 1
    assert det.findings[0].label == "Store"


# --------------------------------------------------------------------------- #
# AST coverage check                                                          #
# --------------------------------------------------------------------------- #


def test_repo_access_coverage_is_complete():
    assert verify_access_coverage() == []


def test_access_coverage_reads_the_package_from_any_directory(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert verify_access_coverage() == []
    assert ("egress_barrier", "w") in recorded_fields()["replication/netbuffer.py"]


def test_recorded_fields_sees_real_sites():
    found = recorded_fields()
    assert ("egress_barrier", "w") in found["replication/netbuffer.py"]
    assert ("epoch_commit", "w") in found["replication/backup.py"]
    # The HyCoR log path owns the flush-durability ledger and the backup's
    # stored-flush window.  (The netbuffer's cross-module ordering read is
    # parameterized by commit_ledger_kind — epoch_commit vs log_commit — so
    # the literal-only AST scan no longer sees it; the runtime detector
    # still orders both kinds through the same durable:<name> object.)
    assert ("log_commit", "w") in found["replication/hycor.py"]
    assert ("log_store", "w") in found["replication/hycor.py"]


def test_coverage_check_catches_missing_write():
    problems = verify_access_coverage({
        "replication/netbuffer.py":
            "def f(engine):\n"
            "    record_access(engine, 'x', 'egress_barrier', 'r')\n",
        # A declaring module left with no sites at all.
        "fleet/controller.py": "def f(engine):\n    return engine\n",
    })
    assert any("no record_access(..., 'w')" in p for p in problems)
    assert any("no record_access sites" in p for p in problems)


def test_coverage_check_catches_undeclared_field():
    problems = verify_access_coverage({
        "somewhere/mod.py":
            "def f(engine):\n"
            "    record_access(engine, 'x', 'not_a_declared_field', 'w')\n",
    })
    assert any("undeclared field 'not_a_declared_field'" in p for p in problems)


def test_tracked_state_names_are_declared_once():
    # A field name appearing under two modules would make the "who writes
    # it" contract ambiguous; keep declarations disjoint.
    seen = {}
    for module, fields in TRACKED_STATE.items():
        for field in fields:
            assert field not in seen, (
                f"{field!r} declared by both {seen[field]} and {module}"
            )
            seen[field] = module
