from dataclasses import dataclass

import pytest

from perfbench.stream import ReleaseLedger, drive, record_groups, schedule


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@dataclass
class Delta:
    segments: int
    lag_segments: int


def test_schedule_fixes_the_aggregate_rate():
    plan = schedule({"a": 6, "b": 2}, rate=4.0)
    assert [due for due, _t, _i in plan] == [i / 4.0 for i in range(8)]
    for tenant, count in (("a", 6), ("b", 2)):
        indices = [i for _d, t, i in plan if t == tenant]
        assert indices == list(range(count))
    # Interleaved by share: each tenant's last record is due near the end.
    last = {t: position for position, (_d, t, _i) in enumerate(plan)}
    assert min(last.values()) >= 6


def test_record_groups_attach_metadata_to_the_next_segment():
    events = [("sideband", []), ("dump", 1), ("segment", 0), ("segment", 1), ("dump", 2)]
    assert record_groups(events) == [
        [("sideband", []), ("dump", 1), ("segment", 0)],
        [("segment", 1), ("dump", 2)],
    ]


def test_open_loop_due_times_and_release_accounting():
    clock = FakeClock()
    written = []
    polls = []
    state = {"consumed": 0, "sealed": False}

    def write(tenant, index):
        written.append((index, clock.now))

    def poll():
        # Each poll consumes what was written; the newest record stays
        # behind the watermark until the archive is sealed.  The second
        # poll stalls for 2 s, the others take 0.25 s.
        polls.append(clock.now)
        clock.now += 2.0 if len(polls) == 2 else 0.25
        new = len(written) - state["consumed"]
        state["consumed"] = len(written)
        lag = 0 if state["sealed"] else min(1, len(written))
        return {"t": Delta(segments=new, lag_segments=lag)}

    def seal():
        state["sealed"] = True

    checkpoints = []
    ledger = ReleaseLedger()
    plan = [(float(i), "t", i) for i in range(4)]
    late = drive(plan, write, poll, checkpoints.append, seal, ledger,
                 clock=clock, sleep=clock.sleep, poll_every=1.0, checkpoint_every=2.0)

    # The stall does not slow the schedule down: the record due during
    # it is written late, as soon as the loop gets back, and the poll
    # due during it is skipped rather than run twice.
    assert [at for _i, at in written] == [0.0, 1.0, 2.0, 4.0]
    assert late == pytest.approx([0.0, 0.0, 0.0, 1.0])
    assert polls == pytest.approx([1.0, 2.0, 4.0])
    assert checkpoints == pytest.approx([2.0, 4.0])
    # Latency runs from the due time to the end of the releasing poll.
    assert ledger.latencies == pytest.approx([1.25, 3.0, 2.25, 1.25])
    assert ledger.unreleased() == 0


def test_ledger_counts_released_records_in_write_order():
    ledger = ReleaseLedger()
    for due in (0.0, 0.1, 0.2):
        ledger.written("t", due)
    ledger.polled("t", Delta(segments=3, lag_segments=2), 0.5)
    assert ledger.latencies == pytest.approx([0.5])
    ledger.polled("t", Delta(segments=0, lag_segments=2), 0.6)
    assert len(ledger.latencies) == 1
    ledger.polled("t", Delta(segments=0, lag_segments=0), 1.0)
    assert ledger.latencies == pytest.approx([0.5, 0.9, 0.8])
