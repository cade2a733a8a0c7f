"""Traced faults and slice limits of the interpreted run loop, pinned.

A traced ``run(jit=False)`` flushes its pending spans (and fetch
instants, under ``record_fetches``) before it records a fault, and
records the fetch of the instruction that faulted; a ``run_slice`` that
stops at its limit flushes what it ran. These literals pin the
``(ph, name, ts, args)`` of every event for three faulting programs,
with fetch recording off and on, and for a slice cut off mid-chunk.
"""

import pytest

from repro.errors import MachineFault, SegmentationFault
from repro.isa.assembler import assemble
from repro.isa.machine import Machine
from repro.obs import TraceRecorder

TEXT = 0x08048000

PROGRAMS = {
    # no ret: %eip runs past the last instruction
    "falls_off": (MachineFault, """
main:
    movl $1, %eax
    addl $2, %eax
"""),
    "divide_by_zero": (MachineFault, """
main:
    movl $7, %eax
    cltd
    movl $0, %ecx
    idivl %ecx
    ret
"""),
    # address 0x10 lies in no region of the standard address space
    "wild_store": (SegmentationFault, """
main:
    movl $5, %ecx
    movl $0x10, %eax
    movl %ecx, (%eax)
    ret
"""),
}

FELL_OFF = ("no instruction at eip=0x08048008 after 2 steps "
            "(fell off the program?)")


def span(name, ts):
    return ("X", name, float(ts), {"eip": TEXT + 4 * ts})


def fetch(ts):
    return ("i", "fetch", float(ts), {"eip": TEXT + 4 * ts})


EXPECTED = {
    ("falls_off", False): [
        span("movl", 0), span("addl", 1),
        ("i", "fault", 2.0, {"eip": TEXT + 8, "what": FELL_OFF})],
    ("falls_off", True): [
        fetch(0), fetch(1), span("movl", 0), span("addl", 1),
        ("i", "fault", 2.0, {"eip": TEXT + 8, "what": FELL_OFF})],
    ("divide_by_zero", False): [
        span("movl", 0), span("cltd", 1), span("movl", 2),
        ("i", "fault", 3.0,
         {"eip": TEXT + 12, "what": "divide error: division by zero"})],
    ("divide_by_zero", True): [
        fetch(0), fetch(1), fetch(2),
        span("movl", 0), span("cltd", 1), span("movl", 2),
        fetch(3),
        ("i", "fault", 3.0,
         {"eip": TEXT + 12, "what": "divide error: division by zero"})],
    # a segfault is not a MachineFault: no fault instant, but the
    # faulting instruction's fetch is still recorded
    ("wild_store", False): [span("movl", 0), span("movl", 1)],
    ("wild_store", True): [
        fetch(0), fetch(1), span("movl", 0), span("movl", 1), fetch(2)],
}


def events(rec):
    return [(e.ph, e.name, e.ts, e.args) for e in rec.events()]


@pytest.mark.parametrize("record_fetches", [False, True])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_traced_fault_events_are_pinned(name, record_fetches):
    error, source = PROGRAMS[name]
    rec = TraceRecorder()
    machine = Machine(assemble(source), recorder=rec,
                      record_fetches=record_fetches)
    with pytest.raises(error):
        machine.run(jit=False)
    assert events(rec) == EXPECTED[name, record_fetches]


LOOP = """
main:
    movl $0, %ecx
top:
    addl $1, %ecx
    jmp top
"""


@pytest.mark.parametrize("record_fetches", [False, True])
def test_slice_stopped_mid_chunk_is_pinned(record_fetches):
    rec = TraceRecorder()
    machine = Machine(assemble(LOOP), recorder=rec,
                      record_fetches=record_fetches)
    assert machine.run_slice(5, jit=False) == 5
    assert machine.run_slice(2, jit=False) == 2
    assert machine.steps == 7 and not machine.halted
    eips = [TEXT, TEXT + 4, TEXT + 8, TEXT + 4, TEXT + 8, TEXT + 4,
            TEXT + 8]
    names = ["movl", "addl", "jmp", "addl", "jmp", "addl", "jmp"]
    fetches = [("i", "fetch", float(ts), {"eip": eip})
               for ts, eip in enumerate(eips)]
    spans = [("X", name, float(ts), {"eip": eip})
             for ts, (name, eip) in enumerate(zip(names, eips))]
    # each slice flushes its own chunk: fetches first, then spans
    expected = []
    for lo, hi in ((0, 5), (5, 7)):
        if record_fetches:
            expected += fetches[lo:hi]
        expected += spans[lo:hi]
    assert events(rec) == expected
