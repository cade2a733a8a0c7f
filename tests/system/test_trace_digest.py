"""The traced event stream is pinned, byte for byte.

The four-way oracle in ``test_trace_oracle.py`` pins every *counter*
with tracing on; this pins the *trace itself*. The recorder's clocks
are logical (simulated cycles, or ticks it hands out itself), so the
Chrome document of a fixed program is a pure function of the code
path. A change to the per-access memory path that claims to keep
"every recorder event bit-identical" must leave these digests as they
are; a deliberate change to what gets recorded updates them here.

Interpreted kernel slices record through the same bulk-append loop as a
traced ``run()``. Against slices that call ``step()`` once per
instruction, the events are the same multiset and keep their order
within each kind; only the interleaving of fetch instants and spans
inside one flush differs (fetches are listed first), which is why the
``("virtual", False)`` digest is what it is.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.isa.assembler import assemble
from repro.isa.machine import Machine
from repro.obs import TraceRecorder
from repro.obs.chrome import to_chrome
from repro.system.runner import program_from_source, run_system

from .test_slice_oracle import CRASHER
from .test_trace_oracle import LOOPY

#: sha256 of the compact, key-sorted JSON of each Chrome document
DIGESTS = {
    ("virtual", False):
        "0c93754cfd1534c9d58dad524209f201dd5336207b7f59549a62e291593be1ab",
    ("virtual", True):
        "997fee48fc953564fe24911dfa7a0bfd9e41bfcf2fe5b5313f38f7023b3577de",
    ("cached", False):
        "fc361658b7fd66973df85c410a9d450133d94797e77fdffbe49fb0916645745b",
    ("cached", True):
        "c245a0683233fc225dcd2016b696bafeb086f29afa3b374922e37f67ce3e866d",
}


def chrome_digest(bus: str, jit: bool) -> str:
    kwargs = dict(procs=2, timeslice=1, batch=50) if bus == "virtual" else {}
    rec = TraceRecorder()
    run_system(program_from_source(LOOPY), bus=bus, recorder=rec, jit=jit,
               **kwargs)
    doc = json.dumps(to_chrome(rec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("bus,jit", sorted(DIGESTS))
def test_chrome_document_is_pinned(bus, jit):
    assert chrome_digest(bus, jit) == DIGESTS[bus, jit]


def stepped_slice(self, limit, *, jit=None):
    """A slice of one ``step()`` per instruction, each recorded alone."""
    before = self.steps
    while not self.halted and self.steps - before < limit:
        self.step()
    return self.steps - before


def virtual_events(program) -> list:
    rec = TraceRecorder()
    run_system(program, bus="virtual", recorder=rec, jit=False, procs=2,
               timeslice=1, batch=50)
    assert rec.dropped == 0
    return rec.events()


def by_kind(events) -> tuple[list, list, list]:
    """(instruction spans, fetch instants, every other event), each in
    recorded order."""
    isa = [e for e in events if e.pid == "isa"]
    return ([e for e in isa if e.ph == "X"],
            [e for e in isa if e.name == "fetch"],
            [e for e in events if e.pid != "isa"])


@pytest.mark.parametrize("source", ["loopy", "crasher"])
def test_traced_slices_match_stepped_slices(monkeypatch, source):
    """``crasher`` segfaults in the middle of a slice: the faulting
    instruction's fetch is recorded, its span is not, on both paths."""
    program = (program_from_source(LOOPY) if source == "loopy"
               else assemble(CRASHER))
    bulk = virtual_events(program)
    monkeypatch.setattr(Machine, "run_slice", stepped_slice)
    stepped = virtual_events(program)
    assert Counter(map(repr, bulk)) == Counter(map(repr, stepped))
    assert all(by_kind(bulk))
    assert by_kind(bulk) == by_kind(stepped)
    assert bulk != stepped                   # only the interleaving moved
