"""The traced event stream is pinned, byte for byte.

The four-way oracle in ``test_trace_oracle.py`` pins every *counter*
with tracing on; this pins the *trace itself*. The recorder's clocks
are logical (simulated cycles, or ticks it hands out itself), so the
Chrome document of a fixed program is a pure function of the code
path. A change to the per-access memory path that claims to keep
"every recorder event bit-identical" must leave these digests as they
are; a deliberate change to what gets recorded updates them here.
"""

import hashlib
import json

import pytest

from repro.obs import TraceRecorder
from repro.obs.chrome import to_chrome
from repro.system.runner import program_from_source, run_system

from .test_trace_oracle import LOOPY

#: sha256 of the compact, key-sorted JSON of each Chrome document
DIGESTS = {
    ("virtual", False):
        "ae66ddcc771962b8ea8e799fdd92b34c018fbe370195c2a4a4e1e7ecd8910f3a",
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
