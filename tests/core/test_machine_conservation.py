"""Conservation laws of ``SimMachine`` accounting, over the whole fuzz grid.

Every configuration of ``tests/core/_fuzz_bodies.GRID`` (24 seeds × no
GIL and four GIL shapes × with and without I/O threads) must keep its
books: the timeline, the per-thread counters, the machine totals and
the GIL's counters describe the same run. Accounting is where this
simulator's bugs have come from, so the laws are checked exactly (the
fuzz corpus uses integer-valued cycles, so float sums are exact).
"""

from collections import defaultdict

import pytest

from tests.core._fuzz_bodies import GRID, MODELS, run_fuzzed


def _overlaps(segments) -> bool:
    """Do any two (start, end) segments overlap?"""
    ordered = sorted(segments)
    return any(nxt[0] < prev[1] for prev, nxt in zip(ordered, ordered[1:]))


@pytest.mark.parametrize("seed,model,io", GRID, ids=str)
def test_accounting_is_conserved(seed, model, io):
    gil = MODELS[model]
    m = run_fuzzed(seed, io=io, gil=gil)
    stats = m.gil_stats

    segment_cycles = sum(end - start for _, _, start, end in m.timeline)
    assert segment_cycles == m.total_work_cycles
    assert sum(t.busy_cycles for t in m.threads) == m.total_work_cycles

    per_core = defaultdict(list)
    for core, _, start, end in m.timeline:
        per_core[core].append((start, end))
    assert not any(_overlaps(segs) for segs in per_core.values())

    assert sum(t.io_cycles for t in m.threads) == stats.io_cycles
    assert all(t.state == "done" for t in m.threads)
    assert all(t.finish_time <= m.makespan for t in m.threads)

    if gil is None:
        assert (stats.acquisitions, stats.handoffs, stats.slices,
                stats.hold_cycles, stats.wait_cycles) == (0, 0, 0, 0.0, 0.0)
    else:
        # one interpreter: nothing runs in parallel, and the lock is
        # held exactly while interpreter work runs (no condvars here)
        assert not _overlaps([(s, e) for _, _, s, e in m.timeline])
        assert stats.hold_cycles == segment_cycles
