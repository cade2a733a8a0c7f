"""Whole-configuration differential fuzzing of the full system.

Hypothesis draws programs in the optimizer fuzz grammar
(``tests/analysis/test_opt_fuzz.py``) and runs each one through every
configuration of the cross bus × JIT on/off × traced/untraced, where
the virtual bus is crossed further with 1 and 3 processes, two
(batch, timeslice) slice shapes and 64 and 8 frames. Runs that differ
only in JIT and tracing must report equal ``RunReport.counters()`` and
exit statuses, every process of every run must exit with the status a
flat run gives, and every virtual run must end satisfying the
cross-layer conservation laws of ``test_virtual_slice_state.py``.

Tier-1 draws a few programs. ``CONFIG_DIFF_EXAMPLES`` sets how many
(CI runs more).
"""

import os
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.obs import TraceRecorder
from repro.system import runner
from repro.system.runner import program_from_source, run_system
from tests.analysis.test_opt_fuzz import gen_source

from .test_virtual_slice_state import check_conservation

EXAMPLES = int(os.environ.get("CONFIG_DIFF_EXAMPLES", "4"))

#: the configurations each program runs in, apart from JIT and tracing
CONFIGS = ([{"bus": "flat"}, {"bus": "cached"}]
           + [{"bus": "virtual", "procs": procs, "batch": batch,
               "timeslice": timeslice, "num_frames": frames}
              for procs in (1, 3)
              for batch, timeslice in ((100, 2), (7, 1))
              for frames in (64, 8)])


def run(program, config: dict, *, jit: bool, traced: bool):
    """One run of ``program``; a virtual run's bus must conserve."""
    buses = []
    make_bus = runner.make_bus

    def capture(*args, **kwargs):
        buses.append(make_bus(*args, **kwargs))
        return buses[-1]

    recorder = TraceRecorder() if traced else None
    with mock.patch.object(runner, "make_bus", capture):
        report = run_system(program, jit=jit, recorder=recorder, **config)
    if config["bus"] == "virtual":
        check_conservation(buses[0])
    return report


@settings(max_examples=EXAMPLES, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_jit_and_tracing_change_no_configuration(seed):
    program = program_from_source(gen_source(seed))
    status = run(program, CONFIGS[0], jit=False,
                 traced=False).exit_statuses[0]
    for config in CONFIGS:
        reports = {(jit, traced): run(program, config, jit=jit,
                                      traced=traced)
                   for jit in (False, True) for traced in (False, True)}
        base = reports[False, False]
        assert set(base.exit_statuses.values()) == {status}, config
        for key, report in reports.items():
            assert report.counters() == base.counters(), (config, key)
            assert report.exit_statuses == base.exit_statuses, (config, key)
