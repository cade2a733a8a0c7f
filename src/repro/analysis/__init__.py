"""Static analysis over the course's three program forms.

The dynamic tools in this repository — :mod:`repro.clib.memcheck` for
memory, :class:`repro.core.race.RaceDetector` and
:class:`repro.core.deadlock.WaitForGraph` for concurrency — observe one
*execution*.  This package is their compile-time counterpart:

``cfg`` / ``dataflow`` / ``checks``
    basic-block CFGs over the :mod:`repro.isa.ccompiler` AST, a generic
    iterative dataflow engine (reaching definitions, liveness, constant
    propagation), and the checkers built on them — uninitialized reads,
    dead stores, unreachable code, constant out-of-bounds indices,
    constant division by zero, missing returns;
``concurrency``
    static lock-order graphs and lockset approximation over the thread
    bodies :class:`repro.core.thread_api.Pthreads` runs — potential
    deadlocks (acquisition-order cycles) and race candidates, an
    over-approximation of what the dynamic detector can observe;
``asmlint``
    assembler-level lint over :func:`repro.isa.assembler.scan`, the
    assembler's own line scanner — every error ``assemble`` raises,
    unreachable code after ``jmp``/``ret``, self-moves, dead stores;
``opt`` / ``verify``
    the translation-validated assembly optimizer: a four-pass pipeline
    (constant folding, local value numbering, liveness-driven dead-code
    elimination, jump threading) over the assembled program, a
    value-range analysis on the :class:`~repro.analysis.dataflow.Interval`
    lattice that proves stack bounds for the JIT, and the symbolic
    block validator that proves every rewrite preserves the machine's
    observable behaviour (or reverts it);
``report`` / ``cli``
    the shared :class:`Finding` vocabulary, text/JSON renderers, and
    the ``python -m repro analyze`` driver.
"""

from repro.analysis.report import (
    Finding,
    KINDS,
    SEVERITIES,
    finding,
    render_json,
    render_text,
)
from repro.analysis.cfg import CFG, BasicBlock, CondTest, build_cfg
from repro.analysis.dataflow import (
    ConstantPropagation,
    DataflowProblem,
    Liveness,
    NAC,
    ReachingDefinitions,
    UNINIT,
    eval_const,
    solve,
    stmt_facts,
)
from repro.analysis.checks import analyze_c_source, check_function
from repro.analysis.concurrency import (
    RaceCandidate,
    StaticAccess,
    ThreadSummary,
    analyze_python_source,
    analyze_summaries,
    analyze_thread_bodies,
    lock_order_graph,
    race_candidates,
    static_race_vars,
    summarize_body,
    summarize_python_source,
)
from repro.analysis.asmlint import lint_asm
from repro.analysis.opt import (
    OptBlock,
    OptResult,
    Rejection,
    asm_liveness,
    optimize_program,
    stack_ranges,
)
from repro.analysis.verify import SymState, validate_blocks
from repro.analysis.corpus import (
    KindScore,
    expected_findings,
    merge_scores,
    reported_findings,
    score,
)
from repro.analysis.cli import analyze_file, run as run_cli

__all__ = [
    "Finding", "KINDS", "SEVERITIES", "finding",
    "render_json", "render_text",
    "CFG", "BasicBlock", "CondTest", "build_cfg",
    "DataflowProblem", "ReachingDefinitions", "Liveness",
    "ConstantPropagation", "NAC", "UNINIT", "eval_const", "solve",
    "stmt_facts",
    "analyze_c_source", "check_function",
    "ThreadSummary", "StaticAccess", "RaceCandidate",
    "summarize_body", "summarize_python_source", "race_candidates",
    "lock_order_graph", "analyze_summaries", "analyze_thread_bodies",
    "analyze_python_source", "static_race_vars",
    "lint_asm",
    "OptBlock", "OptResult", "Rejection", "asm_liveness",
    "optimize_program", "stack_ranges",
    "SymState", "validate_blocks",
    "KindScore", "expected_findings", "reported_findings", "score",
    "merge_scores",
    "analyze_file", "run_cli",
]
