"""Facts reused inside one optimizer call match the same facts computed
from scratch.

:func:`optimize_program` stores per-block facts on the blocks it builds
(liveness masks, range transfers, symbolic executions; see
:class:`~repro.analysis.opt.OptBlock`), skips validation of a pass that
rewrote nothing and reads ``stack_safe`` from its last context.  Over
the golden corpus of ``test_opt_golden``, every pass application is
checked against an analysis of fresh copies of its blocks (copies carry
no stored facts): the context it is handed must equal a new
:func:`stack_ranges` and :func:`live_out_masks`, its rejections must
equal a memo-free :func:`check_blocks`, and the final ``stack_safe``
must equal :func:`stack_safe_addresses` of the optimized program.
"""

import gc

import pytest

import repro.analysis.opt as opt_module
import repro.analysis.verify as verify_module
from repro.analysis.dataflow import Interval
from repro.analysis.opt import (
    ALL_BITS,
    PIPELINE,
    EffectTable,
    OptBlock,
    extract_blocks,
    live_out_masks,
    optimize_program,
    stack_ranges,
    stack_safe_addresses,
)
from repro.analysis.verify import check_blocks
from repro.isa.assembler import assemble
from repro.system.runner import program_from_source
from tests.analysis.test_opt_golden import CORPUS, OPT_GOLDENS, opt_digest


def fresh(blocks):
    return [b.copy() for b in blocks]


def checked(passfn):
    """``passfn`` that first compares the context it is handed with the
    facts of fresh copies of its input."""
    def run(blocks, ctx):
        copies = fresh(blocks)
        at, entry_env = stack_ranges(copies, ctx.entry)
        assert ctx.at == at
        assert ctx.entry_env == entry_env
        assert ctx.live_out(blocks) == live_out_masks(copies, EffectTable())
        return passfn(blocks, ctx)
    run.__name__ = passfn.__name__
    return run


@pytest.mark.parametrize("key", list(CORPUS))
def test_reused_facts_equal_fresh_ones(key, monkeypatch):
    validated = []
    real_check = verify_module.check_blocks

    def spy(orig, opt, entry, bounds, live, *, reuse=False):
        got = real_check(orig, opt, entry, bounds, live, reuse=reuse)
        o, n = fresh(orig), fresh(opt)
        _, fresh_bounds = stack_ranges(fresh(orig), entry)
        want = real_check(o, n, entry, fresh_bounds,
                          live_out_masks(o, EffectTable()))
        assert [(r.block, r.reason) for r in got] == \
            [(r.block, r.reason) for r in want]
        validated.append(len(got))
        return got

    monkeypatch.setattr(verify_module, "check_blocks", spy)
    result = optimize_program(program_from_source(CORPUS[key]),
                              passes=[checked(p) for p in PIPELINE])
    assert validated
    assert opt_digest(result) == OPT_GOLDENS[key]
    assert result.program.stack_safe == \
        stack_safe_addresses(result.program)


def test_range_facts_follow_a_rewritten_predecessor():
    # dead-code elimination drops the dead `leal`, so the second pass
    # enters `next` without %edx bounded: the transfer stored on `next`
    # by the first context must not be reused
    result = optimize_program(assemble(
        "main:\n"
        "  leal -8(%esp), %edx\n"
        "  jmp next\n"
        "next:\n"
        "  movl $0, %edx\n"
        "  halt\n"), passes=[checked(opt_module.eliminate_dead)] * 2,
        rounds=1)
    assert result.pass_stats == {"eliminate_dead": 1}
    assert result.rejections == []


def test_frame_checks_follow_rewritten_range_facts():
    # folding `addl %eax, %edx` to `addl $0, %edx` bounds %edx, which
    # proves that the store in the unchanged `body` misses the saved
    # %ebp: the second context must see `f` preserve %ebp, and `main`
    # keep its %ebp across the call
    result = optimize_program(assemble(
        "main:\n"
        "  pushl %ebp\n"
        "  movl %esp, %ebp\n"
        "  call f\n"
        "  movl %ebp, %eax\n"
        "  halt\n"
        "f:\n"
        "  pushl %ebp\n"
        "  movl %esp, %ebp\n"
        "  movl $0, %eax\n"
        "  movl %esp, %edx\n"
        "  addl %eax, %edx\n"
        "  jmp body\n"
        "body:\n"
        "  movl $7, -4(%edx)\n"
        "  leave\n"
        "  ret\n"), passes=[checked(opt_module.fold_constants)] * 2,
        rounds=1)
    assert result.pass_stats == {"fold_constants": 1}
    assert result.rejections == []


def test_symbolic_runs_are_not_reused_under_other_bounds():
    # under bounds that keep %esp and %ebp apart, the load reads back
    # %eax; with no bounds it may read %ebx, so the rewrite that
    # forwards %eax is accepted only under the first
    orig, = extract_blocks(assemble(
        "main:\n"
        "  movl %eax, 0(%esp)\n"
        "  movl %ebx, 0(%ebp)\n"
        "  movl 0(%esp), %ecx\n"
        "  halt\n"))[0]
    new = OptBlock(list(orig.labels),
                   orig.instrs[:2] + [assemble(
                       "main:\n  movl %eax, %ecx\n").instructions[0]]
                   + orig.instrs[3:])
    apart = {"esp": Interval.const(-16), "ebp": Interval.const(0)}
    for reuse in (False, True):
        assert check_blocks([orig], [new], 0, [apart], [ALL_BITS],
                            reuse=reuse) == []
        rejected = check_blocks([orig], [new], 0, [{}], [ALL_BITS],
                                reuse=reuse)
        assert [r.block for r in rejected] == [0]


def _module_state():
    """Every global of the optimizer and validator modules, containers
    copied so that a change to their contents shows."""
    state = {}
    for module in (opt_module, verify_module):
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                value = value.copy()
            state[(module.__name__, name)] = value
    return state


def test_repeat_calls_agree_and_leave_nothing_behind():
    program = program_from_source(CORPUS["burst-0-0"])
    instructions = [dict(vars(ins)) for ins in program.instructions]
    before = _module_state()
    first = opt_digest(optimize_program(program))
    gc.collect()
    assert not [o for o in gc.get_objects()
                if isinstance(o, (OptBlock, EffectTable))]
    assert _module_state() == before
    assert [dict(vars(ins)) for ins in program.instructions] == instructions
    assert opt_digest(optimize_program(program)) == first
