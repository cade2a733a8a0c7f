"""An optimizing pass pipeline over assembled programs.

The dataflow engine (PR 2) finally pays its way in performance: this
module rewrites an assembled :class:`~repro.isa.instructions.Program`
into a faster, behaviourally identical one.  The pipeline runs four
passes (twice, so simplifications cascade), each structure-preserving
— the block list, block count, and every label survive, only the
instructions inside blocks change:

* :func:`fold_constants` — intra-block constant propagation/folding
  over registers *and* concrete flag values: ``movl $c`` chains fold
  forward, arithmetic on two known constants folds to a ``movl``, and
  a conditional jump whose deciding ``cmpl`` happened earlier in the
  same block becomes a ``jmp`` (or disappears).
* :func:`local_values` — local value numbering: copy propagation,
  store-to-load forwarding, redundant-load elimination, dead
  store-then-overwrite elimination, self-move removal, and the big
  one for compiled code: push/pop pair elimination (the naive codegen
  parenthesizes every binary expression with ``pushl``/``popl``; the
  popped value is rematerialized from the register, constant, or
  memory slot that still holds it).
* :func:`eliminate_dead` — global liveness (registers *and* the four
  flags individually) driven dead-code elimination; dead loads are
  deleted only when the value-range analysis proves the address sits
  in the stack (so no fault or watcher-visible access disappears
  from an address we can't bound).
* :func:`thread_jumps` — jump threading through trivial blocks,
  ``jmp``-to-next deletion, and unreachable-block emptying.

Every pass is *translation-validated*: :mod:`repro.analysis.verify`
symbolically executes each rewritten block against its original and
the pass's output for a block is thrown away unless the effects are
provably equal.  See ``verify`` for the trust model (the only trusted
analysis input is the value-range bounds, used for fault reasoning,
never for values).

The value-range analysis itself (:func:`stack_ranges`, built on the
:class:`~repro.analysis.dataflow.Interval` lattice) tracks which
registers are provably ``entry-%esp + [lo, hi]``.  Its facts feed the
JIT: :func:`optimize_program` stamps ``program.stack_safe`` with the
addresses of instructions whose every memory access is proved inside
``[esp0 - STACK_HEADROOM, esp0 + SAFE_HI]``, and
:class:`repro.isa.jit.JitEngine` elides the per-access bounds guard
for exactly those instructions.  The facts come from the context of
the final block list, so the rebuilt program is not analysed again.

Inside one :func:`optimize_program` call every per-block fact is
computed once per distinct input.  Passes hand back the very block
object for a block they leave alone, so a block list after a pass
shares most of its blocks with the list before it.  Each block stores
what depends on it alone (:class:`OptBlock`): its liveness masks, its
range transfer for each fixpoint visit (reused when the entry
environment is equal), its calling-convention check (reused while its
range facts are the same list) and its last symbolic execution
(reused at the same index, target and bounds).  Instruction effects
are computed once per instruction form (:class:`EffectTable`).  All of
it lives on objects the call creates, and is dropped with them: no
cache outlives the call.

The optimized program behaves identically *when executed from its
entry point* — unreachable-from-entry code may be dropped, so don't
optimize programs you intend to enter at arbitrary labels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from operator import is_

from repro.analysis.cfg import build_asm_cfg
from repro.analysis.dataflow import Interval
from repro.binary.twos_complement import MASK32, sign32
from repro.isa.instructions import (
    CALLS,
    INSTRUCTION_SIZE,
    JUMPS,
    Immediate,
    Instruction,
    LabelImmediate,
    LabelRef,
    Memory,
    Program,
    Register,
)
from repro.isa.semantics import (
    FLAG_NAMES,
    GP,
    JCC_READS,
    SHIFTS,
    TAKEN,
    flags_may_written,
    flags_read,
    flags_written,
    fold,
    has_mem_read,
    has_mem_write,
    regs_read,
    regs_written,
    sub_parents,
)

__all__ = [
    "OptBlock", "OptResult", "Rejection", "STACK_HEADROOM",
    "SAFE_LO", "SAFE_HI", "extract_blocks", "rebuild", "stack_ranges",
    "fold_constants", "local_values", "eliminate_dead", "thread_jumps",
    "asm_liveness", "optimize_program",
]

#: how far below the entry %esp an access may sit and still be "proved
#: on the stack" — the JIT checks at runtime that the stack region
#: actually covers this much headroom before trusting the facts
STACK_HEADROOM = 4096
SAFE_LO = -STACK_HEADROOM
SAFE_HI = 12

#: bit of each register and flag in an effect mask (8 + 4 bits)
BIT = {name: 1 << k for k, name in enumerate(GP + FLAG_NAMES)}
ALL_BITS = (1 << len(BIT)) - 1

#: mnemonics the symbolic machinery models; byte-ops freeze their block
BYTE_OPS = frozenset({"movb", "movzbl", "movsbl", "cmpb"})
_BLOCK_ENDERS = JUMPS | CALLS | {"ret", "halt"}


# ---------------------------------------------------------------------------
# instruction effect tables
# ---------------------------------------------------------------------------

def _mask(names) -> int:
    out = 0
    for name in names:
        out |= BIT[name]
    return out


class EffectTable:
    """Each instruction's register and flag effects as bitmasks (see
    :data:`BIT`), computed once per instruction form.

    ``fx(ins)`` is ``(use, kill, may_kill)``: what the instruction
    reads, what it definitely overwrites, and what it may overwrite.
    Rows are found by ``id(ins)`` (``rows``, which callers may read
    inline), and on a miss by the instruction's form, ``(mnemonic,
    operands)``: compiled code repeats a few hundred forms over
    thousands of instruction objects, and hashing a form costs less
    than deriving its row, but more than an id lookup.  The table
    holds every instruction it has seen, so no id is reused while it
    lives.  One :func:`optimize_program` call owns one table and drops
    it on return.
    """
    __slots__ = ("rows", "_forms", "_held")

    def __init__(self) -> None:
        self.rows: dict[int, tuple[int, int, int]] = {}
        self._forms: dict[tuple, tuple[int, int, int]] = {}
        self._held: list[Instruction] = []

    def __call__(self, ins: Instruction) -> tuple[int, int, int]:
        row = self.rows.get(id(ins))
        if row is None:
            form = (ins.mnemonic, ins.operands)
            row = self._forms.get(form)
            if row is None:
                written = _mask(regs_written(ins))
                row = self._forms[form] = (
                    _mask(regs_read(ins)) | _mask(flags_read(ins)),
                    (written & ~_mask(sub_parents(ins)))
                    | _mask(flags_written(ins)),
                    written | _mask(flags_may_written(ins)))
            self.rows[id(ins)] = row
            self._held.append(ins)
        return row


# ---------------------------------------------------------------------------
# block extraction / rebuild
# ---------------------------------------------------------------------------

@dataclass
class OptBlock:
    """One basic block in the optimizer's working form.

    Blocks live in an ordered list that partitions the instruction
    stream; falling off the end of a block means running into the
    next one.  ``frozen`` blocks contain byte-width operations or
    sub-register operands the symbolic validator doesn't model — passes
    leave them untouched.

    A block is never edited once built: a pass hands back the very
    object it was given for a block it leaves alone, and builds a new
    block for one it rewrites.  So facts that depend only on
    ``instrs`` are stored on the block and reused for as long as the
    block lives, which is at most one :func:`optimize_program` call:

    * ``gen_kill``: the liveness ``(gen, ~kill)`` masks;
    * ``ranges``: the range transfer through the block, keyed on
      ``(fixpoint root, visit number)`` and reused when the entry
      environment is equal (see :func:`_ranges_fixpoint`), and the
      calling-convention check of each function it belongs to, keyed
      on ``("frame", function entry)`` and reused while its facts are
      the same list (see :func:`_check_function`);
    * ``sym``: the last symbolic execution of the block, keyed on its
      index, the block count, its jump target and equal entry bounds
      (see :func:`repro.analysis.verify.check_blocks`).

    :meth:`copy` returns a block with none of them.
    """
    labels: list[str] = field(default_factory=list)
    instrs: list[Instruction] = field(default_factory=list)
    frozen: bool = False
    gen_kill: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False)
    ranges: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    sym: tuple | None = field(default=None, init=False, repr=False,
                              compare=False)

    def copy(self) -> "OptBlock":
        return OptBlock(list(self.labels), list(self.instrs), self.frozen)

    def with_instrs(self, instrs: list[Instruction]) -> "OptBlock":
        """This block if ``instrs`` are its own instruction objects in
        order, else a new block with them."""
        if len(instrs) == len(self.instrs) \
                and all(map(is_, instrs, self.instrs)):
            return self
        return OptBlock(list(self.labels), instrs, self.frozen)


@dataclass
class Rejection:
    """One block the translation validator refused."""
    block: int
    pass_name: str
    reason: str

    def __str__(self) -> str:
        return f"block {self.block} [{self.pass_name}]: {self.reason}"


@dataclass
class OptResult:
    """What :func:`optimize_program` did."""
    program: Program              # the optimized (or original) program
    original: Program
    blocks: int = 0
    static_before: int = 0
    static_after: int = 0
    proved_safe: int = 0          # instructions with proved stack bounds
    pass_stats: dict = field(default_factory=dict)   # pass -> rewrites
    rejections: list = field(default_factory=list)
    bailed: str | None = None     # why the program was left alone

    def summary(self) -> str:
        if self.bailed:
            return f"not optimized: {self.bailed}"
        delta = self.static_before - self.static_after
        pct = delta / self.static_before * 100 if self.static_before else 0
        parts = [f"{self.static_before} -> {self.static_after} "
                 f"instructions (-{pct:.0f}% static)",
                 f"{self.proved_safe} proved stack-safe"]
        if self.rejections:
            parts.append(f"{len(self.rejections)} blocks rejected "
                         "by the validator")
        return ", ".join(parts)


def extract_blocks(program: Program) -> tuple[list[OptBlock], str | None]:
    """Partition a program into ordered :class:`OptBlock`\\ s.

    Returns ``(blocks, None)`` or ``([], reason)`` when the program
    can't be safely optimized: indirect jumps/calls make the CFG (and
    therefore reachability and jump threading) unknowable, and a
    ``$label`` immediate naming *code* means instruction addresses
    escape into data — renumbering would break them.
    """
    if not program.instructions:
        return [], "empty program"
    text_addrs = set(program.by_address)
    for ins in program.instructions:
        if ins.mnemonic == "jmp" or ins.mnemonic in CALLS:
            if not isinstance(ins.operands[0], LabelRef):
                return [], f"indirect {ins.mnemonic} at {ins.address:#x}"
        if ins.mnemonic in JUMPS and \
                not isinstance(ins.operands[0], LabelRef):
            return [], f"indirect {ins.mnemonic} at {ins.address:#x}"
        for op in ins.operands:
            if isinstance(op, LabelImmediate) and op.address in text_addrs:
                return [], f"address-taken code label {op.name!r}"
        if ins.mnemonic in _BLOCK_ENDERS and ins.mnemonic != "halt":
            if ins.mnemonic != "ret" and isinstance(ins.operands[0],
                                                    LabelRef):
                tgt = ins.operands[0].address
                if tgt not in text_addrs:
                    return [], (f"{ins.mnemonic} to non-code address "
                                f"{tgt:#x}" if tgt is not None else
                                f"unresolved {ins.mnemonic} target")
    cfg = build_asm_cfg(program)
    labels_at: dict[int, list[str]] = {}
    for name, addr in program.labels.items():
        labels_at.setdefault(addr, []).append(name)
    blocks = []
    for start in sorted(cfg.blocks):
        asm = cfg.blocks[start]
        b = OptBlock(labels=labels_at.get(start, []),
                     instrs=list(asm.instructions))
        b.frozen = any(i.mnemonic in BYTE_OPS or sub_parents(i) or
                       (i.mnemonic in SHIFTS and
                        not isinstance(i.operands[0], Immediate))
                       for i in b.instrs)
        blocks.append(b)
    if program.entry_address not in cfg.blocks:
        return [], "entry is not a block leader"
    return blocks, None


def block_index_map(blocks: list[OptBlock]) -> dict[str, int]:
    """label name -> index of the block it names."""
    out = {}
    for i, b in enumerate(blocks):
        for name in b.labels:
            out[name] = i
    return out


def block_succs(blocks: list[OptBlock], i: int,
                labels: dict[str, int]) -> list[int]:
    """Successor block indices (jump target first, fall-through last).

    ``call`` contributes both its target (the callee runs) and its
    fall-through (the callee eventually returns there)."""
    b = blocks[i]
    nxt = [i + 1] if i + 1 < len(blocks) else []
    if not b.instrs:
        return nxt
    last = b.instrs[-1]
    m = last.mnemonic
    if m == "jmp":
        t = labels.get(last.operands[0].name)
        return [t] if t is not None else []
    if m in JUMPS or m in CALLS:
        t = labels.get(last.operands[0].name)
        return ([t] if t is not None else []) + nxt
    if m in ("ret", "halt"):
        return []
    return nxt


def reachable_blocks(blocks: list[OptBlock], entry: int) -> set[int]:
    labels = block_index_map(blocks)
    seen = {entry}
    work = [entry]
    while work:
        for s in block_succs(blocks, work.pop(), labels):
            if s not in seen:
                seen.add(s)
                work.append(s)
    return seen


def rebuild(blocks: list[OptBlock], program: Program) -> Program:
    """Renumber the surviving instructions into a fresh Program.

    Text labels move with their blocks; labels that pointed at the
    original end-of-text track the new end; data labels are copied
    verbatim (the data image never moves)."""
    base = program.instructions[0].address
    old_end = program.instructions[-1].address + INSTRUCTION_SIZE
    new_labels: dict[str, int] = {}
    addr = base
    for b in blocks:
        for name in b.labels:
            new_labels[name] = addr
        addr += INSTRUCTION_SIZE * len(b.instrs)
    new_end = addr
    for name, old in program.labels.items():
        if name in new_labels:
            continue
        new_labels[name] = new_end if old == old_end else old
    resolved = []
    addr = base
    for b in blocks:
        label = b.labels[0] if b.labels else None
        for ins in b.instrs:
            ops = ins.operands
            if any(isinstance(op, (LabelRef, LabelImmediate)) for op in ops):
                ops = tuple(
                    type(op)(op.name, new_labels.get(op.name, op.address))
                    if isinstance(op, (LabelRef, LabelImmediate)) else op
                    for op in ops)
            resolved.append(Instruction(ins.mnemonic, ops, addr,
                                        ins.source_line, label))
            label = None
            addr += INSTRUCTION_SIZE
    return Program(instructions=resolved, labels=new_labels,
                   entry=program.entry, data_image=program.data_image,
                   data_base=program.data_base)


# ---------------------------------------------------------------------------
# value-range analysis: which registers are entry-%esp + [lo, hi]?
# ---------------------------------------------------------------------------

def _without(env: dict, reg: str) -> dict:
    """``env`` less ``reg``; ``env`` itself when it has no ``reg``."""
    if reg not in env:
        return env
    out = dict(env)
    del out[reg]
    return out


def _range_transfer(ins: Instruction, env: dict) -> dict:
    """One instruction over the esp-relative interval environment.

    Environments are shared, never edited: the result is ``env``
    itself when the instruction leaves every fact as it was, else a
    new dict."""
    m, ops = ins.mnemonic, ins.operands
    if m == "movl":
        if not isinstance(ops[1], Register):
            return env                  # a store writes no register
        src, dst = ops[0], ops[1].name
        if isinstance(src, Register) and src.name in env:
            return {**env, dst: env[src.name]}
        return _without(env, dst)
    if m == "leal" and isinstance(ops[0], Memory):
        mem = ops[0]
        if mem.base in env and mem.index is None:
            return {**env, ops[1].name: env[mem.base].shift(mem.displacement)}
        return _without(env, ops[1].name)
    if m in ("addl", "subl") and isinstance(ops[1], Register) \
            and isinstance(ops[0], Immediate):
        r = ops[1].name
        if r not in env:
            return env
        k = ops[0].value
        return {**env, r: env[r].shift(k if m == "addl" else -k)}
    if m in ("incl", "decl") and isinstance(ops[0], Register):
        r = ops[0].name
        if r not in env:
            return env
        return {**env, r: env[r].shift(1 if m == "incl" else -1)}
    if m == "pushl":
        if "esp" not in env:
            return env
        return {**env, "esp": env["esp"].shift(-4)}
    if m == "popl":
        dst = ops[0].name if isinstance(ops[0], Register) else None
        if dst is not None:
            env = _without(env, dst)
        if "esp" in env and dst != "esp":
            env = {**env, "esp": env["esp"].shift(4)}
        return env
    if m == "ret":
        if "esp" not in env:
            return env
        return {**env, "esp": env["esp"].shift(4)}
    if m == "leave":
        out = dict(env)
        ebp = out.pop("ebp", None)
        if ebp is not None:
            out["esp"] = ebp.shift(4)
        else:
            out.pop("esp", None)
        return out
    for r in regs_written(ins):
        env = _without(env, r)
    return env


def _range_meet(a: dict, b: dict) -> dict:
    out = {}
    for r, iv in a.items():
        other = b.get(r)
        if other is not None:
            out[r] = iv if iv is other else iv.join(other)
    return out


def _access_intervals(ins: Instruction, env: dict) -> list | None:
    """Esp-relative intervals of every data access, None = unbounded.

    Returns a list of :class:`Interval` (one per load/store the
    instruction performs, explicit memory operands and implicit stack
    accesses alike); any access we can't bound yields ``None``."""
    m, ops = ins.mnemonic, ins.operands
    out = []

    def mem_interval(op: Memory):
        if op.index is not None or op.base is None:
            return None
        base = env.get(op.base)
        if base is None:
            return None
        return base.shift(op.displacement)

    for op in ops:
        if isinstance(op, Memory) and m != "leal":
            iv = mem_interval(op)
            if iv is None:
                return None
            out.append(iv)
    esp = env.get("esp")
    if m == "pushl" or m in CALLS:
        if esp is None:
            return None
        out.append(esp.shift(-4))
    elif m in ("popl", "ret"):
        if esp is None:
            return None
        out.append(esp)
    elif m == "leave":
        ebp = env.get("ebp")
        if ebp is None:
            return None
        out.append(ebp)
    return out


#: effect record for a call target the analysis could not certify
_NO_EFFECT = {"balanced": False, "preserves_ebp": False}


def _block_ranges(instrs: list, env: dict) -> tuple[list, dict]:
    """``(facts, out)``: the environment before each instruction, and
    after the last, running ``instrs`` from ``env``."""
    facts = []
    for ins in instrs:
        facts.append(env)
        env = _range_transfer(ins, env)
    return facts, env


def _ranges_fixpoint(blocks: list[OptBlock], labels: dict, entry: int,
                     init_env: dict, effects: dict, wanted):
    """Worklist interval analysis from ``entry`` with ``init_env``.

    ``effects`` (call target -> calling-convention record, see
    :func:`function_effects`) decides what survives a ``call``: the
    fall-through keeps ``esp`` across provably balanced callees and
    ``ebp`` across callees proved to preserve it, else starts unknown.
    Returns ``(at, entry_env)``, two lists by block index, filled for
    the blocks in ``wanted`` (a set or range) only: ``at[i]`` holds the
    environment before each instruction of block ``i``.  The worklist
    is FIFO: widening after 8 merges depends on the order.  A block's
    last visit starts from its final entry environment, so the
    environments that visit passes through are its ``at`` facts.

    The transfer through a block is stored in its ``ranges`` under
    ``(entry, visit number)``.  A later fixpoint over a block list that
    still holds the block reuses it when the entry environment at that
    visit is equal, which is the common case for every block a pass
    did not rewrite.
    """
    n = len(blocks)
    envs: list[dict | None] = [None] * n        # None = unvisited
    envs[entry] = init_env
    merges = [0] * n
    visits = [0] * n
    last_facts: list[list | None] = [None] * n
    work = deque([entry])
    while work:
        i = work.popleft()
        env = envs[i]
        b = blocks[i]
        key = (entry, visits[i])
        visits[i] += 1
        memo = b.ranges.get(key)
        if memo is not None and memo[0] == env:
            facts, out = memo[1], memo[2]
        else:
            facts, out = _block_ranges(b.instrs, env)
            b.ranges[key] = (env, facts, out)
        last_facts[i] = facts
        succ_envs: list[tuple[int, dict]] = []
        term = b.instrs[-1].mnemonic if b.instrs else None
        target = b.instrs[-1].operands[0] \
            if term in CALLS or term in JUMPS else None
        if term in CALLS:
            t = labels.get(target.name)
            before_last = facts[-1]
            callee = {}
            if "esp" in before_last:
                # the call pushes its return address before the callee
                # sees %esp
                callee["esp"] = before_last["esp"].shift(-4)
            if "ebp" in before_last:
                callee["ebp"] = before_last["ebp"]
            if t is not None:
                succ_envs.append((t, callee))
            if i + 1 < n:
                ce = effects.get(t, _NO_EFFECT)
                fall_env = {}
                if ce["balanced"] and "esp" in before_last:
                    fall_env["esp"] = before_last["esp"]
                if ce["preserves_ebp"] and "ebp" in before_last:
                    fall_env["ebp"] = before_last["ebp"]
                succ_envs.append((i + 1, fall_env))
        elif term in JUMPS:
            t = labels.get(target.name)
            if t is not None:
                succ_envs.append((t, out))
            if term != "jmp" and i + 1 < n:
                succ_envs.append((i + 1, out))
        elif term not in ("ret", "halt") and i + 1 < n:
            succ_envs.append((i + 1, out))
        for s, e in succ_envs:
            cur = envs[s]
            if cur is None:
                envs[s] = e
                work.append(s)
                continue
            merged = _range_meet(cur, e)
            merges[s] += 1
            if merges[s] > 8:
                merged = {r: cur[r].widen(merged[r])
                          for r in merged if r in cur}
            if merged != cur:
                envs[s] = merged
                work.append(s)
    at: list[list | None] = [None] * n
    entry_env: list[dict | None] = [None] * n
    for i in wanted:
        env = envs[i] if envs[i] is not None else {}
        entry_env[i] = env
        facts = last_facts[i]
        if facts is None:                       # never reached
            facts = _block_ranges(blocks[i].instrs, env)[0]
        at[i] = facts
    return at, entry_env


def _intra_region(blocks: list[OptBlock], labels: dict, f: int) -> set:
    """Blocks reachable from ``f`` without descending into callees —
    a function body, approximately (falling past a ``ret``-less end
    into the next function over-approximates, which only weakens
    facts)."""
    n = len(blocks)
    seen = {f}
    work = [f]
    while work:
        i = work.pop()
        b = blocks[i]
        succs: list[int] = []
        last = b.instrs[-1] if b.instrs else None
        m = last.mnemonic if last else None
        if last is None or m in CALLS or m not in _BLOCK_ENDERS:
            if i + 1 < n:
                succs = [i + 1]
        elif m in JUMPS:
            t = labels.get(last.operands[0].name)
            if t is not None:
                succs.append(t)
            if m != "jmp" and i + 1 < n:
                succs.append(i + 1)
        for s in succs:
            if s not in seen:
                seen.add(s)
                work.append(s)
    return seen


def _frame_check(b: OptBlock, facts: list, head: bool) -> tuple[bool, bool]:
    """``(balanced, keeps)`` over one block of a function body, given
    its range facts: does every ``ret`` in it fire with ``esp`` exactly
    at ``[0, 0]``, and does nothing in it lose the caller's ``%ebp``?
    ``head`` marks the function's first block, whose ``pushl %ebp;
    movl %esp, %ebp`` prologue is exempt."""
    balanced = keeps = True
    for j, (ins, env) in enumerate(zip(b.instrs, facts)):
        m = ins.mnemonic
        if m == "ret":
            esp = env.get("esp")
            if esp is None or esp.is_bottom \
                    or not esp.lo == esp.hi == 0:
                balanced = False
            if j == 0 or b.instrs[j - 1].mnemonic != "leave":
                keeps = False
        elif "ebp" in regs_written(ins) and m != "leave" \
                and not (head and j == 1):
            keeps = False
        if keeps and has_mem_write(ins) and not (head and j == 0):
            accs = _access_intervals(ins, env)
            if accs is None:
                keeps = False
            else:
                # the saved %ebp lives at [-4, -1] — every store must
                # provably miss it
                for iv in accs:
                    if iv.is_bottom or not (iv.hi <= -8 or iv.lo >= 0):
                        keeps = False
    return balanced, keeps


def _check_function(blocks: list[OptBlock], f: int, region: set,
                    at: list) -> tuple[bool, bool]:
    """Does the function at block ``f`` provably (balance %esp,
    preserve %ebp)?  ``at`` holds the range facts of each block of
    ``region`` computed from ``f`` with entry ``esp = [0, 0]``.

    Each block's :func:`_frame_check` is stored in its ``ranges`` under
    ``("frame", f)`` and reused while its facts are the same list."""
    head = blocks[f].instrs
    balanced = True
    keeps = not (len(head) < 2
                 or head[0].mnemonic != "pushl"
                 or head[0].operands != (Register("ebp"),)
                 or head[1].mnemonic != "movl"
                 or head[1].operands != (Register("esp"), Register("ebp")))
    for i in region:
        b = blocks[i]
        memo = b.ranges.get(("frame", f))
        if memo is None or memo[0] is not at[i]:
            memo = b.ranges[("frame", f)] = (
                at[i], _frame_check(b, at[i], i == f))
        balanced = balanced and memo[1][0]
        keeps = keeps and memo[1][1]
    return balanced, keeps


def function_effects(blocks: list[OptBlock], labels: dict) -> dict:
    """Verify the calling convention per call target.

    Maps each ``call`` target block to ``{"balanced", "preserves_ebp"}``:
    whether every reachable ``ret`` provably fires with ``esp`` exactly
    back at the return address, and whether ``%ebp`` provably survives
    the call (standard frame prologue, ``leave; ret`` exits, no store
    can hit the saved slot).  The fixpoint starts optimistic and
    shrinks, which is sound by induction on completed calls; nothing
    here is *assumed* — a function that can't be proved well-behaved
    simply invalidates its callers' facts after each call site.
    """
    ents = set()
    for b in blocks:
        if b.instrs and b.instrs[-1].mnemonic in CALLS:
            t = labels.get(b.instrs[-1].operands[0].name)
            if t is not None:
                ents.add(t)
    effects = {f: {"balanced": True, "preserves_ebp": True}
               for f in ents}
    changed = True
    while changed:
        changed = False
        for f in ents:
            old = effects[f]
            if not old["balanced"] and not old["preserves_ebp"]:
                continue
            region = _intra_region(blocks, labels, f)
            at, _ = _ranges_fixpoint(blocks, labels, f,
                                     {"esp": Interval.const(0)}, effects,
                                     region)
            bal, keeps = _check_function(blocks, f, region, at)
            new = {"balanced": bal and old["balanced"],
                   "preserves_ebp": keeps and old["preserves_ebp"]}
            if new != old:
                effects[f] = new
                changed = True
    return effects


def stack_ranges(blocks: list[OptBlock], entry: int):
    """Forward interval analysis: reg -> entry-%esp-relative Interval.

    Returns ``(at, entry_env)``: ``at[block][instr]`` is the
    environment *before* that instruction, ``entry_env[block]`` the
    environment at block entry.  A ``call`` edge carries ``esp - 4``
    (and the caller's ``ebp``) to the callee; what the fall-through
    block keeps depends on :func:`function_effects` — facts survive a
    call only past callees *proved* to honour the calling convention.
    Recursion widens ``esp`` to an unbounded-below interval, which
    simply proves less.
    """
    labels = block_index_map(blocks)
    effects = function_effects(blocks, labels)
    return _ranges_fixpoint(blocks, labels, entry,
                            {"esp": Interval.const(0)}, effects,
                            range(len(blocks)))


@dataclass
class OptContext:
    """Per-pass analysis context handed to every pass function.

    Every fact in it describes one block list, the pass input; the
    liveness of that list is computed on first use and then shared by
    dead-code elimination and the validator.  Passes return new blocks
    and leave their input as it was, so when a pass changes nothing
    :func:`optimize_program` hands the same context to the next one.

    A new context is built only after a pass changed some block, and
    recomputes only what the changed blocks affect: every other block
    brings its stored range transfers and liveness masks (see
    :class:`OptBlock`)."""
    at: list                      # block -> [reg -> Interval per instr]
    entry_env: list               # block -> reg -> Interval
    entry: int                    # entry block index
    labels: dict                  # label name -> block index
    fx: EffectTable = field(default_factory=EffectTable)
    _live: list | None = field(default=None, init=False, repr=False)

    def live_out(self, blocks: list[OptBlock]) -> list[int]:
        """:func:`live_out_masks` of ``blocks``, the list this context
        was built for."""
        if self._live is None:
            self._live = live_out_masks(blocks, self.fx)
        return self._live


# ---------------------------------------------------------------------------
# pass 1: intra-block constant propagation / folding
# ---------------------------------------------------------------------------

def _flags_dead_after(instrs: list, j: int) -> bool:
    """Are all four flags definitely overwritten before any reader,
    looking only at the rest of this block?  (Past the block end we
    must assume a successor reads them.)"""
    needed = set(FLAG_NAMES)
    for ins in instrs[j + 1:]:
        if flags_read(ins) & needed:
            return False
        needed -= flags_written(ins)
        if not needed:
            return True
    return False


#: mnemonics whose constant source register folds into an immediate
_SOURCE_FOLDS = frozenset({"movl", "addl", "subl", "imull", "andl", "orl",
                           "xorl", "cmpl", "testl", "pushl"})
#: ALU mnemonics that fold to a ``movl`` on two known constants
_ALU_FOLDS = frozenset({"addl", "subl", "imull", "andl", "orl", "xorl"})


def fold_constants(blocks: list[OptBlock],
                   ctx: OptContext) -> tuple[list[OptBlock], int]:
    """Intra-block constant propagation, folding, and jcc resolution.

    Register constants established inside a block flow forward into
    later source operands and fold through the ALU; concrete flag
    values (for instance from ``cmpl`` of two constants) turn a
    conditional jump into a ``jmp`` or delete it.  %esp/%ebp are never
    treated as constants — stack addresses stay symbolic.
    """
    count = 0
    out_blocks = []
    for b in blocks:
        if b.frozen:
            out_blocks.append(b)
            continue
        consts: dict[str, int] = {}
        flags: dict[str, bool] = {}
        out: list[Instruction] = []

        def reg_const(op):
            return consts.get(op.name) if isinstance(op, Register) \
                else op.value & MASK32 if isinstance(op, Immediate) else None

        for j, ins in enumerate(b.instrs):
            m, ops = ins.mnemonic, ins.operands
            changed = False
            # fold known-constant source registers into immediates and
            # known-constant address registers into displacements
            if consts:
                if m in _SOURCE_FOLDS and isinstance(ops[0], Register):
                    v = consts.get(ops[0].name)
                    if v is not None:
                        ops = (Immediate(v),) + ops[1:]
                        changed = True
                new_ops = []
                for op in ops:
                    if isinstance(op, Memory) and op.base in consts:
                        op = Memory(displacement=(op.displacement
                                                  + consts[op.base])
                                    & MASK32,
                                    index=op.index, scale=op.scale)
                        changed = True
                    if isinstance(op, Memory) and op.index in consts:
                        op = Memory(displacement=(op.displacement + op.scale
                                                  * consts[op.index])
                                    & MASK32,
                                    base=op.base)
                        changed = True
                    new_ops.append(op)
                ops = tuple(new_ops)

            # resolve a conditional jump whose flags are all known
            if m in TAKEN and all(f in flags for f in JCC_READS[m]):
                count += 1
                if TAKEN[m](flags):
                    out.append(replace(ins, mnemonic="jmp", operands=ops))
                # not taken: drop it, fall through
                continue

            # fold an ALU op on two known constants into a movl, when
            # its flag results are provably never observed
            folded = False
            if m in _ALU_FOLDS and isinstance(ops[1], Register) \
                    and ops[1].name not in ("esp", "ebp"):
                sv, dv = reg_const(ops[0]), consts.get(ops[1].name)
                if sv is not None and dv is not None:
                    res, flags = fold(m, dv, sv)
                    consts[ops[1].name] = res
                    if _flags_dead_after(b.instrs, j):
                        out.append(replace(ins, mnemonic="movl",
                                           operands=(Immediate(res),
                                                     ops[1])))
                        count += 1
                        continue
                    folded = True
            if not folded and m in ("cmpl", "testl"):
                sv = reg_const(ops[0])
                dv = reg_const(ops[1]) if not isinstance(ops[1], Memory) \
                    else None
                if sv is not None and dv is not None:
                    flags = fold(m, dv, sv)[1]
                    folded = True

            if changed:
                count += 1
                ins = replace(ins, operands=ops)
            out.append(ins)

            # -- update the environment past this instruction --------
            if not folded:
                if flags:
                    for f in flags_may_written(ins):
                        flags.pop(f, None)
                if m == "movl" and isinstance(ops[1], Register) \
                        and isinstance(ops[0], Immediate) \
                        and ops[1].name not in ("esp", "ebp"):
                    consts[ops[1].name] = ops[0].value & MASK32
                elif consts:
                    for r in regs_written(ins):
                        consts.pop(r, None)
            else:
                for r in regs_written(ins) - {ops[1].name
                                              if len(ops) > 1 and
                                              isinstance(ops[1], Register)
                                              else ""}:
                    consts.pop(r, None)
        out_blocks.append(b.with_instrs(out))
    return out_blocks, count


# ---------------------------------------------------------------------------
# pass 2: local value numbering (copies, loads/stores, push/pop pairs)
# ---------------------------------------------------------------------------

class _Pair:
    """A pending ``pushl`` awaiting its ``popl``."""
    __slots__ = ("idx", "slot", "vn", "dirty")

    def __init__(self, idx, slot, vn):
        self.idx = idx
        self.slot = slot
        self.vn = vn
        self.dirty = slot is None


def _keys_alias(a, b) -> bool:
    """May two memory keys overlap?  (None = unknown address.)"""
    if a is None or b is None:
        return True
    if a[0] == "abs" and b[0] == "abs":
        return abs(a[1] - b[1]) < 4
    if a[0] != "abs" and b[0] != "abs" and a[0] == b[0]:
        return abs(a[1] - b[1]) < 4
    return True


def local_values(blocks: list[OptBlock],
                 ctx: OptContext) -> tuple[list[OptBlock], int]:
    """Local value numbering over each block.

    Tracks a symbolic value number per register and per known memory
    slot, and uses them for copy propagation, store-to-load
    forwarding, redundant self-moves, dead store-then-overwrite
    elimination, and — the naive codegen's signature pattern —
    push/pop pair elimination with the popped value rematerialized
    from wherever it still lives (a register, a constant, or the
    memory slot it was loaded from).

    Memory slots are named either concretely (``entry-%esp + k``, when
    the value-range analysis pins the base register to a single value)
    or relative to a register's block-entry value; two slots with the
    same root and offsets 4 apart are provably disjoint, everything
    else conservatively aliases.
    """
    count = 0
    out_blocks = []
    for bi, b in enumerate(blocks):
        if b.frozen:
            out_blocks.append(b)
            continue
        facts = ctx.at[bi]
        tok = iter(range(1, 1 << 30))
        reg_val = {r: ("r0", r) for r in GP}
        mem: dict = {}
        load_info: dict = {}
        last_store: dict = {}          # key -> (out index, Memory operand)
        pairs: list[_Pair] = []
        out: list = []

        def opq():
            return ("opq", next(tok))

        def lin_vn(root_vn, delta):
            delta &= MASK32
            if root_vn[0] == "const":
                return ("const", (root_vn[1] + delta) & MASK32)
            if root_vn[0] == "lin":
                root, d = root_vn[1], root_vn[2]
                delta = (d + delta) & MASK32
            elif root_vn[0] == "r0":
                root = root_vn
            else:
                return None
            return root if delta == 0 else ("lin", root, delta)

        def key_of(op: Memory, j):
            env = facts[j]
            rel = op.displacement
            concrete = op.base is not None or op.index is not None
            for reg, scale in ((op.base, 1), (op.index, op.scale)):
                if reg is None:
                    continue
                iv = env.get(reg)
                if iv is not None and not iv.is_bottom and iv.lo == iv.hi:
                    rel += scale * int(iv.lo)
                else:
                    concrete = False
            if concrete:
                return ("abs", rel)
            if op.index is not None or op.base is None:
                return None
            bvn = reg_val[op.base]
            lv = lin_vn(bvn, op.displacement)
            if lv is None or lv[0] == "const":
                return None
            if lv[0] == "r0":
                return (lv, 0)
            return (lv[1], sign32(lv[2]))

        def esp_slot(j, delta):
            """Key of the stack slot at current %esp + delta."""
            env = facts[j]
            iv = env.get("esp")
            if iv is not None and not iv.is_bottom and iv.lo == iv.hi:
                return ("abs", int(iv.lo) + delta)
            lv = lin_vn(reg_val["esp"], delta)
            if lv is None or lv[0] == "const":
                return None
            if lv[0] == "r0":
                return (lv, 0)
            return (lv[1], sign32(lv[2]))

        def note_read(key):
            """A load from ``key`` happened: earlier stores to it are
            live, and a pushed slot it may overlap can't disappear."""
            for k in [k for k in last_store if _keys_alias(k, key)]:
                del last_store[k]
            for p in pairs:
                if _keys_alias(p.slot, key):
                    p.dirty = True

        def note_store(key, vn):
            for k in [k for k in mem if _keys_alias(k, key)]:
                del mem[k]
            if key is not None:
                mem[key] = vn
            for p in pairs:
                if key is None or _keys_alias(p.slot, key):
                    p.dirty = True
            if key is None:
                last_store.clear()

        def in_stack(op: Memory, j) -> bool:
            env = facts[j]
            if op.base is None or op.index is not None:
                return False
            iv = env.get(op.base)
            if iv is None:
                return False
            return iv.shift(op.displacement).contains(
                SAFE_LO, SAFE_HI)

        def vn_of(op, j):
            if isinstance(op, Immediate):
                return ("const", op.value & MASK32)
            if isinstance(op, LabelImmediate) and op.address is not None:
                return ("const", op.address & MASK32)
            if isinstance(op, Register):
                return reg_val[op.name]
            if isinstance(op, Memory):
                key = key_of(op, j)
                note_read(key)
                if key is not None and key in mem:
                    return mem[key]
                t = next(tok)
                deps = tuple(reg_val[r] for r in (op.base, op.index) if r)
                load_info[t] = (op, deps)
                v = ("load", t)
                if key is not None:
                    mem[key] = v
                return v
            return opq()

        def holder_of(vn, exclude=()):
            for r in GP:
                if r not in exclude and reg_val[r] == vn:
                    return r
            return None

        def generic(ins, j):
            """Conservative state update for unmodelled instructions."""
            mem_ops = [o for o in ins.operands if isinstance(o, Memory)]
            if has_mem_read(ins) or has_mem_write(ins):
                keys = [key_of(o, j) for o in mem_ops]
                if has_mem_read(ins):
                    for k in keys or [None]:
                        note_read(k)
                if has_mem_write(ins):
                    for k in keys or [None]:
                        note_store(k, opq())
            for r in regs_written(ins):
                reg_val[r] = opq()

        for j, ins in enumerate(b.instrs):
            m, ops = ins.mnemonic, ins.operands

            if m == "movl" and isinstance(ops[1], Register):
                src, dst = ops
                if isinstance(src, Register) and src.name == dst.name:
                    count += 1            # self-move
                    continue
                can_forward = isinstance(src, (Register, Immediate)) or \
                    (isinstance(src, Memory) and in_stack(src, j))
                sv = vn_of(src, j)
                if reg_val[dst.name] == sv and can_forward \
                        and dst.name != "esp":
                    count += 1            # destination already holds it
                    continue
                if isinstance(src, Memory) and can_forward:
                    if sv[0] == "const":
                        out.append(replace(ins, operands=(
                            Immediate(sv[1]), dst)))
                        reg_val[dst.name] = sv
                        count += 1
                        continue
                    r = holder_of(sv)
                    if r is not None:
                        out.append(replace(ins, operands=(
                            Register(r), dst)))
                        reg_val[dst.name] = sv
                        count += 1
                        continue
                out.append(ins)
                reg_val[dst.name] = sv
                continue

            if m == "movl" and isinstance(ops[1], Memory):
                sv = vn_of(ops[0], j)
                key = key_of(ops[1], j)
                if key is not None and key in last_store \
                        and last_store[key][1] == ops[1]:
                    out[last_store[key][0]] = None   # store-then-overwrite
                    count += 1
                out.append(ins)
                note_store(key, sv)
                if key is not None:
                    last_store[key] = (len(out) - 1, ops[1])
                continue

            if m == "pushl":
                sv = vn_of(ops[0], j)
                slot = esp_slot(j, -4)
                out.append(ins)
                note_store(slot, sv)
                if slot is not None:
                    last_store.pop(slot, None)
                pairs.append(_Pair(len(out) - 1, slot, sv))
                reg_val["esp"] = lin_vn(reg_val["esp"], -4) or opq()
                continue

            if m == "popl" and isinstance(ops[0], Register):
                dst = ops[0].name
                slot = esp_slot(j, 0)
                pair = pairs.pop() if pairs else None
                done = False
                if pair is not None and not pair.dirty \
                        and slot is not None and pair.slot == slot:
                    vn = pair.vn
                    if reg_val[dst] == vn and dst != "esp":
                        out[pair.idx] = None
                        done = True
                    elif vn[0] == "const" and dst != "esp":
                        out[pair.idx] = None
                        out.append(Instruction(
                            "movl", (Immediate(vn[1]), Register(dst)),
                            ins.address, ins.source_line))
                        done = True
                    else:
                        r = holder_of(vn, exclude=("esp",))
                        if r is not None and dst != "esp":
                            out[pair.idx] = None
                            out.append(Instruction(
                                "movl", (Register(r), Register(dst)),
                                ins.address, ins.source_line))
                            done = True
                        elif vn[0] == "load" and dst != "esp":
                            memop, deps = load_info[vn[1]]
                            now = tuple(reg_val[r] for r in
                                        (memop.base, memop.index) if r)
                            lk = key_of(memop, j)
                            if now == deps and lk is not None \
                                    and mem.get(lk) == vn:
                                out[pair.idx] = None
                                out.append(Instruction(
                                    "movl", (memop, Register(dst)),
                                    ins.address, ins.source_line))
                                done = True
                    if done:
                        count += 1
                        reg_val[dst] = vn
                        if dst != "esp":
                            reg_val["esp"] = lin_vn(reg_val["esp"], 4) \
                                or opq()
                        mem.pop(pair.slot, None)
                        continue
                # unmatched or unmaterializable: a plain pop
                vn = mem.get(slot) if slot is not None else None
                if vn is None:
                    vn = opq()
                note_read(slot)
                out.append(ins)
                reg_val[dst] = vn
                if dst != "esp":
                    reg_val["esp"] = lin_vn(reg_val["esp"], 4) or opq()
                continue

            if m == "popl" and isinstance(ops[0], Memory):
                slot = esp_slot(j, 0)
                note_read(slot)
                if pairs:
                    pairs.pop()
                vn = mem.get(slot) if slot is not None else None
                key = key_of(ops[0], j)
                out.append(ins)
                note_store(key, vn if vn is not None else opq())
                reg_val["esp"] = lin_vn(reg_val["esp"], 4) or opq()
                continue

            if m == "leal" and isinstance(ops[0], Memory) \
                    and isinstance(ops[1], Register):
                memop = ops[0]
                vn = None
                if memop.index is None and memop.base is not None:
                    vn = lin_vn(reg_val[memop.base], memop.displacement)
                elif memop.base is None and memop.index is None:
                    vn = ("const", memop.displacement & MASK32)
                out.append(ins)
                reg_val[ops[1].name] = vn or opq()
                continue

            if m in ("addl", "subl") and isinstance(ops[0], Immediate) \
                    and isinstance(ops[1], Register):
                d = ops[0].value if m == "addl" else -ops[0].value
                out.append(ins)
                reg_val[ops[1].name] = lin_vn(reg_val[ops[1].name], d) \
                    or opq()
                continue

            if m in ("incl", "decl") and isinstance(ops[0], Register):
                out.append(ins)
                reg_val[ops[0].name] = lin_vn(
                    reg_val[ops[0].name], 1 if m == "incl" else -1) or opq()
                continue

            out.append(ins)
            generic(ins, j)

        out_blocks.append(b.with_instrs([i for i in out if i is not None]))
    return out_blocks, count


# ---------------------------------------------------------------------------
# pass 3: global liveness + dead code elimination
# ---------------------------------------------------------------------------

def asm_liveness(blocks: list[OptBlock]) -> list[frozenset]:
    """Backward may-liveness of registers *and* individual flags.

    Returns ``live_out`` per block.  Conservative boundaries: a block
    with no static successors (``ret``/``halt``/jump out of the text)
    and every ``call`` leave everything live — the callee, the
    caller's continuation, and the final machine state may observe any
    register or flag.  Both the optimizer's DCE and the translation
    validator use the same analysis, so they can never disagree about
    what "dead" means.

    The sets are bitsets underneath (:func:`live_out_masks`): one bit
    per 32-bit register and per flag (:data:`BIT`), and each block's
    instructions fold into one ``gen``/``kill`` pair before the
    fixpoint runs.  A sub-register operand (``%ax``, ``%al``, ...)
    stands for its parent: reading it reads the parent, and writing it
    reads and writes the parent but never kills it, since the rest of
    the parent survives.
    """
    return [frozenset(name for name, bit in BIT.items() if mask & bit)
            for mask in live_out_masks(blocks, EffectTable())]


def live_out_masks(blocks: list[OptBlock], fx: EffectTable) -> list[int]:
    """:func:`asm_liveness` as one :data:`BIT` mask per block.

    Each block's ``(gen, ~kill)`` pair is stored on the block
    (``OptBlock.gen_kill``), so a block list that shares blocks with an
    earlier one folds only its new blocks."""
    labels = block_index_map(blocks)
    n = len(blocks)
    gens: list[int] = []
    keeps: list[int] = []
    succs: list[list[int] | None] = []
    rows = fx.rows
    for i, b in enumerate(blocks):
        if b.gen_kill is None:
            gen = kill = 0
            for ins in reversed(b.instrs):
                use, k, _ = rows.get(id(ins)) or fx(ins)
                gen = (gen & ~k) | use
                kill |= k
            b.gen_kill = (gen, ~kill)
        gens.append(b.gen_kill[0])
        keeps.append(b.gen_kill[1])
        ss: list[int] | None = block_succs(blocks, i, labels)
        if not ss or (b.instrs and b.instrs[-1].mnemonic in CALLS):
            ss = None                   # everything is live out
        succs.append(ss)
    live_in = [0] * n
    live_out = [0] * n
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            ss = succs[i]
            if ss is None:
                lo = ALL_BITS
            else:
                lo = 0
                for s in ss:
                    lo |= live_in[s]
            li = gens[i] | (lo & keeps[i])
            if lo != live_out[i] or li != live_in[i]:
                live_out[i], live_in[i] = lo, li
                changed = True
    return live_out


#: mnemonics dead-code elimination never deletes
_KEEP = JUMPS | CALLS | {"pushl", "popl", "idivl", "leave", "ret", "halt"}


def eliminate_dead(blocks: list[OptBlock],
                   ctx: OptContext) -> tuple[list[OptBlock], int]:
    """Delete instructions whose every effect is provably unobserved.

    An instruction dies when all registers it writes and all flags it
    may write are dead, it stores nothing, and — if it loads — the
    value-range analysis bounds every loaded address inside the stack
    (so no fault and no watcher-visible access disappears from an
    address we can't account for).
    """
    live_out = ctx.live_out(blocks)
    fx = ctx.fx
    count = 0
    out_blocks = []
    for bi, b in enumerate(blocks):
        if b.frozen:
            out_blocks.append(b)
            continue
        facts = ctx.at[bi]
        live = live_out[bi]
        kept_rev = []
        for j in range(len(b.instrs) - 1, -1, -1):
            ins = b.instrs[j]
            use, kill, may_kill = fx(ins)
            deletable = (
                ins.mnemonic not in _KEEP
                and not (may_kill & live)
                and not has_mem_write(ins))
            if deletable and has_mem_read(ins):
                accs = _access_intervals(ins, facts[j])
                deletable = accs is not None and all(
                    iv.contains(SAFE_LO, SAFE_HI) for iv in accs)
            if deletable:
                count += 1
                continue
            kept_rev.append(ins)
            live = (live & ~kill) | use
        out_blocks.append(b.with_instrs(kept_rev[::-1]))
    return out_blocks, count


# ---------------------------------------------------------------------------
# pass 4: jump threading + unreachable code removal
# ---------------------------------------------------------------------------

def thread_jumps(blocks: list[OptBlock],
                 ctx: OptContext) -> tuple[list[OptBlock], int]:
    """Retarget jumps through trivial blocks; drop jumps to the next
    block; empty blocks no path from the entry reaches.

    A *trivial* block is empty (pure fall-through) or a single
    ``jmp``.  Unreachable blocks keep their labels — the label simply
    comes to rest on whatever instruction follows — so every
    reference stays resolvable.  A frozen block's final jump is left
    as written: the validator cannot execute such a block, so it
    would reject every rewrite of it.
    """
    new_blocks = list(blocks)
    labels = block_index_map(new_blocks)
    n = len(new_blocks)
    count = 0

    def edit(i: int) -> OptBlock:
        """Output block ``i``, copied from the input on its first edit."""
        if new_blocks[i] is blocks[i]:
            new_blocks[i] = blocks[i].copy()
        return new_blocks[i]

    def resolve(i, *, empty_only: bool = False):
        seen = set()
        while i is not None and 0 <= i < n and i not in seen:
            seen.add(i)
            b = new_blocks[i]
            if not b.instrs:
                i = i + 1 if i + 1 < n else None
                continue
            if not empty_only and len(b.instrs) == 1 \
                    and b.instrs[0].mnemonic == "jmp":
                t = labels.get(b.instrs[0].operands[0].name)
                if t is None:
                    break
                i = t
                continue
            break
        return i

    for i in range(n):
        instrs = new_blocks[i].instrs
        if not instrs:
            continue
        last = instrs[-1]
        if new_blocks[i].frozen or last.mnemonic not in JUMPS:
            continue
        t0 = labels.get(last.operands[0].name)
        t = resolve(t0)
        if t is not None and t != t0:
            name = new_blocks[t].labels[0] if new_blocks[t].labels else None
            if name is None:
                name = f".opt{t}"
                while name in labels:
                    name += "x"
                edit(t).labels.append(name)
                labels[name] = t
            edit(i).instrs[-1] = replace(last,
                                         operands=(LabelRef(name, None),))
            count += 1
            t0 = t
        fall = resolve(i + 1, empty_only=True)
        if t0 is not None and resolve(t0, empty_only=True) == fall:
            # target and fall-through meet: the jump is a no-op
            edit(i).instrs.pop()
            count += 1

    reach = reachable_blocks(new_blocks, ctx.entry)
    for i in range(n):
        if i not in reach and new_blocks[i].instrs:
            edit(i).instrs = []
            count += 1
    return new_blocks, count


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

PIPELINE = (fold_constants, local_values, eliminate_dead, thread_jumps)


def _proved_safe(blocks: list[OptBlock], at: list, addresses) -> frozenset:
    """The addresses of the instructions whose every memory access the
    range facts ``at`` prove within ``[esp0 + SAFE_LO, esp0 + SAFE_HI]``.

    ``addresses`` yields one address per instruction of ``blocks``, in
    block order."""
    addresses = iter(addresses)
    safe = set()
    for b, facts in zip(blocks, at):
        # zip draws from b.instrs first, so it stops at the block's end
        # without taking the next block's first address
        for ins, env, addr in zip(b.instrs, facts, addresses):
            accs = _access_intervals(ins, env)
            if accs and all(iv.contains(SAFE_LO, SAFE_HI) for iv in accs):
                safe.add(addr)
    return frozenset(safe)


def stack_safe_addresses(program: Program) -> frozenset:
    """Instruction addresses whose every memory access is proved
    within ``[esp0 + SAFE_LO, esp0 + SAFE_HI]`` of the entry %esp."""
    blocks, bail = extract_blocks(program)
    if bail:
        return frozenset()
    entry = None
    for i, b in enumerate(blocks):
        if b.instrs and b.instrs[0].address == program.entry_address:
            entry = i
    if entry is None:
        return frozenset()
    at, _ = stack_ranges(blocks, entry)
    return _proved_safe(blocks, at,
                        (ins.address for b in blocks for ins in b.instrs))


def _context(blocks: list[OptBlock], entry: int,
             fx: EffectTable) -> OptContext:
    at, entry_env = stack_ranges(blocks, entry)
    return OptContext(at, entry_env, entry, block_index_map(blocks), fx)


def _same_blocks(a: list[OptBlock], b: list[OptBlock]) -> bool:
    """Same labels and instructions, block for block?"""
    return len(a) == len(b) and all(
        x is y or (x.labels == y.labels and x.instrs == y.instrs)
        for x, y in zip(a, b))


def optimize_program(program: Program, *, passes=None,
                     rounds: int = 2) -> OptResult:
    """Run the pass pipeline over ``program``; every rewritten block is
    translation-validated against its original and reverted on any
    doubt.  Returns an :class:`OptResult` whose ``program`` behaves
    identically to the input when executed from its entry point.

    The result's program carries ``stack_safe`` — the range-analysis
    facts the JIT consumes to elide per-access stack guards, read from
    the context of the final block list.  A pass application that
    rewrote nothing is not validated; see the module docstring for the
    facts reused between passes.
    """
    passes = PIPELINE if passes is None else passes
    blocks, bail = extract_blocks(program)
    result = OptResult(program=program, original=program,
                       static_before=len(program.instructions),
                       static_after=len(program.instructions))
    if bail:
        result.bailed = bail
        return result
    entry = None
    for i, b in enumerate(blocks):
        if b.instrs and b.instrs[0].address == program.entry_address:
            entry = i
    if entry is None:
        result.bailed = "entry not at a block boundary"
        return result
    result.blocks = len(blocks)

    from repro.analysis.verify import check_blocks

    fx = EffectTable()
    ctx = None
    for _ in range(max(1, rounds)):
        for passfn in passes:
            if ctx is None:
                ctx = _context(blocks, entry, fx)
            new_blocks, n = passfn(blocks, ctx)
            name = getattr(passfn, "__name__", "pass")
            result.pass_stats[name] = result.pass_stats.get(name, 0) + n
            if len(new_blocks) == len(blocks) \
                    and all(map(is_, new_blocks, blocks)):
                continue                # nothing rewritten
            rejs = check_blocks(blocks, new_blocks, entry, ctx.entry_env,
                                ctx.live_out(blocks), reuse=True)
            for r in rejs:
                r.pass_name = name
            result.rejections.extend(rejs)
            if len(new_blocks) != len(blocks):
                continue                # rejected whole: keep the old list
            bad = {r.block for r in rejs}
            merged = []
            for i in range(len(blocks)):
                if i not in bad:
                    merged.append(new_blocks[i])
                elif new_blocks[i].labels == blocks[i].labels:
                    merged.append(blocks[i])
                else:
                    keep = blocks[i].copy()
                    keep.labels = list(new_blocks[i].labels)
                    merged.append(keep)
            new_blocks = merged
            if not _same_blocks(blocks, new_blocks):
                ctx = None              # the facts described the old list
            blocks = new_blocks

    if ctx is None:
        ctx = _context(blocks, entry, fx)
    optimized = rebuild(blocks, program)
    optimized.stack_safe = _proved_safe(
        blocks, ctx.at, (ins.address for ins in optimized.instructions))
    result.program = optimized
    result.static_after = len(optimized.instructions)
    result.proved_safe = len(optimized.stack_safe)
    return result
