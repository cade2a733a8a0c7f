"""Translation validation for the assembly optimizer.

:func:`validate_blocks` symbolically executes every rewritten block
against its original over the exact ISA semantics of
:mod:`repro.isa.machine` and rejects any block whose effects are not
provably equal.  :func:`repro.analysis.opt.optimize_program` calls it
after every pass and reverts rejected blocks, so a bug in any
optimization pass degrades performance, never correctness.

**Trust model.**  The validator shares two things with the optimizer:
the effect tables and liveness (so "dead" means the same thing on both
sides; inside :func:`~repro.analysis.opt.optimize_program` one
liveness result per block list serves both), and the value-range
analysis bounds (``entry_bounds``).  The bounds are used for *fault
and aliasing* reasoning — proving a dropped access sat inside the
stack red zone, or that two stack slots are disjoint — never for the
values the optimizer computed.  Concrete results and jump decisions
come from :mod:`repro.isa.semantics`, not from the optimizer:
:func:`~repro.isa.semantics.fold` runs the machine's own handler for
the instruction, and :data:`~repro.isa.semantics.TAKEN` is compiled
from the same condition text the machine's handlers are.  Copy
propagation, store forwarding, and control-flow rewrites are
re-derived independently over symbolic values.

Inside one :func:`~repro.analysis.opt.optimize_program` call the
validator reuses work, never verdicts.  A pass hands back the same
block object for every block it left alone, and such a block is
accepted at once (same object, same instructions).  A block's symbolic
execution is stored on the block and reused when the same instruction
objects run at the same index of a list of the same length, with the
same jump target and equal entry bounds: those are all an execution
reads.  So the original side of one pass's check is the rewritten side
of the previous pass's.  Every comparison is still made afresh, and
the public :func:`validate_blocks` reuses nothing.

**Equivalence contract.**  For non-faulting executions entered at the
program entry point, an accepted rewrite preserves: the final value
of every live register and flag at each block boundary, all memory
except scratch strictly below the final ``%esp`` of the block that
wrote it, the set of accessed addresses outside the proved stack
range (so faults and bus/watcher-visible traffic are preserved), the
ordered ``idivl`` fault events, and control flow (targets compared
after resolving through empty/``jmp``-only blocks).  Return addresses
are treated as abstract continuations: programs that do arithmetic on
their numeric values are outside the contract (the assembler-level
bail-outs in :func:`repro.analysis.opt.extract_blocks` reject the
indirect jumps such programs would need to act on them).

Symbolic values are canonical linear forms ``('lin', ((atom, coeff),
...), const)`` over opaque atoms (block-entry registers, loads,
uninterpreted ops), so ``x + 4 - 4`` and ``x`` are structurally
identical; everything else is compared structurally.
"""

from __future__ import annotations

from repro.analysis.dataflow import Interval
from repro.analysis.opt import (
    BIT,
    SAFE_HI,
    SAFE_LO,
    EffectTable,
    OptBlock,
    Rejection,
    block_index_map,
    live_out_masks,
    reachable_blocks,
)
from repro.binary.twos_complement import MASK32, sign32
from repro.isa.instructions import (
    CALLS,
    Immediate,
    LabelImmediate,
    LabelRef,
    Memory,
    Register,
)
from repro.isa.semantics import (
    ADDSUB,
    FLAG_NAMES,
    GP,
    JCC_READS,
    LOGIC,
    SHIFTS,
    TAKEN,
    fold,
)

__all__ = ["validate_blocks", "SymState", "Unsupported"]


class Unsupported(Exception):
    """The symbolic evaluator doesn't model this instruction; the
    rewritten block is accepted only if syntactically unchanged."""


# ---------------------------------------------------------------------------
# canonical linear expressions
# ---------------------------------------------------------------------------

def lconst(c: int):
    return ("lin", (), c & MASK32)


def latom(a):
    return ("lin", ((a, 1),), 0)


# Every form the validator builds is canonical: its terms are sorted by
# ``repr``, one per atom.  The fast paths below return what the merge
# and sort would, without doing it (tests/analysis/test_linear_forms.py
# checks them against the merge and sort).

def _nonzero(terms) -> tuple:
    """The terms whose coefficient is not zero."""
    for t in terms:
        if not t[1]:
            return tuple(t for t in terms if t[1])
    return terms


def ladd(a, b):
    if not b[1]:            # plus a constant: a's terms stay in order
        return ("lin", _nonzero(a[1]), (a[2] + b[2]) & MASK32)
    if not a[1]:            # a constant plus b: b's terms stay in order
        return ("lin", _nonzero(b[1]), (a[2] + b[2]) & MASK32)
    acc: dict = {}
    for atom, k in a[1] + b[1]:
        acc[atom] = (acc.get(atom, 0) + k) & MASK32
    terms = tuple(sorted(((at, k) for at, k in acc.items() if k),
                         key=repr))
    return ("lin", terms, (a[2] + b[2]) & MASK32)


def lmulc(a, c: int):
    c &= MASK32
    if c == 0:
        return lconst(0)
    if c == 1:
        return a
    if len(a[1]) < 2:       # nothing to reorder
        return ("lin", tuple((at, (k * c) & MASK32) for at, k in a[1]),
                (a[2] * c) & MASK32)
    terms = tuple(sorted(((at, (k * c) & MASK32) for at, k in a[1]),
                         key=repr))
    return ("lin", terms, (a[2] * c) & MASK32)


def lneg(a):
    return lmulc(a, MASK32)


def lsub(a, b):
    if not b[1]:            # minus a constant: a's terms stay in order
        return ("lin", _nonzero(a[1]), (a[2] - b[2]) & MASK32)
    if a[1] == b[1]:        # the terms cancel
        return ("lin", (), (a[2] - b[2]) & MASK32)
    return ladd(a, lneg(b))


def as_const(e):
    return e[2] if not e[1] else None


def _zf(v):
    c = as_const(v)
    return ("zf", v) if c is None else ("b", int(c == 0))


def _sf(v):
    c = as_const(v)
    return ("sf", v) if c is None else ("b", int(sign32(c) < 0))


def _known(flags: dict) -> dict:
    """Concrete flag values as symbolic ones."""
    return {f: ("b", int(v)) for f, v in flags.items()}


def _stack_interval(e, bounds) -> Interval | None:
    """Entry-%esp-relative interval of a linear address, or None.

    Provable only when every atom is a block-entry register the range
    analysis bounded and the (signed) coefficients sum to exactly 1 —
    i.e. the expression is one stack pointer plus a bounded offset."""
    total = Interval.const(sign32(e[2]))
    csum = 0
    for atom, k in e[1]:
        if atom[0] != "reg0":
            return None
        iv = bounds.get(atom[1])
        if iv is None or iv.is_bottom:
            return None
        sk = sign32(k)
        csum += sk
        total = total.add(iv.mul_const(sk))
    if csum != 1:
        return None
    return total


# ---------------------------------------------------------------------------
# symbolic machine state
# ---------------------------------------------------------------------------

#: register and flag values at block entry (forms are immutable, so
#: every state starts from copies of these two dicts)
_ENTRY_REGS = {r: latom(("reg0", r)) for r in GP}
_ENTRY_FLAGS = {f: ("flag0", f) for f in FLAG_NAMES}


class SymState:
    """Registers, flags, and an ordered memory-write log, all symbolic."""

    def __init__(self, bounds):
        self.regs = dict(_ENTRY_REGS)
        self.flags = dict(_ENTRY_FLAGS)
        self.writes: list = []       # ordered (addr, size, val)
        self.reads: list = []        # every loaded address (fault surface)
        self.events: list = []       # ordered fault-risky ops (idivl)
        self.bounds = bounds
        self._intervals: dict = {}   # address -> _stack_interval

    def _disjoint(self, a, b) -> bool:
        """Are two 4-byte accesses provably non-overlapping?"""
        if a[1] == b[1] or _nonzero(a[1]) == _nonzero(b[1]):
            # lsub(a, b) would be this constant
            return 4 <= (a[2] - b[2]) & MASK32 <= MASK32 + 1 - 4
        ivs = self._intervals
        ia = ivs[a] if a in ivs else \
            ivs.setdefault(a, _stack_interval(a, self.bounds))
        ib = ivs[b] if b in ivs else \
            ivs.setdefault(b, _stack_interval(b, self.bounds))
        return (ia is not None and ib is not None
                and (ia.lo >= ib.hi + 4 or ib.lo >= ia.hi + 4))

    def load(self, addr):
        self.reads.append(addr)
        ctx: list = []
        for wa, ws, wv in reversed(self.writes):
            if wa == addr and ws == 4:
                if not ctx:
                    return wv            # exact forward
                ctx.append((wa, ws, wv))
                break                    # older writes are occluded
            if not self._disjoint(wa, addr):
                ctx.append((wa, ws, wv))
        return latom(("mem", addr, 4, tuple(ctx)))

    def store(self, addr, val):
        self.writes.append((addr, 4, val))


# ---------------------------------------------------------------------------
# one block, symbolically
# ---------------------------------------------------------------------------

def _exec_block(instrs, labels, index: int, nblocks: int, bounds):
    """Execute a block; returns ``(SymState, outcome)``.

    Outcomes: ``('fall',)``, ``('goto', i)``, ``('branch', cond, i)``,
    ``('call', i, fall)``, ``('ret', expr)``, ``('halt',)``."""
    st = SymState(bounds)
    R = st.regs
    fall = index + 1 if index + 1 < nblocks else None

    def reg(name: str):
        if name not in R:
            raise Unsupported(f"sub-register %{name}")
        return R[name]

    def ea(op: Memory):
        e = lconst(op.displacement)
        if op.base:
            e = ladd(e, reg(op.base))
        if op.index:
            e = ladd(e, lmulc(reg(op.index), op.scale))
        return e

    def read(op):
        if isinstance(op, Immediate):
            return lconst(op.value)
        if isinstance(op, (LabelRef, LabelImmediate)):
            if op.address is None:
                raise Unsupported(f"unresolved label {op.name!r}")
            return lconst(op.address)
        if isinstance(op, Register):
            return reg(op.name)
        if isinstance(op, Memory):
            return st.load(ea(op))
        raise Unsupported(f"operand {op!r}")

    def write(op, v):
        if isinstance(op, Register):
            reg(op.name)                # only 32-bit registers are modelled
            R[op.name] = v
        elif isinstance(op, Memory):
            st.store(ea(op), v)
        else:
            raise Unsupported(f"destination {op!r}")

    def target(op) -> int:
        if not isinstance(op, LabelRef) or op.name not in labels:
            raise Unsupported(f"unresolvable target {op!r}")
        return labels[op.name]

    outcome = None
    for ins in instrs:
        if outcome is not None:
            raise Unsupported("instruction after terminator")
        m, ops = ins.mnemonic, ins.operands

        if m == "movl":
            write(ops[1], read(ops[0]))
        elif m == "leal":
            if not isinstance(ops[0], Memory):
                raise Unsupported("leal from non-memory")
            write(ops[1], ea(ops[0]))
        elif m in ADDSUB:
            s, d = read(ops[0]), read(ops[1])
            v = ladd(d, s) if m == "addl" else lsub(d, s)
            dc, sc = as_const(d), as_const(s)
            if dc is not None and sc is not None:
                st.flags = _known(fold(m, dc, sc)[1])
            elif m == "addl":
                x, y = sorted((d, s), key=repr)
                st.flags = {"zf": _zf(v), "sf": _sf(v),
                            "cf": ("cf+", x, y), "of": ("of+", x, y)}
            else:
                st.flags = {"zf": _zf(v), "sf": _sf(v),
                            "cf": ("cf-", d, s), "of": ("of-", d, s)}
            if m != "cmpl":
                write(ops[1], v)
        elif m == "imull":
            s, d = read(ops[0]), read(ops[1])
            dc, sc = as_const(d), as_const(s)
            if dc is not None and sc is not None:
                value, flags = fold(m, dc, sc)
                v, st.flags = lconst(value), _known(flags)
            else:
                x, y = sorted((d, s), key=repr)
                v = latom(("imul", x, y))
                o = ("ofmul", x, y)
                st.flags = {"zf": _zf(v), "sf": _sf(v), "cf": o, "of": o}
            write(ops[1], v)
        elif m in LOGIC:
            s, d = read(ops[0]), read(ops[1])
            dc, sc = as_const(d), as_const(s)
            if dc is not None and sc is not None:
                value, flags = fold(m, dc, sc)
                v, st.flags = lconst(value), _known(flags)
            else:
                if d == s:
                    v = lconst(0) if m == "xorl" else d
                else:
                    x, y = sorted((d, s), key=repr)
                    v = latom(("bit", "andl" if m == "testl" else m, x, y))
                st.flags = {"zf": _zf(v), "sf": _sf(v),
                            "cf": ("b", 0), "of": ("b", 0)}
            if m != "testl":
                write(ops[1], v)
        elif m in SHIFTS:
            if not isinstance(ops[0], Immediate):
                raise Unsupported("shift by register")
            count = ops[0].value & 0x1F
            if count:
                raw = read(ops[1])
                rc = as_const(raw)
                if rc is not None:
                    value, flags = fold(m, rc, count)
                    v, st.flags = lconst(value), _known(flags)
                else:
                    if m in ("sall", "shll"):
                        v = lmulc(raw, 1 << count)
                    else:
                        v = latom(("shift", m, raw, count))
                    st.flags = {"zf": _zf(v), "sf": _sf(v),
                                "cf": ("shcf", m, raw, count),
                                "of": ("b", 0)}
                write(ops[1], v)
        elif m == "notl":
            write(ops[0], lsub(lconst(MASK32), read(ops[0])))
        elif m == "negl":
            raw = read(ops[0])
            v = lneg(raw)
            rc = as_const(raw)
            if rc is not None:
                st.flags = _known(fold(m, rc)[1])
            else:
                st.flags = {"zf": _zf(v), "sf": _sf(v),
                            "cf": ("nz", raw),
                            "of": ("of-", lconst(0), raw)}
            write(ops[0], v)
        elif m in ("incl", "decl"):
            x = read(ops[0])
            one = lconst(1)
            v = ladd(x, one) if m == "incl" else lsub(x, one)
            xc = as_const(x)
            if xc is not None:
                st.flags.update(_known(fold(m, xc)[1]))
            else:
                st.flags["zf"] = _zf(v)
                st.flags["sf"] = _sf(v)
                if m == "incl":
                    a, b = sorted((x, one), key=repr)
                    st.flags["of"] = ("of+", a, b)
                else:
                    st.flags["of"] = ("of-", x, one)
            write(ops[0], v)                 # cf preserved on x86
        elif m == "idivl":
            src = read(ops[0])
            edx0, eax0 = R["edx"], R["eax"]
            st.events.append(("idiv", src, edx0, eax0))
            R["eax"] = latom(("quot", src, edx0, eax0))
            R["edx"] = latom(("rem", src, edx0, eax0))
        elif m == "cltd":
            ec = as_const(R["eax"])
            if ec is not None:
                R["edx"] = lconst(fold(m, ec)[0])
            else:
                R["edx"] = latom(("cltd", R["eax"]))
        elif m == "pushl":
            v = read(ops[0])
            R["esp"] = lsub(R["esp"], lconst(4))
            st.store(R["esp"], v)
        elif m == "popl":
            v = st.load(R["esp"])
            R["esp"] = ladd(R["esp"], lconst(4))
            write(ops[0], v)
        elif m == "jmp":
            outcome = ("goto", target(ops[0]))
        elif m in JCC_READS:
            rel = {f: st.flags[f] for f in JCC_READS[m]}
            t = target(ops[0])
            if all(v[0] == "b" for v in rel.values()):
                taken = TAKEN[m]({f: bool(v[1]) for f, v in rel.items()})
                outcome = ("goto", t) if taken else ("fall",)
            else:
                cond = ("cond", m,
                        tuple(st.flags[f] for f in JCC_READS[m]))
                outcome = ("branch", cond, t)
        elif m in CALLS:
            t = target(ops[0])
            R["esp"] = lsub(R["esp"], lconst(4))
            st.store(R["esp"], latom(("ret_to", fall)))
            outcome = ("call", t, fall)
        elif m == "ret":
            v = st.load(R["esp"])
            R["esp"] = ladd(R["esp"], lconst(4))
            outcome = ("ret", v)
        elif m == "leave":
            R["esp"] = R["ebp"]
            v = st.load(R["esp"])
            R["esp"] = ladd(R["esp"], lconst(4))
            R["ebp"] = v
        elif m == "nop":
            pass
        elif m == "halt":
            outcome = ("halt",)
        else:
            raise Unsupported(f"mnemonic {m!r}")
    return st, outcome if outcome is not None else ("fall",)


# ---------------------------------------------------------------------------
# outcome normalization
# ---------------------------------------------------------------------------

def _resolve(idx, blocks, labels):
    """Follow empty and single-``jmp`` blocks to the real destination."""
    seen: set = set()
    while idx is not None and 0 <= idx < len(blocks) and idx not in seen:
        seen.add(idx)
        b = blocks[idx]
        if not b.instrs:
            idx = idx + 1 if idx + 1 < len(blocks) else None
            continue
        first = b.instrs[0]
        if len(b.instrs) == 1 and first.mnemonic == "jmp" \
                and isinstance(first.operands[0], LabelRef) \
                and first.operands[0].name in labels:
            idx = labels[first.operands[0].name]
            continue
        break
    return idx


def _normalize(outcome, index, blocks, labels):
    kind = outcome[0]
    if kind == "fall":
        nxt = index + 1 if index + 1 < len(blocks) else None
        return ("goto", _resolve(nxt, blocks, labels))
    if kind == "goto":
        return ("goto", _resolve(outcome[1], blocks, labels))
    if kind == "branch":
        _, cond, t = outcome
        nxt = index + 1 if index + 1 < len(blocks) else None
        rt = _resolve(t, blocks, labels)
        rf = _resolve(nxt, blocks, labels)
        if rt == rf:
            return ("goto", rt)
        return ("branch", cond, rt, rf)
    if kind == "call":
        _, t, fall = outcome
        return ("call", _resolve(t, blocks, labels), fall)
    return outcome                      # ('ret', expr) / ('halt',)


# ---------------------------------------------------------------------------
# per-block equivalence
# ---------------------------------------------------------------------------

_TRANSFERS = frozenset(JCC_READS) | CALLS | {"jmp"}


def _run(b: OptBlock, labels, index: int, nblocks: int, bounds,
         reuse: bool):
    """:func:`_exec_block` of block ``b``, or the :class:`Unsupported`
    it raised.

    With ``reuse`` the run is stored in ``b.sym``, and a stored run is
    returned when it was made at this index of a list this long, with
    the same jump target and equal bounds.  Those are all an execution
    reads besides the instructions: the block's first transfer is the
    only instruction that looks a label up (anything after it is an
    error), and the bounds only decide which stack accesses are
    disjoint."""
    if reuse:
        name = None
        for ins in b.instrs:
            if ins.mnemonic in _TRANSFERS:
                op = ins.operands[0]
                name = op.name if isinstance(op, LabelRef) else None
                break
        key = (index, nblocks, labels.get(name))
        if b.sym is not None and b.sym[0] == key and b.sym[1] == bounds:
            return b.sym[2]
    try:
        run = _exec_block(b.instrs, labels, index, nblocks, bounds)
    except Unsupported as exc:
        run = exc
    if reuse:
        b.sym = (key, bounds, run)
    return run


def _check_block(i, ob, nb, orig, opt, olab, nlab, live, bounds,
                 unreachable, reuse) -> str | None:
    """None if the rewrite of block ``i`` is proved equivalent, else
    the reason it is not.  ``reuse`` is passed on to :func:`_run`."""
    if ob is nb:
        return None
    if not set(ob.labels) <= set(nb.labels):
        return "block lost labels"
    if ob.instrs == nb.instrs:
        return None
    if not nb.instrs and i in unreachable:
        return None                     # dropping unreachable code
    old = _run(ob, olab, i, len(orig), bounds, reuse)
    if isinstance(old, Unsupported):
        return f"not symbolically checkable ({old}) and changed"
    new = _run(nb, nlab, i, len(opt), bounds, reuse)
    if isinstance(new, Unsupported):
        return f"not symbolically checkable ({new}) and changed"
    (so, oo), (sn, on) = old, new

    oo = _normalize(oo, i, orig, olab)
    on = _normalize(on, i, opt, nlab)
    if oo != on:
        return f"control flow differs: {oo[0]} vs {on[0]}"
    if so.events != sn.events:
        return "fault-raising operations differ"
    for r in GP:
        if live & BIT[r] and so.regs[r] != sn.regs[r]:
            return f"live register %{r} differs"
    for f in FLAG_NAMES:
        if live & BIT[f] and so.flags[f] != sn.flags[f]:
            return f"live flag {f} differs"

    # memory: opt writes must be an ordered subsequence of orig writes
    k = 0
    dropped = []
    for p, w in enumerate(so.writes):
        if k < len(sn.writes) and sn.writes[k] == w:
            k += 1
        else:
            dropped.append((p, w))
    if k != len(sn.writes):
        return "extra or reordered memory writes"
    fesp = _stack_interval(so.regs["esp"], bounds)
    for p, (wa, ws, _wv) in dropped:
        if any(q[0] == wa and q[1] == ws
               for q in so.writes[p + 1:]):
            continue                    # overwritten later in the block
        iv = _stack_interval(wa, bounds)
        if iv is not None and fesp is not None \
                and iv.contains(SAFE_LO, SAFE_HI) \
                and iv.hi + 4 <= fesp.lo:
            continue                    # scratch below the final %esp
        return "dropped a memory write that may be observed"

    # fault surface: accesses may only disappear (or appear, for
    # rematerialized loads) at addresses proved inside the stack or
    # still accessed on the other side
    ncov = {w[0] for w in sn.writes} | set(sn.reads)
    for a in so.reads:
        if a in ncov:
            continue
        iv = _stack_interval(a, bounds)
        if iv is None or not iv.contains(SAFE_LO, SAFE_HI):
            return "dropped a load at an unproven address"
    ocov = {w[0] for w in so.writes} | set(so.reads)
    for a in sn.reads:
        if a in ocov:
            continue
        iv = _stack_interval(a, bounds)
        if iv is None or not iv.contains(SAFE_LO, SAFE_HI):
            return "introduced a load at an unproven address"
    return None


def validate_blocks(orig: list[OptBlock], opt: list[OptBlock], *,
                    entry_index: int,
                    entry_bounds: dict | None = None) -> list[Rejection]:
    """Translation-validate ``opt`` against ``orig`` block by block.

    Returns the (possibly empty) list of
    :class:`~repro.analysis.opt.Rejection` — blocks whose rewrite
    could not be proved equivalent and must be reverted.
    ``entry_bounds`` maps block index to the value-range analysis
    environment at block entry (register -> esp-relative
    :class:`~repro.analysis.dataflow.Interval`); see the module
    docstring for exactly how far those facts are trusted.
    """
    bounds = entry_bounds or {}
    return check_blocks(orig, opt, entry_index,
                        [bounds.get(i, {}) for i in range(len(orig))],
                        live_out_masks(orig, EffectTable()))


def check_blocks(orig: list[OptBlock], opt: list[OptBlock],
                 entry_index: int, entry_bounds: list,
                 live: list[int], *, reuse: bool = False) -> list[Rejection]:
    """:func:`validate_blocks` with the liveness of ``orig`` given, as
    :func:`~repro.analysis.opt.live_out_masks` computes it, and the
    entry bounds as a list by block index.

    With ``reuse`` (as :func:`~repro.analysis.opt.optimize_program`
    calls it), a block's symbolic execution is stored on the block and
    reused by a later check (see :func:`_run`); the verdicts are the
    same either way."""
    if len(orig) != len(opt):
        return [Rejection(-1, "", "block count changed")]
    olab = block_index_map(orig)
    nlab = block_index_map(opt)
    unreachable = set(range(len(orig))) \
        - reachable_blocks(orig, entry_index)
    out = []
    for i, (ob, nb) in enumerate(zip(orig, opt)):
        reason = _check_block(i, ob, nb, orig, opt, olab, nlab,
                              live[i], entry_bounds[i], unreachable,
                              reuse)
        if reason is not None:
            out.append(Rejection(i, "", reason))
    return out
