"""A generic iterative dataflow engine over the C-subset CFG.

:func:`solve` runs any :class:`DataflowProblem` — forward or backward —
to a fixpoint with a worklist, exactly the textbook formulation the
compilers week of a systems course sketches.  Three instances power the
checkers in :mod:`repro.analysis.checks`:

* :class:`ReachingDefinitions` — which definition sites (including the
  synthetic *uninitialized* site of a bare ``int x;``) can reach a use;
* :class:`Liveness` — backward may-liveness, for dead-store detection;
* :class:`ConstantPropagation` — per-variable constant lattice
  (TOP / constant / NAC), for constant out-of-bounds indices and
  constant division by zero.

Facts are immutable values compared with ``==``; block transfer is the
fold of per-statement transfer, so checkers can replay a block from its
in-fact and inspect the fact at every statement.
"""

from __future__ import annotations

from repro.analysis.cfg import CFG, stmt_defs, stmt_uses
from repro.isa.ccompiler import (
    Assign,
    AssignDeref,
    Binary,
    Call,
    Declare,
    Num,
    Unary,
    Var,
)


class DataflowProblem:
    """Interface the engine drives.  Subclass and fill in the pieces."""

    direction = "forward"            # 'forward' | 'backward'

    def boundary(self):
        """Fact at the entry (forward) or exit (backward) block."""
        raise NotImplementedError

    def init(self):
        """Optimistic initial fact for every other block."""
        raise NotImplementedError

    def meet(self, facts: list):
        """Combine facts flowing into a block (may = union, ...)."""
        raise NotImplementedError

    def transfer_stmt(self, stmt, site, fact):
        """Fact after (forward) / before (backward) one statement.
        ``site`` is the (block id, index) pair naming the statement."""
        raise NotImplementedError


def _block_transfer(problem: DataflowProblem, block, fact):
    stmts = list(enumerate(block.stmts))
    if problem.direction == "backward":
        stmts = list(reversed(stmts))
    for i, s in stmts:
        fact = problem.transfer_stmt(s, (block.bid, i), fact)
    return fact


def solve(cfg: CFG, problem: DataflowProblem) -> tuple[dict, dict]:
    """Iterate to fixpoint; returns (in_facts, out_facts) by block id.

    For backward problems the naming is flow-relative: ``in_facts`` is
    the fact *entering* the block in flow order (i.e. at the block's
    end in source order).
    """
    forward = problem.direction == "forward"
    start = cfg.entry if forward else cfg.exit

    def flow_preds(b):
        return b.preds if forward else b.succs

    def flow_succs(b):
        return b.succs if forward else b.preds

    in_facts = {b.bid: problem.init() for b in cfg.blocks}
    in_facts[start] = problem.boundary()
    out_facts = {b.bid: problem.init() for b in cfg.blocks}

    work = [b.bid for b in cfg.blocks]
    while work:
        bid = work.pop(0)
        block = cfg.blocks[bid]
        preds = flow_preds(block)
        if preds:
            merged = problem.meet([out_facts[p] for p in preds])
            if bid == start:
                merged = problem.meet([merged, problem.boundary()])
            in_facts[bid] = merged
        new_out = _block_transfer(problem, block, in_facts[bid])
        if new_out != out_facts[bid]:
            out_facts[bid] = new_out
            for s in flow_succs(block):
                if s not in work:
                    work.append(s)
    return in_facts, out_facts


def stmt_facts(problem: DataflowProblem, block, in_fact) -> list:
    """Replay a block: the fact *before* each statement in flow order.

    Returns ``[(stmt, site, fact_before)]``; for backward problems
    'before' means in flow order (after the statement in source order).
    """
    stmts = list(enumerate(block.stmts))
    if problem.direction == "backward":
        stmts = list(reversed(stmts))
    out = []
    fact = in_fact
    for i, s in stmts:
        out.append((s, (block.bid, i), fact))
        fact = problem.transfer_stmt(s, (block.bid, i), fact)
    return out


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------

UNINIT = "<uninit>"
PARAM = "<param>"


class ReachingDefinitions(DataflowProblem):
    """Fact: frozenset of (var, def-site); def-site is a (block, index)
    statement site, ``PARAM`` for parameters, or ``UNINIT`` for the
    synthetic definition of a declared-but-uninitialized local."""

    direction = "forward"

    def __init__(self, params: list[str]) -> None:
        self.params = params

    def boundary(self):
        return frozenset((p, PARAM) for p in self.params)

    def init(self):
        return frozenset()

    def meet(self, facts):
        merged: set = set()
        for f in facts:
            merged |= f
        return frozenset(merged)

    def transfer_stmt(self, stmt, site, fact):
        if isinstance(stmt, Declare) and stmt.init is None:
            fact = frozenset(d for d in fact if d[0] != stmt.name)
            return fact | {(stmt.name, UNINIT)}
        defs = stmt_defs(stmt)
        if not defs:
            return fact
        fact = frozenset(d for d in fact if d[0] not in defs)
        return fact | {(v, site) for v in defs}


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------

class Liveness(DataflowProblem):
    """Backward may-liveness over variable names."""

    direction = "backward"

    def boundary(self):
        return frozenset()

    def init(self):
        return frozenset()

    def meet(self, facts):
        merged: set = set()
        for f in facts:
            merged |= f
        return frozenset(merged)

    def transfer_stmt(self, stmt, site, fact):
        return frozenset((fact - stmt_defs(stmt)) | stmt_uses(stmt))


# ---------------------------------------------------------------------------
# Constant propagation
# ---------------------------------------------------------------------------

#: lattice bottom: the variable is known non-constant
NAC = "<NAC>"


def eval_const(expr, env: dict) -> int | None:
    """Evaluate ``expr`` under ``env`` (var -> int | NAC); None if not
    a compile-time constant (including division by a constant zero)."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        v = env.get(expr.name)
        return v if isinstance(v, int) else None
    if isinstance(expr, Unary):
        v = eval_const(expr.operand, env)
        if v is None:
            return None
        return -v if expr.op == "-" else int(not v)
    if isinstance(expr, Binary):
        lv = eval_const(expr.left, env)
        rv = eval_const(expr.right, env)
        if expr.op == "&&":
            if lv == 0 or rv == 0:
                return 0
            if lv is not None and rv is not None:
                return 1
            return None
        if expr.op == "||":
            if lv not in (None, 0) or rv not in (None, 0):
                return 1
            if lv == 0 and rv == 0:
                return 0
            return None
        if lv is None or rv is None:
            return None
        if expr.op in ("/", "%"):
            if rv == 0:
                return None
            # C semantics: truncation toward zero
            q = abs(lv) // abs(rv) * (1 if (lv < 0) == (rv < 0) else -1)
            return q if expr.op == "/" else lv - q * rv
        ops = {"+": lambda: lv + rv, "-": lambda: lv - rv,
               "*": lambda: lv * rv,
               "==": lambda: int(lv == rv), "!=": lambda: int(lv != rv),
               "<": lambda: int(lv < rv), ">": lambda: int(lv > rv),
               "<=": lambda: int(lv <= rv), ">=": lambda: int(lv >= rv)}
        if expr.op in ops:
            return ops[expr.op]()
    return None


class ConstantPropagation(DataflowProblem):
    """Fact: tuple of sorted (var, value|NAC) items — absent vars are
    TOP (no information yet).  ``address_taken`` names go NAC on any
    write through a pointer."""

    direction = "forward"

    def __init__(self, params: list[str],
                 address_taken: frozenset[str] = frozenset()) -> None:
        self.params = params
        self.address_taken = address_taken

    def boundary(self):
        return tuple(sorted((p, NAC) for p in self.params))

    def init(self):
        return ()

    def meet(self, facts):
        merged: dict = {}
        for f in facts:
            for var, val in f:
                if var not in merged:
                    merged[var] = val
                elif merged[var] != val:
                    merged[var] = NAC
        return tuple(sorted(merged.items()))

    def transfer_stmt(self, stmt, site, fact):
        env = dict(fact)
        if isinstance(stmt, Declare):
            if stmt.init is None:
                env.pop(stmt.name, None)       # uninitialized: TOP
            else:
                v = eval_const(stmt.init, env)
                env[stmt.name] = v if v is not None else NAC
        elif isinstance(stmt, Assign):
            v = eval_const(stmt.value, env)
            env[stmt.name] = v if v is not None else NAC
        elif isinstance(stmt, AssignDeref):
            for name in self.address_taken:
                if name in env:
                    env[name] = NAC
        # a call may write any address-taken local through a saved pointer
        if any(isinstance(e, Call)
               for s in _exprs_of(stmt) for e in _nodes(s)):
            for name in self.address_taken:
                if name in env:
                    env[name] = NAC
        return tuple(sorted(env.items()))


def _exprs_of(stmt):
    from repro.analysis.cfg import stmt_exprs
    return stmt_exprs(stmt)


def _nodes(expr):
    from repro.analysis.cfg import expr_nodes
    return expr_nodes(expr)


# ---------------------------------------------------------------------------
# Value-range lattice
# ---------------------------------------------------------------------------

#: unbounded endpoints of the interval lattice
NEG_INF = float("-inf")
POS_INF = float("inf")


class Interval:
    """A closed integer interval ``[lo, hi]`` — the value-range lattice.

    Endpoints are ints or ±inf; ``TOP`` is the full line, ``BOTTOM``
    (lo > hi) is the empty interval.  Arithmetic is exact interval
    arithmetic on the endpoints (mul only by a constant — that is all
    the asm range analysis needs), ``join`` is the convex hull, and
    ``widen`` jumps unstable endpoints straight to ±inf so loops
    converge in one extra pass.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo=NEG_INF, hi=POS_INF) -> None:
        self.lo = lo
        self.hi = hi

    @classmethod
    def const(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def top(cls) -> "Interval":
        return cls(NEG_INF, POS_INF)

    @classmethod
    def bottom(cls) -> "Interval":
        return cls(1, 0)

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == NEG_INF and self.hi == POS_INF

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        if self.is_bottom and other.is_bottom:
            return True
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        if self.is_bottom:
            return hash(("interval", "bottom"))
        return hash(("interval", self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_bottom:
            return "Interval(⊥)"
        return f"Interval({self.lo}, {self.hi})"

    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def shift(self, k: int) -> "Interval":
        """``self.add(Interval.const(k))`` without building the constant."""
        if self.lo > self.hi:
            return Interval.bottom()
        return Interval(self.lo + k, self.hi + k)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def mul_const(self, k: int) -> "Interval":
        if self.is_bottom:
            return Interval.bottom()
        a, b = self.lo * k, self.hi * k
        return Interval(min(a, b), max(a, b))

    def join(self, other: "Interval") -> "Interval":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, newer: "Interval") -> "Interval":
        """Widening: endpoints that moved since ``self`` go to ±inf."""
        if self.is_bottom:
            return newer
        if newer.is_bottom:
            return self
        lo = self.lo if newer.lo >= self.lo else NEG_INF
        hi = self.hi if newer.hi <= self.hi else POS_INF
        return Interval(lo, hi)

    def contains(self, lo: int, hi: int) -> bool:
        """True when the whole interval lies within ``[lo, hi]``."""
        return not self.is_bottom and self.lo >= lo and self.hi <= hi
