"""The event recorder every simulator shares.

The course's evaluation hinges on students *seeing where time goes* —
gantt timelines of thread interleavings, cache hit/miss accounting,
context-switch overhead (§II theme 2, §IV). :class:`TraceRecorder` is
the shared substrate: a bounded ring buffer of span / instant / counter
events with logical-clock timestamps that every simulator appends to,
and that :mod:`repro.obs.chrome` / :mod:`repro.obs.report` render.

Storage is a numpy structured array, not a list of Python objects: each
event is one row of preallocated columns (phase, interned name id,
interned track id, interned category id, ts, dur, one numeric arg), and
labels live once in an id↔string table. Emitting an event writes a few
machine words; :class:`TraceEvent` objects are materialized only when
:meth:`TraceRecorder.events` is read. Hot loops skip even the per-event
call through two fast paths:

* **series handles** (:meth:`~TraceRecorder.span_series` /
  :meth:`~TraceRecorder.instant_series` /
  :meth:`~TraceRecorder.counter_series`) — the name/track/category are
  interned once and the per-event emit is a slot write or ring store;
* **bulk appends** (:meth:`~TraceRecorder.complete_run` /
  :meth:`~TraceRecorder.complete_batch` /
  :meth:`~TraceRecorder.instant_run`) — the ISA interpreter and the
  superblock JIT accumulate pending events in plain lists and land
  whole chunks with numpy slice assignments.

Per-category **policies** bound what always-on tracing costs:

* ``"all"`` — record every event (the default for uncategorised and
  timeline-shaped categories: ``isa``, ``threads``, ``heap``, ``mp``);
* ``N`` (an int) — keep 1 in every ``N`` X/i/C events of the category,
  counting the rest exactly in :attr:`~TraceRecorder.sampled_out`;
* ``"counters"`` — store nothing per event: instants fold to counts,
  spans to count + total duration, counter samples to their latest
  values, each materialized as a single event on read. This is the
  default for the high-rate counter categories ``ossim``, ``cache``
  and ``vm``.

Every X/i/C event passes one policy gate, whichever route it takes:
the scalar emitters (``instant`` / ``complete`` / ``counter``) go
through ``_emit``, the bulk appends through ``_emit_bulk``, and series
handles pick their class from the policy once, when they are made.
Sampling has one owner (``_sample``, a per-category sequence shared by
all three routes) and so does folding (``_fold``, called by the scalar
gate, the batch gate and the counters-policy series handle).
:meth:`~TraceRecorder.events` lists folded events in the order their
slots were made: when a series handle is made, or at the first event
of an identity that comes by the scalar or bulk route. A bulk append
makes its names' slots in first-occurrence order, as one scalar emit
per event would, not in name-id order.
``B``/``E`` span events bypass policies so begin/end nesting always
validates in the Chrome export.

Design rules, enforced by the oracle tests:

* recording **never** changes simulator behaviour — stats and final
  state are bit-identical with tracing on, off, or nulled;
* the disabled path is cheap: every hook guards on ``rec.enabled``
  before building event arguments, :data:`NULL_RECORDER` answers
  ``enabled = False`` to every caller (bench E15 bounds the residual
  of the *enabled* path at < 1.2× per hot loop);
* the buffer is bounded — a million-step run keeps the newest
  ``capacity`` events and counts the rest in
  :attr:`~TraceRecorder.dropped`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.errors import ObsError

#: event phases, mirroring the Chrome trace-event vocabulary
PH_BEGIN = "B"
PH_END = "E"
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_COUNTER = "C"

#: per-category policy names (ints mean "keep 1 in N")
POLICY_ALL = "all"
POLICY_COUNTERS = "counters"

#: categories whose per-event stream is counters-shaped fold by default
DEFAULT_POLICIES: dict[str, Any] = {
    "ossim": POLICY_COUNTERS,
    "cache": POLICY_COUNTERS,
    "vm": POLICY_COUNTERS,
}

_CODE = {PH_BEGIN: 0, PH_END: 1, PH_COMPLETE: 2, PH_INSTANT: 3,
         PH_COUNTER: 4}
_CHAR = "BEXiC"

# the ``akey`` column: an interned arg-key id (>= 0) pairs with the
# int64 ``aval`` column; the sentinels say "no args" / "args dict in
# the parallel object slot"
_ARGS_NONE = -1
_ARGS_OBJ = -2

#: one ring-buffer row — the whole storage story of the recorder
TRACE_DTYPE = np.dtype([
    ("ph", np.uint8),       # _CODE phase
    ("name", np.int32),     # interned event name
    ("track", np.int32),    # interned (pid, tid) pair
    ("cat", np.int32),      # interned category, -1 for None
    ("ts", np.float64),
    ("dur", np.float64),    # X events only
    ("akey", np.int32),     # interned arg key / _ARGS_NONE / _ARGS_OBJ
    ("aval", np.int64),     # numeric arg value for akey >= 0
])

# aggregate slot layout for the "counters" policy:
# [first_ts, last_ts, count, total_dur, values, counter_keys]
_A_FIRST, _A_LAST, _A_COUNT, _A_DUR, _A_VALUES, _A_KEYS = range(6)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event (phase vocabulary follows Chrome's).

    ``ts`` (and ``dur`` for complete events) are in whatever clock the
    emitting simulator runs on — simulated cycles, scheduler time units,
    or the recorder's own logical clock. Tracks are named by
    ``(pid, tid)`` pairs; the Chrome exporter maps each distinct name to
    a numbered track with a metadata label.
    """
    ph: str                      # B | E | X | i | C
    name: str
    ts: float
    pid: str = "repro"
    tid: str = "main"
    dur: float | None = None     # X events only
    cat: str | None = None
    args: dict[str, Any] | None = None


class _NullSeries:
    """The do-nothing series handle :class:`NullRecorder` hands out."""

    __slots__ = ()
    #: False → per-emit ``args`` would be discarded; hot paths may skip
    #: building the dict at all (folded and null series never store it)
    wants_args = False

    def add(self, ts, dur=1.0, args=None) -> None:
        pass

    def hit(self, ts, args=None) -> None:
        pass

    def sample(self, ts, values) -> None:
        pass


NULL_SERIES = _NullSeries()


class NullRecorder:
    """The zero-overhead recorder used when tracing is off.

    Every emitting method is a no-op and :attr:`enabled` is False, so
    instrumentation guarded by ``if rec.enabled:`` skips even building
    the event's arguments. Simulators accept ``recorder=None`` too;
    :func:`coalesce` normalises either spelling to this singleton.
    """

    enabled = False
    dropped = 0

    def now(self) -> int:
        return 0

    def instant(self, name, **kwargs) -> None:
        pass

    def begin(self, name, **kwargs) -> None:
        pass

    def end(self, name, **kwargs) -> None:
        pass

    def complete(self, name, **kwargs) -> None:
        pass

    def counter(self, name, values, **kwargs) -> None:
        pass

    def span_series(self, name, **kwargs) -> _NullSeries:
        return NULL_SERIES

    def instant_series(self, name, **kwargs) -> _NullSeries:
        return NULL_SERIES

    def counter_series(self, name, keys, **kwargs) -> _NullSeries:
        return NULL_SERIES

    def events(self) -> list[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())


#: the shared do-nothing recorder; ``recorder=None`` resolves to this
NULL_RECORDER = NullRecorder()


def coalesce(recorder: "TraceRecorder | NullRecorder | None"
             ) -> "TraceRecorder | NullRecorder":
    """Normalise a constructor's ``recorder`` argument (None → null)."""
    return NULL_RECORDER if recorder is None else recorder


class _RingSeries:
    """Record-all series: identity interned once, each emit one store."""

    __slots__ = ("_rec", "_nid", "_tkid", "_cid", "_obj", "_keys")
    wants_args = True

    def __init__(self, rec, nid, tkid, cid, obj, keys):
        self._rec = rec
        self._nid = nid
        self._tkid = tkid
        self._cid = cid
        self._obj = obj
        self._keys = keys

    def add(self, ts, dur=1.0, args=None) -> None:
        a = args if args is not None else self._obj
        self._rec._store(2, self._nid, self._tkid, self._cid, ts, dur,
                         _ARGS_NONE if a is None else _ARGS_OBJ, 0, a)

    def hit(self, ts, args=None) -> None:
        a = args if args is not None else self._obj
        self._rec._store(3, self._nid, self._tkid, self._cid, ts, 0.0,
                         _ARGS_NONE if a is None else _ARGS_OBJ, 0, a)

    def sample(self, ts, values) -> None:
        self._rec._store(4, self._nid, self._tkid, self._cid, ts, 0.0,
                         _ARGS_OBJ, 0, dict(zip(self._keys, values)))


class _SampledSeries(_RingSeries):
    """1-in-N series: identical to the ring series, minus skipped emits."""

    __slots__ = ("_cat", "_n")

    def __init__(self, rec, nid, tkid, cid, obj, keys, cat, n):
        super().__init__(rec, nid, tkid, cid, obj, keys)
        self._cat = cat
        self._n = n

    def add(self, ts, dur=1.0, args=None) -> None:
        if self._rec._sample(self._cat, self._n):
            super().add(ts, dur, args)

    def hit(self, ts, args=None) -> None:
        if self._rec._sample(self._cat, self._n):
            super().hit(ts, args)

    def sample(self, ts, values) -> None:
        if self._rec._sample(self._cat, self._n):
            super().sample(ts, values)


def _fold(a: list, first, last, n, dur, values=None) -> None:
    """Fold ``n`` events spanning ``first``..``last`` into a counters slot.

    ``dur`` is their total duration (0 for instants and counter
    samples); ``values``, for counter samples, replaces the slot's
    latest values.
    """
    if not a[_A_COUNT]:
        a[_A_FIRST] = first
    a[_A_LAST] = last
    a[_A_COUNT] += n
    a[_A_DUR] += dur
    if values is not None:
        a[_A_VALUES] = values


class _FoldSeries:
    """Counters-policy series of any kind: every emit folds, none stores."""

    __slots__ = ("_a",)
    wants_args = False

    def __init__(self, a):
        self._a = a

    def add(self, ts, dur=1.0, args=None) -> None:
        _fold(self._a, ts, ts, 1, dur)

    def hit(self, ts, args=None) -> None:
        _fold(self._a, ts, ts, 1, 0.0)

    def sample(self, ts, values) -> None:
        _fold(self._a, ts, ts, 1, 0.0, values)


def _cut(keep: slice, nids, ts, dur, avals):
    """Slice the columns of a bulk append that are arrays, not shared."""
    return (nids[keep] if isinstance(nids, np.ndarray) else nids, ts[keep],
            dur[keep] if isinstance(dur, np.ndarray) else dur,
            None if avals is None else avals[keep])


def _check_policy(policy) -> None:
    if policy in (POLICY_ALL, POLICY_COUNTERS):
        return
    if isinstance(policy, int) and not isinstance(policy, bool) \
            and policy >= 1:
        return
    raise ObsError(f"unknown trace policy {policy!r} "
                   "(expected 'all', 'counters', or a sample rate >= 1)")


class TraceRecorder:
    """Bounded structured-array ring of trace events with a logical clock.

    ``capacity`` bounds memory: once full, the oldest events are
    overwritten and counted in :attr:`dropped` (the newest events are
    the ones a profile wants). Timestamps are caller-supplied simulated
    time where the simulator has one; :meth:`now` hands out logical
    ticks for components that don't (the heap, memcheck).

    ``policies`` maps a category to ``"all"``, ``"counters"``, or an
    int sample rate (see the module docstring); the key ``"*"``
    replaces the built-in :data:`DEFAULT_POLICIES` as the fallback for
    every category not named explicitly.
    """

    enabled = True

    def __init__(self, *, capacity: int = 65536,
                 policies: dict[str, Any] | None = None) -> None:
        if capacity <= 0:
            raise ObsError("recorder capacity must be positive")
        self.capacity = capacity
        user = dict(policies or {})
        default = user.pop("*", None)
        if default is not None:
            _check_policy(default)
            self._default = default
            self._policies: dict[Any, Any] = user
        else:
            self._default = POLICY_ALL
            self._policies = {**DEFAULT_POLICIES, **user}
        for value in self._policies.values():
            _check_policy(value)

        buf = np.zeros(capacity, dtype=TRACE_DTYPE)
        self._buf = buf
        self._ph = buf["ph"]
        self._name = buf["name"]
        self._track = buf["track"]
        self._cat = buf["cat"]
        self._ts = buf["ts"]
        self._dur = buf["dur"]
        self._akey = buf["akey"]
        self._aval = buf["aval"]
        self._objs: list[Any] = [None] * capacity

        self._head = 0          # next write slot
        self._count = 0         # valid events in the buffer
        self._overwritten = 0   # ring-wrap losses
        self._clock = 0

        self._strings: list[str] = []
        self._sids: dict[str, int] = {}
        self._tracks: list[tuple[str, str]] = []
        self._tkids: dict[tuple[str, str], int] = {}

        self._agg: dict[tuple[int, int, int, int], list] = {}
        self._seq: dict[Any, int] = {}
        #: per-category exact count of events skipped by 1-in-N sampling
        self.sampled_out: dict[Any, int] = {}
        #: identity → handle memo for args-free series (handles are pure
        #: functions of identity, so simulators re-resolving the same
        #: series — a fresh Kernel per run, say — get the cached one)
        self._series_memo: dict = {}

    # -- accounting ---------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events not in the buffer: ring overwrites + sampled-out."""
        skipped = self.sampled_out
        return self._overwritten + (sum(skipped.values()) if skipped else 0)

    # -- the logical clock --------------------------------------------------

    def now(self) -> int:
        """Advance and return the logical clock (for clock-less callers)."""
        self._clock += 1
        return self._clock

    # -- interning ----------------------------------------------------------

    def intern(self, s: str) -> int:
        """The id of ``s`` in the label table (stable for this recorder)."""
        i = self._sids.get(s)
        if i is None:
            i = len(self._strings)
            self._strings.append(s)
            self._sids[s] = i
        return i

    def intern_track(self, pid: str, tid: str) -> int:
        """The id of the ``(pid, tid)`` track pair."""
        key = (pid, tid)
        i = self._tkids.get(key)
        if i is None:
            i = len(self._tracks)
            self._tracks.append(key)
            self._tkids[key] = i
        return i

    def _cid(self, cat: str | None) -> int:
        return -1 if cat is None else self.intern(cat)

    # -- policies -----------------------------------------------------------

    def policy_for(self, cat: str | None):
        """The effective policy of one category."""
        return self._policies.get(cat, self._default)

    def _sample(self, cat, n: int, k: int = 1) -> range:
        """Advance ``cat``'s 1-in-``n`` sequence over ``k`` events.

        Returns the offsets (among those ``k``) of the events kept, and
        counts the rest in :attr:`sampled_out`.
        """
        seq = self._seq.get(cat, 0)
        self._seq[cat] = seq + k
        kept = range(-seq % n, k, n)
        if len(kept) < k:
            self.sampled_out[cat] = self.sampled_out.get(cat, 0) \
                + k - len(kept)
        return kept

    def _slot(self, code: int, nid: int, tkid: int, cid: int) -> list:
        key = (code, nid, tkid, cid)
        a = self._agg.get(key)
        if a is None:
            a = [0.0, 0.0, 0, 0.0, None, None]
            self._agg[key] = a
        return a

    # -- scalar emitting ----------------------------------------------------

    def _store(self, code: int, nid: int, tkid: int, cid: int,
               ts: float, dur: float, akey: int, aval: int, obj) -> None:
        i = self._head
        self._ph[i] = code
        self._name[i] = nid
        self._track[i] = tkid
        self._cat[i] = cid
        self._ts[i] = ts
        self._dur[i] = dur
        self._akey[i] = akey
        self._aval[i] = aval
        self._objs[i] = obj
        i += 1
        self._head = 0 if i == self.capacity else i
        if self._count < self.capacity:
            self._count += 1
        else:
            self._overwritten += 1

    def _emit(self, code: int, name: str, ts: float, dur: float,
              pid: str, tid: str, cat: str | None, obj) -> None:
        """The scalar gate: one X, i or C event through ``cat``'s policy.

        ``obj`` is the event's args dict (a C event's values).
        """
        policy = self._policies.get(cat, self._default)
        if policy != POLICY_ALL:
            if policy == POLICY_COUNTERS:
                _fold(self._slot(code, self.intern(name),
                                 self.intern_track(pid, tid),
                                 self._cid(cat)),
                      ts, ts, 1, dur, obj if code == 4 else None)
                return
            if not self._sample(cat, policy):
                return
        self._store(code, self.intern(name), self.intern_track(pid, tid),
                    self._cid(cat), ts, dur,
                    _ARGS_NONE if obj is None else _ARGS_OBJ, 0, obj)

    def instant(self, name: str, *, ts: float | None = None,
                pid: str = "repro", tid: str = "main",
                cat: str | None = None,
                args: dict | None = None) -> None:
        """A point-in-time event (a page fault, a context switch)."""
        self._emit(3, name, self.now() if ts is None else ts, 0.0,
                   pid, tid, cat, args)

    def begin(self, name: str, *, ts: float | None = None,
              pid: str = "repro", tid: str = "main",
              cat: str | None = None, args: dict | None = None) -> None:
        """Open a span on a track; pair with :meth:`end` (same track).

        B/E events bypass sampling and folding so every opened span is
        closed in the buffer (the Chrome validator checks nesting).
        """
        self._store(0, self.intern(name), self.intern_track(pid, tid),
                    self._cid(cat), self.now() if ts is None else ts, 0.0,
                    _ARGS_NONE if args is None else _ARGS_OBJ, 0, args)

    def end(self, name: str, *, ts: float | None = None,
            pid: str = "repro", tid: str = "main",
            cat: str | None = None, args: dict | None = None) -> None:
        """Close the most recent open span with ``name`` on the track."""
        self._store(1, self.intern(name), self.intern_track(pid, tid),
                    self._cid(cat), self.now() if ts is None else ts, 0.0,
                    _ARGS_NONE if args is None else _ARGS_OBJ, 0, args)

    def complete(self, name: str, *, ts: float, dur: float,
                 pid: str = "repro", tid: str = "main",
                 cat: str | None = None, args: dict | None = None) -> None:
        """A closed span in one event (the bulk of simulator output)."""
        if dur < 0:
            raise ObsError(f"span {name!r} has negative duration {dur}")
        self._emit(2, name, ts, dur, pid, tid, cat, args)

    def counter(self, name: str, values: dict[str, float], *,
                ts: float | None = None, pid: str = "repro",
                tid: str = "main", cat: str | None = None) -> None:
        """A sampled counter set (hit/miss totals, live heap bytes)."""
        self._emit(4, name, self.now() if ts is None else ts, 0.0,
                   pid, tid, cat, dict(values))

    # -- series handles (pre-resolved hot-path emitters) --------------------

    def span_series(self, name: str, *, pid: str = "repro",
                    tid: str = "main", cat: str | None = None,
                    args: dict | None = None):
        """A handle emitting X spans of one identity: ``h.add(ts, dur)``."""
        return self._series(2, name, pid, tid, cat, args, None)

    def instant_series(self, name: str, *, pid: str = "repro",
                       tid: str = "main", cat: str | None = None,
                       args: dict | None = None):
        """A handle emitting instants of one identity: ``h.hit(ts)``."""
        return self._series(3, name, pid, tid, cat, args, None)

    def counter_series(self, name: str, keys, *, pid: str = "repro",
                       tid: str = "main", cat: str | None = None):
        """A handle sampling one counter set: ``h.sample(ts, values)``
        with ``values`` a tuple aligned with ``keys``."""
        return self._series(4, name, pid, tid, cat, None, tuple(keys))

    def _series(self, code, name, pid, tid, cat, args, keys):
        memo_key = None
        if args is None:
            memo_key = (code, name, pid, tid, cat, keys)
            handle = self._series_memo.get(memo_key)
            if handle is not None:
                return handle
        policy = self._policies.get(cat, self._default)
        nid = self.intern(name)
        tkid = self.intern_track(pid, tid)
        cid = self._cid(cat)
        if policy == POLICY_COUNTERS:
            a = self._slot(code, nid, tkid, cid)
            a[_A_KEYS] = keys
            handle = _FoldSeries(a)
        elif policy == POLICY_ALL:
            handle = _RingSeries(self, nid, tkid, cid, args, keys)
        else:
            handle = _SampledSeries(self, nid, tkid, cid, args, keys,
                                    cat, policy)
        if memo_key is not None:
            self._series_memo[memo_key] = handle
        return handle

    # -- bulk appends (the batch engines' fast path) ------------------------

    def complete_run(self, name_ids, ts0: float, *, track_id: int,
                     cat_id: int = -1, key_id: int = -1, vals=None,
                     dur: float = 1.0) -> None:
        """Append ``len(name_ids)`` X spans at consecutive timestamps.

        Span ``j`` gets name ``name_ids[j]``, ``ts = ts0 + j`` and the
        shared ``dur``; with ``key_id >= 0``, ``args = {key: vals[j]}``.
        This is the ISA interpreter's flush: one slice assignment per
        column instead of one Python object per instruction.
        """
        k = len(name_ids)
        if k:
            self._emit_bulk(2, np.asarray(name_ids, dtype=np.int32),
                            ts0 + np.arange(k, dtype=np.float64), dur,
                            track_id, cat_id, key_id, vals)

    def instant_run(self, name_id: int, ts0: float, *, track_id: int,
                    cat_id: int = -1, key_id: int = -1, vals=None,
                    n: int | None = None) -> None:
        """Append ``n`` same-named instants at consecutive timestamps
        (``n`` defaults to ``len(vals)``)."""
        k = len(vals) if n is None else n
        if k:
            self._emit_bulk(3, name_id, ts0 + np.arange(k, dtype=np.float64),
                            0.0, track_id, cat_id, key_id, vals)

    def complete_batch(self, name_ids, ts, durs, *, track_id: int,
                       cat_id: int = -1, key_id: int = -1,
                       vals=None) -> None:
        """Append X spans with explicit per-span timestamps/durations.

        The superblock JIT's flush: one entry per executed block, with
        ``vals`` (usually the per-block instruction counts) as the
        numeric arg.
        """
        if len(name_ids):
            self._emit_bulk(2, np.asarray(name_ids, dtype=np.int32),
                            np.asarray(ts, dtype=np.float64),
                            np.asarray(durs, dtype=np.float64),
                            track_id, cat_id, key_id, vals)

    def _emit_bulk(self, code, nids, ts, dur, tkid, cid, kid, vals) -> None:
        """The batch gate: ``len(ts)`` X or i events through one policy.

        ``nids`` and ``dur`` are each an array aligned with ``ts`` or
        one value shared by every event; ``vals`` are the numeric args
        under key ``kid``, or None.
        """
        cat = None if cid < 0 else self._strings[cid]
        policy = self._policies.get(cat, self._default)
        if policy == POLICY_COUNTERS:
            names = np.broadcast_to(nids, ts.shape)
            uniq, first, inverse, counts = np.unique(
                names, return_index=True, return_inverse=True,
                return_counts=True)
            last = (len(ts) - 1
                    - np.unique(names[::-1], return_index=True)[1])
            durs = np.bincount(inverse,
                               weights=np.broadcast_to(dur, ts.shape),
                               minlength=len(uniq))
            ts_first, ts_last = ts[first].tolist(), ts[last].tolist()
            uniq, counts, durs = uniq.tolist(), counts.tolist(), durs.tolist()
            # slots are made in first-occurrence order, as one scalar
            # emit per event would make them
            for j in np.argsort(first).tolist():
                _fold(self._slot(code, uniq[j], tkid, cid), ts_first[j],
                      ts_last[j], counts[j], durs[j])
            return
        avals = None if vals is None else np.asarray(vals, dtype=np.int64)
        if policy != POLICY_ALL:
            kept = self._sample(cat, policy, len(ts))
            if not kept:
                return
            nids, ts, dur, avals = _cut(slice(kept.start, None, policy),
                                        nids, ts, dur, avals)
        self._bulk(code, nids, ts, dur, tkid, cid,
                   _ARGS_NONE if avals is None else kid, avals)

    def _bulk(self, code, nids, ts, dur, tkid, cid, akey, avals) -> None:
        """Land ``len(ts)`` rows in the ring with slice assignments."""
        k = len(ts)
        cap = self.capacity
        if k >= cap:
            # only the newest ``cap`` survive; everything else is dropped
            self._overwritten += self._count + k - cap
            nids, ts, dur, avals = _cut(slice(k - cap, None),
                                        nids, ts, dur, avals)
            self._count = cap
            start = self._head = (self._head + k) % cap
            self._write(code, nids, ts, dur, tkid, cid, akey, avals,
                        start, cap)
            return
        spill = self._count + k - cap
        if spill > 0:
            self._overwritten += spill
            self._count = cap
        else:
            self._count += k
        self._write(code, nids, ts, dur, tkid, cid, akey, avals,
                    self._head, k)
        self._head = (self._head + k) % cap

    def _write(self, code, nids, ts, dur, tkid, cid, akey, avals,
               start, k) -> None:
        cap = self.capacity
        end = start + k
        if end <= cap:
            parts = ((slice(start, end), slice(0, k)),)
        else:
            split = cap - start
            parts = ((slice(start, cap), slice(0, split)),
                     (slice(0, end - cap), slice(split, k)))
        for dst, src in parts:
            self._ph[dst] = code
            self._name[dst] = nids[src] if isinstance(nids, np.ndarray) \
                else nids
            self._track[dst] = tkid
            self._cat[dst] = cid
            self._ts[dst] = ts[src]
            self._dur[dst] = dur[src] if isinstance(dur, np.ndarray) else dur
            self._akey[dst] = akey
            self._aval[dst] = 0 if avals is None else avals[src]

    # -- reading ------------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        """Buffered events oldest first, then one event per folded series."""
        out: list[TraceEvent] = []
        count = self._count
        cap = self.capacity
        strings = self._strings
        tracks = self._tracks
        if count:
            start = (self._head - count) % cap
            idx = np.arange(start, start + count) % cap
            ph_, name_, track_ = self._ph, self._name, self._track
            cat_, ts_, dur_ = self._cat, self._ts, self._dur
            akey_, aval_, objs = self._akey, self._aval, self._objs
            for i in idx.tolist():
                code = ph_[i]
                akey = akey_[i]
                if akey == _ARGS_NONE:
                    args = None
                elif akey == _ARGS_OBJ:
                    args = objs[i]
                else:
                    args = {strings[akey]: int(aval_[i])}
                cid = cat_[i]
                pid, tid = tracks[track_[i]]
                out.append(TraceEvent(
                    _CHAR[code], strings[name_[i]], float(ts_[i]), pid, tid,
                    float(dur_[i]) if code == 2 else None,
                    strings[cid] if cid >= 0 else None, args))
        for (code, nid, tkid, cid), a in self._agg.items():
            if not a[2]:
                continue
            name = strings[nid]
            pid, tid = tracks[tkid]
            cat = strings[cid] if cid >= 0 else None
            if code == 4:
                values = a[4]
                if not isinstance(values, dict):
                    values = dict(zip(a[5], values))
                out.append(TraceEvent(PH_COUNTER, name, a[1], pid, tid,
                                      None, cat, dict(values)))
            elif code == 3:
                out.append(TraceEvent(PH_INSTANT, name, a[1], pid, tid,
                                      None, cat, {"count": a[2]}))
            else:
                out.append(TraceEvent(PH_COMPLETE, name, a[0], pid, tid,
                                      a[3], cat, {"count": a[2]}))
        return out

    def __len__(self) -> int:
        return self._count + sum(1 for a in self._agg.values() if a[2])

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def clear(self) -> None:
        """Drop everything recorded so far (capacity unchanged)."""
        self._head = 0
        self._count = 0
        self._overwritten = 0
        self._objs = [None] * self.capacity
        self._seq.clear()
        self.sampled_out.clear()
        for a in self._agg.values():
            # reset in place — live series handles keep their slots
            a[0] = a[1] = 0.0
            a[2] = 0
            a[3] = 0.0
            a[4] = None
