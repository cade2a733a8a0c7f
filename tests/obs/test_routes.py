"""The three emit routes of :class:`TraceRecorder` agree under every policy.

An event can reach the recorder as a scalar call (``complete`` /
``instant`` / ``counter``), through a pre-resolved series handle
(``span_series`` / ``instant_series`` / ``counter_series``), or in a
bulk append (``complete_run`` / ``complete_batch`` / ``instant_run``).
Whatever the category's policy — record all, keep 1 in N, or fold to
counters — the same event stream must leave the same trace: equal
``events()`` (as a multiset), equal ``dropped`` and equal
``sampled_out``. Bulk appends are cut into chunks so the sampling
sequence and the ring cross chunk boundaries.
"""

import pytest

from repro.obs import POLICY_ALL, POLICY_COUNTERS, TraceRecorder

PID, TID = "p", "t"
KEY = "eip"
POLICIES = [POLICY_ALL, 3, POLICY_COUNTERS]
CATS = ["hot", None]


def _recorder(policy, cat, capacity=64):
    key = "*" if cat is None else cat
    return TraceRecorder(capacity=capacity, policies={key: policy})


def _ids(rec, cat):
    cid = -1 if cat is None else rec.intern(cat)
    return rec.intern_track(PID, TID), cid, rec.intern(KEY)


def _chunks(seq, size):
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def _outcome(rec):
    def key(e):
        args = sorted(e.args.items()) if e.args is not None else []
        return (e.ph, e.name, e.ts, e.pid, e.tid,
                -1.0 if e.dur is None else e.dur, e.cat or "", args)
    return (sorted(rec.events(), key=key), rec.dropped,
            dict(rec.sampled_out))


def _assert_agree(outcomes):
    first = outcomes[0]
    for other in outcomes[1:]:
        assert other[0] == first[0]
        assert other[1:] == first[1:]


# -- X spans ------------------------------------------------------------------

NAMES = ["add", "mov", "add", "jmp", "mov", "add", "cmp", "add", "jmp",
         "mov", "add", "add", "sub", "mov", "add", "jmp", "cmp", "add",
         "mov", "add", "sub", "add", "jmp"]


def _span_stream(n, ts0=100.0, dur=2.0):
    """``n`` consecutive spans: (name, ts, dur, arg value)."""
    return [(NAMES[j % len(NAMES)], ts0 + j, dur, 4 * j)
            for j in range(n)]


def _spans_scalar(rec, cat, stream):
    for name, ts, dur, val in stream:
        rec.complete(name, ts=ts, dur=dur, pid=PID, tid=TID, cat=cat,
                     args={KEY: val})


def _spans_series(rec, cat, stream):
    for name, ts, dur, val in stream:
        rec.span_series(name, pid=PID, tid=TID, cat=cat).add(
            ts, dur, {KEY: val})


def _spans_run(rec, cat, stream, chunk):
    track, cid, kid = _ids(rec, cat)
    for part in _chunks(stream, chunk):
        rec.complete_run([rec.intern(name) for name, *_ in part],
                         part[0][1], track_id=track, cat_id=cid,
                         key_id=kid, vals=[v for *_, v in part],
                         dur=part[0][2])


def _spans_batch(rec, cat, stream, chunk):
    track, cid, kid = _ids(rec, cat)
    for part in _chunks(stream, chunk):
        rec.complete_batch([rec.intern(name) for name, *_ in part],
                           [ts for _, ts, _, _ in part],
                           [dur for _, _, dur, _ in part],
                           track_id=track, cat_id=cid, key_id=kid,
                           vals=[v for *_, v in part])


@pytest.mark.parametrize("cat", CATS)
@pytest.mark.parametrize("policy", POLICIES)
class TestSpans:
    def test_consecutive_spans_agree(self, policy, cat):
        stream = _span_stream(23)
        outcomes = []
        for emit in (_spans_scalar, _spans_series):
            rec = _recorder(policy, cat)
            emit(rec, cat, stream)
            outcomes.append(_outcome(rec))
        for bulk in (_spans_run, _spans_batch):
            rec = _recorder(policy, cat)
            bulk(rec, cat, stream, 7)
            outcomes.append(_outcome(rec))
        _assert_agree(outcomes)

    def test_batch_with_names_out_of_id_order(self, policy, cat):
        # ids are interned a < b < c, but the batch meets c first;
        # explicit, uneven timestamps and durations
        stream = [("c", 3.0, 1.0, 1), ("a", 5.0, 4.0, 2),
                  ("c", 6.0, 2.0, 3), ("b", 9.0, 1.0, 4),
                  ("a", 10.0, 3.0, 5), ("c", 14.0, 1.0, 6),
                  ("b", 15.0, 5.0, 7)]
        outcomes = []
        for emit in (_spans_scalar, _spans_series):
            rec = _recorder(policy, cat)
            emit(rec, cat, stream)
            outcomes.append(_outcome(rec))
        rec = _recorder(policy, cat)
        for name in ("a", "b", "c"):
            rec.intern(name)
        _spans_batch(rec, cat, stream, len(stream))
        outcomes.append(_outcome(rec))
        _assert_agree(outcomes)

    def test_bulk_larger_than_capacity(self, policy, cat):
        stream = _span_stream(60)
        outcomes = []
        for emit in (_spans_scalar, _spans_series):
            rec = _recorder(policy, cat, capacity=8)
            emit(rec, cat, stream)
            outcomes.append(_outcome(rec))
        for bulk in (_spans_run, _spans_batch):
            rec = _recorder(policy, cat, capacity=8)
            bulk(rec, cat, stream, len(stream))
            outcomes.append(_outcome(rec))
        _assert_agree(outcomes)
        if policy != POLICY_COUNTERS:
            assert outcomes[0][1] > 0          # the ring really wrapped


# -- i instants ---------------------------------------------------------------

def _instant_stream():
    """Runs of same-named instants at consecutive timestamps."""
    stream = []
    ts = 0.0
    for name, k in (("fetch", 5), ("fault", 1), ("fetch", 8),
                    ("switch", 4), ("fault", 3)):
        stream.append((name, [(ts + j, 10 * j) for j in range(k)]))
        ts += k + 2
    return stream


@pytest.mark.parametrize("with_args", [True, False])
@pytest.mark.parametrize("cat", CATS)
@pytest.mark.parametrize("policy", POLICIES)
def test_instants_agree(policy, cat, with_args):
    stream = _instant_stream()

    def args(val):
        return {KEY: val} if with_args else None

    rec = _recorder(policy, cat)
    for name, run in stream:
        for ts, val in run:
            rec.instant(name, ts=ts, pid=PID, tid=TID, cat=cat,
                        args=args(val))
    scalar = _outcome(rec)

    rec = _recorder(policy, cat)
    for name, run in stream:
        h = rec.instant_series(name, pid=PID, tid=TID, cat=cat)
        for ts, val in run:
            h.hit(ts, args(val))
    series = _outcome(rec)

    rec = _recorder(policy, cat)
    track, cid, kid = _ids(rec, cat)
    for name, run in stream:
        if with_args:
            rec.instant_run(rec.intern(name), run[0][0], track_id=track,
                            cat_id=cid, key_id=kid,
                            vals=[v for _, v in run])
        else:
            rec.instant_run(rec.intern(name), run[0][0], track_id=track,
                            cat_id=cid, n=len(run))
    bulk = _outcome(rec)
    _assert_agree([scalar, series, bulk])


@pytest.mark.parametrize("cat", CATS)
@pytest.mark.parametrize("policy", POLICIES)
def test_instant_run_larger_than_capacity(policy, cat):
    ts = [float(j) for j in range(40)]
    rec = _recorder(policy, cat, capacity=6)
    for t in ts:
        rec.instant("fetch", ts=t, pid=PID, tid=TID, cat=cat,
                    args={KEY: int(t)})
    scalar = _outcome(rec)
    rec = _recorder(policy, cat, capacity=6)
    track, cid, kid = _ids(rec, cat)
    rec.instant_run(rec.intern("fetch"), 0.0, track_id=track, cat_id=cid,
                    key_id=kid, vals=[int(t) for t in ts])
    _assert_agree([scalar, _outcome(rec)])


# -- C counters ---------------------------------------------------------------

@pytest.mark.parametrize("cat", CATS)
@pytest.mark.parametrize("policy", POLICIES)
def test_counters_agree(policy, cat):
    keys = ("hits", "misses")
    samples = [("l1", float(j), (j, 2 * j)) for j in range(7)] + \
              [("l2", 10.0 + j, (3 * j, j)) for j in range(5)]

    rec = _recorder(policy, cat)
    for name, ts, vals in samples:
        rec.counter(name, dict(zip(keys, vals)), ts=ts, pid=PID, tid=TID,
                    cat=cat)
    scalar = _outcome(rec)

    rec = _recorder(policy, cat)
    for name, ts, vals in samples:
        rec.counter_series(name, keys, pid=PID, tid=TID,
                           cat=cat).sample(ts, vals)
    _assert_agree([scalar, _outcome(rec)])


# -- routes mixed on one recorder ----------------------------------------------

@pytest.mark.parametrize("policy", POLICIES)
def test_mixed_routes_share_one_sequence(policy):
    # the same stream, emitted by alternating routes on one recorder,
    # leaves the trace a single route leaves
    stream = _span_stream(30)
    rec = _recorder(policy, "hot", capacity=16)
    _spans_scalar(rec, "hot", stream)
    alone = _outcome(rec)

    rec = _recorder(policy, "hot", capacity=16)
    parts = _chunks(stream, 5)
    for i, part in enumerate(parts):
        if i % 3 == 0:
            _spans_scalar(rec, "hot", part)
        elif i % 3 == 1:
            _spans_run(rec, "hot", part, len(part))
        else:
            _spans_series(rec, "hot", part)
    _assert_agree([alone, _outcome(rec)])
