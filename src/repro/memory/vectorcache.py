"""Vectorized trace-driven cache simulation — the batch fast path.

The scalar :class:`~repro.memory.cache.Cache` advances one access per
Python iteration, which dominates every whole-trace cache benchmark.
This engine runs the same simulation at numpy speed: addresses are
decomposed tag/index/offset in one pass
(:meth:`~repro.memory.address.AddressLayout.divide_many`), accesses are
grouped by set, and the per-set sequences advance in lockstep *rounds*
— round ``k`` applies every set's ``k``-th access simultaneously — so
the Python-level loop runs ``max accesses per set`` times instead of
``len(trace)`` times. Sets are mutually independent in the scalar
model, so within-set order (the only order that matters) is preserved
exactly.

Two shapes get their own paths. A direct-mapped cache needs no loop at
all: residency follows from segmented forward-fills over the set-sorted
trace. A *skewed* trace — a few hot sets taking most accesses, as in
the compiled inner loops the JIT's cached bus replays — would make the
rounds degenerate into one numpy call per access, so it is replayed one
*same-line run* at a time, the way a traced ``MMU.replay`` collapses
runs of same-page accesses: an access with the set and tag of the
previous access to its set, when that access allocated the line, is a
hit by construction. Each run head is one scalar :meth:`Cache.probe`;
the rest of the run only moves the line's LRU stamp and dirty bit and
is counted in bulk. That path touches only the ``Line`` objects of the
sets it probes; the closed form and the rounds copy every set's lines
into arrays and back.

Exactness is the design constraint, not an aspiration: LRU and FIFO
victims fall out of the same timestamp comparisons the scalar engine
makes (stamps *are* the scalar clock values), and the ``random`` policy
draws from the same per-set seeded streams (``Cache._set_rng``), so
hits, misses, evictions, writebacks, memory writes, final set state,
and the clock are all bit-identical to folding :meth:`Cache.access`
over the trace (the skewed path gets this from ``probe`` itself). The
scalar engine stays the behavioral oracle; the randomized tests in
``tests/memory/test_vectorcache.py`` pin every replacement/write-policy
combination to it.

The one unsupported configuration is ``prefetch_next_line`` — a
prefetch fills a *different* set, breaking per-set independence —
callers (``Cache.simulate_trace``, ``CacheHierarchy.simulate_arrays``)
fall back to the scalar paths for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CacheConfigError

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from repro.memory.cache import Cache


def as_trace_arrays(trace) -> tuple[np.ndarray, np.ndarray]:
    """Normalize any trace shape to ``(addresses, is_store)`` arrays.

    Accepts what :meth:`Cache.run_trace` accepts — an iterable of
    addresses or ``(address, kind)`` pairs — plus plain numpy address
    arrays (all loads). Returns int64 addresses and a bool store mask.
    """
    if isinstance(trace, np.ndarray):
        return trace.astype(np.int64, copy=False), \
            np.zeros(len(trace), dtype=bool)
    if not isinstance(trace, (list, tuple)):
        trace = list(trace)
    n = len(trace)
    addrs = np.empty(n, dtype=np.int64)
    stores = np.zeros(n, dtype=bool)
    try:
        # homogeneous address lists convert in one shot
        addrs[:] = trace
        return addrs, stores
    except (TypeError, ValueError):
        pass
    try:
        # homogeneous (address, kind) lists: the kind strings are
        # interned, so the comparisons are pointer checks and the two
        # comprehensions convert in one numpy call each
        addrs[:] = [item[0] for item in trace]
        stores[:] = [item[1] == "store" for item in trace]
        return addrs, stores
    except (TypeError, ValueError, IndexError):
        pass
    for i, item in enumerate(trace):   # mixed addresses and pairs
        if isinstance(item, tuple):
            addrs[i] = item[0]
            stores[i] = item[1] == "store"
        else:
            addrs[i] = item
    return addrs, stores


def simulate_trace(cache: Cache, trace) -> "np.ndarray":
    """Vectorized whole-trace simulation; returns the per-access hit mask.

    Mutates ``cache`` (stats, line state, clock) exactly as the scalar
    engine would. Most callers want :meth:`Cache.simulate_trace`, which
    returns the cumulative stats; this function additionally exposes
    which accesses hit — what a hierarchy needs to forward misses.
    """
    addrs, stores = as_trace_arrays(trace)
    return simulate_arrays(cache, addrs, stores)


def simulate_arrays(cache: Cache, addrs: np.ndarray,
                    stores: np.ndarray) -> np.ndarray:
    """Core engine over pre-normalized arrays; returns the hit mask."""
    config = cache.config
    if config.prefetch_next_line:
        raise CacheConfigError(
            "the vectorized engine cannot simulate prefetch_next_line "
            "(prefetches cross set boundaries); use Cache.access_many")
    n = len(addrs)
    hitmask = np.zeros(n, dtype=bool)
    if n == 0:
        return hitmask

    tags, set_ids, _ = cache.layout.divide_many(addrs)  # validates the trace
    assoc = config.associativity

    # -- group accesses by set, preserving within-set order
    order = np.argsort(set_ids, kind="stable")
    sorted_sets = set_ids[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_sets[1:] != sorted_sets[:-1]])
    counts = np.diff(np.r_[starts, n])

    if assoc > 1 and int(counts.max()) * 8 > n:
        # skewed trace: a few hot sets absorb most accesses (a compiled
        # inner loop is the extreme case — num_rounds ≈ n), so lockstep
        # rounds would degenerate into per-access numpy calls
        _probe_line_runs(cache, addrs, stores, order, sorted_sets, tags,
                         hitmask)
        return hitmask

    write_back = config.write_policy == "write-back"
    write_allocate = config.write_allocate
    replacement = config.replacement

    # -- ingest the scalar per-line state into [num_sets, assoc] arrays
    tag_a = np.array([[l.tag for l in ways] for ways in cache.sets],
                     dtype=np.int64)
    valid_a = np.array([[l.valid for l in ways] for ways in cache.sets],
                       dtype=bool)
    dirty_a = np.array([[l.dirty for l in ways] for ways in cache.sets],
                       dtype=bool)
    used_a = np.array([[l.last_used for l in ways] for ways in cache.sets],
                      dtype=np.int64)
    loaded_a = np.array([[l.loaded_at for l in ways] for ways in cache.sets],
                        dtype=np.int64)

    # stamps are the scalar clock values: clock0 + 1-based trace position
    base_clock = cache._clock
    stamps = base_clock + 1 + np.arange(n, dtype=np.int64)
    evict_m = np.zeros(n, dtype=bool)
    wb_m = np.zeros(n, dtype=bool)
    any_stores = bool(stores.any())

    if assoc == 1:
        # direct-mapped closed form: the resident tag after any access is
        # simply the tag of the most recent *allocating* access (any
        # access under write-allocate, loads otherwise), so residency,
        # hits, evictions, and dirty intervals all fall out of segmented
        # forward-fills and prefix sums — no per-round loop at all
        tag1, valid1 = tag_a[:, 0], valid_a[:, 0]
        dirty1, used1, loaded1 = dirty_a[:, 0], used_a[:, 0], loaded_a[:, 0]
        t_s = tags[order]
        st_s = stores[order]
        stamp_s = stamps[order]
        sid_s = sorted_sets
        gstart = np.repeat(starts, counts)      # group start of each pos
        pos = np.arange(n, dtype=np.int64)

        def last_before(mask):
            """Exclusive segmented forward-fill: for each sorted position,
            the latest earlier position (same group) where mask holds,
            or -1."""
            ff = np.maximum.accumulate(np.where(mask, pos, -1))
            excl = np.r_[np.int64(-1), ff[:-1]]
            return np.where(excl >= gstart, excl, -1)

        alloc = (np.ones(n, dtype=bool) if write_allocate or not any_stores
                 else ~st_s)
        ra = last_before(alloc)
        resident = np.where(ra >= 0, t_s[np.maximum(ra, 0)], tag1[sid_s])
        valid_before = (ra >= 0) | valid1[sid_s]
        hit_s = valid_before & (resident == t_s)
        fill_s = ~hit_s & alloc
        evict_s = fill_s & valid_before

        # dirty contributions: store hits, plus the fill's own store
        # under write-allocate (the scalar fill seeds dirty = store)
        dirty_src = st_s & (hit_s | fill_s) if write_back and any_stores \
            else np.zeros(n, dtype=bool)
        ds = np.r_[np.int64(0), np.cumsum(dirty_src)]
        pf = last_before(fill_s)
        lower = np.where(pf >= 0, pf, gstart)
        dirty_before = ((ds[pos] - ds[lower] > 0)
                        | ((pf < 0) & dirty1[sid_s]))
        wb_s = evict_s & dirty_before if write_back \
            else np.zeros(n, dtype=bool)

        hitmask[order] = hit_s
        evict_m[order] = evict_s
        wb_m[order] = wb_s

        # -- final per-set state from the last positions of each group
        def last_in_group(mask, ends):
            ff = np.maximum.accumulate(np.where(mask, pos, -1))
            last = ff[ends]
            return np.where(last >= starts, last, -1)

        ends = starts + counts - 1
        sids = sid_s[starts]
        la = last_in_group(alloc, ends)
        tag1[sids] = np.where(la >= 0, t_s[np.maximum(la, 0)], tag1[sids])
        valid1[sids] |= la >= 0
        lf = last_in_group(fill_s, ends)
        loaded1[sids] = np.where(lf >= 0, stamp_s[np.maximum(lf, 0)],
                                 loaded1[sids])
        touched = hit_s | fill_s        # bypassed store misses touch nothing
        lt = last_in_group(touched, ends)
        used1[sids] = np.where(lt >= 0, stamp_s[np.maximum(lt, 0)],
                               used1[sids])
        lower_end = np.where(lf >= 0, lf, starts)
        dirty1[sids] = ((ds[ends + 1] - ds[lower_end] > 0)
                        | ((lf < 0) & dirty1[sids]))
    else:
        # lockstep rounds: the k-th access of every set executes together
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n) - np.repeat(starts, counts)
        round_order = np.argsort(rank, kind="stable")
        num_rounds = int(counts.max())
        bounds = np.searchsorted(rank[round_order],
                                 np.arange(num_rounds + 1))
        for k in range(num_rounds):
            p = round_order[bounds[k]:bounds[k + 1]]    # original positions
            s = set_ids[p]                              # unique in a round
            t = tags[p]
            st = stores[p] if any_stores else None
            stamp = stamps[p]

            hit_ways = valid_a[s] & (tag_a[s] == t[:, None])
            hit = hit_ways.any(axis=1)
            way = hit_ways.argmax(axis=1)
            hitmask[p] = hit

            hp = np.flatnonzero(hit)
            if hp.size:
                used_a[s[hp], way[hp]] = stamp[hp]
                if write_back and any_stores:
                    sh = np.flatnonzero(hit & st)
                    if sh.size:
                        dirty_a[s[sh], way[sh]] = True

            if any_stores and not write_allocate:
                fill = np.flatnonzero(~hit & ~st)
            else:
                fill = np.flatnonzero(~hit)
            if fill.size:
                fs = s[fill]
                invalid = ~valid_a[fs]
                has_invalid = invalid.any(axis=1)
                victim = invalid.argmax(axis=1)         # first invalid way
                full = np.flatnonzero(~has_invalid)
                if full.size:
                    if replacement == "lru":
                        victim[full] = used_a[fs[full]].argmin(axis=1)
                    elif replacement == "fifo":
                        victim[full] = loaded_a[fs[full]].argmin(axis=1)
                    else:   # per-set streams: order across sets irrelevant
                        victim[full] = [
                            cache._set_rng(int(si)).randrange(assoc)
                            for si in fs[full]]
                victim_valid = valid_a[fs, victim]
                evict_m[p[fill]] = victim_valid
                if write_back:
                    wb_m[p[fill]] = victim_valid & dirty_a[fs, victim]
                tag_a[fs, victim] = t[fill]
                valid_a[fs, victim] = True
                used_a[fs, victim] = stamp[fill]
                loaded_a[fs, victim] = stamp[fill]
                dirty_a[fs, victim] = (st[fill] & write_back if any_stores
                                       else False)

    # -- fold counters (identical to the scalar accounting; memory_writes
    # reduces to: writebacks, + every store under write-through, + every
    # bypassed store miss under no-write-allocate)
    stats = cache.stats
    stats.load_hits += int((hitmask & ~stores).sum())
    stats.store_hits += int((hitmask & stores).sum())
    stats.load_misses += int((~hitmask & ~stores).sum())
    store_misses = int((~hitmask & stores).sum())
    stats.store_misses += store_misses
    stats.evictions += int(evict_m.sum())
    writebacks = int(wb_m.sum())
    stats.writebacks += writebacks
    if write_back:
        stats.memory_writes += writebacks
        if not write_allocate:
            stats.memory_writes += store_misses
    else:
        stats.memory_writes += int(stores.sum())

    # -- write the final state back so the step-by-step APIs can continue
    # from exactly where a batch left off
    for si, ways in enumerate(cache.sets):
        for wi, line in enumerate(ways):
            line.tag = int(tag_a[si, wi])
            line.valid = bool(valid_a[si, wi])
            line.dirty = bool(dirty_a[si, wi])
            line.last_used = int(used_a[si, wi])
            line.loaded_at = int(loaded_a[si, wi])
    cache._clock = base_clock + n
    return hitmask


def _probe_line_runs(cache, addrs, stores, order, sorted_sets, tags,
                     hitmask) -> None:
    """Replay a skewed trace through :meth:`Cache.probe`, one run at a time.

    Works in the stable set-sorted order. An access *follows* when it
    has the set and tag of the previous access to its set and that
    access allocates (any access under write-allocate, else a load):
    the line is then resident, so a follower is a hit by construction.
    Each run head is one ``cache.probe`` at the head's own clock value,
    so victim choice, per-set RNG draws and the write policy are the
    scalar engine's own. One pass over the head's set then stamps
    ``last_used`` with the run's last access and, under write-back,
    dirties the line if the run stores; the followers' hits (and their
    write-through memory writes) are counted in bulk. Only the lines of
    probed sets are read or written.
    """
    from repro.obs.recorder import NULL_RECORDER
    n = len(order)
    write_back = cache.config.write_policy == "write-back"
    t_s = tags[order]
    st_s = stores[order]
    follows = (sorted_sets[1:] == sorted_sets[:-1]) & (t_s[1:] == t_s[:-1])
    if not cache.config.write_allocate:
        follows &= ~st_s[:-1]
    heads = np.flatnonzero(np.r_[True, ~follows])
    lasts = np.r_[heads[1:], n] - 1
    head_pos = order[heads]                 # 0-based trace positions
    base_clock = cache._clock
    # a run's tail stamp is its last access's clock value; 0 marks a
    # one-access run, which the head's probe stamps completely
    tails = np.where(lasts > heads, base_clock + 1 + order[lasts], 0)
    run_dirty = (np.logical_or.reduceat(st_s, heads) if write_back
                 else np.zeros(len(heads), dtype=bool))

    probe = cache.probe
    sets = cache.sets
    hit_h = []
    recorder = cache.recorder
    cache.recorder = NULL_RECORDER      # the caller samples once per batch
    try:
        for addr, store, clock, tail, si, tg, dirty in zip(
                addrs[head_pos].tolist(), st_s[heads].tolist(),
                (base_clock + head_pos).tolist(), tails.tolist(),
                sorted_sets[heads].tolist(), t_s[heads].tolist(),
                run_dirty.tolist()):
            cache._clock = clock
            hit_h.append(probe(addr, "store" if store else "load"))
            if tail:
                for line in sets[si]:
                    if line.valid and line.tag == tg:
                        line.last_used = tail
                        if dirty:
                            line.dirty = True
                        break
    finally:
        cache.recorder = recorder
    cache._clock = base_clock + n

    hit_s = np.r_[False, follows]
    store_hits = int((hit_s & st_s).sum())
    stats = cache.stats
    stats.store_hits += store_hits
    stats.load_hits += n - len(heads) - store_hits
    if not write_back:
        stats.memory_writes += store_hits
    hit_s[heads] = hit_h
    hitmask[order] = hit_s
