"""The benchmark's client process: runs requests against the public API.

Started by ``run.py``; it puts the checkout's ``src`` on its own path. It
reads one JSON command per line on stdin and answers one JSON line on
stdout:

* ``{"op": "run", "request": {...}}`` -> ``{"ok", "ms", "result",
  "counts"}`` (plus ``"selfs"``/``"calls"`` while tracing); ``ms`` is
  the host time of the call alone, measured here;
* ``{"op": "trace", "on": bool}`` -> ``{"ok": true}``;
* ``{"op": "exit"}`` -> ``{"ok": true, "peak_rss_mb": ...}``, then exits.

``--mode reference`` runs every request the slow, independent way for
the oracle (interpreter instead of JIT, serial Life, a scalar MMU walk)
and also counts simulated events. The worker never sees the seed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import repro.analysis.opt  # noqa: E402,F401  (imports count as set-up)
from repro.cluster import ClusterLife, map_reduce_translate, shard_items  # noqa: E402
from repro.core.machine import (  # noqa: E402
    Access,
    BarrierWait,
    GilConfig,
    IoWait,
    Join,
    Lock,
    SemPost,
    SemWait,
    SimMachine,
    SyncCosts,
    Unlock,
    Work,
)
from repro.core.sync import Barrier, Mutex, Semaphore  # noqa: E402
from repro.life import ParallelLife, step  # noqa: E402
from repro.system import run_system  # noqa: E402
from repro.vm.mmu import MMU  # noqa: E402
from repro.vm.physical import PhysicalMemory  # noqa: E402

from tracing import Tracer  # noqa: E402


def _grid(rows: list[str]) -> np.ndarray:
    return np.array([[c == "1" for c in row] for row in rows], dtype=np.uint8)


def _digest(parts) -> str:
    return hashlib.sha256("\n".join(map(repr, parts)).encode()).hexdigest()


def schedule_fingerprint(machine: SimMachine) -> str:
    """SHA-256 of every scheduling decision a SimMachine made."""
    parts = [machine.makespan, machine.total_work_cycles, *machine.timeline]
    parts += [(t.tid, t.name, t.state, t.finish_time, t.busy_cycles,
               t.blocked_cycles) for t in machine.threads]
    return _digest(parts)


def grid_digest(grid: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(grid, dtype=np.uint8)
                          .tobytes()).hexdigest()


def _gil(spec):
    return GilConfig(*spec) if spec else None


class Worker:
    """Executes requests, timed (JIT and all) or as the reference."""

    def __init__(self, reference: bool) -> None:
        self.reference = reference
        #: simulated events yielded by thread bodies (reference mode)
        self._events = 0

    # -- ISA requests --------------------------------------------------------

    def isa(self, req: dict) -> tuple[dict, dict]:
        run = dict(bus=req["bus"], procs=req["procs"],
                   jit=req["jit"] and not self.reference)
        report = run_system(req["source"], opt=req["opt"], **run)
        if report.faults:
            raise RuntimeError(f"program faulted: {report.faults}")
        exits = report.exit_statuses
        if self.reference and req["opt"]:
            # the optimizer must not change what the program computes
            exits = run_system(req["source"], opt=False, **run).exit_statuses
        result = {"exit": {str(pid): s for pid, s in sorted(exits.items())},
                  "counters": report.counters(),
                  "work": report.instructions}
        counts = {"instructions": report.instructions}
        if report.opt:
            counts["opt.static_cut"] = (report.opt["static_before"]
                                        - report.opt["static_after"])
            counts["opt.rejections"] = len(report.opt["rejections"])
        if report.jit:
            counts["jit.blocks_compiled"] = report.jit["blocks_compiled"]
            counts["jit.side_exits"] = report.jit["side_exits"]
            counts["jit.steps"] = report.jit["jit_steps"]
        if report.cache_levels:
            l1 = report.cache_levels[0]
            counts["cache.accesses"] = l1["accesses"]
            counts["cache.l1_hits"] = l1["hits"]
        if report.tlb:
            counts["tlb.hits"] = report.tlb["hits"]
            counts["tlb.misses"] = report.tlb["misses"]
            counts["vm.page_faults"] = report.vm["page_faults"]
        if report.kernel:
            counts["kernel.slices"] = report.kernel["total_units"]
            counts["kernel.context_switches"] = \
                report.kernel["context_switches"]
        return result, counts

    # -- SimMachine requests -------------------------------------------------

    def _body(self, script, threads, mutex, barrier, sem):
        for action in script:
            op = action[0]
            if op == "work":
                yield Work(action[1])
            elif op == "io":
                yield IoWait(action[1])
            elif op == "access":
                yield Access(action[1], action[2])
            elif op == "lock":
                yield Lock(mutex)
            elif op == "unlock":
                yield Unlock(mutex)
            elif op == "sem_wait":
                yield SemWait(sem)
            elif op == "sem_post":
                yield SemPost(sem)
            elif op == "barrier":
                yield BarrierWait(barrier)
            elif op == "join":
                yield Join(threads[action[1]])
            else:
                raise ValueError(f"unknown thread action {op!r}")

    def threads(self, req: dict) -> tuple[dict, dict]:
        scripts = req["scripts"]
        machine = SimMachine(req["cores"], costs=SyncCosts(**req["costs"]),
                             gil=_gil(req["gil"]))
        mutex = Mutex("m")
        barrier = Barrier(len(scripts), name="b")
        sem = Semaphore(max(1, len(scripts) - 1), name="s")
        threads: list = []
        for i, script in enumerate(scripts):
            threads.append(machine.spawn(self._counted(self._body), script,
                                         threads, mutex, barrier, sem,
                                         name=f"t{i}"))
        machine.run()
        return self._machine_result(machine), self._machine_counts(machine)

    def parallel_life(self, req: dict) -> tuple[dict, dict]:
        grid = _grid(req["grid"])
        engine = ParallelLife(grid, threads=req["threads"], gil=_gil(req["gil"]))
        if self.reference:
            engine.machine.spawn = self._counting_spawn(engine.machine.spawn)
        final = engine.run(req["rounds"])
        result = self._machine_result(engine.machine)
        if self.reference:
            # the independent oracle: the serial engine's grid
            for _ in range(req["rounds"]):
                grid = step(grid)
            final = grid
        result["grid"] = grid_digest(final)
        return result, self._machine_counts(engine.machine)

    def _machine_result(self, machine: SimMachine) -> dict:
        result = {"makespan": machine.makespan,
                  "fingerprint": schedule_fingerprint(machine)}
        if self.reference:
            result["work"] = self._events
            self._events = 0
        return result

    @staticmethod
    def _machine_counts(machine: SimMachine) -> dict:
        return {"gil.handoffs": machine.gil_stats.handoffs}

    def _counted(self, body):
        if not self.reference:
            return body

        def counted(*args, **kwargs):
            for event in body(*args, **kwargs):
                self._events += 1
                yield event
        return counted

    def _counting_spawn(self, spawn):
        def counting_spawn(body, *args, **kwargs):
            return spawn(self._counted(body), *args, **kwargs)
        return counting_spawn

    # -- cluster requests ----------------------------------------------------

    def cluster_life(self, req: dict) -> tuple[dict, dict]:
        grid = _grid(req["grid"])
        res = ClusterLife(grid, nodes=req["nodes"]).run(req["rounds"])
        final = res.grid
        if self.reference:
            for _ in range(req["rounds"]):
                grid = step(grid)
            final = grid
        result = {"makespan": res.makespan, "grid": grid_digest(final),
                  "populations": res.round_populations,
                  "net": res.net_counters,
                  "work": int(res.net_counters["messages"])}
        return result, self._net_counts(res.net_counters)

    def map_reduce(self, req: dict) -> tuple[dict, dict]:
        vaddrs = req["vaddrs"]
        res = map_reduce_translate(vaddrs, nodes=req["nodes"],
                                   schedule=req["schedule"])
        merged = res.merged
        if self.reference:
            merged = scalar_translate(vaddrs, req["nodes"], req["schedule"])
        result = {"merged": merged, "makespan": res.makespan,
                  "net": res.net_counters,
                  "work": int(res.net_counters["messages"])}
        counts = self._net_counts(res.net_counters)
        counts["tlb.hits"] = merged["tlb_hits"]
        counts["tlb.misses"] = merged["tlb_misses"]
        counts["vm.page_faults"] = merged["page_faults"]
        return result, counts

    @staticmethod
    def _net_counts(net: dict) -> dict:
        return {"network.messages": net["messages"],
                "network.bytes": net["bytes"]}

    # -- dispatch ------------------------------------------------------------

    def execute(self, req: dict) -> tuple[dict, dict]:
        """Run one request; returns (result for the oracle, layer counts)."""
        handlers = {"isa": self.isa, "threads": self.threads,
                    "parallel_life": self.parallel_life,
                    "cluster_life": self.cluster_life,
                    "map_reduce": self.map_reduce}
        if req["kind"] not in handlers:
            raise ValueError(f"unknown request kind {req['kind']!r}")
        return handlers[req["kind"]](req)


def scalar_translate(vaddrs: list[int], nodes: int, schedule: str) -> dict:
    """The map-reduce totals recomputed one ``MMU.access`` at a time.

    Same shards, same per-node MMU shape as ``map_reduce_translate``'s
    defaults, but the scalar walk instead of the batched one.
    """
    page_size = 4096
    num_pages = max(vaddrs) // page_size + 1
    total = dict.fromkeys(("accesses", "tlb_hits", "tlb_misses",
                           "page_faults", "evictions", "writebacks"), 0)
    for idxs in shard_items(len(vaddrs), nodes, schedule):
        if not idxs:
            continue
        mmu = MMU(PhysicalMemory(64, page_size), page_size=page_size,
                  tlb_entries=16)
        mmu.create_process(0, num_pages)
        for i in idxs:
            t = mmu.access(vaddrs[i], pid=0)
            total["tlb_hits"] += t.tlb_hit
        total["accesses"] += mmu.stats.accesses
        total["page_faults"] += mmu.stats.page_faults
        total["evictions"] += mmu.stats.evictions
        total["writebacks"] += mmu.stats.writebacks
    total["tlb_misses"] = total["accesses"] - total["tlb_hits"]
    return total


def main() -> int:
    reference = "--mode" in sys.argv and \
        sys.argv[sys.argv.index("--mode") + 1] == "reference"
    worker = Worker(reference)
    tracer = Tracer()
    tracing = False
    out = sys.stdout
    sys.stdout = sys.stderr       # stray prints must not corrupt replies
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "exit":
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply = {"ok": True, "peak_rss_mb": rss_kb / 1024}
        elif op == "trace":
            tracing = bool(cmd["on"])
            tracer.install() if tracing else tracer.uninstall()
            reply = {"ok": True}
        else:
            req = cmd["request"]
            t0 = time.perf_counter()
            try:
                if tracing:
                    (result, counts), selfs, wall_ns, calls = tracer.request(
                        req["id"], worker.execute, req)
                    reply = {"ok": True, "ms": wall_ns / 1e6,
                             "result": result, "counts": counts,
                             "selfs": selfs, "calls": calls}
                else:
                    result, counts = worker.execute(req)
                    ms = (time.perf_counter() - t0) * 1e3
                    reply = {"ok": True, "ms": ms, "result": result,
                             "counts": counts}
            except Exception as exc:  # a failed request is data, not a crash
                traceback.print_exc()
                reply = {"ok": False, "ms": (time.perf_counter() - t0) * 1e3,
                         "error": f"{type(exc).__name__}: {exc}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()
        if op == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
