"""E21: the end-to-end and per-layer benchmark of the simulator stack.

    python3 perfbench/run.py --workload run-cached --seed 0 --seconds 15 --trace 0

Run from the root of a checkout. This controller never imports the
program: it generates the workload's requests from the seed, drives one
worker process (``worker.py``) in a closed loop -- one client, each
request sent after the previous reply -- and times the host-speed
reference kernel between requests. Both processes are pinned to one
vCPU and take turns, so the reference sees the same vCPU the request
just ran on. ``README.md`` documents every workload and metric.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones. The last stdout line is one JSON object; the exit code
is nonzero if any request failed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from refkernel import NOMINAL_REF_MS, time_reference  # noqa: E402
from tracing import LAYER_OF, LAYERS, ROOT as ROOT_LAYER, label  # noqa: E402
from workloads import WORKLOADS, digest, generate  # noqa: E402

#: the seed whose expected results are committed in goldens/
DEFAULT_SEED = 0
#: fewest timed requests per run, so p90 has at least 10 samples beyond it
MIN_REQUESTS = 100
#: hard cap on the timed window, so a run ends well within 180 s even
#: on a host too slow to reach MIN_REQUESTS
MAX_WINDOW_S = 90.0
#: fresh interpreters started per run; setup_s is their median
SETUP_PROBES = 7
#: references either side of a request that set its host-speed estimate
HALF_WINDOW = 2
#: largest tolerated gap between the traced self times and wall time
CONSERVATION_TOLERANCE = 0.03


# -- the worker process --------------------------------------------------------

class WorkerProcess:
    """One worker, spoken to over a JSON-lines pipe."""

    def __init__(self, mode: str = "timed") -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--mode", mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)

    def call(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self, request: dict) -> dict:
        return self.call(op="run", request=request)

    def close(self) -> dict:
        """Ask the worker to exit; returns its final report."""
        try:
            return self.call(op="exit")
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc.wait(timeout=30)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# -- expected results ----------------------------------------------------------

def golden_path(workload: str) -> Path:
    return HERE / "goldens" / f"{workload}.json"


def reference_results(requests: list[dict]) -> list[dict]:
    """Every request run the independent way, outside any timed window."""
    worker = WorkerProcess("reference")
    try:
        expected = []
        for req in requests:
            reply = worker.run(req)
            if not reply["ok"]:
                raise RuntimeError(f"reference run of request {req['id']} "
                                   f"failed: {reply['error']}")
            expected.append(reply["result"])
        worker.close()
        return expected
    finally:
        worker.kill()


def expected_results(workload: str, seed: int,
                     requests: list[dict]) -> list[dict]:
    """Committed goldens for the default seed, else a reference run."""
    if seed != DEFAULT_SEED:
        return reference_results(requests)
    golden = json.loads(golden_path(workload).read_text())
    if golden["digest"] != digest(requests):
        raise RuntimeError(f"{golden_path(workload)} does not match the "
                           "generator; regenerate it with make_goldens.py")
    return golden["expected"]


def matches(expected: dict, reply: dict) -> bool:
    """A reply passes if it succeeded and agrees with every expected
    field (``work`` is bookkeeping, not an output)."""
    if not reply["ok"]:
        return False
    got = reply["result"]
    return all(got.get(k) == v for k, v in expected.items() if k != "work")


# -- host-speed normalisation --------------------------------------------------

def local_refs(refs: list[float], n: int, half: int = HALF_WINDOW
               ) -> list[float]:
    """Host-speed estimate for each of ``n`` requests.

    ``refs[i]`` was timed just before request ``i`` and ``refs[i + 1]``
    just after it; request ``i`` gets the median of the ``2 * half``
    references around it, so a phase change moves it within a request or
    two while one slow reference sample does not.
    """
    return [statistics.median(refs[max(0, i - half + 1):i + half + 1])
            for i in range(n)]


def to_nominal(ms: float, ref_ms: float) -> float:
    """A host time measured while the reference took ``ref_ms``,
    expressed on the nominal host."""
    return ms * NOMINAL_REF_MS / ref_ms


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- end-to-end run (--trace 0) --------------------------------------------------

def setup_probe(first: dict, expected: dict) -> tuple[float, float, bool,
                                                       WorkerProcess]:
    """Fresh interpreter until the first request completes.

    Returns (seconds, host reference around it, correct, worker)."""
    before = [time_reference(), time_reference()]
    t0 = time.perf_counter()
    worker = WorkerProcess()
    reply = worker.run(first)
    seconds = time.perf_counter() - t0
    after = [time_reference(), time_reference()]
    return (seconds, statistics.median(before + after),
            matches(expected, reply), worker)


def end_to_end(requests: list[dict], expected: list[dict],
               seconds: float) -> tuple[dict, dict]:
    diag: dict = {"attempted": 0, "failed": 0}
    setups, setup_raw, setup_refs = [], [], []
    worker = None
    try:
        for _ in range(SETUP_PROBES):
            if worker is not None:
                worker.close()
            s, ref, ok, worker = setup_probe(requests[0], expected[0])
            diag["attempted"] += 1
            diag["failed"] += not ok
            setup_raw.append(s)
            setup_refs.append(ref)
            setups.append(to_nominal(s, ref))

        refs = [time_reference()]
        #: (host ms, simulated work) per timed request; a failed request
        #: keeps its time but does no work
        done: list[tuple[float, int]] = []
        passes = 0
        start = time.perf_counter()
        while True:
            for req, exp in zip(requests, expected):
                reply = worker.run(req)
                refs.append(time_reference())
                ok = matches(exp, reply)
                diag["attempted"] += 1
                diag["failed"] += not ok
                done.append((reply["ms"], exp["work"] if ok else 0))
            passes += 1
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(done) >= MIN_REQUESTS) \
                    or elapsed >= MAX_WINDOW_S:
                break
        peak_rss = worker.close()["peak_rss_mb"]
    finally:
        if worker is not None:
            worker.kill()

    ms = [m for m, _ in done]
    lat = [to_nominal(m, r) for m, r in zip(ms, local_refs(refs, len(ms)))]
    work = sum(w for _, w in done)
    metrics = {
        "kips": (work / sum(lat), "kIPS"),
        "lat_p50_ms": (percentile(lat, 50), "ms"),
        "lat_p90_ms": (percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    diag.update({
        "kips_raw": work / sum(ms),
        "lat_p50_ms_raw": percentile(ms, 50),
        "lat_p90_ms_raw": percentile(ms, 90),
        "setup_s_raw": statistics.median(setup_raw),
        "host_ref_ms": statistics.median(refs + setup_refs),
        "timed_requests": len(done), "passes": passes,
    })
    return metrics, diag


# -- per-layer run (--trace 1) -----------------------------------------------------

#: per-layer extra counts: name -> (unit, better)
LAYER_COUNTS = {
    "opt.static_cut": ("count", "higher"),
    "opt.rejections": ("count", "lower"),
    "jit.blocks_compiled": ("count", "lower"),
    "jit.coverage": ("ratio", "higher"),
    "jit.side_exits": ("count", "lower"),
    "cache.accesses": ("count", "lower"),
    "cache.l1_hit_rate": ("ratio", "higher"),
    "mmu.access_calls": ("count", "lower"),
    "mmu.batch_calls": ("count", "lower"),
    "tlb.hit_rate": ("ratio", "higher"),
    "vm.page_faults": ("count", "lower"),
    "kernel.slices": ("count", "lower"),
    "kernel.context_switches": ("count", "lower"),
    "simmachine.events": ("count", "lower"),
    "gil.handoffs": ("count", "lower"),
    "network.messages": ("count", "lower"),
    "network.bytes": ("bytes", "lower"),
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_ms", "ms", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    out += [(name, unit, better)
            for name, (unit, better) in LAYER_COUNTS.items()]
    out += [("other.self_ms", "ms", "lower"),
            ("trace.overhead", "ratio", "lower")]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(requests: list[dict], expected: list[dict],
              seconds: float) -> tuple[dict, dict]:
    diag: dict = {"attempted": 0, "failed": 0}
    selfs = dict.fromkeys(list(LAYERS) + [ROOT_LAYER], 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    fn_calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    totals = {False: 0.0, True: 0.0}     # normalised ms per tracing state
    npasses = {False: 0, True: 0}
    wall_ms = self_sum_ms = 0.0
    events = negative = 0
    worker = WorkerProcess()
    try:
        start = time.perf_counter()
        tracing = False
        while True:
            refs = [time_reference()]
            replies = []
            for req in requests:
                replies.append(worker.run(req))
                refs.append(time_reference())
            for reply, exp, ref, req in zip(
                    replies, expected, local_refs(refs, len(replies)),
                    requests):
                diag["attempted"] += 1
                diag["failed"] += not matches(exp, reply)
                if not reply["ok"]:
                    continue
                totals[tracing] += to_nominal(reply["ms"], ref)
                if not tracing:
                    continue
                wall_ms += reply["ms"]
                # a child span outlasting its parent means broken nesting
                negative += any(ns < 0 for ns in reply["selfs"].values())
                for layer, ns in reply["selfs"].items():
                    selfs[layer] += to_nominal(ns / 1e6, ref)
                    self_sum_ms += ns / 1e6
                for fn, n in reply["calls"].items():
                    calls[LAYER_OF[fn]] += n
                    fn_calls[fn] = fn_calls.get(fn, 0) + n
                for key, value in reply["counts"].items():
                    counts[key] = counts.get(key, 0) + value
                if req["kind"] in ("threads", "parallel_life"):
                    events += exp["work"]
            npasses[tracing] += 1
            elapsed = time.perf_counter() - start
            if npasses[True] and elapsed >= seconds:
                break
            tracing = not tracing
            worker.call(op="trace", on=tracing)
        diag["peak_rss_mb"] = worker.close()["peak_rss_mb"]
    finally:
        worker.kill()

    n = npasses[True]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (selfs[layer] / n, "ms")
        metrics[f"{layer}.calls"] = (calls[layer] / n, "count")
    get = counts.get
    derived = {
        "opt.static_cut": get("opt.static_cut", 0),
        "opt.rejections": get("opt.rejections", 0),
        "jit.blocks_compiled": get("jit.blocks_compiled", 0),
        "jit.coverage": _ratio(get("jit.steps", 0), get("instructions", 0)),
        "jit.side_exits": get("jit.side_exits", 0),
        "cache.accesses": get("cache.accesses", 0),
        "cache.l1_hit_rate": _ratio(get("cache.l1_hits", 0),
                                    get("cache.accesses", 0)),
        "mmu.access_calls": fn_calls.get(label("repro.vm.mmu", "MMU.access"), 0),
        "mmu.batch_calls": fn_calls.get(
            label("repro.vm.mmu", "MMU.translate_many"), 0),
        "tlb.hit_rate": _ratio(get("tlb.hits", 0),
                               get("tlb.hits", 0) + get("tlb.misses", 0)),
        "vm.page_faults": get("vm.page_faults", 0),
        "kernel.slices": get("kernel.slices", 0),
        "kernel.context_switches": get("kernel.context_switches", 0),
        "simmachine.events": events,
        "gil.handoffs": get("gil.handoffs", 0),
        "network.messages": get("network.messages", 0),
        "network.bytes": get("network.bytes", 0),
    }
    rates = {"jit.coverage", "cache.l1_hit_rate", "tlb.hit_rate"}
    for name, value in derived.items():
        unit = LAYER_COUNTS[name][0]
        metrics[name] = (value if name in rates else value / n, unit)
    metrics["other.self_ms"] = (selfs[ROOT_LAYER] / n, "ms")
    metrics["trace.overhead"] = (
        _ratio(totals[True] / n, totals[False] / npasses[False]), "ratio")
    diag["conservation_error"] = _ratio(abs(self_sum_ms - wall_ms), wall_ms)
    diag["negative_self_spans"] = negative
    diag["traced_passes"] = n
    diag["untraced_passes"] = npasses[False]
    return metrics, diag


# -- command line ------------------------------------------------------------------

def pin_to_one_cpu() -> None:
    """Pin this process (and the workers it starts) to one vCPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    requests = generate(args.workload, args.seed)
    expected = expected_results(args.workload, args.seed, requests)
    if args.trace:
        metrics, diag = per_layer(requests, expected, args.seconds)
        correct = (diag["conservation_error"] <= CONSERVATION_TOLERANCE
                   and diag["negative_self_spans"] == 0)
    else:
        metrics, diag = end_to_end(requests, expected, args.seconds)
        correct = True
    correct = correct and diag["failed"] == 0
    diag["fail_frac"] = diag["failed"] / diag["attempted"]

    print(f"E21 {args.workload} seed={args.seed} trace={args.trace} "
          f"({len(requests)} requests per pass)")
    for name, (value, unit) in metrics.items():
        raw = diag.pop(f"{name}_raw", None)
        note = "" if raw is None else \
            f"   raw {raw:.4f} at host_ref_ms {diag['host_ref_ms']:.4f}"
        print(f"  {name:<28} {value:>14.4f} {unit:<6}{note}".rstrip())
    for name, value in diag.items():
        print(f"  [diag] {name:<21} {value:>14.4f}"
              if isinstance(value, float) else f"  [diag] {name:<21} {value:>14}")
    print(json.dumps({
        "correct": correct,
        "attempted": diag["attempted"],
        "failed": diag["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
