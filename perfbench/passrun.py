"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload W --seed N --trace 0|1 \
        --key perfbench/answers.json --t0 <time.monotonic() at spawn> [--probe]

Imports f2cover from the checkout's `src`, builds the pass's inputs and
reports `setup_s`, the time from the spawn to the first operation being
ready.  With --probe it stops there; otherwise it runs every operation
once, one at a time, and prints one JSON line with the latencies, the
failures, the solver's node count, ru_maxrss and, traced, the spans and
the estimated cost of tracing.  Layer calls go through `tracing.Layer`
proxies only when traced.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType, SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("gf2core", "covers", "constructions", "codes", "bounds", "solver", "cli")


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"f2cover.{name}") for name in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"f2cover imported from {where}, not from {src}")
    return mods


def _pool_probe(gf2core, tracer, n: int, d: int) -> None:
    """Build the solver's pool for (n, d) and its per-point index as the
    solver's search does on entry, under spans.

    point_mask runs once per subspace, so one span covers the whole batch.
    The index (each subspace's points, and for each point the bit set of
    the subspaces through it) is solver code, so it gets a span of its own.
    """
    with tracer.span("probe.pool"):
        with tracer.span("gf2core.enumerate_subspaces"):
            pool = gf2core.enumerate_subspaces(n, d)
        with tracer.span("gf2core.point_mask"):
            masks = [gf2core.point_mask(S) for S in pool]
        with tracer.span("solver.pool_index"):
            points = [tuple(q for q in range(1 << n) if m >> q & 1) for m in masks]
            coverers = [0] * (1 << n)
            for i, pts in enumerate(points):
                for q in pts:
                    coverers[q] |= 1 << i
    tracer.count("gf2core.pool_subspaces", len(pool))


def _span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a call through a `tracing.Layer` proxy adds to a direct call.

    Timed on a no-op module in the pass's own interpreter, median of repeats.
    """
    mod = ModuleType("calibration")
    mod.noop = lambda: None
    layer = tracing.Layer(mod, tracing.Tracer())
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            layer.noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            mod.noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--key", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    mods = _import_program()
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    layers = {
        name: tracing.Layer(mod, tracer) if args.trace else mod for name, mod in mods.items()
    }
    key = json.loads(Path(args.key).read_text())
    ops = workloads.build(args.workload, args.seed, key)
    p = workloads.Pass(L=SimpleNamespace(**layers), tr=tracer, key=key)
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies_ms: list[tuple[str, float]] = []
    failures: list[str] = []
    probe_s = 0.0
    proxied = 0  # layer calls made through a proxy during the operations
    start = time.perf_counter()
    for op in ops:
        if args.trace and op.pool is not None:
            t = time.perf_counter()
            _pool_probe(mods["gf2core"], tracer, *op.pool)
            probe_s += time.perf_counter() - t
        before = len(tracer.spans) if args.trace else 0
        t = time.perf_counter()
        try:
            with tracer.span(f"op.{op.kind}"):
                op.run(p)
        except Exception as exc:  # any raise is a failed operation, not a crash
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        latencies_ms.append((op.label, (time.perf_counter() - t) * 1e3))
        if args.trace:
            proxied += len(tracer.spans) - before - 1  # less the op's own span
    wall_s = time.perf_counter() - start

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "latencies_ms": latencies_ms,
        "attempted": len(ops),
        "failures": failures,
        "nodes": p.nodes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
    }
    if args.trace:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
        out["trace_cost_s"] = proxied * _span_cost()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
