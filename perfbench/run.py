"""f2cover benchmark runner.

    python3 perfbench/run.py --workload prove|witness|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload runs in a
fresh interpreter (`passrun.py`), one after another, so import-time work
and in-process memos are paid on every pass as a CLI user pays them.
The load is a closed loop: one client, one operation at a time, no
threads.  The run starts passes until S seconds have gone, at least one.

Untraced, it prints the end-to-end metrics; interpreters that only time
set-up run in small groups before the first pass and after every pass,
so `setup_s` samples the whole run.  Traced, it runs traced passes only
and prints the per-layer metrics, with the tracing overhead estimated
inside each pass.  Each metric is printed by name with its unit and
sample count, and the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The full result, with provenance, goes to perfbench/out/.
Exit status: 0 all answers right, 1 some operation failed, 2 no
f2cover source next to the benchmark, 3 a pass did not finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import self_times
from workloads import WHY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
KEY = HERE / "answers.json"
SETUP_PROBES = 8  # interpreters started only to time set-up, before the first pass and after each
RUN_LIMIT_S = 175.0  # a run must end within 180 s; passes are killed past this
# Passes load f2cover from cached bytecode, as an installed CLI does,
# whatever the caller's environment says.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "op_p50_ms": "ms", "op_p95_ms": "ms",
}
# per-layer time: metric name -> the span names whose self time it sums
LAYER_TIMES = {
    "solver.solve_s": ("solver.decide", "solver.solve_g", "solver.solve_min"),
    "solver.pool_index_s": ("solver.pool_index",),
    "gf2core.enumerate_s": ("gf2core.enumerate_subspaces",),
    "gf2core.point_mask_s": ("gf2core.point_mask",),
    "covers.verify_s": ("covers.verify",),
    "covers.restrict_s": ("covers.restrict_to_hyperplane", "covers.restriction_census"),
    "constructions.build_s": (
        "constructions.thm_a_cover", "constructions.lemma31_cover",
        "constructions.smax_cover", "constructions.gv_random_cover",
    ),
    "codes.min_distance_s": ("codes.min_distance",),
    "bounds.propagate_s": ("bounds.propagate",),
    "cli.run_s": ("cli.run",),
}
LAYER_COUNTS = (
    "gf2core.pool_subspaces", "covers.verify_calls", "covers.incidences",
    "constructions.covers_built", "codes.messages", "bounds.cells", "cli.calls",
    "cli.json_bytes",
)


class PassFailed(Exception):
    """A pass process crashed, timed out or printed no result."""


def p95_or_none(samples: list[float], beyond: int = 10) -> float | None:
    """Nearest-rank 95th percentile, or None when fewer than `beyond` samples lie above it."""
    xs = sorted(samples)
    rank = math.ceil(0.95 * len(xs))
    if rank == 0 or len(xs) - rank < beyond:
        return None
    return xs[rank - 1]


def _spawn(workload: str, seed: int, trace: int, key: Path, deadline: float,
           probe: bool = False) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--key", str(key), "--t0", repr(t0)]
    if probe:
        cmd.append("--probe")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise PassFailed(f"{workload} pass did not finish by the run's deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    self_s = self_times(result["spans"])
    out = {m: sum(self_s.get(n, 0.0) for n in names) for m, names in LAYER_TIMES.items()}
    out.update({c: result["counts"].get(c, 0) for c in LAYER_COUNTS})
    out["solver.nodes"] = result["nodes"]
    out["gf2core.pool_s"] = out["gf2core.enumerate_s"] + out["gf2core.point_mask_s"]
    # derived: the solver's time left after a pool and index like its own are built
    out["solver.search_s"] = (out["solver.solve_s"] - out["gf2core.pool_s"]
                              - out["solver.pool_index_s"])
    solve_s = out["solver.solve_s"]
    out["solver.nodes_per_s"] = out["solver.nodes"] / solve_s if solve_s > 0 else 0.0
    return out


def layer_unit(name: str) -> str:
    if name == "solver.nodes_per_s":
        return "1/s"
    if name == "trace.overhead":
        return "%"
    if name == "cli.json_bytes":
        return "bytes"
    return "s" if name.endswith("_s") else "count"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (checkout has no .git)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, python: str) -> dict:
    return {
        "python": python,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: int, trace: int, key: Path = KEY) -> tuple[dict, int]:
    """All passes of one run; returns the full result document and the exit code."""
    if not (ROOT / "src" / "f2cover" / "__init__.py").is_file():
        print(f"no f2cover source under {ROOT / 'src'}", file=sys.stderr)
        return {}, 2
    deadline = time.monotonic() + RUN_LIMIT_S
    setups: list[float] = []

    def time_setups() -> None:
        if not trace:
            setups.extend(_spawn(workload, seed, 0, key, deadline, probe=True)["setup_s"]
                          for _ in range(SETUP_PROBES))

    try:
        _spawn(workload, seed, 0, key, deadline, probe=True)  # fills the bytecode cache
        passes: list[dict] = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            time_setups()
            passes.append(_spawn(workload, seed, trace, key, deadline))
        time_setups()
    except PassFailed as exc:
        print(str(exc), file=sys.stderr)
        return {}, 3

    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    metrics: dict[str, dict] = {}
    if not trace:
        setups += [r["setup_s"] for r in passes]
        latencies = [ms for r in passes for _, ms in r["latencies_ms"]]
        p95 = p95_or_none(latencies)
        if p95 is not None:
            tail = (p95, len(latencies), "nearest-rank p95 over operations")
        else:
            by_op: dict[str, list[float]] = {}
            for r in passes:
                for label, ms in r["latencies_ms"]:
                    by_op.setdefault(label, []).append(ms)
            tail = (max(statistics.median(v) for v in by_op.values()), len(latencies),
                    "fewer than 10 samples lie beyond p95: the slowest operation, "
                    "by its median over passes")
        values = {
            "wall_s": (statistics.median(r["wall_s"] for r in passes), len(passes), "median over passes"),
            "setup_s": (statistics.median(setups), len(setups), "median over interpreters"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in passes), len(passes),
                            "median over passes of ru_maxrss"),
            "op_p50_ms": (statistics.median(latencies), len(latencies), "median over operations"),
            "op_p95_ms": tail,
        }
        for name, (value, samples, how) in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name],
                             "samples": samples, "how": how}
    else:
        per_pass = [layer_metrics(r) for r in passes]
        for name in per_pass[0]:
            metrics[name] = {"value": statistics.median(m[name] for m in per_pass),
                             "unit": layer_unit(name), "samples": len(per_pass),
                             "how": "median over traced passes of the per-pass total"}
        metrics["trace.overhead"] = {
            "value": statistics.median(
                100.0 * r["trace_cost_s"] / (r["wall_s"] - r["probe_s"] - r["trace_cost_s"])
                for r in passes),
            "unit": "%", "samples": len(passes),
            "how": "spans opened during the operations times the per-span cost timed in "
                   "the same pass, against the pass's wall time without tracing cost and "
                   "pool probes, median over traced passes",
        }

    doc = {
        "workload": workload,
        "why": WHY[workload],
        "trace": trace,
        "seconds": seconds,
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "solver_nodes_per_pass": [r["nodes"] for r in passes],
        "wall_s_per_pass": [r["wall_s"] for r in passes],
        "setup_s_per_interpreter": setups,
        "metrics": metrics,
        "provenance": provenance(seed, passes[0]["python"]),
    }
    if trace:
        doc["spans"] = [r["spans"] for r in passes]
    return doc, 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(WHY), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    doc, code = run(args.workload, args.seed, args.seconds, args.trace)
    if not doc:
        return code
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {doc['passes']} passes, "
          f"{doc['attempted']} operations, solver nodes per pass {doc['solver_nodes_per_pass']}")
    for name, m in doc["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6f} {m['unit']:6s} samples={m['samples']} ({m['how']})")
    print(f"  {'fail_ratio':28s} {doc['fail_ratio']:>16.6f} {'ratio':6s} "
          f"({doc['failed']} of {doc['attempted']} operations)")
    for failure in doc["failures"][:20]:
        print(f"  FAILED {failure}")
    print("provenance: " + json.dumps(doc["provenance"]))
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in doc["metrics"].items()},
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
