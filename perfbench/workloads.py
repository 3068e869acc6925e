"""The three workloads: seeded inputs, the operations of one pass, and
the checks that decide whether each operation's answer is right.

An operation reaches f2cover only through `p.L`, a namespace holding
one entry per package module (plain modules untraced, `tracing.Layer`
proxies traced), so the same code runs in both modes.  This module does
not import f2cover itself.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

WHY = {
    "prove": (
        "exhaustive d=1 proofs: nearly all time is the solver's node loop and "
        "pools hold at most 62 subspaces, so a search change shows here and a "
        "pool change should not"
    ),
    "witness": (
        "find-first d=2,3 decides where no construction fits the origin count: "
        "building the pool and the solver's per-point index over it is 80-93% "
        "of the solve time, and the solver stops at its first cover instead of "
        "exhausting the tree"
    ),
    "certify": (
        "about 1,900 short certificate operations and no search: covers, "
        "constructions, codes, bounds and the CLI document path"
    ),
}


class Wrong(Exception):
    """An operation returned an answer that disagrees with the key."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


@dataclass
class Pass:
    """What the operations of one pass share."""

    L: object
    tr: object
    key: dict
    nodes: int = 0
    memo: dict = field(default_factory=dict)


@dataclass
class Op:
    """One closed-loop operation; `pool` is the (n, d) whose pool it searches."""

    kind: str
    label: str
    run: Callable[[Pass], None]
    pool: tuple[int, int] | None = None


# ---------------------------------------------------------------- helpers


def _solve(p: Pass, call: str, n: int, k: int, d: int, s: int, size: int | None):
    if call == "decide":
        res = p.L.solver.decide(n, k, d, size, s=s)
    elif call == "solve_g":
        res = p.L.solver.solve_g(n, k, d, s)
    else:
        res = p.L.solver.solve_min(n, k, d)
    p.nodes += res.nodes
    return res


def _verify(p: Pass, C, k: int):
    p.tr.count("covers.verify_calls", 1)
    p.tr.count("covers.incidences", C.size << (C.n - C.d))
    return p.L.covers.verify(C, k)


def _build(p: Pass, family: str, *args, **kwargs):
    p.tr.count("constructions.covers_built", 1)
    return getattr(p.L.constructions, family)(*args, **kwargs)


def _min_distance(p: Pass, code) -> int:
    p.tr.count("codes.messages", (1 << code.dim) - 1)
    return p.L.codes.min_distance(code)


def _propagate(p: Pass, n_max: int, k_max: int, d: int):
    ledger = p.L.bounds.propagate(n_max, k_max, d, p.L.bounds.bundled_search_anchors())
    p.tr.count("bounds.cells", len(ledger.cells))
    return ledger


def _cli(p: Pass, argv: list[str], stdin: str = "") -> tuple[int, str]:
    """cli.run with stdin, stdout and stderr held in memory."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = p.L.cli.run(argv)
    finally:
        sys.stdin = saved
    text = out.getvalue()
    p.tr.count("cli.calls", 1)
    p.tr.count("cli.json_bytes", len(text))
    return code, text


def _check_certificate(p: Pass, C, n: int, k: int, d: int, s: int, size: int) -> None:
    """The certificate covers as claimed, through the API and as a CLI document."""
    expect(C is not None, "no certificate")
    expect((C.n, C.d, C.size) == (n, d, size), f"certificate is n={C.n} d={C.d} size={C.size}")
    rep = _verify(p, C, k)
    expect(rep.is_cover_for(k), f"certificate min coverage {rep.min_nonzero} < k={k}")
    expect(rep.origin_count == s, f"certificate origin count {rep.origin_count} != s={s}")
    code, text = _cli(p, ["verify", "--k", str(k)], json.dumps(C.to_json()))
    expect(code == 0, f"f2cover verify exits {code}")
    expect(json.loads(text)["origin_count"] == s, "f2cover verify disagrees on the origin count")
    if d == 1 and s == 0:
        # an origin-free hyperplane cover is a code whose distance is its coverage
        dist = _min_distance(p, p.L.codes.code_from_cover(C))
        expect(dist == rep.min_nonzero, f"code distance {dist} != min coverage {rep.min_nonzero}")


# ------------------------------------------------------------------ prove


def _prove_op(cell: dict) -> Op:
    n, k, d, s = cell["n"], cell["k"], cell["d"], cell["s"]

    def run(p: Pass) -> None:
        res = _solve(p, cell["call"], n, k, d, s, cell.get("size"))
        expect(res.status == cell["status"], f"status {res.status}, want {cell['status']}")
        f_lo = _propagate(p, n, k, d).entry(n, k).lo
        if res.status == "infeasible":
            expect(f_lo > cell["size"], f"ledger allows f({n},{k},{d}) = {f_lo} <= {cell['size']}")
            return
        expect(res.value == cell["value"], f"value {res.value}, want {cell['value']}")
        expect(res.value >= f_lo, f"value {res.value} below the ledger bound {f_lo}")
        _check_certificate(p, res.certificate, n, k, d, s, res.value)

    label = f"{cell['call']}({n},{k},{d};s={s})"
    return Op("prove", label, run, pool=(n, d))


# ---------------------------------------------------------------- witness


def _witness_op(cell: dict) -> Op:
    n, k, d, s, cap = cell["n"], cell["k"], cell["d"], cell["s"], cell["cap"]

    def run(p: Pass) -> None:
        res = _solve(p, "decide", n, k, d, s, cap)
        expect(res.status == "feasible", f"status {res.status}, want feasible")
        expect(res.value is not None and res.value <= cap, f"size {res.value} above cap {cap}")
        f_lo = _propagate(p, n, k, d).entry(n, k).lo
        expect(res.value >= f_lo, f"size {res.value} below the ledger bound {f_lo}")
        _check_certificate(p, res.certificate, n, k, d, s, res.value)
        # the construction seeds sit at origin counts k-2 and k-1, never at s
        for family, origin in (("lemma31_cover", k - 2), ("smax_cover", k - 1)):
            rep = _verify(p, _build(p, family, n, k, d), k)
            expect(rep.origin_count == origin, f"{family} origin {rep.origin_count} != {origin}")

    return Op("witness", f"decide({n},{k},{d};size<={cap},s={s})", run, pool=(n, d))


# ---------------------------------------------------------------- certify

# (n, d) strata and multiplicity ranges of the family grid.  Theorem A's
# family only exists for k >= 2^(n-d-1), so it is kept to small n-d.
FAMILY_STRATA = [(n, d) for n in range(3, 10) for d in (1, 2, 3) if d < n]
FAMILY_DRAWS = 30
GV_DRAWS = 250
CENSUS_DRAWS = 60
PIPELINE_REPEATS = 12
# Table 1 cells the solver closes at the root without search; f(5,4,1),
# the one that branches, is what the `prove` workload is made of.
ROOT_CELLS = (
    [(3, k) for k in range(3, 17)] + [(4, k) for k in range(3, 9)] + [(5, 3), (5, 5), (6, 3)]
)


def _size_formula(family: str, n: int, k: int, d: int) -> int:
    """Exact sizes of the families, from the paper."""
    if family == "thm_a_cover":
        return (k << d) - (k >> (n - d))
    if family == "lemma31_cover":
        return n + (k << d) - d - 2
    return n + (k << d) - d - 1


def _family_op(family: str, n: int, k: int, d: int) -> Op:
    def run(p: Pass) -> None:
        C = _build(p, family, n, k, d)
        want = _size_formula(family, n, k, d)
        expect(C.size == want, f"size {C.size}, want {want}")
        rep = _verify(p, C, k)
        expect(rep.is_cover_for(k), f"min coverage {rep.min_nonzero} < k={k}")
        if family == "lemma31_cover":
            expect(rep.origin_count == k - 2, f"origin count {rep.origin_count} != k-2")
        elif family == "smax_cover":
            expect(rep.origin_count == k - 1, f"origin count {rep.origin_count} != k-1")

    return Op("family", f"{family}({n},{k},{d})", run)


def _gv_op(n: int, k: int, seed: int) -> Op:
    def run(p: Pass) -> None:
        C = _build(p, "gv_random_cover", n, k, seed=seed)
        code = p.L.codes.code_from_cover(C)
        dist = _min_distance(p, code)
        expect(dist >= k, f"distance {dist} < k={k}")
        back = p.L.codes.cover_from_code(code)
        expect(back.entries == C.entries, "code -> cover round trip changed the cover")
        rep = _verify(p, back, dist)
        expect(rep.min_nonzero == dist and rep.origin_count == 0,
               f"coverage {rep.min_nonzero}/origin {rep.origin_count} != distance {dist}/0")

    return Op("gv", f"gv({n},{k},seed={seed})", run)


def _root_op(n: int, k: int, want: int) -> Op:
    def run(p: Pass) -> None:
        res = _solve(p, "solve_min", n, k, 1, 0, None)
        expect(res.status == "optimal" and res.value == want,
               f"{res.status} {res.value}, want optimal {want}")
        rep = _verify(p, res.certificate, k)
        expect(res.certificate.size == want and rep.is_cover_for(k), "certificate does not cover")

    return Op("root", f"solve_min({n},{k},1)", run)


def _golay_cli_op() -> Op:
    def run(p: Pass) -> None:
        golay = p.key["certify"]["golay"]
        code, gen = _cli(p, ["code", "golay"])
        expect(code == 0, f"code golay exits {code}")
        code, dist = _cli(p, ["code", "mindist"], gen)
        expect(code == 0 and json.loads(dist)["min_distance"] == golay["min_distance"],
               f"code mindist exits {code}: {dist.strip()}")
        code, cover = _cli(p, ["code", "to-cover"], gen)
        expect(code == 0 and len(json.loads(cover)["entries"]) == golay["length"],
               f"code to-cover exits {code}")
        code, report = _cli(p, ["verify", "--k", str(golay["min_distance"])], cover)
        rep = json.loads(report)
        expect(code == 0 and rep["origin_count"] == 0
               and rep["min_nonzero"] == golay["min_distance"],
               f"verify exits {code}: {report.strip()}")

    return Op("golay_cli", "code golay | to-cover | verify --k 8", run)


def _table_values(key: dict, k_max: int):
    for name in ("table1", "table2"):
        for n, row in key["certify"][name].items():
            for k, value in enumerate(row, start=3):
                if k <= k_max:
                    yield int(n), k, value


def _table_cli_op() -> Op:
    def run(p: Pass) -> None:
        code, text = _cli(p, ["table", "--nmax", "12", "--kmax", "10", "--format", "json"])
        expect(code == 0, f"table exits {code}")
        cells = {(c["n"], c["k"]): (c["lo"], c["hi"]) for c in json.loads(text)["cells"]}
        for n, k, value in _table_values(p.key, 10):
            expect(cells[(n, k)] == (value, value), f"f({n},{k},1) is {cells[(n, k)]}, want {value}")

    return Op("table_cli", "table --nmax 12 --kmax 10", run)


def _propagate_op() -> Op:
    def run(p: Pass) -> None:
        ledger = _propagate(p, 12, 16, 1)
        for n, k, value in _table_values(p.key, 16):
            e = ledger.entry(n, k)
            expect((e.lo, e.hi) == (value, value), f"f({n},{k},1) is [{e.lo},{e.hi}], want {value}")

    return Op("propagate", "propagate(12,16,1)", run)


def _census_op(u: int) -> Op:
    def run(p: Pass) -> None:
        if "golay" not in p.memo:
            p.memo["golay"] = p.L.codes.golay_cover()
        C = p.memo["golay"]
        normal = p.L.gf2core.GFVector(u, C.n)
        x, y = p.L.covers.restriction_census(C, normal)
        # {x.v=1} misses {x.u=0} exactly when v = u, and never lies inside it
        parallel = sum(mult for S, mult in C.entries if S.normals[0] == u)
        expect((x, y) == (parallel, 0), f"census ({x},{y}), want ({parallel},0)")
        R = p.L.covers.restrict_to_hyperplane(C, normal)
        expect(R.size == C.size - x, f"restricted size {R.size}, want {C.size - x}")
        rep = _verify(p, R, 8)
        expect(rep.origin_count == 0 and rep.min_nonzero >= 8,
               f"restriction lost coverage: {rep.min_nonzero}/origin {rep.origin_count}")

    return Op("census", f"restrict golay to u={u:#x}", run)


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count seeded draws from lo..hi, one from each of count equal slices.

    Every seed then gets about the same mix of small and large inputs, so
    a pass costs about the same whatever the seed.
    """
    width = hi - lo + 1
    return [lo + (i * width + rng.randrange(width)) // count for i in range(count)]


def _certify_ops(rng: random.Random, key: dict) -> list[Op]:
    ops: list[Op] = []
    for n, d in FAMILY_STRATA:
        if n - d <= 4:
            dense = 1 << max(n - d - 1, 0)
            ops += [_family_op("thm_a_cover", n, k, d)
                    for k in _spread(rng, dense, 2 * dense + 3, FAMILY_DRAWS)]
        ops += [_family_op("lemma31_cover", n, k, d) for k in _spread(rng, 2, 12, FAMILY_DRAWS)]
        ops += [_family_op("smax_cover", n, k, d) for k in _spread(rng, 1, 12, FAMILY_DRAWS)]
    gv_cells = [(n, k) for n in range(3, 9) for k in (2, 3, 4)]
    for i in range(GV_DRAWS):
        n, k = gv_cells[i % len(gv_cells)]
        ops.append(_gv_op(n, k, rng.randrange(1 << 30)))
    table1 = key["certify"]["table1"]
    for n, k in ROOT_CELLS:
        ops.append(_root_op(n, k, table1[str(n)][k - 3]))
    for _ in range(PIPELINE_REPEATS):
        ops += [_golay_cli_op(), _table_cli_op(), _propagate_op()]
    for i in range(CENSUS_DRAWS):
        # the unit vectors are rows of the systematic generator [I | B], so
        # half the normals find a parallel hyperplane and half most likely not
        u = 1 << rng.randrange(12) if i % 2 else rng.randint(1, (1 << 12) - 1)
        ops.append(_census_op(u))
    return ops


# ------------------------------------------------------------------ entry


def build(workload: str, seed: int, key: dict) -> list[Op]:
    """The operations of one pass.

    `prove` and `witness` run their fixed cells in key order whatever the
    seed: which pools are freed before the largest one is built moves
    peak RSS by about 15%.  `certify` draws its inputs and order from the seed.
    """
    if workload == "prove":
        return [_prove_op(c) for c in key["prove"]]
    if workload == "witness":
        return [_witness_op(c) for c in key["witness"]]
    if workload != "certify":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _certify_ops(rng, key)
    rng.shuffle(ops)
    return ops
