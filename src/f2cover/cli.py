"""Command-line front end: construct, verify, restrict, code, bound, table, solve, decide.

Machine output is JSON on stdout; the human summary is one line on stderr.
Exit codes: 0 success or verified, 1 negative result (not a cover, refuted,
rule not applicable), 2 usage error, 3 budget exhausted.

Budget flags fall back to the environment: F2COVER_MAX_NODES and
F2COVER_MAX_SECONDS apply to solve/decide when the flags are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import (
    LedgerContradiction,
    _closed_form_rules,
    anchors_from_json,
    bundled_search_anchors,
    format_table,
    propagate,
)
from .codes import (
    code_from_cover,
    code_from_json,
    cover_from_code,
    golay_cover,
    golay_generator,
    min_distance,
)
from .constructions import (
    diagonal_cover,
    gv_random_cover,
    lemma31_cover,
    smax_cover,
    thm_a_cover,
)
from .covers import (
    Cover,
    cover_from_json,
    restrict_to_hyperplane,
    restriction_census,
    verify,
)
from .gf2core import GFVector
from .solver import decide, solve_g, solve_min

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _say(text: str) -> None:
    print(text, file=sys.stderr)


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _read_doc(path: str | None) -> dict:
    if path is None:
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _parse_mask(text: str) -> int:
    # Accepts the document forms: 0x.. hex, 0b.. binary, or plain decimal.
    return int(text, 0)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _budgets(args: argparse.Namespace) -> tuple[int | None, float | None]:
    nodes = args.budget_nodes
    if nodes is None and os.environ.get("F2COVER_MAX_NODES"):
        nodes = int(os.environ["F2COVER_MAX_NODES"])
    seconds = args.budget_seconds
    if seconds is None and os.environ.get("F2COVER_MAX_SECONDS"):
        seconds = float(os.environ["F2COVER_MAX_SECONDS"])
    return nodes, seconds


def _cmd_construct(args: argparse.Namespace) -> int:
    family = args.family
    if family == "golay":
        C = golay_cover()
    elif family == "diag":
        _require(args.k is not None, "--family diag needs --k")
        _require(args.n is None or args.n == args.k, "diag fixes n = k")
        C = diagonal_cover(args.k)
    else:
        _require(args.n is not None and args.k is not None,
                 f"--family {family} needs --n and --k")
        if family == "gv":
            _require(args.d == 1, "--family gv is d=1 only")
            C = gv_random_cover(args.n, args.k, seed=args.seed)
        elif family == "thma":
            C = thm_a_cover(args.n, args.k, args.d)
        elif family == "l31":
            C = lemma31_cover(args.n, args.k, args.d)
        else:
            C = smax_cover(args.n, args.k, args.d)
    report = verify(C, max(args.k or 1, 1))
    _emit(C.to_json(), args.out)
    _say(
        f"{family}: n={C.n} d={C.d} size={C.size} "
        f"s={report.origin_count} min_nonzero={report.min_nonzero}"
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    C = cover_from_json(_read_doc(args.infile))
    report = verify(C, args.k)
    _emit(report.to_json(), args.out)
    ok = report.is_cover_for(args.k)
    verdict = "is" if ok else "is NOT"
    _say(
        f"{verdict} a (k={args.k}, d={C.d})-cover of F_2^{C.n}: "
        f"size={C.size} s={report.origin_count} min_nonzero={report.min_nonzero}"
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_restrict(args: argparse.Namespace) -> int:
    C = cover_from_json(_read_doc(args.infile))
    u = GFVector(_parse_mask(args.normal), C.n)
    x, y = restriction_census(C, u)
    R = restrict_to_hyperplane(C, u)
    _emit(R.to_json(), args.out)
    _say(f"restricted to n={R.n}: size {C.size} -> {R.size} (|X|={x}, |Y|={y})")
    return EXIT_OK


def _cmd_code(args: argparse.Namespace) -> int:
    action = args.action
    if action == "golay":
        code = golay_generator()
        _emit(code.to_json(), args.out)
        _say(f"[{code.length},{code.dim}] generator emitted")
        return EXIT_OK
    if action == "mindist":
        code = code_from_json(_read_doc(args.infile))
        dist = min_distance(code)
        _emit({"length": code.length, "dimension": code.dim,
               "min_distance": dist}, args.out)
        _say(f"[{code.length},{code.dim}] code: min distance {dist}")
        return EXIT_OK
    if action == "from-cover":
        C = cover_from_json(_read_doc(args.infile))
        code = code_from_cover(C)
        _emit(code.to_json(), args.out)
        _say(f"cover of F_2^{C.n} -> [{code.length},{code.dim}] code")
        return EXIT_OK
    code = code_from_json(_read_doc(args.infile))
    C = cover_from_code(code)
    _emit(C.to_json(), args.out)
    _say(f"[{code.length},{code.dim}] code -> cover of F_2^{C.n} "
         f"size {C.size}")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    n, k, d = args.n, args.k, args.d
    _require(1 <= d <= n, "need 1 <= d <= n")
    _require(k >= 1, "need k >= 1")
    if args.s is not None:
        _require(0 <= args.s <= k - 1, "need 0 <= s <= k-1")
    rules = _closed_form_rules(n, k, d, args.s)
    if args.rule is not None:
        rules = [r for r in rules if r[0] == args.rule]
        if not rules:
            _say(f"rule {args.rule} not applicable at n={n} k={k} d={d}")
            return EXIT_NEGATIVE
    lo = max((v for _, side, v in rules if side in ("lo", "both")), default=None)
    hi = min((v for _, side, v in rules if side in ("hi", "both")), default=None)
    doc: dict = {
        "n": n, "k": k, "d": d,
        "rules": [{"tag": t, "side": side, "value": v} for t, side, v in rules],
        "lo": lo, "hi": hi,
    }
    if args.s is not None:
        doc["s"] = args.s
    _emit(doc, args.out)
    _say(f"n={n} k={k} d={d}" + (f" s={args.s}" if args.s is not None else "")
         + f": lo={lo} hi={hi}")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    anchors = [] if args.no_default_anchors else list(bundled_search_anchors())
    if args.anchors is not None:
        anchors.extend(anchors_from_json(_read_doc(args.anchors)))
    anchors = [a for a in anchors if a.d == args.d]
    try:
        ledger = propagate(args.nmax, args.kmax, args.d, tuple(anchors))
    except LedgerContradiction as exc:
        _say(f"bound contradiction: {exc}")
        return EXIT_NEGATIVE
    if args.format == "json":
        _emit(ledger.to_json(), args.out)
    else:
        text = format_table(ledger, args.format)
        if args.out is None:
            print(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    exact = sum(1 for e in ledger.cells.values() if e.exact)
    _say(f"{len(ledger.cells)} cells, {exact} exact, {len(anchors)} anchors")
    return EXIT_OK


def _solver_kwargs(args: argparse.Namespace) -> dict:
    nodes, seconds = _budgets(args)
    extra = None
    if args.seed_cover is not None:
        extra = cover_from_json(_read_doc(args.seed_cover))
    return {"max_nodes": nodes, "max_seconds": seconds, "extra_seed": extra}


def _emit_solve(result, label: str, args: argparse.Namespace) -> int:
    _emit(result.to_json(), args.out)
    value = "-" if result.value is None else str(result.value)
    _say(f"{label}: {result.status} value={value} nodes={result.nodes} "
         f"proof_lo={result.proof_lo}")
    if result.status == "unknown":
        return EXIT_BUDGET
    if result.status == "infeasible":
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    kw = _solver_kwargs(args)
    if args.s_max:
        args.s = args.k - 1
    if args.s is not None:
        result = solve_g(args.n, args.k, args.d, args.s, **kw)
        label = f"g({args.n},{args.k},{args.d};{args.s})"
    else:
        result = solve_min(
            args.n, args.k, args.d,
            assume_high_origin=args.assume_high_origin, **kw,
        )
        label = f"f({args.n},{args.k},{args.d})"
    return _emit_solve(result, label, args)


def _cmd_decide(args: argparse.Namespace) -> int:
    kw = _solver_kwargs(args)
    if args.s_max:
        args.s = args.k - 1
    result = decide(args.n, args.k, args.d, args.size, s=args.s, **kw)
    label = f"exists size <= {args.size} at ({args.n},{args.k},{args.d})"
    return _emit_solve(result, label, args)


def _add_io(p: argparse.ArgumentParser, reads: bool = True) -> None:
    if reads:
        p.add_argument("--in", dest="infile", metavar="FILE", default=None,
                       help="input JSON document (default stdin)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="output path (default stdout)")


def _add_budgets(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=None, metavar="N")
    p.add_argument("--budget-seconds", type=float, default=None, metavar="X")
    p.add_argument("--seed-cover", metavar="FILE", default=None,
                   help="extra seed cover JSON for the upper bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2cover",
        description="Multiplicity covers of F_2^n minus the origin by "
                    "codimension-d affine subspaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="emit a named construction as cover JSON")
    p.add_argument("--family", required=True,
                   choices=("thma", "l31", "smax", "diag", "gv", "golay"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="RNG seed for --family gv")
    _add_io(p, reads=False)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a cover document against k")
    p.add_argument("--k", type=int, required=True)
    _add_io(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("restrict", help="restrict a cover to a linear hyperplane")
    p.add_argument("--normal", required=True, metavar="MASK",
                   help="nonzero normal vector, e.g. 0x5")
    _add_io(p)
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("code", help="linear-code conversions")
    p.add_argument("action", choices=("golay", "mindist", "from-cover", "to-cover"))
    _add_io(p)
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("bound", help="closed-form bounds for one cell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--s", type=int, default=None,
                   help="origin count: report fixed-s bounds instead")
    p.add_argument("--rule", default=None, metavar="TAG",
                   help="single rule by tag; exit 1 if not applicable")
    _add_io(p, reads=False)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", help="propagated bound table over a rectangle")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--anchors", metavar="FILE", default=None,
                   help="extra anchors JSON merged over the bundled set")
    p.add_argument("--no-default-anchors", action="store_true",
                   help="drop the bundled search anchors")
    p.add_argument("--format", choices=("json", "md", "csv"), default="md")
    _add_io(p, reads=False)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("solve", help="minimise cover size, exact branch and bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--s", type=int, default=None, help="fix the origin count")
    g.add_argument("--s-max", action="store_true", help="fix s = k-1")
    p.add_argument("--assume-high-origin", action="store_true",
                   help="restrict the window to s >= k-2")
    _add_budgets(p)
    _add_io(p, reads=False)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decide", help="does a cover of the given size exist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--size", type=int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--s", type=int, default=None, help="fix the origin count")
    g.add_argument("--s-max", action="store_true", help="fix s = k-1")
    _add_budgets(p)
    _add_io(p, reads=False)
    p.set_defaults(func=_cmd_decide)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        _say(str(exc))
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        _say(f"bad JSON input: {exc}")
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        # Well-formed flags, but the inputs reject: bad document, regime
        # not applicable, dimension mismatch.
        _say(f"error: {exc}")
        return EXIT_NEGATIVE
    except OSError as exc:
        _say(f"io error: {exc}")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
