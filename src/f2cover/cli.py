"""Command-line front end: construct, verify, restrict, code, bound, table, solve, decide.

Machine output is JSON on stdout; the human summary is one line on stderr.
Exit codes: 0 success or verified, 1 negative result (not a cover, refuted,
rule not applicable) or malformed input document, 2 usage error (bad
flags; n, k, d, s or size out of range; n above 20 for construct, solve
and decide; a solve or decide whose pool the solver refuses to build),
3 budget exhausted (solve then still emits the best cover it found).

Budget flags fall back to the environment: F2COVER_MAX_NODES and
F2COVER_MAX_SECONDS apply to solve/decide when the flags are absent.  A
budget, from a flag or the environment, must be a finite number >= 0;
anything else is a usage error.  solve's --assume-high-origin is exclusive
with --s and --s-max.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
    cover_from_json,
    restrict_to_hyperplane,
    restriction_census,
    verify,
)
from .gf2core import DIMENSION_LIMIT, GFVector, ParameterError, _check_problem
from .solver import decide, solve_g, solve_min

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _say(text: str) -> None:
    print(text, file=sys.stderr)


def _emit(doc: dict | str, path: str | None) -> None:
    """Write a JSON document, or a text as it is, to path or stdout."""
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _read_doc(path: str | None, parse):
    """parse(doc) for the JSON document doc at path, or on stdin.  A
    document of the wrong shape (a list for an object, a number for a
    list) is malformed, a ValueError like a bad field, so it exits 1."""
    if path is None:
        doc = json.load(sys.stdin)
    else:
        with open(path) as fh:
            doc = json.load(fh)
    if type(doc) is not dict:
        raise ValueError(f"a document must be a JSON object, not {type(doc).__name__}")
    try:
        return parse(doc)
    except TypeError as exc:
        raise ValueError(f"malformed document: {exc}") from None


def _mask(text: str) -> int:
    # Accepts the document forms: 0x.. hex, 0b.. binary, or plain decimal.
    return int(text, 0)


def _dimension(text: str) -> int:
    # construct, solve and decide build points of F_2^n; bound and table do not
    n = int(text)
    if n > DIMENSION_LIMIT:
        raise argparse.ArgumentTypeError(f"ambient dimension {n} above {DIMENSION_LIMIT}")
    return n


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _budgets(args: argparse.Namespace) -> tuple[int | None, float | None]:
    nodes, seconds = args.budget_nodes, args.budget_seconds
    try:
        if nodes is None and os.environ.get("F2COVER_MAX_NODES"):
            nodes = int(os.environ["F2COVER_MAX_NODES"])
        if seconds is None and os.environ.get("F2COVER_MAX_SECONDS"):
            seconds = float(os.environ["F2COVER_MAX_SECONDS"])
    except ValueError as exc:
        raise ParameterError(f"bad budget in the environment: {exc}") from None
    for budget in (nodes, seconds):
        _require(budget is None or 0 <= budget < math.inf,
                 f"a budget must be finite and >= 0, got {budget}")
    return nodes, seconds


def _cmd_construct(args: argparse.Namespace) -> int:
    family = args.family
    _require(args.seed is None or family == "gv", "--seed is for --family gv only")
    _require(args.d == 1 or family not in ("golay", "diag", "gv"),
             f"--family {family} is d=1 only")
    if family == "golay":
        _require(args.n in (None, 12) and args.k in (None, 8),
                 "golay fixes n = 12 and k = 8")
        C = golay_cover()
    elif family == "diag":
        _require(args.k is not None, "--family diag needs --k")
        _require(args.n is None or args.n == args.k, "diag fixes n = k")
        C = diagonal_cover(args.k)
    else:
        _require(args.n is not None and args.k is not None,
                 f"--family {family} needs --n and --k")
        if family == "gv":
            C = gv_random_cover(args.n, args.k, seed=args.seed or 0)
        elif family == "thma":
            C = thm_a_cover(args.n, args.k, args.d)
        elif family == "l31":
            C = lemma31_cover(args.n, args.k, args.d)
        else:
            C = smax_cover(args.n, args.k, args.d)
    report = verify(C, args.k or 1)
    _emit(C.to_json(), args.out)
    _say(
        f"{family}: n={C.n} d={C.d} size={C.size} "
        f"s={report.origin_count} min_nonzero={report.min_nonzero}"
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    C = _read_doc(args.infile, cover_from_json)
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
    C = _read_doc(args.infile, cover_from_json)
    u = GFVector(args.normal, C.n)
    x, y = restriction_census(C, u)
    R = restrict_to_hyperplane(C, u)
    _emit(R.to_json(), args.out)
    _say(f"restricted to n={R.n}: size {C.size} -> {R.size} (|X|={x}, |Y|={y})")
    return EXIT_OK


def _cmd_code(args: argparse.Namespace) -> int:
    action = args.action
    if action == "golay":
        _require(args.infile is None, "code golay reads no input: drop --in")
        code = golay_generator()
        _emit(code.to_json(), args.out)
        _say(f"[{code.length},{code.dim}] generator emitted")
        return EXIT_OK
    if action == "mindist":
        code = _read_doc(args.infile, code_from_json)
        dist = min_distance(code)
        _emit({"length": code.length, "dimension": code.dim,
               "min_distance": dist}, args.out)
        _say(f"[{code.length},{code.dim}] code: min distance {dist}")
        return EXIT_OK
    if action == "from-cover":
        C = _read_doc(args.infile, cover_from_json)
        code = code_from_cover(C)
        _emit(code.to_json(), args.out)
        _say(f"cover of F_2^{C.n} -> [{code.length},{code.dim}] code")
        return EXIT_OK
    code = _read_doc(args.infile, code_from_json)
    C = cover_from_code(code)
    _emit(C.to_json(), args.out)
    _say(f"[{code.length},{code.dim}] code -> cover of F_2^{C.n} "
         f"size {C.size}")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    n, k, d = args.n, args.k, args.d
    _check_problem(n, k, d, args.s)
    rules = _closed_form_rules(n, k, d, args.s)
    if args.rule is not None:
        rules = [r for r in rules if r[0] == args.rule]
        if not rules:
            _say(f"rule {args.rule} not applicable at n={n} k={k} d={d}"
                 + (f" s={args.s}" if args.s is not None else ""))
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
        anchors.extend(_read_doc(args.anchors, anchors_from_json))
    anchors = [a for a in anchors if a.d == args.d]
    try:
        ledger = propagate(args.nmax, args.kmax, args.d, tuple(anchors))
    except LedgerContradiction as exc:
        _say(f"bound contradiction: {exc}")
        return EXIT_NEGATIVE
    _emit(ledger.to_json() if args.format == "json" else format_table(ledger, args.format),
          args.out)
    exact = sum(1 for e in ledger.cells.values() if e.exact)
    _say(f"{len(ledger.cells)} cells, {exact} exact, {len(anchors)} anchors")
    return EXIT_OK


def _solver_kwargs(args: argparse.Namespace) -> dict:
    """The solver's budgets and extra seed; also resolves --s-max to s = k-1."""
    if args.s_max:
        args.s = args.k - 1
    nodes, seconds = _budgets(args)
    extra = None
    if args.seed_cover is not None:
        extra = _read_doc(args.seed_cover, cover_from_json)
    return {"max_nodes": nodes, "max_seconds": seconds, "extra_seed": extra}


def _emit_solve(result, label: str, args: argparse.Namespace, minimising: bool) -> int:
    _emit(result.to_json(), args.out)
    value = "-" if result.value is None else str(result.value)
    _say(f"{label}: {result.status} value={value} nodes={result.nodes} "
         f"proof_lo={result.proof_lo}")
    # a minimising call ends 'feasible' only when a budget stopped it
    if result.status == "unknown" or (minimising and result.status == "feasible"):
        return EXIT_BUDGET
    if result.status == "infeasible":
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    kw = _solver_kwargs(args)
    if args.s is not None:
        result = solve_g(args.n, args.k, args.d, args.s, **kw)
        label = f"g({args.n},{args.k},{args.d};{args.s})"
    else:
        result = solve_min(
            args.n, args.k, args.d,
            assume_high_origin=args.assume_high_origin, **kw,
        )
        label = f"f({args.n},{args.k},{args.d})"
    return _emit_solve(result, label, args, minimising=True)


def _cmd_decide(args: argparse.Namespace) -> int:
    kw = _solver_kwargs(args)
    result = decide(args.n, args.k, args.d, args.size, s=args.s, **kw)
    label = f"exists size <= {args.size} at ({args.n},{args.k},{args.d})"
    return _emit_solve(result, label, args, minimising=False)


def _add_io(p: argparse.ArgumentParser, reads: bool = True) -> None:
    if reads:
        p.add_argument("--in", dest="infile", metavar="FILE", default=None,
                       help="input JSON document (default stdin)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="output path (default stdout)")


def _add_solver_flags(p: argparse.ArgumentParser, decides: bool) -> None:
    """The flags solve and decide share; decide adds --size, solve --assume-high-origin."""
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    if decides:
        p.add_argument("--size", type=int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--s", type=int, default=None, help="fix the origin count")
    g.add_argument("--s-max", action="store_true", help="fix s = k-1")
    if not decides:
        g.add_argument("--assume-high-origin", action="store_true",
                       help="restrict the window to s >= k-2")
    p.add_argument("--budget-nodes", type=int, default=None, metavar="N")
    p.add_argument("--budget-seconds", type=float, default=None, metavar="X")
    p.add_argument("--seed-cover", metavar="FILE", default=None,
                   help="extra seed cover JSON for the upper bound")
    _add_io(p, reads=False)
    p.set_defaults(func=_cmd_decide if decides else _cmd_solve)


# parse_args keeps no state on the parser and looks up sys.stdout and
# sys.stderr when it prints, so one parser serves every run in a process
@functools.cache
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
    p.add_argument("--n", type=_dimension, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="RNG seed for --family gv (default 0)")
    _add_io(p, reads=False)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a cover document against k")
    p.add_argument("--k", type=int, required=True)
    _add_io(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("restrict", help="restrict a cover to a linear hyperplane")
    p.add_argument("--normal", type=_mask, required=True, metavar="MASK",
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

    _add_solver_flags(sub.add_parser(
        "solve", help="minimise cover size, exact branch and bound"), decides=False)
    _add_solver_flags(sub.add_parser(
        "decide", help="does a cover of the given size exist"), decides=True)

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
    except ParameterError as exc:
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
