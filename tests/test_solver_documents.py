"""Solver documents pinned over a grid of small cells.

solver_documents.json records, for each call below, the result's status,
value, node count, proof_lo and a digest of its certificate's to_json().
A change to the search that keeps every tree keeps every entry; one that
moves a tree names the calls it moved.  Regenerate the fixture only for a
change meant to move trees, and say why in the change:

    PYTHONPATH=src python tests/test_solver_documents.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from f2cover.solver import decide, solve_g, solve_min

FIXTURE = Path(__file__).with_name("solver_documents.json")
BUDGET = 200_000


def _calls():
    """(key, thunk) for every call of the grid, in a fixed order."""
    for d in (1, 2, 3):
        for n in range(d, (5 if d == 1 else 4) + 1):
            for k in range(1, 5):
                for s in range(k):
                    yield f"solve_g({n},{k},{d},{s})", (solve_g, (n, k, d, s), {"max_nodes": BUDGET})
                yield f"solve_min({n},{k},{d})", (solve_min, (n, k, d), {"max_nodes": BUDGET})
                for size in range(3 * k + 4):
                    yield f"decide({n},{k},{d},{size})", (decide, (n, k, d, size), {"max_nodes": BUDGET})
    # the witness benchmark cells, three budgeted exhaustive d >= 2 runs and
    # two runs that end at a cover meeting the root bound
    for n, k, d, size in [(7, 3, 2, 16), (8, 3, 2, 18), (6, 3, 3, 25), (7, 3, 3, 27)]:
        yield f"decide({n},{k},{d},{size},s=0)", (decide, (n, k, d, size), {"s": 0})
    yield "solve_g(5,4,2,1,max_nodes=50000)", (solve_g, (5, 4, 2, 1), {"max_nodes": 50_000})
    yield "decide(6,4,2,17,s=0,max_nodes=20000)", (decide, (6, 4, 2, 17), {"s": 0, "max_nodes": 20_000})
    yield "solve_g(6,4,3,1,max_nodes=20000)", (solve_g, (6, 4, 3, 1), {"max_nodes": 20_000})
    yield "solve_g(5,3,2,0,max_nodes=100000)", (solve_g, (5, 3, 2, 0), {"max_nodes": 100_000})
    yield "solve_g(6,3,3,0,max_nodes=100000)", (solve_g, (6, 3, 3, 0), {"max_nodes": 100_000})


def _document(fn, args, kwargs) -> list:
    result = fn(*args, **kwargs)
    digest = None
    if result.certificate is not None:
        text = json.dumps(result.certificate.to_json(), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return [result.status, result.value, result.nodes, result.proof_lo, digest]


def _documents() -> dict[str, list]:
    return {key: _document(*call) for key, call in _calls()}


def test_solver_documents_match_the_fixture():
    expected = json.loads(FIXTURE.read_text())
    got = _documents()
    assert got.keys() == expected.keys()
    moved = [f"{key}: {expected[key]} -> {got[key]}" for key in got if got[key] != expected[key]]
    assert not moved, f"{len(moved)} of {len(got)} calls moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    docs = _documents()
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(doc)}" for key, doc in docs.items())
    FIXTURE.write_text("{\n" + lines + "\n}\n")
    print(f"{len(docs)} calls, {sum(doc[2] for doc in docs.values())} nodes -> {FIXTURE}")
