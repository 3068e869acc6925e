"""Re-check the `prove` answer key against an independent oracle.

Solves g(n,k,1;s) for every `prove` cell as a plain integer program over
all affine hyperplanes of F_2^n with scipy's HiGHS `milp`, and compares
it with `answers.json`.  It shares no code with f2cover.  This is run by
hand when the key is written or changed, never by the benchmark:

    python3 perfbench/oracle_check.py

scipy is not a dependency of f2cover; the script exits 2 without it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

KEY = Path(__file__).resolve().parent / "answers.json"


def milp_g(n: int, k: int, s: int) -> int:
    """Least size of a hyperplane (k,1;s)-cover of F_2^n, by HiGHS."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    planes = [(u, c) for u in range(1, 1 << n) for c in (0, 1)]
    incidence = np.array(
        [[(p & u).bit_count() % 2 == c for u, c in planes] for p in range(1 << n)],
        dtype=float,
    )
    lower = np.full(1 << n, float(k))
    upper = np.full(1 << n, np.inf)
    lower[0] = upper[0] = s
    res = milp(
        c=np.ones(len(planes)),
        constraints=LinearConstraint(incidence, lower, upper),
        integrality=np.ones(len(planes)),
        bounds=Bounds(0, k),
    )
    if res.status != 0:
        raise RuntimeError(f"milp did not finish: {res.message}")
    return round(res.fun)


def main() -> int:
    try:
        import scipy
    except ImportError:
        print("scipy is not installed", file=sys.stderr)
        return 2
    key = json.loads(KEY.read_text())
    bad = 0
    for cell in key["prove"]:
        n, k, d, s = cell["n"], cell["k"], cell["d"], cell["s"]
        if d != 1:
            raise ValueError("the hyperplane program covers d=1 only")
        t0 = time.perf_counter()
        got = milp_g(n, k, s)
        if cell["call"] == "decide":
            ok = (got > cell["size"]) == (cell["status"] == "infeasible")
        else:
            ok = got == cell["value"]
        bad += not ok
        print(f"g({n},{k},{d};{s}) = {got} by milp in "
              f"{time.perf_counter() - t0:.1f} s: {'agrees' if ok else 'DISAGREES'}")
    print(f"scipy {scipy.__version__}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
