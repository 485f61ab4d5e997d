"""Seeded fuzz table over families 0, 1, 2, 4 and 5 of the random QI
instances of ``conftest.seeded_family_instance`` (t = 0 ... 599, 500
instances).

Per family it prints how many instances synthesize with their rebuilt loop
norm within ``GAP_TOL`` of ``total_norm_sq``, the typed errors grouped by
class and message head (numbers shown as #) with their t, and the silent
cases, whose loop norm is further off, with the largest gap.  It asserts
nothing; the tier-1 gate
``test_synthesis.py::test_seeded_families_synthesize_or_raise_a_typed_error``
holds families 0, 1, 2 and 5.  Run from the repository root:

    PYTHONPATH=src python3 tests/fuzz_families.py
"""

import re
from collections import defaultdict

from conftest import seeded_family_instance
from delayh2 import DelayH2Error, closed_loop, h2_norm_sq, synthesize

# relative gap between the rebuilt loop norm and total_norm_sq, as in the gate
GAP_TOL = 1e-9

# a number not inside a name such as P11, R^-1 or x_1
NUMBER = re.compile(r"(?<![\w^.-])[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def outcome(t: int):
    """("pass" or "silent", loop gap) for an instance that synthesizes, and
    (error class and message head, None) for one that raises."""
    try:
        plant, cs = seeded_family_instance(t)
        result = synthesize(plant, cs)
        loop_norm_sq = h2_norm_sq(closed_loop(plant, result.controller).model)
    except DelayH2Error as exc:
        return f"{type(exc).__name__}: {NUMBER.sub('#', str(exc))[:80]}", None
    gap = abs(loop_norm_sq - result.total_norm_sq) / result.total_norm_sq
    return ("pass" if gap <= GAP_TOL else "silent"), gap


def main() -> None:
    totals = defaultdict(int)
    for family in (0, 1, 2, 4, 5):
        groups = defaultdict(list)
        for t in range(family, 600, 6):
            kind, gap = outcome(t)
            groups[kind].append((t, gap))
        passes, silent = groups.pop("pass", []), groups.pop("silent", [])
        n_errors = sum(map(len, groups.values()))
        totals["pass"] += len(passes)
        totals["typed error"] += n_errors
        totals["silent"] += len(silent)
        print(f"family {family}: {len(passes)} pass, {n_errors} typed errors, {len(silent)} silent")
        for kind, cases in sorted(groups.items(), key=lambda item: (-len(item[1]), item[0])):
            print(f"  {len(cases):3d} {kind}")
            print(f"      t = {', '.join(str(t) for t, _ in cases)}")
        if silent:
            t, gap = max(silent, key=lambda case: case[1])
            print(f"  silent t = {', '.join(str(t) for t, _ in silent)};"
                  f" largest loop gap {gap:.2g} at t = {t}")
    print(f"all: {totals['pass']} pass, {totals['typed error']} typed errors,"
          f" {totals['silent']} silent")


if __name__ == "__main__":
    main()
