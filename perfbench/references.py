"""Pin the reference costs behind ``cost_ratio_geomean`` into references.json.

A reference is the cheapest feasible point of the job's binding on
``log_grid(1e-12, 1, 50)`` per axis.  Below a target of about 1e-2 that grid
has no feasible point, so those targets use ``log_grid(1e-24, 1, 100)``: the
same spacing, extended down to 1e-24.  Pinning keeps the references out of
every timer and fixed against later changes to the program::

    python3 perfbench/references.py

takes about a minute and rewrites ``perfbench/references.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import inputs as plan_inputs

HERE = Path(__file__).resolve().parent
GRIDS = ((1e-12, 50), (1e-24, 100))


def _cases():
    for preset in plan_inputs.OPTIMIZE_PRESETS:
        for eps in plan_inputs.OPTIMIZE_TARGETS:
            yield 10, preset, 0, eps
    yield plan_inputs.STUDY_N, "three_param", 0, plan_inputs.STUDY_TARGET
    for preset, k in (("three_param", 0), ("redundancy", 1)):
        for eps in plan_inputs.ORACLE_TARGETS:
            yield 10, preset, k, eps


def main() -> int:
    sys.path.insert(0, str(plan_inputs.SRC))
    from errorbudget import InfeasibleError, TfimConfig, build_tfim_model
    from errorbudget.anneal import grid_search_reference, log_grid

    from jobs import PINNED_GRID

    references = {}
    for n, preset, k, eps in _cases():
        key = f"{n}/{preset}/{k}/{eps!r}"
        if key in references:
            continue
        tree, binding = build_tfim_model(TfimConfig(n=n), preset, k)
        for lo, points in GRIDS:
            try:
                _, cost = grid_search_reference(
                    tree, binding, eps, [log_grid(lo, 1.0, points)] * binding.dimension
                )
            except InfeasibleError:
                continue
            references[key] = {"grid_lo": lo, "grid_points": points, "cost": cost}
            break
        else:
            raise InfeasibleError(f"no feasible grid point for {key}", float("inf"), ())
        print(key, references[key], flush=True)
    for eps, cost in PINNED_GRID.items():
        pinned = references[f"10/three_param/0/{eps!r}"]["cost"]
        if abs(pinned - cost) > 1e-12 * cost:
            raise SystemExit(f"grid optimum {pinned} at {eps} differs from test_06's {cost}")
    (HERE / "references.json").write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
