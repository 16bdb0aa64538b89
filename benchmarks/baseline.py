"""Re-measure the ROADMAP baseline rows that no workload runs at their size.

Usage, from the root of a checkout:

    python3 benchmarks/baseline.py

Times, once each, on the baseline scenario (seed 1, kappa linear, margin
15, c=3, 74 bounds): the 74 neighborhood graphs and ``trees.sweep_trees``
at n=49, and ``degree.select_constant_degree`` at n=16. Prints one JSON
line per row with the ROADMAP figure beside the measured one, and the
number of distinct edge sets among the 74 bounds, which must match the
table exactly; the exit code is 1 if it does not.
"""

import json
import os
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

from topogen import degree, graphs, trees  # noqa: E402

import workloads  # noqa: E402

# (row, grid, ROADMAP seconds, ROADMAP distinct edge sets)
ROWS = (
    ("74 neighborhood graphs", (7, 7), 0.074, 44),
    ("trees.sweep_trees", (7, 7), 4.0, 44),
    ("degree.select_constant_degree", (4, 4), 1.7, 31),
)


def timed(row, matrix, family):
    start = time.perf_counter()
    if row == "74 neighborhood graphs":
        for beta in family.betas():
            family.graph(beta)
    elif row == "trees.sweep_trees":
        trees.sweep_trees(matrix, trees.KappaSpec.parse("linear"), 15.0, family)
    else:
        degree.select_constant_degree(matrix, 3, family)
    return time.perf_counter() - start


def main():
    mismatched = 0
    for row, grid, roadmap_s, roadmap_sets in ROWS:
        matrix = workloads.grid_matrix(grid, 1)
        family = graphs.GraphFamily(matrix)
        edge_sets = len({family.graph(beta).edges for beta in family.betas()})
        print(
            json.dumps(
                {
                    "row": row,
                    "n": grid[0] * grid[1],
                    "seconds": round(timed(row, matrix, family), 3),
                    "roadmap_seconds": roadmap_s,
                    "distinct_edge_sets": edge_sets,
                    "roadmap_edge_sets": roadmap_sets,
                }
            ),
            flush=True,
        )
        mismatched += edge_sets != roadmap_sets
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
