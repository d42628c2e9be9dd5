"""Reference code: colour refinement by full rounds.

Every round recoloured every node by its color and the sorted weighted
colors of its in- and out-neighbours, and the loop ended with a round that
split nothing. test_core.py plays the library's worklist refinement,
canon._equitable and canon._refine, against this: both must reach the same
partition, compared as a set of cells.
"""

from __future__ import annotations

from idag.canon import _dense_ranks


def refine(colors: list[int], preds, succs) -> list[int]:
    """Partition refinement (one-dimensional Weisfeiler-Leman): recolour every
    node by its color and its sorted weighted in- and out-neighbour colors
    until no cell splits."""
    count = len(set(colors))
    while True:
        colors = _dense_ranks(
            [
                (
                    c,
                    tuple(sorted([(colors[j], w) for j, w in preds[i]])),
                    tuple(sorted([(colors[j], w) for j, w in succs[i]])),
                )
                for i, c in enumerate(colors)
            ]
        )
        new_count = len(set(colors))
        if new_count == count:
            return colors
        count = new_count
