"""JSON serialization of idags: writing here, reading in jsonread.

Schema:

    {"mode": "bool" | "nat" | "int",
     "inputs": N, "outputs": M,
     "nodes": [{"id": "...", "label": "..."}, ...],
     "edges": [{"src": {"in": i} | {"node": id},
                "dst": {"out": j} | {"node": id},
                "w": k}, ...]}

"label" is omitted when it is the default "•" and "w" is omitted when it is 1.
Serialization is deterministic: nodes in sequence order, edges sorted (inputs
first, then nodes by sequence position, then outputs), compact separators.
Canonical forms therefore serialize byte-identically iff equal. Reading
(jsonread) validates a document against this schema and builds the idag
through algebra.make_idag; it is a module of its own, so code that only
writes JSON, as eq and normalize do, loads neither.
"""

from __future__ import annotations

import json
from typing import Any

from .core import DEFAULT_LABEL, Idag, sorted_edges
from .errors import IdagError, _check_type


def idag_to_obj(d: Idag) -> dict[str, Any]:
    _check_type(d, Idag)
    nodes = []
    for nid, lbl in d.nodes:
        entry: dict[str, Any] = {"id": nid}
        if lbl != DEFAULT_LABEL:
            entry["label"] = lbl
        nodes.append(entry)

    n_in, n_nodes = d.n_in, len(d.nodes)
    edges = []
    for s, t, w in sorted_edges(d):
        entry = {
            "src": {"in": s} if s < n_in else {"node": d.nodes[s - n_in][0]},
            "dst": {"node": d.nodes[t][0]} if t < n_nodes else {"out": t - n_nodes},
        }
        if w != 1:
            entry["w"] = w
        edges.append(entry)
    return {
        "mode": d.weights.name,
        "inputs": d.n_in,
        "outputs": d.n_out,
        "nodes": nodes,
        "edges": edges,
    }


def idag_to_json(d: Idag) -> str:
    return dumps(idag_to_obj(d))


def dumps(value: Any) -> str:
    """Compact JSON text for value. An int with more digits than Python
    writes in decimal, as a product of weights can have, raises IdagError."""
    try:
        return json.dumps(value, separators=(",", ":"), ensure_ascii=False)
    except ValueError as exc:
        raise IdagError(f"cannot write a number: {exc}") from None


