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
Canonical forms therefore serialize byte-identically iff equal.

idag_to_json formats the text straight from the idag's wires: each node id
is escaped once, by the escaper json.dumps(..., ensure_ascii=False) uses,
one pass over the wires puts each edge in its source's list, targets in
ascending order, and each entry is formatted from those pieces, with no
objects in between. idag_to_obj reads that text back, so the format has one
writer. Reading (jsonread) validates a document against this schema and
builds the idag through algebra.make_idag; it is a module of its own, so
code that only writes JSON, as eq and normalize do, loads neither.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Any

from .core import DEFAULT_LABEL, Idag
from .errors import IdagError, _check_type


def idag_to_obj(d: Idag) -> dict[str, Any]:
    """d's canonical JSON object: idag_to_json's text, read back."""
    return json.loads(idag_to_json(d))


def idag_to_json(d: Idag) -> str:
    """The canonical JSON text of d. A weight with more digits than Python
    writes in decimal raises IdagError, as dumps does."""
    _check_type(d, Idag)
    n_in = d.n_in
    ids = [encode_basestring(nid) for nid, _ in d.nodes]
    nodes = [
        f'{{"id":{nid}}}' if lbl == DEFAULT_LABEL
        else f'{{"id":{nid},"label":{encode_basestring(lbl)}}}'
        for nid, (_, lbl) in zip(ids, d.nodes)
    ]
    fed: list[list[tuple[int, int]]] = [[] for _ in range(n_in + len(ids))]  # per source
    for t, wire in enumerate(d.wires):
        for s, w in wire.items():
            fed[s].append((t, w))
    src = [f'{{"src":{{"in":{i}}}' for i in range(n_in)]
    src += [f'{{"src":{{"node":{nid}}}' for nid in ids]
    dst = [f',"dst":{{"node":{nid}}}' for nid in ids]
    dst += [f',"dst":{{"out":{j}}}' for j in range(d.n_out)]
    try:
        edges = [
            f"{head}{dst[t]}}}" if w == 1 else f'{head}{dst[t]},"w":{int.__repr__(w)}}}'
            for head, targets in zip(src, fed)
            for t, w in targets
        ]
    except ValueError as exc:
        raise IdagError(f"cannot write a number: {exc}") from None
    return (
        f'{{"mode":"{d.weights.name}","inputs":{n_in},"outputs":{d.n_out},'
        f'"nodes":[{",".join(nodes)}],"edges":[{",".join(edges)}]}}'
    )


def dumps(value: Any) -> str:
    """Compact JSON text for value. An int with more digits than Python
    writes in decimal, as a product of weights can have, raises IdagError."""
    try:
        return json.dumps(value, separators=(",", ":"), ensure_ascii=False)
    except ValueError as exc:
        raise IdagError(f"cannot write a number: {exc}") from None
