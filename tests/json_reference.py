"""The canonical JSON object of an idag built as dicts, one per node and per
edge, with the edges sorted as (source, target, weight) triples: the oracle
jsonio.idag_to_json's text is compared against, through
json.dumps(idag_to_obj(d), separators=(",", ":"), ensure_ascii=False)."""

from typing import Any

from idag.core import DEFAULT_LABEL, Idag, sorted_edges


def idag_to_obj(d: Idag) -> dict[str, Any]:
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
