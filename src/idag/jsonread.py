"""Reading idags from JSON documents of the schema in jsonio.

Every field is checked against the schema (SchemaError), and the idag is
validated and built by algebra.make_idag.
"""

from __future__ import annotations

import json
from typing import Any

from .algebra import make_idag
from .core import DEFAULT_LABEL, Idag, In, NodeRef, Out, Vertex
from .errors import SchemaError
from .weights import BY_NAME


def _vertex_from_obj(obj: Any, side: str) -> Vertex:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"bad {side} endpoint {obj!r}")
    (kind, val), = obj.items()
    if kind == "in" and side == "src":
        if type(val) is not int:
            raise SchemaError(f"input index must be an integer, got {val!r}")
        return In(val)
    if kind == "out" and side == "dst":
        if type(val) is not int:
            raise SchemaError(f"output index must be an integer, got {val!r}")
        return Out(val)
    if kind == "node":
        if not isinstance(val, str):
            raise SchemaError(f"node reference must be a string, got {val!r}")
        return NodeRef(val)
    raise SchemaError(f"bad {side} endpoint kind {kind!r}")


def idag_from_obj(obj: Any) -> Idag:
    if not isinstance(obj, dict):
        raise SchemaError("idag document must be a JSON object")
    fields = {"mode", "inputs", "outputs", "nodes", "edges"}
    missing = fields - set(obj)
    if missing:
        raise SchemaError(f"missing fields {sorted(missing)}")
    extra = set(obj) - fields
    if extra:
        raise SchemaError(f"unknown fields {sorted(extra)}")
    mode_name = obj["mode"]
    if not isinstance(mode_name, str) or mode_name not in BY_NAME:
        raise SchemaError(f"unknown mode {mode_name!r}")
    mode = BY_NAME[mode_name]
    # type(x) is int, not isinstance: JSON true/false load as bool, an int
    if type(obj["inputs"]) is not int or type(obj["outputs"]) is not int:
        raise SchemaError("inputs/outputs must be integers")
    if not isinstance(obj["nodes"], list) or not isinstance(obj["edges"], list):
        raise SchemaError("nodes and edges must be arrays")

    nodes: list[tuple[str, str]] = []
    for entry in obj["nodes"]:
        if not isinstance(entry, dict) or "id" not in entry:
            raise SchemaError(f"bad node entry {entry!r}")
        nid = entry["id"]
        lbl = entry.get("label", DEFAULT_LABEL)
        if not isinstance(nid, str) or not isinstance(lbl, str):
            raise SchemaError(f"bad node entry {entry!r}")
        extra = set(entry) - {"id", "label"}
        if extra:
            raise SchemaError(f"unknown node fields {sorted(extra)}")
        nodes.append((nid, lbl))

    edges: list[tuple[Vertex, Vertex, int]] = []
    for entry in obj["edges"]:
        if not isinstance(entry, dict) or "src" not in entry or "dst" not in entry:
            raise SchemaError(f"bad edge entry {entry!r}")
        extra = set(entry) - {"src", "dst", "w"}
        if extra:
            raise SchemaError(f"unknown edge fields {sorted(extra)}")
        w = entry.get("w", 1)
        if type(w) is not int:
            raise SchemaError(f"edge weight must be an integer, got {w!r}")
        edges.append(
            (_vertex_from_obj(entry["src"], "src"), _vertex_from_obj(entry["dst"], "dst"), w)
        )
    return make_idag(obj["inputs"], obj["outputs"], nodes, edges, mode)


def idag_from_json(text: str) -> Idag:
    try:
        obj = json.loads(text)
    except (ValueError, TypeError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, as is an int of more digits than
        # int() reads; a TypeError is text that is not a str, bytes or
        # bytearray; nesting deeper than the recursion limit is the other
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return idag_from_obj(obj)
