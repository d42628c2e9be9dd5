"""Graphviz rendering: inputs on a source rank at the left, outputs on a sink
rank at the right, internal nodes as circles, weight labels on edges where
the weight is not 1."""

from __future__ import annotations

from .core import DEFAULT_LABEL, Idag, sorted_edges
from .jsonio import dumps


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def idag_to_dot(d: Idag) -> str:
    n_in, n_nodes = d.n_in, len(d.nodes)
    lines = ["digraph idag {", "  rankdir=LR;", "  node [fontsize=11];"]
    ins = " ".join(f'i{i} [shape=point, xlabel="{i}"];' for i in range(n_in))
    outs = " ".join(f'o{j} [shape=point, xlabel="{j}"];' for j in range(d.n_out))
    lines.append("  { rank=source; %s }" % ins if n_in else "  { rank=source; }")
    lines.append("  { rank=sink; %s }" % outs if d.n_out else "  { rank=sink; }")
    for k, (nid, lbl) in enumerate(d.nodes):
        text = nid if lbl == DEFAULT_LABEL else f"{nid}:{lbl}"
        lines.append(f"  v{k} [shape=circle, label={_quote(text)}];")
    # invisible chains fix the vertical order within the interface ranks
    for prefix, count in (("i", d.n_in), ("o", d.n_out)):
        for k in range(count - 1):
            lines.append(
                f"  {prefix}{k} -> {prefix}{k + 1} [style=invis, constraint=false];"
            )
    for s, t, w in sorted_edges(d):
        src = f"i{s}" if s < n_in else f"v{s - n_in}"
        dst = f"v{t}" if t < n_nodes else f"o{t - n_nodes}"
        attr = f' [label="{dumps(w)}"]' if w != 1 else ""
        lines.append(f"  {src} -> {dst}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
