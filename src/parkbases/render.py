"""
Deterministic text renderings: ASCII staircases and arc rows, SVG pictures,
DOT orbit graphs.  Output is byte-identical for identical input, so all of it
is golden-file testable.  SVG uses semicircular arcs on integer grid
endpoints with labels at the apex; tests compare structure, not pixels.
"""
from __future__ import annotations

import dataclasses
import json

from .braid import OrbitGraph
from .dbasis import ArcDiagram
from .parking import ParkingDiagram
from .quiver import Matrix

FORMATS = ("ascii", "svg", "dot", "json")
TARGETS = ("arcs", "diagram", "orbit", "table")


@dataclasses.dataclass(frozen=True, slots=True)
class RenderSpec:
    """A (format, target) pair; only the combinations in RENDERERS exist."""

    format: str
    target: str

    def __post_init__(self):
        if (self.format, self.target) not in RENDERERS:
            raise ValueError(f"unsupported rendering {self.format}/{self.target}")


def diagram_ascii(diagram: ParkingDiagram) -> str:
    """Unit-cell staircase, drawn top-down with each label after its row."""
    lines = []
    for p in range(diagram.n - 1, -1, -1):
        length = diagram.lengths[p]
        lines.append("#" * length + f"|{diagram.labels[p]}")
    return "\n".join(lines) + "\n"


def arcs_ascii(arcs: ArcDiagram) -> str:
    """One line per arc in order: 'k: left--right'."""
    lines = [f"{idx + 1}: {left}--{right}" for idx, (left, right) in enumerate(arcs.arcs)]
    lines.append("axis: " + " ".join(str(i) for i in range(arcs.rank + 1)))
    return "\n".join(lines) + "\n"


def table_ascii(hom: Matrix, ext: Matrix) -> str:
    def block(name: str, m: Matrix) -> list[str]:
        return [name] + [" ".join(str(x) for x in row) for row in m]

    return "\n".join(block("hom", hom) + block("ext", ext)) + "\n"


_UNIT = 20  # SVG pixels per lattice step
_SVG_HEADER = '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{vb}">\n'


def arcs_svg(arcs: ArcDiagram) -> str:
    """Semicircular arcs above a marked axis; each label sits at its arc apex."""
    n = arcs.rank
    height = (n + 2) * _UNIT // 2
    parts = [_SVG_HEADER.format(vb=f"0 {-height} {n * _UNIT} {height + _UNIT}")]
    parts.append(
        f'<line x1="0" y1="0" x2="{n * _UNIT}" y2="0" stroke="black"/>\n'
    )
    for i in range(n + 1):
        parts.append(
            f'<text class="tick" x="{i * _UNIT}" y="{_UNIT // 2}" text-anchor="middle">{i}</text>\n'
        )
    for idx, (left, right) in enumerate(arcs.arcs):
        x1, x2 = left * _UNIT, right * _UNIT
        r = (x2 - x1) // 2
        apex_x, apex_y = (x1 + x2) // 2, -r
        parts.append(
            f'<path class="arc" data-ends="{left},{right}" '
            f'd="M {x1} 0 A {r} {r} 0 0 1 {x2} 0" fill="none" stroke="black"/>\n'
        )
        parts.append(
            f'<text class="label" x="{apex_x}" y="{apex_y - 2}" text-anchor="middle">{idx + 1}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def diagram_svg(diagram: ParkingDiagram) -> str:
    """The staircase diagram as unit squares below the x-axis, labels at row ends."""
    n = diagram.n
    parts = [_SVG_HEADER.format(vb=f"0 0 {(n + 1) * _UNIT} {(n + 1) * _UNIT}")]
    parts.append(f'<line x1="0" y1="0" x2="{(n + 1) * _UNIT}" y2="0" stroke="black"/>\n')
    parts.append(f'<line x1="0" y1="0" x2="0" y2="{(n + 1) * _UNIT}" stroke="black"/>\n')
    for p in range(n - 1, -1, -1):
        depth = n - p
        length = diagram.lengths[p]
        y = (depth - 1) * _UNIT
        for cell in range(length):
            parts.append(
                f'<rect x="{cell * _UNIT}" y="{y}" width="{_UNIT}" height="{_UNIT}" '
                f'fill="none" stroke="black"/>\n'
            )
        parts.append(
            f'<text class="label" data-row="{depth}" x="{length * _UNIT + 4}" '
            f'y="{y + _UNIT - 4}">{diagram.labels[p]}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def orbit_dot(graph: OrbitGraph, include_beta: bool = False) -> str:
    """The orbit graph in DOT, nodes named by their parking function.

    Alpha edges are labelled a1, a2, ...; with include_beta the reverse edges
    are emitted too, labelled b1, b2, ....
    """

    name = {f: '"' + ",".join(map(str, f)) + '"' for f in graph.nodes}  # edges join nodes only
    lines = ["digraph orbit {"]
    for f in graph.nodes:
        lines.append(f"  {name[f]};")
    for f, k, g in graph.edges():
        lines.append(f'  {name[f]} -> {name[g]} [label="a{k}"];')
        if include_beta:
            lines.append(f'  {name[g]} -> {name[f]} [label="b{k}"];')
    lines.append("}\n")
    return "\n".join(lines)  # one copy of the text at its peak, not two


# (format, target) -> renderer; a json renderer gives the value `render` writes as one line.
RENDERERS = {
    ("ascii", "arcs"): arcs_ascii,
    ("ascii", "diagram"): diagram_ascii,
    ("ascii", "table"): lambda table: table_ascii(*table),
    ("svg", "arcs"): arcs_svg,
    ("svg", "diagram"): diagram_svg,
    ("dot", "orbit"): lambda graph: orbit_dot(graph),  # late-bound: bench/spans.py rebinds it
    ("json", "arcs"): lambda a: {"arcs": [list(arc) for arc in a.arcs], "n": a.rank},
    ("json", "diagram"): lambda d: {"labels": list(d.labels), "lengths": list(d.lengths), "n": d.n},
    ("json", "orbit"): lambda g: {"n": g.n, "nodes": [list(f) for f in g.nodes],
                                  "edges": [[list(f), k, list(h)] for f, k, h in g.edges()]},
    ("json", "table"): lambda t: {"hom": [list(r) for r in t[0]], "ext": [list(r) for r in t[1]]},
}


def render(spec: RenderSpec, payload) -> str:
    """Dispatch a RenderSpec on an already-built domain object."""
    out = RENDERERS[spec.format, spec.target](payload)
    return json.dumps(out, sort_keys=True) + "\n" if spec.format == "json" else out
