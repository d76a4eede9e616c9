import re
import xml.etree.ElementTree as ET

import pytest

from parkbases.braid import orbit_graph
from parkbases.dbasis import to_arcs
from parkbases.parking import to_diagram
from parkbases.quiver import hom_ext_table, modules_of
from parkbases.render import (
    RenderSpec,
    arcs_ascii,
    arcs_svg,
    diagram_ascii,
    diagram_svg,
    orbit_dot,
    render,
)

from helpers import basis_of_pairs

N12_PAIRS = [
    (3, 3), (11, 11), (7, 7), (5, 7), (9, 9), (8, 9),
    (5, 5), (2, 9), (1, 9), (10, 11), (2, 3), (12, 12),
]


def test_render_spec_validation():
    RenderSpec("svg", "arcs")
    with pytest.raises(ValueError):
        RenderSpec("dot", "arcs")
    with pytest.raises(ValueError):
        RenderSpec("svg", "orbit")


GOLDEN_STAIRCASE = "####|2\n###|5\n##|3\n|4\n|1\n"


def test_diagram_ascii_golden():
    assert diagram_ascii(to_diagram((1, 5, 3, 1, 4))) == GOLDEN_STAIRCASE


def test_arcs_svg_structure():
    basis = basis_of_pairs(N12_PAIRS, 12)
    svg = arcs_svg(to_arcs(basis))
    root = ET.fromstring(svg)
    ends = []
    for path in root.iter("{http://www.w3.org/2000/svg}path"):
        ends.append(tuple(int(v) for v in path.attrib["data-ends"].split(",")))
    assert sorted(ends) == sorted((lo - 1, hi) for lo, hi in N12_PAIRS)
    labels = [
        t.text
        for t in root.iter("{http://www.w3.org/2000/svg}text")
        if t.attrib.get("class") == "label"
    ]
    assert labels == [str(i) for i in range(1, 13)]


def test_diagram_svg_parses_and_is_deterministic():
    diagram = to_diagram((1, 5, 3, 1, 4))
    once, twice = diagram_svg(diagram), diagram_svg(diagram)
    assert once == twice
    ET.fromstring(once)


def test_orbit_dot_rank2():
    dot = "".join(orbit_dot(orbit_graph(2)))
    assert dot.count("->") == 3
    assert dot.count('label="a1"') == 3
    assert '"1,1"' in dot and '"1,2"' in dot and '"2,1"' in dot
    with_beta = "".join(orbit_dot(orbit_graph(2), include_beta=True))
    assert with_beta.count('label="b1"') == 3


def test_ascii_arcs():
    out = arcs_ascii(to_arcs(basis_of_pairs([(1, 1), (2, 2)], 2)))
    assert out == "1: 0--1\n2: 1--2\naxis: 0 1 2\n"


def test_render_dispatch_json():
    basis = basis_of_pairs([(1, 1), (2, 2)], 2)
    out = render(RenderSpec("json", "table"), hom_ext_table(modules_of(basis)))
    assert re.fullmatch(r"\{.*\}\n", out, re.S)
    out = render(RenderSpec("json", "arcs"), to_arcs(basis))
    assert '"arcs": [[0, 1], [1, 2]]' in out


def test_render_deterministic():
    diagram = to_diagram((1, 1, 2))
    spec = RenderSpec("ascii", "diagram")
    assert render(spec, diagram) == render(spec, diagram)
