import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parkbases import dbasis, render, verify
from parkbases.bijection import reconstruct
from parkbases.braid import orbit_graph
from parkbases.cli import _ENUMERATE, main
from parkbases.dbasis import distinguished_bases
from parkbases.noncrossing import maximal_chains, partition_chain
from parkbases.parking import nondecreasing_parking_functions, parking_functions

from helpers import refusing, shallow

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    if stdin_text:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = 0
    try:
        main(argv)
    except SystemExit as exc:
        code = exc.code or 0
    out, err = capsys.readouterr()
    return code, out, err


def test_convert_pf_to_basis(monkeypatch, capsys):
    code, out, err = run_cli(
        ["convert", "pf-to-basis"], '{"n":3,"f":[2,2,1]}', monkeypatch, capsys
    )
    assert code == 0 and err == ""
    assert json.loads(out) == {"basis": [[2, 3], [2, 2], [1, 3]], "n": 3, "verified": True}


def test_convert_round_trip_n12(monkeypatch, capsys):
    f = [3, 11, 7, 5, 9, 8, 5, 2, 1, 10, 2, 12]
    code, out, _ = run_cli(
        ["convert", "pf-to-basis"], json.dumps({"n": 12, "f": f}), monkeypatch, capsys
    )
    assert code == 0
    basis = json.loads(out)["basis"]
    code, out, _ = run_cli(
        ["convert", "basis-to-pf"],
        json.dumps({"n": 12, "basis": basis}),
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"f": f, "n": 12, "verified": True}


def test_convert_rejects_bad_parking_function(monkeypatch, capsys):
    # A value in range that breaks the parking condition, and one out of range (which `is_parking`
    # itself refuses), read by both verbs that take an f.
    for payload, message in [
        ('{"f":[2,2]}', "[2, 2] violates the parking condition"),
        ('{"f":[0]}', "value 0 out of range [1, 1]"),
        ('{"f":[3,1]}', "value 3 out of range [1, 2]"),
    ]:
        for argv in (["convert", "pf-to-basis"], ["braid", "apply", "1"]):
            code, out, err = run_cli(argv, payload, monkeypatch, capsys)
            assert (code, out, err) == (1, "", f"E_INVALID_PF: {message}\n"), (argv, payload)


def test_convert_rejects_bad_basis(monkeypatch, capsys):
    code, _, err = run_cli(
        ["convert", "basis-to-pf"],
        '{"n":2,"basis":[[1,1],[1,2]]}',
        monkeypatch,
        capsys,
    )
    assert code == 1
    assert err.startswith("E_INVALID_BASIS: seifert")


def test_parse_error(monkeypatch, capsys):
    code, _, err = run_cli(["convert", "pf-to-basis"], "not json", monkeypatch, capsys)
    assert code == 1 and err.startswith("E_PARSE:")


@pytest.mark.parametrize(
    "args,expected",
    [
        (["enumerate", "3", "bases", "--count"], 16),
        (["enumerate", "4", "pf", "--count"], 125),
        (["enumerate", "5", "nondecreasing", "--count"], 42),
        (["enumerate", "3", "chains", "--count"], 16),
    ],
)
def test_enumerate_counts(args, expected, monkeypatch, capsys):
    code, out, _ = run_cli(args, "", monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["count"] == expected


@pytest.mark.parametrize("kind", ["bases", "chains"])
def test_enumerate_count_reads_the_closed_form(kind, monkeypatch, capsys):
    enumerate_ = refusing("--count enumerated")
    monkeypatch.setattr("parkbases.cli.distinguished_bases", enumerate_)
    monkeypatch.setattr("parkbases.cli._point_lines", enumerate_)  # what listing `bases` calls
    monkeypatch.setattr("parkbases.noncrossing.maximal_chains", enumerate_)
    code, out, _ = run_cli(["enumerate", "8", kind, "--count"], "", monkeypatch, capsys)
    assert code == 0 and json.loads(out) == {"count": 9 ** 7, "kind": kind, "n": 8}


class _FirstText(Exception):
    @classmethod
    def write(cls, text):  # as sys.stdout: raise at the first write
        raise cls(text)


@pytest.mark.parametrize("kind", ["bases", "chains"])
def test_enumerate_starts_at_any_depth(kind, monkeypatch):
    # Only the first text is made, one line long: the whole listing would never end.
    monkeypatch.setattr("parkbases.cli._CHUNK", 1)
    monkeypatch.setattr("sys.stdout", _FirstText)
    with pytest.raises(_FirstText) as first:
        shallow(main, ["enumerate", "1100", kind, "--limit", "1100"])
    item = {"basis": [[k, k] for k in range(1, 1101)]} if kind == "bases" else {  # partition j joins 0..j
        "chain": [[list(range(j + 1)), *([k] for k in range(j + 1, 1101))] for j in range(1101)]}
    assert first.value.args == (json.dumps({**item, "n": 1100}) + "\n",)


_HUGE = str(10**30)  # past what an index holds: refused before anything is allocated


@pytest.mark.parametrize(
    "argv, what",
    [(["enumerate", _HUGE, kind], f"{kind} enumeration") for kind in ("pf", "bases", "chains", "nondecreasing")]
    + [(["orbit", _HUGE], "orbit graph")],
    ids=["pf", "bases", "chains", "nondecreasing", "orbit"],
)
def test_a_listing_too_large_to_start_is_one_error_line(argv, what, tmp_path, monkeypatch, capsys):
    # Refused before the first item exists, so an existing --out file is not even opened.
    outfile = tmp_path / "kept.json"
    outfile.write_text("kept\n")
    for out_args in ([], ["--out", str(outfile)]):
        code, out, err = run_cli([*argv, "--limit", _HUGE, *out_args], "", monkeypatch, capsys)
        assert (code, out, err) == (1, "", f"E_LIMIT: n={_HUGE} is too large for the {what}\n")
    assert outfile.read_bytes() == b"kept\n"


@pytest.mark.parametrize(
    "argv, name, what",
    [(["enumerate", "9", "bases"], "parkbases.cli._point_lines", "bases enumeration"),
     (["enumerate", "9", "chains"], "parkbases.noncrossing.maximal_chains", "chains enumeration"),
     (["enumerate", "13", "nondecreasing"], "parkbases.cli.nondecreasing_parking_functions",
      "nondecreasing enumeration"),
     (["orbit", "7"], "parkbases.cli.orbit_graph", "orbit graph")],
    ids=["bases", "chains", "nondecreasing", "orbit"],
)
def test_a_listing_that_runs_out_of_memory_is_one_error_line(argv, name, what, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(name, exhausted)
    code, out, err = run_cli([*argv, "--limit", argv[1]], "", monkeypatch, capsys)
    assert (code, out, err) == (1, "", f"E_LIMIT: n={argv[1]} is too large for the {what}\n")


def test_enumerate_limit_mentions_flag(monkeypatch, capsys):
    code, _, err = run_cli(["enumerate", "9", "pf", "--count"], "", monkeypatch, capsys)
    assert code == 1
    assert err.startswith("E_LIMIT:") and "--limit" in err
    code, out, _ = run_cli(
        ["enumerate", "9", "pf", "--count", "--limit", "9"], "", monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["count"] == 10 ** 8


def test_enumerate_streams_lines(monkeypatch, capsys):
    code, out, _ = run_cli(["enumerate", "2", "pf"], "", monkeypatch, capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [tuple(obj["f"]) for obj in lines] == [(1, 1), (1, 2), (2, 1)]


def _parking_product(n):
    """The parking functions on n cars, without the library: the sorted-value test on the product."""
    product = itertools.product(range(1, n + 1), repeat=n)
    return [f for f in product if all(x <= k for k, x in enumerate(sorted(f), 1))]


# kind: (largest n checked, the JSON items of one n, built without the CLI)
ENUMERATE_ITEMS = {
    "pf": (6, lambda n: [{"f": list(f)} for f in _parking_product(n)]),
    "bases": (5, lambda n: [{"basis": [[r.lo, r.hi] for r in b]} for b in distinguished_bases(n)]),
    "nondecreasing": (7, lambda n: [{"f": list(f)} for f in nondecreasing_parking_functions(n)]),
    "chains": (4, lambda n: [{"chain": [[list(b) for b in p.blocks] for p in c.partitions]}
                             for c in maximal_chains(n)]),
}


@pytest.mark.parametrize("kind", list(ENUMERATE_ITEMS))
def test_enumerate_lines_are_json_dumps_of_each_item(kind, monkeypatch, capsys):
    top, items = ENUMERATE_ITEMS[kind]
    for n in range(1, top + 1):
        code, out, err = run_cli(["enumerate", str(n), kind], "", monkeypatch, capsys)
        assert (code, err) == (0, "")
        expected = [json.dumps({"n": n, **item}, sort_keys=True) + "\n" for item in items(n)]
        assert out.splitlines(keepends=True) == expected


def test_enumerate_lists_chains_in_bases_order(monkeypatch, capsys):
    # Line k of the chains is `nc to-chain` of line k of the bases.
    for n in range(1, 5):
        _, bases, _ = run_cli(["enumerate", str(n), "bases"], "", monkeypatch, capsys)
        _, chains, _ = run_cli(["enumerate", str(n), "chains"], "", monkeypatch, capsys)
        assert len(bases.splitlines()) == len(chains.splitlines()) == (n + 1) ** (n - 1)
        for basis_line, chain_line in zip(bases.splitlines(), chains.splitlines()):
            code, out, _ = run_cli(["nc", "to-chain"], basis_line, monkeypatch, capsys)
            assert code == 0 and json.loads(out)["chain"] == json.loads(chain_line)["chain"], basis_line


def test_braid_apply(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["braid", "apply", "1"], '{"n":3,"f":[1,2,1]}', monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["f"] == [2, 1, 1]
    assert payload["orbit_lengths"] == {"1": 2, "2": 3}


def test_braid_word_identity(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["braid", "apply", "1 -1"], '{"n":3,"f":[1,2,1]}', monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["f"] == [1, 2, 1]


def test_braid_bad_word(monkeypatch, capsys):
    for word, message in [
        ("1 0", "braid letters must be nonzero"),
        ("5", "letter 5 out of range for rank 3"),
        ("1 two", "letter 2 ('two') is not an integer"),
        ("1.5", "letter 1 ('1.5') is not an integer"),
        ("1 1_0", "letter 2 ('1_0') is not an integer"),
        ("1 " + "1" * 5000, "letter 2 (5000 digits) is out of range for every rank"),
    ]:
        code, out, err = run_cli(["braid", "apply", word], '{"n":3,"f":[1,2,1]}', monkeypatch, capsys)
        assert (code, out, err) == (1, "", f"E_BAD_WORD: {message}\n")


def test_braid_words_agree_on_rank4(monkeypatch, capsys):
    from parkbases.parking import parking_functions

    for f in parking_functions(4):
        payload = json.dumps({"n": 4, "f": list(f)})
        _, out1, _ = run_cli(["braid", "apply", "1 2 1"], payload, monkeypatch, capsys)
        _, out2, _ = run_cli(["braid", "apply", "2 1 2"], payload, monkeypatch, capsys)
        first, second = json.loads(out1), json.loads(out2)
        assert first["basis"] == second["basis"] and first["f"] == second["f"]


def test_orbit_dot(monkeypatch, capsys):
    code, out, _ = run_cli(["orbit", "2"], "", monkeypatch, capsys)
    assert code == 0
    assert out.count("->") == 3 and out.count('label="a1"') == 3


def test_render_staircase(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["render", "--format", "ascii", "--target", "diagram"],
        '{"n":5,"f":[1,5,3,1,4]}',
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert out == "####|2\n###|5\n##|3\n|4\n|1\n"


def test_render_table_ascii(monkeypatch, capsys):
    code, out, err = run_cli(
        ["render", "--format", "ascii", "--target", "table"], '{"n":2,"basis":[[1,1],[2,2]]}', monkeypatch, capsys
    )
    assert (code, out, err) == (0, "hom\n1 0\n0 1\next\n0 1\n0 0\n", "")


def test_render_unsupported_pair(monkeypatch, capsys):
    code, _, err = run_cli(
        ["render", "--format", "svg", "--target", "table"],
        '{"n":2,"basis":[[1,1],[2,2]]}',
        monkeypatch,
        capsys,
    )
    assert code == 1 and err.startswith("E_RENDER:")


def test_render_formats_are_those_of_its_targets(monkeypatch, capsys):
    # Only orbit graphs are drawn in DOT, and they are the `orbit` verb's output.
    payload = '{"n":2,"basis":[[1,1],[2,2]]}'
    code, out, err = run_cli(["render", "--format", "dot", "--target", "arcs"], payload, monkeypatch, capsys)
    message = "E_PARSE: argument --format: invalid choice: 'dot' (choose from 'ascii', 'svg', 'json')\n"
    assert (code, out, err) == (1, "", message)
    code, out, err = run_cli(["render", "--format", "json", "--target", "orbit"], payload, monkeypatch, capsys)
    message = "E_PARSE: argument --target: invalid choice: 'orbit' (choose from 'arcs', 'diagram', 'table')\n"
    assert (code, out, err) == (1, "", message)


def test_quiver_table(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["quiver", "table"], '{"n":3,"basis":[[2,2],[1,3],[1,2]]}', monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "hom", "ext"}
    assert payload["hom"][0][0] == 1


def test_nc_round_trip(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["nc", "to-chain"], '{"n":2,"basis":[[1,1],[2,2]]}', monkeypatch, capsys
    )
    assert code == 0
    chain = json.loads(out)
    assert chain["labels"] == [0, 1]
    code, out, _ = run_cli(
        ["nc", "from-chain"], json.dumps(chain), monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["basis"] == [[1, 1], [2, 2]]


def test_verify_passes(monkeypatch, capsys):
    code, out, _ = run_cli(["verify", "3", "all"], "", monkeypatch, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert all(check["ok"] for check in report["checks"])


def test_verify_fault_injection_fails(monkeypatch, capsys):
    code, out, _ = run_cli(["verify", "3", "all", "--inject-fault"], "", monkeypatch, capsys)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    failing = [check["name"] for check in report["checks"] if not check["ok"]]
    assert "seifert_bilinear" in failing


def test_verify_fault_in_an_unreached_suite_is_one_parse_error(monkeypatch, capsys):
    code, out, err = run_cli(["verify", "2", "braid", "--inject-fault"], "", monkeypatch, capsys)
    message = "the injected fault reaches only the suites ('all', 'bijection', 'quiver'), not 'braid'"
    assert (code, out, err) == (1, "", f"E_PARSE: {message}\n")


def test_verify_limit(monkeypatch, capsys):
    code, _, err = run_cli(["verify", "9", "braid"], "", monkeypatch, capsys)
    assert code == 1 and err.startswith("E_LIMIT:") and "--limit" in err


def test_verify_braid_rank5_within_budget(monkeypatch, capsys):
    import time

    started = time.time()
    code, out, _ = run_cli(["verify", "5", "braid"], "", monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert time.time() - started < 60.0


def test_output_deterministic(monkeypatch, capsys):
    # One parser serves every call in a process; a repeated call, errors included, answers the same.
    calls = [(["convert", "pf-to-basis"], '{"n":3,"f":[2,2,1]}'), (["enumerate", "0", "pf"], ""),
             (["enumerate", "two", "pf"], "")]  # the last is rejected by argparse itself
    first = [run_cli(argv, stdin, monkeypatch, capsys) for argv, stdin in calls]
    assert first[1] == (1, "", "E_PARSE: n must be >= 1\n")
    assert first[2] == (1, "", "E_PARSE: argument n: invalid int value: 'two'\n")
    assert [run_cli(argv, stdin, monkeypatch, capsys) for argv, stdin in calls] == first


def test_file_io(tmp_path, monkeypatch, capsys):
    infile = tmp_path / "in.json"
    outfile = tmp_path / "out.json"
    infile.write_text('{"n":3,"f":[2,2,1]}', encoding="utf-8")
    code, out, _ = run_cli(
        ["convert", "pf-to-basis", "--in", str(infile), "--out", str(outfile)],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(outfile.read_text(encoding="utf-8"))["basis"] == [[2, 3], [2, 2], [1, 3]]


def _single_error(code, out, err, prefix):
    return code == 1 and out == "" and err.startswith(prefix) and err.count("\n") == 1


def test_unreadable_input_is_a_parse_error(tmp_path, monkeypatch, capsys):
    infile = tmp_path / "in.json"
    infile.write_bytes(b'{"f":[1,\xff]}')  # not UTF-8
    code, out, err = run_cli(["convert", "pf-to-basis", "--in", str(infile)], "", monkeypatch, capsys)
    assert _single_error(code, out, err, "E_PARSE:")
    code, out, err = run_cli(["convert", "pf-to-basis"], '{"f":' + "[" * 100_000, monkeypatch, capsys)
    assert _single_error(code, out, err, "E_PARSE:")


@pytest.mark.parametrize("target", ["", "missing/out.json"], ids=["directory", "missing-parent"])
def test_unwritable_out_is_one_error_line(target, tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(["enumerate", "2", "pf", "--out", str(tmp_path / target)], "", monkeypatch, capsys)
    assert _single_error(code, out, err, "E_IO:")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "0", "pf", "--limit", "-1"],
        ["enumerate", "3", "pf", "--limit", "0"],
        ["orbit", "3", "--limit", "0"],
        ["verify", "2", "all", "--limit", "-5"],
    ],
)
def test_limit_below_one_is_a_parse_error(argv, monkeypatch, capsys):
    code, out, err = run_cli(argv, "", monkeypatch, capsys)
    assert _single_error(code, out, err, "E_PARSE:")
    assert err == "E_PARSE: --limit must be >= 1\n"


def test_orbit_limit_messages(monkeypatch, capsys):
    code, out, err = run_cli(["orbit", "7"], "", monkeypatch, capsys)
    assert _single_error(code, out, err, "E_LIMIT:")
    assert err == "E_LIMIT: n=7 exceeds the orbit limit 6; raise it with --limit\n"


def test_convert_rejects_bools_in_f(monkeypatch, capsys):
    code, out, err = run_cli(["convert", "pf-to-basis"], '{"f":[true,true]}', monkeypatch, capsys)
    assert _single_error(code, out, err, "E_PARSE:")


def test_convert_rejects_fractional_f(monkeypatch, capsys):
    code, out, err = run_cli(["convert", "pf-to-basis"], '{"f":[1.9,1]}', monkeypatch, capsys)
    assert _single_error(code, out, err, "E_PARSE:")


def test_convert_rejects_bool_n(monkeypatch, capsys):
    payload = '{"n":true,"basis":[[1,1]]}'
    code, out, err = run_cli(["convert", "basis-to-pf"], payload, monkeypatch, capsys)
    assert _single_error(code, out, err, "E_PARSE:")


def test_convert_rejects_non_integer_basis_entries(monkeypatch, capsys):
    for pairs in ("[[1,1],[2,2.0]]", "[[1,1],[2,true]]", "[[1,1],[1.9,2]]", "[[1,1],[2,2,2]]"):
        payload = '{"n":2,"basis":%s}' % pairs
        code, out, err = run_cli(["convert", "basis-to-pf"], payload, monkeypatch, capsys)
        assert _single_error(code, out, err, "E_PARSE:"), pairs


@pytest.mark.parametrize(
    "payload",
    [
        '{"chain":[[[0],[]]]}',  # an empty block
        '{"chain":[[[false],[true]],[[false,true]]]}',  # JSON bools
        '{"chain":[[[0.0],[1.0]],[[0.0,1.0]]]}',  # JSON floats
        '{"chain":[[]]}',  # a partition with no block
    ],
)
def test_nc_from_chain_rejects_malformed_blocks(payload, monkeypatch, capsys):
    code, out, err = run_cli(["nc", "from-chain"], payload, monkeypatch, capsys)
    assert _single_error(code, out, err, "E_INVALID_CHAIN:")


# A maximal chain on {0..3} and broken copies of it, with the one error line each gets.
_CHAIN3 = [[[0], [1], [2], [3]], [[0, 1], [2], [3]], [[0, 1], [2, 3]], [[0, 1, 2, 3]]]
_BROKEN_CHAINS = [
    ([_CHAIN3[1], _CHAIN3[0], *_CHAIN3[2:]], "chains must start at the all-singletons partition"),
    ([_CHAIN3[0], [[0], [1, 2], [3]], *_CHAIN3[2:]], "not a single-merge cover"),
    ([_CHAIN3[0], [[0, 2], [1], [3]], [[0, 2], [1, 3]], _CHAIN3[3]], "blocks (1, 3) and (0, 2) cross"),
    ([*_CHAIN3[:2], [[0, 1], [2, 3], [2, 3]], _CHAIN3[3]], "blocks must partition a range {0, ..., n}"),
    ([*_CHAIN3[:3], [[0, 1, 2, 3], [0, 1, 2, 3]]], "blocks must partition a range {0, ..., n}"),
    ([[[False], [True], [2], [3]], *_CHAIN3[1:]], "expected lists of integer blocks"),
    ([*_CHAIN3[:3], [[0, 1, 2, 3.0]]], "expected lists of integer blocks"),
    ([*_CHAIN3[:3], [[0, 1, 2, 3], []]], "blocks must be non-empty"),
]


@pytest.mark.parametrize("chain,message", _BROKEN_CHAINS)
def test_nc_from_chain_names_what_breaks_the_chain(chain, message, monkeypatch, capsys):
    code, out, err = run_cli(["nc", "from-chain"], json.dumps({"chain": chain}), monkeypatch, capsys)
    assert (code, out, err) == (1, "", f"E_INVALID_CHAIN: malformed chain: {message}\n")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_rejects_n_below_one(n, monkeypatch, capsys):
    code, out, err = run_cli(["verify", n], "", monkeypatch, capsys)
    assert _single_error(code, out, err, "E_PARSE: n must be >= 1")


@pytest.mark.parametrize(
    "direction,payload",
    [("pf-to-basis", '{"f":[]}'), ("basis-to-pf", '{"n":0,"basis":[]}')],
)
def test_convert_rejects_n_zero(direction, payload, monkeypatch, capsys):
    code, out, err = run_cli(["convert", direction], payload, monkeypatch, capsys)
    assert _single_error(code, out, err, "E_PARSE: n must be >= 1")


def test_nc_from_chain_rejects_n_zero(monkeypatch, capsys):
    code, out, err = run_cli(["nc", "from-chain"], '{"chain":[[[0]]]}', monkeypatch, capsys)
    assert _single_error(code, out, err, "E_PARSE: n must be >= 1")


class _WriteOnly:
    """A stdout with nothing but `write`, keeping the size and digest of what it gets, its number
    of writes, the largest one and the most lines in one."""

    def __init__(self):
        self.size = self.writes = self.largest = self.most_lines = 0
        self.sha = hashlib.sha256()

    def write(self, text):
        self.size += len(text)
        self.writes += 1
        self.largest = max(self.largest, len(text))
        self.most_lines = max(self.most_lines, text.count("\n"))
        self.sha.update(text.encode())
        return len(text)


# Sizes and sha256 digests of the output written before `enumerate` streamed.
ENUMERATE_GOLDEN = [
    (["enumerate", "4", "pf"], 3500, "d75ac841a479442e3f9e47adca9f7fdedbf66d5051a571b19b462835537e47b8"),
    (["enumerate", "4", "bases"], 6500, "766b4da738a63ca6247823054659d10b71e814ce89990fdab20d837df6b208b0"),
    (["enumerate", "4", "chains"], 16875, "13d1029caed826bb78067b6b82c1ae2647c1c174bc8729b46785483424c59bbb"),
    (["enumerate", "6", "nondecreasing"], 4488,
     "de046f594b21cb397a0da8abe4122b57ead25a198105a4496b6194dca38ea695"),
    (["enumerate", "6", "bases"], 1142876,
     "fd90d9d947d6944e7d919d1ada6edaab0906835484aad877b37c4939efbedcb6"),
]


@pytest.mark.parametrize("argv,size,sha", ENUMERATE_GOLDEN)
def test_enumerate_writes_golden_lines_to_a_write_only_stdout(argv, size, sha, monkeypatch):
    sink = _WriteOnly()
    monkeypatch.setattr("sys.stdout", sink)
    main(argv)
    assert (sink.size, sink.sha.hexdigest()) == (size, sha)


# The two other large writes, as `bench/workloads.py` checks them.
WRITE_GOLDEN = [
    (["enumerate", "6", "pf"], 571438, "96fee95630a3cf640bf11593bc348d41f02709e97177e04ab8821a61cf843bb5"),
    (["orbit", "5"], 242370, "74bd0b525200cf62b4e7752e8a1fa0b37390adfdf73e796fbfae09f3f557c215"),
]


@pytest.mark.parametrize("argv,size,sha", WRITE_GOLDEN)
def test_large_writes_match_their_golden_bytes(argv, size, sha, monkeypatch):
    sink = _WriteOnly()
    monkeypatch.setattr("sys.stdout", sink)
    main(argv)
    assert (sink.size, sink.sha.hexdigest()) == (size, sha)


# Sizes and sha256 digests at n = 7, as written when pf lines came one per head f[:n-1], chain
# partitions were each checked for crossings, and bases lines were joined one by one.
ENUMERATE_7_GOLDEN = [
    (["enumerate", "7", "pf"], 9699328, "81a8422f348210e474028769ba5a4897ab6a7ab5b2109418cdb2fbf6ca70537f"),
    (["enumerate", "7", "chains"], 78643200, "ed6493b3a520dbd2996f5a1b8dd93831bf9e3f9334f49b3e66817b3c15bd8c91"),
    (["enumerate", "7", "bases"], 19922944, "f4214138c71d419b1db60e01914d13695ad4f3c5d33da52fc4c911751662f78b"),
]


@pytest.mark.parametrize("argv,size,sha", ENUMERATE_7_GOLDEN)
def test_enumerate_7_streams_its_golden_bytes(argv, size, sha, monkeypatch):
    # A pf item is a block of lines now, but the output still comes in writes of at most 1 MiB.
    sink = _WriteOnly()
    monkeypatch.setattr("sys.stdout", sink)
    main(argv)
    assert (sink.size, sink.sha.hexdigest()) == (size, sha)
    assert sink.writes > 1 and sink.largest <= 2**20


@pytest.mark.parametrize("argv,size,sha", ENUMERATE_GOLDEN)
def test_enumerate_out_file_matches_stdout(argv, size, sha, tmp_path, monkeypatch, capsys):
    outfile = tmp_path / "out.ndjson"
    code, out, _ = run_cli([*argv, "--out", str(outfile)], "", monkeypatch, capsys)
    assert code == 0 and out == ""
    data = outfile.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha)


def test_enumerate_memory_stays_flat(monkeypatch):
    # The bases run starts from empty interleaving, text and basis tables, so its peak counts them too.
    for kind, size in [("pf", 571438), ("bases", 1142876)]:  # all 16,807 lines of each
        dbasis._gathers.cache_clear()
        dbasis._text_gathers.cache_clear()
        dbasis._table.cache_clear()
        sink = _WriteOnly()
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            main(["enumerate", "6", kind])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size == size
        assert peak < 2**20, kind


def test_an_interleaving_of_more_than_a_chunk_is_split(monkeypatch):
    # At n = 6 the head (p_0, p_3) interleaves 3 outside roots with 2 inside in C(5, 3) = 10
    # ways; with 4 lines to a text, its 10 lines per (head, sub1, sub2) are 3 texts.
    def lines(size):  # of each gather from (pre, ", ", post, head, *sub1, *sub2): how many pre
        return [gather(range(9)).count(0) for gather in dbasis._text_gathers(6, 3, size)]

    assert (lines(64), lines(4)) == ([10], [4, 4, 2])
    monkeypatch.setattr("parkbases.cli._CHUNK", 4)
    sink = _WriteOnly()
    monkeypatch.setattr("sys.stdout", sink)
    main(["enumerate", "6", "bases"])
    assert (sink.size, sink.sha.hexdigest()) == ENUMERATE_GOLDEN[-1][1:]
    assert sink.most_lines <= 4 * 4
    leaf = functools.cache(lambda a, b: f"[{a + 1}, {b}]")
    texts = list(dbasis._point_lines(tuple(range(7)), leaf, "", "\n", 4))
    assert max(text.count("\n") for text in texts) == 4 and len("".join(texts).splitlines()) == 7 ** 5


def test_orbit_json_is_the_graph_as_json(monkeypatch, capsys):
    graph = orbit_graph(3)
    edges = [[list(f), k, list(graph.alpha[f, k])] for f in graph.nodes for k in (1, 2)]
    expected = json.dumps({"n": 3, "nodes": [list(f) for f in graph.nodes], "edges": edges}, sort_keys=True)
    assert run_cli(["orbit", "3", "--format", "json"], "", monkeypatch, capsys) == (0, expected + "\n", "")


def test_orbit_6_streams_its_golden_bytes(monkeypatch):
    # The DOT lines are written as they are made, not joined into one text of 4.2 MB first.
    sink = _WriteOnly()
    monkeypatch.setattr("sys.stdout", sink)
    main(["orbit", "6"])
    assert (sink.size, sink.sha.hexdigest()) == (
        4235382, "212ff53eb54462428f4c14abfdb0da7310d217308065549f152a84a0f1300036")
    assert sink.writes > 1 and sink.largest <= 2**20


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_render_leaves_orbit_graphs_to_the_orbit_verb(fmt, monkeypatch, capsys):
    # --target comes first, so its refusal is the one reported even where --format dot is refused too.
    code, out, err = run_cli(["render", "--target", "orbit", "--format", fmt], '{"n":3}', monkeypatch, capsys)
    assert _single_error(code, out, err, "E_PARSE: argument --target: invalid choice: 'orbit'")


def test_include_beta_is_refused_outside_dot(monkeypatch, capsys):
    # The JSON graph has no beta edges to add, so the flag would change nothing there.
    code, out, err = run_cli(["orbit", "3", "--format", "json", "--include-beta"], "", monkeypatch, capsys)
    assert (code, out, err) == (1, "", "E_PARSE: --include-beta needs --format dot\n")
    code, out, err = run_cli(["orbit", "3", "--include-beta"], "", monkeypatch, capsys)
    assert code == 0 and err == "" and out == "".join(render.orbit_dot(orbit_graph(3), include_beta=True))


@pytest.mark.parametrize("argv", [["enumerate", "2", "pf"], ["orbit", "2"], ["verify", "2"]])
def test_verbs_that_read_no_payload_refuse_in(argv, tmp_path, monkeypatch, capsys):
    # Not ignored, even for a missing file, and not read as an abbreviation of
    # `--include-beta` (orbit) or `--inject-fault` (verify) when it comes alone.
    for extra in (["--in", str(tmp_path / "missing.json")], ["--in"]):
        code, out, err = run_cli([*argv, *extra], "", monkeypatch, capsys)
        assert (code, out, err) == (1, "", f"E_PARSE: unrecognized arguments: {' '.join(extra)}\n")


def test_unrecognized_arguments_are_echoed_within_the_line_bound(monkeypatch, capsys):
    # 5,000 zeros once made an E_PARSE line of 5,050 bytes; now the line keeps both ends of the message.
    argv = ["enumerate", "3", "pf", "--limit", "1"]
    code, out, err = run_cli([*argv, "0", "1", "2", "3", "4", "5"], "", monkeypatch, capsys)
    assert (code, out, err) == (1, "", "E_PARSE: unrecognized arguments: 0 1 2 3 4 5\n")
    code, out, err = run_cli([*argv, *["0"] * 5000], "", monkeypatch, capsys)
    message = f"unrecognized arguments: {'0 ' * 28} ... [9873 characters] ... {' 0' * 35}"
    assert (code, out, err) == (1, "", f"E_PARSE: {message}\n")


_DIGITS = sys.get_int_max_str_digits()  # int() reads at most this many digits, leading zeros included
_X = "x" * 100_000


@pytest.mark.parametrize(
    "argv, stdin_text, code, message",
    [
        (["enumerate", "2", _X], "", "E_PARSE",
         f"argument kind: invalid choice: '{_X}' (choose from 'pf', 'bases', 'nondecreasing', 'chains')"),
        (["orbit", "2", "--format", _X], "", "E_PARSE",
         f"argument --format: invalid choice: '{_X}' (choose from 'dot', 'json')"),
        (["enumerate", "2", "pf", _X], "", "E_PARSE", f"unrecognized arguments: {_X}"),
        (["enumerate", _X, "pf"], "", "E_PARSE", f"argument n: invalid int value: '{_X}'"),
        (["braid", "apply", _X], "", "E_BAD_WORD", f"letter 1 ('{_X}') is not an integer"),
        (["convert", "pf-to-basis"], json.dumps({"f": [2] * 100_000}), "E_INVALID_PF",
         f"{[2] * 100_000} violates the parking condition"),
        (["enumerate", "9" * _DIGITS, "bases", "--limit", "9" * _DIGITS], "", "E_LIMIT",
         f"n={'9' * _DIGITS} is too large for the bases enumeration"),
    ],
    ids=["kind", "format", "unrecognized", "n", "letter", "pf", "listing"],
)
def test_a_long_message_is_one_short_line_that_keeps_both_ends(argv, stdin_text, code, message,
                                                                 monkeypatch, capsys):
    status, out, err = run_cli(argv, stdin_text, monkeypatch, capsys)
    cut = f" ... [{len(message) - 150} characters] ... "
    assert (status, out, err) == (1, "", f"{code}: {message[:80]}{cut}{message[-70:]}\n")
    assert len(err.encode()) < 200


def test_a_message_of_180_characters_is_printed_whole(monkeypatch, capsys):
    # "letter 1 ('...') is not an integer" is 31 characters around the letter.
    for width, line in [(149, f"letter 1 ('{'x' * 149}') is not an integer"),
                        (150, f"letter 1 ('{'x' * 69} ... [31 characters] ... {'x' * 50}') is not an integer")]:
        code, out, err = run_cli(["braid", "apply", "x" * width], "", monkeypatch, capsys)
        assert (code, out, err) == (1, "", f"E_BAD_WORD: {line}\n")


@pytest.mark.parametrize("kind, n", [("pf", 1372), ("bases", 1372), ("chains", 1372), ("nondecreasing", 7153)])
def test_a_count_past_the_int_text_limit_is_one_error_line(kind, n, tmp_path, monkeypatch, capsys):
    # n - 1 is the last size whose count has at most sys.get_int_max_str_digits() = 4,300 digits.
    code, out, err = run_cli(["enumerate", str(n - 1), kind, "--count", "--limit", str(n)], "", monkeypatch, capsys)
    assert (code, err) == (0, "") and json.loads(out)["count"] == _ENUMERATE[kind][1](n - 1)
    outfile = tmp_path / "count.json"
    argv = ["enumerate", str(n), kind, "--count", "--limit", str(n), "--out", str(outfile)]
    code, out, err = run_cli(argv, "", monkeypatch, capsys)
    assert (code, out, err) == (1, "", f"E_LIMIT: the {kind} count at n={n} has more than 4300 digits\n")
    assert not outfile.exists()  # refused before anything is written


@pytest.mark.parametrize("kind", ["pf", "nondecreasing"])
def test_a_count_far_past_the_int_text_limit_is_refused_uncounted(kind, monkeypatch, capsys):
    # A lower bound on the count's digits settles it: the count itself is never computed.
    refuse = refusing("the count is computed")
    monkeypatch.setattr("parkbases.cli.basis_count", refuse)
    monkeypatch.setattr("parkbases.cli.catalan", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(["enumerate", "100000000", kind, "--count", "--limit", "100000000"], "",
                             monkeypatch, capsys)
    message = f"E_LIMIT: the {kind} count at n=100000000 has more than 4300 digits\n"
    assert (code, out, err) == (1, "", message) and time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv, what, limit",
    [(["enumerate", "{}", "pf"], "pf", 8), (["orbit", "{}"], "orbit", 6), (["verify", "{}"], "all", 5)],
    ids=["enumerate", "orbit", "verify"],
)
def test_an_integer_of_too_many_digits_is_one_short_error_line(argv, what, limit, monkeypatch, capsys):
    small = [arg.format(2) for arg in argv]
    _, expected, _ = run_cli(small, "", monkeypatch, capsys)
    # At the bound, n and --limit are read as int() reads them, the sign not counted: an E_LIMIT
    # line that keeps both ends of n's message, or the usual answer.
    n = "9" * _DIGITS
    code, out, err = run_cli([arg.format("+" + n) for arg in argv], "", monkeypatch, capsys)
    tail = f" exceeds the {what} limit {limit}; raise it with --limit"
    cut = f" ... [{2 + _DIGITS + len(tail) - 150} characters] ... "
    message = f"E_LIMIT: n={n[:78]}{cut}{(n + tail)[-70:]}\n"
    assert (code, out, err) == (1, "", message) and len(err) < 200
    code, out, err = run_cli([*small, "--limit", "+1" + "0" * (_DIGITS - 1)], "", monkeypatch, capsys)
    assert (code, out, err) == (0, expected, "")
    # One digit more, leading zeros counted, is one E_PARSE line that names the digit count, not the digits.
    for name, args in [("n", [arg.format("0" * _DIGITS + "3") for arg in argv]),
                       ("--limit", [*small, "--limit", "1" * (_DIGITS + 1)])]:
        code, out, err = run_cli(args, "", monkeypatch, capsys)
        message = f"E_PARSE: argument {name}: {_DIGITS + 1} digits, more than the {_DIGITS} Python reads as an int\n"
        assert (code, out, err) == (1, "", message) and len(err) < 200


# Fuzzing the stdin verbs: every payload either succeeds or gets one error line.
STDIN_VERBS = [
    ["convert", "pf-to-basis"],
    ["convert", "basis-to-pf"],
    ["braid", "apply", "1"],
    ["braid", "apply", "2 -1 3"],
    ["quiver", "table"],
    ["nc", "to-chain"],
    ["nc", "from-chain"],
    *(
        ["render", "--format", fmt, "--target", target]
        for fmt, target in [("ascii", "diagram"), ("ascii", "arcs"), ("ascii", "table"),
                            ("svg", "diagram"), ("svg", "arcs"), ("json", "diagram"),
                            ("json", "arcs"), ("json", "table"), ("dot", "arcs")]
    ),
]
_SMALL = st.integers(-2, 5)
_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL | st.sampled_from([10**6, 2.0, 1.5]) | st.text(max_size=2),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=10,
)
_VALID_PFS = [list(f) for n in range(1, 5) for f in parking_functions(n)]


@st.composite
def _payloads(draw):
    """Valid payloads for every verb, then some fields replaced by near-miss or arbitrary JSON."""
    f = draw(st.sampled_from(_VALID_PFS))
    basis = reconstruct(f)
    chain = partition_chain(basis)
    payload = {
        "n": len(f),
        "f": f,
        "basis": [list(r.as_pair()) for r in basis],
        "chain": [[list(b) for b in p.blocks] for p in chain.partitions],
    }
    for key in draw(st.lists(st.sampled_from(sorted(payload)), max_size=3, unique=True)):
        payload[key] = draw(
            _JSON
            | st.lists(_SMALL, max_size=6)
            | st.lists(st.lists(_SMALL, min_size=2, max_size=2), max_size=6)
            | st.lists(st.lists(st.lists(_SMALL, max_size=3), max_size=4), max_size=5)
        )
    return draw(st.just(payload) | _JSON)


def _run_quiet(argv, stdin_text):
    """`run_cli` without pytest's function-scoped fixtures, which hypothesis examples cannot share."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(argv)
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.sampled_from(STDIN_VERBS), payload=_payloads())
def test_stdin_verbs_answer_or_print_one_error_line(argv, payload):
    code, out, err = _run_quiet(argv, json.dumps(payload))
    if code == 0:
        assert out and err == ""
    else:
        assert code == 1 and out == "", (code, out)
        assert re.fullmatch(r"E_[A-Z_]+: [^\n]+\n", err) and len(err.encode()) < 200, err


_NUMBERS = ("-1", "0", "1", "2", "3", "two", "1.5")  # --limit takes only these, so nothing runs large
_LIMITS = [["--limit", value] for value in _NUMBERS]
_N = [["1"], ["2"], ["3"]]  # the other numbers come in as noise


def _units(*tokens):
    return [[token] for token in tokens]


_SLOTS = {  # per verb, the argument units that may fill each slot in turn ([] leaves it out)
    "convert": [_units("pf-to-basis", "basis-to-pf")],
    "enumerate": [_N, _units(*_ENUMERATE), [["--count"], []], [*_LIMITS, []]],
    "braid": [_units("apply"), _N],
    "orbit": [
        _N, [["--format", "dot"], ["--format", "json"], []], [["--include-beta"], []], [*_LIMITS, []],
    ],
    "render": [[["--format", f] for f in ("ascii", "svg", "dot", "json")],  # dot and orbit are refused
               [["--target", t] for t in ("arcs", "diagram", "orbit", "table")]],
    "quiver": [_units("table")],
    "nc": [_units("to-chain", "from-chain")],
    "verify": [_N, _units("all", *verify.SUITES), [["--inject-fault"], []], [*_LIMITS, []]],
}
# Any token of any slot, alone (so a flag may lack its value), a verb, any number, or a bad value.
_NOISE = _units(*sorted({*(t for slots in _SLOTS.values() for slot in slots for unit in slot for t in unit),
                         *_SLOTS, *_NUMBERS, "foo"}))
_SMALL_PAYLOAD = json.dumps({
    "n": 3, "f": [2, 2, 1], "basis": [[2, 3], [2, 2], [1, 3]],
    "chain": [[list(b) for b in p.blocks] for p in partition_chain(reconstruct((2, 2, 1))).partitions],
})


@st.composite
def _argvs(draw):
    """A verb (or none), its slots filled mostly as the verb takes them, sometimes with noise or nothing."""
    verb = draw(st.sampled_from([*_SLOTS, None]))
    argv = [verb] if verb else []
    for slot in _SLOTS.get(verb, []):
        pick = draw(st.integers(0, 5))
        argv += [] if pick == 0 else draw(st.sampled_from(_NOISE if pick == 1 else slot))
    if draw(st.integers(0, 3)) == 0:
        argv += draw(st.sampled_from(_NOISE))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argvs(), stdin_text=st.sampled_from(["{}", _SMALL_PAYLOAD]))
def test_any_argv_answers_or_prints_one_error_line(argv, stdin_text):
    # Argument errors are one E_PARSE line and exit 1 like every other error, never argparse's
    # usage text and exit 2.  `verify --inject-fault` exits 1 with its report and no error line.
    code, out, err = _run_quiet(argv, stdin_text)
    assert code in (0, 1), (argv, code, err)
    if err:
        assert code == 1 and out == "", (argv, out)
        assert re.fullmatch(r"E_[A-Z_]+: [^\n]+\n", err) and len(err.encode()) < 200, (argv, err)


def _cli_process(argv, stdout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "parkbases.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


_BROKEN_PIPE = "E_IO: cannot write output: [Errno 32] Broken pipe\n"


def test_a_pipe_closed_mid_stream_is_one_error_line():
    # `parkbases enumerate 6 bases | head -c 50`: the reader leaves after 50 bytes.
    with _cli_process(["enumerate", "6", "bases"], subprocess.PIPE) as proc:
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert (proc.wait(timeout=60), err) == (1, _BROKEN_PIPE)


def test_a_pipe_closed_before_the_first_byte_is_one_error_line():
    # A short answer sits in the stdout buffer until the flush, which must not be
    # left to the interpreter's exit ("Exception ignored ...", exit 120).
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(["enumerate", "2", "pf"], write_end)
    finally:
        os.close(write_end)
    with proc:
        err = proc.stderr.read().decode()
        assert (proc.wait(timeout=60), err) == (1, _BROKEN_PIPE)
