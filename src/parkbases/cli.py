"""
Command-line front end.

Verbs: convert, enumerate, braid, orbit, render, quiver, nc, verify.
JSON travels on stdin/stdout by default (--in / --out redirect to files) with
the fixed field names n, f, basis, word, chain, hom, ext.  Output is
deterministic for fixed input and flags.  Every error exits nonzero after
printing a single line "CODE: human text" on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import noncrossing, render, verify
from .bijection import initial_vector, reconstruct
from .braid import apply_word, generator_order, orbit_graph, parse_word
from .dbasis import BasisError, basis_count, distinguished_bases, to_arcs, validate_basis
from .parking import (
    catalan,
    is_parking,
    nondecreasing_parking_functions,
    parking_functions,
    to_diagram,
)
from .quiver import hom_ext_table, modules_of
from .roots import Root


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _read_payload(args) -> dict:
    try:
        if args.infile:
            with open(args.infile, encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = sys.stdin.read()
        payload = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("E_PARSE", f"cannot read JSON input: {exc}") from exc
    if not isinstance(payload, dict):
        raise CliError("E_PARSE", "top-level JSON value must be an object")
    return payload


def _emit(args, obj) -> None:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True) + "\n"
    if getattr(args, "outfile", None):
        with open(args.outfile, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _is_int_list(value) -> bool:
    """Whether a JSON value is a list of integers (JSON bools, 1.9 and 2.0 are not integers)."""
    return isinstance(value, list) and all(type(v) is int for v in value)


def _payload_pf(payload: dict) -> tuple[int, ...]:
    if not _is_int_list(payload.get("f")):
        raise CliError("E_PARSE", "missing or malformed field 'f': expected a list of integers")
    f = tuple(payload["f"])
    if not f:
        raise CliError("E_PARSE", "n must be >= 1")
    try:
        if not is_parking(f):
            raise CliError("E_INVALID_PF", f"{list(f)} violates the parking condition")
    except ValueError as exc:
        raise CliError("E_INVALID_PF", str(exc)) from exc
    return f


def _payload_basis(payload: dict) -> tuple[Root, ...]:
    n, raw = payload.get("n"), payload.get("basis")
    if type(n) is not int:
        raise CliError("E_PARSE", "missing or malformed field 'n': expected an integer")
    if n < 1:
        raise CliError("E_PARSE", "n must be >= 1")
    if not (isinstance(raw, list) and all(_is_int_list(p) and len(p) == 2 for p in raw)):
        raise CliError("E_PARSE", "missing or malformed field 'basis': expected integer pairs")
    try:
        roots = tuple(Root(lo, hi, n) for lo, hi in raw)
        return validate_basis(roots, n)
    except BasisError as exc:
        raise CliError("E_INVALID_BASIS", f"{exc.code}: {exc}") from exc
    except ValueError as exc:
        raise CliError("E_INVALID_BASIS", str(exc)) from exc


def _payload_chain(payload: dict) -> noncrossing.NCChain:
    raw = payload.get("chain")
    nested = isinstance(raw, list) and all(isinstance(p, list) for p in raw)
    if not (nested and all(_is_int_list(block) for p in raw for block in p)):
        raise CliError("E_INVALID_CHAIN", "malformed chain: expected lists of integer blocks")
    try:
        return noncrossing.NCChain(tuple(noncrossing.partition(blocks) for blocks in raw))
    except ValueError as exc:  # includes an empty block
        raise CliError("E_INVALID_CHAIN", f"malformed chain: {exc}") from exc


def cmd_convert(args) -> None:
    payload = _read_payload(args)
    if args.direction == "pf-to-basis":
        f = _payload_pf(payload)
        basis = reconstruct(f)
        verified = initial_vector(basis) == f
        _emit(
            args,
            {
                "n": len(f),
                "basis": [list(r.as_pair()) for r in basis],
                "verified": verified,
            },
        )
    else:
        basis = _payload_basis(payload)
        f = initial_vector(basis)
        verified = reconstruct(f) == basis
        _emit(args, {"n": len(f), "f": list(f), "verified": verified})


_ENUM_LIMITS = {"pf": 8, "bases": 8, "nondecreasing": 12, "chains": 8}


def cmd_enumerate(args) -> None:
    limit = args.limit if args.limit is not None else _ENUM_LIMITS[args.kind]
    if args.n > limit:
        raise CliError(
            "E_LIMIT", f"n={args.n} exceeds the {args.kind} limit {limit}; raise it with --limit"
        )
    if args.n < 1:
        raise CliError("E_PARSE", "n must be >= 1")
    n = args.n
    if args.count:
        counts = {
            "pf": lambda: basis_count(n),
            "bases": lambda: sum(1 for _ in distinguished_bases(n)),
            "nondecreasing": lambda: catalan(n),
            "chains": lambda: sum(1 for _ in noncrossing.maximal_chains(n)),
        }
        _emit(args, {"n": n, "kind": args.kind, "count": counts[args.kind]()})
        return
    lines = []
    if args.kind == "pf":
        lines = [{"n": n, "f": list(f)} for f in parking_functions(n)]
    elif args.kind == "nondecreasing":
        lines = [{"n": n, "f": list(f)} for f in nondecreasing_parking_functions(n)]
    elif args.kind == "bases":
        lines = [
            {"n": n, "basis": [list(r.as_pair()) for r in basis]}
            for basis in distinguished_bases(n)
        ]
    else:
        lines = [
            {"n": n, "chain": [[list(b) for b in p.blocks] for p in c.partitions]}
            for c in noncrossing.maximal_chains(n)
        ]
    text = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in lines)
    _emit(args, text)


def cmd_braid(args) -> None:
    try:
        word = parse_word(args.word)
    except ValueError as exc:
        raise CliError("E_BAD_WORD", str(exc)) from exc
    payload = _read_payload(args)
    if "basis" in payload:
        basis = _payload_basis(payload)
    else:
        basis = reconstruct(_payload_pf(payload))
    n = len(basis)
    for letter in word:
        if not 1 <= abs(letter) <= n - 1:
            raise CliError("E_BAD_WORD", f"letter {letter} out of range for rank {n}")
    result = apply_word(basis, word)
    orbit_lengths = {str(k): generator_order(basis, k) for k in range(1, n)}
    _emit(
        args,
        {
            "n": n,
            "word": list(word),
            "basis": [list(r.as_pair()) for r in result],
            "f": list(initial_vector(result)),
            "orbit_lengths": orbit_lengths,
        },
    )


def cmd_orbit(args) -> None:
    if args.n < 2:
        raise CliError("E_PARSE", "orbit graphs need n >= 2")
    if args.n > args.limit:
        raise CliError("E_LIMIT", f"n={args.n} exceeds the orbit limit {args.limit}; raise it with --limit")
    graph = orbit_graph(args.n)
    if args.format == "dot":
        _emit(args, render.orbit_dot(graph, include_beta=args.include_beta))
    else:
        _emit(args, json.loads(render.render(render.RenderSpec("json", "orbit"), graph)))


def cmd_render(args) -> None:
    try:
        spec = render.RenderSpec(args.format, args.target)
    except ValueError as exc:
        raise CliError("E_RENDER", str(exc)) from exc
    payload = _read_payload(args)
    if args.target == "diagram":
        obj = to_diagram(_payload_pf(payload))
    elif args.target == "arcs":
        obj = to_arcs(_payload_basis(payload))
    elif args.target == "table":
        obj = hom_ext_table(modules_of(_payload_basis(payload)))
    else:
        n = payload.get("n")
        if type(n) is not int:
            raise CliError("E_PARSE", "orbit rendering needs an integer field 'n'")
        if n < 2 or n > 6:
            raise CliError("E_LIMIT", "orbit rendering supports 2 <= n <= 6")
        obj = orbit_graph(n)
    _emit(args, render.render(spec, obj))


def cmd_quiver(args) -> None:
    basis = _payload_basis(_read_payload(args))
    hom, ext = hom_ext_table(modules_of(basis))
    _emit(args, {"n": len(basis), "hom": [list(r) for r in hom], "ext": [list(r) for r in ext]})


def cmd_nc(args) -> None:
    payload = _read_payload(args)
    if args.action == "to-chain":
        basis = _payload_basis(payload)
        chain = noncrossing.partition_chain(basis)
        _emit(
            args,
            {
                "n": chain.n,
                "chain": [[list(b) for b in p.blocks] for p in chain.partitions],
                "labels": list(noncrossing.stanley_labels(chain)),
            },
        )
    else:
        chain = _payload_chain(payload)
        basis = noncrossing.chain_to_basis(chain)
        _emit(args, {"n": chain.n, "basis": [list(r.as_pair()) for r in basis]})


_VERIFY_LIMITS = {"all": 5, "bijection": 7, "braid": 6, "quiver": 8, "noncrossing": 5}


def cmd_verify(args) -> None:
    if args.n < 1:
        raise CliError("E_PARSE", "n must be >= 1")
    limit = args.limit if args.limit is not None else _VERIFY_LIMITS[args.suite]
    if args.n > limit:
        raise CliError(
            "E_LIMIT", f"n={args.n} exceeds the {args.suite} limit {limit}; raise it with --limit"
        )
    report = verify.run_suite(args.n, args.suite, inject_fault=args.inject_fault)
    _emit(args, report)
    if not report["ok"]:
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parkbases")
    sub = parser.add_subparsers(dest="verb", required=True)

    def io_flags(p):
        p.add_argument("--in", dest="infile", help="read JSON input from a file instead of stdin")
        p.add_argument("--out", dest="outfile", help="write output to a file instead of stdout")

    p = sub.add_parser("convert", help="convert between parking functions and bases")
    p.add_argument("direction", choices=["pf-to-basis", "basis-to-pf"])
    io_flags(p)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("enumerate", help="enumerate parking functions, bases or chains")
    p.add_argument("n", type=int)
    p.add_argument("kind", choices=["pf", "bases", "nondecreasing", "chains"])
    p.add_argument("--count", action="store_true", help="emit only the count")
    p.add_argument("--limit", type=int, help="raise the size limit")
    io_flags(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("braid", help="apply a braid word")
    braid_sub = p.add_subparsers(dest="braid_action", required=True)
    q = braid_sub.add_parser("apply")
    q.add_argument("word", help='whitespace-separated signed letters, e.g. "1 -2 1"')
    io_flags(q)
    q.set_defaults(fn=cmd_braid)

    p = sub.add_parser("orbit", help="the full generator action graph")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--include-beta", action="store_true")
    p.add_argument("--limit", type=int, default=6)
    io_flags(p)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("render", help="render diagrams, arcs, tables or orbits")
    p.add_argument("--format", required=True, choices=list(render.FORMATS))
    p.add_argument("--target", required=True, choices=list(render.TARGETS))
    io_flags(p)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("quiver", help="Hom/Ext tables of an exceptional sequence")
    quiver_sub = p.add_subparsers(dest="quiver_action", required=True)
    q = quiver_sub.add_parser("table")
    io_flags(q)
    q.set_defaults(fn=cmd_quiver)

    p = sub.add_parser("nc", help="non-crossing partition chains")
    nc_sub = p.add_subparsers(dest="action", required=True)
    for action in ("to-chain", "from-chain"):
        q = nc_sub.add_parser(action)
        io_flags(q)
        q.set_defaults(fn=cmd_nc, action=action)

    p = sub.add_parser("verify", help="run the cross-checking suites")
    p.add_argument("n", type=int)
    p.add_argument("suite", nargs="?", default="all", choices=["all", *verify.SUITES])
    p.add_argument("--inject-fault", action="store_true", help="self-test: must fail")
    p.add_argument("--limit", type=int, help="raise the size limit")
    io_flags(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except CliError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
