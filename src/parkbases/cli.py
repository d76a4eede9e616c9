"""
Command-line front end.

Verbs: convert, enumerate, braid, orbit, render, quiver, nc, verify.
JSON travels on stdin/stdout by default with the fixed field names n, f, basis,
word, chain, hom, ext.  --out redirects any verb's output to a file, and --in
redirects the input of the verbs that read a payload (convert, braid apply,
render, quiver table, nc) from one.  Every verb writes through `_emit`: a JSON
answer is one line, dumped from the library's own tuples, and the lines of
`enumerate` and of `orbit`'s DOT are written in chunks as they are made: a chunk
joins up to 64 texts, each one line or a block of up to 64 `enumerate` lines.
Output is deterministic for fixed input and flags.  Every error exits 1 after
printing a single line "CODE: human text" on stderr; arguments argparse rejects
are E_PARSE.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys

from . import noncrossing, render, verify
from .bijection import initial_vector, reconstruct
from .braid import apply_word, generator_order, orbit_graph, parse_word
from .dbasis import (
    BasisError,
    _line_blocks,
    _point_lines,
    basis_count,
    distinguished_bases,
    to_arcs,
    validate_basis,
)
from .parking import (
    _head_walk,
    _tails,
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
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise CliError("E_PARSE", f"cannot read JSON input: {exc}") from exc
    if not isinstance(payload, dict):
        raise CliError("E_PARSE", "top-level JSON value must be an object")
    return payload


# Texts per write of an iterable, and the most lines of an `enumerate` text: enough to amortise
# each `write` and each join, few enough that memory stays flat.
_CHUNK = 64


def _emit(args, out) -> None:
    """Write a dict as one JSON line, a string as it is, or an iterable of texts in chunks.

    The dict's values may hold the library's tuples, which JSON writes as arrays.
    Each chunk is the join of the next `_CHUNK` texts, written as they are generated.  A text
    is one line (of `orbit`'s DOT or of `enumerate chains`), or a block of at most `_CHUNK`
    `enumerate` lines: the `pf` lines of a head (`_pf_lines`), the bases lines of a product block
    (`dbasis._point_lines`), or consecutive `nondecreasing` lines (`dbasis._line_blocks`).  So a
    write holds at most `_CHUNK`^2 lines.
    Only `write` is called (and `flush` on sys.__stdout__), so any object with a `write` method will do.
    """
    if isinstance(out, dict):
        out = json.dumps(out, sort_keys=True) + "\n"
    lines = iter([out] if isinstance(out, str) else out)
    target = contextlib.nullcontext(sys.stdout)
    try:
        if args.outfile:
            target = open(args.outfile, "w", encoding="utf-8")
        with target as stream:
            while chunk := list(itertools.islice(lines, _CHUNK)):
                stream.write("".join(chunk))
            if stream is sys.__stdout__:
                stream.flush()
    except OSError as exc:
        if not args.outfile and sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush passes
        raise CliError("E_IO", f"cannot write output: {exc}") from exc


def _integer(text: str) -> int:
    """argparse's `type=int` for n and --limit, refusing a text of too many digits without echoing it.

    int() refuses more decimal digits than sys.get_int_max_str_digits() (0: no bound),
    leading zeros included, and argparse would echo the whole text with its refusal.

    >>> _integer(" +07 "), _integer("1_000")
    (7, 1000)
    """
    bound = sys.get_int_max_str_digits()
    if bound and len(text) > bound and (digits := sum(map(str.isdecimal, text))) > bound:
        raise argparse.ArgumentTypeError(f"{digits} digits, more than the {bound} Python reads as an int")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


# The most digits of n an E_LIMIT line echoes; a longer n is named by its digit count.
_ECHO_DIGITS = 40


def _check_limit(args, what: str, default: int) -> None:
    """Reject args.n above --limit, or above `default` when --limit is not given."""
    if args.limit is not None and args.limit < 1:
        raise CliError("E_PARSE", "--limit must be >= 1")
    limit = default if args.limit is None else args.limit
    if args.n > limit:
        raise CliError("E_LIMIT", f"{_named(args.n)} exceeds the {what} limit {limit}; raise it with --limit")


def _named(n: int) -> str:
    """n as an E_LIMIT line names it: "n=N", or past `_ECHO_DIGITS` digits its digit count."""
    digits = len(str(n))
    return f"n={n}" if digits <= _ECHO_DIGITS else f"an n of {digits} digits"


def _pairs(basis: tuple[Root, ...]) -> list[tuple[int, int]]:
    return [r.as_pair() for r in basis]


def _is_int_list(value) -> bool:
    """Whether a JSON value is a list of integers (JSON bools, 1.9 and 2.0 are not integers)."""
    return isinstance(value, list) and set(map(type, value)) <= {int}


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
    flat = itertools.chain.from_iterable  # one pass per level: partitions, blocks, points
    nested = isinstance(raw, list) and set(map(type, raw)) <= {list}
    blocks = [*flat(raw)] if nested else []
    if not (nested and set(map(type, blocks)) <= {list} and set(map(type, flat(blocks))) <= {int}):
        raise CliError("E_INVALID_CHAIN", "malformed chain: expected lists of integer blocks")
    try:
        chain = noncrossing._chain_of_blocks(raw)
    except ValueError as exc:  # includes an empty block
        raise CliError("E_INVALID_CHAIN", f"malformed chain: {exc}") from exc
    if chain.n < 1:
        raise CliError("E_PARSE", "n must be >= 1")
    return chain


def cmd_convert(args) -> None:
    payload = _read_payload(args)
    if args.direction == "pf-to-basis":
        f = _payload_pf(payload)
        basis = reconstruct(f)
        verified = initial_vector(basis) == f
        _emit(args, {"n": len(f), "basis": _pairs(basis), "verified": verified})
    else:
        basis = _payload_basis(payload)
        f = initial_vector(basis)
        verified = reconstruct(f) == basis
        _emit(args, {"n": len(f), "f": f, "verified": verified})


def _pf_lines(n: int, head: str, tail: str):
    """The parking-function lines, in blocks: per head f[:n-2] of `parking._head_walk`, one join
    of the head's text with the lines of its two-entry tails.

    The tails depend only on the head's two empty spots (b, a), so their lines are made once per
    key, in blocks of at most `_CHUNK` lines (one block for every key when n <= 8), each led
    by "" so that the join puts the head's text before every line.
    """
    if n == 1:  # no two-entry tail
        yield f"{head}1{tail}"
        return

    @functools.cache  # per call: at most n^2 keys
    def blocks(b: int, a: int) -> list[list[str]]:
        lines = [f"{v}, {w}{tail}" for v, w in _tails(b, a)]
        return [["", *lines[i : i + _CHUNK]] for i in range(0, len(lines), _CHUNK)]

    for text, b, a in _head_walk(n, head, [f"{v}, " for v in range(n + 1)]):
        yield from map(text.join, blocks(b, a))


# kind: (default limit, closed-form count, field name, lines(n, head, tail)), where each line is
# head + the JSON texts of the item's list elements + tail (`chains` yields such lines, the other
# kinds blocks of them).
# Every field name sorts before "n", and the texts are JSON with the default separators: each
# line is json.dumps(item, sort_keys=True).  The lambdas look the enumerators up when called, so a
# rebinding of this module's names (bench/spans.py traces that way) reaches them; it still
# rebinds `parking_functions` and `distinguished_bases`, which listing no longer calls.
_ENUMERATE = {
    "pf": (8, lambda n: basis_count(n), "f", _pf_lines),
    "bases": (
        8, lambda n: basis_count(n), "basis",
        lambda n, head, tail: _point_lines(
            tuple(range(n + 1)), functools.cache(lambda a, b: f"[{a + 1}, {b}]"), head, tail, _CHUNK),
    ),
    "nondecreasing": (
        12, lambda n: catalan(n), "f",
        lambda n, head, tail: _line_blocks(
            (map(str, f) for f in nondecreasing_parking_functions(n)), head, tail, _CHUNK),
    ),
    "chains": (  # one line per chain, from the JSON of its partitions without the outer brackets
        8, lambda n: basis_count(n), "chain",
        lambda n, head, tail: (head + json.dumps([p.blocks for p in c.partitions])[1:-1] + tail
                               for c in noncrossing.maximal_chains(n)),
    ),
}


def cmd_enumerate(args) -> None:
    limit, count, field, lines = _ENUMERATE[args.kind]
    _check_limit(args, args.kind, limit)
    if args.n < 1:
        raise CliError("E_PARSE", "n must be >= 1")
    n = args.n
    if args.count:
        # int-to-str conversion refuses a count of more than `digits` digits (0: no bound).  Each
        # count is at least 2^(n-1) (catalan(n + 1) >= 2 catalan(n)), which has over 3(n-1)/10 digits
        # as log10(2) > 3/10: from n = 14,335 at 4,300 digits, that refuses the count uncomputed.
        digits = sys.get_int_max_str_digits()
        try:
            if digits and 3 * (n - 1) // 10 >= digits:
                raise ValueError
            line = json.dumps({"n": n, "kind": args.kind, "count": count(n)}, sort_keys=True) + "\n"
        except ValueError as exc:
            name = _named(n)
            raise CliError("E_LIMIT", f"the {args.kind} count at {name} has more than {digits} digits") from exc
        _emit(args, line)
        return
    try:  # before their first item, the bases and chains enumerators recurse to depth n - 5
        _emit(args, lines(n, f'{{"{field}": [', f'], "n": {n}}}\n'))
    except RecursionError as exc:
        raise CliError("E_LIMIT", f"n={n} is too deep for the {args.kind} enumeration") from exc


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
            "word": word,
            "basis": _pairs(result),
            "f": initial_vector(result),
            "orbit_lengths": orbit_lengths,
        },
    )


def cmd_orbit(args) -> None:
    if args.include_beta and args.format != "dot":
        raise CliError("E_PARSE", "--include-beta needs --format dot")
    if args.n < 2:
        raise CliError("E_PARSE", "orbit graphs need n >= 2")
    _check_limit(args, "orbit", 6)  # orbit_graph(6) holds about 16 MiB; n = 7 would need about 300 MiB
    graph = orbit_graph(args.n)
    if args.format == "dot":
        _emit(args, render.orbit_dot(graph, include_beta=args.include_beta))
    else:
        _emit(args, {"n": graph.n, "nodes": graph.nodes, "edges": list(graph.edges())})


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
    else:
        obj = hom_ext_table(modules_of(_payload_basis(payload)))
    _emit(args, render.render(spec, obj))


def cmd_quiver(args) -> None:
    basis = _payload_basis(_read_payload(args))
    hom, ext = hom_ext_table(modules_of(basis))
    _emit(args, {"n": len(basis), "hom": hom, "ext": ext})


def cmd_nc(args) -> None:
    payload = _read_payload(args)
    if args.action == "to-chain":
        basis = _payload_basis(payload)
        chain = noncrossing.partition_chain(basis)
        blocks = [p.blocks for p in chain.partitions]
        _emit(args, {"n": chain.n, "chain": blocks, "labels": noncrossing.stanley_labels(chain)})
    else:
        chain = _payload_chain(payload)
        basis = noncrossing.chain_to_basis(chain)
        _emit(args, {"n": chain.n, "basis": _pairs(basis)})


_VERIFY_LIMITS = {"all": 5, "bijection": 7, "braid": 6, "quiver": 8, "noncrossing": 5}


def cmd_verify(args) -> None:
    if args.n < 1:
        raise CliError("E_PARSE", "n must be >= 1")
    _check_limit(args, args.suite, _VERIFY_LIMITS[args.suite])
    try:
        report = verify.run_suite(args.n, args.suite, inject_fault=args.inject_fault)
    except ValueError as exc:  # a suite the injected fault does not reach
        raise CliError("E_PARSE", str(exc)) from exc
    _emit(args, report)
    if not report["ok"]:
        sys.exit(1)


# The most unrecognized arguments an E_PARSE line echoes; past them it gives their number.
_ECHO_ARGS = 5


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, its subparsers' included, raise CliError("E_PARSE", ...).

    Options are read only in full, so `verify 2 --in` is not `--inject-fault` and
    `orbit 2 --in` is not `--include-beta`.  Unrecognized arguments are echoed up to
    `_ECHO_ARGS` of them, then counted.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            more = f" ... ({len(extra)} in all)" if len(extra) > _ECHO_ARGS else ""
            self.error(f"unrecognized arguments: {' '.join(extra[:_ECHO_ARGS])}{more}")
        return args

    def error(self, message):
        raise CliError("E_PARSE", message)


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parkbases")
    sub = parser.add_subparsers(dest="verb", required=True)

    def out_flag(p):
        p.add_argument("--out", dest="outfile", help="write output to a file instead of stdout")

    def io_flags(p):  # the verbs that read a JSON payload
        p.add_argument("--in", dest="infile", help="read JSON input from a file instead of stdin")
        out_flag(p)

    p = sub.add_parser("convert", help="convert between parking functions and bases")
    p.add_argument("direction", choices=["pf-to-basis", "basis-to-pf"])
    io_flags(p)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("enumerate", help="enumerate parking functions, bases or chains")
    p.add_argument("n", type=_integer)
    p.add_argument("kind", choices=list(_ENUMERATE))
    p.add_argument("--count", action="store_true", help="emit only the count")
    p.add_argument("--limit", type=_integer, help="raise the size limit")
    out_flag(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("braid", help="apply a braid word")
    braid_sub = p.add_subparsers(dest="braid_action", required=True)
    q = braid_sub.add_parser("apply")
    q.add_argument("word", help='whitespace-separated signed letters, e.g. "1 -2 1"')
    io_flags(q)
    q.set_defaults(fn=cmd_braid)

    p = sub.add_parser("orbit", help="the full generator action graph")
    p.add_argument("n", type=_integer)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--include-beta", action="store_true", help="also draw the beta edges (DOT only)")
    p.add_argument("--limit", type=_integer, help="raise the size limit")
    out_flag(p)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("render", help="render diagrams, arcs or tables")
    p.add_argument("--format", required=True, choices=list(dict.fromkeys(f for f, _ in render.RENDERERS)))
    p.add_argument("--target", required=True, choices=list(dict.fromkeys(t for _, t in render.RENDERERS)))
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
    p.add_argument("n", type=_integer)
    p.add_argument("suite", nargs="?", default="all", choices=["all", *verify.SUITES])
    p.add_argument(
        "--inject-fault", action="store_true", help="self-test, must fail; suites all, bijection, quiver"
    )
    p.add_argument("--limit", type=_integer, help="raise the size limit")
    out_flag(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> None:
    try:
        args = build_parser().parse_args(argv)
        args.fn(args)
    except CliError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
