"""The three benchmark workloads: seeded inputs, the timed call, and its check.

Each workload has:
- `pool(seed, child)`: the child process's inputs, as a list of batches;
- `run(item)`: the timed work for one item, calling the library only through
  public functions of its modules (or `cli.main(argv)`);
- `check(item, out)`: failure messages, empty when the answer is right.  The
  checks use a path independent of the one timed wherever one exists;
- `attempted(item)`: how many checked answers one item holds;
- `records(item, out, seconds)`: the item's latency samples, as
  (label, seconds, bytes written) triples; their sum is the item's time.

The child process sets `clock`, the timer that excludes its machine-speed
readings; a workload that times parts of an item uses it.

Library functions are looked up on their modules at call time, so the traced
run sees every call.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import re
import sys
from time import perf_counter

from parkbases import bijection, braid, cli, dbasis, noncrossing, parking, quiver, render, roots, verify

import gen

# ---------------------------------------------------------------- helpers


def pairs_of(basis) -> list[list[int]]:
    return [[r.lo, r.hi] for r in basis]


def roots_of(pairs, n: int):
    return tuple(roots.Root(lo, hi, n) for lo, hi in pairs)


def _overlap(a_lo, a_hi, b_lo, b_hi) -> int:
    return max(0, min(a_hi, b_hi) - max(a_lo, b_lo) + 1)


def seifert_pairs(a, b) -> int:
    """Seifert form by bilinear expansion: shared simple roots minus (i in a, i+1 in b)."""
    return _overlap(a[0], a[1], b[0], b[1]) - _overlap(a[0], a[1], b[0] - 1, b[1] - 1)


def hom_ext_expected(pairs):
    """Hom/Ext dimension matrices from the interval rule and the Euler form."""
    hom = [[1 if b[0] <= a[0] <= b[1] <= a[1] else 0 for b in pairs] for a in pairs]
    ext = [[hom[i][j] - seifert_pairs(a, b) for j, b in enumerate(pairs)] for i, a in enumerate(pairs)]
    return hom, ext


def chain_expected(pairs, n: int) -> list[list[list[int]]]:
    """Connected components of the first k arcs (lo-1, hi), for k = 0..n."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def blocks():
        groups: dict[int, list[int]] = {}
        for x in range(n + 1):
            groups.setdefault(find(x), []).append(x)
        return sorted(groups.values())

    chain = [blocks()]
    for lo, hi in pairs:
        parent[find(lo - 1)] = find(hi)
        chain.append(blocks())
    return chain


def diagram_rows(f) -> list[int]:
    """Labels of the staircase rows, top-down."""
    return [k + 1 for k in sorted(range(len(f)), key=lambda k: (f[k], k), reverse=True)]


class Workload:
    """Defaults: an item is one checked answer with one latency sample."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.clock = perf_counter

    def attempted(self, item) -> int:
        return 1

    def records(self, item, out, seconds):
        return [("item", seconds, 0)]


# ---------------------------------------------------------------- verify-exhaustive

VERIFY_CHECKS = (
    "seifert_bilinear", "seifert_cases_exclusive", "cartan_symmetric", "counts",
    "round_trips", "geometric_equals_algebraic", "permutation_shortcut", "gap_single_point",
    "validate_accepts_enumeration", "braid_axioms", "diagram_mutation", "young_flips",
    "hom_oracle", "ext_formula", "exceptional_equals_validate", "hom_ext_table_reading",
    "nondecreasing_families", "chain_counts", "chain_identity",
)


class VerifyExhaustive(Workload):
    """`verify.run_suite(5, "all")`, one pass per process; an item is one check."""

    name = "verify-exhaustive"
    n = 5

    def __init__(self, tracer=None):
        super().__init__(tracer)
        self.check_s: list[tuple[str, float]] = []
        for entries in verify.SUITES.values():
            for pos, (check, fn) in enumerate(entries):
                entries[pos] = (check, self._timed(check, fn))

    def _timed(self, check, fn):
        def timed(n):
            if self.tracer is not None:
                self.tracer.current_item = len(self.check_s)
            t0 = self.clock()
            try:
                return fn(n)
            finally:
                self.check_s.append((check, self.clock() - t0))

        return timed

    def pool(self, seed: int, child: int):
        return [[{"n": self.n, "suite": "all"}]]

    def run(self, item):
        self.check_s = []
        return verify.run_suite(item["n"], item["suite"]), self.check_s

    def attempted(self, item) -> int:
        return len(VERIFY_CHECKS)

    def check(self, item, out) -> list[str]:
        report, _ = out
        entries = {entry["name"]: entry for entry in report["checks"]}
        failures = [f"{name}: {entries.get(name, 'missing')}" for name in VERIFY_CHECKS
                    if not entries.get(name, {}).get("ok")]
        if len(report["checks"]) != len(VERIFY_CHECKS) or report["n"] != item["n"]:
            failures.append(f"report shape: {len(report['checks'])} checks at n={report['n']}")
        return failures

    def records(self, item, out, seconds):
        return [(check, s, 0) for check, s in out[1]]


# ---------------------------------------------------------------- sampled-large


class SampledLarge(Workload):
    """Uniform random parking functions at n = 64, each through nine library steps."""

    name = "sampled-large"
    n = 64
    batch = 8
    batches = 32

    def pool(self, seed: int, child: int):
        rng = random.Random(f"{self.name}:{seed}:{child}")
        n = self.n
        items = [
            {
                "f": gen.random_parking(rng, n),
                "word": gen.random_word(rng, n, 2 * n),
                "k": rng.randint(1, n - 1),
                "direction": rng.choice(("left", "right")),
            }
            for _ in range(self.batch * self.batches)
        ]
        return [items[i : i + self.batch] for i in range(0, len(items), self.batch)]

    def run(self, item):
        f, n = item["f"], len(item["f"])
        basis = bijection.reconstruct(f)
        geometric = bijection.reconstruct_geometric(f)
        dbasis.validate_basis(basis, n)
        moved = braid.apply_word(basis, item["word"])
        dbasis.validate_basis(moved, n)
        back = braid.apply_word(moved, gen.inverse_word(item["word"]))
        hom, ext = quiver.hom_ext_table(quiver.modules_of(basis))
        chain = noncrossing.partition_chain(basis)
        labels = noncrossing.stanley_labels(chain)
        again = noncrossing.chain_to_basis(chain)
        k, direction = item["k"], item["direction"]
        via_diagram = parking.from_diagram(braid.mutate_diagram(parking.to_diagram(f), k, direction))
        via_parking = braid.mutate_parking(f, k, direction)
        return {
            "basis": basis, "geometric": geometric, "moved": moved, "back": back,
            "hom": hom, "ext": ext, "labels": labels, "again": again,
            "via_diagram": via_diagram, "via_parking": via_parking,
        }

    def check(self, item, out) -> list[str]:
        f = list(item["f"])
        basis = pairs_of(out["basis"])
        hom, ext = hom_ext_expected(basis)
        wrong = [
            what for what, ok in (
                ("initial vector", [lo for lo, _ in basis] == f),
                ("geometric", pairs_of(out["geometric"]) == basis),
                ("inverse word", pairs_of(out["back"]) == basis),
                ("moved initial vector", gen.is_parking([r.lo for r in out["moved"]])),
                ("hom", [list(row) for row in out["hom"]] == hom),
                ("ext", [list(row) for row in out["ext"]] == ext),
                ("stanley labels", [v + 1 for v in out["labels"]] == f),
                ("chain_to_basis", pairs_of(out["again"]) == basis),
                ("mutation", tuple(out["via_diagram"]) == tuple(out["via_parking"])),
            ) if not ok
        ]
        return [f"f={f}: {what}" for what in wrong]


# ---------------------------------------------------------------- cli-mixed


class Sink:
    """A text stream that counts and hashes what is written, keeping only small outputs."""

    keep_limit = 256 * 1024

    def __init__(self):
        self.size = 0
        self.sha = hashlib.sha256()
        self.parts: list[str] | None = []

    def write(self, text: str) -> int:
        self.size += len(text)
        self.sha.update(text.encode())
        if self.parts is not None:
            self.parts.append(text)
            if self.size > self.keep_limit:
                self.parts = None
        return len(text)

    def flush(self) -> None:
        pass

    @property
    def text(self) -> str | None:
        return None if self.parts is None else "".join(self.parts)


# stdout of the seed commit for the fixed large writes: (bytes, sha256)
GOLDEN = {
    ("enumerate", "6", "pf"): (571438, "96fee95630a3cf640bf11593bc348d41f02709e97177e04ab8821a61cf843bb5"),
    ("enumerate", "6", "bases"): (1142876, "fd90d9d947d6944e7d919d1ada6edaab0906835484aad877b37c4939efbedcb6"),
    ("orbit", "5"): (242370, "74bd0b525200cf62b4e7752e8a1fa0b37390adfdf73e796fbfae09f3f557c215"),
}

# One block of 100 requests, shuffled: 91 small reads, 5 invalid payloads and
# 4 large writes.  The slowest write fills 2% of requests so that the p99
# latency falls inside its group rather than on the edge between two verbs.
BLOCK = (
    [("convert-pf", 10), ("convert-basis", 10), ("braid-f", 8), ("braid-basis", 8),
     ("quiver", 9), ("nc-to", 9), ("nc-from", 9), ("render-svg-arcs", 7),
     ("render-ascii-arcs", 7), ("render-svg-diagram", 7), ("render-ascii-diagram", 7)]
    + [("bad-pf", 2), ("bad-basis", 2), ("bad-word", 1)]
    + [("write", 4)]
)
WRITES = [("enumerate", "6", "bases"), ("enumerate", "6", "bases"), ("enumerate", "6", "pf"), ("orbit", "5")]
BASIS_INPUT = {"convert-basis", "braid-basis", "quiver", "nc-to", "render-svg-arcs", "render-ascii-arcs"}
ERROR_CODES = {"bad-pf": "E_INVALID_PF", "bad-basis": "E_INVALID_BASIS", "bad-word": "E_BAD_WORD"}
READ_ARGV = {
    "convert-pf": ["convert", "pf-to-basis"],
    "convert-basis": ["convert", "basis-to-pf"],
    "quiver": ["quiver", "table"],
    "nc-to": ["nc", "to-chain"],
    "nc-from": ["nc", "from-chain"],
    "render-svg-arcs": ["render", "--format", "svg", "--target", "arcs"],
    "render-ascii-arcs": ["render", "--format", "ascii", "--target", "arcs"],
    "render-svg-diagram": ["render", "--format", "svg", "--target", "diagram"],
    "render-ascii-diagram": ["render", "--format", "ascii", "--target", "diagram"],
    "bad-pf": ["convert", "pf-to-basis"],
    "bad-basis": ["convert", "basis-to-pf"],
}


class CliMixed(Workload):
    """In-process `cli.main(argv)` requests, stdin carrying the generated payload."""

    name = "cli-mixed"
    blocks = 16

    def _request(self, rng: random.Random, kind: str) -> dict:
        n = rng.randint(8, 32)
        f = gen.random_parking(rng, n)
        pairs = pairs_of(bijection.reconstruct(f))
        req = {"kind": kind, "n": n, "f": list(f), "basis": pairs}
        payload = {"n": n, "basis": pairs} if kind in BASIS_INPUT else {"f": list(f)}
        if kind in ("braid-f", "braid-basis", "bad-word"):
            word = list(gen.random_word(rng, n, rng.randint(1, 6)))
            if kind == "bad-word":
                word[rng.randrange(len(word))] = rng.choice((n, -n))
            req["word"] = word
            req["argv"] = ["braid", "apply", " ".join(map(str, word))]
        elif kind == "nc-from":
            payload = {"chain": chain_expected(pairs, n)}
        elif kind == "bad-pf":
            payload = {"f": [rng.randint(2, n) for _ in range(n)]}
        elif kind == "bad-basis":
            # Swap an adjacent pair with nonzero Seifert value: a later root
            # now pairs nonzero with an earlier one.
            k = next((k for k in range(n - 1) if seifert_pairs(pairs[k], pairs[k + 1])), None)
            if k is None:
                return self._request(rng, kind)
            bad = pairs[:k] + [pairs[k + 1], pairs[k]] + pairs[k + 2 :]
            payload = {"n": n, "basis": bad}
        if "argv" not in req:
            req["argv"] = READ_ARGV[kind]
        req["stdin"] = json.dumps(payload)
        return req

    def pool(self, seed: int, child: int):
        rng = random.Random(f"{self.name}:{seed}:{child}")
        kinds = [kind for kind, count in BLOCK for _ in range(count)]
        out = []
        for _ in range(self.blocks):
            rng.shuffle(kinds)
            writes = iter(WRITES)
            out.append([
                {"kind": kind, "argv": list(next(writes)), "stdin": ""} if kind == "write"
                else self._request(rng, kind)
                for kind in kinds
            ])
        return out

    def run(self, req):
        stdout, stderr = Sink(), Sink()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(req["stdin"]), stdout, stderr
        code = 0
        try:
            cli.main(req["argv"])
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, stdout, stderr

    def check(self, req, out) -> list[str]:
        code, stdout, stderr = out
        kind = req["kind"]
        if kind in ERROR_CODES:
            lines = (stderr.text or "").splitlines()
            ok = (code == 1 and stdout.size == 0 and len(lines) == 1
                  and lines[0].startswith(ERROR_CODES[kind] + ": "))
            return [] if ok else [f"{kind} {req['argv']}: exit {code}, stderr {lines!r}"]
        if code != 0 or stderr.size:
            return [f"{kind} {req['argv']}: exit {code}, stderr {stderr.text!r}"]
        if kind == "write":
            size, sha = GOLDEN[tuple(req["argv"])]
            ok = stdout.size == size and stdout.sha.hexdigest() == sha
            return [] if ok else [f"{req['argv']}: {stdout.size} bytes, sha {stdout.sha.hexdigest()}"]
        try:
            ok = self._read_ok(req, stdout.text)
        except (ValueError, KeyError, TypeError, RuntimeError) as exc:
            return [f"{kind} {req['argv']} on {req['stdin']}: {exc!r}"]
        return [] if ok else [f"{kind} {req['argv']} on {req['stdin']}: wrong answer"]

    def _read_ok(self, req, text: str) -> bool:
        kind, n, f, pairs = req["kind"], req["n"], req["f"], req["basis"]
        arcs = [[lo - 1, hi] for lo, hi in pairs]
        if kind == "render-ascii-arcs":
            lines = [f"{i + 1}: {left}--{right}" for i, (left, right) in enumerate(arcs)]
            return text == "\n".join(lines + ["axis: " + " ".join(map(str, range(n + 1)))]) + "\n"
        if kind == "render-ascii-diagram":
            return text == "".join("#" * (f[k - 1] - 1) + f"|{k}\n" for k in diagram_rows(f))
        # SVG: the arcs or rows read back from the picture, and the exact bytes
        # of a direct render call.
        if kind == "render-svg-arcs":
            ends = [[int(a), int(b)] for a, b in re.findall(r'data-ends="(\d+),(\d+)"', text)]
            direct = render.render(render.RenderSpec("svg", "arcs"), dbasis.to_arcs(roots_of(pairs, n)))
            return ends == arcs and text == direct
        if kind == "render-svg-diagram":
            rows = [int(k) for k in re.findall(r'data-row="\d+"[^>]*>(\d+)<', text)]
            direct = render.render(render.RenderSpec("svg", "diagram"), parking.to_diagram(f))
            return text.count("<rect ") == sum(f) - n and rows == diagram_rows(f) and text == direct
        got = json.loads(text)
        if kind == "convert-pf":
            geometric = pairs_of(bijection.reconstruct_geometric(f))
            return got == {"n": n, "basis": geometric, "verified": True}
        if kind == "convert-basis":
            return got == {"n": n, "f": f, "verified": True}
        if kind == "quiver":
            hom, ext = hom_ext_expected(pairs)
            return got == {"n": n, "hom": hom, "ext": ext}
        if kind == "nc-to":
            return got == {"n": n, "chain": chain_expected(pairs, n), "labels": [v - 1 for v in f]}
        if kind == "nc-from":
            return got == {"n": n, "basis": pairs}
        # braid-f / braid-basis: undo the word on the answer, and re-derive the rest.
        moved = got["basis"]
        back = braid.apply_word(roots_of(moved, n), gen.inverse_word(req["word"]))
        orders = {
            str(k): 2 if seifert_pairs(pairs[k - 1], pairs[k]) == seifert_pairs(pairs[k], pairs[k - 1]) == 0 else 3
            for k in range(1, n)
        }
        return (set(got) == {"n", "word", "basis", "f", "orbit_lengths"} and got["n"] == n
                and got["word"] == req["word"] and pairs_of(back) == pairs
                and got["f"] == [lo for lo, _ in moved] and got["orbit_lengths"] == orders)

    def records(self, req, out, seconds):
        return [(req["argv"][0], seconds, out[1].size)]


WORKLOADS = {w.name: w for w in (VerifyExhaustive, SampledLarge, CliMixed)}
