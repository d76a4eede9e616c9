"""Span tracing from outside the library, by rebinding module attributes.

`install(tracer)` replaces the public functions listed in `TARGETS` with
wrappers that record one span per call: name, start, end, parent span, the
item being processed, and whether the call raised.  Names bound where another
module imported them (`braid.reconstruct`, `quiver.ray_stops`, the `cli`
imports, ...) are wrapped too, under the name of the function's home module,
and so are the check functions listed in `verify.SUITES`.  Spans stay in
memory until `Tracer.summary()` folds them into per-name totals and
`Tracer.write()` saves them.

Fine-grained helpers such as `roots.seifert` or `Root` construction are left
alone on purpose: a wrapper costs about a microsecond, which would swamp
their own cost and distort every self time above them.
"""
from __future__ import annotations

import array
import functools
import gzip
import inspect
from time import perf_counter

from parkbases import bijection, braid, cli, dbasis, linalg, noncrossing, parking, quiver, render, verify

# Module attributes to wrap.  A function reached through several import
# bindings is wrapped once and keeps the name of its home module.
TARGETS = {
    parking: ["parking_functions"],
    dbasis: ["distinguished_bases", "validate_basis"],
    linalg: ["rank"],
    bijection: ["reconstruct", "reconstruct_geometric", "ray_stops"],
    braid: ["reconstruct", "ray_stops", "mutate", "apply_word", "mutate_parking", "mutate_diagram",
            "orbit_graph"],
    quiver: ["ray_stops", "hom_ext_table", "hom_dim_oracle"],
    noncrossing: ["partition_chain", "partition", "maximal_chains", "stanley_labels", "chain_to_basis"],
    render: ["render", "orbit_dot"],
    cli: ["main", "build_parser", "initial_vector", "reconstruct", "apply_word", "generator_order",
          "orbit_graph", "parse_word", "basis_count", "distinguished_bases", "to_arcs", "validate_basis",
          "catalan", "is_parking", "nondecreasing_parking_functions", "parking_functions", "to_diagram",
          "hom_ext_table", "modules_of"],
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"


# Functions whose first argument is remembered, to measure how often a call
# repeats an input already seen in the same process.
REPEAT_KEYED = {"bijection.reconstruct", "braid.mutate_parking"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.item = array.array("i")
        self.raised = array.array("b")
        self.stack: list[int] = []
        self.current_item = -1
        self.active = True  # cleared while the benchmark checks answers
        self.calls: dict[str, int] = {}
        self.yields: dict[str, int] = {}
        self.repeats: dict[str, int] = {}
        self._seen: dict[str, set] = {}

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        if raised:
            self.raised[idx] = 1

    def wrap(self, name: str, fn):
        """A traced stand-in for fn; generator functions get one span per resumption."""
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        self.calls.setdefault(name, 0)
        keyed = name in REPEAT_KEYED
        if keyed:
            self.repeats.setdefault(name, 0)
            seen = self._seen.setdefault(name, set())

        if inspect.isgeneratorfunction(fn):
            self.yields.setdefault(name, 0)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not self.active:
                    yield from fn(*args, **kwargs)
                    return
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(name_id)
                    try:
                        value = next(inner)
                    except StopIteration:
                        self._close(idx, False)
                        return
                    except BaseException:
                        self._close(idx, True)
                        raise
                    self._close(idx, False)
                    self.yields[name] += 1
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if keyed:
                key = tuple(args[0])
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-name and per-(parent, child) totals, ready to merge across processes.

        names[name] = [spans, inclusive_s, self_s, raised]
        pairs["parent>child"] = [spans, inclusive_s, raised]
        """
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child_time = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
        names: dict[str, list] = {}
        pairs: dict[str, list] = {}
        for i in range(count):
            name = self.names[self.name[i]]
            row = names.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child_time[i]
            row[3] += self.raised[i]
            p = self.parent[i]
            if p >= 0:
                key = f"{self.names[self.name[p]]}>{name}"
                pair = pairs.setdefault(key, [0, 0.0, 0])
                pair[0] += 1
                pair[1] += dur[i]
                pair[2] += self.raised[i]
        return {
            "names": names,
            "pairs": pairs,
            "calls": dict(self.calls),
            "yields": dict(self.yields),
            "repeats": dict(self.repeats),
        }

    def write(self, path) -> None:
        """Save every span as gzip TSV: id, name, start_us, end_us, parent, item, raised."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_us\tend_us\tparent\titem\traised\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{(self.start[i] - origin) * 1e6:.1f}\t"
                    f"{(self.end[i] - origin) * 1e6:.1f}\t{self.parent[i]}\t{self.item[i]}\t"
                    f"{self.raised[i]}\n"
                )


def install(tracer: Tracer):
    """Wrap every target, and every verify check; returns a function that undoes it."""
    undo = []
    wrapped: dict[int, object] = {}
    for module, attrs in TARGETS.items():
        for attr in attrs:
            original = getattr(module, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = tracer.wrap(span_name(original), original)
            setattr(module, attr, wrapped[id(original)])
            undo.append(functools.partial(setattr, module, attr, original))
    for entries in verify.SUITES.values():
        for pos, (check, fn) in enumerate(entries):
            entries[pos] = (check, tracer.wrap(f"verify.{check}", fn))
            undo.append(functools.partial(entries.__setitem__, pos, (check, fn)))

    def uninstall():
        for step in reversed(undo):
            step()

    return uninstall
