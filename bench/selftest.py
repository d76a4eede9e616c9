"""Self-test of the benchmark's own parts: generator, checkers, tracer, BENCHMARK.json.

    python3 bench/selftest.py

Each workload's checker is fed a deliberately wrong answer (one root end
changed, one response field altered, a failing verify check) and must count
it as a failure, as `parkbases verify --inject-fault` does for the library.
"""
from __future__ import annotations

import copy
import json
import random
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from parkbases import dbasis, parking, verify  # noqa: E402

import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_outputs_are_parking(self):
        rng = random.Random(7)
        for n in range(1, 40):
            for _ in range(50):
                f = gen.random_parking(rng, n)
                self.assertEqual(len(f), n)
                self.assertTrue(gen.is_parking(f) and parking.is_parking(f), f)

    def test_reaches_every_parking_function_at_n3(self):
        rng = random.Random(3)
        counts: dict[tuple, int] = {}
        for _ in range(4000):
            f = gen.random_parking(rng, 3)
            counts[f] = counts.get(f, 0) + 1
        self.assertEqual(set(counts), set(parking.parking_functions(3)))
        self.assertEqual(len(counts), 16)
        # 250 expected per function; a uniform draw stays well inside this
        self.assertTrue(all(150 < c < 350 for c in counts.values()), counts)

    def test_same_seed_same_pool(self):
        for cls in (workloads.SampledLarge, workloads.CliMixed):
            first, second = cls().pool(5, 1), cls().pool(5, 1)
            self.assertEqual(gen.digest(first), gen.digest(second))
            self.assertNotEqual(gen.digest(first), gen.digest(cls().pool(6, 1)))


class VerifyCheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = workloads.VerifyExhaustive()
        cls.item = {"n": 3, "suite": "all"}
        cls.out = cls.workload.run(cls.item)

    def test_correct_report_passes(self):
        self.assertEqual(self.workload.check(self.item, self.out), [])
        self.assertEqual(len(self.workload.records(self.item, self.out, 0.0)), 19)

    def test_failed_check_is_counted(self):
        report = copy.deepcopy(self.out[0])
        report["checks"][4]["ok"] = False
        self.assertEqual(len(self.workload.check(self.item, (report, []))), 1)

    def test_missing_check_is_counted(self):
        report = copy.deepcopy(self.out[0])
        del report["checks"][0]
        self.assertGreaterEqual(len(self.workload.check(self.item, (report, []))), 1)

    def test_injected_fault_is_counted(self):
        report = verify.run_suite(3, "all", inject_fault=True)
        self.assertGreaterEqual(len(self.workload.check(self.item, (report, []))), 1)


class SampledCheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = workloads.SampledLarge()
        rng = random.Random(11)
        n = 12
        cls.item = {"f": gen.random_parking(rng, n), "word": gen.random_word(rng, n, 2 * n),
                    "k": 3, "direction": "right"}
        cls.out = cls.workload.run(cls.item)

    def corrupted(self, field, change):
        out = dict(self.out)
        out[field] = change(out[field])
        return self.workload.check(self.item, out)

    def test_correct_answer_passes(self):
        self.assertEqual(self.workload.check(self.item, self.out), [])

    def test_one_hi_changed_is_counted(self):
        def bump(basis):
            i = next(i for i, r in enumerate(basis) if r.hi < r.rank)
            r = basis[i]
            return basis[:i] + (type(r)(r.lo, r.hi + 1, r.rank),) + basis[i + 1 :]

        for field in ("geometric", "back", "again"):
            self.assertTrue(self.corrupted(field, bump), field)

    def test_other_wrong_fields_are_counted(self):
        self.assertTrue(self.corrupted("labels", lambda v: (v[0] + 1,) + v[1:]))
        self.assertTrue(self.corrupted("via_diagram", lambda v: v[::-1] if v != v[::-1] else (0,) + v[1:]))
        self.assertTrue(self.corrupted("ext", lambda m: tuple(tuple(1 - x for x in row) for row in m)))


class CliCheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = workloads.CliMixed()
        block = cls.workload.pool(3, 0)[0]
        cls.requests = {}
        for req in block:
            cls.requests.setdefault(req["kind"], []).append(req)
        cls.answers = {kind: [(req, cls.workload.run(req)) for req in reqs[:1]]
                       for kind, reqs in cls.requests.items()}

    def test_block_mix(self):
        counts = {kind: len(reqs) for kind, reqs in self.requests.items()}
        self.assertEqual(sum(counts.values()), 100)
        self.assertEqual(counts["write"], 4)
        self.assertEqual(counts["bad-pf"] + counts["bad-basis"] + counts["bad-word"], 5)

    def test_every_kind_passes(self):
        for kind, answers in self.answers.items():
            for req, out in answers:
                self.assertEqual(self.workload.check(req, out), [], kind)

    def with_stdout(self, out, text):
        sink = workloads.Sink()
        sink.write(text)
        return (out[0], sink, out[2])

    def test_altered_field_is_counted(self):
        for kind, answers in self.answers.items():
            req, out = answers[0]
            text = out[1].text
            if kind in workloads.ERROR_CODES or kind == "write":
                continue
            if text.startswith("{"):
                payload = json.loads(text)
                field = sorted(payload)[0]
                payload[field] = [payload[field]]
                altered = json.dumps(payload, sort_keys=True) + "\n"
            else:
                altered = text.replace("1", "2", 1) if "1" in text else text + "x"
            self.assertTrue(self.workload.check(req, self.with_stdout(out, altered)), kind)

    def test_error_request_that_succeeds_is_counted(self):
        for kind in workloads.ERROR_CODES:
            req, out = self.answers[kind][0]
            self.assertTrue(self.workload.check(req, (0, out[1], workloads.Sink())), kind)
            wrong_code = workloads.Sink()
            wrong_code.write("E_PARSE: no\n")
            self.assertTrue(self.workload.check(req, (1, out[1], wrong_code)), kind)

    def test_altered_write_is_counted(self):
        req, out = self.answers["write"][0]
        self.assertTrue(self.workload.check(req, self.with_stdout(out, "x")))


class TracerTest(unittest.TestCase):
    def test_spans_nest_and_install_undoes(self):
        original = dbasis.validate_basis
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            self.assertIsNot(dbasis.validate_basis, original)
            basis = workloads.bijection.reconstruct((1, 1, 2))
            dbasis.validate_basis(basis, 3)
            self.assertFalse(dbasis.is_basis(basis[::-1], 3))
            chains = list(workloads.noncrossing.maximal_chains(2))
        finally:
            uninstall()
        self.assertIs(dbasis.validate_basis, original)
        summary = tracer.summary()
        self.assertEqual(summary["calls"]["dbasis.validate_basis"], 2)
        self.assertEqual(summary["names"]["dbasis.validate_basis"][3], 1)  # one rejection
        self.assertEqual(summary["pairs"]["dbasis.validate_basis>linalg.rank"][0], 2)
        self.assertEqual(summary["yields"]["noncrossing.maximal_chains"], len(chains))
        for count, inclusive, self_s, _ in summary["names"].values():
            self.assertLessEqual(self_s, inclusive + 1e-9)

    def test_input_generation_records_no_spans(self):
        # cli-mixed reconstructs every request's basis while it builds its pool
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            child.set_up("cli-mixed", 3, 0, tracer)
        finally:
            uninstall()
        self.assertTrue(tracer.active)
        self.assertEqual(len(tracer.start), 0)
        self.assertEqual(sum(tracer.calls.values()), 0)
        self.assertEqual(sum(tracer.repeats.values()), 0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
