#!/usr/bin/env python3
"""The verdict checker must be able to fail: it rejects a wrong witness,
a flipped verdict, an asymmetric equivalence answer and the other
faults it exists to catch, and accepts the right answers.

  python3 perfbench/test_check.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import gen  # noqa: E402

# Example 3.1.5 of the paper, plus an unrelated relation s.
PROGRAM = """schema { r(A, B, C); s(D, E); }
view V { v := pi{A,B}(r) * pi{B,C}(r); }
view W { w1 := pi{A,B}(r); w2 := pi{B,C}(r); }
"""

JOINED = "pi{A,C}(pi{A,B}(r) * pi{B,C}(r))"


def answerable(view, query, member, pair=None):
    expect = {"kind": "answerable", "member": member}
    if pair is not None:
        expect["pair"] = pair
    return {"method": "answerable", "params": {"view": view, "query": query}}, expect


def reply(**result):
    return {"id": 1, "result": {"ok": True, "exit_code": 0, "output": "", **result}}


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.checker = check.Checker(PROGRAM, seed=7)

    def judge(self, item, result):
        req, expect = item
        return self.checker.check(req, expect, result)

    def test_accepts_a_true_witness(self):
        self.assertTrue(self.judge(answerable("W", JOINED, True),
                                   reply(verdict=True, witness="pi{A, C}(w1 * w2)")))

    def test_rejects_a_wrong_witness(self):
        # A cross product of the A and C columns, not their join through B.
        self.assertFalse(self.judge(answerable("W", JOINED, True),
                                    reply(verdict=True, witness="pi{A}(w1) * pi{C}(w2)")))
        self.assertTrue(any("differs" in e for e in self.checker.errors))

    def test_rejects_an_ill_typed_witness(self):
        self.assertFalse(self.judge(answerable("W", JOINED, True),
                                    reply(verdict=True, witness="pi{A, C}(w1 * pi{B}(w2))")))

    def test_rejects_a_witness_over_another_view(self):
        self.assertFalse(self.judge(answerable("W", JOINED, True),
                                    reply(verdict=True, witness="pi{A, C}(v)")))

    def test_rejects_a_flipped_verdict(self):
        self.assertFalse(self.judge(answerable("W", JOINED, True), reply(verdict=False)))
        self.assertFalse(self.judge(answerable("W", "s", False, [{}, {"empty": ["s"]}]),
                                    reply(verdict=True, witness="w1")))

    def test_accepts_a_proven_negative(self):
        self.assertTrue(self.judge(answerable("W", "s", False, [{}, {"empty": ["s"]}]),
                                   reply(verdict=False)))

    def test_rejects_a_pair_that_proves_nothing(self):
        # Emptying r changes W's definitions too, so the pair is no proof.
        self.assertFalse(self.judge(answerable("W", "r", False, [{}, {"empty": ["r"]}]),
                                    reply(verdict=False)))

    def test_rejects_an_inconclusive_answer(self):
        self.assertFalse(self.judge(answerable("W", "s", False, [{}, {"empty": ["s"]}]),
                                    reply(verdict=False, inconclusive=True)))

    def test_rejects_an_asymmetric_equivalence(self):
        expect = {"kind": "equiv", "equivalent": True}
        for left, right, verdict in (("V", "W", True), ("W", "V", False)):
            req = {"method": "equiv", "params": {"left": left, "right": right}}
            self.checker.check(req, expect, reply(verdict=verdict))
        self.assertFalse(self.checker.finish())
        self.assertTrue(any("one way" in e for e in self.checker.errors))

    def test_rejects_a_wrong_equivalence_witness(self):
        req = {"method": "equiv", "params": {"left": "V", "right": "W"}}
        output = ("equivalent(V, W) = true\n"
                  "  Cap(W) subset of Cap(V): yes\n"
                  "    w1 answered by pi{B, C}(v)\n")
        self.assertFalse(self.checker.check(
            req, {"kind": "equiv", "equivalent": True}, reply(verdict=True, output=output)))

    def test_rejects_kept_injected_definitions(self):
        req = {"method": "nonredundant", "params": {"view": "W"}}
        expect = {"kind": "nonredundant", "originals": ["w1"], "injected": ["w2"]}
        output = "kept 2 of 2 definitions\nview W {\n  w1 := pi{A, B}(r);\n  w2 := pi{B, C}(r);\n}\n"
        self.assertFalse(self.checker.check(req, expect, reply(output=output)))

    def test_rejects_a_missing_subsumed_view(self):
        req = {"method": "lint", "params": {"program": PROGRAM, "format": "json"}}
        expect = {"kind": "lint", "subsumed": ["V"]}
        self.assertFalse(self.checker.check(req, expect, reply(output='{"diagnostics": []}')))

    def test_rejects_a_simplify_that_is_not_idempotent(self):
        first = "simplified in 1 round(s)\nview W_simplified {\n  a := pi{A, B}(r);\n  b := pi{B, C}(r);\n}\n"
        second = "simplified in 1 round(s)\nview W_simplified_simplified {\n  c := pi{A, B}(r);\n}\n"
        self.assertTrue(self.checker.check({"method": "simplify", "params": {"view": "W"}},
                                           {"kind": "simplify"}, reply(output=first)))
        self.assertFalse(self.checker.check(
            {"method": "simplify", "params": {"view": "W_simplified"}},
            {"kind": "simplify", "again_of": "W_simplified"}, reply(output=second)))

    def test_generator_pairs_are_proofs(self):
        # The generator's own negatives pass the checker's re-derivation.
        g = gen.Generator(3, "test")
        g.add_components(gen.SIX)
        for comp in g.components:
            view = g.base_view(comp)
            found = g.negative_query(view)
            if found is None:
                continue
            query, pair = found
            checker = check.Checker(gen.program(g, [view]))
            req = {"method": "answerable", "params": {"view": view.name, "query": query}}
            self.assertTrue(checker.check(
                req, {"kind": "answerable", "member": False, "pair": pair},
                reply(verdict=False)), checker.errors)


if __name__ == "__main__":
    unittest.main()
