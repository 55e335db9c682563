"""Independent checker for viewcapd replies.

It shares no code with libviewcap: programs are parsed, views expanded
and expressions evaluated by pj.py. Each reply is judged against the
expectation the generator attached to its request:

  answerable  positive: the witness, expanded over the view's
              definitions, equals the query on seeded random instances;
              negative: the generator's two instances agree on every
              definition and differ on the query.
  equiv       the verdict matches the construction; every "answered by"
              witness in the report is confirmed by evaluation; an
              inequivalent pair's instances are confirmed; both orders
              of a pair give the same verdict (see finish()).
  nonredundant  the kept definitions are exactly the disjoint originals:
              a subset of the input that drops every injected one.
  simplify    simplifying a simplified view gives the same definitions
              (Th. 4.2.2), up to the names of minted relations.
  lint        VCL201 names every injected subsumed view.
  load        the load succeeded; the checker's model learns the views.

No answer may be inconclusive.
"""

import json
import random

import pj


def build_instance(schema, spec):
    """The zero instance (every relation holds its all-zero tuple) with
    spec['empty'] relations emptied and spec['flip'] attributes set to 1."""
    inst = {r: {(0,) * len(a)} for r, a in schema.items()}
    for r in spec.get("empty", ()):
        inst[r] = set()
    for r, attrs in spec.get("flip", {}).items():
        if inst[r]:
            inst[r] = {tuple(1 if a in attrs else 0 for a in schema[r])}
    return inst


def random_instance(schema, rels, rng):
    """Each relation in `rels` holds a random subset of {0,1,2}^arity
    tuples, dense enough that joins are rarely empty."""
    inst = {}
    for r in rels:
        arity = len(schema[r])
        inst[r] = {tuple(rng.randrange(3) for _ in range(arity))
                   for _ in range(rng.randint(2, 7))}
    return inst


class Model:
    """The checker's own picture of the daemon's catalog."""

    def __init__(self, program_text):
        self.schema = {}
        self.views = {}     # view -> [def name]
        self.defs = {}      # def name -> parsed expression as written
        self.load(program_text)

    def load(self, text):
        schema, views = pj.parse_program(text)
        self.schema.update(schema)
        for name, defs in views.items():
            self.views[name] = [d for d, _ in defs]
            self.defs.update(dict(defs))

    def view_defs(self, view):
        """[(def name, expression expanded to the base)]."""
        return [(d, pj.expand(self.defs[d], self.defs)) for d in self.views[view]]


class Checker:
    def __init__(self, program_text, seed=0):
        self.model = Model(program_text)
        self.seed = seed
        self.errors = []
        self._verdicts = {}    # (left, right) -> verdict
        self._memo = {}

    def fail(self, req, message):
        self.errors.append(f"{req['method']} {json.dumps(req['params'])[:160]}: {message}")

    def check(self, req, expect, reply):
        """Judges one reply; returns True when it passes."""
        before = len(self.errors)
        if "result" not in reply:
            self.fail(req, f"error reply {reply.get('error')}")
            return False
        result = reply["result"]
        if result.get("inconclusive"):
            self.fail(req, "inconclusive answer")
            return False
        key = (req["method"], json.dumps(req["params"], sort_keys=True),
               json.dumps(result, sort_keys=True))
        if key in self._memo:
            if req["method"] == "equiv":
                self._verdicts[(req["params"]["left"], req["params"]["right"])] = \
                    result.get("verdict")
            return self._memo[key]
        getattr(self, "_" + expect["kind"])(req, expect, result)
        ok = len(self.errors) == before
        if req["method"] not in ("load", "simplify"):
            self._memo[key] = ok
        return ok

    # -- per-method checks ----------------------------------------------

    def _load(self, req, expect, result):
        if not result.get("ok"):
            self.fail(req, "load failed")
            return
        self.model.load(req["params"]["program"])

    def _rng(self, req):
        return random.Random(f"{self.seed}:{json.dumps(req['params'], sort_keys=True)}")

    def _equal_on_instances(self, left, right, rng):
        """left/right: parsed base expressions. Compares them on the zero
        instance and on random instances."""
        schema = self.model.schema
        if pj.attrs_of(left, schema) != pj.attrs_of(right, schema):
            return False
        rels = sorted(pj.relations(left) | pj.relations(right))
        instances = [{r: {(0,) * len(schema[r])} for r in rels}]
        instances += [random_instance(schema, rels, rng) for _ in range(4)]
        return all(pj.evaluate(left, schema, i) == pj.evaluate(right, schema, i)
                   for i in instances)

    def _witness_ok(self, req, witness_text, target, over_view, rng):
        try:
            witness = pj.parse(witness_text)
        except pj.ParseError as exc:
            self.fail(req, f"unparsable witness: {exc}")
            return
        allowed = set(self.model.views[over_view])
        if not pj.relations(witness) <= allowed:
            self.fail(req, f"witness {witness_text!r} is not over {over_view}")
            return
        expanded = pj.expand(witness, dict(self.model.view_defs(over_view)))
        try:
            same = self._equal_on_instances(target, expanded, rng)
        except ValueError:
            self.fail(req, f"witness {witness_text!r} projects onto a missing attribute")
            return
        if not same:
            self.fail(req, f"witness {witness_text!r} differs from the query")

    def _pair_ok(self, req, pair, agree, differ):
        """`agree`: expressions equal on both instances; `differ`: at least
        one of them must differ."""
        schema = self.model.schema
        i1, i2 = (build_instance(schema, spec) for spec in pair)
        for e in agree:
            if pj.evaluate(e, schema, i1) != pj.evaluate(e, schema, i2):
                self.fail(req, "distinguishing pair: a definition differs")
                return
        if all(pj.evaluate(e, schema, i1) == pj.evaluate(e, schema, i2)
               for e in differ):
            self.fail(req, "distinguishing pair does not separate")

    def _answerable(self, req, expect, result):
        view, query = req["params"]["view"], pj.parse(req["params"]["query"])
        verdict = result.get("verdict")
        if verdict is not expect["member"]:
            self.fail(req, f"verdict {verdict}, built as {expect['member']}")
            return
        if verdict:
            self._witness_ok(req, result.get("witness", ""), query, view,
                             self._rng(req))
        else:
            defs = [e for _, e in self.model.view_defs(view)]
            self._pair_ok(req, expect["pair"], defs, [query])

    def _equiv(self, req, expect, result):
        left, right = req["params"]["left"], req["params"]["right"]
        verdict = result.get("verdict")
        self._verdicts[(left, right)] = verdict
        if verdict is not expect["equivalent"]:
            self.fail(req, f"verdict {verdict}, built as {expect['equivalent']}")
            return
        rng = self._rng(req)
        inner = outer = None
        for line in result.get("output", "").splitlines():
            line = line.strip()
            if line.startswith("Cap("):
                # "Cap(inner) subset of Cap(outer): yes"
                inner = line[4:line.index(")")]
                outer = line[line.index("Cap(", 4) + 4:line.rindex(")")]
            elif " answered by " in line:
                rel, witness = line.split(" answered by ", 1)
                target = pj.expand(self.model.defs[rel], self.model.defs)
                self._witness_ok(req, witness, target, outer, rng)
        if not expect["equivalent"]:
            agree = [e for _, e in self.model.view_defs(expect["agree"])]
            differ = [e for _, e in self.model.view_defs(expect["differ"])]
            self._pair_ok(req, expect["pair"], agree, differ)

    def _nonredundant(self, req, expect, result):
        kept = _view_defs_in_output(result.get("output", ""))
        if sorted(kept) != sorted(expect["originals"]):
            self.fail(req, f"kept {sorted(kept)}, expected {sorted(expect['originals'])}")

    def _simplify(self, req, expect, result):
        out = result.get("output", "")
        name = out[out.index("view ") + 5:out.index(" {")] if "view " in out else None
        if name is None:
            self.fail(req, "no view in simplify output")
            return
        self.model.load(out[out.index("view "):])
        again_of = expect.get("again_of")
        if again_of is None:
            return
        first = [pj.expand(self.model.defs[d], self.model.defs)
                 for d in self.model.views[again_of]]
        second = [pj.expand(self.model.defs[d], self.model.defs)
                  for d in self.model.views[name]]
        if sorted(map(pj.render, first)) == sorted(map(pj.render, second)):
            return
        rng = self._rng(req)
        unmatched = list(first)
        for e in second:
            hit = next((f for f in unmatched if self._equal_on_instances(e, f, rng)), None)
            if hit is None:
                self.fail(req, "simplify is not idempotent")
                return
            unmatched.remove(hit)
        if unmatched:
            self.fail(req, "simplify is not idempotent")

    def _lint(self, req, expect, result):
        try:
            report = json.loads(result.get("output", ""))
        except ValueError:
            self.fail(req, "lint output is not JSON")
            return
        flagged = {d["message"].split("'")[1] for d in report.get("diagnostics", [])
                   if d.get("code") == "VCL201"}
        missing = set(expect["subsumed"]) - flagged
        if missing:
            self.fail(req, f"VCL201 missing for {sorted(missing)}")

    def finish(self):
        """Cross-reply checks: both orders of each equivalence pair were
        asked and answered alike."""
        for (left, right), verdict in self._verdicts.items():
            other = self._verdicts.get((right, left), "missing")
            if other != verdict:
                self.errors.append(
                    f"equiv {left}/{right}: {verdict} one way, {other} the other")
        return not self.errors


def _view_defs_in_output(text):
    """Definition names of the view block printed in a report."""
    if "view " not in text:
        return []
    _, views = pj.parse_program(text[text.index("view "):])
    return [d for defs in views.values() for d, _ in defs]
