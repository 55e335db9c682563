"""Seeded input generator for the viewcapd benchmark.

Everything the daemon sees is text this module writes from a seed:
catalogs over chain, star and cycle schemas, views whose definitions
range over disjoint relation sets, rewrites of those views that keep or
lose capacity, and questions whose answers are fixed by how they were
built. Each question carries an expectation for the checker:

  * positive membership: the view definitions the query was built from;
  * negative membership: two instances on which every view definition
    agrees but the query differs (a proof the query is not answerable);
  * equivalence: the verdict fixed by the rewrite and, for inequivalent
    pairs, two instances on which one view agrees and the other differs.

Every negative is confirmed with pj.py before it is emitted, so a
question whose intended proof does not hold is never sent.
"""

import itertools
import random

import pj


class Component:
    """One connected piece of the base schema with its own relations and
    attributes, so views over different components share nothing."""

    def __init__(self, shape, idx, n, prefix):
        self.shape = shape
        lo = prefix + str(idx)
        up = lo.upper()
        if shape == "chain":
            xs = [f"{up}X{j}" for j in range(n + 1)]
            self.rels = [(f"{lo}r{j + 1}", (xs[j], xs[j + 1])) for j in range(n)]
        elif shape == "star":
            self.rels = [(f"{lo}r{j + 1}", (f"{up}H", f"{up}Y{j + 1}"))
                         for j in range(n)]
        else:
            xs = [f"{up}X{j}" for j in range(n)]
            self.rels = [(f"{lo}r{j + 1}", (xs[j], xs[(j + 1) % n]))
                         for j in range(n)]


def _join_text(parts):
    return " * ".join(f"({p})" if " * " in p and not p.startswith("pi{") else p
                      for p in parts)


def _pi(attrs, body):
    return "pi{" + ",".join(sorted(attrs)) + "}(" + body + ")"


class ViewSpec:
    """A view as the generator knows it: name, ordered (def name, base
    expression text) pairs, and which definitions are the disjoint
    originals versus injected redundant ones."""

    def __init__(self, name, defs, text_defs=None):
        self.name = name
        self.defs = list(defs)  # [(def_name, base_expr_text)]
        self.injected = set()
        # What is written in the program; differs from defs for views of
        # views, whose definitions mention other views' relations.
        self.text_defs = list(text_defs) if text_defs is not None else list(defs)

    def program_text(self):
        body = "".join(f"  {d} := {e};\n" for d, e in self.text_defs)
        return f"view {self.name} {{\n{body}}}\n"


class Generator:
    """Two random streams: `rng` draws the structure of a workload (its
    components, views, rewrites and questions) from a fixed per-workload
    seed, so every seed loads the engine alike; `surface` draws, from
    --seed, every name, the declaration order of relations and views, and
    the order requests are sent in. Structural choices never look at
    names: they order relations and attributes by creation (`ordered`)."""

    def __init__(self, seed, tag):
        self.rng = random.Random(f"{tag}:structure")
        self.surface = random.Random(f"{tag}:{seed}")
        self.word = "".join(self.surface.choice("BCDFGHJKLMNPQRSTVWXZ") for _ in range(2))
        self.schema = {}      # relation -> attribute tuple
        self.order = {}       # relation or attribute -> creation index
        self.components = []
        self.views = {}       # name -> ViewSpec
        self._names = itertools.count(1)

    # -- schema ----------------------------------------------------------

    def add_components(self, counts):
        for shape, sizes in counts:
            for n in sizes:
                prefix = "".join(self.surface.choice("bcdfghjklmnpqrstvwxz")
                                 for _ in range(2))
                comp = Component(shape, len(self.components), n, prefix)
                self.components.append(comp)
                for rel, attrs in comp.rels:
                    self.schema[rel] = attrs
                    for name in (rel,) + attrs:
                        self.order.setdefault(name, len(self.order))

    def ordered(self, names):
        return sorted(names, key=self.order.__getitem__)

    def schema_text(self):
        rels = list(self.schema)
        self.surface.shuffle(rels)
        body = "".join(f"  {r}({', '.join(self.schema[r])});\n" for r in rels)
        return "schema {\n" + body + "}\n"

    def attrs(self, text):
        return pj.attrs_of(pj.parse(text), self.schema)

    # -- views -----------------------------------------------------------

    def blocks_for(self, comp):
        """Partitions (most of) a component's relations into contiguous
        blocks of one or two relations; leaves one relation uncovered at
        random so some questions name a relation the view never mentions."""
        rels = [r for r, _ in comp.rels]
        if len(rels) > 2 and self.rng.random() < 0.5:
            if comp.shape == "cycle":
                drop = self.rng.randrange(len(rels))
                rels = rels[drop + 1:] + rels[:drop]
            else:
                rels = rels[1:] if self.rng.random() < 0.5 else rels[:-1]
        blocks, i = [], 0
        while i < len(rels):
            size = 2 if i + 1 < len(rels) and self.rng.random() < 0.6 else 1
            blocks.append(rels[i:i + size])
            i += size
        return blocks

    def block_body(self, block):
        """A definition over one block: the join, a projection hiding one
        attribute, or (two-relation blocks) a decomposable join of two
        overlapping projections as in Example 3.1.5."""
        join = _join_text(block)
        attrs = self.ordered(self.attrs(join))
        roll = self.rng.random()
        if len(block) == 2 and roll < 0.35:
            a1, a2 = self.schema[block[0]], self.schema[block[1]]
            return _pi(a1, join) + " * " + _pi(a2, join), "split"
        if len(attrs) > 1 and roll < 0.7:
            hidden = self.rng.choice(attrs)
            return _pi([a for a in attrs if a != hidden], join), "hide"
        return join, "join"

    def new_name(self, stem):
        return f"{stem}{self.word}{next(self._names)}"

    def base_view(self, comp, stem="V"):
        name = self.new_name(stem)
        low = name.lower()
        defs, kinds = [], []
        for i, block in enumerate(self.blocks_for(comp)):
            body, kind = self.block_body(block)
            defs.append((f"{low}_{i + 1}", body))
            kinds.append(kind)
        view = ViewSpec(name, defs)
        view.kinds = kinds
        view.comp = comp
        self.views[name] = view
        return view

    def injected_defs(self, view, count):
        """Redundant definitions: projections of one original onto a proper
        subset of its attributes, and joins of two originals, written over
        the base. At most one projection per original: two projections of
        a decomposable join (a split definition) can rebuild it, which
        would make the original the redundant one."""
        out, seen, projected = [], set(), set()
        low = view.name.lower()
        originals = [e for d, e in view.defs if d not in view.injected]
        for _ in range(8 * count):
            if len(out) == count:
                break
            if len(originals) >= 2 and self.rng.random() < 0.5:
                e1, e2 = self.rng.sample(originals, 2)
                body = f"({e1}) * ({e2})"
            else:
                e1 = self.rng.choice(originals)
                attrs = self.ordered(self.attrs(e1))
                if len(attrs) < 2 or e1 in projected:
                    continue
                projected.add(e1)
                body = _pi(self.rng.sample(attrs, len(attrs) - 1), e1)
            if body not in seen:
                seen.add(body)
                out.append((f"{low}_x{len(out) + 1}", body))
        return out

    def rewrite(self, view, how):
        """A rewrite of `view` (see EQUIVALENT / INEQUIVALENT), or None
        when the view has no definition the rewrite applies to."""
        name = self.new_name(view.name + how[0].upper())
        low = name.lower()
        defs = [d for d in view.defs if d[0] not in view.injected]
        bodies = [e for _, e in defs]
        if how == "rename":
            self.rng.shuffle(bodies)
            new = bodies
        elif how == "split":
            splits = [i for i, k in enumerate(view.kinds) if k == "split"]
            if not splits:
                return None
            i = self.rng.choice(splits)
            left, right = bodies[i].split(") * pi{", 1)
            new = bodies[:i] + [left + ")", "pi{" + right] + bodies[i + 1:]
        elif how == "redundant":
            spec = ViewSpec(name, defs)
            new = bodies + [e for _, e in self.injected_defs(spec, 2)]
        elif how == "drop":
            if len(bodies) < 2:
                return None
            i = self.rng.randrange(len(bodies))
            new = bodies[:i] + bodies[i + 1:]
        elif how == "merge":
            if len(bodies) < 2:
                return None
            i, j = sorted(self.rng.sample(range(len(bodies)), 2))
            merged = f"({bodies[i]}) * ({bodies[j]})"
            new = [b for k, b in enumerate(bodies) if k not in (i, j)] + [merged]
        elif how == "project":
            i = self.rng.randrange(len(bodies))
            attrs = self.ordered(self.attrs(bodies[i]))
            if len(attrs) < 2:
                return None
            hidden = self.rng.choice(attrs)
            new = list(bodies)
            new[i] = _pi([a for a in attrs if a != hidden], bodies[i])
        else:
            raise ValueError(how)
        spec = ViewSpec(name, [(f"{low}_{k + 1}", b) for k, b in enumerate(new)])
        spec.kinds = ["join"] * len(new)
        spec.comp = view.comp
        self.views[name] = spec
        return spec

    def view_of_view(self, inner):
        """A view whose definitions are written over `inner`'s relations:
        projections of one inner definition and a join of two."""
        name = self.new_name(inner.name + "O")
        low = name.lower()
        text_defs, defs = [], []
        originals = [d for d in inner.defs if d[0] not in inner.injected]
        picks = self.rng.sample(originals, min(2, len(originals)))
        for k, (dname, body) in enumerate(picks):
            attrs = self.ordered(self.attrs(body))
            keep = self.rng.sample(attrs, max(1, len(attrs) - 1))
            text_defs.append((f"{low}_{k + 1}", _pi(keep, dname)))
            defs.append((f"{low}_{k + 1}", _pi(keep, body)))
        spec = ViewSpec(name, defs, text_defs=text_defs)
        spec.kinds = ["join"] * len(defs)
        spec.comp = inner.comp
        self.views[name] = spec
        return spec

    # -- questions -------------------------------------------------------

    def positive_query(self, view):
        """A query built from one or two of the view's definitions, so it
        is in Cap(view) by construction (leaf budget 2 to 4)."""
        for _ in range(20):
            k = 1 if len(view.defs) == 1 or self.rng.random() < 0.4 else 2
            picked = [e for _, e in self.rng.sample(view.defs, k)]
            body = picked[0] if k == 1 else _join_text([f"({e})" for e in picked])
            if not 2 <= _leaves(body) <= 4:
                continue
            attrs = self.ordered(self.attrs(body))
            if self.rng.random() < 0.6 and len(attrs) > 1:
                keep = self.rng.sample(attrs, self.rng.randint(1, len(attrs) - 1))
                body = _pi(keep, body)
            return body
        return None

    def negative_query(self, view):
        """A query outside Cap(view) together with a distinguishing pair
        of instances, or None when no construction applies."""
        kinds = ["foreign", "dangling", "hidden"]
        self.rng.shuffle(kinds)
        for kind in kinds:
            q = self._negative_candidate(view, kind)
            if q is None:
                continue
            pair = distinguishing_pair(self.schema, [e for _, e in view.defs], q)
            if pair is not None:
                return q, pair
        return None

    def _negative_candidate(self, view, kind):
        used = set()
        for _, e in view.defs:
            used |= pj.relations(pj.parse(e))
        if kind == "foreign":
            # Only one or two relations: a foreign relation joined with a
            # definition makes the closure search run for seconds (see
            # the README), which would swamp the other questions.
            outside = self.ordered(set(self.schema) - used)
            if not outside:
                return None
            picked = self.rng.sample(outside, min(len(outside), self.rng.randint(1, 2)))
            return " * ".join(picked)
        if kind == "dangling":
            multi = [self.ordered(pj.relations(pj.parse(e))) for _, e in view.defs]
            multi = [m for m in multi if len(m) >= 2]
            if not multi:
                return None
            r = self.rng.choice(self.rng.choice(multi))
            return r if self.rng.random() < 0.5 else \
                _pi([self.rng.choice(self.schema[r])], r)
        # hidden: the full block join behind a definition that projects
        # an attribute away. (Joined with a second definition this is a
        # 3- or 4-leaf negative, whose exhaustive search takes 0.1 to 2 s;
        # see the README.)
        hides = [e for _, e in view.defs
                 if e.startswith("pi{") and " * pi{" not in e and e.count("pi{") == 1]
        if not hides:
            return None
        e = self.rng.choice(hides)
        return e[e.index("(") + 1:-1]


def _leaves(text):
    """Distinct relations of `text`: the row count of its reduced
    template for these constructions, i.e. the Lemma 2.4.8 leaf budget."""
    return len(pj.relations(pj.parse(text)))


# -- distinguishing instance pairs --------------------------------------

def zero_instance(schema):
    """Every relation holds its all-zero tuple, so every project-join
    expression evaluates to a single all-zero tuple."""
    return {r: {(0,) * len(a)} for r, a in schema.items()}


def build_instance(schema, spec):
    """Materializes a pair member: the zero instance with relations in
    spec['empty'] emptied and, for each relation in spec['flip'], the
    named attributes set to 1."""
    inst = zero_instance(schema)
    for r in spec.get("empty", ()):
        inst[r] = set()
    for r, attrs in spec.get("flip", {}).items():
        if inst[r]:
            inst[r] = {tuple(1 if a in attrs else 0 for a in schema[r])}
    return inst


def _candidate_pairs(schema, query, nearby):
    """Pairs to try, as (spec1, spec2): empty one relation of the query;
    empty it next to an already empty `nearby` relation (a definition's
    join partner); or set one attribute to 1 in every query relation
    that has it."""
    q = pj.parse(query)
    rels = sorted(pj.relations(q))
    for r in rels:
        yield {}, {"empty": [r]}
    for r in rels:
        for s in nearby:
            if s != r:
                yield {"empty": [s]}, {"empty": [s, r]}
    for a in sorted({x for r in rels for x in schema[r]}):
        yield {}, {"flip": {r: [a] for r in rels if a in schema[r]}}


def distinguishing_pair(schema, def_texts, query):
    """Two instance specs on which every definition agrees and `query`
    differs, tried from the constructions above; None if none applies."""
    defs = [pj.parse(t) for t in def_texts]
    q = pj.parse(query)
    nearby = sorted(set().union(*(pj.relations(d) for d in defs)))
    local = {r: schema[r] for r in set(nearby) | pj.relations(q)}
    for spec1, spec2 in _candidate_pairs(schema, query, nearby):
        i1, i2 = build_instance(local, spec1), build_instance(local, spec2)
        if pj.evaluate(q, local, i1) == pj.evaluate(q, local, i2):
            continue
        # A definition sharing no relation with what the specs change
        # evaluates alike on both instances; only the others are run.
        touched = set(spec1.get("empty", ())) | set(spec2.get("empty", ())) | \
            set(spec2.get("flip", {}))
        if all(pj.evaluate(d, local, i1) == pj.evaluate(d, local, i2)
               for d in defs if pj.relations(d) & touched):
            return [spec1, spec2]
    return None


# -- workloads -----------------------------------------------------------

EQUIVALENT = ("rename", "split", "redundant")
INEQUIVALENT = ("drop", "merge", "project")


def _item(method, params, expect):
    return {"method": method, "params": params, "expect": expect}


def membership_items(g, view, positives, negatives):
    out = []
    for _ in range(positives):
        q = g.positive_query(view)
        if q is not None:
            out.append(_item("answerable", {"view": view.name, "query": q},
                             {"kind": "answerable", "member": True}))
    for _ in range(negatives):
        found = g.negative_query(view)
        if found is not None:
            q, pair = found
            out.append(_item("answerable", {"view": view.name, "query": q},
                             {"kind": "answerable", "member": False, "pair": pair}))
    return out


def equiv_items(g, v, w, how):
    """Both orders of one equivalence question. An inequivalent pair
    carries instances on which every definition of `w` agrees while some
    definition of `v` differs; None when no such pair is found."""
    expect = {"kind": "equiv", "equivalent": how in EQUIVALENT}
    if how in INEQUIVALENT:
        pairs = (distinguishing_pair(g.schema, [e for _, e in w.defs], d)
                 for _, d in v.defs)
        pair = next((p for p in pairs if p is not None), None)
        if pair is None:
            return None
        expect.update(agree=w.name, differ=v.name, pair=pair)
    return [_item("equiv", {"left": a.name, "right": b.name}, expect)
            for a, b in ((v, w), (w, v))]


def catalog(g, shapes, bases_per_comp, rewrites):
    """Adds components and views; returns (base views, equivalence
    question pairs as (v, w, how))."""
    g.add_components(shapes)
    bases, pairs = [], []
    for comp in g.components:
        for _ in range(bases_per_comp):
            v = g.base_view(comp)
            bases.append(v)
            for how in rewrites:
                w = g.rewrite(v, how)
                if w is not None:
                    pairs.append((v, w, how))
    return bases, pairs


def program(g, views):
    views = list(views)
    g.surface.shuffle(views)
    return g.schema_text() + "".join(v.program_text() for v in views)


def lint_item(g):
    """A standalone program over one component: a core view plus views
    whose every definition is derived from the core's (VCL201 targets)."""
    comp = g.rng.choice(g.components)
    core = ViewSpec("Core", [(f"core_{i + 1}", g.block_body(b)[0])
                             for i, b in enumerate(g.blocks_for(comp))])
    subs = [ViewSpec(f"Sub{k + 1}", [(f"sub{k + 1}_1", body)])
            for k, (_, body) in enumerate(g.injected_defs(core, 2))]
    schema = "schema {\n" + "".join(
        f"  {r}({', '.join(a)});\n" for r, a in comp.rels) + "}\n"
    text = schema + core.program_text() + "".join(s.program_text() for s in subs)
    return _item("lint", {"program": text, "format": "json"},
                 {"kind": "lint", "subsumed": [s.name for s in subs]})


def episode(g, inners):
    """One round of writes: load a new view with injected redundant
    definitions plus a view of an existing view, then nonredundant,
    simplify twice (idempotence) and a semantic lint. Returns (writes,
    live reads about the new views); writes[2] is the simplify pair."""
    comp = g.rng.choice(g.components)
    b = g.base_view(comp, stem="E")
    injected = g.injected_defs(b, 2)
    b.defs += injected
    b.text_defs = list(b.defs)
    b.injected = {n for n, _ in injected}
    o = g.view_of_view(g.rng.choice(inners))
    load = _item("load", {"program": b.program_text() + o.program_text()},
                 {"kind": "load"})
    nonred = _item("nonredundant", {"view": b.name},
                   {"kind": "nonredundant",
                    "originals": [n for n, _ in b.defs if n not in b.injected],
                    "injected": sorted(b.injected)})
    # Simplify runs on the nonredundant result (registered as <name>_nr):
    # on a view that still holds an injected join it does not finish (see
    # the README), so the injected definitions are removed first.
    nr = b.name + "_nr"
    simp = [_item("simplify", {"view": nr}, {"kind": "simplify"}),
            _item("simplify", {"view": nr + "_simplified"},
                  {"kind": "simplify", "again_of": nr + "_simplified"})]
    reads = membership_items(g, b, 1, 1) + membership_items(g, o, 1, 0)
    return [load, nonred, simp, lint_item(g)], reads


def _flatten_writes(writes):
    out = []
    for w in writes:
        out.extend(w if isinstance(w, list) else [w])
    return out


class Workload:
    def __init__(self, name, g, catalog_text):
        self.name = name
        self.catalog = catalog_text
        self.schema = dict(g.schema)
        self.warmup = []
        self.stream = []
        self.probe = []       # writes sent after the timed phase
        self.index = False
        self.threads = 2
        self.trace_requests = 0  # serve_warm: replayed requests the traced run times
        self.fresh = False       # True: each round of `stream` on a fresh daemon;
                                 # False: one daemon replays it in fresh orders
        self.rng = g.surface


# Each timed list is at least 1000 requests, so ten lie beyond its p99.
WARM_REQUESTS = 1000
COLD_QUESTIONS = 960  # with both orders of each pair, 1020 requests a round
SIX = [("chain", [3, 4]), ("star", [3, 4]), ("cycle", [3, 4])]


def serve_warm(seed):
    g = Generator(seed, "serve_warm")
    bases, pairs = catalog(g, SIX, 2, EQUIVALENT + INEQUIVALENT)
    wl = Workload("serve_warm", g, program(g, g.views.values()))
    working = []
    for v, w, how in pairs:
        working += equiv_items(g, v, w, how) or []
    while len(working) < WARM_REQUESTS:
        for v in g.views.values():
            working += membership_items(g, v, 1, 1)
    g.surface.shuffle(working)
    wl.warmup = working
    wl.stream = working
    wl.probe = _probe(g, bases)
    wl.trace_requests = 4000
    return wl


def serve_cold(seed):
    """A pool of 960 distinct questions: the catalog's equivalence pairs
    (both orders) and membership questions drawn round-robin over its
    views. Every round asks the whole pool of a fresh daemon, in one order
    drawn with the structure, so every round and every seed does the same
    work."""
    g = Generator(seed, "serve_cold")
    bases, pairs = catalog(g, [(shape, sizes * 3) for shape, sizes in SIX], 3,
                           EQUIVALENT + INEQUIVALENT)
    wl = Workload("serve_cold", g, program(g, g.views.values()))
    pairs = [q for q in (equiv_items(g, v, w, how) for v, w, how in pairs) if q]
    questions = g.rng.sample(pairs, min(len(pairs), 60))
    seen = set()
    views = list(g.views.values())
    while len(questions) < COLD_QUESTIONS:
        for v in g.rng.sample(views, len(views)):
            for it in membership_items(g, v, 1, 1):
                key = (v.name, it["params"]["query"])
                if key not in seen and len(questions) < COLD_QUESTIONS:
                    seen.add(key)
                    questions.append([it])
    g.rng.shuffle(questions)
    wl.stream = [it for q in questions for it in q]
    wl.fresh = True
    wl.probe = _probe(g, bases)
    return wl


def serve_mixed(seed):
    g = Generator(seed, "serve_mixed")
    shapes = [("chain", [3]), ("star", [3]), ("cycle", [3])]
    bases, pairs = catalog(g, shapes, 2, ("rename", "redundant", "drop", "project"))
    wl = Workload("serve_mixed", g, program(g, g.views.values()))
    wl.index = True
    wl.threads = 1
    catalog_views = list(g.views.values())
    covered = []  # question groups: one item, or both orders of a pair
    for v in catalog_views:
        covered += [[it] for it in membership_items(g, v, 2, 0)]
        for w in catalog_views:
            if w.comp is not v.comp and g.rng.random() < 0.15:
                d = g.rng.choice(w.defs)[1]
                pair = distinguishing_pair(g.schema, [e for _, e in v.defs], d)
                if pair is not None:
                    covered.append([_item("answerable", {"view": v.name, "query": d},
                                          {"kind": "answerable", "member": False,
                                           "pair": pair})])
    covered += [q for q in (equiv_items(g, v, w, how) for v, w, how in pairs) if q]
    # One round of 77 episodes, replayed on a fresh daemon per round: every
    # covered question is a first-time question in each round.
    g.rng.shuffle(covered)
    stream, asked = [], []
    for _ in range(77):
        writes, live = episode(g, bases)
        reads = live + [it for _ in range(2) if covered for it in covered.pop()]
        reads += [g.rng.choice(asked) for _ in range(8) if asked]
        body = reads + [writes[3]]
        g.rng.shuffle(body)
        # load first; simplify after the nonredundant that registers its input.
        cut = g.rng.randrange(len(body) + 1)
        stream += [writes[0]] + body[:cut] + [writes[1]] + writes[2] + body[cut:]
        asked += reads
    wl.stream = stream
    wl.fresh = True
    return wl


def _probe(g, bases):
    """Writes sent after the timed phase of the read-only workloads, so
    every workload reports write latency on the same kinds of writes: 24
    episodes, replayed on fresh daemons."""
    return [w for _ in range(24) for w in _flatten_writes(episode(g, bases)[0])]


WORKLOADS = {"serve_warm": serve_warm, "serve_cold": serve_cold,
             "serve_mixed": serve_mixed}
