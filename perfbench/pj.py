"""A small project-join algebra of the benchmark's own.

It parses the expression syntax viewcap accepts (`r`, `e * f`,
`pi{A,B}(e)`), expands view relations into their definitions and
evaluates expressions on concrete instances. Nothing here calls or
imports viewcap: the verdict checker uses it to confirm the daemon's
answers by a route that shares no code with the program under test.

Relations have named attributes and join naturally on shared names, as
in the paper. A relation value is a pair (attrs, rows): `attrs` a sorted
tuple of attribute names and `rows` a frozenset of value tuples in that
order.
"""

import functools
import re

_TOKEN = re.compile(r"\s*(?:(pi)\b|([A-Za-z_][A-Za-z0-9_]*)|(.))")


class ParseError(ValueError):
    pass


def tokenize(text):
    pos, out = 0, []
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        pos = m.end()
        if m.group(1):
            out.append(("pi", "pi"))
        elif m.group(2):
            out.append(("id", m.group(2)))
        elif m.group(3) and not m.group(3).isspace():
            out.append(("op", m.group(3)))
    return out


@functools.lru_cache(maxsize=1 << 16)
def parse(text):
    """Parses `text` into ('rel', name) | ('join', (e, ...)) |
    ('pi', (attr, ...), e). Results are shared: treat them as immutable."""
    toks = tokenize(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None)

    def take(kind, value=None):
        nonlocal pos
        tok = peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind} at token {pos} of {text!r}")
        pos += 1
        return tok[1]

    def expr():
        parts = [term()]
        while peek() == ("op", "*"):
            take("op", "*")
            parts.append(term())
        return parts[0] if len(parts) == 1 else ("join", tuple(parts))

    def term():
        tok = peek()
        if tok[0] == "pi":
            take("pi")
            take("op", "{")
            attrs = [take("id")]
            while peek() == ("op", ","):
                take("op", ",")
                attrs.append(take("id"))
            take("op", "}")
            take("op", "(")
            inner = expr()
            take("op", ")")
            return ("pi", tuple(sorted(attrs)), inner)
        if tok == ("op", "("):
            take("op", "(")
            inner = expr()
            take("op", ")")
            return inner
        return ("rel", take("id"))

    result = expr()
    if pos != len(toks):
        raise ParseError(f"trailing input in {text!r}")
    return result


def render(e):
    kind = e[0]
    if kind == "rel":
        return e[1]
    if kind == "pi":
        return "pi{" + ",".join(e[1]) + "}(" + render(e[2]) + ")"
    parts = []
    for p in e[1]:
        parts.append("(" + render(p) + ")" if p[0] == "join" else render(p))
    return " * ".join(parts)


def relations(e):
    """The relation names `e` mentions."""
    if e[0] == "rel":
        return {e[1]}
    if e[0] == "pi":
        return relations(e[2])
    out = set()
    for p in e[1]:
        out |= relations(p)
    return out


def attrs_of(e, schema):
    """The attribute set of `e` (TRS in the paper)."""
    if e[0] == "rel":
        return frozenset(schema[e[1]])
    if e[0] == "pi":
        return frozenset(e[1])
    out = frozenset()
    for p in e[1]:
        out |= attrs_of(p, schema)
    return out


def expand(e, definitions):
    """Replaces every relation named in `definitions` (name -> parsed
    expression) by its definition, recursively, so views of views reach
    the base schema."""
    kind = e[0]
    if kind == "rel":
        body = definitions.get(e[1])
        return e if body is None else expand(body, definitions)
    if kind == "pi":
        return ("pi", e[1], expand(e[2], definitions))
    return ("join", tuple(expand(p, definitions) for p in e[1]))


def _join(a, b):
    attrs_a, rows_a = a
    attrs_b, rows_b = b
    common = [x for x in attrs_a if x in attrs_b]
    out_attrs = tuple(sorted(set(attrs_a) | set(attrs_b)))
    ia = [attrs_a.index(x) for x in common]
    ib = [attrs_b.index(x) for x in common]
    index = {}
    for rb in rows_b:
        index.setdefault(tuple(rb[i] for i in ib), []).append(rb)
    pick = [(0, attrs_a.index(x)) if x in attrs_a else (1, attrs_b.index(x))
            for x in out_attrs]
    out = set()
    for ra in rows_a:
        for rb in index.get(tuple(ra[i] for i in ia), ()):
            pair = (ra, rb)
            out.add(tuple(pair[s][i] for s, i in pick))
    return out_attrs, frozenset(out)


def evaluate(e, schema, instance):
    """Evaluates parsed `e` over base relations on `instance` (relation
    name -> iterable of tuples in schema order)."""
    kind = e[0]
    if kind == "rel":
        name = e[1]
        declared = tuple(schema[name])
        order = tuple(sorted(declared))
        perm = [declared.index(x) for x in order]
        rows = frozenset(tuple(t[i] for i in perm)
                         for t in instance.get(name, ()))
        return order, rows
    if kind == "pi":
        attrs, rows = evaluate(e[2], schema, instance)
        keep = [attrs.index(x) for x in e[1]]
        return e[1], frozenset(tuple(r[i] for i in keep) for r in rows)
    parts = [evaluate(p, schema, instance) for p in e[1]]
    acc = parts[0]
    for p in parts[1:]:
        acc = _join(acc, p)
    return acc


_HEAD = re.compile(r"\b(schema|view)\s*([A-Za-z_][A-Za-z0-9_]*)?\s*\{")


def _blocks(text):
    """(kind, name, body) for each top-level schema/view block; braces
    nest because projections are written pi{...}."""
    pos = 0
    while True:
        m = _HEAD.search(text, pos)
        if m is None:
            return
        depth, end = 1, m.end()
        while depth:
            depth += {"{": 1, "}": -1}.get(text[end], 0)
            end += 1
        yield m.group(1), m.group(2), text[m.end():end - 1]
        pos = end


def parse_program(text):
    """Parses program text into (schema, views): schema maps relation ->
    declared attribute tuple, views maps view name -> [(def name,
    parsed expression as written)]. Comments (`#`, `--`) are ignored."""
    text = re.sub(r"(#|--)[^\n]*", "", text)
    schema, views = {}, {}
    for kind, name, body in _blocks(text):
        for stmt in body.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if kind == "schema":
                rel, attrs = stmt.split("(", 1)
                schema[rel.strip()] = tuple(
                    a.strip() for a in attrs.rstrip(")").split(","))
            else:
                lhs, rhs = stmt.split(":=", 1)
                views.setdefault(name, []).append((lhs.strip(), parse(rhs)))
    return schema, views
