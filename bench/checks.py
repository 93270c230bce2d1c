"""Output checks, canonical digests and input fingerprints that do not call
into the library under test.

Everything here walks the public model dataclasses, or the JSON documents
the CLI writes, with its own code.  A defect in ``var_elems``,
``check_well_formed``, ``canonicalize`` or the serialisers therefore cannot
hide behind a check that runs the same code.
"""

from __future__ import annotations

import hashlib


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


# --- the set of elements to delete ----------------------------------------

def doomed_elements(funcs, selected, entries) -> frozenset[str]:
    """Elements directly implementing a deselected feature and no selected
    one: the paper's non-selected component set, computed independently.
    ``entries`` yields (feature, elements) pairs of the mapping."""
    entries = list(entries)
    doomed: set[str] = set()
    for feature, elements in entries:
        if feature in funcs and feature not in selected:
            doomed |= set(elements)
    for feature, elements in entries:
        if feature in selected:
            doomed -= set(elements)
    return frozenset(doomed)


def line_doomed(fm, conf, imp) -> frozenset[str]:
    return doomed_elements(fm.funcs, conf.selected,
                           ((f, e.elements) for f, e in imp.entries))


# --- machines as plain nested tuples -------------------------------------

def _atom(atom) -> tuple:
    text = getattr(atom, "text", None)
    return ("guard", text) if text is not None else ("in", atom.state)


def _transition(t) -> tuple:
    return (t.name, t.source, t.target, tuple(t.trigger),
            tuple(_atom(a) for a in t.cond.atoms), tuple(t.actions),
            str(getattr(t.history, "value", t.history)), bool(t.optional))


def state_tuple(state, ordered: bool) -> tuple:
    """Nested-tuple form of a dataclass state.  ``ordered`` sorts
    substates, regions and transitions by name (the canonical form);
    otherwise the input order is kept (the exact form)."""
    def arrange(items, key):
        return tuple(sorted(items, key=key)) if ordered else tuple(items)

    if hasattr(state, "substates"):
        return ("or", state.name, state.initial, bool(state.optional),
                arrange((state_tuple(s, ordered) for s in state.substates),
                        key=lambda s: s[1]),
                arrange((_transition(t) for t in state.transitions),
                        key=lambda t: t[0]))
    if hasattr(state, "regions"):
        return ("and", state.name, bool(state.optional),
                arrange((state_tuple(r, ordered) for r in state.regions),
                        key=lambda s: s[1]))
    return ("simple", state.name, bool(state.optional))


def doc_tuple(doc: dict) -> tuple:
    """Canonical nested-tuple form of a state as the CLI serialises it;
    equal to ``state_tuple(state, ordered=True)`` of the same machine."""
    optional = bool(doc.get("optional", False))
    if doc["kind"] == "or":
        trans = tuple(sorted(
            ((t["name"], t["source"], t["target"], tuple(t["trigger"]),
              tuple(("guard", a["guard"]) if "guard" in a else ("in", a["in"])
                    for a in t.get("cond", [])),
              tuple(t.get("actions", [])), t.get("history", "none"),
              bool(t.get("optional", False)))
             for t in doc.get("transitions", [])), key=lambda t: t[0]))
        subs = tuple(sorted((doc_tuple(s) for s in doc["substates"]),
                            key=lambda s: s[1]))
        return ("or", doc["name"], doc["initial"], optional, subs, trans)
    if doc["kind"] == "and":
        regions = tuple(sorted((doc_tuple(r) for r in doc["regions"]),
                               key=lambda s: s[1]))
        return ("and", doc["name"], optional, regions)
    return ("simple", doc["name"], optional)


def walk(tree: tuple):
    """Yields ("state" | "transition", name, optional) over a nested-tuple
    machine, and ("or", name, None) once per Or-state."""
    stack = [tree]
    while stack:
        node = stack.pop()
        kind, name = node[0], node[1]
        if kind == "or":
            yield "or", name, None
            yield "state", name, node[3]
            stack.extend(node[4])
            for t in node[5]:
                yield "transition", t[0], t[7]
        elif kind == "and":
            yield "state", name, node[2]
            stack.extend(node[3])
        else:
            yield "state", name, node[2]


def count_or_states(tree: tuple) -> int:
    return sum(1 for kind, _, _ in walk(tree) if kind == "or")


def digest(tree: tuple) -> str:
    return _sha(tree)


# --- checks on one instantiation ------------------------------------------

def result_problems(out_tree: tuple, doomed: frozenset[str], n_or_in: int,
                    trace_rules: list[str]) -> list[str]:
    """Empty when the result keeps no doomed element and no optional flag,
    and the trace stays within |NSC| + #Or-states + #prune steps + 1."""
    problems = []
    survivors = sorted(name for kind, name, _ in walk(out_tree)
                       if kind != "or" and name in doomed)
    if survivors:
        problems.append(f"doomed elements survive: {survivors[:5]}")
    flagged = sorted(name for kind, name, opt in walk(out_tree)
                     if kind != "or" and opt)
    if flagged:
        problems.append(f"optional flags remain: {flagged[:5]}")
    prunes = sum(1 for r in trace_rules if r == "prune_conditions")
    bound = len(doomed) + n_or_in + prunes + 1
    if len(trace_rules) > bound:
        problems.append(f"trace has {len(trace_rules)} steps, bound {bound}")
    return problems


# --- input fingerprints ---------------------------------------------------

def _pairs(rel) -> tuple:
    return tuple(sorted((p, tuple(sorted(kids))) for p, kids in rel))


def fingerprint(fm, conf, sc, imp) -> dict:
    """State, transition and |NSC| counts plus a hash over the exact
    product line and configuration."""
    tree = state_tuple(sc.root, ordered=False)
    kinds = [kind for kind, _, _ in walk(tree)]
    line = (
        (tuple(sorted(fm.funcs)), fm.root, _pairs(fm.mand), _pairs(fm.opt),
         _pairs(fm.alt), _pairs(fm.or_rel)),
        tree,
        tuple((f, tuple(sorted(e.elements)), tuple(sorted(e.includes)))
              for f, e in imp.entries),
    )
    return {
        "states": kinds.count("state"),
        "transitions": kinds.count("transition"),
        "nsc": len(line_doomed(fm, conf, imp)),
        "hash": _sha((line, tuple(sorted(conf.selected)),
                      _pairs(conf.edges))),
    }
