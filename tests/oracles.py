"""Independent reference implementations the fast paths are tested against.

Everything here but the confluence, well-formedness, feature and generator
references is written from scratch against the definitions, not by calling into the
package, so a shared bug cannot hide: selections are checked by
structural recursion over the feature tree, reachability by dense fixpoint
iteration over explicit relations, and the DOT output by a tiny parser of
the emitted subset.  The confluence reference runs the package's rules the
plain way, every order on a fresh tree through all four layers, and stands
against the shortcuts ``check_confluence`` takes.  The well-formedness
reference reads each composite's shape off its state object, not off the
index maps, and checks each transition the plain way: every name and event
by its own regular-expression match, every endpoint by a walk up from it.
The feature-model and configuration references are the sorted walks the
feature checks once made, each report built in the order it is read, and
stand against the checks' bulk tests.  The product-line document reference
builds the machine as the dicts and lists the writer once went through,
which the standard library's ``json`` turns into the text the direct
writer must produce.  The product-line generator reference draws the
machine and the mapping as the generator once did, through
``random.sample``, ``choices`` with plain weights and
``dataclasses.replace``, on the library's own feature-model and
configuration draws.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from itertools import count, permutations, product
from math import factorial
from typing import Iterator, NamedTuple

from scpl import formats, strategy
from scpl.binding import nsc
from scpl.errors import InvalidInputError, ScplError, UnknownFeatureError
from scpl.features import kernel
from scpl.model import (AndState, Condition, Guard, History, ImpEntry,
                        ImpMapping, InState, MachineIndex, OrState,
                        SimpleState, StateChart, Transition, Violation)
from scpl.rewrite import WorkingTree


# --- configuration validity, by structural recursion ----------------------

def valid_selection(fm, selected: frozenset[str]) -> bool:
    """Whether a plain feature set is a valid selection of the model.

    Checks, directly off the definitions: the root is in, every selected
    non-root feature has its (unique) parent selected, and for every
    selected parent each relation constraint holds.
    """
    if not selected <= fm.funcs or fm.root not in selected:
        return False
    parent_of: dict[str, str] = {}
    for _, parent, kids in fm.relations():
        for c in kids:
            parent_of[c] = parent
    for f in selected:
        if f != fm.root and parent_of.get(f) not in selected:
            return False
    for kind, parent, kids in fm.relations():
        if parent not in selected:
            continue
        chosen = len(kids & selected)
        if kind == "mand" and chosen != len(kids):
            return False
        if kind == "alt" and chosen != 1:
            return False
        if kind == "or" and chosen < 1:
            return False
    return True


def all_valid_selections(fm) -> set[frozenset[str]]:
    rest = sorted(fm.funcs - {fm.root})
    out = set()
    for bits in range(1 << len(rest)):
        sel = frozenset(f for i, f in enumerate(rest) if bits >> i & 1) \
            | {fm.root}
        if valid_selection(fm, sel):
            out.add(sel)
    return out


# --- feature-model and configuration reports, by sorted walks -------------

def _pairs_in_order(pairs) -> list:
    """Relation pairs by parent, then by sorted children."""
    return sorted(pairs, key=lambda pair: (pair[0], sorted(pair[1])))


def _reach(start: str, successors: dict[str, set[str]]) -> set[str]:
    seen, todo = {start}, [start]
    while todo:
        for name in successors.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def reference_feature_model_violations(fm) -> list[Violation]:
    """The feature-tree report built in its own order: features sorted,
    every name tested alone; each relation pair visited by kind (mand,
    opt, alt, or), parent and sorted children, its children sorted; then
    the root as a child, each child of several pairs at its first pair,
    and the features the root does not reach, sorted."""
    out: list[Violation] = []
    for f in sorted(fm.funcs):
        if not _plain_name(f):
            out.append(Violation(f, "invalid feature name"))
    if fm.root not in fm.funcs:
        out.append(Violation(fm.root, "root is not a feature of the model"))

    child_parent_count: dict[str, int] = {}
    children: dict[str, set[str]] = {}
    for kind, pairs in (("mand", fm.mand), ("opt", fm.opt),
                        ("alt", fm.alt), ("or", fm.or_rel)):
        for parent, kids in _pairs_in_order(pairs):
            if parent not in fm.funcs:
                out.append(Violation(parent, f"{kind} parent is not a feature"))
            for c in sorted(kids):
                if c not in fm.funcs:
                    out.append(Violation(c, f"{kind} child is not a feature"))
                child_parent_count[c] = child_parent_count.get(c, 0) + 1
                children.setdefault(parent, set()).add(c)
            if kind in ("mand", "opt") and len(kids) != 1:
                out.append(Violation(
                    parent, f"{kind} child set must have exactly one element, "
                            f"got {sorted(kids)}"))
            if kind in ("alt", "or") and len(kids) < 2:
                out.append(Violation(
                    parent, f"{kind} group must have at least two children, "
                            f"got {sorted(kids)}"))

    if child_parent_count.get(fm.root):
        out.append(Violation(fm.root, "root appears as a child"))
    for c, n in child_parent_count.items():
        if n > 1:
            out.append(Violation(c, f"appears as a child in {n} relation pairs"))
    if fm.root in fm.funcs:
        for f in sorted(fm.funcs - _reach(fm.root, children)):
            out.append(Violation(f, "not reachable from the root"))
    return out


def reference_configuration_violations(fm, conf) -> list[Violation]:
    """The configuration report built in its own order: the root, each
    edge by parent and sorted children, then the mandatory, alternative
    and or-group pairs the same way, children with several parents and
    unconnected features, sorted.  A mandatory pair without a child
    forces no edge.  Raises ``UnknownFeatureError`` naming every unknown
    feature, sorted."""
    unknown = sorted((conf.selected | {p for p, _ in conf.edges}
                      | {c for _, cs in conf.edges for c in cs}) - fm.funcs)
    if unknown:
        raise UnknownFeatureError(f"unknown feature(s): {', '.join(unknown)}")

    out: list[Violation] = []
    selected = conf.selected
    if fm.root not in selected:
        out.append(Violation(fm.root, "root feature is not selected"))
    relations: dict[str, list[frozenset[str]]] = {}
    for _, p, cs in fm.relations():
        relations.setdefault(p, []).append(cs)
    below: dict[str, set[str]] = {}
    for parent, kids in _pairs_in_order(conf.edges):
        if parent not in selected:
            out.append(Violation(parent, "edge parent is not selected"))
        if not kids <= selected:
            out.append(Violation(
                parent, f"edge children {sorted(kids - selected)} not selected"))
        if not kids or not any(kids <= cs for cs in relations.get(parent, ())):
            out.append(Violation(
                parent, f"edge to {sorted(kids)} restricts no model relation"))
        below.setdefault(parent, set()).update(kids)
    for parent, kids in _pairs_in_order(fm.mand):
        if parent in selected and kids and (parent, kids) not in conf.edges:
            out.append(Violation(
                parent, f"mandatory child {sorted(kids)[0]!r} edge missing"))
    for parent, kids in _pairs_in_order(fm.alt):
        if parent in selected and len(kids & selected) != 1:
            out.append(Violation(
                parent, f"alternative group {sorted(kids)} needs exactly "
                        f"one selected child, got {sorted(kids & selected)}"))
    for parent, kids in _pairs_in_order(fm.or_rel):
        if parent in selected and not kids & selected:
            out.append(Violation(
                parent, f"or-group {sorted(kids)} needs at least one "
                        "selected child"))
    parents: dict[str, set[str]] = {}
    for p, kids in below.items():
        for c in kids:
            parents.setdefault(c, set()).add(p)
    for c, ps in sorted(parents.items()):
        if len(ps) > 1:
            out.append(Violation(c, f"selected under several parents {sorted(ps)}"))
    for f in sorted(selected - _reach(fm.root, below)):
        out.append(Violation(f, "selected but not connected to the root"))
    return out


# --- reachability, by dense fixpoint --------------------------------------

def closure(nodes: list[str], edges: set[tuple[str, str]],
            start: str) -> set[str]:
    """Reflexive-transitive closure via boolean-matrix fixpoint."""
    reach = {(n, n) for n in nodes} | set(edges)
    while True:
        extra = {(a, d) for a, b in reach for c, d in reach if b == c} - reach
        if not extra:
            return {b for a, b in reach if a == start}
        reach |= extra


def and_closure(region_nodes: list[list[str]],
                region_moves: list[list[tuple[str, tuple[str, ...], list, str]]],
                start: tuple[str, ...],
                instate_ok) -> set[tuple[str, ...]]:
    """All tuples reachable by maximal synchronous steps, by exhaustive
    enumeration over the full tuple space.

    ``region_moves[i]`` holds (source, trigger, in_atoms, target) rows;
    ``instate_ok(atom_state, tuple)`` decides in-state atoms.
    """
    labels = {trig for rows in region_moves for _, trig, _, _ in rows}
    every = set(product(*region_nodes))

    def steps(cur):
        out = set()
        for label in labels:
            options = []
            moved = False
            for i, rows in enumerate(region_moves):
                targets = sorted({v for u, trig, atoms, v in rows
                                  if u == cur[i] and trig == label
                                  and all(instate_ok(a, cur) for a in atoms)})
                if targets:
                    moved = True
                    options.append(targets)
                else:
                    options.append([cur[i]])
            if moved:
                out |= set(product(*options))
        return out

    reached = {start}
    while True:
        frontier = set()
        for cur in reached:
            frontier |= steps(cur)
        frontier &= every
        if frontier <= reached:
            return reached
        reached |= frontier


# --- confluence, one fresh tree per order ---------------------------------

def reference_confluence(fm, conf, sc, imp, trials: int = 200, seed: int = 0,
                         *, exhaustive: bool = False,
                         include_pending: bool = False):
    """``check_confluence`` without its shortcuts: each order indexes the
    input into a fresh working tree and runs all four layers on it, and
    no order is skipped.  Orders, verdict and report are as
    ``check_confluence`` defines them."""
    violations = strategy.validate_inputs(fm, conf, sc, imp)
    if violations:
        raise InvalidInputError(violations)
    doomed = nsc(fm, conf, sc, imp)
    base = tuple(sorted(doomed))
    if exhaustive:
        total, orders = factorial(len(base)), list(permutations(base))
    else:
        rng = random.Random(seed)
        orders = [base]
        for _ in range(trials - 1):
            shuffled = list(base)
            rng.shuffle(shuffled)
            orders.append(tuple(shuffled))
        total = len(orders)

    def outcome(order):
        tree = WorkingTree(sc)
        try:
            strategy._rewrite(tree, doomed, order, include_pending,
                              validated=True)
            return tree
        except ScplError as exc:
            return f"error:{exc.code}"

    reference = outcome(orders[0])
    for order in orders[1:]:
        got = outcome(order)
        if strategy._shape(got) != strategy._shape(reference):
            return strategy.ConfluenceReport(
                confluent=False, trials=total, nsc_size=len(base),
                divergent_orders=(orders[0], order),
                divergent_outcomes=strategy._diff(reference, got))
    return strategy.ConfluenceReport(confluent=True, trials=total,
                                     nsc_size=len(base))


# --- well-formedness, composites read off the state objects --------------

def reference_well_formed(sc) -> list[Violation]:
    """The well-formedness check with each composite's substates, initial
    marker and regions read off its state object, which describes the
    machine as given; names and transitions come from an index of it."""
    idx = MachineIndex(sc)
    out = [Violation(name, "duplicate state name")
           for name in idx.duplicate_states]
    out += [Violation(name, "duplicate transition name")
            for name in idx.duplicate_transitions]
    for name in sorted(idx.states.keys() & idx.transitions.keys()):
        out.append(Violation(name, "name used by both a state and a transition"))
    for name, st in idx.states.items():
        if not _plain_name(name):
            out.append(Violation(name, "invalid state name"))
        if isinstance(st, OrState):
            if not st.substates:
                out.append(Violation(name, "Or-state has no substates"))
            elif st.initial not in [s.name for s in st.substates]:
                out.append(Violation(
                    name, f"initial {st.initial!r} is not a direct substate"))
        elif isinstance(st, AndState) and len(st.regions) < 2:
            out.append(Violation(name, "And-state has fewer than 2 regions"))
    for t in idx.transitions.values():
        out += _transition_breaches(idx, t)
    return out


# An identifier: non-empty, no whitespace, dot, comma or parenthesis.
_PLAIN = re.compile(r"[^\s(),.]+")


def _plain_name(name: str) -> bool:
    return _PLAIN.fullmatch(name) is not None


def _transition_name(name: str) -> bool:
    """A plain name, or comp(a,b,...) over two or more plain names."""
    if name.startswith("comp(") and name.endswith(")"):
        parts = name[5:-1].split(",")
        return len(parts) >= 2 and all(_plain_name(p) for p in parts)
    return _plain_name(name)


def _transition_breaches(idx, t) -> list[Violation]:
    """One transition's breaches: its name, trigger and each event tested
    alone, then both endpoints walked up to the owner, then its in-state
    atoms."""
    out: list[Violation] = []
    if not _transition_name(t.name):
        out.append(Violation(t.name, "invalid transition name"))
    if not t.trigger:
        out.append(Violation(t.name, "empty trigger"))
    for ev in t.trigger:
        if not _plain_name(ev):
            out.append(Violation(t.name, f"invalid event name {ev!r}"))
    out += _endpoint_breaches(idx, t)
    for atom in t.cond.atoms:
        if isinstance(atom, InState) and atom.state not in idx.states:
            out.append(Violation(
                t.name, f"condition names unknown state {atom.state!r}"))
    return out


def _endpoint_breaches(idx, t) -> list[Violation]:
    owner = idx.owner[t.name]
    out: list[Violation] = []
    ends: dict[str, str | None] = {}
    for role, endpoint in (("source", t.source), ("target", t.target)):
        if endpoint not in idx.states:
            out.append(Violation(t.name, f"{role} {endpoint!r} does not exist"))
            continue
        child = idx.direct_child_within(owner, endpoint)
        if child is None:
            out.append(Violation(
                t.name, f"{role} {endpoint!r} is not inside owner {owner!r}"))
        ends[role] = child
    if len(ends) < 2 or out:
        return out
    cs, ct = ends["source"], ends["target"]
    if cs == ct and t.source != cs and t.target != ct:
        out.append(Violation(
            t.name,
            f"endpoints {t.source!r} and {t.target!r} both lie inside "
            f"{cs!r}; the transition does not belong to {owner!r}"))
    return out


# --- the product-line document, built as dicts ----------------------------

def reference_product_line_document(fm, sc, imp) -> dict:
    """The document ``serialize_product_line`` writes, as the dicts and
    lists that ``json.dumps(..., indent=2, sort_keys=True)`` turns into the
    same text: the machine built state by state and transition by
    transition, the feature model and the mapping by the library's own
    builders, which go through ``dump_json``."""
    return {
        "feature_model": formats._feature_model_to_json(fm),
        "statechart": {"root": _state_to_json(sc.root)},
        "imp": formats._imp_to_json(imp),
    }


def _condition_to_json(cond) -> list:
    out = []
    for atom in cond.atoms:
        if isinstance(atom, Guard):
            out.append({"guard": atom.text})
        else:
            out.append({"in": atom.state})
    return out


def _transition_to_json(t) -> dict:
    out = {
        "name": t.name,
        "source": t.source,
        "target": t.target,
        "trigger": list(t.trigger),
    }
    if t.cond.atoms:
        out["cond"] = _condition_to_json(t.cond)
    if t.actions:
        out["actions"] = list(t.actions)
    if t.history is not History.NONE:
        out["history"] = t.history.value
    if t.optional:
        out["optional"] = True
    return out


def _state_to_json(state) -> dict:
    if isinstance(state, SimpleState):
        out = {"kind": "simple", "name": state.name}
    elif isinstance(state, OrState):
        out = {
            "kind": "or",
            "name": state.name,
            "initial": state.initial,
            "substates": [_state_to_json(s) for s in state.substates],
            "transitions": [_transition_to_json(t) for t in state.transitions],
        }
    else:
        out = {
            "kind": "and",
            "name": state.name,
            "regions": [_state_to_json(r) for r in state.regions],
        }
    if state.optional:
        out["optional"] = True
    return out


# --- the product-line generator's former draws ----------------------------

def reference_random_product_line(seed: int, *, max_depth: int = 3,
                                  max_substates: int = 4,
                                  max_features: int = 8):
    """``generate_random_product_line`` as it drew the machine and the
    mapping before they were built element by element: through
    ``random.sample`` for each index pair and feature draw, ``choices`` with
    plain weights and ``dataclasses.replace`` for each optional flag.  The
    feature model and configuration come from the library's own draws,
    which are unchanged.  The generator must give equal lines, so any
    change of draw order or of a draw's arguments shows."""
    rng = random.Random(seed)
    fm = strategy._random_feature_model(rng, max_features)
    conf = strategy._random_configuration(rng, fm)
    sc, optionals = _random_machine(rng, max_depth, max_substates)
    imp = _random_imp(rng, fm, optionals)
    return strategy.GeneratedLine(fm, conf, sc, imp)


_EVENTS = ("ePress", "eTick", "eBack", "eOk")


class _Draw(NamedTuple):
    """What one machine draw threads through its recursion.  Module
    functions over it, not nested closures, so no draw leaves a reference
    cycle behind."""

    rng: random.Random
    max_depth: int
    max_substates: int
    state_numbers: Iterator[int]
    transition_numbers: Iterator[int]
    optionals: list[str]
    all_states: list[str]


def _random_machine(rng: random.Random, max_depth: int,
                    max_substates: int) -> tuple[StateChart, list[str]]:
    draw = _Draw(rng, max_depth, max_substates, count(1), count(1), [], [])
    root = _random_or(draw, "Root", 0, register=True)
    return StateChart(root), draw.optionals


def _random_state(draw: _Draw, depth: int) -> State:
    name = f"S{next(draw.state_numbers)}"
    draw.all_states.append(name)
    roll = draw.rng.random()
    if depth < draw.max_depth and roll < 0.22:
        return _random_or(draw, name, depth + 1)
    if depth < draw.max_depth - 1 and roll < 0.30:
        regions = tuple(_random_or(draw, f"S{next(draw.state_numbers)}",
                                   depth + 2, register=True)
                        for _ in range(draw.rng.randint(2, 3)))
        return AndState(name, regions)
    return SimpleState(name)


def _random_or(draw: _Draw, name: str, depth: int,
               register: bool = False) -> OrState:
    rng, all_states = draw.rng, draw.all_states
    if register:
        all_states.append(name)
    k = rng.randint(2, max(2, draw.max_substates))
    subs = [_random_state(draw, depth) for _ in range(k)]
    transitions = []
    # Forward edges over the substate order keep cycles away from
    # composites; simple-to-simple back edges reintroduce cycles where
    # composition is associative.
    for _ in range(rng.randint(k - 1, k + 2)):
        i, j = sorted(rng.sample(range(k), 2))
        src, tgt = subs[i], subs[j]
        if (rng.random() < 0.3 and isinstance(src, SimpleState)
                and isinstance(tgt, SimpleState)):
            src, tgt = tgt, src
        target_name = tgt.name
        if isinstance(tgt, OrState) and rng.random() < 0.35:
            target_name = rng.choice(tgt.substates).name
        cond = Condition()
        if rng.random() < 0.15:
            if all_states and rng.random() < 0.5:
                cond = Condition((InState(rng.choice(all_states)),))
            else:
                cond = Condition((Guard("batteryOk"),))
        transitions.append(Transition(
            name=f"t{next(draw.transition_numbers):02d}",
            source=src.name,
            target=target_name,
            trigger=(rng.choice(_EVENTS),),
            cond=cond,
            actions=("beep",) if rng.random() < 0.3 else (),
            optional=False,
        ))
    # Optional flags: never the initial substate, never And-regions.
    for i, sub in enumerate(subs):
        if i > 0 and rng.random() < 0.35:
            draw.optionals.append(sub.name)
            subs[i] = replace(sub, optional=True)
    for i, t in enumerate(transitions):
        if rng.random() < 0.3:
            draw.optionals.append(t.name)
            transitions[i] = replace(t, optional=True)
    return OrState(name, tuple(subs), subs[0].name, tuple(transitions))


def _random_imp(rng: random.Random, fm: FeatureModel,
                optionals: list[str]) -> ImpMapping:
    nonkernel = sorted(fm.funcs - kernel(fm))
    entries: dict[str, set[str]] = {}
    if nonkernel:
        for el in optionals:
            n = rng.choices((0, 1, 2), weights=(25, 60, 15))[0]
            for feature in rng.sample(nonkernel, min(n, len(nonkernel))):
                entries.setdefault(feature, set()).add(el)
    includes: dict[str, set[str]] = {}
    domain = sorted(entries)
    for feature in domain:
        if len(domain) > 1 and rng.random() < 0.15:
            other = rng.choice([f for f in domain if f != feature])
            includes.setdefault(feature, set()).add(other)
    return ImpMapping.from_dict({
        f: ImpEntry(frozenset(els), frozenset(includes.get(f, ())))
        for f, els in entries.items()})


# --- a parser for the emitted DOT subset ----------------------------------

_TOKEN = re.compile(r'\s*(?:("(?:[^"\\]|\\.)*")|([{}\[\];,=])|(->)|([A-Za-z_][A-Za-z0-9_]*))')


def tokenize_dot(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad DOT at offset {pos}: {text[pos:pos+30]!r}")
            break
        tokens.append(m.group(0).strip())
        pos = m.end()
    return tokens


class DotGraph:
    def __init__(self):
        self.nodes: dict[str, dict[str, str]] = {}
        self.edges: list[tuple[str, str, dict[str, str]]] = []
        self.clusters: dict[str, dict[str, str]] = {}


def parse_dot(text: str) -> DotGraph:
    """Parses the digraph/cluster/node/edge subset; raises ValueError on
    anything outside it."""
    toks = tokenize_dot(text)
    g = DotGraph()
    i = 0

    def unquote(tok: str) -> str:
        if tok.startswith('"'):
            return re.sub(r"\\(.)", r"\1", tok[1:-1], flags=re.S)
        return tok

    def expect(tok: str):
        nonlocal i
        if i >= len(toks) or toks[i] != tok:
            raise ValueError(f"expected {tok!r} at token {i}: "
                             f"{toks[i:i+4]}")
        i += 1

    def attrs() -> dict[str, str]:
        nonlocal i
        out = {}
        if i < len(toks) and toks[i] == "[":
            i += 1
            while toks[i] != "]":
                key = unquote(toks[i]); i += 1
                expect("=")
                out[key] = unquote(toks[i]); i += 1
                if toks[i] == ",":
                    i += 1
            expect("]")
        return out

    def body(cluster_attrs: dict[str, str] | None):
        nonlocal i
        while toks[i] != "}":
            tok = toks[i]
            if tok == "subgraph":
                i += 1
                name = unquote(toks[i]); i += 1
                if not name.startswith("cluster_"):
                    raise ValueError(f"subgraph {name!r} is not a cluster")
                expect("{")
                g.clusters[name] = {}
                body(g.clusters[name])
                expect("}")
                continue
            i += 1
            if toks[i] == "=":
                i += 1
                value = unquote(toks[i]); i += 1
                if cluster_attrs is not None:
                    cluster_attrs[unquote(tok)] = value
                expect(";")
                continue
            if toks[i] == "->":
                i += 1
                head = unquote(toks[i]); i += 1
                g.edges.append((unquote(tok), head, attrs()))
                expect(";")
                continue
            g.nodes.setdefault(unquote(tok), {}).update(attrs())
            expect(";")

    expect("digraph")
    i += 1  # graph name
    expect("{")
    body(None)
    expect("}")
    if i != len(toks):
        raise ValueError("trailing tokens after closing brace")
    return g
