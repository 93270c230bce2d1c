"""Seeded generators for composites used by the reachability suites, the
generated product lines every sweep shares, and fault injectors: for
states and for transitions, for the well-formedness suites, and for
feature models and configurations, for the feature checks."""

from __future__ import annotations

import random
from dataclasses import replace
from functools import cache

from scpl.model import (AndState, Condition, Configuration, FeatureModel,
                        InState, MachineIndex, OrState, SimpleState,
                        StateChart, Transition, map_states, reached)
from scpl.strategy import GeneratedLine, generate_random_product_line

EVENTS = ("e1", "e2")


def generated_line(seed: int, **generator) -> GeneratedLine:
    """``generate_random_product_line(seed, **generator)``, drawn once per
    test session: a line is an immutable value and a fixed function of its
    arguments, so every sweep that meets one seed again shares its first
    draw.  The parameters are keyed in name order, whatever order a
    caller writes them in."""
    return _drawn(seed, tuple(sorted(generator.items())))


@cache
def _drawn(seed: int, generator: tuple) -> GeneratedLine:
    return generate_random_product_line(seed, **dict(generator))


def random_or_composite(seed: int, max_substates: int = 6):
    """A Root machine holding one Or-composite E with random internal
    transitions, some of them targeting nested states."""
    rng = random.Random(seed)
    n = rng.randint(2, max_substates)
    subs = []
    for i in range(n):
        if i > 0 and rng.random() < 0.25:
            subs.append(OrState(f"N{i}", (SimpleState(f"N{i}a"),
                                          SimpleState(f"N{i}b")), f"N{i}a"))
        else:
            subs.append(SimpleState(f"N{i}"))
    names = [s.name for s in subs]
    transitions = []
    for k in range(rng.randint(1, n + 3)):
        src = rng.choice(names)
        tgt = rng.choice(names)
        if src == tgt:
            continue
        tgt_state = subs[names.index(tgt)]
        endpoint = tgt
        if isinstance(tgt_state, OrState) and rng.random() < 0.5:
            endpoint = rng.choice(tgt_state.substates).name
        transitions.append(Transition(f"t{k}", src, endpoint,
                                      (rng.choice(EVENTS),)))
    comp = OrState("E", tuple(subs), names[0], tuple(transitions))
    root = OrState("Root", (SimpleState("Out"), comp), "Out")
    return StateChart(root), comp


def random_and_composite(seed: int, max_regions: int = 3,
                         max_substates: int = 4):
    """A Root machine holding one And-composite E whose regions are flat
    Or-states; conditions only name substates of sibling regions."""
    rng = random.Random(seed)
    n_regions = rng.randint(2, max_regions)
    all_nodes: list[str] = []
    region_specs = []
    for r in range(n_regions):
        k = rng.randint(1, max_substates)
        nodes = [f"R{r}S{i}" for i in range(k)]
        all_nodes.extend(nodes)
        region_specs.append(nodes)
    regions = []
    t = 0
    for r, nodes in enumerate(region_specs):
        transitions = []
        for _ in range(rng.randint(0, len(nodes) + 2)):
            src = rng.choice(nodes)
            tgt = rng.choice(nodes)
            if src == tgt:
                continue
            cond = Condition()
            if rng.random() < 0.3:
                cond = Condition((InState(rng.choice(all_nodes)),))
            transitions.append(Transition(f"t{t}", src, tgt,
                                          (rng.choice(EVENTS),), cond))
            t += 1
        regions.append(OrState(f"R{r}", tuple(SimpleState(n) for n in nodes),
                               nodes[0], tuple(transitions)))
    comp = AndState("E", tuple(regions))
    root = OrState("Root", (SimpleState("Out"), comp), "Out")
    return StateChart(root), comp


def inject_faults(sc: StateChart, rng: random.Random) -> StateChart:
    """The machine rebuilt with random well-formedness faults, one draw per
    state: an Or-state gets initial ``Ghost`` (5%), a name with a space
    (3%) or no substates (2%); an And-state keeps only its first region
    (20%); a simple state is renamed ``bad.<name>`` (3%)."""

    def fault(state):
        roll = rng.random()
        if isinstance(state, OrState):
            if roll < 0.05:
                return replace(state, initial="Ghost")
            if roll < 0.08:
                return replace(state, name=state.name + " x")
            if roll < 0.10:
                return replace(state, substates=())
        elif isinstance(state, AndState):
            if roll < 0.2:
                return replace(state, regions=state.regions[:1])
        elif roll < 0.03:
            return replace(state, name=f"bad.{state.name}")
        return state

    return map_states(sc, fault)


def inject_transition_faults(sc: StateChart, rng: random.Random) -> StateChart:
    """The machine rebuilt with random transition faults, one draw per
    transition, each at 2%: a malformed name (a one-part or empty-part
    ``comp(...)``, an unclosed ``comp(``, a space), one more event that is
    empty or holds a reserved character, an empty trigger, a source that
    does not exist, a target outside the owner, both ends strictly inside
    one substate of the owner, or an in-state atom naming no state.  A
    further 2% are renamed to a valid ``comp(name,name)``, which is no
    fault.  Every new name is unique."""
    idx = MachineIndex(sc)

    def fault(t: Transition, owner: str) -> Transition:
        roll = rng.random()
        if roll < 0.02:
            return replace(t, name=rng.choice((
                f"comp({t.name})", f"comp({t.name},)", f"comp({t.name},x",
                f"{t.name} x")))
        if roll < 0.04:
            return replace(t, trigger=t.trigger + (
                rng.choice(("", "e.1", "e 1", "(e)")),))
        if roll < 0.06:
            return replace(t, trigger=())
        if roll < 0.08:
            return replace(t, source="Ghost")
        if roll < 0.10:
            outside = [s for s in idx.states
                       if idx.direct_child_within(owner, s) is None]
            return replace(t, target=rng.choice(outside))
        if roll < 0.12:
            deep = [c for c in idx.children[owner] if idx.children.get(c)]
            if deep:
                c = rng.choice(deep)
                inside = sorted(reached(c, idx.children) - {c})
                return replace(t, source=rng.choice(inside),
                               target=rng.choice(inside))
        elif roll < 0.14:
            return replace(t, cond=t.cond & Condition((InState("Nowhere"),)))
        elif roll < 0.16:
            return replace(t, name=f"comp({t.name},{t.name})")
        return t

    def faulty(state):
        if isinstance(state, OrState):
            return replace(state, transitions=tuple(
                fault(t, state.name) for t in state.transitions))
        return state

    return map_states(sc, faulty)


def inject_feature_faults(fm: FeatureModel, conf: Configuration,
                          rng: random.Random
                          ) -> tuple[FeatureModel, Configuration]:
    """The model and configuration with random faults, one draw per fault
    kind at 8% each.

    Model faults: a feature renamed to an invalid or empty name, a pair
    under an unknown parent or with an unknown child, a pair of the wrong
    cardinality, a pair with no child (half of them also made an edge), a
    child put under a second pair, the root as a child, a further group of
    random features under a parent of groups of that kind, an unreachable
    feature, a root that is no feature.  Configuration faults: an edge
    parent or edge children left unselected, one or two edges of up to two
    children that may restrict no relation, a mandatory edge dropped,
    every alternative group of a parent with no or two choices, every
    or-group of a parent left empty, a child under a second parent, a
    selected feature no edge reaches, an unselected root, an unknown
    feature selected, as an edge parent or as an edge child, two
    alternative or two or-groups under one selected parent with none of
    their children selected.  Each of those two groups pairs a one-digit
    with a two-digit feature, such as F9 with F10, which sort one way as
    text and, under about half of the hash seeds, the other way in set
    order, so a report keyed by unsorted children changes its order.  No
    draw follows the hash seed."""
    funcs, root = set(fm.funcs), fm.root
    groups = {"mand": set(fm.mand), "opt": set(fm.opt),
              "alt": set(fm.alt), "or": set(fm.or_rel)}
    selected, edges = set(conf.selected), set(conf.edges)

    def hit() -> bool:
        return rng.random() < 0.08

    def pick(items):
        """A random item, or None; pairs are ordered by parent and sorted
        children, so that no hash seed changes the draw."""
        if not items:
            return None
        return rng.choice(sorted(items, key=lambda item: (
            (item[0], sorted(item[1])) if isinstance(item, tuple) else item)))

    if hit():
        old = pick(funcs - {root})
        if old is not None:
            new = rng.choice(("", f"{old} x", f"{old}.y", f"({old})"))
            funcs = funcs - {old} | {new}
    if hit():
        groups[pick(groups)].add(("Ghost", frozenset({pick(funcs)})))
    if hit():
        groups[pick(groups)].add(
            (pick(funcs), frozenset({"Nobody", pick(funcs)})))
    if hit():
        kind = pick(groups)
        size = rng.choice((0, 2, 3) if kind in ("mand", "opt") else (0, 1))
        kids = rng.sample(sorted(funcs), min(size, len(funcs)))
        groups[kind].add((pick(funcs), frozenset(kids)))
    if hit():
        empty = (pick(selected) or root, frozenset())
        groups[pick(groups)].add(empty)
        if rng.random() < 0.5:
            edges.add(empty)
    if hit():
        pair = pick(set().union(*groups.values()))
        if pair is not None and pair[1]:
            groups[pick(groups)].add((pick(funcs), frozenset({pick(pair[1])})))
    if hit():
        groups[pick(groups)].add((pick(funcs), frozenset({root})))
    if hit():
        kind = rng.choice(("alt", "or"))
        parent = pick({p for p, _ in groups[kind]}) or root
        size = min(rng.randint(2, 3), len(funcs))
        groups[kind].add((parent, frozenset(rng.sample(sorted(funcs), size))))
    if hit():
        funcs.add(f"Lone{rng.randint(0, 9)}")
    if hit():
        root = rng.choice(("Ghost", pick(funcs - {root}) or "Ghost"))

    if hit():
        pair = pick(edges)
        if pair is not None:
            selected.discard(pair[0])
    if hit():
        pair = pick({e for e in edges if e[1]})
        if pair is not None:
            selected.discard(pick(pair[1]))
    if hit():
        parent = pick(selected) or root
        for _ in range(rng.randint(1, 2)):
            size = min(rng.randint(0, 2), len(funcs))
            edges.add((parent, frozenset(rng.sample(sorted(funcs), size))))
    if hit():
        pair = pick(groups["mand"] & edges)
        if pair is not None:
            edges.discard(pair)
    if hit():
        parent = pick({p for p, _ in groups["alt"] if p in selected})
        none = rng.random() < 0.5
        for kids in sorted((kids for p, kids in groups["alt"] if p == parent),
                           key=sorted):
            if none:
                selected -= kids
                edges -= {e for e in edges if e[0] == parent and e[1] <= kids}
            else:
                two = frozenset(rng.sample(sorted(kids), min(2, len(kids))))
                selected |= two
                edges.add((parent, two))
    if hit():
        parent = pick({p for p, _ in groups["or"] if p in selected})
        for p, kids in groups["or"]:
            if p == parent:
                selected -= kids
    if hit():
        child = pick(selected - {root})
        parent = pick(selected - {child})
        if child is not None and parent is not None:
            edges.add((parent, frozenset({child})))
    if hit():
        selected.add(pick(funcs - selected) or pick(funcs) or root)
    if hit():
        selected.discard(fm.root)
    if hit():
        roll = rng.random()
        if roll < 1 / 3:
            selected.add("Ghost")
        elif roll < 2 / 3:
            edges.add(("Ghost", frozenset({pick(funcs) or root})))
        else:
            edges.add((root, frozenset({"Nobody"})))
    if hit():
        kind = rng.choice(("alt", "or"))
        parent = pick(selected) or root
        for _ in range(2):
            kids = frozenset({f"F{rng.randint(2, 9)}", f"F{rng.randint(10, 19)}"})
            groups[kind].add((parent, kids))
            selected -= kids - {parent, root}

    model = FeatureModel(frozenset(funcs), root, frozenset(groups["mand"]),
                         frozenset(groups["opt"]), frozenset(groups["alt"]),
                         frozenset(groups["or"]))
    return model, Configuration(frozenset(selected), frozenset(edges))
