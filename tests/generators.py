"""Seeded generators for composites used by the reachability suites, and
fault injectors, for states and for transitions, for the well-formedness
suites."""

from __future__ import annotations

import random
from dataclasses import replace

from scpl.model import (AndState, Condition, InState, MachineIndex, OrState,
                        SimpleState, StateChart, Transition, map_states)

EVENTS = ("e1", "e2")


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
            deep = [c for c in idx.children[owner] if idx.descendants(c)]
            if deep:
                inside = sorted(idx.descendants(rng.choice(deep)))
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
