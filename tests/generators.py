"""Seeded generators for composites used by the reachability suites, and
a fault injector for the well-formedness suites."""

from __future__ import annotations

import random
from dataclasses import replace

from scpl.model import (AndState, Condition, InState, OrState, SimpleState,
                        StateChart, Transition, map_states)

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
