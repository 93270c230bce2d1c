"""Instantiation of a product from a product line: the four-layer rule
schedule, the confluence/termination harness, and a random product-line
generator for the property suites.

Layer order: (1) initial-state repair and condition pruning to a fixpoint,
(2) state deletions, (3) transition deletions, (4) the optional-flag sweep.
Within layers 2 and 3, pending elements are processed in ascending name
order by default; ``order`` injects a different priority, which must not
change the result (the confluence harness checks exactly that).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple, Sequence

from .binding import nsc as compute_nsc
from .binding import validate_imp
from .errors import InvalidInputError, RewriteError, ScplError
from .features import (build_configuration, kernel, validate_configuration,
                       validate_feature_model)
from .model import (AndState, Condition, Configuration, FeatureModel, Guard,
                    ImpEntry, ImpMapping, InState, MachineIndex, OrState,
                    RewriteTrace, SimpleState, State, StateChart, TraceStep,
                    Transition, canonicalize, check_well_formed, var_elems)
from .rewrite import PendingSet, WorkingTree


class InstantiationResult(NamedTuple):
    statechart: StateChart
    trace: RewriteTrace


def validate_inputs(fm: FeatureModel, conf: Configuration, sc: StateChart,
                    imp: ImpMapping):
    """All validator violations over the four artifacts, in one list."""
    out = list(validate_feature_model(fm))
    out += check_well_formed(sc)
    if not out:
        out += validate_configuration(fm, conf)
        out += validate_imp(fm, sc, imp)
    return out


def instantiate(fm: FeatureModel, conf: Configuration, sc: StateChart,
                imp: ImpMapping, *, order: Sequence[str] | None = None,
                validate: bool = True,
                include_pending: bool = False) -> InstantiationResult:
    """Builds the concrete machine for a configuration.

    The result carries no optional element and none of the elements that
    only implemented deselected features; the trace records every rule
    application.  Raises InvalidInputError when a validator objects,
    NoInitialError or EmptyCompositeError when a deletion cannot be
    repaired.

    Every rule edits one working tree in place and returns its own trace
    step; the tree is built once from ``sc`` and frozen once at the end.
    """
    if validate:
        violations = validate_inputs(fm, conf, sc, imp)
        if violations:
            raise InvalidInputError(violations)

    doomed = compute_nsc(fm, conf, sc, imp)
    pending = PendingSet(set(doomed))
    rank = ({name: i for i, name in enumerate(order)} if order is not None
            else None)

    def key(name: str) -> tuple:
        if rank is None:
            return (name,)
        return (rank.get(name, len(rank)), name)

    tree = WorkingTree(sc)
    pending_states = sorted((n for n in pending.remaining if n in tree.states),
                            key=key)
    # Safety net for the termination argument: every recorded step must
    # consume budget, and the budget is linear in the machine.
    budget = len(doomed) + len(tree.states) + len(pending_states) + 2
    steps: list[TraceStep] = []

    def record(step: TraceStep) -> None:
        steps.append(step)
        if len(steps) > budget:
            raise RewriteError("rule application budget exceeded")

    # Layer 1a: prune in-state atoms about every doomed state, one step per
    # state whose subtree an atom named (first such state in key order).
    for name in tree.prune_conditions(pending_states):
        record(TraceStep("prune_conditions", name,
                         detail="in-state atoms removed"))

    # Layer 1b: repair initial markers of surviving composites whose
    # initial substate is doomed, walking each chain to a survivor.
    # Repairs leave every other composite's candidacy as it was.
    for name in sorted(
            name for name, init in tree.initial.items()
            if init in pending and name not in pending
            and not any(a in pending for a in tree.ancestors(name))):
        record(tree.repair_initial(name, pending))

    # Layer 2: state deletions; elements nested inside a doomed composite
    # are swallowed by the composite's own deletion.  A deletion changes no
    # other pending state's ancestors, so the eligible set and its order
    # are fixed up front.
    for name in [n for n in pending_states
                 if not any(a in pending for a in tree.ancestors(n))]:
        record(tree.delete_state(name, pending,
                                 include_pending=include_pending))

    # Layer 3: remaining pending elements are transitions.
    for name in sorted(pending.remaining, key=key):
        record(tree.delete_transition(name, pending))

    # Layer 4: the optional-flag sweep, applied once.
    record(tree.finalize_optionals())

    sc = tree.freeze()
    sop, top = var_elems(sc)
    leftovers = check_well_formed(sc)
    if sop or top or leftovers:
        raise RewriteError(
            f"instantiation produced an inconsistent machine: {leftovers}")
    return InstantiationResult(sc, RewriteTrace(tuple(steps)))


# --- confluence harness ---------------------------------------------------

@dataclass(frozen=True)
class ConfluenceReport:
    confluent: bool
    trials: int
    nsc_size: int
    divergent_orders: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    divergent_outcomes: tuple[str, str] | None = None


def check_confluence(fm: FeatureModel, conf: Configuration, sc: StateChart,
                     imp: ImpMapping, trials: int = 200, seed: int = 0, *,
                     exhaustive: bool = False,
                     include_pending: bool = False) -> ConfluenceReport:
    """Runs many instantiations under permuted within-layer orders and
    reports whether all canonical results agree.  Errors count as outcomes
    too: a run that fails must fail identically under every order."""
    violations = validate_inputs(fm, conf, sc, imp)
    if violations:
        raise InvalidInputError(violations)

    base = tuple(sorted(compute_nsc(fm, conf, sc, imp)))

    def outcome(order):
        try:
            result = instantiate(fm, conf, sc, imp, order=order,
                                 validate=False,
                                 include_pending=include_pending)
            return canonicalize(result.statechart)
        except ScplError as exc:
            return f"error:{exc.code}"

    if exhaustive:
        orders = [tuple(p) for p in permutations(base)]
    else:
        rng = random.Random(seed)
        orders = [base]
        for _ in range(max(0, trials - 1)):
            shuffled = list(base)
            rng.shuffle(shuffled)
            orders.append(tuple(shuffled))

    reference = outcome(orders[0])
    for order in orders[1:]:
        got = outcome(order)
        if got != reference:
            return ConfluenceReport(
                confluent=False, trials=len(orders), nsc_size=len(base),
                divergent_orders=(orders[0], order),
                divergent_outcomes=(_describe(reference), _describe(got)))
    return ConfluenceReport(confluent=True, trials=len(orders),
                            nsc_size=len(base))


def _describe(outcome) -> str:
    if isinstance(outcome, str):
        return outcome
    idx = MachineIndex(outcome)
    return (f"machine with states {sorted(idx.states)} and transitions "
            f"{sorted(idx.transitions)}")


# --- random product lines -------------------------------------------------

class GeneratedLine(NamedTuple):
    fm: FeatureModel
    conf: Configuration
    sc: StateChart
    imp: ImpMapping


def generate_random_product_line(seed: int, *, max_depth: int = 3,
                                 max_substates: int = 4,
                                 max_features: int = 8) -> GeneratedLine:
    """Reproducible quadruple of mutually valid artifacts.

    The machines are shaped so that instantiation always completes: root,
    initial substates, and And-regions are never optional, and sibling
    transition graphs only cycle through simple states, never around a
    composite.
    """
    rng = random.Random(seed)
    fm = _random_feature_model(rng, max_features)
    conf = _random_configuration(rng, fm)
    sc, optionals = _random_machine(rng, max_depth, max_substates)
    imp = _random_imp(rng, fm, optionals)
    return GeneratedLine(fm, conf, sc, imp)


def _random_feature_model(rng: random.Random, max_features: int) -> FeatureModel:
    total = rng.randint(1, max(1, max_features))
    funcs = ["F0"]
    mand, opt, alt, orr = set(), set(), set(), set()
    while len(funcs) < total:
        parent = rng.choice(funcs)
        kind = rng.choice(("mand", "opt", "alt", "or"))
        room = total - len(funcs)
        if kind in ("alt", "or") and room >= 2:
            k = min(rng.randint(2, 3), room)
            kids = [f"F{len(funcs) + i}" for i in range(k)]
            funcs.extend(kids)
            (alt if kind == "alt" else orr).add((parent, frozenset(kids)))
        else:
            child = f"F{len(funcs)}"
            funcs.append(child)
            (mand if kind == "mand" else opt).add((parent, frozenset({child})))
    return FeatureModel(frozenset(funcs), "F0", frozenset(mand),
                        frozenset(opt), frozenset(alt), frozenset(orr))


def _random_configuration(rng: random.Random, fm: FeatureModel) -> Configuration:
    selected = {fm.root}
    frontier = [fm.root]
    by_parent: dict[str, list[tuple[str, str, frozenset[str]]]] = {}
    for kind, parent, kids in fm.relations():
        by_parent.setdefault(parent, []).append((kind, parent, kids))
    while frontier:
        parent = frontier.pop()
        for kind, _, kids in sorted(by_parent.get(parent, ()),
                                    key=lambda r: (r[0], sorted(r[2]))):
            ordered = sorted(kids)
            if kind == "mand":
                chosen = ordered
            elif kind == "opt":
                chosen = ordered if rng.random() < 0.5 else []
            elif kind == "alt":
                chosen = [rng.choice(ordered)]
            else:
                chosen = rng.sample(ordered, rng.randint(1, len(ordered)))
            for c in chosen:
                selected.add(c)
                frontier.append(c)
    return build_configuration(fm, frozenset(selected))


_EVENTS = ("ePress", "eTick", "eBack", "eOk")


def _random_machine(rng: random.Random, max_depth: int,
                    max_substates: int) -> tuple[StateChart, list[str]]:
    counter = {"s": 0, "t": 0}
    optionals: list[str] = []
    all_states: list[str] = []

    def next_state_name() -> str:
        counter["s"] += 1
        return f"S{counter['s']}"

    def next_transition_name() -> str:
        counter["t"] += 1
        return f"t{counter['t']:02d}"

    def build_state(depth: int, allow_composite: bool) -> State:
        name = next_state_name()
        all_states.append(name)
        roll = rng.random()
        if allow_composite and depth < max_depth and roll < 0.22:
            return build_or(name, depth + 1)
        if allow_composite and depth < max_depth - 1 and roll < 0.30:
            regions = tuple(build_or(next_state_name(), depth + 2,
                                     register=True)
                            for _ in range(rng.randint(2, 3)))
            return AndState(name, regions)
        return SimpleState(name)

    def build_or(name: str, depth: int, register: bool = False) -> OrState:
        if register:
            all_states.append(name)
        k = rng.randint(2, max(2, max_substates))
        subs = [build_state(depth, allow_composite=True) for _ in range(k)]
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
                name=next_transition_name(),
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
                optionals.append(sub.name)
                subs[i] = _mark_optional(sub)
        for i, t in enumerate(transitions):
            if rng.random() < 0.3:
                optionals.append(t.name)
                transitions[i] = Transition(
                    t.name, t.source, t.target, t.trigger, t.cond, t.actions,
                    t.history, optional=True)
        return OrState(name, tuple(subs), subs[0].name, tuple(transitions))

    root = build_or("Root", 0, register=True)
    return StateChart(root), optionals


def _mark_optional(state: State) -> State:
    if isinstance(state, SimpleState):
        return SimpleState(state.name, optional=True)
    if isinstance(state, OrState):
        return OrState(state.name, state.substates, state.initial,
                       state.transitions, optional=True)
    return AndState(state.name, state.regions, optional=True)


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
