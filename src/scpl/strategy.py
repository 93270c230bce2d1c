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
from dataclasses import dataclass, fields
from itertools import count, permutations
from math import factorial, prod
from typing import Iterator, NamedTuple, Sequence

from .binding import imp_violations
from .binding import nsc as compute_nsc
from .errors import InvalidInputError, RewriteError, ScplError, TooLargeError
from .features import (build_configuration, kernel, validate_configuration,
                       validate_feature_model)
from .model import (AndState, Condition, Configuration, FeatureModel, Guard,
                    History, ImpEntry, ImpMapping, InState, MachineIndex,
                    OrState, RewriteTrace, SimpleState, State, StateChart,
                    TraceStep, Transition, Violation, comp_parts, partition,
                    touched_violations, well_formed_violations)
from .rewrite import PendingSet, WorkingTree, flagged


# Largest NSC that ``check_confluence(exhaustive=True)`` runs every order
# of: 8! = 40,320 instantiations.
EXHAUSTIVE_CAP = 8


class InstantiationResult(NamedTuple):
    statechart: StateChart
    trace: RewriteTrace


def validate_inputs(fm: FeatureModel, conf: Configuration, sc: StateChart,
                    imp: ImpMapping):
    """All validator violations over the four artifacts, in one list."""
    return input_violations(fm, conf, MachineIndex(sc), imp)


def input_violations(fm: FeatureModel, conf: Configuration | None,
                     idx: MachineIndex, imp: ImpMapping) -> list[Violation]:
    """``validate_inputs`` over an index of the machine, which it walks no
    further; a ``conf`` of None leaves the configuration unchecked."""
    out = list(validate_feature_model(fm))
    out += well_formed_violations(idx)
    if not out:
        if conf is not None:
            out += validate_configuration(fm, conf)
        out += imp_violations(fm, idx, imp)
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
    step; each call rewrites a copy of the validated tree that
    ``_prepared`` keeps on the machine object (``model.StateChart``'s
    private slot), built by the first call, and frozen once at the end.
    A call on the same ``fm``, ``sc`` and ``imp`` objects as an earlier
    one validates only its configuration.  Every copy shares the kept
    tree's holder of what no configuration changes
    (``rewrite.InputFacts``), so a later call, under any configuration,
    reuses the subtrees, the cleared elements and the frozen composites
    earlier ones built.  The edited copy is checked before it is frozen,
    read from its maps: validated input over the edits alone
    (``model.touched_violations``), other input whole
    (``model.well_formed_violations``).  A breach, or an optional flag
    left over, raises RewriteError.
    """
    tree = _prepared(fm, conf, sc, imp, validate=validate).copy()
    trace = _rewrite(tree, compute_nsc(fm, conf, sc, imp), order,
                     include_pending, validated=validate)
    return InstantiationResult(tree.freeze(), trace)


class _Kept(NamedTuple):
    """What ``_prepared`` keeps on one machine object: the unedited
    working tree, whose holder of input facts every copy shares, and the
    parts of the validation verdict.  ``well_formed`` is the machine's
    own; ``features`` and ``mapping`` were drawn for the ``fm`` and
    ``imp`` objects named here, and ``mapping`` is None when an earlier
    part already objects.  It holds no reference to the machine, so no
    reference cycle."""

    tree: WorkingTree
    well_formed: tuple[Violation, ...] | None = None
    fm: FeatureModel | None = None
    imp: ImpMapping | None = None
    features: tuple[Violation, ...] | None = None
    mapping: tuple[Violation, ...] | None = None


_store = StateChart._kept.__set__


def _prepared(fm: FeatureModel, conf: Configuration, sc: StateChart,
              imp: ImpMapping, *, validate: bool) -> WorkingTree:
    """The working tree kept on ``sc``, validated with the other inputs
    unless ``validate`` is false (raising InvalidInputError with exactly
    the list ``input_violations`` gives).  The caller must not edit it:
    ``instantiate`` rewrites a copy.

    What it derives is kept in ``sc``'s private slot as a new ``_Kept``,
    stored by one slot assignment, and matched by the identity of the
    objects, never by equality.  The first call on a machine builds the
    tree and keeps it, so the machine is walked once, and what one call
    fills in the tree's holder of input facts (``rewrite.InputFacts``)
    serves every later call, whatever its configuration.  The machine's
    verdict is kept whatever the other inputs, the feature-model and
    mapping verdicts are drawn again for another ``fm`` or ``imp``
    object, and the configuration is checked on every call."""
    kept = getattr(sc, "_kept", None)
    changed = kept is None
    if changed:
        kept = _Kept(WorkingTree(sc))
    tree, well_formed, kept_fm, kept_imp, features, mapping = kept
    if validate and (features is None or kept_fm is not fm
                     or kept_imp is not imp):
        if well_formed is None:
            well_formed = tuple(well_formed_violations(tree))
        kept_fm, kept_imp, changed = fm, imp, True
        features = tuple(validate_feature_model(fm))
        mapping = (None if features or well_formed
                   else tuple(imp_violations(fm, tree, imp)))
    if changed:
        _store(sc, _Kept(tree, well_formed, kept_fm, kept_imp, features,
                         mapping))
    if validate:
        violations = ([*features, *well_formed]
                      or [*validate_configuration(fm, conf), *mapping])
        if violations:
            raise InvalidInputError(violations)
    return tree


def _rewrite(tree: WorkingTree, doomed: frozenset[str],
             order: Sequence[str] | None, include_pending: bool, *,
             validated: bool) -> RewriteTrace:
    """The four layers on a fresh working tree, which they leave edited,
    then the post-check: over the edits alone when the input was
    ``validated``, else whole."""
    key = _order_key(order)
    pending = PendingSet(doomed)
    pending_states = sorted((n for n in doomed if n in tree.states), key=key)
    # Safety net for the termination argument: every recorded step must
    # consume budget, and the budget is linear in the machine.
    budget = len(doomed) + len(tree.states) + len(pending_states) + 2
    steps: list[TraceStep] = []

    # Layer 1a: prune in-state atoms about every doomed state, one step per
    # state whose subtree an atom named (first such state in key order).
    # The edits are the same under every key.
    for name in tree.prune_conditions(pending_states):
        _record(steps, budget, TraceStep("prune_conditions", name,
                                         detail="in-state atoms removed"))

    # Layer 1b: repair initial markers of surviving composites whose
    # initial substate is doomed, walking each chain to a survivor.
    # Repairs leave every other composite's candidacy as it was.
    eligible = _eligible(tree, doomed)
    for name in sorted(name for name, init in tree.initial.items()
                       if init in eligible):
        _record(steps, budget, tree.repair_initial(name, pending))

    # Layer 2: state deletions, in key order.
    for name in sorted(eligible, key=key):
        _record(steps, budget, tree.delete_state(
            name, pending, include_pending=include_pending))

    # Layer 3: remaining pending elements are transitions.
    for name in sorted(pending, key=key):
        _record(steps, budget, tree.delete_transition(name, pending))

    # Layer 4: the optional-flag sweep, applied once.
    _record(steps, budget, tree.finalize_optionals())

    # On validated input every deleted state sat in a subtree whose atoms
    # layer 1 pruned, so only the composites the edits wrote and the added
    # transitions can break what validation established.  ``dirty`` is a
    # set, whose order follows the hash seed, so the error text reads it
    # sorted.
    leftovers = (touched_violations(tree, sorted(tree.dirty), tree.added)
                 if validated else well_formed_violations(tree))
    optional_left = (any(st.optional for st in tree.states.values())
                     or any(t.optional for t in tree.transitions.values()))
    if leftovers or optional_left:
        raise RewriteError(
            f"instantiation produced an inconsistent machine: {leftovers}")
    return RewriteTrace(tuple(steps))


def _order_key(order: Sequence[str] | None):
    """Sort key of pending names: their rank in ``order``, unranked names
    last, ties by name; by name alone when there is no order."""
    if order is None:
        return lambda name: (name,)
    rank = {name: i for i, name in enumerate(order)}
    return lambda name: (rank.get(name, len(rank)), name)


def _eligible(tree: WorkingTree, doomed: frozenset[str]) -> set[str]:
    """The states layer 2 deletes: doomed states that no doomed composite
    holds, since a composite's deletion swallows what it holds.  Layer 1
    moves no state and a deletion changes no other doomed state's
    ancestors, so the set is fixed from the input on.  A surviving
    composite's initial substate is in it exactly when layer 1 repairs
    that composite.  Each doomed name walks ``parent`` up until it meets
    a doomed ancestor or passes the root."""
    parent = tree.parent
    out = set()
    for name in doomed:
        if name in parent:
            cur = parent[name]
            while cur is not None and cur not in doomed:
                cur = parent.get(cur)
            if cur is None:
                out.add(name)
    return out


def _record(steps: list[TraceStep], budget: int, step: TraceStep) -> None:
    steps.append(step)
    if len(steps) > budget:
        raise RewriteError("rule application budget exceeded")


# --- confluence harness ---------------------------------------------------

@dataclass(frozen=True, slots=True)
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
    too: a run that fails must fail identically under every order.
    ``exhaustive`` runs every order instead of ``trials`` sampled ones and
    raises TooLargeError when NSC holds more than EXHAUSTIVE_CAP elements;
    otherwise ``trials`` below 1 is refused with InvalidInputError.

    The inputs are indexed and validated once, into the working tree
    that ``_prepared`` keeps on ``sc``, which the check never edits: a
    later ``instantiate`` or check on the same machine object indexes
    nothing.  Each order runs all four layers (``_rewrite``) on its own
    copy of that tree, which it checks over its edits alone and compares
    by its maps (``_shape``), never frozen; a failure in any layer is
    compared like any other outcome.

    An order's outcome depends only on its layer-2 projection, the order
    restricted to the states eligible for layer 2 (``_eligible``, read off
    the unedited tree): layer 1 edits alike under every order, which
    decides only the trace credit of pruning steps, layer 3 only drops
    distinct transitions and never raises, so any order of it ends alike,
    and layer 4 and the post-check read only the final tree.  Finer still,
    when the reference outcome is a tree it depends only on the projection
    onto each group of interacting eligible states
    (``_interacting_groups``: two join when both their deletions would
    drop one same transition).  A deletion drops only the transitions
    ``WorkingTree.boundary`` finds touching its subtree and composes only
    from those, so each composition joins ends of its own group's
    transitions and the groups stay apart; the blocked names, reachability
    and owner it reads are its own group's; an Or-parent keeps its
    surviving initial substate, and an And-parent, which composes nothing,
    keeps at least the regions the reference kept.  Two fallbacks key
    orders by the whole projection: an error reference, since the
    interleaving decides which group's error comes first, and an input
    transition named comp(...), since a composition may clash with it or
    not by whether another group dropped it first.  An order whose key has
    already run is skipped: that earlier outcome agreed with the reference,
    or the check would have returned.

    The check stops as soon as its verdict is settled, at one of two
    exits.  With fewer than two eligible states every order has the same
    key under either keying, so no outcome can differ from the reference
    and none runs, the reference included; when no group holds two states
    the check returns after the reference for the same reason.  Once as
    many keys have run as there are, the product of ``|group|!`` over the
    groups, no later order can bring a new one, so no further order is
    drawn.  Neither exit changes a field of the report: ``trials`` still
    counts every order, and ``divergent_orders`` pairs the first order
    with the first divergent one in iteration order.  That order's key
    cannot have run before it, since every key that ran gave the
    reference's outcome, so it is met before the last key runs.
    ``divergent_outcomes`` gives, per outcome, the first few elements and
    fields on which the two differ with that outcome's values."""
    if not exhaustive and trials < 1:
        raise InvalidInputError(
            [Violation("trials", f"must be at least 1, got {trials}")])
    tree = _prepared(fm, conf, sc, imp, validate=True)
    doomed = compute_nsc(fm, conf, sc, imp)
    base = tuple(sorted(doomed))

    if exhaustive:
        if len(base) > EXHAUSTIVE_CAP:
            raise TooLargeError(
                f"{len(base)} NSC elements exceed the exhaustive cap of "
                f"{EXHAUSTIVE_CAP}")
        total = factorial(len(base))
        orders = permutations(base)
    else:
        total = trials
        orders = _sampled_orders(base, trials, seed)

    agreed = ConfluenceReport(confluent=True, trials=total,
                              nsc_size=len(base))
    eligible = sorted(_eligible(tree, doomed))
    if len(eligible) < 2:
        # Every order has the one empty or single-state projection.
        return agreed

    def outcome(order):
        copy = tree.copy()
        try:
            _rewrite(copy, doomed, order, include_pending, validated=True)
            return copy
        except ScplError as exc:
            return f"error:{exc.code}"

    first = next(orders)
    reference = outcome(first)
    if isinstance(reference, str) or any(
            comp_parts(name) != (name,) for name in tree.transitions):
        groups = [eligible]
    else:
        groups = _interacting_groups(tree, eligible)
    group_of = {n: i for i, group in enumerate(groups) if len(group) > 1
                for n in group}
    if not group_of:
        # No group can be ordered two ways: every order has one key.
        return agreed

    def key(order):
        # Each group's projection, the groups one after another.
        return tuple(sorted((n for n in order if n in group_of),
                            key=group_of.__getitem__))

    keys = prod(factorial(len(group)) for group in groups)
    ran = {key(first)}
    for order in orders:
        projection = key(order)
        if projection in ran:
            continue
        ran.add(projection)
        got = outcome(order)
        if _shape(got) != _shape(reference):
            return ConfluenceReport(False, total, len(base), (first, order),
                                    _diff(reference, got))
        if len(ran) == keys:
            # Every key has run: no later order can bring a new one.
            break
    return agreed


def _sampled_orders(base: tuple[str, ...], trials: int, seed: int):
    """``base``, then ``trials - 1`` shuffles of it drawn from one
    ``random.Random(seed)``, each drawn only when asked for."""
    yield base
    rng = random.Random(seed)
    for _ in range(trials - 1):
        shuffled = list(base)
        rng.shuffle(shuffled)
        yield tuple(shuffled)


def _interacting_groups(tree: WorkingTree,
                        eligible: Sequence[str]) -> list[list[str]]:
    """The layer-2 states partitioned (``model.partition``) by the
    transitions each deletion drops: two states join when both their
    deletions would drop one same transition, a name in both their
    ``touching`` sets (``WorkingTree.boundary``).  Each group lists its
    states in ``eligible`` order."""
    first: dict[str, str] = {}
    return partition(eligible, (
        (first.setdefault(t, name), name)
        for name in eligible for t in tree.boundary(name, ())[1]))


def _shape(outcome):
    """An error's text, or the maps of an edited tree.  Two trees rewritten
    from one validated input have equal maps exactly when their canonical
    machines are equal: no rule changes a surviving state's kind or
    parent, the rest of a composite's shape lives in the maps, and dict
    equality ignores insertion order."""
    return outcome if isinstance(outcome, str) else (
        outcome.states, outcome.parent, outcome.initial, outcome.transitions,
        outcome.owner)


# Differences that ``_diff`` spells out; the rest are counted.
_DIFF_LINES = 4


def _diff(a, b) -> tuple[str, str]:
    """Two outcomes side by side, one line per differing element field:
    "<kind> <name> <field>: <value>" with each outcome's own value, and
    "absent" for an element the outcome lacks.  An error outcome is its
    code, and a tree set against one is summarised by its size."""
    if isinstance(a, str) or isinstance(b, str):
        return _summary(a), _summary(b)
    left, right = _fields(a), _fields(b)
    rows: list[tuple[str, str, str]] = []
    for element in sorted(left.keys() | right.keys()):
        x, y = left.get(element), right.get(element)
        if x is None or y is None:
            rows.append((element, "absent" if x is None else "present",
                         "absent" if y is None else "present"))
        else:
            rows += [(f"{element} {f}", x[f], y[f]) for f in x if x[f] != y[f]]
    shown = rows[:_DIFF_LINES]
    more = ([f"... and {len(rows) - len(shown)} more"]
            if len(rows) > len(shown) else [])
    left_text, right_text = (
        "\n".join([f"{row[0]}: {row[k]}" for row in shown] + more)
        for k in (1, 2))
    return left_text, right_text


def _summary(outcome) -> str:
    if isinstance(outcome, str):
        return outcome
    return (f"machine with {len(outcome.states)} states and "
            f"{len(outcome.transitions)} transitions")


def _fields(idx: MachineIndex) -> dict[str, dict[str, str]]:
    """Every element of an indexed machine by "<kind> <name>", with its
    fields rendered as text: a state's kind, parent, initial marker and
    flag, a transition's owner and every attribute but its name."""
    out: dict[str, dict[str, str]] = {}
    for name, st in idx.states.items():
        out[f"state {name}"] = {
            "kind": type(st).__name__, "parent": repr(idx.parent[name]),
            "initial": repr(idx.initial.get(name)),
            "optional": repr(st.optional)}
    for name, t in idx.transitions.items():
        row = {"owner": repr(idx.owner[name])}
        for f in fields(Transition):
            if f.name != "name":
                value = getattr(t, f.name)
                row[f.name] = (value.value if isinstance(value, History)
                               else repr(value))
        out[f"transition {name}"] = row
    return out


# --- random product lines -------------------------------------------------

class GeneratedLine(NamedTuple):
    fm: FeatureModel
    conf: Configuration
    sc: StateChart
    imp: ImpMapping


def generate_random_product_line(seed: int, *, max_depth: int = 3,
                                 max_substates: int = 4,
                                 max_features: int = 8) -> GeneratedLine:
    """Quadruple of mutually valid artifacts, a fixed function of ``seed``
    and the parameters: one ``random.Random(seed)`` draws it through public
    calls, whose index pairs and feature draws are the draws ``sample`` and
    ``choices`` make (``_pair``).  The parity test against
    ``tests/oracles.reference_random_product_line`` and ``bench/pinned.json``
    hold every line fixed; an adversarial generator belongs in
    ``tests/generators.py`` and leaves this one as it is.

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


def _pair(rng: random.Random, k: int):
    """``sorted(rng.sample(range(k), 2))`` by the draws ``sample`` makes: up
    to 21 items, ``randrange(k)`` then ``randrange(k - 1)``, the second
    standing for the last item when it repeats the first."""
    if k > 21:
        return sorted(rng.sample(range(k), 2))
    i, j = rng.randrange(k), rng.randrange(k - 1)
    return (i, k - 1) if j == i else (i, j) if i < j else (j, i)


# Shared by every generated transition with no condition, or with the guard.
_TRUE, _BATTERY = Condition(), Condition((Guard("batteryOk"),))


def _random_or(draw: _Draw, name: str, depth: int,
               register: bool = False) -> OrState:
    rng, all_states, chance = draw.rng, draw.all_states, draw.rng.random
    if register:
        all_states.append(name)
    k = rng.randint(2, max(2, draw.max_substates))
    subs = [_random_state(draw, depth) for _ in range(k)]
    drawn = []
    # Forward edges over the substate order keep cycles away from
    # composites; simple-to-simple back edges reintroduce cycles where
    # composition is associative.
    for _ in range(rng.randint(k - 1, k + 2)):
        i, j = _pair(rng, k)
        src, tgt = subs[i], subs[j]
        if (chance() < 0.3 and isinstance(src, SimpleState)
                and isinstance(tgt, SimpleState)):
            src, tgt = tgt, src
        target_name = tgt.name
        if isinstance(tgt, OrState) and chance() < 0.35:
            target_name = rng.choice(tgt.substates).name
        cond = _TRUE
        if chance() < 0.15:
            cond = (Condition((InState(rng.choice(all_states)),))
                    if all_states and chance() < 0.5 else _BATTERY)
        drawn.append((f"t{next(draw.transition_numbers):02d}", src.name,
                      target_name, (rng.choice(_EVENTS),), cond,
                      ("beep",) if chance() < 0.3 else ()))
    # Optional flags, drawn after the transitions: never the initial
    # substate, never And-regions.  Each transition is built once.
    for i in range(1, k):
        if chance() < 0.35:
            draw.optionals.append(subs[i].name)
            subs[i] = flagged(subs[i], True)
    transitions = tuple([Transition(*args, History.NONE, chance() < 0.3)
                         for args in drawn])
    draw.optionals.extend(t.name for t in transitions if t.optional)
    return OrState(name, tuple(subs), subs[0].name, transitions)


def _random_imp(rng: random.Random, fm: FeatureModel,
                optionals: list[str]) -> ImpMapping:
    nonkernel = sorted(fm.funcs - kernel(fm))
    entries: dict[str, set[str]] = {}
    if nonkernel:
        for el in optionals:
            n = min(rng.choices((0, 1, 2), cum_weights=(25, 85, 100))[0],
                    len(nonkernel))
            # ``sample(nonkernel, n)`` draws nothing for none, and for one
            # what ``choice`` draws.
            for feature in (rng.sample(nonkernel, 2) if n == 2 else
                            (rng.choice(nonkernel),) if n else ()):
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
