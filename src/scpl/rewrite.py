"""The rebuilding rules: transition composition, entry/exit pair sets,
reachability inside sequential and parallel composites, state and
transition deletion, initial-state repair, condition pruning, and the
final optional-flag sweep.

Each rule is implemented once, as a local edit of a ``WorkingTree``: the
machine held as mutable maps (states, parents, children, transitions and
their owners, plus the transitions adjacent to each state).  Pruning and
the final sweep make one pass over the transitions; every other edit costs
work proportional to the elements it touches, not to the machine.  A rule
returns its delta -- removed states, removed and added transitions -- as a
``TraceStep``.  ``strategy.instantiate`` builds one working tree, runs every
rule on it and freezes it once.

The public rules below keep the pure machine-in, machine-out form: each
builds a working tree from its input, applies the shared rule and freezes
the result.  The working set of elements still slated for deletion travels
alongside as a PendingSet; a rule shrinks it by whatever the rule actually
removed.  Transitions that are themselves pending never grant reachability
and never take part in a composition (unless ``include_pending`` is set,
which reproduces the literal reading of the deletion rules and is only
useful to demonstrate how that reading loses confluence).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count, product
from typing import Iterable, Sequence

from .errors import (EmptyCompositeError, IsInitialError, NoInitialError,
                     NotAndError, NotOptionalError, NotSimpleError,
                     NotSubstateError, OptionalComposeError, RewriteError)
from .model import (AndState, Condition, InState, MachineIndex, OrState,
                    SimpleState, StateChart, TraceStep, Transition)


@dataclass
class PendingSet:
    """Elements still to be deleted; shrinks monotonically to empty."""

    remaining: set[str]

    def __contains__(self, name: str) -> bool:
        return name in self.remaining

    def __len__(self) -> int:
        return len(self.remaining)

    def __bool__(self) -> bool:
        return bool(self.remaining)

    def discard(self, *names: str) -> None:
        self.remaining.difference_update(names)


# --- transition composition ----------------------------------------------

def _comp_parts(name: str) -> tuple[str, ...]:
    if name.startswith("comp(") and name.endswith(")"):
        return tuple(name[5:-1].split(","))
    return (name,)


def comp_name(first: str, second: str) -> str:
    """Composed-transition name, flattened so that both association orders
    of a chain produce the same string."""
    return "comp(" + ",".join(_comp_parts(first) + _comp_parts(second)) + ")"


def comp(t1: Transition, t2: Transition) -> Transition:
    """Fuses an entry and an exit transition of a vanishing state into one
    transition concatenating triggers, conditions, and actions.  The
    history marker of the second transition wins, as does its target."""
    if t1.optional or t2.optional:
        raise OptionalComposeError(
            f"cannot compose optional transitions {t1.name!r}, {t2.name!r}")
    if t1.target != t2.source:
        raise RewriteError(
            f"{t1.name!r} ends at {t1.target!r} but {t2.name!r} starts at "
            f"{t2.source!r}")
    return Transition(
        name=comp_name(t1.name, t2.name),
        source=t1.source,
        target=t2.target,
        trigger=t1.trigger + t2.trigger,
        cond=t1.cond & t2.cond,
        actions=t1.actions + t2.actions,
        history=t2.history,
        optional=False,
    )


def _boundary_transitions(transitions: Iterable[Transition], doomed: set[str],
                          pending: PendingSet, include_pending: bool):
    """Usable entries into and exits out of the doomed states, in the given
    order.  Optional and (unless ``include_pending``) pending transitions
    are unusable; transitions with both ends doomed, self-loops included,
    are neither entries nor exits."""
    entries: list[Transition] = []
    exits: list[Transition] = []
    for t in transitions:
        if t.optional or (not include_pending and t.name in pending):
            continue
        if t.target in doomed and t.source not in doomed:
            entries.append(t)
        elif t.source in doomed and t.target not in doomed:
            exits.append(t)
    return entries, exits


# --- the working tree -----------------------------------------------------

# Rule names recorded for a state deletion, and the error raised when a
# public rule is asked to delete a state of another kind.
_DELETION = {
    SimpleState: ("delete_simple_state", NotSimpleError, "a simple state"),
    OrState: ("delete_or_state", RewriteError, "an Or-state"),
    AndState: ("delete_and_state", NotAndError, "an And-state"),
}


class WorkingTree:
    """A machine as mutable maps that the rules edit in place.

    ``states`` maps each name to its state object from the input, kept for
    the kind and the optional flag only; children, initial markers and
    owned transitions live in the tree's own maps.  ``owned`` keeps each
    Or-state's transitions in machine order, ``adjacent`` names the
    transitions with each state as an endpoint, and ``seq`` numbers the
    transitions in machine order so that a few can be put back in that
    order without a scan.
    """

    # The hierarchy queries of MachineIndex read only ``parent``.
    ancestors = MachineIndex.ancestors
    is_within = MachineIndex.is_within
    direct_child_within = MachineIndex.direct_child_within

    def __init__(self, sc: StateChart):
        idx = MachineIndex(sc)
        self.root = sc.root.name
        self.states = idx.states
        self.parent = idx.parent
        self.transitions = idx.transitions
        self.owner = idx.owner
        self.children: dict[str, dict[str, None]] = {}
        self.initial: dict[str, str] = {}
        self.owned: dict[str, dict[str, Transition]] = {}
        self.adjacent: dict[str, set[str]] = {}
        for name, st in self.states.items():
            if isinstance(st, OrState):
                self.children[name] = dict.fromkeys(s.name for s in st.substates)
                self.initial[name] = st.initial
                self.owned[name] = {}
            elif isinstance(st, AndState):
                self.children[name] = dict.fromkeys(r.name for r in st.regions)
        self._counter = count()
        self.seq: dict[str, int] = {}
        for name, t in self.transitions.items():
            self.owned[self.owner[name]][name] = t
            self._link(t)

    def freeze(self) -> StateChart:
        """The machine as immutable values, in the tree's current order."""
        return StateChart(self._frozen(self.root))

    def _frozen(self, name: str):
        # A method, not a nested function: a recursive closure would tie
        # the tree into a reference cycle that outlives the call.
        st = self.states[name]
        if isinstance(st, OrState):
            return OrState(name,
                           tuple(self._frozen(c) for c in self.children[name]),
                           self.initial[name],
                           tuple(self.owned[name].values()), st.optional)
        if isinstance(st, AndState):
            return AndState(name,
                            tuple(self._frozen(c) for c in self.children[name]),
                            st.optional)
        return st

    def descendants(self, name: str) -> set[str]:
        """Names of all states strictly inside ``name``."""
        out: set[str] = set()
        stack = [name]
        while stack:
            for child in self.children.get(stack.pop(), ()):
                out.add(child)
                stack.append(child)
        return out

    # -- edits --

    def _link(self, t: Transition) -> None:
        self.seq[t.name] = next(self._counter)
        self.adjacent.setdefault(t.source, set()).add(t.name)
        self.adjacent.setdefault(t.target, set()).add(t.name)

    def _add_transition(self, t: Transition, owner: str) -> None:
        self.transitions[t.name] = t
        self.owner[t.name] = owner
        self.owned[owner][t.name] = t
        self._link(t)

    def _drop_transition(self, name: str) -> None:
        t = self.transitions.pop(name)
        del self.owned[self.owner.pop(name)][name]
        del self.seq[name]
        for end in (t.source, t.target):
            self.adjacent.get(end, set()).discard(name)

    def _update_transition(self, t: Transition) -> None:
        """Replaces a transition by a same-named one with the same ends."""
        self.transitions[t.name] = t
        self.owned[self.owner[t.name]][t.name] = t

    # -- reachability --

    def reachable_or(self, elem: str, start: str, pending: PendingSet,
                     include_pending: bool = False) -> set[str]:
        """The module-level ``reachable_or``, on this tree."""
        st = self.states.get(elem)
        if not isinstance(st, OrState):
            raise RewriteError(f"{elem!r} is not an Or-state")
        if start not in self.children[elem]:
            raise NotSubstateError(
                f"{start!r} is not a direct substate of {elem!r}")
        edges: dict[str, set[str]] = {}
        for t in self.owned[elem].values():
            if not include_pending and t.name in pending:
                continue
            u = self.direct_child_within(elem, t.source)
            v = self.direct_child_within(elem, t.target)
            if u is not None and v is not None:
                edges.setdefault(u, set()).add(v)
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in edges.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    def reachable_and(self, elem: str, start: tuple[str, ...],
                      pending: PendingSet,
                      include_pending: bool = False) -> set[tuple[str, ...]]:
        """The module-level ``reachable_and``, on this tree."""
        st = self.states.get(elem)
        if not isinstance(st, AndState):
            raise NotAndError(f"{elem!r} is not an And-state")
        regions = list(self.children[elem])
        if len(start) != len(regions):
            raise NotSubstateError(
                f"start tuple has {len(start)} coordinates for "
                f"{len(regions)} regions")

        nodes: list[set[str]] = []
        moves: list[list[tuple[str, tuple[str, ...], Condition, str]]] = []
        for region in regions:
            if isinstance(self.states[region], OrState):
                nodes.append(set(self.children[region]))
                rt = []
                for t in self.owned[region].values():
                    if not include_pending and t.name in pending:
                        continue
                    u = self.direct_child_within(region, t.source)
                    v = self.direct_child_within(region, t.target)
                    if u is not None and v is not None:
                        rt.append((u, t.trigger, t.cond, v))
                moves.append(rt)
            else:
                nodes.append({region})
                moves.append([])
        for i, coord in enumerate(start):
            if coord not in nodes[i]:
                raise NotSubstateError(
                    f"{coord!r} is not a substate of region {regions[i]!r}")

        inside = {elem} | self.descendants(elem)
        is_within = self.is_within

        def atoms_ok(cond: Condition, cur: tuple[str, ...]) -> bool:
            for atom in cond.atoms:
                if not isinstance(atom, InState):
                    continue
                if atom.state not in inside:
                    continue  # foreign state: statically unknown
                if not any(is_within(c, atom.state) or
                           is_within(atom.state, c) for c in cur):
                    return False
            return True

        labels = {trig for rt in moves for _, trig, _, _ in rt}

        def successors(cur: tuple[str, ...]):
            for label in labels:
                per_region: list[list[str]] = []
                fired = False
                for i in range(len(regions)):
                    enabled = [v for u, trig, cond, v in moves[i]
                               if u == cur[i] and trig == label
                               and atoms_ok(cond, cur)]
                    if enabled:
                        fired = True
                        per_region.append(sorted(set(enabled)))
                    else:
                        per_region.append([cur[i]])
                if fired:
                    yield from product(*per_region)

        seen = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for nxt in successors(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    # -- state deletion --

    def delete_state(self, elem: str, pending: PendingSet, *,
                     include_pending: bool = False,
                     kind: type | None = None) -> TraceStep:
        """Deletes an optional state with its whole subtree and every
        transition touching it, bridging usable entry/exit pairs of the
        parent Or-state with their compositions.  ``kind``, when given,
        refuses a state of any other kind."""
        st, parent = self._deletion_preamble(elem, pending)
        if kind is not None and not isinstance(st, kind):
            _, error, what = _DELETION[kind]
            raise error(f"{elem!r} is not {what}")
        doomed = {elem} | self.descendants(elem)
        touching = {n for s in doomed for n in self.adjacent.get(s, ())}
        additions: list[Transition] = []
        if isinstance(self.states[parent], OrState):
            candidates = sorted(
                (self.transitions[n] for n in touching
                 if self.owner[n] == parent), key=lambda t: self.seq[t.name])
            entries, exits = _boundary_transitions(candidates, doomed, pending,
                                                   include_pending)
            additions = self._compositions(st, entries, exits, pending,
                                           include_pending)
        owners = [self._lca_or_owner(t.source, t.target) for t in additions]
        # A name may repeat only when a user transition is itself named
        # comp(...); the maps hold one transition per name, so refuse.
        added: set[str] = set()
        clash: set[str] = set()
        for t in additions:
            if t.name in added or (t.name in self.transitions
                                   and t.name not in touching):
                clash.add(t.name)
            added.add(t.name)
        if clash:
            raise RewriteError(
                f"composing across {elem!r} would duplicate transition "
                f"name(s) {sorted(clash)}")

        before = added & self.transitions.keys()
        for name in touching:
            self._drop_transition(name)
        del self.children[parent][elem]
        for name in doomed:
            del self.states[name], self.parent[name]
            self.adjacent.pop(name, None)
            self.children.pop(name, None)
            self.initial.pop(name, None)
            self.owned.pop(name, None)
        for t, owner in sorted(zip(additions, owners),
                               key=lambda pair: pair[0].name):
            self._add_transition(t, owner)
        pending.discard(*doomed, *touching)
        return TraceStep(
            _DELETION[type(st)][0], elem,
            removed_states=tuple(sorted(doomed)),
            removed_transitions=tuple(sorted(touching - added)),
            added_transitions=tuple(sorted(added - before)))

    def _deletion_preamble(self, elem: str, pending: PendingSet):
        st = self.states.get(elem)
        if st is None:
            raise RewriteError(f"no state named {elem!r}")
        if elem not in pending:
            raise RewriteError(f"{elem!r} is not pending deletion")
        if not st.optional:
            raise NotOptionalError(f"{elem!r} is not optional")
        parent = self.parent[elem]
        if parent is None:
            raise EmptyCompositeError("cannot delete the root state")
        siblings = len(self.children[parent])
        if isinstance(self.states[parent], OrState):
            if self.initial[parent] == elem:
                raise IsInitialError(
                    f"{elem!r} is still the initial substate of {parent!r}")
            if siblings == 1:
                raise EmptyCompositeError(
                    f"deleting would leave Or-state {parent!r} empty")
        elif siblings <= 2:
            raise EmptyCompositeError(
                f"deleting region {elem!r} would leave {parent!r} with "
                "fewer than 2 regions")
        return st, parent

    def _compositions(self, st, entries: list[Transition],
                      exits: list[Transition], pending: PendingSet,
                      include_pending: bool) -> list[Transition]:
        """Composes each entry with every exit reachable from where the
        entry lands.  Inside an Or-state, an entry landing on the composite
        starts at its initial substate and an exit leaving the composite as
        a unit pairs with every entry; inside an And-state, reachability
        runs over region tuples, starting from the tuple of region initials
        with the entry's target substituted in its region."""
        elem = st.name
        if isinstance(st, SimpleState):
            return [comp(te, ts) for te in entries for ts in exits]
        out: list[Transition] = []
        reach_from: dict = {}
        if isinstance(st, OrState):
            for te in entries:
                start = (self.initial[elem] if te.target == elem
                         else self.direct_child_within(elem, te.target))
                if start not in reach_from:
                    reach_from[start] = self.reachable_or(
                        elem, start, pending, include_pending)
                for ts in exits:
                    anchor = (None if ts.source == elem
                              else self.direct_child_within(elem, ts.source))
                    if anchor is None or anchor in reach_from[start]:
                        out.append(comp(replace(te, target=elem),
                                        replace(ts, source=elem)))
            return out
        regions = list(self.children[elem])
        default = tuple(self._region_node(r, r) for r in regions)
        for te in entries:
            start = self._substitute_coordinate(regions, default, te.target)
            if start not in reach_from:
                reach_from[start] = self.reachable_and(
                    elem, start, pending, include_pending)
            reach = reach_from[start]
            for ts in exits:
                if self._exit_reached(elem, regions, reach, ts.source):
                    out.append(comp(replace(te, target=elem),
                                    replace(ts, source=elem)))
        return out

    def _region_node(self, region: str, name: str) -> str:
        """Projects a state name inside (or equal to) a region onto that
        region's coordinate space: the region's initial substate for the
        region itself, else the direct substate holding the name."""
        if name == region:
            return self.initial.get(region, region)
        if region in self.initial:
            node = self.direct_child_within(region, name)
            if node is not None:
                return node
        return region

    def _substitute_coordinate(self, regions: list[str],
                               default: tuple[str, ...],
                               target: str) -> tuple[str, ...]:
        out = list(default)
        for i, region in enumerate(regions):
            if self.is_within(target, region):
                out[i] = self._region_node(region, target)
                break
        return tuple(out)

    def _exit_reached(self, elem: str, regions: list[str],
                      reach: set[tuple[str, ...]], source: str) -> bool:
        if source == elem:
            return bool(reach)
        for j, region in enumerate(regions):
            if self.is_within(source, region):
                if source == region:
                    return bool(reach)
                node = self._region_node(region, source)
                return any(tup[j] == node for tup in reach)
        return False

    def _lca_or_owner(self, source: str, target: str) -> str:
        """Owning Or-state for a transition between the two states, or an
        error when no Or-state may legally own it (e.g. it would cross
        And-regions)."""
        target_anc = set(self.ancestors(target))
        owner = next((a for a in self.ancestors(source) if a in target_anc),
                     None)
        if owner is None:
            raise RewriteError(
                f"no common ancestor for {source!r} and {target!r}")
        if not isinstance(self.states[owner], OrState):
            raise RewriteError(
                f"composition {source!r} -> {target!r} would cross regions "
                f"of {owner!r}")
        cs = self.direct_child_within(owner, source)
        ct = self.direct_child_within(owner, target)
        if cs == ct and source != cs and target != ct:
            raise RewriteError(
                f"composition {source!r} -> {target!r} has no legal owner")
        return owner

    # -- repairs, pruning, transition deletion, the sweep --

    def repair_initial(self, parent: str, pending: PendingSet) -> TraceStep:
        """Moves an Or-state's initial marker off a doomed substate, hop by
        hop along internal transitions, until it rests on a survivor."""
        if not isinstance(self.states.get(parent), OrState):
            raise RewriteError(f"{parent!r} is not an Or-state")
        old = self.initial[parent]
        if old not in pending:
            raise RewriteError(f"initial {old!r} of {parent!r} is not pending")
        by_name = sorted(self.owned[parent].values(), key=lambda t: t.name)
        cur, visited = old, {old}
        while cur in pending:
            cur = self._next_initial(parent, cur, by_name, pending)
            if cur in visited:
                raise NoInitialError("cycle of doomed initial substates")
            visited.add(cur)
        self.initial[parent] = cur
        return TraceStep("repair_initial", parent,
                         detail=f"initial {old} -> {cur}")

    def _next_initial(self, parent: str, cur: str, by_name: list[Transition],
                      pending: PendingSet) -> str:
        """One hop: the target substate of the least-named internal
        transition leaving ``cur`` for a survivor, else for a doomed
        substate."""
        doomed_successor = None
        for t in by_name:
            src = self.direct_child_within(parent, t.source)
            tgt = self.direct_child_within(parent, t.target)
            if src != cur or tgt == cur:
                continue
            if tgt not in pending:
                return tgt
            if doomed_successor is None:
                doomed_successor = tgt
        if doomed_successor is None:
            raise NoInitialError(
                f"no transition leads from {cur!r} to a surviving substate "
                f"of {parent!r}")
        return doomed_successor

    def prune_conditions(self, names: Sequence[str]) -> list[str]:
        """Strips every in-state atom naming one of the states or anything
        nested inside one, in one pass over the transitions.  Returns the
        names, in the given order, that pruning them one at a time in that
        order would have found an atom for: each atom is credited to the
        first name whose subtree holds its state."""
        rank = {}
        for i, name in enumerate(names):
            if name not in self.states:
                raise RewriteError(f"no state named {name!r}")
            rank.setdefault(name, i)
        credit: dict[str, int | None] = {}

        def first_rank(state: str) -> int | None:
            if state not in credit:
                hits = [rank[s] for s in (state, *self.ancestors(state))
                        if s in rank]
                credit[state] = min(hits) if hits else None
            return credit[state]

        credited: set[int] = set()
        for t in list(self.transitions.values()):
            kept = []
            for atom in t.cond.atoms:
                if isinstance(atom, InState):
                    i = first_rank(atom.state)
                    if i is not None:
                        credited.add(i)
                        continue
                kept.append(atom)
            if len(kept) != len(t.cond.atoms):
                self._update_transition(
                    replace(t, cond=Condition(tuple(kept))))
        return [names[i] for i in sorted(credited)]

    def delete_transition(self, elem: str, pending: PendingSet) -> TraceStep:
        """Removes a transition without any recomposition; clears the
        pending entry even when the transition already vanished."""
        pending.discard(elem)
        removed: tuple[str, ...] = ()
        if elem in self.transitions:
            self._drop_transition(elem)
            removed = (elem,)
        return TraceStep("delete_transition", elem,
                         removed_transitions=removed)

    def finalize_optionals(self) -> TraceStep:
        """Flips every remaining optional flag."""
        for t in list(self.transitions.values()):
            if t.optional:
                self._update_transition(replace(t, optional=False))
        for name, st in self.states.items():
            if st.optional:
                self.states[name] = replace(st, optional=False)
        return TraceStep("finalize_optionals", self.root)


# --- the public rules -----------------------------------------------------

def entry_exit_pairs(elem: str, sc: StateChart, pending: PendingSet, *,
                     include_pending: bool = False) -> set[tuple[Transition, Transition]]:
    """Cross product of the non-optional entries and exits of a simple
    state, taken from its parent's transition set.  Pending transitions are
    excluded; self-loops are neither entries nor exits."""
    idx = MachineIndex(sc)
    st = idx.states.get(elem)
    if st is None:
        raise RewriteError(f"no state named {elem!r}")
    if not isinstance(st, SimpleState):
        raise NotSimpleError(f"{elem!r} is not a simple state")
    parent = idx.states.get(idx.parent[elem] or "")
    if not isinstance(parent, OrState):
        raise RewriteError(f"parent of {elem!r} owns no transitions")
    entries, exits = _boundary_transitions(parent.transitions, {elem},
                                           pending, include_pending)
    return {(te, ts) for te in entries for ts in exits}


def _delete(kind: type, elem: str, sc: StateChart, pending: PendingSet,
            include_pending: bool) -> StateChart:
    tree = WorkingTree(sc)
    tree.delete_state(elem, pending, include_pending=include_pending,
                      kind=kind)
    return tree.freeze()


def delete_simple_state(elem: str, sc: StateChart, pending: PendingSet, *,
                        include_pending: bool = False) -> StateChart:
    """Removes an optional simple state, drops every transition adjacent to
    it, and bridges each usable entry/exit pair with their composition."""
    return _delete(SimpleState, elem, sc, pending, include_pending)


def delete_or_state(elem: str, sc: StateChart, pending: PendingSet, *,
                    include_pending: bool = False) -> StateChart:
    """Removes an optional Or-state with everything inside it.  An entry
    composes with an exit when the exit's source substate is reachable
    from the entry's target substate over the composite's internal
    transitions; entries landing on the composite itself enter at its
    initial substate, exits leaving the composite as a unit pair with
    every entry."""
    return _delete(OrState, elem, sc, pending, include_pending)


def delete_and_state(elem: str, sc: StateChart, pending: PendingSet, *,
                     include_pending: bool = False) -> StateChart:
    """Removes an optional And-state.  Pair composition uses reachability
    over region tuples: the start tuple is the default tuple of region
    initials with the entry's target substituted in its region, and an
    exit is reachable when some reachable tuple holds its source substate
    at that region's coordinate."""
    return _delete(AndState, elem, sc, pending, include_pending)


def reachable_or(elem: str, start: str, sc: StateChart, pending: PendingSet,
                 *, include_pending: bool = False) -> set[str]:
    """Reflexive-transitive closure over an Or-state's internal transitions,
    projected onto its direct substates.  Pending transitions grant no
    reachability."""
    return WorkingTree(sc).reachable_or(elem, start, pending, include_pending)


def reachable_and(elem: str, start: tuple[str, ...], sc: StateChart,
                  pending: PendingSet, *,
                  include_pending: bool = False) -> set[tuple[str, ...]]:
    """Reflexive-transitive closure over region tuples of an And-state.

    A step is labelled by one trigger sequence; every region whose current
    substate has an internal transition with that exact trigger and whose
    in-state atoms hold for the current tuple fires (maximal synchronous
    step), the others stay put, and at least one region must move.  Opaque
    guards and in-state atoms about foreign states are assumed satisfiable.
    """
    return WorkingTree(sc).reachable_and(elem, start, pending, include_pending)


def repair_initial(parent: str, sc: StateChart, pending: PendingSet) -> StateChart:
    """Reassigns an Or-state's initial marker when the current initial is
    slated for deletion.  Each hop follows the least-named internal
    transition from the current initial to a surviving direct substate, or
    failing that to a doomed one; the walk ends on the first survivor.
    Raises NoInitialError at a dead end or on a cycle of doomed
    substates."""
    tree = WorkingTree(sc)
    tree.repair_initial(parent, pending)
    return tree.freeze()


def prune_conditions(elem: str, sc: StateChart) -> StateChart:
    """Strips every in-state atom naming the given state or anything nested
    inside it from every condition in the machine.  Guards are untouched;
    a condition with no atoms left denotes true."""
    tree = WorkingTree(sc)
    tree.prune_conditions([elem])
    return tree.freeze()


def delete_transition(elem: str, sc: StateChart, pending: PendingSet) -> StateChart:
    """Removes a transition without any recomposition.  A no-op (that still
    clears the pending entry) when the transition already vanished as a
    side effect of a state deletion."""
    tree = WorkingTree(sc)
    tree.delete_transition(elem, pending)
    return tree.freeze()


def finalize_optionals(sc: StateChart) -> StateChart:
    """Flips every remaining optional flag; the structure is untouched."""
    tree = WorkingTree(sc)
    tree.finalize_optionals()
    return tree.freeze()
