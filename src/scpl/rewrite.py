"""The rebuilding rules: transition composition, entry/exit pair sets,
reachability inside sequential and parallel composites, state and
transition deletion, initial-state repair, condition pruning, and the
final optional-flag sweep.

Each rule is implemented once, as a local edit of a ``WorkingTree``: the
machine's ``model.MachineIndex``, whose maps (states, parents, children,
initial markers, transitions and their owners) the rules edit in place,
plus the transitions adjacent to each state.  Pruning and the final
sweep make one pass over the transitions (the sweep one over the states
too) and rebuild only the elements they change, each by its constructor;
every other edit costs work proportional to the elements it touches,
not to the machine.  A rule returns its delta -- removed states, removed
and added transitions -- as a ``TraceStep``.
``strategy.instantiate`` builds one working tree, runs every rule on it
and freezes it once.

Deleting a state of any kind pairs its entries and exits by one rule.
The state is read as a product of regions -- an And-state's regions, an
Or-state as its own single region, none for a simple state -- and an exit
pairs with an entry when some region tuple reachable from where the entry
lands holds the exit's source.  One map per deletion places every state
nested in a region that is an Or-state at its region and coordinate, the
region's direct substate holding it; a state inside any other region is
reached with that region, so it needs no place.  An exit asks only which
coordinates its own region reaches, so the deletion searches the regions
one coupled component (``model.partition``) at a time -- regions are
coupled only through in-state atoms naming each other's states, never
through shared triggers -- and costs the product of each component's
coordinates, not of all regions'.  ``strategy.instantiate`` meets no
coupled component, as layer 1 has pruned every in-state atom naming a
state inside a doomed one; only ``delete_and_state`` and ``reachable_and``
on an unpruned machine do.  ``reachable_and`` returns the full tuple set
of one joint search; ``reachable_or`` is the one-region search.
A deletion reads names only, never the order of the machine's
transitions: its compositions are owned, checked and added in name order.

The public rules below keep the pure machine-in, machine-out form: each
builds a working tree from its input, applies the shared rule and freezes
the result.  The elements still slated for deletion travel alongside as a
PendingSet, a plain ``set`` that a rule shrinks by whatever it removed.
Transitions that are themselves pending never grant reachability and never
take part in a composition (unless ``include_pending`` is set, which
reproduces the literal reading of the deletion rules: a pending move
inside the deleted state then grants reachability, which can add
compositions, alike in every order on validated input).  Each public rule
turns the pair into one set of ``blocked`` names for the helpers: the
pending set, or ``()`` under ``include_pending``.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Collection, Iterable, Sequence

from .errors import (EmptyCompositeError, IsInitialError, NoInitialError,
                     NotAndError, NotOptionalError, NotSimpleError,
                     NotSubstateError, OptionalComposeError, RewriteError)
from .model import (AndState, Condition, InState, MachineIndex, OrState,
                    SimpleState, StateChart, TraceStep, Transition,
                    comp_parts, partition, reached)


class PendingSet(set):
    """Elements still to be deleted; shrinks monotonically to empty."""


# --- transition composition ----------------------------------------------

def comp_name(first: str, second: str) -> str:
    """Composed-transition name, flattened so that both association orders
    of a chain produce the same string."""
    return "comp(" + ",".join(comp_parts(first) + comp_parts(second)) + ")"


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
                          blocked: Collection[str]):
    """Usable entries into and exits out of the doomed states.  Optional
    transitions and those named in ``blocked`` (the pending set, or ``()``
    under ``include_pending``) are unusable; transitions with both ends
    doomed, self-loops included, are neither entries nor exits."""
    entries: list[Transition] = []
    exits: list[Transition] = []
    for t in transitions:
        if t.optional or t.name in blocked:
            continue
        if t.target in doomed and t.source not in doomed:
            entries.append(t)
        elif t.source in doomed and t.target not in doomed:
            exits.append(t)
    return entries, exits


# --- reachability over region tuples --------------------------------------

# A move of one region: source coordinate, trigger, requirements and
# target coordinate.  A requirement (j, node) holds while region j's
# coordinate is ``node``.
Move = tuple[str, tuple[str, ...], tuple[tuple[int, str], ...], str]


def _tuple_search(region_indices: Sequence[int], start: tuple[str, ...],
                  moves: list[list[Move]]) -> set[tuple[str, ...]]:
    """Tuples over the given regions reachable from ``start`` by maximal
    synchronous steps: per trigger, every region with an enabled move
    fires, the others stay put, and at least one region fires.  Every
    requirement of a move of the given regions must name one of them."""
    position = {j: p for p, j in enumerate(region_indices)}
    out_of: list[dict[str, list]] = []
    for j in region_indices:
        table: dict[str, list] = {}
        for u, trigger, needs, v in moves[j]:
            table.setdefault(u, []).append(
                (trigger, tuple((position[i], node) for i, node in needs), v))
        out_of.append(table)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        enabled: dict[tuple[str, ...], dict[int, set[str]]] = {}
        for p, node in enumerate(cur):
            for trigger, needs, v in out_of[p].get(node, ()):
                if all(cur[q] == need for q, need in needs):
                    enabled.setdefault(trigger, {}).setdefault(p, set()).add(v)
        for fired in enabled.values():
            for nxt in product(*(fired.get(p) or (node,)
                                 for p, node in enumerate(cur))):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def _components(moves: list[list[Move]]) -> list[list[int]]:
    """Regions partitioned (``model.partition``): a region joins every
    region its moves require a coordinate of.  Whether a move is enabled
    depends on its own region's coordinate and its requirements alone, and
    a trigger fires every region that has an enabled move for it, whatever
    the other regions do; so shared triggers couple nothing, and each
    component's reachable tuples are the projections of the whole
    And-state's."""
    return partition(range(len(moves)),
                     ((i, j) for i, rt in enumerate(moves)
                      for _, _, needs, _ in rt for j, _ in needs))


def _projections(components: list[list[int]], moves: list[list[Move]],
                 start: tuple[str, ...]) -> list[set[str]]:
    """Per region, the coordinates that tuples reachable from ``start``
    take there, searching one component at a time."""
    reach: list[set[str]] = [set() for _ in start]
    for regions in components:
        found = _tuple_search(regions, tuple(start[j] for j in regions), moves)
        for p, j in enumerate(regions):
            reach[j] = {tup[p] for tup in found}
    return reach


# --- the working tree -----------------------------------------------------

def _copied_values(mapping: dict) -> dict:
    """A copy of a map of dicts or sets with each value copied too."""
    return {key: value.copy() for key, value in mapping.items()}


# Rule names recorded for a state deletion, and the error raised when a
# public rule is asked to delete a state of another kind.
_DELETION = {
    SimpleState: ("delete_simple_state", NotSimpleError, "a simple state"),
    OrState: ("delete_or_state", RewriteError, "an Or-state"),
    AndState: ("delete_and_state", NotAndError, "an And-state"),
}


class WorkingTree(MachineIndex):
    """A machine index that the rules edit in place.

    ``states`` keeps each name's state object from the input for its kind
    and optional flag only: the shape of the machine lives in the index
    maps (``children``, ``initial``, ``owned``).  ``adjacent`` names the
    transitions with each state as an endpoint.  ``reshaped`` records the
    composites that lost a child or had their initial marker moved, and
    ``added`` the transitions the edits added, in edit order:
    ``model.touched_violations`` checks the edited machine over these
    alone.  No edit reads the order of the transitions: a deletion finds
    its transitions by name in ``adjacent`` and ``owned``.

    Building one costs the index walk plus one pass over the transitions,
    which fills ``adjacent``.
    """

    def __init__(self, sc: StateChart):
        super().__init__(sc)
        adjacent: dict[str, set[str]] = {}
        for name, t in self.transitions.items():
            for end in (t.source, t.target):
                if end in adjacent:
                    adjacent[end].add(name)
                else:
                    adjacent[end] = {name}
        self.adjacent = adjacent
        self.reshaped: dict[str, None] = {}
        self.added: dict[str, None] = {}

    def copy(self) -> "WorkingTree":
        """A tree with the same maps that edits apart from this one: every
        map and every inner dict or set is copied; the state and
        transition objects are immutable and shared."""
        new = WorkingTree.__new__(WorkingTree)
        new.root = self.root
        new.states = self.states.copy()
        new.parent = self.parent.copy()
        new.children = _copied_values(self.children)
        new.initial = self.initial.copy()
        new.transitions = self.transitions.copy()
        new.owner = self.owner.copy()
        new.owned = _copied_values(self.owned)
        new.duplicate_states = self.duplicate_states.copy()
        new.duplicate_transitions = self.duplicate_transitions.copy()
        new.adjacent = _copied_values(self.adjacent)
        new.reshaped = self.reshaped.copy()
        new.added = self.added.copy()
        return new

    # -- edits --

    def _add_transition(self, t: Transition, owner: str) -> None:
        self.transitions[t.name] = t
        self.owner[t.name] = owner
        self.owned[owner][t.name] = None
        self.added[t.name] = None
        self.adjacent.setdefault(t.source, set()).add(t.name)
        self.adjacent.setdefault(t.target, set()).add(t.name)

    def _drop_transition(self, name: str) -> None:
        t = self.transitions.pop(name)
        del self.owned[self.owner.pop(name)][name]
        for end in (t.source, t.target):
            self.adjacent.get(end, set()).discard(name)

    # -- region projection --

    def _region_moves(self, elem: str, blocked: Collection[str],
                      ) -> tuple[list[str], dict, list[list[Move]]]:
        """A state's regions -- an And-state's children, an Or-state
        itself, none for a simple state -- with ``where``, the one map from
        every state strictly inside a region that is an Or-state to its
        region's index and coordinate (the region's direct substate holding
        it), and, per region, its usable internal transitions as moves
        between coordinates.  A region that is not an Or-state is its own
        only coordinate and has no moves, so whatever lies inside it is
        reached with the region and needs no entry.  A transition named in
        ``blocked`` is no move, nor is one with an end outside its owner
        (possible on an unvalidated machine).  Inside an And-state an
        in-state atom naming a state in ``where`` requires that coordinate;
        any other atom always holds there or is about a foreign state.  An
        Or-state's moves carry no requirements: its reachability ignores
        conditions."""
        st = self.states[elem]
        regions = (list(self.children[elem]) if isinstance(st, AndState)
                   else [elem] if isinstance(st, OrState) else [])
        where: dict[str, tuple[int, str]] = {}
        for j, region in enumerate(regions):
            if region in self.initial:
                for node in self.children[region]:
                    where.update(dict.fromkeys(
                        reached(node, self.children), (j, node)))
        coupling = where if isinstance(st, AndState) else {}
        moves: list[list[Move]] = []
        for j, region in enumerate(regions):
            rt: list[Move] = []
            for t in map(self.transitions.__getitem__,
                         self.owned.get(region, ())):
                u, v = where.get(t.source), where.get(t.target)
                if u and v and u[0] == v[0] == j and t.name not in blocked:
                    needs = tuple(coupling[a.state] for a in t.cond.atoms
                                  if isinstance(a, InState)
                                  and a.state in coupling)
                    rt.append((u[1], t.trigger, needs, v[1]))
            moves.append(rt)
        return regions, where, moves

    # -- state deletion --

    def delete_state(self, elem: str, pending: PendingSet, *,
                     include_pending: bool = False,
                     kind: type | None = None) -> TraceStep:
        """Deletes an optional state with its whole subtree and every
        transition touching it or owned inside it, bridging usable
        entry/exit pairs of the parent Or-state with their compositions
        (``_compositions``, the same rule for every kind).  ``kind``, when
        given, refuses a state of any other kind.  It reads names only:
        the compositions are owned, checked and added in name order."""
        st, parent = self._deletion_preamble(elem, pending)
        if kind is not None and not isinstance(st, kind):
            _, error, what = _DELETION[kind]
            raise error(f"{elem!r} is not {what}")
        doomed = reached(elem, self.children)
        touching = {n for s in doomed for n in self.adjacent.get(s, ())}
        # On an unvalidated machine a transition owned inside the subtree
        # may have both ends outside it; it goes with its owner.
        for s in doomed & self.owned.keys():
            touching.update(self.owned[s])
        additions: list[Transition] = []
        if isinstance(self.states[parent], OrState):
            blocked = () if include_pending else pending
            entries, exits = _boundary_transitions(
                (self.transitions[n] for n in touching
                 if self.owner[n] == parent), doomed, blocked)
            # Ends break ties between equal names (only a user transition
            # named comp(...) makes one), so no error follows set order.
            additions = sorted(
                self._compositions(elem, entries, exits, blocked),
                key=lambda t: (t.name, t.source, t.target))
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
        self.reshaped[parent] = None
        for name in doomed:
            del self.states[name], self.parent[name]
            self.adjacent.pop(name, None)
            self.children.pop(name, None)
            self.initial.pop(name, None)
            self.owned.pop(name, None)
        for t, owner in zip(additions, owners):
            self._add_transition(t, owner)
        pending.difference_update(doomed, touching)
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

    def _compositions(self, elem: str, entries: list[Transition],
                      exits: list[Transition],
                      blocked: Collection[str]) -> list[Transition]:
        """Composes each entry with every exit reachable from where the
        entry lands, over the state's regions (``_region_moves``): the
        search starts from the tuple of region initials with the entry
        target's coordinate (from ``where``) substituted in its region.  An
        exit pairs when its source has no coordinate -- it is the state, a
        region, or inside a region that is not an Or-state -- or when its
        coordinate is in its region's projection of the reachable tuples,
        so each component of coupled regions is searched on its own.  A
        simple state has no regions, so all its entries and exits pair."""
        if not (entries and exits):
            return []
        regions, where, moves = self._region_moves(elem, blocked)
        components = _components(moves)
        default = [self.initial.get(r, r) for r in regions]
        leaving = [replace(ts, source=elem) for ts in exits]
        out: list[Transition] = []
        for te in entries:
            start = list(default)
            if te.target in where:
                j, node = where[te.target]
                start[j] = node
            reach = _projections(components, moves, tuple(start))
            entering = replace(te, target=elem)
            for ts, leave in zip(exits, leaving):
                at = where.get(ts.source)
                if at is None or at[1] in reach[at[0]]:
                    out.append(comp(entering, leave))
        return out

    def _lca_or_owner(self, source: str, target: str) -> str:
        """Owning Or-state for a transition between the two states: their
        nearest common proper ancestor, or an error when there is none or
        it is an And-state, whose regions the transition would cross.  The
        endpoints never both lie strictly inside one child of the owner:
        that child would be a nearer common ancestor."""
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
        by_name = [self.transitions[n] for n in sorted(self.owned[parent])]
        cur, visited = old, {old}
        while cur in pending:
            cur = self._next_initial(parent, cur, by_name, pending)
            if cur in visited:
                raise NoInitialError("cycle of doomed initial substates")
            visited.add(cur)
        self.initial[parent] = cur
        self.reshaped[parent] = None
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
        nested inside one, in one pass over the transitions that carry
        atoms; a transition that loses one is rebuilt once.  Returns the
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
        for t in [t for t in self.transitions.values() if t.cond.atoms]:
            kept = []
            for atom in t.cond.atoms:
                if isinstance(atom, InState):
                    i = first_rank(atom.state)
                    if i is not None:
                        credited.add(i)
                        continue
                kept.append(atom)
            if len(kept) != len(t.cond.atoms):
                self.transitions[t.name] = Transition(
                    t.name, t.source, t.target, t.trigger,
                    Condition(tuple(kept)), t.actions, t.history, t.optional)
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
        """Flips every remaining optional flag, in one pass over the
        transitions and one over the states; each flagged element is
        rebuilt once, with its flag cleared (``_cleared``)."""
        for t in [t for t in self.transitions.values() if t.optional]:
            self.transitions[t.name] = _cleared(t)
        for name, st in self.states.items():
            if st.optional:
                self.states[name] = _cleared(st)
        return TraceStep("finalize_optionals", self.root)


def _cleared(x):
    """``dataclasses.replace(x, optional=False)`` of a transition or state,
    built by its constructor, which costs a fraction of ``replace``."""
    if isinstance(x, Transition):
        return Transition(x.name, x.source, x.target, x.trigger, x.cond,
                          x.actions, x.history)
    if isinstance(x, OrState):
        return OrState(x.name, x.substates, x.initial, x.transitions)
    if isinstance(x, AndState):
        return AndState(x.name, x.regions)
    return SimpleState(x.name)


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
    entries, exits = _boundary_transitions(
        parent.transitions, {elem}, () if include_pending else pending)
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
    it, and bridges each usable entry/exit pair with their composition: a
    simple state has no regions to search, so every pair is bridged."""
    return _delete(SimpleState, elem, sc, pending, include_pending)


def delete_or_state(elem: str, sc: StateChart, pending: PendingSet, *,
                    include_pending: bool = False) -> StateChart:
    """Removes an optional Or-state with everything inside it, pairing as
    ``delete_and_state`` does with the Or-state as its own single region:
    an entry composes with an exit when the exit's source substate is
    reachable from the entry's target substate over the composite's
    internal transitions, whose in-state atoms are ignored; entries
    landing on the composite itself enter at its initial substate, exits
    leaving the composite as a unit pair with every entry."""
    return _delete(OrState, elem, sc, pending, include_pending)


def delete_and_state(elem: str, sc: StateChart, pending: PendingSet, *,
                     include_pending: bool = False) -> StateChart:
    """Removes an optional And-state.  Pair composition uses reachability
    over region tuples: the start tuple is the default tuple of region
    initials with the entry's target substituted in its region, and an
    exit is reachable when some reachable tuple holds its source substate
    at that region's coordinate.  Only that per-region projection is
    computed: regions are partitioned into components joined by in-state
    atoms naming a state of another region, and each component's tuples
    are searched from the start tuple's projection onto it."""
    return _delete(AndState, elem, sc, pending, include_pending)


def reachable_or(elem: str, start: str, sc: StateChart, pending: PendingSet,
                 *, include_pending: bool = False) -> set[str]:
    """Reflexive-transitive closure over an Or-state's internal transitions,
    projected onto its direct substates: the region-tuple search of
    ``reachable_and`` with the Or-state as its one region.  Conditions are
    ignored; pending transitions grant no reachability."""
    tree = WorkingTree(sc)
    if not isinstance(tree.states.get(elem), OrState):
        raise RewriteError(f"{elem!r} is not an Or-state")
    if start not in tree.children[elem]:
        raise NotSubstateError(
            f"{start!r} is not a direct substate of {elem!r}")
    _, _, moves = tree._region_moves(
        elem, () if include_pending else pending)
    return {node for node, in _tuple_search([0], (start,), moves)}


def reachable_and(elem: str, start: tuple[str, ...], sc: StateChart,
                  pending: PendingSet, *,
                  include_pending: bool = False) -> set[tuple[str, ...]]:
    """Reflexive-transitive closure over region tuples of an And-state.

    A step is labelled by one trigger sequence; every region whose current
    substate has an internal transition with that exact trigger and whose
    in-state atoms hold for the current tuple fires (maximal synchronous
    step), the others stay put, and at least one region must move.  Opaque
    guards and in-state atoms about foreign states are assumed satisfiable.
    Every region is searched as one component.
    """
    tree = WorkingTree(sc)
    if not isinstance(tree.states.get(elem), AndState):
        raise NotAndError(f"{elem!r} is not an And-state")
    regions, _, moves = tree._region_moves(
        elem, () if include_pending else pending)
    if len(start) != len(regions):
        raise NotSubstateError(
            f"start tuple has {len(start)} coordinates for "
            f"{len(regions)} regions")
    for region, coord in zip(regions, start):
        if coord not in (tree.children[region]
                         if isinstance(tree.states[region], OrState)
                         else (region,)):
            raise NotSubstateError(
                f"{coord!r} is not a substate of region {region!r}")
    return _tuple_search(range(len(regions)), start, moves)


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
