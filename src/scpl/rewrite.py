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
``strategy.instantiate`` builds one working tree, or copies the one kept
on the machine, runs every rule on it and freezes it once.

Deleting a state of any kind pairs its entries and exits by one rule.
The state is read as a product of regions -- an And-state's regions, an
Or-state as its own single region, none for a simple state -- and an exit
pairs with an entry when some region tuple reachable from where the entry
lands holds the exit's source.  A state nested in a region that is an
Or-state has a coordinate, the region's direct substate holding it, which
a deletion finds by walking up from that state, for the names it reads
alone; a state inside any other region is reached with that region, so it
has no coordinate.  An exit asks only which coordinates its own region
reaches, so the deletion searches the regions one coupled component
(``model.partition``) at a time -- regions are coupled only through
in-state atoms naming each other's states, never through shared triggers.
A region alone in its component is a plain graph, and costs one closure
(``model.reached``) over its moves; only a component of two or more
regions is searched over its region tuples, up to ``TUPLE_BUDGET`` of
them.  ``strategy.instantiate`` meets no coupled component, as layer 1 has
pruned every in-state atom naming a state inside a doomed one, so it
searches no tuples; only ``delete_and_state`` and ``reachable_and`` on an
unpruned machine do.  ``reachable_and`` returns the full tuple set of one
joint search; ``reachable_or`` is the closure of its one region.
A deletion reads names only, never the order of the machine's
transitions: its compositions are owned, checked and added in name order.
It walks its subtree once, to find what it reads (``boundary``), and tears
the subtree down in one pass over it and the transitions touching it, so
it costs what it touches, not the machine.

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

from itertools import product
from typing import Callable, Collection, Sequence

from .errors import (EmptyCompositeError, IsInitialError, NoInitialError,
                     NotAndError, NotOptionalError, NotSimpleError,
                     NotSubstateError, OptionalComposeError, RewriteError,
                     TooLargeError)
from .model import (AndState, Condition, InState, MachineIndex, OrState,
                    SimpleState, StateChart, TraceStep, Transition,
                    partition, reached)


class PendingSet(set):
    """Elements still to be deleted; shrinks monotonically to empty."""


# --- transition composition ----------------------------------------------

def comp_name(first: str, second: str) -> str:
    """Composed-transition name, flattened so that both association orders
    of a chain produce the same string: ``comp(`` and the parts of both
    names (``comp_parts``) joined by commas.  Each composed name's inner
    text is sliced out whole, which joins the same string as splitting it
    into its parts and joining them again, at the cost of one copy."""
    return "comp(" + _inner(first) + "," + _inner(second) + ")"


def _inner(name: str) -> str:
    """The parts of ``name``, joined by commas."""
    return (name[5:-1] if name.startswith("comp(") and name.endswith(")")
            else name)


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
    return _composed(t1, t2)


def _composed(t1: Transition, t2: Transition) -> Transition:
    """The composition rule, unchecked: ``comp`` once its checks pass, and
    a state deletion, whose entries and exits are usable and meet at the
    deleted state by construction."""
    return Transition(comp_name(t1.name, t2.name), t1.source, t2.target,
                      t1.trigger + t2.trigger, t1.cond & t2.cond,
                      t1.actions + t2.actions, t2.history)


# --- reachability over region tuples --------------------------------------

# A move of one region: source coordinate, trigger, requirements and
# target coordinate.  A requirement (j, node) holds while region j's
# coordinate is ``node``.
Move = tuple[str, tuple[str, ...], tuple[tuple[int, str], ...], str]

# Most tuples one joint search of regions may reach; one more raises
# TooLargeError.  The largest legitimate search known, ``reachable_and``
# over six rings of six substates on three triggers, reaches 18,644.
TUPLE_BUDGET = 50_000


def _tuple_search(region_indices: Sequence[int], start: tuple[str, ...],
                  moves: list[list[Move]]) -> set[tuple[str, ...]]:
    """Tuples over the given regions reachable from ``start`` by maximal
    synchronous steps: per trigger, every region with an enabled move
    fires, the others stay put, and at least one region fires.  Every
    requirement of a move of the given regions must name one of them.
    This is the search of ``reachable_and`` and of a component of two or
    more coupled regions; a lone region is closed as a graph instead
    (``_successors``).  Raises TooLargeError on reaching more than
    TUPLE_BUDGET tuples."""
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
                    if len(seen) == TUPLE_BUDGET:
                        raise TooLargeError(
                            f"{len(position)} regions searched jointly reach "
                            f"more than the tuple budget of {TUPLE_BUDGET}")
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


def _successors(region_moves: list[Move]) -> dict[str, list[str]]:
    """A region alone in its component as a plain graph: each coordinate
    maps to the targets of the moves leaving it whose requirements all
    name it.  Alone, a region's moves can require only its own
    coordinate, which holds exactly when it is the move's source, and a
    trigger fires that region alone, so each enabled move is one step:
    ``model.reached`` over this map is the region's one-region tuple
    search, projected."""
    out: dict[str, list[str]] = {}
    for u, _, needs, v in region_moves:
        if not needs or all(node == u for _, node in needs):
            out.setdefault(u, []).append(v)
    return out


def _projections(components: list[list[int]], moves: list[list[Move]],
                 start: tuple[str, ...]) -> list[set[str]]:
    """Per region, the coordinates that tuples reachable from ``start``
    take there, one component at a time: a region alone in its component
    by the closure of its moves (``_successors``), two or more coupled
    regions by the search of their tuples (``_tuple_search``)."""
    reach: list[set[str]] = [set() for _ in start]
    for regions in components:
        if len(regions) == 1:
            j = regions[0]
            reach[j] = reached(start[j], _successors(moves[j]))
            continue
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
    which fills ``adjacent``.  A state deletion then costs its subtree and
    the transitions touching it (``boundary`` and one pass over each to
    tear them down) plus the pairing of its entries and exits, never a
    pass over the machine.
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
                      ) -> tuple[list[str], Callable, list[list[Move]]]:
        """A state's regions -- an And-state's children, an Or-state
        itself, none for a simple state -- with ``coordinate``, which maps
        a state strictly inside a region that is an Or-state to its
        region's index and coordinate (the region's direct substate holding
        it) and any other name to None, and, per region, its usable
        internal transitions as moves between coordinates.  A region that
        is not an Or-state is its own only coordinate and has no moves, so
        whatever lies inside it is reached with the region and has no
        coordinate.  A transition named in ``blocked`` is no move, nor is one
        with an end outside its owner (possible on an unvalidated machine).
        Inside an And-state an in-state atom naming a state with a
        coordinate requires that coordinate; any other atom always holds
        there or is about a foreign state.  An Or-state's moves carry no
        requirements: its reachability ignores conditions.

        ``coordinate`` walks ``parent`` up from the name it is asked about
        to the region, never down the subtree: a deletion asks only about
        move endpoints, entry targets, exit sources and in-state atoms."""
        st = self.states[elem]
        regions = (list(self.children[elem]) if isinstance(st, AndState)
                   else [elem] if isinstance(st, OrState) else [])
        index = {region: j for j, region in enumerate(regions)}
        parent, initial = self.parent, self.initial

        def coordinate(name: str) -> tuple[int, str] | None:
            prev, cur = name, parent.get(name)
            while cur is not None:
                j = index.get(cur)
                if j is not None:
                    return (j, prev) if cur in initial else None
                if cur == elem:
                    return None
                prev, cur = cur, parent.get(cur)
            return None

        coupled = isinstance(st, AndState)
        moves: list[list[Move]] = []
        for j, region in enumerate(regions):
            rt: list[Move] = []
            for t in map(self.transitions.__getitem__,
                         self.owned.get(region, ())):
                if t.name in blocked:
                    continue
                u, v = coordinate(t.source), coordinate(t.target)
                if u and v and u[0] == v[0] == j:
                    needs = ()
                    if coupled and t.cond.atoms:
                        needs = tuple(filter(None, (
                            coordinate(a.state) for a in t.cond.atoms
                            if isinstance(a, InState))))
                    rt.append((u[1], t.trigger, needs, v[1]))
            moves.append(rt)
        return regions, coordinate, moves

    # -- state deletion --

    def boundary(self, elem: str, blocked: Collection[str],
                 ) -> tuple[set[str], set[str], list, list]:
        """What deleting ``elem`` reads: ``doomed``, its subtree;
        ``touching``, the transitions with an end in it, plus, on an
        unvalidated machine, those owned inside it; and the usable
        ``entries`` into and ``exits`` out of it.  The pairing reads only
        the transitions the parent owns, so one touching the subtree but
        owned above the parent is dropped uncomposed, and an And-parent,
        owning none, gets no entries.  Optional transitions and those in
        ``blocked`` (the pending set, or ``()`` under ``include_pending``)
        are unusable; one with both ends in the subtree, self-loops
        included, is neither an entry nor an exit.

        This is the one walk of the subtree a deletion makes: ``doomed``
        comes from ``reached`` over ``children``, and the pairing resolves
        coordinates by walking up from the names it reads."""
        doomed = reached(elem, self.children)
        touching = {n for s in doomed for n in self.adjacent.get(s, ())}
        for s in doomed & self.owned.keys():
            touching.update(self.owned[s])
        entries: list[Transition] = []
        exits: list[Transition] = []
        for name in touching & self.owned.get(self.parent[elem], {}).keys():
            t = self.transitions[name]
            if t.optional or name in blocked:
                continue
            if t.target in doomed and t.source not in doomed:
                entries.append(t)
            elif t.source in doomed and t.target not in doomed:
                exits.append(t)
        return doomed, touching, entries, exits

    def delete_state(self, elem: str, pending: PendingSet, *,
                     include_pending: bool = False,
                     kind: type | None = None) -> TraceStep:
        """Deletes an optional state with its subtree and the transitions
        that ``boundary`` finds touching it, bridging its usable entry/exit
        pairs with their compositions (``_compositions``, the same rule for
        every kind).  ``kind``, when given, refuses a state of any other
        kind.  It reads names only: the compositions are owned, checked and
        added in name order."""
        st, parent = self._deletion_preamble(elem, pending)
        if kind is not None and not isinstance(st, kind):
            _, error, what = _DELETION[kind]
            raise error(f"{elem!r} is not {what}")
        blocked = () if include_pending else pending
        doomed, touching, entries, exits = self.boundary(elem, blocked)
        # Ends break ties between equal names (only a user transition named
        # comp(...) makes one), so no error follows set order.
        additions = sorted(self._compositions(elem, entries, exits, blocked),
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
        # One pass over each set.  A map entry keyed by a doomed state goes
        # with that state, so a dropped transition is unlisted only from an
        # owner and from ends that survive; and only a composite has
        # ``children``, ``initial`` and ``owned`` entries.
        transitions, owner, owned = self.transitions, self.owner, self.owned
        adjacent, children = self.adjacent, self.children
        for name in touching:
            t = transitions.pop(name)
            home = owner.pop(name)
            if home not in doomed:
                del owned[home][name]
            for end in (t.source, t.target):
                if end not in doomed:
                    adjacent[end].discard(name)
        for name in doomed:
            del self.states[name], self.parent[name]
            adjacent.pop(name, None)
            if name in children:
                del children[name]
                if name in self.initial:
                    del self.initial[name], owned[name]
        del children[parent][elem]
        self.reshaped[parent] = None
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
        target's coordinate (``coordinate``) substituted in its region.  An
        exit pairs when its source has no coordinate -- it is the state, a
        region, or inside a region that is not an Or-state -- or when its
        coordinate is in its region's projection of the reachable tuples
        (``_projections``).  A simple state has no regions, so all its
        entries and exits pair.  Each pair composes by ``_composed``: the
        entry and exit are usable and meet at the state by construction,
        so ``comp``'s checks could not fail."""
        if not (entries and exits):
            return []
        regions, coordinate, moves = self._region_moves(elem, blocked)
        components = _components(moves)
        default = [self.initial.get(r, r) for r in regions]
        leaving = [(coordinate(ts.source), ts) for ts in exits]
        out: list[Transition] = []
        for te in entries:
            start = list(default)
            lands = coordinate(te.target)
            if lands is not None:
                j, node = lands
                start[j] = node
            reach = _projections(components, moves, tuple(start))
            for at, ts in leaving:
                if at is None or at[1] in reach[at[0]]:
                    out.append(_composed(te, ts))
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
        hop along internal transitions, until it rests on a survivor.  A
        hop takes the least-named transition leaving the marked substate
        for a survivor, else for a doomed substate.  One pass over the
        parent's transitions in name order maps each substate to the
        substates they lead to from it (``_region_moves`` finds a
        coordinate by walking up), so a hop looks at its own substate's."""
        if not isinstance(self.states.get(parent), OrState):
            raise RewriteError(f"{parent!r} is not an Or-state")
        old = self.initial[parent]
        if old not in pending:
            raise RewriteError(f"initial {old!r} of {parent!r} is not pending")
        _, coordinate, _ = self._region_moves(parent, ())
        leads: dict[str, list] = {}
        for name in sorted(self.owned[parent]):
            t = self.transitions[name]
            src, tgt = coordinate(t.source), coordinate(t.target)
            if src and (tgt is None or tgt[1] != src[1]):
                leads.setdefault(src[1], []).append(tgt and tgt[1])
        cur, visited = old, {old}
        while cur in pending:
            if cur not in leads:
                raise NoInitialError(
                    f"no transition leads from {cur!r} to a surviving "
                    f"substate of {parent!r}")
            cur = next((s for s in leads[cur] if s not in pending),
                       leads[cur][0])
            if cur in visited:
                raise NoInitialError("cycle of doomed initial substates")
            visited.add(cur)
        self.initial[parent] = cur
        self.reshaped[parent] = None
        return TraceStep("repair_initial", parent,
                         detail=f"initial {old} -> {cur}")

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
        rebuilt once, with its flag cleared (``flagged``)."""
        for t in [t for t in self.transitions.values() if t.optional]:
            self.transitions[t.name] = flagged(t)
        for name, st in self.states.items():
            if st.optional:
                self.states[name] = flagged(st)
        return TraceStep("finalize_optionals", self.root)


def flagged(x, optional: bool = False):
    """``dataclasses.replace(x, optional=optional)`` of a transition or
    state, built by its constructor, which costs a fraction of ``replace``."""
    if isinstance(x, Transition):
        return Transition(x.name, x.source, x.target, x.trigger, x.cond,
                          x.actions, x.history, optional)
    if isinstance(x, OrState):
        return OrState(x.name, x.substates, x.initial, x.transitions,
                       optional)
    if isinstance(x, AndState):
        return AndState(x.name, x.regions, optional)
    return SimpleState(x.name, optional)


# --- the public rules -----------------------------------------------------

def entry_exit_pairs(elem: str, sc: StateChart, pending: PendingSet, *,
                     include_pending: bool = False) -> set[tuple[Transition, Transition]]:
    """The pairs ``delete_simple_state`` composes, read from the index; a
    repeated transition name counts once.  Optional and pending transitions
    are excluded; self-loops are neither entries nor exits."""
    tree = WorkingTree(sc)
    st = tree.states.get(elem)
    if st is None:
        raise RewriteError(f"no state named {elem!r}")
    if not isinstance(st, SimpleState):
        raise NotSimpleError(f"{elem!r} is not a simple state")
    if not isinstance(tree.states.get(tree.parent[elem] or ""), OrState):
        raise RewriteError(f"parent of {elem!r} owns no transitions")
    _, _, entries, exits = tree.boundary(
        elem, () if include_pending else pending)
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
    atoms naming a state of another region; a region alone in its
    component is closed over its moves as a graph, and the tuples of a
    component of two or more are searched from the start tuple's
    projection onto it, raising TooLargeError past TUPLE_BUDGET."""
    return _delete(AndState, elem, sc, pending, include_pending)


def reachable_or(elem: str, start: str, sc: StateChart, pending: PendingSet,
                 *, include_pending: bool = False) -> set[str]:
    """Reflexive-transitive closure over an Or-state's internal transitions,
    projected onto its direct substates: the closure of its one region
    (``_successors``), which a deletion also runs for each region alone in
    its component.  Conditions are ignored; pending transitions grant no
    reachability."""
    tree = WorkingTree(sc)
    if not isinstance(tree.states.get(elem), OrState):
        raise RewriteError(f"{elem!r} is not an Or-state")
    if start not in tree.children[elem]:
        raise NotSubstateError(
            f"{start!r} is not a direct substate of {elem!r}")
    _, _, moves = tree._region_moves(
        elem, () if include_pending else pending)
    return reached(start, _successors(moves[0]))


def reachable_and(elem: str, start: tuple[str, ...], sc: StateChart,
                  pending: PendingSet, *,
                  include_pending: bool = False) -> set[tuple[str, ...]]:
    """Reflexive-transitive closure over region tuples of an And-state.

    A step is labelled by one trigger sequence; every region whose current
    substate has an internal transition with that exact trigger and whose
    in-state atoms hold for the current tuple fires (maximal synchronous
    step), the others stay put, and at least one region must move.  Opaque
    guards and in-state atoms about foreign states are assumed satisfiable.
    Every region is searched as one component, coupled or not, so this
    is the one rule that searches the product of all regions; it raises
    TooLargeError once it reaches more than TUPLE_BUDGET tuples.
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
