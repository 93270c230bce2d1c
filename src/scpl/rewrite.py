"""The rebuilding rules: transition composition, entry/exit pair sets,
reachability inside sequential and parallel composites, state and
transition deletion, initial-state repair, condition pruning, and the
final optional-flag sweep.

Each rule is implemented once, as a local edit of a ``WorkingTree``: the
machine's ``model.MachineIndex``, whose maps (states, parents, children,
initial markers, transitions and their owners) the rules edit in place,
plus the transitions adjacent to each state.  What no configuration can
change is read from the tree's ``InputFacts``, which every copy of the
tree shares: the subtree of each state, the transitions whose in-state
atoms name each state, the optional elements and their flag-cleared
copies, and the flag-cleared frozen subtree of each composite.  So
pruning reads only the transitions whose atoms name a pruned subtree,
the sweep only the input's optional elements, and ``freeze`` rebuilds
only the composites the edits changed; every edit costs work
proportional to the elements it touches, not to the machine.  A rule
returns its delta -- removed states, removed and added transitions -- as
a ``TraceStep``.
``strategy.instantiate`` copies the one working tree kept on the machine,
built by its first call, runs every rule on the copy and freezes it
once.  A copy shares the inner dicts and sets of its source's maps and
copies one only when it first writes it, so copying and rewriting cost
what the rules touch.

Deleting a state of any kind pairs its entries and exits by one rule.
The state is read as a product of regions -- an And-state's regions, an
Or-state as its own single region, none for a simple state -- and an exit
pairs with an entry when some region tuple reachable from where the entry
lands holds the exit's source.  A state nested in a region that is an
Or-state has a coordinate, the region's direct substate holding it, which
a deletion finds by walking up from that state, for the names it reads
alone; a state inside any other region is reached with that region, so it
has no coordinate.  An exit asks only which coordinates its own region
reaches, and one without a coordinate pairs with every entry, so the
deletion resolves its exits' coordinates first and searches, for each
region some exit leaves from, that region with the regions it waits on,
transitively.  A region waits on another when an in-state atom of one of
its moves names a state of the other; a shared trigger makes no region
wait, since a trigger fires every region that has an enabled move for
it, whatever the others do.  So the tuples such a closed group reaches
are the projections of the whole And-state's, and the deletion builds
the moves of those regions alone (``WorkingTree._moves``), none when no
exit leaves from inside an Or-region.  Nothing of this is kept between
deletions.  A region that waits on none is a plain graph, and costs one
closure (``model.reached``) over its moves; only a group of two or more
regions is searched over its region tuples, up to ``TUPLE_BUDGET`` of
them.  ``strategy.instantiate`` meets no waiting region, as layer 1 has
pruned every in-state atom naming a state inside a doomed one, so it
searches no tuples; only ``delete_and_state`` and ``reachable_and`` on an
unpruned machine do.  ``reachable_and`` returns the full tuple set of
one joint search; ``reachable_or`` is the closure of its one region.
A deletion reads names only, never the order of the machine's
transitions: its compositions are owned, checked and added in name order.
It walks its subtree at most once per machine object (``boundary``, kept
in ``InputFacts``), and tears the subtree down in one pass over it and
the transitions touching it, so it costs what it touches, not the
machine.

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
from typing import Callable, Collection, Iterable, Sequence

from .errors import (EmptyCompositeError, IsInitialError, NoInitialError,
                     NotAndError, NotOptionalError, NotSimpleError,
                     NotSubstateError, OptionalComposeError, RewriteError,
                     TooLargeError)
from .model import (AndState, Condition, InState, MachineIndex, OrState,
                    SimpleState, State, StateChart, TraceStep, Transition,
                    reached)


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


def _tuple_search(region_indices: Iterable[int], start: tuple[str, ...],
                  moves: dict[int, list[Move]]) -> set[tuple[str, ...]]:
    """Tuples reachable from ``start``, a coordinate per region of the
    state, by maximal synchronous steps of the given regions: per
    trigger, every given region with an enabled move fires, the others
    stay put, and at least one region fires; the other regions keep their
    ``start`` coordinates.  Every requirement of a move of the given
    regions must name one of them: they are closed under waiting.  This is
    the search of ``reachable_and`` and of a region that waits on another;
    a region that waits on none is closed as a graph instead
    (``_successors``).  Raises TooLargeError on reaching more than
    TUPLE_BUDGET tuples."""
    out_of: dict[int, dict[str, list]] = {}
    for j in region_indices:
        table = out_of[j] = {}
        for u, trigger, needs, v in moves[j]:
            table.setdefault(u, []).append((trigger, needs, v))
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        enabled: dict[tuple[str, ...], dict[int, set[str]]] = {}
        for j, table in out_of.items():
            for trigger, needs, v in table.get(cur[j], ()):
                if all(cur[i] == need for i, need in needs):
                    enabled.setdefault(trigger, {}).setdefault(j, set()).add(v)
        for fired in enabled.values():
            for nxt in product(*(fired.get(j) or (node,)
                                 for j, node in enumerate(cur))):
                if nxt not in seen:
                    if len(seen) == TUPLE_BUDGET:
                        raise TooLargeError(
                            f"{len(out_of)} regions searched jointly reach "
                            f"more than the tuple budget of {TUPLE_BUDGET}")
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def _successors(region_moves: list[Move]) -> dict[str, list[str]]:
    """A region that waits on no other as a plain graph: each coordinate
    maps to the targets of the moves leaving it whose requirements all
    name it.  Such a region's moves can require only its own coordinate,
    which holds exactly when it is the move's source, and a trigger fires
    each region that has an enabled move whatever the others do, so each
    enabled move is one step: ``model.reached`` over this map is the
    region's one-region tuple search, projected."""
    out: dict[str, list[str]] = {}
    for u, _, needs, v in region_moves:
        if not needs or all(node == u for _, node in needs):
            out.setdefault(u, []).append(v)
    return out


def _projections(groups: Iterable[Sequence[int]],
                 moves: dict[int, list[Move]],
                 start: tuple[str, ...]) -> list[set[str]]:
    """Per region, the coordinates that tuples reachable from ``start``
    take there, for the regions of the given groups, each closed under
    waiting, one group at a time: a lone region by the closure of its
    moves (``_successors``), two or more regions by the search of their
    tuples (``_tuple_search``).  Every other region's set is empty."""
    reach: list[set[str]] = [set() for _ in start]
    for group in groups:
        if len(group) == 1:
            j = group[0]
            reach[j] = reached(start[j], _successors(moves[j]))
            continue
        found = _tuple_search(group, start, moves)
        for j in group:
            reach[j] = {tup[j] for tup in found}
    return reach


# --- the working tree -----------------------------------------------------

# Rule names recorded for a state deletion, and the error raised when a
# public rule is asked to delete a state of another kind.
_DELETION = {
    SimpleState: ("delete_simple_state", NotSimpleError, "a simple state"),
    OrState: ("delete_or_state", RewriteError, "an Or-state"),
    AndState: ("delete_and_state", NotAndError, "an And-state"),
}


class InputFacts:
    """Facts about the machine a working tree was built from, which hold
    under every configuration: shared by every copy of the tree
    (``WorkingTree.copy``), so by every call that ``strategy._prepared``
    serves from the one tree it keeps on a machine object.

    ``optional_states`` and ``optional_transitions`` list the input's
    optional elements, and ``atom_users`` maps each state that an in-state
    atom names to the names of the transitions carrying such an atom; the
    tree's constructor gathers all three in its one pass over the
    transitions and one over the states.  The other four maps are
    filled lazily, each entry by one assignment and never changed
    after it, so two threads filling one holder at once can at worst build
    one entry twice:

    - ``subtrees``: a state's subtree, as a frozenset and as the sorted
      tuple a trace records (``subtree``).  A state's subtree at its
      deletion is its input subtree: no rule moves a state, a deletion
      removes a whole subtree, and no two states that ``instantiate``
      deletes nest (``strategy._eligible`` keeps the outermost), while a
      public rule deletes one state of a tree it built.  So this holds for
      ``boundary`` under every configuration.
    - ``cleared_states`` and ``cleared_transitions``: the flag-cleared copy
      of an optional input element, by name, made when the sweep first
      keeps it (``WorkingTree.finalize_optionals``).
    - ``frozen``: the frozen subtree of a composite with every flag
      cleared, filled and read only by a swept tree, for a composite that
      no edit changed (``WorkingTree._composite``).  Such a composite's
      subtree is its input subtree with the sweep's flags cleared.

    It holds no reference to a tree or to the machine object, so no
    reference cycle."""

    __slots__ = ("optional_states", "optional_transitions", "atom_users",
                 "subtrees", "cleared_states", "cleared_transitions",
                 "frozen")

    def __init__(self, optional_states: list[State],
                 optional_transitions: list[Transition],
                 atom_users: dict[str, dict[str, None]]):
        self.optional_states = optional_states
        self.optional_transitions = optional_transitions
        self.atom_users = atom_users
        self.subtrees: dict[str, tuple[frozenset[str], tuple[str, ...]]] = {}
        self.cleared_states: dict[str, State] = {}
        self.cleared_transitions: dict[str, Transition] = {}
        self.frozen: dict[str, State] = {}

    def subtree(self, name: str, children: dict[str, dict[str, None]],
                ) -> tuple[frozenset[str], tuple[str, ...]]:
        """``name`` and every state nested in it, walked over ``children``
        (``model.reached``) the first time it is asked for, with the names
        sorted."""
        got = self.subtrees.get(name)
        if got is None:
            found = reached(name, children)
            got = self.subtrees[name] = (frozenset(found),
                                         tuple(sorted(found)))
        return got


class WorkingTree(MachineIndex):
    """A machine index that the rules edit in place.

    ``states`` keeps each name's state object from the input for its kind
    and optional flag only: the shape of the machine lives in the index
    maps (``children``, ``initial``, ``owned``).  ``adjacent`` names the
    transitions with each state as an endpoint.  No edit reads the order
    of the transitions: a deletion finds its transitions by name in
    ``adjacent`` and ``owned``.

    ``facts`` is the holder of what every configuration shares
    (``InputFacts``).  ``dirty`` records each composite whose children,
    initial marker or owned transitions an edit changed: every write site
    (``_add_transition``, ``_drop_transition``, a deletion's teardown,
    ``repair_initial`` and pruning) adds the composite it writes.
    ``added`` records the transitions the edits added, in edit order:
    ``model.touched_violations`` checks the edited machine over these and
    ``dirty`` alone.  Once ``finalize_optionals`` has run (``swept``),
    ``freeze`` closes ``dirty`` upwards through the ancestors, rebuilds
    those composites and takes every other one from ``facts.frozen``.

    Building one costs the index walk plus one pass over the
    transitions, which fills ``adjacent``, and one more over the states:
    together they fill the holder's lists.  A state deletion then costs
    its subtree and the transitions touching it (``boundary`` and one
    pass over each to tear them down) plus the pairing of its entries and
    exits, never a pass over the machine.

    The inner dicts and sets of ``children``, ``owned`` and ``adjacent``
    may be shared with other trees (``copy``).  ``mine`` holds a
    ``(map name, key)`` pair for each one this tree owns, and starts
    empty: every write goes through ``_writable``, which copies a
    container the tree does not own yet.  ``copy`` leaves both trees
    owning none.
    """

    def __init__(self, sc: StateChart):
        super().__init__(sc)
        adjacent: dict[str, set[str]] = {}
        optional: list[Transition] = []
        users: dict[str, dict[str, None]] = {}
        for name, t in self.transitions.items():
            for end in (t.source, t.target):
                if end in adjacent:
                    adjacent[end].add(name)
                else:
                    adjacent[end] = {name}
            if t.optional:
                optional.append(t)
            if t.cond.atoms:
                for atom in t.cond.atoms:
                    if isinstance(atom, InState):
                        users.setdefault(atom.state, {})[name] = None
        self.adjacent = adjacent
        self.added: dict[str, None] = {}
        self.mine: set[tuple[str, str]] = set()
        self.dirty: set[str] = set()
        self.swept = False
        self.facts = InputFacts(
            [st for st in self.states.values() if st.optional], optional,
            users)

    def copy(self) -> "WorkingTree":
        """A tree with the same maps that edits apart from this one and
        shares its ``facts``.  Each map is copied flat: the inner dicts
        and sets of ``children``, ``owned`` and ``adjacent`` stay shared
        until a write copies one (``_writable``), and the copy leaves
        neither tree owning any, so an edit of either never reaches the
        other.  The state and transition objects are immutable and
        shared."""
        new = WorkingTree.__new__(WorkingTree)
        new.root = self.root
        new.states = self.states.copy()
        new.parent = self.parent.copy()
        new.children = self.children.copy()
        new.initial = self.initial.copy()
        new.transitions = self.transitions.copy()
        new.owner = self.owner.copy()
        new.owned = self.owned.copy()
        new.duplicate_states = self.duplicate_states.copy()
        new.duplicate_transitions = self.duplicate_transitions.copy()
        new.adjacent = self.adjacent.copy()
        new.added = self.added.copy()
        new.mine = set()
        self.mine = set()
        new.dirty = self.dirty.copy()
        new.swept = self.swept
        new.facts = self.facts
        return new

    # -- edits --

    def _writable(self, tag: str, mapping: dict, key: str):
        """``mapping[key]``, an inner dict or set of the map named ``tag``,
        ready for this tree to write: first replaced by a copy that the
        tree owns from then on, unless it owns it already."""
        mine = self.mine
        if (tag, key) in mine:
            return mapping[key]
        mine.add((tag, key))
        container = mapping[key] = mapping[key].copy()
        return container

    def _add_transition(self, t: Transition, owner: str) -> None:
        self.transitions[t.name] = t
        self.owner[t.name] = owner
        self._writable("owned", self.owned, owner)[t.name] = None
        self.dirty.add(owner)
        self.added[t.name] = None
        adjacent = self.adjacent
        for end in (t.source, t.target):
            if end in adjacent:
                self._writable("adjacent", adjacent, end).add(t.name)
            else:
                adjacent[end] = {t.name}
                self.mine.add(("adjacent", end))

    def _drop_transition(self, name: str) -> None:
        t = self.transitions.pop(name)
        home = self.owner.pop(name)
        del self._writable("owned", self.owned, home)[name]
        self.dirty.add(home)
        for end in (t.source, t.target):
            if end in self.adjacent:
                self._writable("adjacent", self.adjacent, end).discard(name)

    # -- freezing --

    def freeze(self) -> StateChart:
        """``MachineIndex.freeze``; on a swept tree, ``dirty`` is first
        closed upwards through the ancestors, so a composite outside it
        has an unedited subtree and ``_composite`` reuses it."""
        if self.swept:
            dirty, parent = self.dirty, self.parent
            for name in list(dirty):
                name = parent.get(name)
                while name is not None and name not in dirty:
                    dirty.add(name)
                    name = parent.get(name)
        return super().freeze()

    def _composite(self, name: str, st: State):
        """A composite rebuilt from the maps, or, on a swept tree and
        outside ``dirty``, the flag-cleared frozen subtree kept in
        ``facts.frozen``, built and kept the first time."""
        if not self.swept or name in self.dirty:
            return super()._composite(name, st)
        frozen = self.facts.frozen
        got = frozen.get(name)
        if got is None:
            got = frozen[name] = super()._composite(name, st)
        return got

    # -- region projection --

    def _regions(self, elem: str) -> tuple[list[str], Callable]:
        """A state's regions -- an And-state's children, an Or-state
        itself, none for a simple state -- with ``coordinate``, which maps
        a state strictly inside a region that is an Or-state to its
        region's index and coordinate (the region's direct substate holding
        it) and any other name to None.  A region that is not an Or-state
        is its own only coordinate, so whatever lies inside it is reached
        with the region and has no coordinate.  ``coordinate`` walks
        ``parent`` up from the name it is asked about to the region, never
        down the subtree: a deletion asks only about exit sources, entry
        targets, move endpoints and in-state atoms."""
        st = self.states[elem]
        regions = (list(self.children[elem]) if isinstance(st, AndState)
                   else [elem] if isinstance(st, OrState) else [])
        index = {region: j for j, region in enumerate(regions)}
        parent, initial = self.parent, self.initial

        def coordinate(name: str) -> tuple[int, str] | None:
            prev, cur = name, None if name == elem else parent.get(name)
            while cur is not None:
                j = index.get(cur)
                if j is not None:
                    return (j, prev) if cur in initial else None
                if cur == elem:
                    return None
                prev, cur = cur, parent.get(cur)
            return None

        return regions, coordinate

    def _moves(self, elem: str, regions: list[str], coordinate: Callable,
               blocked: Collection[str], chosen: Iterable[int],
               ) -> dict[int, list[Move]]:
        """Per region of ``elem`` (``_regions``), its usable internal
        transitions as moves between coordinates, for the regions whose
        indices are ``chosen`` and every region their moves wait on,
        transitively: one worklist builds each region once.  A region
        that is not an Or-state has no moves.  A transition named in
        ``blocked`` is no move, nor is one with an end outside its owner
        (possible on an unvalidated machine).  Inside an And-state an
        in-state atom naming a state with a coordinate requires that
        coordinate, so its region waits on that one; any other atom always
        holds there or is about a foreign state.  An Or-state's moves carry
        no requirements: its reachability ignores conditions."""
        coupled = isinstance(self.states[elem], AndState)
        moves: dict[int, list[Move]] = {}
        todo = list(chosen)
        while todo:
            j = todo.pop()
            if j in moves:
                continue
            rt = moves[j] = []
            for t in map(self.transitions.__getitem__,
                         self.owned.get(regions[j], ())):
                if t.name in blocked:
                    continue
                u, v = coordinate(t.source), coordinate(t.target)
                if u and v and u[0] == v[0] == j:
                    needs = ()
                    if coupled and t.cond.atoms:
                        needs = tuple(filter(None, (
                            coordinate(a.state) for a in t.cond.atoms
                            if isinstance(a, InState))))
                        todo.extend(i for i, _ in needs)
                    rt.append((u[1], t.trigger, needs, v[1]))
        return moves

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

        ``doomed`` is the input subtree kept in ``facts``
        (``InputFacts.subtree``), walked over ``children`` the first time
        any tree of the machine asks for it, and the pairing resolves
        coordinates by walking up from the names it reads."""
        doomed = self.facts.subtree(elem, self.children)[0]
        adjacent = self.adjacent
        touching = set().union(*(adjacent.get(s, ()) for s in doomed))
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
        # owner and from ends that survive, each copied first unless this
        # tree owns it; and only a composite has ``children``, ``initial``
        # and ``owned`` entries.
        transitions, owner, owned = self.transitions, self.owner, self.owned
        adjacent, children, dirty = self.adjacent, self.children, self.dirty
        writable = self._writable
        for name in touching:
            t = transitions.pop(name)
            home = owner.pop(name)
            if home not in doomed:
                del writable("owned", owned, home)[name]
                dirty.add(home)
            for end in (t.source, t.target):
                if end not in doomed:
                    writable("adjacent", adjacent, end).discard(name)
        for name in doomed:
            del self.states[name], self.parent[name]
            adjacent.pop(name, None)
            if name in children:
                del children[name]
                if name in self.initial:
                    del self.initial[name], owned[name]
        del writable("children", children, parent)[elem]
        dirty.add(parent)
        for t, owner in zip(additions, owners):
            self._add_transition(t, owner)
        pending.difference_update(doomed, touching)
        return TraceStep(
            _DELETION[type(st)][0], elem,
            removed_states=self.facts.subtree(elem, children)[1],
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
        entry lands, over the state's regions (``_regions``).  The exits'
        coordinates are resolved first.  An exit pairs with every entry
        when its source has no coordinate -- it is the state, a region, or
        inside a region that is not an Or-state; otherwise when its
        coordinate is in its region's projection of the tuples reachable
        from the tuple of region initials with the entry target's
        coordinate substituted in its region (``_projections``).  Each
        region some exit leaves from is searched with the regions it waits
        on, transitively, which ``waits`` reads off the moves ``_moves``
        built for them; each distinct group is searched once.  So when no
        exit has a coordinate, as for a simple state, every entry pairs
        with every exit and no move or closure is built.  Each pair
        composes by ``_composed``: the entry and exit are usable and meet
        at the state by construction, so ``comp``'s checks could not
        fail."""
        if not (entries and exits):
            return []
        regions, coordinate = self._regions(elem)
        leaving = [(coordinate(ts.source), ts) for ts in exits]
        wanted = {at[0] for at, _ in leaving if at}
        if not wanted:
            return [_composed(te, ts) for te in entries for ts in exits]
        moves = self._moves(elem, regions, coordinate, blocked, wanted)
        waits = {j: [i for _, _, needs, _ in rt for i, _ in needs]
                 for j, rt in moves.items()}
        groups = list(dict.fromkeys(
            tuple(sorted(reached(j, waits))) for j in sorted(wanted)))
        default = [self.initial.get(r, r) for r in regions]
        out: list[Transition] = []
        for te in entries:
            start = list(default)
            lands = coordinate(te.target)
            if lands is not None:
                j, node = lands
                start[j] = node
            reach = _projections(groups, moves, tuple(start))
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
        substates they lead to from it (``direct_child_within`` walks up
        from each end), so a hop looks at its own substate's."""
        if not isinstance(self.states.get(parent), OrState):
            raise RewriteError(f"{parent!r} is not an Or-state")
        old = self.initial[parent]
        if old not in pending:
            raise RewriteError(f"initial {old!r} of {parent!r} is not pending")
        within = self.direct_child_within
        leads: dict[str, list] = {}
        for name in sorted(self.owned[parent]):
            t = self.transitions[name]
            src = within(parent, t.source)
            if src is not None:
                tgt = within(parent, t.target)
                if tgt != src:
                    leads.setdefault(src, []).append(tgt)
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
        self.dirty.add(parent)
        return TraceStep("repair_initial", parent,
                         detail=f"initial {old} -> {cur}")

    def prune_conditions(self, names: Sequence[str]) -> list[str]:
        """Strips every in-state atom naming one of the states or anything
        nested inside one; a transition that loses one is rebuilt once.
        Returns the names, in the given order, that pruning them one at a
        time in that order would have found an atom for: each atom is
        credited to the first name whose subtree holds its state.

        Only the states that atoms name (``facts.atom_users``) are walked
        up, and only the transitions whose atoms name one inside a given
        subtree are read, so pruning reads the input's conditioned
        transitions: it comes before any edit, as layer 1 does."""
        rank = {}
        for i, name in enumerate(names):
            if name not in self.states:
                raise RewriteError(f"no state named {name!r}")
            rank.setdefault(name, i)
        credit: dict[str, int | None] = {}
        parent = self.parent

        def first_rank(state: str) -> int | None:
            if state not in credit:
                best = None
                cur = state
                while cur is not None:
                    i = rank.get(cur)
                    if i is not None and (best is None or i < best):
                        best = i
                    cur = parent.get(cur)
                credit[state] = best
            return credit[state]

        pruned: dict[str, None] = {}
        for state, users in self.facts.atom_users.items():
            if first_rank(state) is not None:
                pruned.update(users)
        transitions, owner, dirty = self.transitions, self.owner, self.dirty
        credited: set[int] = set()
        for name in pruned:
            t = transitions[name]
            kept = []
            for atom in t.cond.atoms:
                if isinstance(atom, InState):
                    i = first_rank(atom.state)
                    if i is not None:
                        credited.add(i)
                        continue
                kept.append(atom)
            transitions[name] = Transition(
                name, t.source, t.target, t.trigger, Condition(tuple(kept)),
                t.actions, t.history, t.optional)
            dirty.add(owner[name])
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
        """Flips every remaining optional flag, visiting only the input's
        optional elements (``facts``).  One still in the tree as the
        input's object takes the flag-cleared copy kept in ``facts``,
        made the first time it is needed; a transition that pruning
        rebuilt is another object, so it is rebuilt once more, with its
        flag cleared (``flagged``).  Afterwards the tree is ``swept``."""
        facts = self.facts
        states, made = self.states, facts.cleared_states
        for st in facts.optional_states:
            name = st.name
            if states.get(name) is st:
                clear = made.get(name)
                if clear is None:
                    clear = made[name] = flagged(st)
                states[name] = clear
        transitions, made = self.transitions, facts.cleared_transitions
        for t in facts.optional_transitions:
            name = t.name
            now = transitions.get(name)
            if now is t:
                clear = made.get(name)
                if clear is None:
                    clear = made[name] = flagged(t)
                transitions[name] = clear
            elif now is not None and now.optional:
                transitions[name] = flagged(now)
        self.swept = True
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
    computed, and only for the regions some exit leaves from inside: an
    exit leaving the And-state, a region, or a state inside a region that
    is not an Or-state pairs with every entry.  Each such region is
    searched with the regions it waits on, transitively -- those that an
    in-state atom of its moves names a state of.  A region that waits on
    none is closed over its moves as a graph; a group of two or more is
    searched over its tuples from the start tuple, raising TooLargeError
    past TUPLE_BUDGET.  Regions that no exit's region waits on are never
    searched, so they raise nothing, however large their tuple set."""
    return _delete(AndState, elem, sc, pending, include_pending)


def reachable_or(elem: str, start: str, sc: StateChart, pending: PendingSet,
                 *, include_pending: bool = False) -> set[str]:
    """Reflexive-transitive closure over an Or-state's internal transitions,
    projected onto its direct substates: the closure of its one region
    (``_successors``), which a deletion also runs for each region that
    waits on no other.  Conditions are ignored; pending transitions grant
    no reachability."""
    tree = WorkingTree(sc)
    if not isinstance(tree.states.get(elem), OrState):
        raise RewriteError(f"{elem!r} is not an Or-state")
    if start not in tree.children[elem]:
        raise NotSubstateError(
            f"{start!r} is not a direct substate of {elem!r}")
    regions, coordinate = tree._regions(elem)
    moves = tree._moves(elem, regions, coordinate,
                        () if include_pending else pending, (0,))
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
    Every region is searched jointly, whether or not it waits on another,
    so this is the one rule that searches the product of all regions; it
    raises TooLargeError once it reaches more than TUPLE_BUDGET tuples.
    """
    tree = WorkingTree(sc)
    if not isinstance(tree.states.get(elem), AndState):
        raise NotAndError(f"{elem!r} is not an And-state")
    regions, coordinate = tree._regions(elem)
    moves = tree._moves(elem, regions, coordinate,
                        () if include_pending else pending,
                        range(len(regions)))
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
