"""Shared domain types: feature models, hierarchical state machines with
optional elements, conditions, and well-formedness checking.

All types are immutable values; no operation here mutates its inputs.
Each is a frozen dataclass with ``slots=True``: it has no instance
``__dict__`` and takes no weak reference, and it is smaller and quicker
to build and read than a dataclass without slots.  Its constructor
(``_value``) sets each slot once through the slot's descriptor, not
through ``object.__setattr__`` as a frozen dataclass's would, which
builds a transition in about half the time.

``StateChart`` alone carries one private slot besides its field, on its
slotted base ``_WithKept``: there ``strategy`` keeps the validation
verdict and the unedited working tree it derived from that machine
object.  The slot is no dataclass field, so equality, hashing, ``repr``,
pickling, copying (``__reduce__`` names the fields alone) and ``replace``
ignore it, and a copied machine starts without it.

A machine is a tree of states.  The root is an Or-state.  Transitions live
in the Or-state that is the nearest common ancestor of their endpoints, so
a transition may enter or leave a composite sibling (its endpoint then
names a state nested inside that sibling), but it may never connect two
states that both sit inside the same direct substate -- such a transition
belongs one level down -- and it may never connect two regions of an
And-state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter
from typing import (Collection, Hashable, Iterable, Iterator, Mapping,
                    TypeVar, Union)

# Characters with structural meaning in names: dots separate hierarchy
# levels on input, parentheses and commas build composed-transition names.
# ``\s`` matches exactly the characters for which ``str.isspace`` holds.
_RESERVED = re.compile(r"[\s(),.]").search


def valid_name(name: str) -> bool:
    """Opaque identifier: non-empty, no whitespace, no reserved characters."""
    return name != "" and _RESERVED(name) is None


def comp_parts(name: str) -> tuple[str, ...]:
    """The parts of a composed name comp(a,b,...), or the name alone."""
    if name.startswith("comp(") and name.endswith(")"):
        return tuple(name[5:-1].split(","))
    return (name,)


def valid_transition_name(name: str) -> bool:
    """A plain identifier or a composed name comp(a,b,...) whose parts are
    plain identifiers."""
    parts = comp_parts(name)
    if parts == (name,):  # not a composed name
        return valid_name(name)
    return len(parts) >= 2 and all(valid_name(p) for p in parts)


class History(str, Enum):
    NONE = "none"
    SHALLOW = "shallow"
    DEEP = "deep"


def _value(cls):
    """``cls`` as a frozen slotted dataclass whose ``__init__`` sets each
    slot once through its member descriptor, where the generated one calls
    ``object.__setattr__`` per field.  Its parameters, defaults and
    annotations are the generated one's; every field takes a plain value
    or default, none a factory.

    ``__reduce__`` gives the class and the field values in field order, so
    pickling and ``copy`` rebuild a value through that constructor; the
    ``__getstate__`` that the dataclass generates, which they would call
    otherwise, calls ``dataclasses.fields`` once per value."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    scope = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
    scope["_cls"] = cls
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):"
         + "".join(f"\n    _set_{n}(self, {n})" for n in names)
         + "\ndef __reduce__(self):\n    return _cls, ("
         + "".join(f"self.{n}, " for n in names) + ")",
         scope, namespace)
    init, generated = namespace["__init__"], cls.__init__
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = generated.__annotations__
    init.__qualname__ = generated.__qualname__
    init.__module__ = cls.__module__
    cls.__init__ = init
    reduce = namespace["__reduce__"]
    reduce.__qualname__ = f"{cls.__qualname__}.__reduce__"
    reduce.__module__ = cls.__module__
    cls.__reduce__ = reduce
    return cls


# --- conditions -----------------------------------------------------------

@_value
class Guard:
    """Opaque boolean expression, compared by exact string equality."""

    text: str


@_value
class InState:
    """Atom that holds while the named state is active."""

    state: str


Atom = Union[Guard, InState]


@_value
class Condition:
    """Conjunction of atoms; the empty sequence denotes true.

    Conjunction is modelled by concatenation of atom sequences, which makes
    it associative by construction.
    """

    atoms: tuple[Atom, ...] = ()

    @property
    def is_true(self) -> bool:
        return not self.atoms

    def conjoin(self, other: "Condition") -> "Condition":
        return Condition(self.atoms + other.atoms)

    def __and__(self, other: "Condition") -> "Condition":
        return self.conjoin(other)


# --- states and transitions ----------------------------------------------

@_value
class Transition:
    name: str
    source: str
    target: str
    trigger: tuple[str, ...]
    cond: Condition = Condition()
    actions: tuple[str, ...] = ()
    history: History = History.NONE
    optional: bool = False


@_value
class SimpleState:
    name: str
    optional: bool = False


@_value
class OrState:
    name: str
    substates: tuple["State", ...]
    initial: str
    transitions: tuple[Transition, ...] = ()
    optional: bool = False


@_value
class AndState:
    name: str
    regions: tuple["State", ...]
    optional: bool = False


State = Union[SimpleState, OrState, AndState]


class _WithKept:
    """The private slot ``_kept`` of ``StateChart``, outside its fields.
    It is empty until set through its descriptor, as the subclass is
    frozen."""

    __slots__ = ("_kept",)


@_value
class StateChart(_WithKept):
    """A hierarchical state machine; the root Or-state is the top automaton."""

    root: OrState


# --- feature models -------------------------------------------------------

RelationPair = tuple[str, frozenset[str]]


@_value
class FeatureModel:
    funcs: frozenset[str]
    root: str
    mand: frozenset[RelationPair] = frozenset()
    opt: frozenset[RelationPair] = frozenset()
    alt: frozenset[RelationPair] = frozenset()
    or_rel: frozenset[RelationPair] = frozenset()

    def relations(self) -> Iterator[tuple[str, str, frozenset[str]]]:
        """Yields (kind, parent, children) over all relation pairs."""
        for kind, pairs in (("mand", self.mand), ("opt", self.opt),
                            ("alt", self.alt), ("or", self.or_rel)):
            for parent, children in pairs:
                yield kind, parent, children


@_value
class Configuration:
    """A selection subtree of a feature model; validity is checked against
    the owning model, not at construction."""

    selected: frozenset[str]
    edges: frozenset[RelationPair] = frozenset()


# --- feature-to-element binding ------------------------------------------

@_value
class ImpEntry:
    """Elements directly implementing a feature, plus features whose
    element sets are folded in when the mapping is expanded."""

    elements: frozenset[str]
    includes: frozenset[str] = frozenset()


@_value
class ImpMapping:
    entries: tuple[tuple[str, ImpEntry], ...] = ()

    @classmethod
    def from_dict(cls, mapping: dict[str, ImpEntry]) -> "ImpMapping":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, ImpEntry]:
        return dict(self.entries)

    def features(self) -> frozenset[str]:
        return frozenset(f for f, _ in self.entries)

    def get(self, feature: str) -> ImpEntry | None:
        return dict(self.entries).get(feature)


# --- rewrite traces -------------------------------------------------------

@_value
class TraceStep:
    rule: str
    subject: str
    removed_states: tuple[str, ...] = ()
    removed_transitions: tuple[str, ...] = ()
    added_transitions: tuple[str, ...] = ()
    detail: str = ""


@_value
class RewriteTrace:
    """Ordered record of the rule applications of one instantiation."""

    steps: tuple[TraceStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


# --- violations -----------------------------------------------------------

@_value
class Violation:
    element: str
    message: str

    def __str__(self) -> str:
        return f"{self.element}: {self.message}"


# --- name graphs ----------------------------------------------------------

_Item = TypeVar("_Item", bound=Hashable)


def reached(start: str, successors: Mapping[str, Iterable[str]]) -> set[str]:
    """``start`` and every name reachable from it through ``successors``,
    which maps a name to the names it leads to."""
    seen = {start}
    frontier = [start]
    while frontier:
        for name in successors.get(frontier.pop(), ()):
            if name not in seen:
                seen.add(name)
                frontier.append(name)
    return seen


def partition(items: Iterable[_Item],
              links: Iterable[tuple[_Item, _Item]]) -> list[list[_Item]]:
    """The classes into which joining each linked pair splits ``items``, by
    union-find.  Each class lists its members in ``items`` order, and the
    classes come in the order of their first members, so no result
    follows the order of ``links``."""
    items = list(items)
    parent = {item: item for item in items}

    def find(item: _Item) -> _Item:
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    for a, b in links:
        parent[find(a)] = find(b)
    classes: dict[_Item, list[_Item]] = {}
    for item in items:
        classes.setdefault(find(item), []).append(item)
    return list(classes.values())


# --- machine indexing -----------------------------------------------------

class MachineIndex:
    """Lookup tables over one machine, built in one pass over the whole
    tree and kept in machine order.

    ``children`` maps each composite to its substates or regions (a dict
    used as an ordered set), ``owned`` each Or-state to the names of its
    transitions, in order, and ``initial`` each Or-state to its initial
    marker as given.
    A repeated name is listed in ``duplicate_states`` or
    ``duplicate_transitions`` and registered at its first occurrence only,
    so ``parent`` and ``children`` always describe a tree.

    The maps describe the machine they were built from until edited:
    ``rewrite.WorkingTree`` extends the index with the edits that rewriting
    needs, and ``freeze`` rebuilds the machine the maps then describe
    (``_composite`` rebuilds one composite, which the working tree may
    take from what it keeps instead).
    """

    def __init__(self, sc: StateChart):
        self.root = sc.root.name
        self.states: dict[str, State] = {}
        self.parent: dict[str, str | None] = {}
        self.children: dict[str, dict[str, None]] = {}
        self.initial: dict[str, str] = {}
        self.transitions: dict[str, Transition] = {}
        self.owner: dict[str, str] = {}  # transition name -> owning Or-state
        self.owned: dict[str, dict[str, None]] = {}
        self.duplicate_states: list[str] = []
        self.duplicate_transitions: list[str] = []
        self._walk(sc.root, None, {})  # the root is no composite's child

    def _walk(self, state: State, parent: str | None,
              siblings: dict[str, None]) -> None:
        name = state.name
        if name in self.states:
            self.duplicate_states.append(name)
        else:
            self.states[name] = state
            self.parent[name] = parent
            siblings[name] = None
        if isinstance(state, SimpleState):
            return
        kids = self.children.setdefault(name, {})
        if isinstance(state, OrState):
            self.initial.setdefault(name, state.initial)
            owned = self.owned.setdefault(name, {})
            for t in state.transitions:
                if t.name in self.transitions:
                    self.duplicate_transitions.append(t.name)
                else:
                    self.transitions[t.name] = t
                    self.owner[t.name] = name
                    owned[t.name] = None
            for sub in state.substates:
                self._walk(sub, name, kids)
        else:
            for region in state.regions:
                self._walk(region, name, kids)

    def freeze(self) -> StateChart:
        """Rebuilds the machine the maps describe, in their order."""
        return StateChart(self._frozen(self.root))

    def _frozen(self, name: str):
        # A method, not a nested function: a recursive closure would tie
        # the index into a reference cycle that outlives the call.
        st = self.states[name]
        if isinstance(st, SimpleState):
            return st
        return self._composite(name, st)

    def _composite(self, name: str, st: State):
        """The composite ``name``, whose state object is ``st``, rebuilt
        from the maps with its subtree."""
        kids = tuple(map(self._frozen, self.children[name]))
        if isinstance(st, AndState):
            return AndState(name, kids, st.optional)
        owned = map(self.transitions.__getitem__, self.owned[name])
        return OrState(name, kids, self.initial[name], tuple(owned),
                       st.optional)

    # -- hierarchy queries --

    def ancestors(self, name: str) -> Iterator[str]:
        """Proper ancestors, nearest first."""
        cur = self.parent.get(name)
        while cur is not None:
            yield cur
            cur = self.parent.get(cur)

    def direct_child_within(self, ancestor: str, name: str) -> str | None:
        """The direct substate of ``ancestor`` whose subtree holds ``name``,
        or None when ``name`` is not strictly inside ``ancestor``."""
        parent = self.parent
        prev, cur = name, parent.get(name)
        while cur is not None:
            if cur == ancestor:
                return prev
            prev, cur = cur, parent.get(cur)
        return None


# --- well-formedness ------------------------------------------------------

def check_well_formed(sc: StateChart) -> list[Violation]:
    """Returns every invariant breach in the machine, or its repeated names
    alone when it has any; empty means well-formed.

    Violations are data, not failures: callers decide whether to stop.
    """
    return well_formed_violations(MachineIndex(sc))


def well_formed_violations(idx: MachineIndex) -> list[Violation]:
    """``check_well_formed`` of the machine the index maps describe, read
    from the maps alone, so an edited index is checked as it now stands.

    A repeated name is reported alone: the maps register a name's first
    occurrence only, so any further finding would describe the index,
    not the machine.  Otherwise states come in machine order, each with
    its name and then its shape, then transitions.

    The cost is one pass over the states and one over the transitions:
    names are tested once per distinct name (``_invalid``), and a
    transition whose ends are both direct substates of its owner is
    accepted without walking up from either.
    """
    out = [Violation(name, "duplicate state name")
           for name in idx.duplicate_states]
    out += [Violation(name, "duplicate transition name")
            for name in idx.duplicate_transitions]
    if out:
        return out
    # Deletion work-lists mix both namespaces, so names must not collide
    # across them either.
    for name in sorted(idx.states.keys() & idx.transitions.keys()):
        out.append(Violation(name, "name used by both a state and a transition"))

    bad = _invalid(idx.states, valid_name)
    children = idx.children
    for name in idx.states:
        if name in bad:
            out.append(Violation(name, "invalid state name"))
        if name in children:
            out += _composite_violations(idx, name)

    out += _transition_violations(idx, [idx.transitions[n]
                                        for owned in idx.owned.values()
                                        for n in owned])
    return out


def touched_violations(idx: MachineIndex, composites: Iterable[str],
                       transitions: Iterable[str]) -> list[Violation]:
    """``well_formed_violations`` over the named composites and transitions
    alone; names no longer in the index are skipped.

    On a machine that was well-formed before edits that only deleted whole
    subtrees (with every transition touching them and, beforehand, every
    in-state atom naming them), moved initial markers and added
    transitions, the two checks agree when ``composites`` holds every
    composite that lost a child or had its initial marker moved and
    ``transitions`` every added transition: nothing else can have changed.
    """
    out: list[Violation] = []
    for name in composites:
        out += _composite_violations(idx, name)
    out += _transition_violations(
        idx, [idx.transitions[name] for name in transitions
              if name in idx.transitions])
    return out


def _invalid(names: Collection[str], valid) -> Collection[str]:
    """The names for which ``valid`` fails, where ``valid`` accepts every
    non-empty name free of reserved characters (``valid_name``, or
    ``valid_transition_name``, which tests a comp(...) name by its parts).
    One search over the names joined clears them all when it finds no
    reserved character and none is empty; only otherwise is each name
    tested, to report it."""
    if "" not in names and _RESERVED("".join(names)) is None:
        return ()
    return {name for name in names if not valid(name)}


def _composite_violations(idx: MachineIndex, name: str) -> list[Violation]:
    """The shape of a composite, read from ``children`` and ``initial``:
    an Or-state is a composite with an initial marker, an And-state one
    without.  A name that is no composite of the index has none."""
    kids = idx.children.get(name)
    if kids is None:
        return []
    if name in idx.initial:
        if not kids:
            return [Violation(name, "Or-state has no substates")]
        if idx.initial[name] not in kids:
            return [Violation(
                name, f"initial {idx.initial[name]!r} is not a direct substate")]
    elif len(kids) < 2:
        return [Violation(name, "And-state has fewer than 2 regions")]
    return []


def _transition_violations(idx: MachineIndex,
                           transitions: list[Transition]) -> list[Violation]:
    """Each transition's breaches, in the given order: its name, its
    trigger and events, its endpoints, then its in-state atoms."""
    bad_names = _invalid({t.name for t in transitions}, valid_transition_name)
    bad_events = _invalid({ev for t in transitions for ev in t.trigger},
                          valid_name)
    parent, owner, states = idx.parent, idx.owner, idx.states
    out: list[Violation] = []
    for t in transitions:
        tname = t.name
        if tname in bad_names:
            out.append(Violation(tname, "invalid transition name"))
        if not t.trigger:
            out.append(Violation(tname, "empty trigger"))
        for ev in t.trigger:
            if ev in bad_events:
                out.append(Violation(tname, f"invalid event name {ev!r}"))
        home = owner[tname]
        if parent.get(t.source) != home or parent.get(t.target) != home:
            out += _check_endpoints(idx, t, home)
        for atom in t.cond.atoms:
            if isinstance(atom, InState) and atom.state not in states:
                out.append(Violation(
                    tname, f"condition names unknown state {atom.state!r}"))
    return out


def _check_endpoints(idx: MachineIndex, t: Transition,
                     owner: str) -> list[Violation]:
    """The endpoint breaches of a transition that ``owner`` owns.  A
    transition between two direct substates of its owner has none, so its
    caller skips it."""
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
        # Both endpoints fall strictly inside the same direct substate:
        # either the transition belongs one level down, or it crosses
        # And-regions.  A self-entry (source == the substate) or re-entry
        # (target == the substate) stays legal.
        out.append(Violation(
            t.name,
            f"endpoints {t.source!r} and {t.target!r} both lie inside "
            f"{cs!r}; the transition does not belong to {owner!r}"))
    return out


# --- optional elements ----------------------------------------------------

def var_elems(sc: StateChart) -> tuple[frozenset[str], frozenset[str]]:
    """Names of optional states and optional transitions, at any depth."""
    idx = MachineIndex(sc)
    sop = frozenset(n for n, s in idx.states.items() if s.optional)
    top = frozenset(n for n, t in idx.transitions.items() if t.optional)
    return sop, top


# --- canonical form -------------------------------------------------------

def canonicalize(sc: StateChart) -> StateChart:
    """Canonical machine for equality: substates, regions, and transitions
    sorted by name.  The initial marker and all flags are preserved."""
    return map_states(sc, _sorted_composite)


def _by_name(elements) -> tuple:
    return tuple(sorted(elements, key=attrgetter("name")))


def _sorted_composite(state: State) -> State:
    if isinstance(state, OrState):
        return OrState(state.name, _by_name(state.substates), state.initial,
                       _by_name(state.transitions), state.optional)
    if isinstance(state, AndState):
        return AndState(state.name, _by_name(state.regions), state.optional)
    return state


def map_states(sc: StateChart, fn) -> StateChart:
    """Rebuilds the machine bottom-up, passing every state (with already
    rebuilt children) through ``fn``; ``fn`` may return a replacement or
    None to drop the state."""
    root = _rebuilt(sc.root, fn)
    if not isinstance(root, OrState):
        raise ValueError("root must remain an Or-state")
    return StateChart(root)


def _rebuilt(state: State, fn) -> State | None:
    # A module-level function, not a nested one: a recursive closure ties
    # itself into a reference cycle that outlives the call.
    if isinstance(state, OrState):
        subs = tuple(s for s in (_rebuilt(c, fn) for c in state.substates)
                     if s is not None)
        state = OrState(state.name, subs, state.initial,
                        state.transitions, state.optional)
    elif isinstance(state, AndState):
        regions = tuple(s for s in (_rebuilt(c, fn) for c in state.regions)
                        if s is not None)
        state = AndState(state.name, regions, state.optional)
    return fn(state)
