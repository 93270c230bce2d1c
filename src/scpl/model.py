"""Shared domain types: feature models, hierarchical state machines with
optional elements, conditions, and well-formedness checking.

All types are immutable values; no operation here mutates its inputs.

A machine is a tree of states.  The root is an Or-state.  Transitions live
in the Or-state that is the nearest common ancestor of their endpoints, so
a transition may enter or leave a composite sibling (its endpoint then
names a state nested inside that sibling), but it may never connect two
states that both sit inside the same direct substate -- such a transition
belongs one level down -- and it may never connect two regions of an
And-state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Union

# Characters with structural meaning in names: dots separate hierarchy
# levels on input, parentheses and commas build composed-transition names.
_RESERVED = set("(),")


def valid_name(name: str) -> bool:
    """Opaque identifier: non-empty, no whitespace, no reserved characters."""
    if not name or name != name.strip():
        return False
    return not any(ch.isspace() or ch in _RESERVED or ch == "." for ch in name)


def valid_transition_name(name: str) -> bool:
    """A plain identifier or a composed name comp(a,b,...) whose parts are
    plain identifiers."""
    if name.startswith("comp(") and name.endswith(")"):
        parts = name[5:-1].split(",")
        return len(parts) >= 2 and all(valid_name(p) for p in parts)
    return valid_name(name)


class History(str, Enum):
    NONE = "none"
    SHALLOW = "shallow"
    DEEP = "deep"


# --- conditions -----------------------------------------------------------

@dataclass(frozen=True)
class Guard:
    """Opaque boolean expression, compared by exact string equality."""

    text: str


@dataclass(frozen=True)
class InState:
    """Atom that holds while the named state is active."""

    state: str


Atom = Union[Guard, InState]


@dataclass(frozen=True)
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

@dataclass(frozen=True)
class Transition:
    name: str
    source: str
    target: str
    trigger: tuple[str, ...]
    cond: Condition = Condition()
    actions: tuple[str, ...] = ()
    history: History = History.NONE
    optional: bool = False


@dataclass(frozen=True)
class SimpleState:
    name: str
    optional: bool = False


@dataclass(frozen=True)
class OrState:
    name: str
    substates: tuple["State", ...]
    initial: str
    transitions: tuple[Transition, ...] = ()
    optional: bool = False


@dataclass(frozen=True)
class AndState:
    name: str
    regions: tuple["State", ...]
    optional: bool = False


State = Union[SimpleState, OrState, AndState]


@dataclass(frozen=True)
class StateChart:
    """A hierarchical state machine; the root Or-state is the top automaton."""

    root: OrState


# --- feature models -------------------------------------------------------

RelationPair = tuple[str, frozenset[str]]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Configuration:
    """A selection subtree of a feature model; validity is checked against
    the owning model, not at construction."""

    selected: frozenset[str]
    edges: frozenset[RelationPair] = frozenset()


# --- feature-to-element binding ------------------------------------------

@dataclass(frozen=True)
class ImpEntry:
    """Elements directly implementing a feature, plus features whose
    element sets are folded in when the mapping is expanded."""

    elements: frozenset[str]
    includes: frozenset[str] = frozenset()


@dataclass(frozen=True, eq=True)
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

@dataclass(frozen=True)
class TraceStep:
    rule: str
    subject: str
    removed_states: tuple[str, ...] = ()
    removed_transitions: tuple[str, ...] = ()
    added_transitions: tuple[str, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class RewriteTrace:
    """Ordered record of the rule applications of one instantiation."""

    steps: tuple[TraceStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


# --- violations -----------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    element: str
    message: str

    def __str__(self) -> str:
        return f"{self.element}: {self.message}"


# --- machine indexing -----------------------------------------------------

class MachineIndex:
    """Precomputed lookup tables over one machine, built in one pass over
    the whole tree.

    The index describes the machine it was built from and goes stale once
    the machine changes: rewriting edits a ``rewrite.WorkingTree`` instead,
    which takes over these maps and keeps them current.
    """

    def __init__(self, sc: StateChart):
        self.states: dict[str, State] = {}
        self.parent: dict[str, str | None] = {}
        self.transitions: dict[str, Transition] = {}
        self.owner: dict[str, str] = {}  # transition name -> owning Or-state
        self.duplicate_states: list[str] = []
        self.duplicate_transitions: list[str] = []
        self._walk(sc.root, None)

    def _walk(self, state: State, parent: str | None) -> None:
        if state.name in self.states:
            self.duplicate_states.append(state.name)
        else:
            self.states[state.name] = state
            self.parent[state.name] = parent
        if isinstance(state, OrState):
            for t in state.transitions:
                if t.name in self.transitions:
                    self.duplicate_transitions.append(t.name)
                else:
                    self.transitions[t.name] = t
                    self.owner[t.name] = state.name
            for sub in state.substates:
                self._walk(sub, state.name)
        elif isinstance(state, AndState):
            for region in state.regions:
                self._walk(region, state.name)

    # -- hierarchy queries --

    def ancestors(self, name: str) -> Iterator[str]:
        """Proper ancestors, nearest first."""
        cur = self.parent.get(name)
        while cur is not None:
            yield cur
            cur = self.parent.get(cur)

    def is_within(self, name: str, ancestor: str) -> bool:
        return name == ancestor or ancestor in self.ancestors(name)

    def descendants(self, name: str) -> set[str]:
        """Names of all states strictly inside ``name``."""
        out: set[str] = set()
        stack = [self.states[name]]
        while stack:
            st = stack.pop()
            children: tuple[State, ...] = ()
            if isinstance(st, OrState):
                children = st.substates
            elif isinstance(st, AndState):
                children = st.regions
            for child in children:
                out.add(child.name)
                stack.append(child)
        return out

    def direct_child_within(self, ancestor: str, name: str) -> str | None:
        """The direct substate of ``ancestor`` whose subtree holds ``name``,
        or None when ``name`` is not strictly inside ``ancestor``."""
        prev = name
        for anc in self.ancestors(name):
            if anc == ancestor:
                return prev
            prev = anc
        return None


# --- well-formedness ------------------------------------------------------

def check_well_formed(sc: StateChart) -> list[Violation]:
    """Returns every invariant breach in the machine; empty means well-formed.

    Violations are data, not failures: callers decide whether to stop.
    """
    out: list[Violation] = []
    idx = MachineIndex(sc)

    for name in idx.duplicate_states:
        out.append(Violation(name, "duplicate state name"))
    for name in idx.duplicate_transitions:
        out.append(Violation(name, "duplicate transition name"))
    # Deletion work-lists mix both namespaces, so names must not collide
    # across them either.
    for name in sorted(idx.states.keys() & idx.transitions.keys()):
        out.append(Violation(name, "name used by both a state and a transition"))

    for name, st in idx.states.items():
        if not valid_name(name):
            out.append(Violation(name, "invalid state name"))
        if isinstance(st, OrState):
            if not st.substates:
                out.append(Violation(name, "Or-state has no substates"))
            elif st.initial not in {s.name for s in st.substates}:
                out.append(Violation(
                    name, f"initial {st.initial!r} is not a direct substate"))
        elif isinstance(st, AndState):
            if len(st.regions) < 2:
                out.append(Violation(name, "And-state has fewer than 2 regions"))

    for tname, t in idx.transitions.items():
        if not valid_transition_name(tname):
            out.append(Violation(tname, "invalid transition name"))
        if not t.trigger:
            out.append(Violation(tname, "empty trigger"))
        for ev in t.trigger:
            if not valid_name(ev):
                out.append(Violation(tname, f"invalid event name {ev!r}"))
        out.extend(_check_endpoints(idx, t))
        for atom in t.cond.atoms:
            if isinstance(atom, InState) and atom.state not in idx.states:
                out.append(Violation(
                    tname, f"condition names unknown state {atom.state!r}"))
    return out


def _check_endpoints(idx: MachineIndex, t: Transition) -> list[Violation]:
    owner = idx.owner[t.name]
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

    def canon(state: State) -> State:
        if isinstance(state, SimpleState):
            return state
        if isinstance(state, OrState):
            return OrState(
                name=state.name,
                substates=tuple(sorted((canon(s) for s in state.substates),
                                       key=lambda s: s.name)),
                initial=state.initial,
                transitions=tuple(sorted(state.transitions,
                                         key=lambda t: t.name)),
                optional=state.optional,
            )
        return AndState(
            name=state.name,
            regions=tuple(sorted((canon(r) for r in state.regions),
                                 key=lambda r: r.name)),
            optional=state.optional,
        )

    root = canon(sc.root)
    assert isinstance(root, OrState)
    return StateChart(root)


def map_states(sc: StateChart, fn) -> StateChart:
    """Rebuilds the machine bottom-up, passing every state (with already
    rebuilt children) through ``fn``; ``fn`` may return a replacement or
    None to drop the state."""

    def rebuild(state: State) -> State | None:
        if isinstance(state, OrState):
            subs = tuple(s for s in (rebuild(c) for c in state.substates)
                         if s is not None)
            state = OrState(state.name, subs, state.initial,
                            state.transitions, state.optional)
        elif isinstance(state, AndState):
            regions = tuple(s for s in (rebuild(c) for c in state.regions)
                            if s is not None)
            state = AndState(state.name, regions, state.optional)
        return fn(state)

    root = rebuild(sc.root)
    if not isinstance(root, OrState):
        raise ValueError("root must remain an Or-state")
    return StateChart(root)
