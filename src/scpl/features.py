"""Feature-model validation, configuration validity, kernel computation,
and a brute-force configuration enumerator used as a testing oracle.
"""

from __future__ import annotations

from itertools import combinations

from .errors import TooLargeError, UnknownFeatureError
from .model import (Configuration, FeatureModel, RelationPair, Violation,
                    reached, valid_name)

ENUMERATION_CAP = 16


def _in_order(pairs) -> list[RelationPair]:
    """Relation pairs by parent, then by children: the validators report
    in this order, which no hash seed can change."""
    return sorted(pairs, key=lambda pair: (pair[0], sorted(pair[1])))


def validate_feature_model(fm: FeatureModel) -> list[Violation]:
    """Empty iff the model is a legal feature tree.

    Mandatory/optional pairs carry exactly one child; alternative and
    or-groups carry at least two (a one-element group is almost certainly
    an authoring error).  Every non-root feature must be the child of
    exactly one relation pair and the child graph must form a tree.

    Violations come in a fixed order: features sorted, then relation
    pairs by kind (mand, opt, alt, or) and ``_in_order`` within a kind,
    each pair's children sorted.
    """
    out: list[Violation] = []
    for f in sorted(fm.funcs):
        if not valid_name(f):
            out.append(Violation(f, "invalid feature name"))
    if fm.root not in fm.funcs:
        out.append(Violation(fm.root, "root is not a feature of the model"))

    child_parent_count: dict[str, int] = {}
    children: dict[str, set[str]] = {}
    for kind, pairs in (("mand", fm.mand), ("opt", fm.opt),
                        ("alt", fm.alt), ("or", fm.or_rel)):
        for parent, kids in _in_order(pairs):
            if parent not in fm.funcs:
                out.append(Violation(parent, f"{kind} parent is not a feature"))
            for c in sorted(kids):
                if c not in fm.funcs:
                    out.append(Violation(c, f"{kind} child is not a feature"))
                child_parent_count[c] = child_parent_count.get(c, 0) + 1
                children.setdefault(parent, set()).add(c)
            if kind in ("mand", "opt") and len(kids) != 1:
                out.append(Violation(
                    parent, f"{kind} child set must have exactly one element, "
                            f"got {sorted(kids)}"))
            if kind in ("alt", "or") and len(kids) < 2:
                out.append(Violation(
                    parent, f"{kind} group must have at least two children, "
                            f"got {sorted(kids)}"))

    if child_parent_count.get(fm.root):
        out.append(Violation(fm.root, "root appears as a child"))
    for c, n in child_parent_count.items():
        if n > 1:
            out.append(Violation(c, f"appears as a child in {n} relation pairs"))

    # Reachability from the root; with single parents this implies tree shape.
    if fm.root in fm.funcs:
        for f in sorted(fm.funcs - reached(fm.root, children)):
            out.append(Violation(f, "not reachable from the root"))
    return out


def validate_configuration(fm: FeatureModel, conf: Configuration) -> list[Violation]:
    """Empty iff ``conf`` is a valid configuration of ``fm``.

    Beyond the four selection conditions (root present, mandatory children
    forced, exactly one alternative, at least one of an or-group), the edge
    set must restrict the model's relations -- an edge with no children
    restricts none -- and connect every selected feature to the root as a
    tree.

    Raises UnknownFeatureError when the configuration names a feature the
    model does not know.  Violations come in a fixed order: each group of
    pairs is visited in ``_in_order``.
    """
    unknown = sorted((conf.selected | {p for p, _ in conf.edges}
                      | {c for _, cs in conf.edges for c in cs}) - fm.funcs)
    if unknown:
        raise UnknownFeatureError(f"unknown feature(s): {', '.join(unknown)}")

    out: list[Violation] = []
    selected = conf.selected
    if fm.root not in selected:
        out.append(Violation(fm.root, "root feature is not selected"))

    rel_pairs = {(p, cs) for _, p, cs in fm.relations()}
    below: dict[str, set[str]] = {}
    for parent, kids in _in_order(conf.edges):
        if parent not in selected:
            out.append(Violation(parent, "edge parent is not selected"))
        if not kids <= selected:
            out.append(Violation(
                parent, f"edge children {sorted(kids - selected)} not selected"))
        if not kids or not any(p == parent and kids <= cs
                               for p, cs in rel_pairs):
            out.append(Violation(
                parent, f"edge to {sorted(kids)} restricts no model relation"))
        below.setdefault(parent, set()).update(kids)

    # Condition (2): a selected parent forces its mandatory edges.
    for parent, kids in _in_order(fm.mand):
        if parent in selected and (parent, kids) not in conf.edges:
            out.append(Violation(
                parent, f"mandatory child {sorted(kids)[0]!r} edge missing"))

    # Condition (3): exactly one alternative child.
    for parent, kids in _in_order(fm.alt):
        if parent in selected:
            chosen = kids & selected
            if len(chosen) != 1:
                out.append(Violation(
                    parent, f"alternative group {sorted(kids)} needs exactly "
                            f"one selected child, got {sorted(chosen)}"))

    # Condition (4): at least one child of an or-group.
    for parent, kids in _in_order(fm.or_rel):
        if parent in selected and not kids & selected:
            out.append(Violation(
                parent, f"or-group {sorted(kids)} needs at least one "
                        "selected child"))

    # Tree shape: unique parent per selected non-root feature, and the
    # edge relation must reach every selected feature from the root.
    parents: dict[str, set[str]] = {}
    for p, kids in below.items():
        for c in kids:
            parents.setdefault(c, set()).add(p)
    for c, ps in sorted(parents.items()):
        if len(ps) > 1:
            out.append(Violation(c, f"selected under several parents {sorted(ps)}"))
    for f in sorted(selected - reached(fm.root, below)):
        out.append(Violation(f, "selected but not connected to the root"))
    return out


def kernel(fm: FeatureModel) -> frozenset[str]:
    """Features present in every configuration: the root plus every
    feature reached from it over mandatory edges."""
    mandatory: dict[str, set[str]] = {}
    for parent, kids in fm.mand:
        mandatory.setdefault(parent, set()).update(kids)
    return frozenset(reached(fm.root, mandatory))


def nsf(fm: FeatureModel, conf: Configuration) -> frozenset[str]:
    """Features the configuration leaves out."""
    return fm.funcs - conf.selected


def build_configuration(fm: FeatureModel, selected: frozenset[str]) -> Configuration:
    """Canonical configuration for a selection: one edge per relation pair
    whose parent is selected, restricted to the selected children."""
    edges = set()
    for _, parent, kids in fm.relations():
        if parent in selected:
            chosen = kids & selected
            if chosen:
                edges.add((parent, frozenset(chosen)))
    return Configuration(frozenset(selected), frozenset(edges))


def enumerate_configurations(fm: FeatureModel, cap: int = ENUMERATION_CAP) -> set[Configuration]:
    """Every valid configuration of the model, by exhaustive search over
    feature subsets with canonical edge reconstruction.  Brute force by
    design: this is the oracle the fast paths are tested against."""
    if len(fm.funcs) > cap:
        raise TooLargeError(
            f"{len(fm.funcs)} features exceed the enumeration cap of {cap}")
    rest = sorted(fm.funcs - {fm.root})
    out: set[Configuration] = set()
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            selected = frozenset(combo) | {fm.root}
            conf = build_configuration(fm, selected)
            if not validate_configuration(fm, conf):
                out.add(conf)
    return out
