"""Feature-model validation, configuration validity, kernel computation,
and a brute-force configuration enumerator used as a testing oracle.

Both validators test each rule in bulk, over all features, pairs or edges
at once, and look at single elements only when the test fails.  Each
violation found carries its report key; violations of one key keep the
order they are found in.  The violations are sorted by key once, so a
valid input is accepted without a sort and no hash seed changes a report.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter

from .errors import TooLargeError, UnknownFeatureError
from .model import (Configuration, FeatureModel, Violation, _invalid, reached,
                    valid_name)

ENUMERATION_CAP = 16
_KINDS = ("mand", "opt", "alt", "or")
_SHAPES = ("child set must have exactly one element",) * 2 \
    + ("group must have at least two children",) * 2


def validate_feature_model(fm: FeatureModel) -> list[Violation]:
    """Empty iff the model is a legal feature tree.

    Mandatory/optional pairs carry exactly one child; alternative and
    or-groups carry at least two (a one-element group is almost certainly
    an authoring error).  Every non-root feature must be the child of
    exactly one relation pair and the child graph must form a tree.

    The report is in key order: invalid names by name; a root that is no
    feature; the relation pairs by kind (mand, opt, alt, or), parent and
    sorted children, each with its unknown parent, unknown children by
    name and cardinality; the root as a child; each child of several pairs
    at the first pair holding it; unreachable features by name.
    """
    funcs, root = fm.funcs, fm.root
    found = [((0, f), Violation(f, "invalid feature name"))
             for f in _invalid(funcs, valid_name)]
    if root not in funcs:
        found.append(((1,), Violation(root, "root is not a feature of the model")))
    children: dict[str, list[str]] = {}
    shapely = True
    for k, pairs in enumerate((fm.mand, fm.opt, fm.alt, fm.or_rel)):
        for parent, kids in pairs:
            children.setdefault(parent, []).extend(kids)
            if len(kids) != 1 if k < 2 else len(kids) < 2:
                shapely = False
    union = set().union(*children.values())
    if not (shapely and children.keys() <= funcs and union <= funcs
            and sum(map(len, children.values())) == len(union)):
        holders: dict[str, list[tuple]] = {}
        for kind, parent, kids in fm.relations():
            key = (2, _KINDS.index(kind), parent, sorted(kids))
            if parent not in funcs:
                found.append((key, Violation(
                    parent, f"{kind} parent is not a feature")))
            for c in key[3]:
                if c not in funcs:
                    found.append((key, Violation(c, f"{kind} child is not a feature")))
                holders.setdefault(c, []).append(key)
            if len(kids) != 1 if kind in ("mand", "opt") else len(kids) < 2:
                found.append((key, Violation(
                    parent, f"{kind} {_SHAPES[key[1]]}, got {key[3]}")))
        found += [((4, min(keys), c), Violation(
            c, f"appears as a child in {len(keys)} relation pairs"))
            for c, keys in holders.items() if len(keys) > 1]
    if root in union:
        found.append(((3,), Violation(root, "root appears as a child")))
    if root in funcs:
        for f in funcs - reached(root, children):
            found.append(((5, f), Violation(f, "not reachable from the root")))
    return [v for _, v in sorted(found, key=itemgetter(0))] if found else []


def validate_configuration(fm: FeatureModel, conf: Configuration) -> list[Violation]:
    """Empty iff ``conf`` is a valid configuration of ``fm``.

    Beyond the four selection conditions (root present, mandatory children
    forced, exactly one alternative, at least one of an or-group), the edge
    set must restrict the model's relations -- an edge with no children
    restricts none -- and connect every selected feature to the root as a
    tree.  A mandatory pair with no child forces no edge.

    Raises UnknownFeatureError, naming them sorted, when the configuration
    names features the model does not know.  The report is in key order:
    an unselected root; the edges by parent and sorted children, each with
    its unselected parent, unselected children and whether it restricts no
    relation; the mandatory, alternative and or-group pairs, in that
    order, by parent and sorted children; children with several parents,
    then unconnected features, by name.
    """
    funcs, root, selected, edges = fm.funcs, fm.root, conf.selected, conf.edges
    below: dict[str, list[str]] = {}
    for parent, kids in edges:
        below.setdefault(parent, []).extend(kids)
    union = set().union(*below.values())
    if not (selected <= funcs and union <= funcs and below.keys() <= funcs):
        unknown = sorted((selected | union | below.keys()) - funcs)
        raise UnknownFeatureError(f"unknown feature(s): {', '.join(unknown)}")
    found = []
    if root not in selected:
        found.append(((0,), Violation(root, "root feature is not selected")))
    # Only an edge that is no model pair, or has no child, can restrict none.
    loose = set(edges.difference(fm.mand, fm.opt, fm.alt, fm.or_rel))
    if frozenset() in map(itemgetter(1), edges):
        loose.update(edge for edge in edges if not edge[1])
    if loose:
        # A pair the edge restricts holds each of its children, so only
        # the pairs holding its first child are looked at.
        holding: dict[str, list[tuple[str, frozenset[str]]]] = {
            next(iter(kids)): [] for _, kids in loose if kids}
        for pairs in (fm.mand, fm.opt, fm.alt, fm.or_rel):
            for pair in pairs:
                for c in pair[1]:
                    if c in holding:
                        holding[c].append(pair)
        for edge in tuple(loose):
            parent, kids = edge
            if kids and any(p == parent and kids <= cs for p, cs in
                            holding[next(iter(kids))]):
                loose.discard(edge)
    if loose or not (below.keys() <= selected and union <= selected):
        for parent, kids in edges:
            key = (1, parent, sorted(kids))
            if parent not in selected:
                found.append((key, Violation(parent, "edge parent is not selected")))
            if not kids <= selected:
                found.append((key, Violation(
                    parent, f"edge children {sorted(kids - selected)} not selected")))
            if (parent, kids) in loose:
                found.append((key, Violation(
                    parent, f"edge to {key[2]} restricts no model relation")))
    # Conditions (2)-(4): mandatory edges, one alternative, an or-group child.
    for parent, kids in fm.mand - edges:
        if kids and parent in selected:
            found.append(((2, parent, sorted(kids)), Violation(
                parent, f"mandatory child {min(kids)!r} edge missing")))
    for parent, kids in fm.alt:
        if parent in selected and len(kids & selected) != 1:
            found.append(((3, parent, sorted(kids)), Violation(
                parent, f"alternative group {sorted(kids)} needs exactly "
                        f"one selected child, got {sorted(kids & selected)}")))
    for parent, kids in fm.or_rel:
        if parent in selected and kids.isdisjoint(selected):
            found.append(((4, parent, sorted(kids)), Violation(
                parent, f"or-group {sorted(kids)} needs at least one "
                        "selected child")))
    # Tree shape: unique parent per selected non-root feature, and the
    # edge relation must reach every selected feature from the root.
    if sum(map(len, below.values())) != len(union):
        parents: dict[str, set[str]] = {}
        for p, kids in edges:
            for c in kids:
                parents.setdefault(c, set()).add(p)
        found += [((5, c), Violation(c, f"selected under several parents {sorted(ps)}"))
                  for c, ps in parents.items() if len(ps) > 1]
    for f in selected - reached(root, below):
        found.append(((6, f), Violation(f, "selected but not connected to the root")))
    return [v for _, v in sorted(found, key=itemgetter(0))] if found else []


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
