"""Binding between feature models and machines: validation of the
feature-to-element mapping and computation of the non-selected component
set that drives rewriting.
"""

from __future__ import annotations

from .features import kernel, nsf
from .model import (Configuration, FeatureModel, ImpMapping, MachineIndex,
                    StateChart, Violation, reached)


def expanded_elements(imp: ImpMapping, feature: str) -> frozenset[str]:
    """Direct elements of a feature plus, transitively, the elements of the
    features its entry folds in.  Used for reporting and validation; the
    component-selection test below deliberately works on direct entries."""
    entries = imp.as_dict()
    folded = reached(feature, {f: e.includes for f, e in entries.items()})
    return frozenset().union(
        *(entries[f].elements for f in folded if f in entries))


def validate_imp(fm: FeatureModel, sc: StateChart, imp: ImpMapping) -> list[Violation]:
    """Empty iff the mapping is a legal partial function: defined only on
    non-kernel features of the model, mapping to optional machine elements."""
    return imp_violations(fm, MachineIndex(sc), imp)


def imp_violations(fm: FeatureModel, idx: MachineIndex,
                   imp: ImpMapping) -> list[Violation]:
    """``validate_imp`` over an index of the machine: each mapped element
    is looked up by name, so the cost follows the mapping, not the
    machine."""
    out: list[Violation] = []
    kern = kernel(fm)
    states, transitions = idx.states, idx.transitions
    for feature, entry in imp.entries:
        if feature not in fm.funcs:
            out.append(Violation(feature, "mapped feature is not in the model"))
        elif feature in kern:
            out.append(Violation(
                feature, "kernel features are always present and must not "
                         "be mapped"))
        if not entry.elements and not entry.includes:
            out.append(Violation(feature, "entry maps to nothing"))
        for el in sorted(entry.elements):
            st, t = states.get(el), transitions.get(el)
            if not ((st is not None and st.optional)
                    or (t is not None and t.optional)):
                out.append(Violation(
                    feature, f"element {el!r} is not an optional machine "
                             "element"))
        for inc in sorted(entry.includes):
            if inc not in fm.funcs:
                out.append(Violation(
                    feature, f"included feature {inc!r} is not in the model"))
            elif inc in kern:
                out.append(Violation(
                    feature, f"included feature {inc!r} is in the kernel"))
    return out


def nsc(fm: FeatureModel, conf: Configuration, sc: StateChart,
        imp: ImpMapping) -> frozenset[str]:
    """Machine elements to delete: those directly implementing some
    non-selected feature and no selected one.

    Only direct entries count for the sharing test.  A parent feature's
    ``includes`` mirror the union notation of the mapping and must not
    shield its children's elements, or deselecting a child while keeping
    the parent could never delete anything.
    """
    missing = nsf(fm, conf)
    doomed: set[str] = set()
    for feature, entry in imp.entries:
        if feature in missing:
            doomed |= entry.elements
    for feature, entry in imp.entries:
        if feature in conf.selected:
            doomed -= entry.elements
    return frozenset(doomed)
