"""On-disk formats: one JSON document per artifact, plus DOT export.

A product line travels as a single document holding the feature model, the
machine, and the feature-to-element mapping; configurations travel in
separate documents.  Dotted state paths ("A.B.C") are accepted anywhere a
state name is expected and resolved against the hierarchy; canonical
output always uses plain unique names.

The machine part of a product line is written straight from the model
values, each object's keys in ``sort_keys`` order; every other JSON
document the package writes, here and in the command line, goes through
``dump_json``.  Both write byte for byte the standard library's ``json``
output with a two-space indent and ASCII escapes.  Below Python 3.13 the
standard library produces indented output only through its pure-Python
encoder, which is two to three times slower and leaves reference cycles
behind on every call.  Reading a machine tests each field once, inline,
and builds a message only for a field that fails.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote_json
from typing import Any

from .errors import (DuplicateNameError, FormatSyntaxError,
                     InvalidInputError, UnknownReferenceError)
from .model import (AndState, Condition, Configuration, FeatureModel, Guard,
                    History, ImpEntry, ImpMapping, InState, MachineIndex,
                    OrState, SimpleState, State, StateChart, Transition,
                    _composite_violations)


def _loads(text: str) -> Any:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise FormatSyntaxError("document nests too deeply") from exc
    # A lone surrogate decodes from a \uD800-\uDFFF escape only, and no
    # output can encode it as UTF-8, so a document holding one is refused
    # here rather than where a name is first printed or written.
    if "\\u" in text:
        _refuse_lone_surrogates(doc)
    return doc


_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _refuse_lone_surrogates(doc) -> None:
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            if _SURROGATE.search(value):
                raise FormatSyntaxError(
                    f"string {value!r} holds a lone surrogate, which UTF-8 "
                    "cannot encode")
        elif isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)


def _expect(value, types, path: str, key: str = ""):
    """``value`` if it is an instance of ``types``, else a syntax error
    located at ``path + key``.  The two are joined only when the check
    fails, so a caller passes a parent's path and a constant suffix such
    as ``".name"`` and a passing check builds no string."""
    if not isinstance(value, types):
        want = types.__name__ if isinstance(types, type) else \
            "/".join(t.__name__ for t in types)
        raise FormatSyntaxError(f"{path}{key}: expected {want}, "
                                f"got {type(value).__name__}")
    return value


def _string_list(value, path: str, key: str = "") -> list[str]:
    """``value`` itself once it is a list of strings; an item that is not
    is reported at ``path + key`` and its index."""
    if not isinstance(value, list):
        _expect(value, list, path, key)
    for i, item in enumerate(value):
        if not isinstance(item, str):
            _expect(item, str, path, f"{key}[{i}]")
    return value


# --- feature models -------------------------------------------------------

def _relation_pairs(value, path: str) -> frozenset:
    _expect(value, list, path)
    out = set()
    for i, pair in enumerate(value):
        where = f"{path}[{i}]"
        _expect(pair, list, where)
        if len(pair) != 2:
            raise FormatSyntaxError(f"{where}: expected [parent, children]")
        parent = _expect(pair[0], str, where, "[0]")
        kids = _string_list(pair[1], where, "[1]")
        out.add((parent, frozenset(kids)))
    return frozenset(out)


def _feature_model_from_json(doc, path: str) -> FeatureModel:
    _expect(doc, dict, path)
    funcs = _string_list(doc.get("funcs", []), path, ".funcs")
    if len(funcs) != len(set(funcs)):
        dupes = sorted(f for f, n in Counter(funcs).items() if n > 1)
        raise DuplicateNameError(f"duplicate feature(s): {', '.join(dupes)}")
    return FeatureModel(
        funcs=frozenset(funcs),
        root=_expect(doc.get("root", ""), str, path, ".root"),
        mand=_relation_pairs(doc.get("mand", []), f"{path}.mand"),
        opt=_relation_pairs(doc.get("opt", []), f"{path}.opt"),
        alt=_relation_pairs(doc.get("alt", []), f"{path}.alt"),
        or_rel=_relation_pairs(doc.get("or", []), f"{path}.or"),
    )


def _feature_model_to_json(fm: FeatureModel) -> dict:
    def pairs(rel):
        return sorted([[p, sorted(cs)] for p, cs in rel])

    return {
        "funcs": sorted(fm.funcs),
        "root": fm.root,
        "mand": pairs(fm.mand),
        "opt": pairs(fm.opt),
        "alt": pairs(fm.alt),
        "or": pairs(fm.or_rel),
    }


# --- machines -------------------------------------------------------------

def _condition_from_json(value, path: str) -> Condition:
    """The ``cond`` of the transition at ``path``."""
    _expect(value, list, path, ".cond")
    atoms = []
    for i, atom in enumerate(value):
        where = f"{path}.cond[{i}]"
        _expect(atom, dict, where)
        if set(atom) == {"guard"}:
            atoms.append(Guard(_expect(atom["guard"], str, where, ".guard")))
        elif set(atom) == {"in"}:
            atoms.append(InState(_expect(atom["in"], str, where, ".in")))
        else:
            raise FormatSyntaxError(
                f"{where}: atom must be {{\"guard\": ...}} or "
                f"{{\"in\": ...}}")
    return Condition(tuple(atoms))


_HISTORY = {h.value: h for h in History}
# An absent ``cond`` or ``actions``, shared; no decoded value is either.
_TRUE, _NO_ACTIONS = Condition(), ()


def _transition_from_json(doc, path: str) -> Transition:
    if not isinstance(doc, dict):
        _expect(doc, dict, path)
    get = doc.get
    history = get("history", "none")
    # A list or an object cannot be looked up in a dict; it is refused like
    # any other unknown value.
    if not isinstance(history, str) or history not in _HISTORY:
        raise FormatSyntaxError(f"{path}.history: unknown value {history!r}")
    name, source, target = get("name", ""), get("source", ""), get("target", "")
    if not (isinstance(name, str) and isinstance(source, str)
            and isinstance(target, str)):
        _expect(name, str, path, ".name")
        _expect(source, str, path, ".source")
        _expect(target, str, path, ".target")
    trigger = tuple(_string_list(get("trigger", []), path, ".trigger"))
    cond, actions = get("cond", _TRUE), get("actions", _NO_ACTIONS)
    if cond is not _TRUE:
        cond = _condition_from_json(cond, path)
    if actions is not _NO_ACTIONS:
        actions = tuple(_string_list(actions, path, ".actions"))
    optional = get("optional", False)
    if not isinstance(optional, bool):
        _expect(optional, bool, path, ".optional")
    return Transition(name, source, target, trigger, cond, actions,
                      _HISTORY[history], optional)


def _state_from_json(doc, path: str) -> State:
    if not isinstance(doc, dict):
        _expect(doc, dict, path)
    get = doc.get
    kind, name, optional = get("kind"), get("name", ""), get("optional", False)
    if not (isinstance(name, str) and isinstance(optional, bool)):
        _expect(name, str, path, ".name")
        _expect(optional, bool, path, ".optional")
    if kind == "simple":
        return SimpleState(name, optional)
    if kind == "or":
        subs = get("substates", [])
        if not isinstance(subs, list):
            _expect(subs, list, path, ".substates")
        substates = tuple([_state_from_json(s, f"{path}.substates[{i}]")
                           for i, s in enumerate(subs)])
        ts = get("transitions", [])
        if not isinstance(ts, list):
            _expect(ts, list, path, ".transitions")
        transitions = tuple([
            _transition_from_json(t, f"{path}.transitions[{i}]")
            for i, t in enumerate(ts)])
        initial = get("initial", "")
        if not isinstance(initial, str):
            _expect(initial, str, path, ".initial")
        return OrState(name, substates, initial, transitions, optional)
    if kind == "and":
        regions = get("regions", [])
        if not isinstance(regions, list):
            _expect(regions, list, path, ".regions")
        return AndState(name, tuple([_state_from_json(r, f"{path}.regions[{i}]")
                                     for i, r in enumerate(regions)]),
                        optional)
    raise FormatSyntaxError(f"{path}.kind: expected simple/or/and, got {kind!r}")


# --- dotted-path resolution ----------------------------------------------

def _resolve_names(idx: MachineIndex) -> bool:
    """Resolves dotted state paths in the index's transitions (in-state
    atoms, then source and target) and then in its initial markers, in
    place, and rejects duplicate names and unknown references.  Only a
    transition or marker that names something other than a state is
    rewritten; returns whether any was."""
    if idx.duplicate_states:
        raise DuplicateNameError(
            f"duplicate state name(s): {', '.join(sorted(set(idx.duplicate_states)))}")
    if idx.duplicate_transitions:
        raise DuplicateNameError(
            "duplicate transition name(s): "
            f"{', '.join(sorted(set(idx.duplicate_transitions)))}")

    def resolve(name: str, context: str) -> str:
        if name in idx.states:
            return name
        if "." not in name:
            raise UnknownReferenceError(f"{context}: unknown state {name!r}")
        cursor, *rest = name.split(".")
        if cursor not in idx.states:
            raise UnknownReferenceError(
                f"{context}: unknown state {cursor!r} in path {name!r}")
        for part in rest:
            if part not in idx.states or idx.parent.get(part) != cursor:
                raise UnknownReferenceError(
                    f"{context}: {name!r} does not follow the hierarchy")
            cursor = part
        return cursor

    changed = False
    for name, t in idx.transitions.items():
        if t.source in idx.states and t.target in idx.states and not any(
                isinstance(a, InState) and a.state not in idx.states
                for a in t.cond.atoms):
            continue
        atoms = tuple(
            InState(resolve(a.state, f"transition {name!r} condition"))
            if isinstance(a, InState) else a
            for a in t.cond.atoms)
        idx.transitions[name] = Transition(
            name, resolve(t.source, f"transition {name!r} source"),
            resolve(t.target, f"transition {name!r} target"),
            t.trigger, Condition(atoms), t.actions, t.history, t.optional)
        changed = True
    for name, initial in idx.initial.items():
        if initial not in idx.states:
            idx.initial[name] = resolve(initial, f"initial of {name!r}")
            changed = True
    return changed


# --- mappings -------------------------------------------------------------

def _imp_from_json(doc, path: str, idx: MachineIndex) -> ImpMapping:
    _expect(doc, dict, path)
    states, transitions = idx.states, idx.transitions
    entries: dict[str, ImpEntry] = {}
    for feature, raw in doc.items():
        where = f"{path}.{feature}"
        _expect(raw, dict, where)
        elements = _string_list(raw.get("elements", []), where, ".elements")
        for el in elements:
            if el not in states and el not in transitions:
                raise UnknownReferenceError(
                    f"{where}: unknown element {el!r}")
        includes = _string_list(raw.get("includes", []), where, ".includes")
        entries[feature] = ImpEntry(frozenset(elements), frozenset(includes))
    return ImpMapping.from_dict(entries)


def _imp_to_json(imp: ImpMapping) -> dict:
    out = {}
    for feature, entry in sorted(imp.entries):
        doc: dict[str, Any] = {"elements": sorted(entry.elements)}
        if entry.includes:
            doc["includes"] = sorted(entry.includes)
        out[feature] = doc
    return out


# --- JSON output ----------------------------------------------------------

def _write_json(value, pad: str, sort_keys: bool, out: list[str]) -> None:
    # A module function, not a nested one: a recursive closure would tie
    # itself into a reference cycle that outlives the call.
    if isinstance(value, str):
        out.append(_quote_json(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        if all(isinstance(v, str) for v in value):
            out.append(_json_strings(value, pad))
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, sort_keys, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in sorted(value.items()) if sort_keys else value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote_json(key) + ": ")
            _write_json(item, inner, sort_keys, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def dump_json(value, sort_keys: bool = False) -> str:
    """``value`` as a JSON document with a two-space indent: the bytes the
    standard library writes for it with ``indent=2`` and ``sort_keys``.
    Takes str, bool, int, None, lists, tuples and dicts with str keys;
    anything else raises ``TypeError``."""
    out: list[str] = []
    _write_json(value, "", sort_keys, out)
    return "".join(out)


def _json_strings(values, pad: str) -> str:
    """A list of strings whose closing bracket sits at ``pad``."""
    if not values:
        return "[]"
    inner = "\n" + pad + "  "
    return f'[{inner}{("," + inner).join(map(_quote_json, values))}\n{pad}]'


def _write_items(items, pad: str, write, out: list[str]) -> None:
    """A list of states or transitions, each written by ``write``."""
    if not items:
        out.append("[]")
        return
    inner = pad + "  "
    sep = "[\n" + inner
    for item in items:
        out.append(sep)
        write(item, inner, out)
        sep = ",\n" + inner
    out.append("\n" + pad + "]")


def _write_transition(t: Transition, pad: str, out: list[str]) -> None:
    inner = pad + "  "
    fields = []
    if t.actions:
        fields.append('"actions": ' + _json_strings(t.actions, inner))
    if t.cond.atoms:
        cell = "\n" + inner + "  "
        fields.append('"cond": [' + ",".join(
            f'{cell}{{{cell}  "guard": {_quote_json(a.text)}{cell}}}'
            if isinstance(a, Guard) else
            f'{cell}{{{cell}  "in": {_quote_json(a.state)}{cell}}}'
            for a in t.cond.atoms) + "\n" + inner + "]")
    if t.history is not History.NONE:
        fields.append('"history": ' + _quote_json(t.history.value))
    fields.append('"name": ' + _quote_json(t.name))
    if t.optional:
        fields.append('"optional": true')
    fields.append(f'"source": {_quote_json(t.source)},\n{inner}'
                  f'"target": {_quote_json(t.target)},\n{inner}'
                  f'"trigger": {_json_strings(t.trigger, inner)}')
    out.append("{\n" + inner + (",\n" + inner).join(fields) + "\n" + pad + "}")


def _write_state(state: State, pad: str, out: list[str]) -> None:
    inner = pad + "  "
    sep = ",\n" + inner
    tail = sep + '"optional": true' if state.optional else ""
    name = _quote_json(state.name)
    if isinstance(state, OrState):
        out.append(f'{{\n{inner}"initial": {_quote_json(state.initial)}{sep}'
                   f'"kind": "or"{sep}"name": {name}{tail}{sep}"substates": ')
        _write_items(state.substates, inner, _write_state, out)
        out.append(sep + '"transitions": ')
        _write_items(state.transitions, inner, _write_transition, out)
    elif isinstance(state, AndState):
        out.append(f'{{\n{inner}"kind": "and"{sep}"name": {name}{tail}'
                   f'{sep}"regions": ')
        _write_items(state.regions, inner, _write_state, out)
    else:
        out.append(f'{{\n{inner}"kind": "simple"{sep}"name": {name}{tail}')
    out.append("\n" + pad + "}")


# --- public product-line API ----------------------------------------------

def parse_product_line(text: str) -> tuple[FeatureModel, StateChart, ImpMapping]:
    doc = _loads(text)
    _expect(doc, dict, "$")
    for key in ("feature_model", "statechart"):
        if key not in doc:
            raise FormatSyntaxError(f"$.{key}: missing")
    fm = _feature_model_from_json(doc["feature_model"], "$.feature_model")
    sc_doc = _expect(doc["statechart"], dict, "$.statechart")
    root = _state_from_json(sc_doc.get("root", {}), "$.statechart.root")
    if not isinstance(root, OrState):
        raise FormatSyntaxError("$.statechart.root: root must be an Or-state")
    sc = StateChart(root)
    idx = MachineIndex(sc)
    if _resolve_names(idx):
        sc = idx.freeze()
    imp = _imp_from_json(doc.get("imp", {}), "$.imp", idx)
    return fm, sc, imp


def serialize_product_line(fm: FeatureModel, sc: StateChart,
                           imp: ImpMapping) -> str:
    out = ['{\n  "feature_model": ']
    _write_json(_feature_model_to_json(fm), "  ", True, out)
    out.append(',\n  "imp": ')
    _write_json(_imp_to_json(imp), "  ", True, out)
    out.append(',\n  "statechart": {\n    "root": ')
    _write_state(sc.root, "    ", out)
    out.append("\n  }\n}\n")
    return "".join(out)


def parse_configuration(text: str) -> Configuration:
    doc = _loads(text)
    _expect(doc, dict, "$")
    selected = _string_list(doc.get("selected", []), "$.selected")
    return Configuration(
        selected=frozenset(selected),
        edges=_relation_pairs(doc.get("edges", []), "$.edges"),
    )


def serialize_configuration(conf: Configuration) -> str:
    doc = {
        "selected": sorted(conf.selected),
        "edges": sorted([[p, sorted(cs)] for p, cs in conf.edges]),
    }
    return dump_json(doc, sort_keys=True) + "\n"


# --- DOT export -----------------------------------------------------------

def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _edge_label(t: Transition) -> str:
    parts = [t.name + ": " + "::".join(t.trigger)]
    if t.cond.atoms:
        rendered = []
        for atom in t.cond.atoms:
            if isinstance(atom, InState):
                rendered.append(f"in {atom.state}")
            else:
                rendered.append(atom.text)
        parts.append("[" + " & ".join(rendered) + "]")
    label = " ".join(parts)
    if t.actions:
        label += " / " + "::".join(t.actions)
    return label


def _anchor(idx: MachineIndex, name: str) -> str:
    """Deterministic leaf node used to attach edges to a composite: the
    initial substate of an Or-state, the least-named region of an
    And-state, and so on down to a simple state.  A composite with no such
    substate is refused with its shape violation."""
    while name in idx.children:
        kids = idx.children[name]
        head = (idx.initial[name] if name in idx.initial
                else min(kids, default=None))
        if head not in kids:
            raise InvalidInputError(_composite_violations(idx, name))
        name = head
    return name


def _emit_state(idx: MachineIndex, name: str, depth: int,
                lines: list[str]) -> None:
    # A module function, not a nested one: a recursive closure would tie
    # the index and the lines into a reference cycle that outlives the call.
    pad = "  " * depth
    style = "dashed" if idx.states[name].optional else "solid"
    if name not in idx.children:
        lines.append(f"{pad}{_quote(name)} [style={style}];")
        return
    lines.append(f"{pad}subgraph {_quote('cluster_' + name)} {{")
    lines.append(f"{pad}  label={_quote(name)};")
    lines.append(f"{pad}  style={style};")
    if name in idx.initial:
        lines.append(f"{pad}  {_quote('__initial_' + name)} [shape=point];")
    for child in sorted(idx.children[name]):
        _emit_state(idx, child, depth + 1, lines)
    lines.append(f"{pad}}}")


def export_dot(sc: StateChart) -> str:
    """DOT digraph: composites as clusters, optional elements dashed,
    initial substates marked with a point node.  Output is deterministic:
    substates, regions, and edges appear sorted by name."""
    idx = MachineIndex(sc)
    lines = ["digraph statechart {", "  compound=true;", "  rankdir=LR;",
             "  node [shape=box];"]
    _emit_state(idx, sc.root.name, 1, lines)

    edges: list[str] = []
    for name, init in sorted(idx.initial.items()):
        attrs = ""
        if init in idx.children:
            attrs = f", lhead={_quote('cluster_' + init)}"
        edges.append(f"  {_quote('__initial_' + name)} -> "
                     f"{_quote(_anchor(idx, name))} [style=solid{attrs}];")
    for tname, t in sorted(idx.transitions.items()):
        attrs = [f"label={_quote(_edge_label(t))}",
                 f"style={'dashed' if t.optional else 'solid'}"]
        if t.source in idx.children:
            attrs.append(f"ltail={_quote('cluster_' + t.source)}")
        if t.target in idx.children:
            attrs.append(f"lhead={_quote('cluster_' + t.target)}")
        edges.append(f"  {_quote(_anchor(idx, t.source))} -> "
                     f"{_quote(_anchor(idx, t.target))} "
                     f"[{', '.join(attrs)}];")
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
