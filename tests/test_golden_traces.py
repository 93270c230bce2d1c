"""Golden differential test for ``instantiate``.

``tests/data/golden_instantiate.json`` pins, for a fixed set of inputs, every
field of every trace step and a digest of the result machine in its exact
form (substates, regions and transitions in the order the rewrite left
them, not sorted), or the class and message of the error raised.  The file
was recorded before the rewrite core moved onto a mutable working tree, so
any drift in traces, transition order or error text shows up here.

Re-record only when a change is meant to alter traces or results, and say
so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_traces.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from conftest import line_for
from generators import generated_line
from scpl import datasets
from scpl.binding import nsc
from scpl.errors import ScplError
from scpl.model import (AndState, Condition, Guard, InState, OrState,
                        SimpleState, StateChart, Transition)
from scpl.strategy import instantiate

GOLDEN = Path(__file__).parent / "data" / "golden_instantiate.json"

# Generator seeds of the benchmark's ladder rungs (about 100, 300, 1k and
# 3k states) and the generator parameters they were drawn with.
LADDER_SEEDS = {"s100": 19, "s300": 0, "s1k": 1, "s3k": 242}
LADDER_GENERATOR = {"max_depth": 7, "max_substates": 8, "max_features": 24}
GENERATED_SEEDS = range(200)
INCLUDE_PENDING_SEEDS = range(50)


# --- exact form and outcomes ---------------------------------------------

def _atom(atom) -> tuple:
    if isinstance(atom, Guard):
        return ("guard", atom.text)
    return ("in", atom.state)


def _transition(t: Transition) -> tuple:
    return (t.name, t.source, t.target, t.trigger,
            tuple(_atom(a) for a in t.cond.atoms), t.actions,
            t.history.value, t.optional)


def exact_form(state) -> tuple:
    """Nested tuples that keep every field and every order of the machine."""
    if isinstance(state, OrState):
        return ("or", state.name, state.initial, state.optional,
                tuple(exact_form(s) for s in state.substates),
                tuple(_transition(t) for t in state.transitions))
    if isinstance(state, AndState):
        return ("and", state.name, state.optional,
                tuple(exact_form(r) for r in state.regions))
    return ("simple", state.name, state.optional)


def outcome(args, **kwargs) -> dict:
    """Trace and exact-form digest of one instantiation, or its error."""
    try:
        result = instantiate(*args, **kwargs)
    except ScplError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    machine = repr(exact_form(result.statechart.root)).encode("utf-8")
    return {
        "trace": [[s.rule, s.subject, list(s.removed_states),
                   list(s.removed_transitions), list(s.added_transitions),
                   s.detail] for s in result.trace],
        "machine": hashlib.sha256(machine).hexdigest(),
    }


# --- inputs ---------------------------------------------------------------

def T(name, src, tgt, trig=("e",), **kw):
    return Transition(name, src, tgt, trig, **kw)


def line_of(root: OrState, doomed: set[str]) -> tuple:
    """The machine under a minimal line that deletes ``doomed``."""
    sc = StateChart(root)
    fm, conf, imp = line_for(sc, doomed)
    return fm, conf, sc, imp


def _doomed_initial_cycle() -> tuple:
    root = OrState(
        "Root",
        (SimpleState("I", optional=True), SimpleState("J", optional=True),
         SimpleState("A")),
        "I", (T("t1", "I", "J"), T("t2", "J", "I"), T("t3", "A", "I")))
    return line_of(root, {"I", "J"})


def _doomed_initial_dead_end() -> tuple:
    root = OrState(
        "Root", (SimpleState("I", optional=True), SimpleState("A")), "I",
        (T("t", "A", "I"),))
    return line_of(root, {"I"})


def _repair_chains() -> tuple:
    inner = OrState(
        "C",
        (SimpleState("X", optional=True), SimpleState("Y", optional=True),
         SimpleState("Z")),
        "X", (T("x1", "X", "Y", ("p",)), T("x2", "Y", "Z", ("q",)),
              T("x3", "X", "Z", ("r",), optional=True)))
    root = OrState(
        "Root",
        (SimpleState("I", optional=True), SimpleState("J", optional=True),
         SimpleState("K", optional=True), SimpleState("A"), inner,
         SimpleState("B")),
        "I",
        (T("t1", "I", "J", ("a",)), T("t2", "J", "K", ("b",)),
         T("t3", "K", "A", ("c",)), T("t4", "J", "B", ("d",)),
         T("t5", "A", "C", ("e",)), T("t6", "Y", "B", ("f",)),
         T("t7", "C", "I", ("g",), cond=Condition((InState("Y"),)))))
    return line_of(root, {"I", "J", "K", "X", "Y", "x3"})


def _empty_and_region() -> tuple:
    par = AndState("P", (
        OrState("R1", (SimpleState("P1"), SimpleState("P2")), "P1",
                (T("p12", "P1", "P2"),)),
        OrState("R2", (SimpleState("U"), SimpleState("V")), "U",
                (T("uv", "U", "V"),), optional=True),
    ))
    root = OrState("Root", (SimpleState("A"), par), "A",
                   (T("in", "A", "P"), T("out", "V", "A")))
    return line_of(root, {"R2"})


def _dropped_region() -> tuple:
    par = AndState("P", (
        OrState("R1", (SimpleState("P1"), SimpleState("P2")), "P1",
                (T("p12", "P1", "P2", ("m",)),)),
        OrState("R2", (SimpleState("U"), SimpleState("V")), "U",
                (T("uv", "U", "V", ("m",)),), optional=True),
        OrState("R3", (SimpleState("W"),), "W"),
    ))
    root = OrState("Root", (SimpleState("A"), par), "A",
                   (T("in", "A", "P"), T("out", "V", "A"),
                    T("back", "P2", "A", cond=Condition((InState("U"),)))))
    return line_of(root, {"R2"})


def _composite_deletions() -> tuple:
    or_comp = OrState(
        "E", (SimpleState("X"), SimpleState("Y"), SimpleState("Z")), "X",
        (T("ixy", "X", "Y"), T("iyz", "Y", "Z", optional=True)),
        optional=True)
    and_comp = AndState("G", (
        OrState("R1", (SimpleState("P"), SimpleState("Q")), "P",
                (T("tpq", "P", "Q", ("m",),
                   cond=Condition((InState("V"),))),)),
        OrState("R2", (SimpleState("U"), SimpleState("V")), "U",
                (T("tuv", "U", "V", ("n",)),)),
    ), optional=True)
    root = OrState(
        "Root",
        (SimpleState("A"), or_comp, SimpleState("B"), and_comp,
         SimpleState("C", optional=True), SimpleState("D")),
        "A",
        (T("inE", "A", "E"), T("inY", "A", "Y"), T("outZ", "Z", "B"),
         T("outE", "E", "C"), T("inG", "B", "G"), T("inQ", "C", "Q"),
         T("outQ", "Q", "D"), T("outG", "G", "A"), T("cd", "C", "D"),
         T("loop", "C", "C"), T("guarded", "A", "D",
                                cond=Condition((Guard("g"), InState("X"))))))
    return line_of(root, {"E", "G", "C", "iyz"})


HAND_BUILT = {
    "doomed-initial-cycle": _doomed_initial_cycle,
    "doomed-initial-dead-end": _doomed_initial_dead_end,
    "repair-chains": _repair_chains,
    "empty-and-region": _empty_and_region,
    "dropped-region": _dropped_region,
    "composite-deletions": _composite_deletions,
}


def _reversed(args) -> dict:
    return {"order": sorted(nsc(args[0], args[1], args[2], args[3]),
                            reverse=True)}


def cases(group: str):
    """(case id, instantiate arguments, keyword arguments) of one group."""
    if group == "mobile-phone":
        fm, sc, imp = datasets.mobile_phone()
        full = datasets.mobile_phone_full()
        no_poly = datasets.mobile_phone_no_poly()
        yield "mp-full", (fm, full, sc, imp), {}
        yield "mp-no-poly", (fm, no_poly, sc, imp), {}
        yield "mp-no-poly:include-pending", (fm, no_poly, sc, imp), \
            {"include_pending": True}
    elif group == "ladder":
        for name, seed in LADDER_SEEDS.items():
            line = generated_line(seed, **LADDER_GENERATOR)
            yield name, tuple(line), {}
    elif group == "generated":
        for seed in GENERATED_SEEDS:
            line = tuple(generated_line(seed))
            yield f"{seed}", line, {}
            yield f"{seed}:reversed", line, _reversed(line)
        for seed in INCLUDE_PENDING_SEEDS:
            line = tuple(generated_line(seed))
            yield f"{seed}:include-pending", line, {"include_pending": True}
    else:
        for name, build in HAND_BUILT.items():
            yield name, build(), {}


GROUPS = ("mobile-phone", "ladder", "generated", "hand-built")


def record() -> dict:
    return {group: {case: outcome(args, **kwargs)
                    for case, args, kwargs in cases(group)}
            for group in GROUPS}


# --- the test -------------------------------------------------------------

@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", GROUPS)
def test_instantiate_matches_golden(golden, group):
    want = golden[group]
    got = {case: outcome(args, **kwargs)
           for case, args, kwargs in cases(group)}
    assert sorted(got) == sorted(want)
    drifted = [case for case in want if got[case] != want[case]]
    if drifted:
        first = drifted[0]
        pytest.fail(f"{len(drifted)} of {len(want)} {group} cases drifted, "
                    f"first {first!r}:\n got  {got[first]}\n want "
                    f"{want[first]}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=0, sort_keys=True) + "\n",
                      encoding="utf-8")
