"""Guards against whole-machine work creeping back into the rewrite steps.

One instantiation walks its input once, into the working tree that
validation reads and the rules edit, and rebuilds the machine once, never
once per rule application; its output is checked on that tree, over the
edits alone or, without validation, whole.  A
confluence check indexes and validates its input once, not once per
order, runs the four layers once per distinct order of the layer-2
state deletions, and compares the trees it edited without rebuilding a
machine.  Parsing walks
the machine once and rebuilds it only to resolve a dotted path, and the
command line builds its argument parser once per process.  None of these,
nor the product-line generator that ``scpl fuzz`` runs per seed, leaves a
reference cycle behind.
Deleting an And-state searches each coupled component of its regions on
its own, never the product of all regions; within an instantiation no
region is coupled at all, since layer 1 prunes every in-state atom that
names a state inside a doomed one.
"""

import argparse
import contextlib
import gc
import io
import json
import random
import sys
from importlib import resources

import pytest

import scpl.model
import scpl.rewrite
import scpl.strategy
from conftest import S1K_GENERATOR, S1K_SEED, line_for
from scpl import cli, datasets
from scpl.formats import export_dot, parse_product_line
from scpl.model import (AndState, Condition, InState, MachineIndex, OrState,
                        SimpleState, StateChart, Transition, canonicalize)
from scpl.rewrite import PendingSet, delete_and_state
from scpl.strategy import (check_confluence, generate_random_product_line,
                           instantiate)

MP_TEXT = resources.files("scpl.data.mobile_phone").joinpath(
    "mp.pl.json").read_text(encoding="utf-8")


def _count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Wraps a method or a module's function by a counter, so that every
    call counts, a subclass's included: an index walk through the working
    tree's constructor counts as a ``MachineIndex.__init__`` call."""
    orig = getattr(owner, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_function(monkeypatch, name: str) -> list[int]:
    """Wraps a library function by a counter in every ``scpl`` module that
    binds it."""
    orig = getattr(scpl.model, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "scpl" and \
                getattr(module, name, None) is orig:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_instantiate_indexes_and_rebuilds_a_constant_number_of_times(
        monkeypatch):
    line = generate_random_product_line(S1K_SEED, **S1K_GENERATOR)
    assert len(MachineIndex(line.sc).states) == 1009
    indexes = _count_calls(monkeypatch, MachineIndex, "__init__")
    freezes = _count_calls(monkeypatch, MachineIndex, "freeze")
    for validate in (True, False):
        indexes[0] = freezes[0] = 0
        result = instantiate(*line, validate=validate)
        assert len(result.trace) > 100
        assert indexes[0] == 1, validate
        assert freezes[0] == 1, validate


def test_check_confluence_compares_trees_without_rebuilding(monkeypatch):
    line = generate_random_product_line(S1K_SEED, **S1K_GENERATOR)
    indexes = _count_calls(monkeypatch, MachineIndex, "__init__")
    freezes = _count_calls(monkeypatch, MachineIndex, "freeze")
    canonical = _count_function(monkeypatch, "canonicalize")
    report = check_confluence(*line, trials=10)
    assert report.trials == 10
    assert indexes[0] == 1
    assert freezes[0] == 0
    assert canonical[0] == 0


def test_check_confluence_runs_one_order_per_layer_two_projection(
        monkeypatch):
    # One doomed state and four doomed transitions: 5! orders, all with
    # the one state as their layer-2 projection.
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), SimpleState("B"), SimpleState("S", True)),
        "A", tuple(Transition(f"t{i}", "A", "B", (f"e{i}",), optional=True)
                   for i in range(4))))
    fm, conf, imp = line_for(sc, {"S", "t0", "t1", "t2", "t3"})
    runs = _count_calls(monkeypatch, scpl.strategy, "_rewrite")
    report = check_confluence(fm, conf, sc, imp, exhaustive=True)
    assert report.confluent
    assert report.trials == 120
    assert runs[0] == 1


def test_parse_walks_the_machine_once(monkeypatch):
    indexes = _count_calls(monkeypatch, MachineIndex, "__init__")
    parse_product_line(MP_TEXT)
    assert indexes[0] == 1


def _one_path_line(initial: str, source: str, in_state: str) -> str:
    return json.dumps({
        "feature_model": {"funcs": ["F"], "root": "F"},
        "statechart": {"root": {
            "kind": "or", "name": "Root", "initial": initial,
            "substates": [{"kind": "simple", "name": "A"},
                          {"kind": "simple", "name": "B"}],
            "transitions": [{"name": "t", "source": source, "target": "B",
                             "trigger": ["e"],
                             "cond": [{"in": in_state}]}]}}})


@pytest.mark.parametrize("initial, source, in_state", [
    pytest.param("Root.A", "A", "B", id="initial"),
    pytest.param("A", "Root.A", "B", id="source"),
    pytest.param("A", "A", "Root.B", id="in-state"),
])
def test_parse_rebuilds_the_machine_only_to_resolve_a_path(
        initial, source, in_state, monkeypatch):
    freezes = _count_calls(monkeypatch, MachineIndex, "freeze")
    parse_product_line(MP_TEXT)
    parse_product_line(_one_path_line("A", "A", "B"))
    assert freezes[0] == 0
    _, sc, _ = parse_product_line(_one_path_line(initial, source, in_state))
    assert freezes[0] == 1
    assert sc.root.initial == "A"
    assert sc.root.transitions == (
        Transition("t", "A", "B", ("e",), Condition((InState("B"),))),)


def test_the_command_line_builds_its_parser_once(monkeypatch, tmp_path):
    line = tmp_path / "mp.pl.json"
    line.write_text(MP_TEXT, encoding="utf-8")
    argv = ["kernel", str(line)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        parsers = _count_calls(monkeypatch, argparse.ArgumentParser,
                               "__init__")
        for _ in range(3):
            assert cli.main(argv) == 0
    assert parsers[0] == 0


def test_no_reference_cycles_are_left_behind(tmp_path):
    conf = datasets.mobile_phone_no_poly()
    line = generate_random_product_line(S1K_SEED, **S1K_GENERATOR)
    fm, sc, imp = parse_product_line(MP_TEXT)
    product = instantiate(fm, conf, sc, imp).statechart
    mp_path = tmp_path / "mp.pl.json"
    mp_path.write_text(MP_TEXT, encoding="utf-8")

    def quietly(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    # ``cli.main instantiate`` is left out: up to Python 3.12, ``json.dumps``
    # with ``indent`` runs the standard library's pure-Python encoder,
    # which builds recursive closures on every call.
    runs = [("parse_product_line", lambda: parse_product_line(MP_TEXT)),
            ("instantiate", lambda: instantiate(fm, conf, sc, imp)),
            ("canonicalize", lambda: canonicalize(sc)),
            ("check_confluence", lambda: check_confluence(*line, trials=10)),
            ("generate_random_product_line",
             lambda: generate_random_product_line(S1K_SEED, **S1K_GENERATOR)),
            ("export_dot", lambda: export_dot(product)),
            ("cli validate", lambda: quietly(["validate", str(mp_path)])),
            ("cli kernel", lambda: quietly(["kernel", str(mp_path)])),
            ("cli fuzz", lambda: quietly(["fuzz", "--count", "3"]))]
    for _, run in runs:  # first calls may fill caches
        run()
    gc.collect()
    gc.disable()
    try:
        for name, run in runs:
            run()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_check_confluence_checks_well_formedness_once(monkeypatch):
    line = generate_random_product_line(S1K_SEED, **S1K_GENERATOR)
    calls = [0]
    orig = scpl.model.well_formed_violations

    def counting(idx):
        calls[0] += 1
        return orig(idx)

    for module in (scpl.model, scpl.strategy):
        monkeypatch.setattr(module, "well_formed_violations", counting)
    report = check_confluence(*line, trials=10)
    assert report.trials == 10
    assert calls[0] == 1


def test_and_state_deletion_searches_uncoupled_regions_apart(monkeypatch):
    # 12 rings of 6 substates over three shared triggers, no in-state
    # atoms: 6**12 (about 2.2e9) tuples, but 12 components of 6 each.  The
    # triggers are drawn at random: a periodic pattern would keep the
    # regions in lockstep, and even the full product search small.
    rng = random.Random(3)
    regions = []
    for i in range(12):
        names = [f"R{i}S{j}" for j in range(6)]
        ring = tuple(Transition(f"r{i}t{j}", names[j], names[(j + 1) % 6],
                                (rng.choice("abc"),)) for j in range(6))
        regions.append(OrState(f"R{i}", tuple(SimpleState(n) for n in names),
                               names[0], ring))
    root = OrState(
        "Root",
        (SimpleState("In"), AndState("A", tuple(regions), True),
         SimpleState("OutX"), SimpleState("OutY")),
        "In",
        (Transition("enter", "In", "A", ("go",)),
         Transition("exitX", "R0S3", "OutX", ("x",)),
         Transition("exitY", "A", "OutY", ("y",))))
    sc = StateChart(root)
    orig = scpl.rewrite._tuple_search
    visited = [0]

    def counting(region_indices, start, moves):
        # Refuse a coupled search up front: it would run for hours.
        assert len(region_indices) == 1, "uncoupled regions searched jointly"
        found = orig(region_indices, start, moves)
        visited[0] += len(found)
        return found

    monkeypatch.setattr(scpl.rewrite, "_tuple_search", counting)
    fm, conf, imp = line_for(sc, {"A"})
    result = instantiate(fm, conf, sc, imp)
    assert 0 < visited[0] <= 72
    assert set(MachineIndex(result.statechart).transitions) == {
        "comp(enter,exitX)", "comp(enter,exitY)"}


def test_instantiate_never_searches_coupled_regions(monkeypatch):
    # R1's move waits for R2's B2, which couples the two regions; layer 1
    # prunes that atom before P is deleted, so instantiate searches each
    # region alone.  The public rule on the unpruned machine searches
    # them as one component, and both pair the entry with the exit.
    r1 = OrState("R1", (SimpleState("A1"), SimpleState("A2")), "A1",
                 (Transition("a", "A1", "A2", ("e",),
                             Condition((InState("B2"),))),))
    r2 = OrState("R2", (SimpleState("B1"), SimpleState("B2")), "B1",
                 (Transition("b", "B1", "B2", ("f",)),))
    sc = StateChart(OrState(
        "Root",
        (SimpleState("In"), SimpleState("Out"),
         AndState("P", (r1, r2), optional=True)),
        "In",
        (Transition("in", "In", "P", ("g",)),
         Transition("out", "A2", "Out", ("h",)))))
    orig = scpl.rewrite._tuple_search
    coupled: list[bool] = []

    def recording(region_indices, start, moves):
        coupled.append(any(needs for j in region_indices
                           for _, _, needs, _ in moves[j]))
        return orig(region_indices, start, moves)

    monkeypatch.setattr(scpl.rewrite, "_tuple_search", recording)
    fm, conf, imp = line_for(sc, {"P"})
    result = instantiate(fm, conf, sc, imp)
    assert coupled == [False, False]
    assert set(MachineIndex(result.statechart).transitions) == {
        "comp(in,out)"}
    coupled.clear()
    out = delete_and_state("P", sc, PendingSet({"P"}))
    assert coupled == [True]
    assert set(MachineIndex(out).transitions) == {"comp(in,out)"}
