"""``formats.dump_json`` writes what ``json.dumps(value, indent=2)`` writes.

The reference is the standard library: its pure-Python encoder below
Python 3.13, its C encoder from 3.13 on, so the parity does not hang on
one implementation of it.  Each document the package writes is checked by
reading it back and encoding it again with the standard library.
"""

import itertools
import json
import random
from http import HTTPStatus

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_product_line_document
from scpl import datasets
from scpl.cli import main
from scpl.formats import (dump_json, serialize_configuration,
                          serialize_product_line)
from scpl.model import (AndState, Condition, Guard, History, ImpEntry,
                        ImpMapping, InState, OrState, SimpleState, StateChart,
                        Transition)
from scpl.strategy import generate_random_product_line, instantiate

_LARGE_BAND = {"max_depth": 3, "max_substates": 6, "max_features": 12}


def _reference(text: str, sort_keys: bool) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=sort_keys)


def _lines():
    yield "mobile-phone", (*datasets.mobile_phone(),
                           datasets.mobile_phone_no_poly())
    for seed in range(200):
        line = generate_random_product_line(seed)
        yield seed, (line.fm, line.sc, line.imp, line.conf)


def test_serialized_lines_and_configurations_match_the_standard_library():
    for name, (fm, sc, imp, conf) in _lines():
        for text in (serialize_product_line(fm, sc, imp),
                     serialize_configuration(conf)):
            assert text == _reference(text, True) + "\n", name


def test_serialized_instantiations_match_the_standard_library(mp, mp_full):
    fm, sc, imp = mp
    product = instantiate(fm, mp_full, sc, imp).statechart
    text = serialize_product_line(fm, product, ImpMapping())
    assert text == _reference(text, True) + "\n"


def _written_as_dicts(fm, sc, imp) -> str:
    return json.dumps(reference_product_line_document(fm, sc, imp),
                      indent=2, sort_keys=True) + "\n"


def _generated_lines():
    """Default seeds 0-1999, each as generated and instantiated, and
    large-band seeds 1500000-1500999 as generated."""
    for seed in range(2000):
        line = generate_random_product_line(seed)
        yield seed, line.fm, line.sc, line.imp
        product = instantiate(line.fm, line.conf, line.sc, line.imp)
        yield seed, line.fm, product.statechart, ImpMapping()
    for seed in range(1_500_000, 1_501_000):
        line = generate_random_product_line(seed, **_LARGE_BAND)
        yield seed, line.fm, line.sc, line.imp


def test_product_lines_are_written_as_their_dicts_would_be(mp, mp_full,
                                                           mp_no_poly):
    # The machine is written straight from the model values; the text must
    # be what writing the dicts it stands for gives.
    fm, sc, imp = mp
    cases = [("mobile-phone", fm, sc, imp)] + [
        ("mobile-phone product", fm,
         instantiate(fm, conf, sc, imp).statechart, imp)
        for conf in (mp_full, mp_no_poly)]
    for name, *line in itertools.chain(cases, _generated_lines()):
        assert serialize_product_line(*line) == _written_as_dicts(*line), name


_NAME_CHARACTERS = 'ab"\\\n\t \u00e9\u20ac\U0001f600\x00/'


def _hand_made_machine(rng: random.Random) -> StateChart:
    """A machine, well-formed or not, whose names mix quotes, backslashes,
    control characters, non-ASCII and the empty name, with every history
    marker, guards and in-state atoms, actions, optional flags, empty
    composites and empty triggers."""
    def name():
        return "".join(rng.choice(_NAME_CHARACTERS)
                       for _ in range(rng.randint(0, 4)))

    def names():
        return tuple(name() for _ in range(rng.randint(0, 2)))

    def transition():
        atoms = tuple(Guard(name()) if rng.random() < 0.5 else InState(name())
                      for _ in range(rng.randint(0, 2)))
        return Transition(name(), name(), name(), names(), Condition(atoms),
                          names(), rng.choice(list(History)),
                          rng.random() < 0.3)

    def state(depth):
        roll, optional = rng.random(), rng.random() < 0.3
        if depth > 3 or roll < 0.4:
            return SimpleState(name(), optional)
        kids = tuple(state(depth + 1) for _ in range(rng.randint(0, 3)))
        if roll < 0.8:
            return OrState(name(), kids, name(), tuple(
                transition() for _ in range(rng.randint(0, 3))), optional)
        return AndState(name(), kids, optional)

    return StateChart(OrState(name(), tuple(state(1) for _ in range(3)),
                              name(), (transition(),)))


def test_hand_made_machines_are_written_as_their_dicts_would_be(mp):
    fm, _, imp = mp
    texts = []
    for seed in range(500):
        sc = _hand_made_machine(random.Random(seed))
        text = serialize_product_line(fm, sc, imp)
        assert text == _written_as_dicts(fm, sc, imp), seed
        texts.append(text)
    # Every part the writer spells out itself occurred.
    joined = "".join(texts)
    for fragment in ('"history": "shallow"', '"history": "deep"',
                     '"guard": ', '"in": ', '"actions": [', '"trigger": []',
                     '"optional": true', '"substates": []', '"regions": []',
                     '"transitions": []', '"name": ""', "\\u0000",
                     "\\ud83d\\ude00", '\\"', "\\\\", "\\n", "\\t"):
        assert fragment in joined, fragment


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("writer")
    fm, sc, imp = datasets.mobile_phone()
    diverging = generate_random_product_line(
        5697, max_depth=2, max_substates=4, max_features=6)
    documents = {
        "mp.pl.json": serialize_product_line(fm, sc, imp),
        "mp.conf.json": serialize_configuration(
            datasets.mobile_phone_no_poly()),
        "div.pl.json": serialize_product_line(diverging.fm, diverging.sc,
                                              diverging.imp),
        "div.conf.json": serialize_configuration(diverging.conf),
        # Violations that name a feature outside ASCII.
        "bad.pl.json": serialize_product_line(fm, sc, ImpMapping.from_dict(
            {"G\u00f6st": ImpEntry(frozenset())})),
    }
    for name, text in documents.items():
        (base / name).write_text(text, encoding="utf-8")
    return base


@pytest.mark.parametrize("argv", [
    ["validate", "mp.pl.json"],
    ["validate", "bad.pl.json"],
    ["kernel", "mp.pl.json"],
    ["config-check", "mp.pl.json", "mp.conf.json"],
    ["nsc", "mp.pl.json", "mp.conf.json"],
    ["instantiate", "mp.pl.json", "mp.conf.json", "-o", "out.json",
     "--trace", "trace.json"],
    ["confluence", "div.pl.json", "div.conf.json", "--trials", "25"],
    ["fuzz", "--count", "3"],
], ids=lambda argv: " ".join(argv[:2]))
def test_cli_documents_match_the_standard_library(argv, files, capsys):
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    assert main([*argv, "--json"]) in (0, 1)
    out = capsys.readouterr().out
    assert out == _reference(out, True) + "\n"
    if argv[0] == "instantiate":
        for written, sort_keys in (("out.json", True), ("trace.json", False)):
            text = (files / written).read_text(encoding="utf-8")
            assert text == _reference(text, sort_keys) + "\n"


HOSTILE = st.text(st.characters(exclude_categories=())) | st.text(
    st.sampled_from('a"\\/\x00\x1f\x7f\n\t é☃\U0001d11e\ud800\udfff𐏿'))
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(
        min_value=-2**200, max_value=2**200) | st.sampled_from(HTTPStatus)
    | HOSTILE,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(HOSTILE, inner)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(VALUES, st.booleans())
def test_any_value_matches_the_standard_library(value, sort_keys):
    assert dump_json(value, sort_keys) == json.dumps(value, indent=2,
                                                     sort_keys=sort_keys)


@pytest.mark.parametrize("value", [
    1.5, [1, 2.0], {"a": {3}}, {1: "a"}, {"a": {None: 1}}])
def test_anything_else_is_a_type_error(value):
    with pytest.raises(TypeError):
        dump_json(value)
