"""``formats.dump_json`` writes what ``json.dumps(value, indent=2)`` writes.

The reference is the standard library: its pure-Python encoder below
Python 3.13, its C encoder from 3.13 on, so the parity does not hang on
one implementation of it.  Each document the package writes is checked by
reading it back and encoding it again with the standard library.
"""

import json
from http import HTTPStatus

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpl import datasets
from scpl.cli import main
from scpl.formats import (dump_json, serialize_configuration,
                          serialize_product_line)
from scpl.model import ImpEntry, ImpMapping
from scpl.strategy import generate_random_product_line, instantiate


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
