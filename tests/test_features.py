import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import S1K_GENERATOR
from generators import generated_line, inject_feature_faults
from oracles import (all_valid_selections, reference_configuration_violations,
                     reference_feature_model_violations, valid_selection)
from scpl.errors import TooLargeError, UnknownFeatureError
from scpl.features import (build_configuration, enumerate_configurations,
                           kernel, nsf, validate_configuration,
                           validate_feature_model)
from scpl.model import Configuration, FeatureModel
from scpl.strategy import generate_random_product_line


def test_validate_feature_model_accepts_good_tree():
    fm = FeatureModel(
        funcs=frozenset({"R", "A", "B", "C"}),
        root="R",
        mand=frozenset({("R", frozenset({"A"}))}),
        or_rel=frozenset({("A", frozenset({"B", "C"}))}),
    )
    assert validate_feature_model(fm) == []


def test_validate_feature_model_rejects_bad_cardinalities():
    fm = FeatureModel(
        funcs=frozenset({"R", "A", "B"}),
        root="R",
        mand=frozenset({("R", frozenset({"A", "B"}))}),
    )
    assert any("exactly one" in v.message for v in validate_feature_model(fm))
    fm = FeatureModel(
        funcs=frozenset({"R", "A"}),
        root="R",
        alt=frozenset({("R", frozenset({"A"}))}),
    )
    assert any("at least two" in v.message for v in validate_feature_model(fm))


def test_validate_feature_model_rejects_multiple_parents():
    fm = FeatureModel(
        funcs=frozenset({"R", "A", "B"}),
        root="R",
        mand=frozenset({("R", frozenset({"A"})), ("R", frozenset({"B"})),
                        ("A", frozenset({"B"}))}),
    )
    assert any("2 relation pairs" in v.message
               for v in validate_feature_model(fm))


def test_validate_feature_model_rejects_unreachable():
    fm = FeatureModel(funcs=frozenset({"R", "A"}), root="R")
    assert any("not reachable" in v.message for v in validate_feature_model(fm))


def test_validate_feature_model_rejects_root_as_child():
    fm = FeatureModel(
        funcs=frozenset({"R", "A"}),
        root="R",
        mand=frozenset({("R", frozenset({"A"})), ("A", frozenset({"R"}))}),
    )
    assert any("root appears as a child" in v.message
               for v in validate_feature_model(fm))


@pytest.mark.parametrize("fm, violation", [
    (FeatureModel(frozenset({"R", "a b"}), "R",
                  opt=frozenset({("R", frozenset({"a b"}))})),
     "a b: invalid feature name"),
    (FeatureModel(frozenset({"R"}), "Z"),
     "Z: root is not a feature of the model"),
    (FeatureModel(frozenset({"R", "A"}), "R",
                  mand=frozenset({("Q", frozenset({"A"}))})),
     "Q: mand parent is not a feature"),
    (FeatureModel(frozenset({"R"}), "R",
                  mand=frozenset({("R", frozenset({"X"}))})),
     "X: mand child is not a feature"),
], ids=["invalid-name", "unknown-root", "unknown-parent", "unknown-child"])
def test_validate_feature_model_names_unknown_and_invalid_features(
        fm, violation):
    assert violation in [str(v) for v in validate_feature_model(fm)]


_DIAMOND = FeatureModel(
    frozenset({"R", "A", "B", "C"}), "R",
    mand=frozenset({("R", frozenset({"A"})), ("R", frozenset({"B"}))}),
    opt=frozenset({("A", frozenset({"C"})), ("B", frozenset({"C"}))}))


@pytest.mark.parametrize("selected, edges, violation", [
    ({"R", "A"}, {("R", frozenset({"A"})), ("B", frozenset())},
     "B: edge parent is not selected"),
    ({"R"}, {("R", frozenset({"A"}))},
     "R: edge children ['A'] not selected"),
    ({"R", "A", "B", "C"},
     {("R", frozenset({"A"})), ("R", frozenset({"B"})),
      ("A", frozenset({"C"})), ("B", frozenset({"C"}))},
     "C: selected under several parents ['A', 'B']"),
    ({"R", "A", "B"},
     {("R", frozenset({"A"})), ("R", frozenset({"B"})), ("A", frozenset())},
     "A: edge to [] restricts no model relation"),
    ({"R", "A", "B"},
     {("R", frozenset({"A"})), ("R", frozenset({"B"})),
      ("A", frozenset({"B"}))},
     "A: edge to ['B'] restricts no model relation"),
], ids=["edge-from-unselected", "edge-to-unselected", "two-parents",
        "edge-to-no-child", "edge-outside-the-model"])
def test_validate_configuration_names_edge_breaches(selected, edges,
                                                    violation):
    conf = Configuration(frozenset(selected), frozenset(edges))
    assert violation in [str(v) for v in validate_configuration(_DIAMOND,
                                                                conf)]


def test_an_empty_mandatory_pair_forces_no_edge():
    # The missing-edge message names the pair's first child; a pair with
    # none forces no edge, so there is nothing to report, and no IndexError.
    fm = FeatureModel(frozenset({"R", "A"}), "R",
                      mand=frozenset({("R", frozenset())}),
                      opt=frozenset({("R", frozenset({"A"}))}))
    assert "R: mand child set must have exactly one element, got []" in [
        str(v) for v in validate_feature_model(fm)]
    assert validate_configuration(fm, Configuration(frozenset({"R"}))) == []


def test_validate_configuration_unknown_feature_raises():
    fm = FeatureModel(funcs=frozenset({"R"}), root="R")
    with pytest.raises(UnknownFeatureError):
        validate_configuration(fm, Configuration(frozenset({"R", "X"})))


def test_validate_configuration_requires_root():
    fm = FeatureModel(funcs=frozenset({"R"}), root="R")
    out = validate_configuration(fm, Configuration(frozenset()))
    assert any("root" in v.message for v in out)


def test_validate_configuration_accepts_singleton_group_edges():
    # An or-group selection may be recorded as several singleton edges
    # restricting the same relation pair.
    fm = FeatureModel(
        funcs=frozenset({"R", "A", "B"}),
        root="R",
        or_rel=frozenset({("R", frozenset({"A", "B"}))}),
    )
    conf = Configuration(
        frozenset({"R", "A", "B"}),
        frozenset({("R", frozenset({"A"})), ("R", frozenset({"B"}))}))
    assert validate_configuration(fm, conf) == []


def test_validate_configuration_rejects_disconnected_selection():
    fm = FeatureModel(
        funcs=frozenset({"R", "A"}),
        root="R",
        opt=frozenset({("R", frozenset({"A"}))}),
    )
    conf = Configuration(frozenset({"R", "A"}), frozenset())
    assert any("not connected" in v.message
               for v in validate_configuration(fm, conf))


def test_a_long_feature_chain_is_validated_in_linear_time():
    # Scanning every relation pair per configuration edge is quadratic:
    # about 2.3 s at 8,000 features, and some 22 s on this chain of 20,000
    # optional features.
    names = [f"F{i}" for i in range(20_000)]
    fm = FeatureModel(
        funcs=frozenset(names), root=names[0],
        opt=frozenset((a, frozenset({b})) for a, b in zip(names, names[1:])))
    conf = build_configuration(fm, fm.funcs)
    start = time.perf_counter()
    violations = validate_configuration(fm, conf)
    assert time.perf_counter() - start < 1.0
    assert violations == []


def test_a_wide_feature_model_is_validated_in_linear_time():
    # Looking each restricting edge up among all pairs of its parent is
    # quadratic: about 0.5 s at 5,000 groups, and some 50 s on this root
    # of 50,000 alternative groups, each restricted to one child.
    kids = [(f"A{i}", f"B{i}") for i in range(50_000)]
    fm = FeatureModel(
        funcs=frozenset({"R"}.union(*kids)), root="R",
        alt=frozenset(("R", frozenset(pair)) for pair in kids))
    conf = build_configuration(fm, frozenset({"R"} | {a for a, _ in kids}))
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        violations = validate_configuration(fm, conf)
        timings.append(time.perf_counter() - start)
        assert violations == []
    assert min(timings) < 1.0


def test_kernel_is_mandatory_closure():
    fm = FeatureModel(
        funcs=frozenset({"R", "A", "B", "C"}),
        root="R",
        mand=frozenset({("R", frozenset({"A"})), ("A", frozenset({"B"}))}),
        opt=frozenset({("R", frozenset({"C"}))}),
    )
    assert kernel(fm) == frozenset({"R", "A", "B"})


def test_nsf_is_set_difference():
    fm = FeatureModel(funcs=frozenset({"R", "A"}), root="R",
                      opt=frozenset({("R", frozenset({"A"}))}))
    conf = build_configuration(fm, frozenset({"R"}))
    assert nsf(fm, conf) == frozenset({"A"})


def test_enumerate_configurations_cap():
    funcs = frozenset(f"F{i}" for i in range(20))
    fm = FeatureModel(funcs=funcs, root="F0")
    with pytest.raises(TooLargeError):
        enumerate_configurations(fm)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_enumeration_matches_selection_oracle(seed):
    fm = generate_random_product_line(seed, max_features=7).fm
    assert validate_feature_model(fm) == []
    expected = all_valid_selections(fm)
    got = {c.selected for c in enumerate_configurations(fm)}
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_kernel_is_intersection_of_valid_selections(seed):
    fm = generate_random_product_line(seed, max_features=7).fm
    selections = all_valid_selections(fm)
    assert selections, "every tree model has at least one valid selection"
    inter = frozenset.intersection(*selections)
    assert kernel(fm) == inter


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_build_configuration_of_valid_selection_validates(seed):
    fm = generate_random_product_line(seed, max_features=7).fm
    for sel in all_valid_selections(fm):
        conf = build_configuration(fm, sel)
        assert validate_configuration(fm, conf) == []


def test_oracle_and_validator_reject_alike():
    fm = FeatureModel(
        funcs=frozenset({"R", "A", "B", "C"}),
        root="R",
        alt=frozenset({("R", frozenset({"A", "B"}))}),
        opt=frozenset({("R", frozenset({"C"}))}),
    )
    both_alt = frozenset({"R", "A", "B"})
    assert not valid_selection(fm, both_alt)
    conf = build_configuration(fm, both_alt)
    assert validate_configuration(fm, conf) != []


# Both validators over a broken model and a broken configuration whose
# violations would come out in frozenset order: several invalid feature
# names, several pairs of one relation kind, several edges.
_MANY_VIOLATIONS = textwrap.dedent("""
    from scpl.features import validate_configuration, validate_feature_model
    from scpl.model import Configuration, FeatureModel

    F = frozenset
    broken = FeatureModel(
        F({"R", "a b", "c.d", "e,f", "G", "H"}), "R",
        mand=F({("R", F({"G"})), ("G", F({"x", "y"}))}),
        opt=F({("R", F({"H"})), ("H", F({"z"}))}),
        alt=F({("R", F({"a b"})), ("G", F({"c.d", "e,f"}))}),
        or_rel=F({("H", F({"q"})), ("R", F({"r"}))}))
    fm = FeatureModel(
        F("RABCDEGHIJKL"), "R",
        mand=F({("R", F("A")), ("R", F("B")), ("A", F("K"))}),
        alt=F({("A", F("CD")), ("B", F("EG"))}),
        or_rel=F({("R", F("HI")), ("A", F("JL"))}))
    conf = Configuration(F("RABCDEG"), F({("R", F("A")), ("C", F("D")),
                                          ("D", F("E")), ("B", F("EG"))}))
    for v in validate_feature_model(broken) + validate_configuration(fm, conf):
        print(v)
""")


def test_violation_order_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _MANY_VIOLATIONS], env=env, check=True,
            capture_output=True, text=True, timeout=60).stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 26
    assert lines[:3] == ["a b: invalid feature name",
                         "c.d: invalid feature name",
                         "e,f: invalid feature name"]


# Every message of the two feature checks, by a fragment of its text.
_FEATURE_MESSAGES = (
    "invalid feature name", "root is not a feature of the model",
    "parent is not a feature", "child is not a feature",
    "child set must have exactly one element",
    "group must have at least two children", "root appears as a child",
    "relation pairs", "not reachable from the root",
    "root feature is not selected", "edge parent is not selected",
    "edge children", "restricts no model relation", "edge missing",
    "needs exactly one selected child", "needs at least one selected child",
    "selected under several parents", "selected but not connected to the root")
_LARGE_BAND = {"max_depth": 3, "max_substates": 6, "max_features": 12}


def _outcome(check, *args):
    """The check's violations, or the text of the UnknownFeatureError it
    raised."""
    try:
        return check(*args)
    except UnknownFeatureError as exc:
        return str(exc)


def test_feature_checks_equal_the_reference_on_faulty_lines():
    # Default, large-band and ladder-generator lines, each as generated and
    # with faults; every message must be hit, so the fault mix cannot be
    # tuned down to hide a failure.
    found = dict.fromkeys(_FEATURE_MESSAGES + ("unknown feature(s)",), 0)
    for generator, seeds in (({}, range(2000)),
                             (_LARGE_BAND, range(1_500_000, 1_501_000)),
                             (S1K_GENERATOR, range(200))):
        for seed in seeds:
            line = generated_line(seed, **generator)
            for fm, conf in ((line.fm, line.conf), inject_feature_faults(
                    line.fm, line.conf, random.Random(seed))):
                model = validate_feature_model(fm)
                assert model == reference_feature_model_violations(fm), seed
                config = _outcome(validate_configuration, fm, conf)
                assert config == _outcome(
                    reference_configuration_violations, fm, conf), seed
                if isinstance(config, str):
                    found["unknown feature(s)"] += 1
                    config = []
                for v in model + config:
                    for fragment in _FEATURE_MESSAGES:
                        found[fragment] += fragment in v.message
    assert min(found.values()) >= 20, found
