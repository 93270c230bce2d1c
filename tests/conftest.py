import pytest

from scpl import datasets
from scpl.features import build_configuration
from scpl.model import (Condition, FeatureModel, ImpEntry, ImpMapping,
                        OrState, SimpleState, StateChart, Transition)


@pytest.fixture(scope="session")
def mp():
    """(fm, sc, imp) of the bundled mobile-phone product line."""
    return datasets.mobile_phone()


@pytest.fixture(scope="session")
def mp_no_poly():
    return datasets.mobile_phone_no_poly()


@pytest.fixture(scope="session")
def mp_full():
    return datasets.mobile_phone_full()


def simple_chain(*, e1_optional=True, e2_optional=True):
    """Root containing A -> E1 -> E2 -> B, the two middle states optional."""
    root = OrState(
        name="Root",
        substates=(SimpleState("A"), SimpleState("E1", e1_optional),
                   SimpleState("E2", e2_optional), SimpleState("B")),
        initial="A",
        transitions=(
            Transition("t1", "A", "E1", ("a",)),
            Transition("t2", "E1", "E2", ("b",)),
            Transition("t3", "E2", "B", ("c",)),
        ),
    )
    return StateChart(root)


def line_for(sc, doomed_feature_elements):
    """A minimal fm/conf/imp deselecting one feature that maps to the
    given machine elements."""
    fm = FeatureModel(
        funcs=frozenset({"R", "F"}), root="R",
        opt=frozenset({("R", frozenset({"F"}))}))
    conf = build_configuration(fm, frozenset({"R"}))
    imp = ImpMapping.from_dict(
        {"F": ImpEntry(frozenset(doomed_feature_elements))})
    return fm, conf, imp


@pytest.fixture
def chain():
    return simple_chain()
