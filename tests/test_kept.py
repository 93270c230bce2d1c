"""What ``instantiate`` and ``check_confluence`` keep on a machine object
is invisible: every call gives what it gives on a fresh machine, the
kept tree is never edited, the verdict is drawn again for other feature
model or mapping objects, and nothing outlives the machine."""

import contextlib
import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest

from conftest import S1K_GENERATOR, S1K_SEED, line_for
from generators import generated_line, inject_transition_faults
from scpl.binding import nsc
from scpl.errors import ScplError
from scpl.features import build_configuration
from scpl.model import (FeatureModel, ImpEntry, ImpMapping, OrState,
                        SimpleState, StateChart, Transition)
from scpl.rewrite import WorkingTree
from scpl.strategy import (GeneratedLine, check_confluence,
                           generate_random_product_line, instantiate,
                           validate_inputs)
from test_strategy import DIVERGENT_LINES, LARGE_BAND


def _outcome(run):
    """A result as its machine and the ``repr`` of its trace, or an error
    as its code, its violations and its text."""
    try:
        result = run()
    except ScplError as exc:
        return exc.code, getattr(exc, "violations", None), str(exc)
    return result.statechart, repr(result.trace)


def _assert_invisible(line: GeneratedLine, *, validate: bool = True) -> None:
    """Three calls on ``line``, which no call has met yet, give what one
    call on a deep copy of its machine gives; the tree then kept is a fresh tree of the
    machine, and the machine pickles as before.  On a twin machine, an
    instantiation under the reversed order after a check gives what it
    gives on a fresh one."""
    untouched = pickle.dumps(line.sc)

    def twin():
        return line._replace(sc=pickle.loads(untouched))

    expected = _outcome(lambda: instantiate(
        *line._replace(sc=copy.deepcopy(line.sc)), validate=validate))
    for _ in range(3):
        assert _outcome(lambda: instantiate(*line, validate=validate)) \
            == expected
    assert vars(line.sc._kept.tree) == vars(WorkingTree(line.sc))
    assert pickle.dumps(line.sc) == untouched

    order = sorted(nsc(line.fm, line.conf, line.sc, line.imp), reverse=True)
    checked = twin()
    with contextlib.suppress(ScplError):
        check_confluence(*checked, trials=4)
    assert _outcome(lambda: instantiate(*checked, order=order,
                                        validate=validate)) \
        == _outcome(lambda: instantiate(*twin(), order=order,
                                        validate=validate))


def test_kept_state_is_invisible_on_generated_lines():
    lines = ([(seed, {}) for seed in range(2000)]
             + [(seed, LARGE_BAND) for seed in range(1_500_000, 1_501_000)]
             + DIVERGENT_LINES)
    for seed, generator in lines:
        _assert_invisible(generate_random_product_line(seed, **generator))


@pytest.mark.parametrize("validate", [True, False])
def test_kept_state_is_invisible_on_transition_faults(validate):
    faulty = 0
    for seed in range(500):
        line = generated_line(seed)
        sc = inject_transition_faults(line.sc, random.Random(seed))
        faulty += sc != line.sc
        _assert_invisible(line._replace(sc=sc), validate=validate)
    assert faulty > 100


def _mapped_line():
    """A machine whose optional E implements the optional feature F, and
    a mapping that maps F to the non-optional A instead."""
    sc = StateChart(OrState(
        "Root", (SimpleState("A"), SimpleState("E", True), SimpleState("B")),
        "A", (Transition("ae", "A", "E", ("a",)),
              Transition("eb", "E", "B", ("b",)))))
    fm, conf, imp = line_for(sc, {"E"})
    bad_imp = ImpMapping.from_dict({"F": ImpEntry(frozenset({"A"}))})
    return fm, conf, sc, imp, bad_imp


def test_the_verdict_is_drawn_again_for_other_objects():
    fm, conf, sc, imp, bad_imp = _mapped_line()
    # F mandatory: mapping a kernel feature.  An unknown root: an invalid
    # feature model.  A configuration missing the root.
    kernel_fm = FeatureModel(fm.funcs, "R", mand=fm.opt)
    bad_fm = FeatureModel(fm.funcs, "X", opt=fm.opt)
    bad_conf = build_configuration(fm, frozenset({"F"}))
    calls = [(fm, conf, imp), (fm, conf, bad_imp), (fm, conf, imp),
             (copy.deepcopy(fm), conf, imp), (kernel_fm, conf, imp),
             (fm, bad_conf, imp), (bad_fm, conf, imp), (fm, conf, imp),
             (fm, conf, copy.deepcopy(imp)), (fm, conf, bad_imp)]
    codes = []
    for f, c, i in calls:
        got = _outcome(lambda: instantiate(f, c, sc, i))
        assert got == _outcome(
            lambda: instantiate(f, c, copy.deepcopy(sc), i)), (f, c, i)
        codes.append(got[0] if isinstance(got[0], str) else "ok")
    assert codes == ["ok", "E_INVALID_INPUT", "ok", "ok", "E_INVALID_INPUT",
                     "E_INVALID_INPUT", "E_INVALID_INPUT", "ok", "ok",
                     "E_INVALID_INPUT"]


def test_an_invalid_machine_raises_alike_on_every_call():
    fm, conf, sc, imp, _ = _mapped_line()
    bad = StateChart(OrState("Root", sc.root.substates, "Ghost",
                             sc.root.transitions))
    expected = validate_inputs(fm, conf, bad, imp)
    assert expected
    for run in (lambda: instantiate(fm, conf, bad, imp),
                lambda: check_confluence(fm, conf, bad, imp)) * 3:
        code, violations, _ = _outcome(run)
        assert code == "E_INVALID_INPUT"
        assert list(violations) == expected


def test_nothing_is_kept_once_the_machine_is_dropped(monkeypatch):
    # Reference counting alone must free every working tree: a cycle
    # through the kept state would hold it until a collection.
    trees = weakref.WeakSet()
    init, copy_tree = WorkingTree.__init__, WorkingTree.copy

    def recording_init(self, sc):
        init(self, sc)
        trees.add(self)

    def recording_copy(self):
        new = copy_tree(self)
        trees.add(new)
        return new

    monkeypatch.setattr(WorkingTree, "__init__", recording_init)
    monkeypatch.setattr(WorkingTree, "copy", recording_copy)
    gc.collect()
    gc.disable()
    try:
        line = generate_random_product_line(S1K_SEED, **S1K_GENERATOR)
        results = [instantiate(*line) for _ in range(2)]
        assert len(trees) == 1  # the kept tree
        check_confluence(*line, trials=3)
        assert len(trees) == 1
        del line, results
        assert len(trees) == 0
    finally:
        gc.enable()


def test_threads_on_one_machine_share_no_tree():
    # More threads than cores, switching often, on machines none has met:
    # the first calls race to build and keep trees, and a tree that two
    # calls edited would give a different machine or raise.
    lines = [generate_random_product_line(seed, **S1K_GENERATOR)
             for seed in (19, 0)]
    expected = [_outcome(lambda: instantiate(
        *line._replace(sc=copy.deepcopy(line.sc)))) for line in lines]
    got: list[list] = [[] for _ in lines]

    def work():
        for _ in range(4):
            for i, line in enumerate(lines):
                got[i].append(_outcome(lambda: instantiate(*line)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[want] * 16 for want in expected]
