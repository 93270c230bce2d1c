"""Every configuration of a line, not only the one its generator drew
(ROADMAP item 12).  The paper derives one concrete machine per product of
a line, and a machine object keeps what its calls derive, so each
configuration is instantiated on the line's one machine object, after
the others, and compared with what it gives on a fresh copy.

Over default seeds 0-299 and large-band seeds 1500000-1500299:
(a) every configuration instantiates; (b) the states that survive grow
with the selection; (c) a configuration that dooms nothing gives the
input with every flag cleared; (d) configurations interleaved on one
machine object give what each gives on a fresh deep copy, by ``==`` and
the trace's ``repr``.  Over the default seeds, (e) ``check_confluence``
holds on every configuration but the pinned divergent ones.  Each test
asserts how many configurations, or pairs of them, every property
checked, so the set cannot shrink unseen."""

import copy
from dataclasses import replace

import pytest

from generators import configurations, generated_line
from scpl.binding import nsc
from scpl.errors import ScplError
from scpl.model import MachineIndex, OrState, StateChart, map_states
from scpl.strategy import EXHAUSTIVE_CAP, check_confluence, instantiate
from test_strategy import LARGE_BAND

# Per band: its seeds and generator, then the configurations (a) and (d)
# checked, the subset pairs (b) checked and the configurations with an
# empty NSC (c) checked.
BANDS = {
    "default": (range(300), {}, 2099, 5924, 851),
    "large": (range(1_500_000, 1_500_300), LARGE_BAND, 5887, 46287, 1393),
}

# Configurations of default lines on which some orders give different
# machines (ROADMAP item 1), as (seed, selected features); the fix
# empties this list on purpose.
DIVERGENT_CONFIGURATIONS = [(138, ("F0", "F2"))]


def _outcome(run):
    """A result as its machine and the ``repr`` of its trace, or an error
    as its code and its text."""
    try:
        result = run()
    except ScplError as exc:
        return exc.code, str(exc)
    return result.statechart, repr(result.trace)


def _clear(state):
    if isinstance(state, OrState):
        state = replace(state, transitions=tuple(
            replace(t, optional=False) for t in state.transitions))
    return replace(state, optional=False)


@pytest.mark.parametrize("band", sorted(BANDS))
def test_every_configuration_of_a_line(band):
    seeds, generator, *expected = BANDS[band]
    instantiated = grown = cleared = 0
    for seed in seeds:
        line = generated_line(seed, **generator)
        confs = configurations(line)
        fresh = [_outcome(lambda: instantiate(
            line.fm, conf, copy.deepcopy(line.sc), line.imp))
            for conf in confs]
        # (d) Forwards, then backwards, on the line's one machine object.
        for order in (range(len(confs)), range(len(confs) - 1, -1, -1)):
            for i in order:
                got = _outcome(lambda: instantiate(
                    line.fm, confs[i], line.sc, line.imp))
                assert got == fresh[i], (seed, confs[i])
        # (a) Every configuration instantiates.
        assert all(isinstance(sc, StateChart) for sc, _ in fresh), seed
        instantiated += len(confs)
        # (b) The states that survive grow with the selection.
        states = [MachineIndex(sc).states.keys() for sc, _ in fresh]
        for i, a in enumerate(confs):
            for j, b in enumerate(confs):
                if a.selected < b.selected:
                    assert states[i] <= states[j], (seed, a, b)
                    grown += 1
        # (c) Dooming nothing clears the flags and changes nothing else.
        plain = map_states(line.sc, _clear)
        for conf, (sc, _) in zip(confs, fresh):
            if not nsc(line.fm, conf, line.sc, line.imp):
                assert sc == plain, (seed, conf)
                cleared += 1
    assert [instantiated, grown, cleared] == expected


def test_every_default_configuration_is_confluent_but_the_pinned():
    # (e) Exhaustively up to the cap of check_confluence, else by 200
    # sampled orders.
    checked = 0
    divergent = []
    for seed in BANDS["default"][0]:
        line = generated_line(seed)
        for conf in configurations(line):
            size = len(nsc(line.fm, conf, line.sc, line.imp))
            report = check_confluence(line.fm, conf, line.sc, line.imp,
                                      exhaustive=size <= EXHAUSTIVE_CAP)
            checked += 1
            if not report.confluent:
                divergent.append((seed, tuple(sorted(conf.selected))))
    assert checked == BANDS["default"][2]
    assert divergent == DIVERGENT_CONFIGURATIONS
