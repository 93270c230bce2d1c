"""Acceptance suite: the eight release criteria, one test each.

Each test prints a single PASS/FAIL line directly to the terminal (past
pytest's capture) so the suite's verdicts are always visible.
"""

import random
import time

from generators import (generated_line, random_and_composite,
                        random_or_composite)
from oracles import all_valid_selections, and_closure, closure
from scpl import datasets
from scpl.binding import nsc
from scpl.features import (build_configuration, enumerate_configurations,
                           kernel, nsf, validate_configuration)
from scpl.formats import (parse_configuration, parse_product_line,
                          serialize_configuration, serialize_product_line)
from scpl.model import (Condition, FeatureModel, Guard, ImpEntry, ImpMapping,
                        InState, MachineIndex, OrState, SimpleState,
                        StateChart, Transition, canonicalize,
                        check_well_formed, var_elems)
from scpl.rewrite import PendingSet, reachable_and, reachable_or
from scpl.strategy import check_confluence, instantiate

GOLDEN_NSF = frozenset({"PolyphonicSounds", "AlarmNewMessages"})
GOLDEN_NSC = frozenset({
    "SelectPolSound",
    "TRightMultimediaType-SelectPolSound",
    "ToChoosePolSound",
    "TRightSoundType-ToChoosePolSound",
    "TLeftToChoosePolSound-SoundType",
    "TRightToChoosePolSound-PhoneFuncionalidad",
    "MessagesState",
    "TMessage-MainDisplay-IncomingMess",
})


def report(capfd, number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"acceptance {number}: {verdict} - {detail}", flush=True)


def trace_bound_ok(line, result) -> bool:
    """Trace length <= |NSC| + #Or-states + #prune steps + 1."""
    doomed = nsc(line.fm, line.conf, line.sc, line.imp)
    idx = MachineIndex(line.sc)
    n_or = sum(1 for s in idx.states.values() if isinstance(s, OrState))
    prunes = sum(1 for s in result.trace if s.rule == "prune_conditions")
    return len(result.trace) <= len(doomed) + n_or + prunes + 1


def test_criterion_1_golden_nsf_nsc(capfd):
    start = time.perf_counter()
    fm, sc, imp = datasets.mobile_phone()
    conf = datasets.mobile_phone_no_poly()
    got_nsf = nsf(fm, conf)
    got_nsc = nsc(fm, conf, sc, imp)
    elapsed = time.perf_counter() - start
    ok = got_nsf == GOLDEN_NSF and got_nsc == GOLDEN_NSC and elapsed < 1.0
    report(capfd, 1, ok, f"NSF {sorted(got_nsf)}, |NSC| = {len(got_nsc)}, "
                  f"{elapsed:.3f}s")
    assert got_nsf == GOLDEN_NSF
    assert got_nsc == GOLDEN_NSC
    assert elapsed < 1.0


def test_criterion_2_golden_instantiation(capfd):
    start = time.perf_counter()
    fm, sc, imp = datasets.mobile_phone()
    conf = datasets.mobile_phone_no_poly()
    result = instantiate(fm, conf, sc, imp)
    elapsed = time.perf_counter() - start

    idx = MachineIndex(result.statechart)
    present = set(idx.states) | set(idx.transitions)
    rules = [s.rule for s in result.trace]
    subjects = [(s.rule, s.subject) for s in result.trace]
    first_state_delete = min(
        (i for i, r in enumerate(rules) if r.startswith("delete_")),
        default=len(rules))
    prune_index = subjects.index(("prune_conditions", "MessagesState"))

    checks = {
        "no NSC element survives": not present & GOLDEN_NSC,
        "no optional elements": var_elems(result.statechart)
                                == (frozenset(), frozenset()),
        "well-formed": check_well_formed(result.statechart) == [],
        "prune before deletions": prune_index < first_state_delete,
        "finalize last": rules[-1] == "finalize_optionals",
        "under 1s": elapsed < 1.0,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    report(capfd, 2, ok, f"{len(result.trace)} trace steps, {elapsed:.3f}s"
                  + (f", failed: {failed}" if failed else ""))
    assert not failed


def _seeds_with_nsc(limit_kw, lo, hi, count, start_seed=0):
    out = []
    seed = start_seed
    while len(out) < count:
        line = generated_line(seed, **limit_kw)
        size = len(nsc(line.fm, line.conf, line.sc, line.imp))
        if lo <= size <= hi:
            out.append(line)
        seed += 1
        if seed > start_seed + 20_000:
            raise RuntimeError("generator never hit the target NSC range")
    return out


def test_criterion_3_confluence(capfd):
    start = time.perf_counter()
    small = _seeds_with_nsc({}, 1, 5, 50)
    large = _seeds_with_nsc(
        {"max_depth": 3, "max_substates": 6, "max_features": 12}, 6, 12, 50)
    divergences = []
    bound_failures = 0
    for line in small:
        rep = check_confluence(line.fm, line.conf, line.sc, line.imp,
                               exhaustive=True)
        if not rep.confluent:
            divergences.append(rep)
        if not trace_bound_ok(line, instantiate(*line)):
            bound_failures += 1
    for line in large:
        rep = check_confluence(line.fm, line.conf, line.sc, line.imp,
                               trials=200, seed=11)
        if not rep.confluent:
            divergences.append(rep)
        if not trace_bound_ok(line, instantiate(*line)):
            bound_failures += 1
    elapsed = time.perf_counter() - start
    ok = not divergences and not bound_failures and elapsed < 60.0
    report(capfd, 3, ok, f"50 exhaustive + 50 sampled lines, "
                  f"{len(divergences)} divergences, {elapsed:.1f}s")
    assert not divergences
    assert not bound_failures
    assert elapsed < 60.0


def _pair_swap_line(seed: int):
    rng = random.Random(seed)
    events = ["a", "b", "c", "d"]
    ts = []
    nodes = ["A", "E1", "E2", "B"]
    for i in range(3):
        cond = Condition()
        if rng.random() < 0.4:
            cond = Condition((Guard(f"g{rng.randint(0, 2)}"),))
        ts.append(Transition(
            f"t{i}", nodes[i], nodes[i + 1],
            tuple(rng.choice(events) for _ in range(rng.randint(1, 2))),
            cond,
            tuple(f"act{rng.randint(0, 2)}"
                  for _ in range(rng.randint(0, 2)))))
    extra = []
    if rng.random() < 0.5:
        extra.append(Transition("u0", "B", "A", ("z",)))
    root = OrState(
        "Root",
        (SimpleState("A"), SimpleState("E1", optional=True),
         SimpleState("E2", optional=True), SimpleState("B")),
        "A", tuple(ts) + tuple(extra))
    sc = StateChart(root)
    fm = FeatureModel(frozenset({"R", "F"}), "R",
                      opt=frozenset({("R", frozenset({"F"}))}))
    conf = build_configuration(fm, frozenset({"R"}))
    imp = ImpMapping.from_dict({"F": ImpEntry(frozenset({"E1", "E2"}))})
    return fm, conf, sc, imp, ts


def test_criterion_4_pair_swap(capfd):
    start = time.perf_counter()
    failures = []
    bound_failures = 0
    for seed in range(500):
        fm, conf, sc, imp, ts = _pair_swap_line(seed)
        r1 = instantiate(fm, conf, sc, imp, order=["E1", "E2"])
        r2 = instantiate(fm, conf, sc, imp, order=["E2", "E1"])
        if canonicalize(r1.statechart) != canonicalize(r2.statechart):
            failures.append(seed)
            continue
        idx = MachineIndex(r1.statechart)
        name = "comp(t0,t1,t2)"
        if name not in idx.transitions:
            failures.append(seed)
            continue
        got = idx.transitions[name]
        field_wise = (
            got.trigger == ts[0].trigger + ts[1].trigger + ts[2].trigger
            and got.cond.atoms == ts[0].cond.atoms + ts[1].cond.atoms
                                  + ts[2].cond.atoms
            and got.actions == ts[0].actions + ts[1].actions + ts[2].actions
            and (got.source, got.target) == ("A", "B"))
        if not field_wise:
            failures.append(seed)
            continue
        from scpl.strategy import GeneratedLine
        line = GeneratedLine(fm, conf, sc, imp)
        if not (trace_bound_ok(line, r1) and trace_bound_ok(line, r2)):
            bound_failures += 1
    elapsed = time.perf_counter() - start
    ok = not failures and not bound_failures
    report(capfd, 4, ok, f"500 pair-swap machines, {len(failures)} failures, "
                  f"{elapsed:.1f}s")
    assert failures == []
    assert bound_failures == 0


def test_criterion_5_termination_bound(capfd):
    # The bound is enforced inline during criteria 3 and 4; this test
    # re-checks it on a fresh sample and exercises the internal budget.
    start = time.perf_counter()
    overflows = 0
    for seed in range(200):
        line = generated_line(seed)
        result = instantiate(*line)
        if not trace_bound_ok(line, result):
            overflows += 1
    elapsed = time.perf_counter() - start
    ok = overflows == 0
    report(capfd, 5, ok, f"200 instantiations within the trace bound, "
                  f"{elapsed:.1f}s")
    assert overflows == 0


def test_criterion_6_configuration_oracle(capfd):
    start = time.perf_counter()
    disagreements = 0
    kernel_mismatches = 0
    for seed in range(200):
        fm = generated_line(seed).fm
        valid = all_valid_selections(fm)
        rest = sorted(fm.funcs - {fm.root})
        for bits in range(1 << len(rest)):
            sel = frozenset(f for i, f in enumerate(rest)
                            if bits >> i & 1) | {fm.root}
            conf = build_configuration(fm, sel)
            fast = validate_configuration(fm, conf) == []
            if fast != (sel in valid):
                disagreements += 1
        enumerated = {c.selected for c in enumerate_configurations(fm)}
        if enumerated != valid:
            disagreements += 1
        if kernel(fm) != frozenset.intersection(*valid):
            kernel_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and kernel_mismatches == 0 and elapsed < 30.0
    report(capfd, 6, ok, f"200 feature models exhaustively checked, "
                  f"{disagreements} disagreements, {elapsed:.1f}s")
    assert disagreements == 0
    assert kernel_mismatches == 0
    assert elapsed < 30.0


def test_criterion_7_reachability_oracle(capfd):
    start = time.perf_counter()
    disagreements = 0
    for seed in range(100):
        sc, comp_state = random_or_composite(seed, max_substates=6)
        names = [s.name for s in comp_state.substates]
        by_name = {}
        for sub in comp_state.substates:
            by_name[sub.name] = sub.name
            if isinstance(sub, OrState):
                for nested in sub.substates:
                    by_name[nested.name] = sub.name
        edges = {(by_name[t.source], by_name[t.target])
                 for t in comp_state.transitions}
        for node in names:
            got = reachable_or("E", node, sc, PendingSet(set()))
            if got != closure(names, edges, node):
                disagreements += 1
    for seed in range(100):
        sc, comp_state = random_and_composite(seed, max_regions=3,
                                              max_substates=4)
        region_nodes = [[s.name for s in r.substates]
                        for r in comp_state.regions]
        region_moves = [
            [(t.source, t.trigger,
              [a for a in t.cond.atoms if isinstance(a, InState)], t.target)
             for t in r.transitions]
            for r in comp_state.regions]

        def instate_ok(atom, cur):
            return atom.state in cur

        begin = tuple(nodes[0] for nodes in region_nodes)
        got = reachable_and("E", begin, sc, PendingSet(set()))
        if got != and_closure(region_nodes, region_moves, begin, instate_ok):
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0
    report(capfd, 7, ok, f"200 composites vs brute-force closure, "
                  f"{disagreements} disagreements, {elapsed:.1f}s")
    assert disagreements == 0


def test_criterion_8_round_trip(capfd):
    start = time.perf_counter()
    failures = 0
    for seed in range(500):
        line = generated_line(seed)
        text = serialize_product_line(line.fm, line.sc, line.imp)
        if parse_product_line(text) != (line.fm, line.sc, line.imp):
            failures += 1
            continue
        if serialize_product_line(*parse_product_line(text)) != text:
            failures += 1
            continue
        conf_text = serialize_configuration(line.conf)
        if parse_configuration(conf_text) != line.conf:
            failures += 1
            continue
        if serialize_configuration(
                parse_configuration(conf_text)) != conf_text:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    report(capfd, 8, ok, f"500 artifacts round-tripped, {failures} failures, "
                  f"{elapsed:.1f}s")
    assert failures == 0
