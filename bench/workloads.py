"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed and the parameters
in ``design.json``, drives the library only through its public API, and
checks every output with the code in ``checks.py``.

A workload has a few input classes (configurations, size rungs, bands).
One operation is one pass over all of them in a seeded random order: one
library call per class, each timed through ``Clock.call``.  Passes keep
the per-operation latency unimodal; a one-to-one mix of classes whose
latencies differ a hundredfold would put the median between them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import signal
from collections import deque
from pathlib import Path
from time import perf_counter

import checks

import scpl
import scpl.cli
import scpl.model
import scpl.strategy


# Calibration.  On a shared machine the speed of pure-Python code drifts by
# a quarter from one second to the next, which spreads wall times of the
# same work across runs beyond any usable bound.  A fixed kernel is
# therefore timed before and after each timed call, and every
# SAMPLE_INTERVAL_S during it, and the call's duration (less the time the
# samples took) is scaled as if the kernel had taken KERNEL_REF_S (about
# its median on a 2-core x86-64 VM, so scaled and raw milliseconds are
# close there).
KERNEL_REF_S = 0.00028
SAMPLE_INTERVAL_S = 0.1


def _kernel() -> int:
    d = {}
    for i in range(600):
        d[(i, str(i))] = [i, i + 1]
    return len(sorted(d.items(), key=lambda kv: -kv[1][0]))


def kernel_seconds() -> float:
    """Best of three runs of the kernel, with the collector off so that
    the heap the library leaves behind does not change the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            _kernel()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times library calls.  With a tracer attached, the tracer is
    installed for exactly the duration of each timed call, so spans and
    counters cover the measured work and none of the checking."""

    def __init__(self):
        self.tracer = None
        # (class, raw seconds, calibration scale) per timed call
        self.calls: list[tuple[str, float, float]] = []

    def call(self, label: str, fn):
        """Times ``fn()``.  ``fn`` must look the library function up when
        it runs, so that it reaches the traced wrapper.  Traced calls take
        no samples inside, which would land in the library's spans."""
        readings = [kernel_seconds()]
        paused = 0.0

        def sample(signum, frame):
            nonlocal paused
            start = perf_counter()
            readings.append(kernel_seconds())
            paused += perf_counter() - start

        tracer = self.tracer
        if tracer is not None:
            tracer.install()
            root = tracer.begin_op(f"bench.{label}")
        else:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        start = perf_counter()
        try:
            return fn()
        finally:
            if tracer is None:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end_op(root)
                tracer.uninstall()
            else:
                signal.signal(signal.SIGALRM, previous)
            readings.append(kernel_seconds())
            scale = KERNEL_REF_S * len(readings) / sum(readings)
            self.calls.append((label, elapsed - paused, scale))


def _result_tree(sc) -> tuple:
    return checks.state_tuple(sc.root, ordered=True)


def _line_args(line) -> tuple:
    return line.fm, line.conf, line.sc, line.imp


class _Workload:
    """Set-up, passes, input fingerprints and output digests."""

    classes: tuple[str, ...] = ()

    def __init__(self, seed: int, params: dict, root: Path, workdir: Path):
        self.seed = seed
        self.params = params
        self.root = root
        self.workdir = workdir
        self.fingerprints: dict[str, dict] = {}
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        """Builds the inputs and warms up with one untimed call on the
        smallest class (a warm-up pass would cost seconds on ladder)."""
        self.fingerprints = {}
        self.digests = {}
        self.prepare()
        self.run_class(self.classes[0], 0, Clock())
        self.rng = random.Random(self.seed)

    def pinned_ids(self) -> list[str]:
        """Inputs whose fingerprints do not depend on the seed."""
        return []

    def summary(self) -> list[str]:
        """Extra lines for the run's table."""
        return []

    def op(self, k: int, clock: Clock) -> list[str]:
        order = list(self.classes)
        self.rng.shuffle(order)
        problems = []
        for name in order:
            problems += self.run_class(name, k, clock)
        return problems


# --- mobile-phone ---------------------------------------------------------

class MobilePhone(_Workload):
    """The bundled line through the real CLI pipeline, in-process."""

    classes = ("mp-full", "mp-no-poly")  # |NSC| 0, then 8

    def prepare(self) -> None:
        data = self.root / "src" / "scpl" / "data" / "mobile_phone"
        pl_bytes = (data / "mp.pl.json").read_bytes()
        pl_doc = json.loads(pl_bytes)
        kinds = [kind for kind, _, _ in
                 checks.walk(checks.doc_tuple(pl_doc["statechart"]["root"]))]
        self.pl = self.workdir / "mp.pl.json"
        self.pl.write_bytes(pl_bytes)
        self.n_or = kinds.count("or")
        self.inputs = {}
        for name in self.classes:
            conf_bytes = (data / f"{name}.conf.json").read_bytes()
            conf = self.workdir / f"{name}.conf.json"
            conf.write_bytes(conf_bytes)
            doomed = checks.doomed_elements(
                pl_doc["feature_model"]["funcs"],
                json.loads(conf_bytes)["selected"],
                ((f, e["elements"]) for f, e in pl_doc["imp"].items()))
            self.inputs[name] = (conf, doomed)
            self.fingerprints[name] = {
                "states": kinds.count("state"),
                "transitions": kinds.count("transition"),
                "nsc": len(doomed),
                "hash": hashlib.sha256(pl_bytes + b"\0" + conf_bytes)
                                .hexdigest()[:16],
            }

    def pinned_ids(self) -> list[str]:
        return list(self.classes)

    def run_class(self, name: str, k: int, clock: Clock) -> list[str]:
        conf, doomed = self.inputs[name]
        out = self.workdir / f"{name}.out.json"
        dot = self.workdir / f"{name}.dot"
        trace = self.workdir / f"{name}.trace.json"
        argv = ["instantiate", str(self.pl), str(conf), "-o", str(out),
                "--dot", str(dot), "--trace", str(trace)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = clock.call(name, lambda: scpl.cli.main(argv))
        if code != 0:
            return [f"{name}: exit code {code}"]
        tree = checks.doc_tuple(
            json.loads(out.read_text(encoding="utf-8"))["statechart"]["root"])
        rules = [s["rule"] for s in
                 json.loads(trace.read_text(encoding="utf-8"))]
        problems = checks.result_problems(tree, doomed, self.n_or, rules)
        if not dot.read_text(encoding="utf-8").startswith("digraph"):
            problems.append("DOT output does not start a digraph")
        self.digests[name] = checks.digest(tree)
        return [f"{name}: {p}" for p in problems]


# --- ladder ---------------------------------------------------------------

class Ladder(_Workload):
    """``instantiate`` on one generated line per size rung."""

    def __init__(self, *args):
        super().__init__(*args)
        self.classes = tuple(self.params["rungs"])

    def prepare(self) -> None:
        gen = self.params["generator"]
        rungs = self.params["rungs"]
        found: dict[str, tuple] = {}
        seed = self.params["anchor_seed"]
        stop = seed + self.params["scan_limit"]
        while len(found) < len(rungs):
            if seed >= stop:
                missing = sorted(set(rungs) - set(found))
                raise RuntimeError(f"no line found for rungs {missing}")
            line = scpl.generate_random_product_line(seed, **gen)
            fp = checks.fingerprint(*_line_args(line))
            for name, band in rungs.items():
                lo, hi = band["states"]
                if (name not in found and lo <= fp["states"] <= hi
                        and fp["nsc"] >= band["min_nsc"]):
                    found[name] = (seed, line, fp)
            seed += 1
        self.lines = {}
        for name, (line_seed, line, fp) in found.items():
            fm, conf, sc, imp = _line_args(line)
            self.lines[name] = (
                (fm, conf, sc, imp), checks.line_doomed(fm, conf, imp),
                checks.count_or_states(checks.state_tuple(sc.root, True)))
            self.fingerprints[name] = dict(fp, seed=line_seed)

    def pinned_ids(self) -> list[str]:
        return list(self.classes)

    def class_sizes(self) -> dict[str, int]:
        """State count of each rung's line, for the scaling slope."""
        return {name: self.fingerprints[name]["states"]
                for name in self.classes}

    def run_class(self, name: str, k: int, clock: Clock) -> list[str]:
        """Instantiates the rung's line ``repeat`` times: the small rungs
        take milliseconds, and a single sample per pass left their median
        unsteady."""
        args, doomed, n_or = self.lines[name]
        problems = []
        for _ in range(self.params["rungs"][name]["repeat"]):
            result = clock.call(
                name, lambda: scpl.strategy.instantiate(*args))
            tree = _result_tree(result.statechart)
            rules = [s.rule for s in result.trace]
            self.digests[name] = checks.digest(tree)
            problems += [f"{name}: {p}" for p in
                         checks.result_problems(tree, doomed, n_or, rules)]
        return problems


# --- confluence -----------------------------------------------------------

class Confluence(_Workload):
    """``check_confluence`` on a stream of distinct generated lines, one
    per band and pass: a small band checked exhaustively and a large band
    checked by sampled orders."""

    # Lines waiting for their |NSC| to come up; more are skipped unchecked,
    # which keeps memory, and so peak_rss_mb, independent of the draw.
    BUFFER_CAP = 16

    def __init__(self, *args):
        super().__init__(*args)
        self.classes = tuple(self.params["bands"])

    def prepare(self) -> None:
        stride = self.params["seed_stride"]
        bands = self.params["bands"]
        self.cursor = {name: self.seed * stride + band["offset"]
                       for name, band in bands.items()}
        self.schedule = {name: [] for name in bands}
        self.buffer = {name: {int(n): deque() for n in band["nsc_quota"]}
                       for name, band in bands.items()}
        self.block_rng = {name: random.Random(f"{self.seed}:{name}")
                          for name in bands}
        self.seen: set[str] = set()
        self.divergent = 0

    def summary(self) -> list[str]:
        return [f"confluent=False verdicts: {self.divergent} of "
                f"{len(self.fingerprints)} checked lines"]

    def _draw(self, band_name: str):
        """The next line of the band's seed stream with the |NSC| that the
        band's quota schedule asks for.  Lines of other in-band sizes wait
        in a buffer for their turn; the verdict plays no part in the draw."""
        band = self.params["bands"][band_name]
        schedule = self.schedule[band_name]
        if not schedule:
            schedule += [int(n) for n, q in band["nsc_quota"].items()
                         for _ in range(q)]
            self.block_rng[band_name].shuffle(schedule)
        buffer = self.buffer[band_name]
        queue = buffer[schedule.pop()]
        while not queue:
            seed = self.cursor[band_name]
            self.cursor[band_name] += 1
            line = scpl.generate_random_product_line(seed,
                                                     **band["generator"])
            waiting = buffer.get(len(checks.line_doomed(
                line.fm, line.conf, line.imp)))
            if waiting is None or len(waiting) >= self.BUFFER_CAP:
                continue
            fp = checks.fingerprint(*_line_args(line))
            if fp["hash"] not in self.seen:
                self.seen.add(fp["hash"])
                waiting.append((seed, line, fp))
        return queue.popleft()

    def run_class(self, name: str, k: int, clock: Clock) -> list[str]:
        band = self.params["bands"][name]
        seed, line, fp = self._draw(name)
        args = _line_args(line)
        key = f"{name}:{seed}"
        self.fingerprints[key] = fp
        if band["exhaustive"]:
            report = clock.call(name, lambda: scpl.strategy.check_confluence(
                *args, exhaustive=True))
        else:
            report = clock.call(name, lambda: scpl.strategy.check_confluence(
                *args, trials=band["trials"], seed=band["trial_seed"]))
        return [f"{key}: {p}" for p in self._verify(key, args, report)]

    @staticmethod
    def _outcome(args, order):
        """Digest of the canonical result of one order, or the error it
        raised, plus the result itself."""
        try:
            result = scpl.strategy.instantiate(*args, order=order,
                                               validate=False)
        except scpl.ScplError as exc:
            return f"error:{exc.code}", None
        return checks.digest(_result_tree(result.statechart)), result

    def _verify(self, key: str, args, report) -> list[str]:
        """Replays the verdict with the benchmark's own orders and checks
        the default-order result."""
        problems = []
        doomed = checks.line_doomed(args[0], args[1], args[3])
        if report.nsc_size != len(doomed):
            problems.append(f"|NSC| reported {report.nsc_size}, "
                            f"expected {len(doomed)}")
        reference, result = self._outcome(args, None)
        self.digests[key] = reference
        if result is not None:
            n_or = checks.count_or_states(
                checks.state_tuple(args[2].root, True))
            problems += checks.result_problems(
                _result_tree(result.statechart), doomed, n_or,
                [s.rule for s in result.trace])
        if report.confluent:
            rng = random.Random(f"{self.seed}:{key}")
            for _ in range(self.params["replay_orders"]):
                order = sorted(doomed)
                rng.shuffle(order)
                got, _ = self._outcome(args, tuple(order))
                if got != reference:
                    problems.append(f"reported confluent, but order {order} "
                                    f"gives {got}, default gives {reference}")
        else:
            self.divergent += 1
            first, second = report.divergent_orders
            if self._outcome(args, first)[0] == self._outcome(args, second)[0]:
                problems.append("the reported divergent orders give equal "
                                "machines")
        return problems


# --- and-regions ----------------------------------------------------------

class AndRegions(_Workload):
    """One optional And-state of k regions that the mapping dooms, so that
    ``reachable_and`` does almost all the work."""

    def __init__(self, *args):
        super().__init__(*args)
        self.classes = tuple(self.params["rungs"])

    def prepare(self) -> None:
        self.lines = {name: self._build(k)
                      for name, k in self.params["rungs"].items()}
        for name, args in self.lines.items():
            self.fingerprints[name] = checks.fingerprint(*args)

    def pinned_ids(self) -> list[str]:
        return list(self.classes)

    def _build(self, k: int) -> tuple:
        m = scpl.model
        n = self.params["substates"]
        events = self.params["events"]
        rng = random.Random(f"{self.params['trigger_seed']}:{k}")
        regions = []
        for i in range(k):
            names = [f"R{i}S{j}" for j in range(n)]
            ring = [m.Transition(f"r{i}t{j}", names[j], names[(j + 1) % n],
                                 (rng.choice(events),))
                    for j in range(n)]
            regions.append(m.OrState(f"R{i}",
                                     tuple(m.SimpleState(s) for s in names),
                                     names[0], tuple(ring)))
        root = m.OrState(
            "Root",
            (m.SimpleState("In"), m.AndState("A", tuple(regions), True),
             m.SimpleState("OutX"), m.SimpleState("OutY")),
            "In",
            (m.Transition("enter", "In", "A", ("go",)),
             m.Transition("exitX", "R0S3", "OutX", ("x",)),
             m.Transition("exitY", "A", "OutY", ("y",))))
        fm = m.FeatureModel(frozenset({"F0", "F1"}), "F0",
                            opt=frozenset({("F0", frozenset({"F1"}))}))
        conf = m.Configuration(frozenset({"F0"}))
        imp = m.ImpMapping.from_dict({"F1": m.ImpEntry(frozenset({"A"}))})
        return fm, conf, m.StateChart(root), imp

    def run_class(self, name: str, k: int, clock: Clock) -> list[str]:
        args = self.lines[name]
        result = clock.call(name, lambda: scpl.strategy.instantiate(*args))
        tree = _result_tree(result.statechart)
        # Every ring lets region 0 reach R0S3, so both exits compose with
        # the entry, and nothing else survives.
        kept = sorted(n for kind, n, _ in checks.walk(tree) if kind != "or")
        want = sorted(["Root", "In", "OutX", "OutY",
                       "comp(enter,exitX)", "comp(enter,exitY)"])
        problems = [] if kept == want else [f"result holds {kept}, "
                                            f"expected {want}"]
        problems += checks.result_problems(
            tree, frozenset({"A"}), 1 + self.params["rungs"][name],
            [s.rule for s in result.trace])
        self.digests[name] = checks.digest(tree)
        return [f"{name}: {p}" for p in problems]


WORKLOADS = {
    "mobile-phone": MobilePhone,
    "ladder": Ladder,
    "confluence": Confluence,
    "and-regions": AndRegions,
}
