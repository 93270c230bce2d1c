import json
import os
import stat
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from conftest import line_for
from scpl import cli
from scpl.cli import main
from scpl.errors import NoInitialError
from scpl.formats import serialize_configuration, serialize_product_line
from scpl.model import OrState, SimpleState, StateChart
from scpl.strategy import (GeneratedLine, check_confluence,
                           generate_random_product_line, instantiate,
                           validate_inputs)

DATA = resources.files("scpl.data.mobile_phone")


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("data")
    out = {}
    for name in ("mp.pl.json", "mp-no-poly.conf.json", "mp-full.conf.json"):
        p = base / name
        p.write_text(DATA.joinpath(name).read_text(encoding="utf-8"),
                     encoding="utf-8")
        out[name] = str(p)
    return out


def test_validate_ok(paths, capsys):
    assert main(["validate", paths["mp.pl.json"]]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_json_flag(paths, capsys):
    assert main(["validate", "--json", paths["mp.pl.json"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"violations": []}


def test_validate_syntax_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2


def test_kernel(paths, capsys):
    assert main(["kernel", paths["mp.pl.json"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["Contacts", "Display", "MP", "Ringer_in_functions"]


def test_config_check_ok_and_failure(paths, tmp_path, capsys):
    assert main(["config-check", paths["mp.pl.json"],
                 paths["mp-no-poly.conf.json"]]) == 0
    broken = tmp_path / "broken.conf.json"
    conf = json.loads(Path(paths["mp-no-poly.conf.json"]).read_text(
        encoding="utf-8"))
    conf["selected"].remove("Display")
    broken.write_text(json.dumps(conf), encoding="utf-8")
    assert main(["config-check", paths["mp.pl.json"], str(broken)]) == 1


# A one-child alt group and a transition with no trigger.
_FAULTY_LINE = json.dumps({
    "feature_model": {"funcs": ["F", "G"], "root": "F",
                      "alt": [["F", ["G"]]]},
    "statechart": {"root": {
        "kind": "or", "name": "Root", "initial": "A",
        "substates": [{"kind": "simple", "name": "A"},
                      {"kind": "simple", "name": "B"}],
        "transitions": [{"name": "t", "source": "A", "target": "B",
                         "trigger": []}]}},
    "imp": {}})
_BAD_GROUP = ("F", "alt group must have at least two children, got ['G']")
_NO_TRIGGER = ("t", "empty trigger")


@pytest.mark.parametrize("command, expected", [
    pytest.param("validate", [_BAD_GROUP, _NO_TRIGGER], id="validate"),
    pytest.param("kernel", [_BAD_GROUP], id="kernel"),
    pytest.param("nsc", [_BAD_GROUP, _NO_TRIGGER], id="nsc"),
])
def test_a_failed_check_prints_its_violations(command, expected, tmp_path,
                                              capsys):
    line = tmp_path / "faulty.pl.json"
    line.write_text(_FAULTY_LINE, encoding="utf-8")
    conf = tmp_path / "faulty.conf.json"
    conf.write_text('{"selected": ["F"]}', encoding="utf-8")
    argv = [str(line)] + ([str(conf)] if command == "nsc" else [])
    assert main([command, *argv]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{element}: {message}" for element, message in expected]
    assert main([command, "--json", *argv]) == 1
    assert json.loads(capsys.readouterr().out) == {"violations": [
        {"element": element, "message": message}
        for element, message in expected]}


def test_nsc_lists_golden_sets(paths, capsys):
    assert main(["nsc", "--json", paths["mp.pl.json"],
                 paths["mp-no-poly.conf.json"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nsf"] == ["AlarmNewMessages", "PolyphonicSounds"]
    assert payload["nsc"] == sorted([
        "SelectPolSound", "TRightMultimediaType-SelectPolSound",
        "ToChoosePolSound", "TRightSoundType-ToChoosePolSound",
        "TLeftToChoosePolSound-SoundType",
        "TRightToChoosePolSound-PhoneFuncionalidad",
        "MessagesState", "TMessage-MainDisplay-IncomingMess"])


def test_instantiate_writes_all_artifacts(paths, tmp_path, capsys):
    out = tmp_path / "product.json"
    dot = tmp_path / "product.dot"
    trace = tmp_path / "trace.json"
    assert main(["instantiate", paths["mp.pl.json"],
                 paths["mp-no-poly.conf.json"], "-o", str(out),
                 "--dot", str(dot), "--trace", str(trace)]) == 0
    assert main(["validate", str(out)]) == 0
    assert "dashed" not in dot.read_text(encoding="utf-8")
    steps = json.loads(trace.read_text(encoding="utf-8"))
    assert steps[0]["rule"] == "prune_conditions"
    assert steps[-1]["rule"] == "finalize_optionals"
    text = out.read_text(encoding="utf-8")
    assert "SelectPolSound" not in text
    assert "MessagesState" not in text


def test_a_reused_parser_carries_nothing_between_calls(paths, tmp_path,
                                                       capsys):
    out = tmp_path / "product.json"
    dot = tmp_path / "product.dot"
    argv = ["instantiate", paths["mp.pl.json"], paths["mp-no-poly.conf.json"],
            "-o", str(out)]
    assert main([*argv, "--dot", str(dot), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["output"] == str(out)
    dot.unlink()
    assert main(argv) == 0
    assert not dot.exists()
    assert capsys.readouterr().out.startswith(f"wrote {out} (")
    usage_errors = []
    for parse in (main, cli.build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(["fuzz", "--count", "-1"])
        assert exc.value.code == 2
        usage_errors.append(capsys.readouterr().err)
    assert usage_errors[0] == usage_errors[1]
    assert usage_errors[0].endswith(
        "argument --count: must be at least 0, got -1\n")


def test_confluence_exit_zero(paths, capsys):
    assert main(["confluence", paths["mp.pl.json"],
                 paths["mp-no-poly.conf.json"], "--trials", "25",
                 "--seed", "7"]) == 0
    assert "confluent" in capsys.readouterr().out


def test_paper_literal_confluence_reports_the_literal_reading(
        tmp_path, monkeypatch, capsys):
    # A line on which some orders give different machines, so the report
    # carries the divergent orders and outcomes too.  Both readings report
    # alike on it, so the spy shows which one ran.
    line = generate_random_product_line(
        5697, max_depth=2, max_substates=4, max_features=6)
    pl, conf = tmp_path / "line.pl.json", tmp_path / "line.conf.json"
    pl.write_text(serialize_product_line(line.fm, line.sc, line.imp),
                  encoding="utf-8")
    conf.write_text(serialize_configuration(line.conf), encoding="utf-8")
    modes = []

    def spy(*args, include_pending, **kwargs):
        modes.append(include_pending)
        return check_confluence(*args, include_pending=include_pending,
                                **kwargs)

    monkeypatch.setattr(cli, "check_confluence", spy)
    # Exit 1: not confluent.
    assert main(["confluence", "--json", "--paper-literal", str(pl),
                 str(conf), "--trials", "25", "--seed", "7"]) == 1
    report = check_confluence(*line, trials=25, seed=7, include_pending=True)
    assert modes == [True] and not report.confluent
    assert json.loads(capsys.readouterr().out) == {
        "confluent": False, "trials": report.trials,
        "nsc_size": report.nsc_size,
        "divergent_orders": [list(o) for o in report.divergent_orders],
        "divergent_outcomes": list(report.divergent_outcomes)}


def test_fuzz(capsys):
    assert main(["fuzz", "--seed", "3", "--count", "5"]) == 0
    assert "5/5 seeds passed" in capsys.readouterr().out


def test_fuzz_reports_an_invalid_seed_at_the_validate_stage(monkeypatch,
                                                              capsys):
    line = generate_random_product_line(3)
    bad = line._replace(sc=StateChart(replace(line.sc.root, initial="Ghost")))
    expected = [str(v) for v in validate_inputs(*bad)]
    assert expected
    monkeypatch.setattr(cli, "generate_random_product_line", lambda seed: bad)
    assert main(["fuzz", "--json", "--seed", "7", "--count", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [
        {"seed": 7, "stage": "validate", "detail": expected}]


@pytest.mark.parametrize("case, code, prefix", [
    pytest.param("faulty", 1, "invalid input: ", id="invalid-input"),
    pytest.param("stuck", 3, "rewrite error: ", id="rewrite-error"),
    pytest.param("unknown-feature", 1, "error: unknown feature(s): Ghost",
                 id="other-scpl-error"),
    pytest.param("missing", 2, "error: ", id="missing-file"),
    pytest.param("surrogate", 2,
                 "syntax error: string 'A\\ud800' holds a lone surrogate",
                 id="lone-surrogate"),
    pytest.param("runtime", 4, "internal error: RuntimeError: boom at 3",
                 id="internal-error"),
    pytest.param("recursion", 4,
                 "internal error: RecursionError: maximum recursion depth "
                 "exceeded", id="recursion-error"),
])
def test_exit_code_and_message_per_error_kind(case, code, prefix, paths,
                                              tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out.json")
    dot = tmp_path / "out.dot"
    if case == "faulty":
        line = tmp_path / "faulty.pl.json"
        line.write_text(_FAULTY_LINE, encoding="utf-8")
        conf = tmp_path / "faulty.conf.json"
        conf.write_text('{"selected": ["F"]}', encoding="utf-8")
        argv = ["instantiate", str(line), str(conf), "-o", out]
    elif case == "stuck":
        # A valid line whose doomed initial substate A has no transition
        # to a survivor.
        sc = StateChart(OrState(
            "Root", (SimpleState("A", optional=True), SimpleState("B")), "A"))
        fm, conf, imp = line_for(sc, {"A"})
        line, cf = tmp_path / "line.pl.json", tmp_path / "line.conf.json"
        line.write_text(serialize_product_line(fm, sc, imp), encoding="utf-8")
        cf.write_text(serialize_configuration(conf), encoding="utf-8")
        argv = ["instantiate", str(line), str(cf), "-o", out]
    elif case == "unknown-feature":
        conf = json.loads(Path(paths["mp-no-poly.conf.json"]).read_text(
            encoding="utf-8"))
        conf["selected"].append("Ghost")
        ghost = tmp_path / "ghost.conf.json"
        ghost.write_text(json.dumps(conf), encoding="utf-8")
        argv = ["config-check", paths["mp.pl.json"], str(ghost)]
    elif case == "surrogate":
        # A state name that no output can encode as UTF-8, refused before
        # any output file is opened.
        line = tmp_path / "surrogate.pl.json"
        line.write_text(json.dumps({
            "feature_model": {"funcs": ["F"], "root": "F"},
            "statechart": {"root": {
                "kind": "or", "name": "Root", "initial": "A\ud800",
                "substates": [{"kind": "simple", "name": "A\ud800"}]}},
            "imp": {}}), encoding="ascii")
        conf = tmp_path / "surrogate.conf.json"
        conf.write_text('{"selected": ["F"]}', encoding="utf-8")
        argv = ["instantiate", str(line), str(conf), "-o", out,
                "--dot", str(dot)]
    elif case in ("runtime", "recursion"):
        # A fault of the program itself, stubbed into the kernel command;
        # a message over several lines is still reported on one.
        error = (RuntimeError("boom\nat 3") if case == "runtime" else
                 RecursionError("maximum recursion depth exceeded"))

        def failing(fm):
            raise error

        monkeypatch.setattr(cli, "kernel", failing)
        argv = ["kernel", paths["mp.pl.json"]]
    else:
        argv = ["validate", str(tmp_path / "missing.pl.json")]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(prefix)
    assert "Traceback" not in captured.err
    assert not Path(out).exists() and not dot.exists()


def _instantiate_into(directory: Path, paths) -> dict[str, bytes]:
    """The bytes of the three files ``instantiate`` writes into
    ``directory``."""
    names = {"-o": "product.json", "--dot": "product.dot",
             "--trace": "trace.json"}
    argv = ["instantiate", paths["mp.pl.json"], paths["mp-no-poly.conf.json"]]
    for option, name in names.items():
        argv += [option, str(directory / name)]
    assert main(argv) == 0
    return {name: (directory / name).read_bytes() for name in names.values()}


def test_outputs_are_rewritten_in_place_and_cut_to_length(paths, tmp_path,
                                                          capsys):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    for name in ("product.json", "product.dot", "trace.json"):
        (reused / name).write_bytes(b"junk\n" * 20_000)
    expected = _instantiate_into(fresh, paths)
    assert all(len(data) < 100_000 for data in expected.values())
    assert _instantiate_into(reused, paths) == expected
    assert _instantiate_into(reused, paths) == expected


def test_a_file_that_is_not_regular_is_written_but_not_cut(paths, tmp_path,
                                                           capsys):
    # Cutting /dev/null to length fails; the DOT text is written into it.
    assert main(["instantiate", paths["mp.pl.json"],
                 paths["mp-no-poly.conf.json"], "-o",
                 str(tmp_path / "out.json"), "--dot", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_a_new_output_file_gets_the_mode_open_would_give(paths, tmp_path,
                                                        capsys):
    reference = tmp_path / "reference"
    out = tmp_path / "out.json"
    old = os.umask(0o027)
    try:
        with open(reference, "w", encoding="utf-8"):
            pass
        assert main(["instantiate", paths["mp.pl.json"],
                     paths["mp-no-poly.conf.json"], "-o", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(
        reference.stat().st_mode) == 0o640


def test_a_directory_as_output_is_an_error(paths, tmp_path, capsys):
    assert main(["instantiate", paths["mp.pl.json"],
                 paths["mp-no-poly.conf.json"], "-o", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: [Errno 21] Is a directory: {str(tmp_path)!r}"]


@pytest.mark.parametrize("stage, case", [
    pytest.param("instantiate", "unknown", id="instantiate"),
    pytest.param("instantiate", "stuck", id="stuck"),
    pytest.param("confluence", "divergent", id="confluence"),
])
def test_fuzz_reports_a_failing_seed_at_its_stage(stage, case, monkeypatch,
                                                   capsys):
    if case == "unknown":
        # An error that is not a validator's objection: a configuration
        # naming a feature the model lacks.
        line = generate_random_product_line(3)
        line = line._replace(conf=replace(
            line.conf, selected=line.conf.selected | {"Ghost"}))
        detail = ["unknown feature(s): Ghost"]
    elif case == "stuck":
        # Every order fails in layer 1, so check_confluence finds them
        # agreeing; the default-order instantiation reports the error.
        sc = StateChart(OrState(
            "Root", (SimpleState("A", True), SimpleState("B")), "A", ()))
        fm, conf, imp = line_for(sc, {"A"})
        line = GeneratedLine(fm, conf, sc, imp)
        assert check_confluence(*line, trials=20, seed=7).confluent
        with pytest.raises(NoInitialError) as caught:
            instantiate(*line)
        detail = [caught.value.message]
    else:
        # A line on which some orders give different machines.
        line = generate_random_product_line(
            5697, max_depth=2, max_substates=4, max_features=6)
        report = check_confluence(*line, trials=20, seed=7)
        assert not report.confluent
        detail = list(report.divergent_outcomes)
    monkeypatch.setattr(cli, "generate_random_product_line",
                        lambda seed: line)
    assert main(["fuzz", "--json", "--seed", "7", "--count", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [
        {"seed": 7, "stage": stage, "detail": detail}]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["fuzz", "--count", "-2"],
                 "argument --count: must be at least 0, got -2",
                 id="fuzz-negative-count"),
    pytest.param(["confluence", "{line}", "{conf}", "--trials", "-4"],
                 "argument --trials: must be at least 1, got -4",
                 id="confluence-negative-trials"),
    pytest.param(["confluence", "{line}", "{conf}", "--trials", "0"],
                 "argument --trials: must be at least 1, got 0",
                 id="confluence-zero-trials"),
])
def test_out_of_range_counts_are_usage_errors(argv, message, paths, capsys):
    argv = [a.format(line=paths["mp.pl.json"],
                     conf=paths["mp-no-poly.conf.json"]) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(message)


def _nested_line(depth: int) -> str:
    """A product line whose root holds a chain of ``depth`` nested
    Or-states."""
    opens = [f'{{"kind": "or", "name": "N{i}", "initial": "N{i + 1}", '
             f'"substates": [' for i in range(depth)]
    return ('{"feature_model": {"funcs": ["F"], "root": "F"}, '
            '"statechart": {"root": ' + "".join(opens)
            + f'{{"kind": "simple", "name": "N{depth}"}}' + "]}" * depth
            + '}, "imp": {}}')


_DEEP = (_nested_line(20_000).encode("utf-8"), "document nests too deeply")
_NOT_UTF8 = (b'{"a": "\xff"}',
             "{line}: not UTF-8 (invalid start byte at byte 7)")


@pytest.mark.parametrize("command, document, message", [
    pytest.param("validate", *_DEEP, id="validate"),
    pytest.param("instantiate", *_DEEP, id="instantiate"),
    pytest.param("validate", *_NOT_UTF8, id="validate-not-utf8"),
    pytest.param("instantiate", *_NOT_UTF8, id="instantiate-not-utf8"),
])
def test_too_deeply_nested_document_is_a_syntax_error(command, document,
                                                      message, tmp_path,
                                                      capsys):
    line = tmp_path / "deep.pl.json"
    line.write_bytes(document)
    conf = tmp_path / "deep.conf.json"
    conf.write_text('{"selected": ["F"]}', encoding="utf-8")
    argv = [command, str(line)]
    if command == "instantiate":
        argv += [str(conf), "-o", str(tmp_path / "out.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["syntax error: " + message.format(line=line)]
    assert "Traceback" not in err
