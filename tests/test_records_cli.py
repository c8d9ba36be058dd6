import contextlib
import gc
import importlib.util
import io
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canimm import avoiding, blocks, builds, checkers, checks, cli, command, markers, pumping
from canimm import constructions as C
from canimm import machine as M
from canimm import mathias
from canimm import programs as pg
from canimm import schnorr
from canimm.finitesets import SetPrefix
from canimm.numberings import Registry, default_pool, witness_rule_from_table
from canimm.records import (
    DECIMAL_LIMIT,
    ConstructionTrace,
    parse_trace,
    parse_value,
    render_atom,
    render_trace,
    render_value,
)


ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "canimm", *args], capture_output=True, text=True)


# integers on both sides of the codec's switch from decimal to hex
_near_the_limit = st.integers(-3, 3).map(lambda d: DECIMAL_LIMIT + d) | st.integers(-(10**4400), 10**4400)


@given(_near_the_limit, st.lists(_near_the_limit | st.tuples(_near_the_limit, _near_the_limit)))
def test_value_codec_roundtrip(number, items):
    for value in (0, 12345, "case2", [1, 2, 3], [], [(0, 4), (2, 9)], ["thin-D0", "size-8"], number, items):
        assert parse_value(render_value(value)) == value
    trace = ConstructionTrace("x", {"items": items})
    trace.add(0, "r", number)
    parsed = parse_trace(render_trace(trace, {}))
    assert parsed.meta["items"] == items and parsed.records[0].fields == (number,)


def test_codec_switches_to_hex_at_the_decimal_limit():
    assert render_value(DECIMAL_LIMIT - 1) == "9" * 4300
    assert render_value(DECIMAL_LIMIT) == format(DECIMAL_LIMIT, "#x")
    assert render_value(-DECIMAL_LIMIT) == "-" + format(DECIMAL_LIMIT, "#x")
    big = format(DECIMAL_LIMIT + 31, "x")
    assert parse_value("0x" + big) == DECIMAL_LIMIT + 31 and parse_value("-0x" + big) == -DECIMAL_LIMIT - 31


def test_long_decimal_atoms_raise_instead_of_parsing_as_text():
    # past the runtime int->str limit a decimal atom used to come back as a str
    for text in ("7" * 5000, "-" + "7" * 5000):
        with pytest.raises(ValueError):
            parse_value(text)
        with pytest.raises(ValueError):
            parse_trace(f"trace\tx\nrec\t0\tr\t{text}\n")
    assert [parse_value(text) for text in ("-3", "+3", "3a", "-", "")] == [-3, "+3", "3a", "-", ""]
    with pytest.raises(ValueError):
        parse_value("0xg")


def test_check_rejects_a_trace_with_a_long_decimal_atom(tmp_path):
    trace = tmp_path / "long.trace"
    trace.write_text(f"trace\tdelta2\nmeta\tstages\t{'7' * 5000}\nprefix\tR\t0101\n")
    result = run_cli("check", "immunity", str(trace))
    _assert_input_error(result)
    assert f"cannot read trace file {trace}:" in result.stderr


def test_refused_atoms_are_quoted_short(tmp_path):
    trace = tmp_path / "delta2.trace"
    assert run_cli("build", "delta2", "--stages", "10", "--markers", "2", "--out", str(trace)).returncode == 0
    text = trace.read_text()
    for field in ("7" * 5000, "0x" + "F" * 5000, "-" + "0" * 5000):
        trace.write_text(text.replace("\tset\t0\t", f"\tset\t{field}\t", 1))
        result = run_cli("check", "immunity", str(trace))
        _assert_input_error(result)
        assert f"({len(field)} characters)" in result.stderr
        assert max(map(len, result.stderr.splitlines())) <= 300


def test_parse_rejects_repeated_headers_meta_keys_and_prefix_labels(tmp_path):
    trace = tmp_path / "delta2.trace"
    assert run_cli("build", "delta2", "--stages", "10", "--markers", "2", "--out", str(trace)).returncode == 0
    text = trace.read_text()
    prefix_line = next(line for line in text.splitlines() if line.startswith("prefix\tR\t"))
    # each line would silently replace the first of its kind
    for line, match in (("trace\tbci", "trace header"), ("meta\tstages\t11", "meta key"), (prefix_line, "prefix label")):
        edited = text + line + "\n"
        with pytest.raises(ValueError, match=f"repeated {match}"):
            parse_trace(edited)
        trace.write_text(edited)
        _assert_input_error(run_cli("check", "immunity", str(trace)))


def test_trace_file_roundtrip(pool):
    prefix, trace = C.delta2_prefix(pool.codes(), 800, 12)
    text = render_trace(trace, {"R": prefix})
    parsed = parse_trace(text)
    assert parsed.name == "delta2"
    assert parsed.prefixes["R"].mask == prefix.mask
    assert parsed.meta["stages"] == 800
    assert C.replay_delta2(parsed.trace()).mask == prefix.mask
    assert render_trace(parsed.trace(), {"R": parsed.prefixes["R"]}) == text


def test_parse_rejects_non_trace_text():
    with pytest.raises(ValueError):
        parse_trace("meta\tstages\t5\n")


def test_measure_command_output_format():
    result = run_cli("measure", "1", "2")
    assert result.returncode == 0
    assert result.stdout.strip() == "1/2^2 ≤ 1/2^1: true"
    result = run_cli("measure", "0", "2")
    assert result.stdout.strip() == "5/2^3 ≤ 1: true"
    assert run_cli("measure", "2", "2").returncode == 1


def _replays_r(replay):
    return lambda parsed: {"R": replay(parsed.trace())}


def _replay_bci(parsed):
    r, q = C.replay_bci(parsed.trace())
    return {"Q": q, "R": r}


def _replay_effectivize(parsed):
    base = SetPrefix(parsed.meta["base_mask"], parsed.meta["base_length"])
    return {"Q": C.replay_effectivize(parsed.trace()), "R": base}


def _replay_2generic_witness(parsed):
    assert witness_rule_from_table(C.replay_2generic(parsed.trace())) == parsed.meta["witness_rule"]
    return {}


def _replay_generic(parsed):
    # generic chains record the transformer that produced every condition
    conditions = [rec for rec in parsed.records if rec.rule == "condition"]
    assert conditions and all(isinstance(rec.fields[0], str) for rec in conditions)
    stem = conditions[-1].fields[1]  # the final stem is the prefix
    return {"R": SetPrefix(stem, stem.bit_length())}


# name -> the prefixes its trace replays to through the library
REPLAYS = {
    "delta2": _replays_r(C.replay_delta2),
    "bci": _replay_bci,
    "cofinal": _replays_r(C.replay_cofinal),
    "ci-hi": _replays_r(C.replay_ci_hi),
    "ci-not-hi": _replays_r(C.replay_ci_not_hi),
    "hi-not-ci": _replays_r(C.replay_hi_not_ci),
    "effectivize": _replay_effectivize,
    "2generic-witness": _replay_2generic_witness,
    "generic": _replay_generic,
}

BUILD_FLAGS = [
    ("delta2", ("--stages", "400", "--markers", "12")),
    ("bci", ("--stages", "200", "--index-bound", "10")),
    ("cofinal", ()),
    ("ci-hi", ("--stages", "16")),
    ("ci-not-hi", ("--stages", "200", "--index-bound", "10")),
    ("hi-not-ci", ("--blocks", "6")),
    ("effectivize", ("--stages", "400", "--markers", "12", "--budget", "96")),
    ("2generic-witness", ("--index-bound", "1")),
    ("generic", ("--index-bound", "6", "--blocks", "4", "--markers", "5", "--stages", "120")),
]


@pytest.mark.parametrize("name,flags", BUILD_FLAGS)
def test_build_commands_are_deterministic(tmp_path, name, flags):
    """Every build the CLI offers gives the same bytes twice, and each of
    its prefixes replays through the library."""
    assert {n for n, _ in BUILD_FLAGS} == set(command.VERBS["build"]) == set(REPLAYS)
    first = tmp_path / "a.trace"
    second = tmp_path / "b.trace"
    assert run_cli("build", name, "--out", str(first), *flags).returncode == 0
    assert run_cli("build", name, "--out", str(second), *flags).returncode == 0
    assert first.read_bytes() == second.read_bytes()
    parsed = parse_trace(first.read_text())
    replayed = REPLAYS[name](parsed)
    assert {label: (p.mask, p.length) for label, p in parsed.prefixes.items()} == {
        label: (p.mask, p.length) for label, p in replayed.items()
    }


# rules a drawn pool adds to the default pool: i -> {i + a} and i -> [i + a, i + a + w)
_EXTRA_RULES = st.one_of(
    st.integers(0, 4).map(lambda a: pg.encode(pg.pow2_(pg.add_(pg.P0, pg.c_(a))))),
    st.tuples(st.integers(0, 4), st.integers(1, 6)).map(
        lambda aw: pg.encode(pg.interval_code_(pg.add_(pg.P0, pg.c_(aw[0])), pg.add_(pg.P0, pg.c_(sum(aw)))))
    ),
)

_DRAWN_FLAGS = st.fixed_dictionaries(
    {
        "--stages": st.integers(1, 60),
        "--markers": st.integers(1, 8),
        "--index-bound": st.integers(1, 6),
        "--budget": st.integers(1, 64),
        "--blocks": st.integers(1, 6),
    }
)


@pytest.mark.parametrize("name", list(command.VERBS["build"]))
@given(flags=_DRAWN_FLAGS, extra_rules=st.lists(_EXTRA_RULES, max_size=2))
@settings(max_examples=20, deadline=None)
def test_drawn_builds_replay_and_round_trip(tmp_path_factory, name, flags, extra_rules):
    """Over drawn flags and pools, a build gives the same bytes twice (the
    second time from warm memos), its text renders back to itself, and its
    trace replays to its prefixes.  bci and ci-not-hi may refuse flags whose
    stages spoil a pair block outside the fill that --index-bound sets; a
    stage with i <= --index-bound never does, so that takes a stage
    pair(e, i) with i > --index-bound, the least of which is
    pair(0, --index-bound + 1)."""
    pool = default_pool()
    for rule in extra_rules:
        pool.register(rule)
    work = tmp_path_factory.mktemp("drawn")
    pool_file = work / "pool.tsv"
    pool_file.write_text(pool.serialize())
    argv = ["build", name, *(str(x) for item in flags.items() for x in item), "--pool", str(pool_file)]
    results = []
    for run in range(2):
        out = work / f"{run}.trace"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = command.main([*argv, "--out", str(out)])
        results.append((code, err.getvalue(), b"" if code else out.read_bytes()))
    assert results[0] == results[1]
    code, err, data = results[0]
    if code:
        assert name in ("bci", "ci-not-hi") and code == 1 and "pair blocks of the fill" in err
        assert flags["--stages"] > M.pair(0, flags["--index-bound"] + 1)
        return
    text = data.decode()
    parsed = parse_trace(text)
    assert render_trace(parsed.trace(), parsed.prefixes) == text
    assert REPLAYS[name](parsed) == parsed.prefixes


def _generic_run(pool, index_bound=6, blocks=4, markers=5, stages=120):
    schedule = mathias.default_schedule(list(pool), thin_count=index_bound, avoid_count=blocks, stem_target=markers)
    run = mathias.build_generic(mathias.Condition.empty(), schedule, horizon=stages)
    return run.trace, {"R": run.prefix}


def _hi_not_ci_run(pool, blocks=6):
    prefix, trace = C.hi_not_ci_run(builds.default_functions(), blocks)
    return trace, {"R": prefix}


def _2generic_witness_run(pool, index_bound=1):
    _, _, trace = C.build_2generic_witness(
        "", pg.enumerate_oracle_ones_code(), pg.zero_code(), index_bound, index_bound
    )
    return trace, {}


def _effectivize_run(pool, stages, markers, budget):
    base, _ = C.delta2_prefix(pool.codes(), stages, markers)
    quotient, trace = C.effectivize_inside(base, markers // 2, budget)
    trace.meta["base_stages"] = stages  # the one meta key the CLI adds
    return trace, {"Q": quotient, "R": base}


@pytest.mark.parametrize(
    "name,library_run",
    [("hi-not-ci", _hi_not_ci_run), ("2generic-witness", _2generic_witness_run), ("generic", _generic_run)],
    ids=["hi-not-ci", "2generic-witness", "generic"],
)
def test_library_trace_is_the_cli_trace(pool, name, library_run):
    """The library writes every meta key the checks read: its trace, run
    with the same parameters as BUILD_FLAGS[name], renders to the bytes
    `canimm build` prints."""
    result = run_cli("build", name, *dict(BUILD_FLAGS)[name])
    assert result.returncode == 0, result.stderr
    assert render_trace(*library_run(pool)) == result.stdout


def test_build_rejects_bad_horizons():
    result = run_cli("build", "bci", "--stages", "0")
    assert result.returncode == 1  # a usage error, not a failed check (exit 2)
    assert "positive" in result.stderr


def test_usage_errors_exit_1():
    _assert_input_error(run_cli("build", "delta2", "--stages", "0"))
    _assert_input_error(run_cli("check", "immunity", "x.trace", "--modulus", "nope"))


def test_build_rejects_unknown_construction():
    assert run_cli("build", "nonesuch").returncode == 1


def test_bad_modulus_exits_1_with_usage():
    result = run_cli("check", "schnorr", "x.trace", "--modulus", "nope")
    assert result.returncode == 1
    assert result.stderr.startswith("usage: canimm check ")
    assert "error: argument --modulus: invalid choice: 'nope'" in result.stderr


def _rejected(argv):
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as stop:
        command.parse_args(argv)
    return stop.value.code == 1


def test_parser_choices_are_the_name_tables():
    assert list(command.ARGS) == ["build", "check", "measure"]
    assert list(command.ARGS["build"][1]["construction"]) == list(command.VERBS["build"]) == list(builds.BUILDS)
    assert list(command.ARGS["check"][1]["suite"]) == list(command.VERBS["check"]) == list(checks.CHECKS)
    for name in builds.BUILDS:
        assert command.parse_args(["build", name]).construction == name
    for suite in checks.CHECKS:
        assert command.parse_args(["check", suite, "t"]).suite == suite
    for modulus in sorted(command.modulus_catalog()):
        assert command.parse_args(["check", "immunity", "t", "--modulus", modulus]).modulus == modulus
    assert _rejected(["build", "schnorr"]) and _rejected(["check", "delta2", "t"]) and _rejected(["verify"])
    assert _rejected(["check", "immunity", "t", "--modulus", "triple"])


def _reference_parser():
    """The argparse declarations the command line had before its flag table,
    with the same exit status 1 on a usage error."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="canimm")
    sub = parser.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build")
    b.add_argument("construction", choices=command.VERBS["build"])
    b.add_argument("--stages", type=int, default=1000)
    b.add_argument("--markers", type=int, default=32)
    b.add_argument("--index-bound", type=int, default=16)
    b.add_argument("--budget", type=int, default=256)
    b.add_argument("--blocks", type=int, default=6)
    b.add_argument("--pool", default=None)
    b.add_argument("--out", default=None)
    c = sub.add_parser("check")
    c.add_argument("suite", choices=command.VERBS["check"])
    c.add_argument("trace")
    c.add_argument("--pool", default=None)
    c.add_argument("--index-bound", type=int, default=16)
    c.add_argument("--budget", type=int, default=256)
    c.add_argument("--modulus", default="identity", choices=sorted(command.MODULI))
    c.add_argument("--expect-fail", action="store_true")
    c.add_argument("--out", default=None)
    m = sub.add_parser("measure")
    m.add_argument("n", type=int)
    m.add_argument("m", type=int)
    return parser


def _reference_parse(argv):
    parser = _reference_parser()
    args = parser.parse_args(argv)
    for flag in ("stages", "markers", "index_bound", "budget"):
        if getattr(args, flag, 1) < 1:
            parser.error(f"--{flag.replace('_', '-')} must be positive")
    if getattr(args, "blocks", 0) < 0:
        parser.error("--blocks must be nonnegative")
    return args


def _outcome(parse, argv):
    """The parsed attributes, or the exit status with what went to stderr."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            return vars(parse(argv))
        except SystemExit as stop:
            return stop.code, err.getvalue()


_FLAG_NAMES = ["stages", "markers", "index-bound", "budget", "blocks", "pool", "out", "modulus", "expect-fail"]
# unique and ambiguous prefixes, the help flag and its prefix, unknown flags
_FLAG_TOKENS = st.sampled_from(
    ["--st", "--ind", "--b", "--bu", "--bl", "--mod", "--m", "--exp", "--o", "--p", "--help", "-h", "--he", "--bogus", "-x"]
)
_VALUES = st.sampled_from(
    ["7", "1", "0", "-3", "-0", "+2", " 4", "1_0", "-1.5", "1.5", "x", "", "-", "identity", "twof", "triple",
     "delta2", "schnorr", "nonesuch", "t.trace", "a b", "-a b"]
)
_WORDS = _VALUES | st.sampled_from(list(command.VERBS["build"]) + list(command.VERBS["check"]))
_PIECES = st.one_of(
    st.tuples(st.sampled_from(_FLAG_NAMES).map(lambda f: "--" + f), _VALUES).map(list),
    st.tuples(st.sampled_from(_FLAG_NAMES) | _FLAG_TOKENS, _VALUES).map(lambda fv: [f"--{fv[0].lstrip('-')}={fv[1]}"]),
    st.sampled_from(_FLAG_NAMES).map(lambda f: ["--" + f]) | _FLAG_TOKENS.map(lambda f: [f]),
    _WORDS.map(lambda w: [w]),
)


@given(
    verb=st.sampled_from(["build", "check", "measure", "verify", "buil"]),
    pieces=st.lists(_PIECES, max_size=6),
)
@settings(max_examples=400, deadline=None)
def test_flag_table_parses_as_the_argparse_declarations_did(verb, pieces):
    """Over command lines drawn from the flags and names of every verb, in
    every order and both --flag value and --flag=value forms, the flag table
    rejects exactly what the argparse declarations rejected, with exit 1
    and a usage line, and gives the same attributes to everything else."""
    argv = [verb, *(token for piece in pieces for token in piece)]
    reference = _outcome(_reference_parse, argv)
    ours = _outcome(command.parse_args, argv)
    if isinstance(reference, dict):
        assert ours == reference, argv
    else:
        assert isinstance(ours, tuple) and ours[0] == reference[0], (argv, ours, reference)
        if ours[0] == 1:
            assert ours[1].startswith("usage: canimm ") and "error: " in ours[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "delta2", "--stag", "5", "--stages=6"],
        ["build", "--out=-", "--markers=-0", "ci-hi", "--stages", "9"],
        ["check", "--expect-fail", "schnorr", "--modulus=zero", "-5", "--budget", "3"],
        ["measure", "-1", "-2"],
        ["measure", "--", "-1", "2"],
        ["build", "--help", "nonesuch"],
        ["build", "nonesuch", "--help"],
        ["build", "delta2", "--bogus", "--help"],
        ["build", "delta2", "--help", "--b", "1"],
        ["build", "delta2", "--stages", "--help"],
        ["check", "immunity", "t", "--expect-fail=yes"],
        ["--help"],
        ["--he", "build"],
        [],
    ],
)
def test_flag_table_keeps_argparse_meaning_on_edge_forms(argv):
    reference = _outcome(_reference_parse, argv)
    ours = _outcome(command.parse_args, argv)
    assert ours == reference if isinstance(reference, dict) else ours[0] == reference[0]


def test_broken_extension_order_exits_2(monkeypatch, capsys):
    def broken(pool, args):
        raise mathias.ExtensionOrderError("step 3 (thin) does not extend its input")

    monkeypatch.setitem(builds.BUILDS, "delta2", broken)
    assert command.main(["build", "delta2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: step 3 (thin) does not extend its input\n"
    assert captured.out == ""


def test_check_immunity_roundtrip(tmp_path):
    trace = tmp_path / "delta2.trace"
    assert run_cli("build", "delta2", "--stages", "800", "--markers", "16", "--out", str(trace)).returncode == 0
    good = run_cli("check", "immunity", str(trace), "--index-bound", "16")
    assert good.returncode == 0, good.stdout + good.stderr
    assert "verdict\tpass" in good.stdout
    # expect-fail inverts the exit logic
    assert run_cli("check", "immunity", str(trace), "--index-bound", "16", "--expect-fail").returncode == 2


def test_check_expected_failure_on_witness_trace(tmp_path):
    trace = tmp_path / "hnc.trace"
    assert run_cli("build", "hi-not-ci", "--blocks", "6", "--out", str(trace)).returncode == 0
    plain = run_cli("check", "immunity", str(trace))
    assert plain.returncode == 2
    expected = run_cli("check", "immunity", str(trace), "--expect-fail")
    assert expected.returncode == 0
    assert "violation" in expected.stdout


def test_check_missing_file_errors():
    result = run_cli("check", "immunity", "no-such-file.trace")
    assert result.returncode == 1
    assert "no such trace" in result.stderr


def _assert_input_error(result):
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


def test_out_into_a_missing_directory_errors(tmp_path):
    out = str(tmp_path / "no-such-dir" / "x.trace")
    _assert_input_error(run_cli("build", "delta2", "--stages", "10", "--markers", "2", "--out", out))
    trace = tmp_path / "delta2.trace"
    assert run_cli("build", "delta2", "--stages", "10", "--markers", "2", "--out", str(trace)).returncode == 0
    _assert_input_error(run_cli("check", "immunity", str(trace), "--out", out))


def test_build_malformed_pool_file_errors(tmp_path):
    pool_file = tmp_path / "pool.tsv"
    pool_file.write_text("0\tnot-a-code\t1\tlabel\n")
    _assert_input_error(run_cli("build", "delta2", "--pool", str(pool_file)))


def test_short_pool_and_record_lines_name_the_line_and_what_it_lacks(tmp_path):
    pool_file = tmp_path / "short.tsv"
    pool_file.write_text(f"0\t{pg.identity_code()}\t1\tstandard\n0\t5\n")
    result = run_cli("build", "delta2", "--pool", str(pool_file))
    _assert_input_error(result)
    assert "line 2 has too few fields: a pool line needs an id, a rule and a surjective flag" in result.stderr
    trace = tmp_path / "short.trace"
    trace.write_text("trace\tdelta2\nrec\t5\n")
    result = run_cli("check", "immunity", str(trace))
    _assert_input_error(result)
    assert "line 2 is a record with no rule" in result.stderr


@pytest.mark.parametrize("line", ["1\t{code}\t1\tstandard", "0\t{code}\t1\tstandard\textra"], ids=["id-1", "fifth-field"])
def test_pool_line_with_a_misnumbered_id_or_a_fifth_field_errors(tmp_path, line):
    pool_file = tmp_path / "pool.tsv"
    pool_file.write_text(line.format(code=pg.identity_code()) + "\n")
    result = run_cli("build", "cofinal", "--pool", str(pool_file))
    _assert_input_error(result)
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: cannot read pool file")


def test_build_missing_pool_file_errors(tmp_path):
    _assert_input_error(run_cli("build", "delta2", "--pool", str(tmp_path / "no-such-pool.tsv")))


def _main_in_process(argv):
    """The stdout, stderr and exit status of `command.main(argv)` in this
    process, a usage error's or --help's SystemExit caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = command.main(argv)
        except SystemExit as exit:
            status = exit.code
    return out.getvalue(), err.getvalue(), status


@pytest.mark.parametrize(
    "argv, status",
    [
        (["build", "delta2", "--stages", "50", "--markers", "8"], 0),
        (["check", "immunity", "--expect-fail", "{trace}"], 2),
        (["build", "delta2", "--no-such-flag"], 1),
        (["build", "cofinal", "--pool", "{missing}"], 1),
        (["measure", "1", "200"], 1),
        (["--help"], 0),
    ],
    ids=["build", "expect-fail-on-a-pass", "unknown-flag", "missing-pool", "measure-past-the-digit-limit", "help"],
)
def test_process_entry_exits_as_main_does(tmp_path, argv, status):
    """`python -m canimm` goes through `command.run`, which freezes the heap
    on its way out: it prints and exits as `command.main` does in process."""
    trace = tmp_path / "delta2.trace"
    assert command.main(["build", "delta2", "--stages", "50", "--markers", "8", "--out", str(trace)]) == 0
    argv = [arg.format(trace=trace, missing=tmp_path / "no-such-pool.tsv") for arg in argv]
    result = run_cli(*argv)
    assert (result.stdout, result.stderr, result.returncode) == _main_in_process(argv)
    assert result.returncode == status


# The process entry as `python -m canimm` runs it, with an exit-time probe of
# the frozen objects; sys.argv[1] == "raise" makes `main` raise instead.
_FREEZE_PROBE = """
import atexit, gc, runpy, sys
import canimm.command

atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
print("frozen at start:", gc.get_freeze_count() > 0)
if sys.argv[1] == "raise":
    canimm.command.main = lambda: 1 // 0
sys.argv = ["canimm", *sys.argv[1:]]
runpy.run_module("canimm", run_name="__main__")
"""


@pytest.mark.parametrize("argv, status", [(["measure", "1", "3"], 0), (["measure", "x"], 1), (["raise"], 1)],
                         ids=["returned-status", "usage-error", "uncaught-exception"])
def test_process_entry_freezes_the_heap_on_every_way_out(argv, status):
    result = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, *argv], capture_output=True, text=True)
    assert result.returncode == status, result.stderr
    lines = result.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("frozen at start: False", "frozen at exit: True")
    assert ("ZeroDivisionError" in result.stderr) == (argv == ["raise"])


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert command.main(["measure", "1", "3"]) == 0
    with pytest.raises(SystemExit):
        command.main(["--help"])
    assert gc.get_freeze_count() == frozen


def test_check_malformed_trace_errors(tmp_path):
    trace = tmp_path / "bad.trace"
    trace.write_text("trace\tdelta2\nbogus\trecord\n")
    _assert_input_error(run_cli("check", "immunity", str(trace)))


def test_check_rejects_record_stages_that_are_not_ascii_decimal(tmp_path):
    trace = tmp_path / "delta2.trace"
    assert run_cli("build", "delta2", "--stages", "10", "--markers", "2", "--out", str(trace)).returncode == 0
    text = trace.read_text()
    trace.write_text(text.replace("\nrec\t0\t", "\nrec\t10\t", 1))
    assert run_cli("check", "immunity", str(trace)).returncode == 0
    # int() reads these stages as 10, 4, 3, 10 and 0 (the third is an
    # Arabic-Indic digit), which render back as other bytes
    for stage in ("1_0", "+4", "٣", "010", "00"):
        edited = text.replace("\nrec\t0\t", f"\nrec\t{stage}\t", 1)
        with pytest.raises(ValueError, match="record stage"):
            parse_trace(edited)
        trace.write_text(edited, encoding="utf-8")
        _assert_input_error(run_cli("check", "immunity", str(trace)))


def test_check_rejects_record_fields_in_a_form_the_codec_does_not_write(tmp_path):
    """A leading zero, `-0`, or `0x` below DECIMAL_LIMIT or in uppercase
    would parse to an int that renders back as other bytes."""
    trace = tmp_path / "delta2.trace"
    assert run_cli("build", "delta2", "--stages", "10", "--markers", "2", "--out", str(trace)).returncode == 0
    text = trace.read_text()
    assert "\nrec\t0\tset\t0\t" in text
    big = format(DECIMAL_LIMIT, "x")
    for field in ("007", "-0", "0x7", f"0X{big}", f"0x{big.upper()}", f"0x0{big}"):
        edited = text.replace("\tset\t0\t", f"\tset\t{field}\t", 1)
        with pytest.raises(ValueError):
            parse_trace(edited)
        trace.write_text(edited)
        _assert_input_error(run_cli("check", "immunity", str(trace)))


_INT_LIKE = re.compile(r"-?([0-9]+|0[xX].*)", re.DOTALL)


def _edit_atom(number, edit):
    """The codec's text of number after one edit that may break its form."""
    text = render_atom(number)
    sign, body = ("-", text[1:]) if text[0] == "-" else ("", text)
    head = 2 if body[:2] == "0x" else 0
    return {
        "none": text,
        "zero": sign + body[:head] + "0" + body[head:],
        "upper": sign + body.upper(),
        "minus": "-" + body,
        "plus": "+" + body,
        "radix": sign + (body[2:] if head else format(int(body), "#x")),
    }[edit]


@settings(max_examples=300)
@given(
    st.text("-0123456789abcdefxX+", max_size=10)
    | st.builds(_edit_atom, _near_the_limit, st.sampled_from(["none", "zero", "upper", "minus", "plus", "radix"]))
)
def test_an_atom_the_parser_accepts_renders_back_to_its_bytes(text):
    """Every integer parse_value returns renders back as the very text it
    read; text shaped as an integer either parses so or raises; a record
    stage is read only in the form str writes."""
    try:
        value = parse_value(text)
    except ValueError:
        value = None
    if isinstance(value, str):
        assert not _INT_LIKE.fullmatch(text)
    if isinstance(value, int):
        assert render_atom(value) == text
    stage = f"trace\tx\nrec\t{text}\tr\n"
    if re.fullmatch(r"0|[1-9][0-9]*", text):
        assert parse_trace(stage).records[0].stage == int(text)
    else:
        with pytest.raises(ValueError, match="record stage"):
            parse_trace(stage)


# (construction, flags whose trace holds an integer of more than 4,300
# decimal digits, the library run with the same parameters)
LARGE_TRACE_CASES = [
    ("effectivize", ("--markers", "64"), lambda pool: _effectivize_run(pool, 1000, 64, 256)),
    ("hi-not-ci", ("--blocks", "7"), lambda pool: _hi_not_ci_run(pool, 7)),
    ("hi-not-ci", ("--blocks", "8"), lambda pool: _hi_not_ci_run(pool, 8)),
    ("2generic-witness", ("--index-bound", "20"), lambda pool: _2generic_witness_run(pool, 20)),
    ("generic", ("--index-bound", "64"), lambda pool: _generic_run(pool, 64, 6, 32, 1000)),
]


@pytest.mark.parametrize(
    "name,flags,library_run", LARGE_TRACE_CASES, ids=[f"{name}{flags[1]}" for name, flags, _ in LARGE_TRACE_CASES]
)
def test_build_writes_integers_past_the_decimal_limit_in_hex(pool, tmp_path, name, flags, library_run):
    """These builds once failed on Python's int->str digit limit: their
    traces now hold hex atoms, replay through the library, and match a
    rendered library run byte for byte."""
    out = tmp_path / "big.trace"
    result = run_cli("build", name, *flags, "--out", str(out))
    assert result.returncode == 0, result.stderr
    text = out.read_text()
    assert "\t0x" in text
    parsed = parse_trace(text)
    replayed = REPLAYS[name](parsed)
    assert {label: (p.mask, p.length) for label, p in parsed.prefixes.items()} == {
        label: (p.mask, p.length) for label, p in replayed.items()
    }
    assert render_trace(*library_run(pool)) == text


def test_check_immunity_refutes_the_eight_block_trace(tmp_path):
    trace = tmp_path / "h8.trace"
    assert run_cli("build", "hi-not-ci", "--blocks", "8", "--out", str(trace)).returncode == 0
    result = run_cli("check", "immunity", str(trace), "--expect-fail")
    assert result.returncode == 0, result.stderr
    assert "violation\t" in result.stdout


def test_verdict_violations_past_the_decimal_limit_print_in_hex():
    code = 1 << 20000
    verdict = checkers.Verdict(checkers.FAIL, ((0, 7, code, 3),))
    assert checkers.serialize_verdict(verdict) == f"verdict\tfail\nviolation\t0\t7\t{code:#x}\t3\n"


def test_trace_bytes_do_not_depend_on_the_runtime_digit_limit():
    """A lower int->str limit may make a build fail, never change its bytes."""
    flags = ("build", "hi-not-ci", "--blocks", "6")
    default = run_cli(*flags)
    assert default.returncode == 0
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
    limited = subprocess.run([sys.executable, "-m", "canimm", *flags], capture_output=True, text=True, env=env)
    if limited.returncode == 0:
        assert limited.stdout == default.stdout
    else:
        _assert_input_error(limited)


def test_measure_past_the_int_digit_limit_errors():
    result = run_cli("measure", "1", "200")
    _assert_input_error(result)
    assert "the measure of U_1 truncated at m = 200 has an integer of more than" in result.stderr
    assert "a smaller m (the second argument) shrinks it" in result.stderr


def test_build_hi_not_ci_without_blocks_errors():
    _assert_input_error(run_cli("build", "hi-not-ci", "--blocks", "0"))


def test_build_hi_not_ci_past_the_size_guard_errors():
    # unguarded, the 9th selection walks 4.7 million blocks, about 25 s
    command = [sys.executable, "-m", "canimm", "build", "hi-not-ci", "--blocks", "9"]
    result = subprocess.run(command, capture_output=True, text=True, timeout=10)
    _assert_input_error(result)
    assert "error: --blocks 9: selection 9 would walk more than" in result.stderr


@pytest.mark.parametrize("name", ["bci", "ci-not-hi"])
def test_build_past_the_fill_horizon_errors(name):
    # unguarded, bci ran to 7.6 GB of memory and was killed; the 1 GB
    # address-space cap is set in the child only
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    command = [sys.executable, "-m", "canimm", "build", name, "--stages", "100", "--index-bound", "10000"]
    result = subprocess.run(command, capture_output=True, text=True, timeout=10, preexec_fn=cap)
    _assert_input_error(result)
    assert "error: --index-bound 10000: numbering 3 reaches element" in result.stderr
    assert f"past the {C.MAX_FILL_PAIRS} pair blocks a fill may cover" in result.stderr


def test_build_hi_not_ci_with_double_second_errors(monkeypatch, capsys):
    # unguarded, this list ran out of memory at 10 selections
    fns = [pg.identity_code(), pg.double_code(), pg.succ_code(), pg.zero_code()]
    monkeypatch.setattr(builds, "default_functions", lambda: fns)
    assert command.main(["build", "hi-not-ci", "--blocks", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --blocks 10: selection 7 would walk more than") and "Traceback" not in err


def test_measure_negative_n_errors():
    _assert_input_error(run_cli("measure", "-1", "3"))


def test_measure_past_the_size_guard_errors_before_computing():
    # the size guard refuses both before computing anything
    for m in ("3000", "10000"):
        command_line = [sys.executable, "-m", "canimm", "measure", "0", m]
        result = subprocess.run(command_line, capture_output=True, text=True, timeout=10)
        _assert_input_error(result)
        assert f"error: m = {m} would give a measure with denominator 2^" in result.stderr


def test_check_witness_trace_without_witness_rule_errors(tmp_path):
    trace = tmp_path / "hnc.trace"
    assert run_cli("build", "hi-not-ci", "--blocks", "6", "--out", str(trace)).returncode == 0
    stripped = tmp_path / "no-rule.trace"
    stripped.write_text("".join(line for line in trace.read_text().splitlines(True) if "witness_rule" not in line))
    _assert_input_error(run_cli("check", "immunity", str(stripped), "--expect-fail"))


def test_check_schnorr_with_malformed_missed_blocks_errors(tmp_path):
    trace = tmp_path / "generic.trace"
    flags = ("--index-bound", "6", "--blocks", "4", "--markers", "5", "--stages", "120")
    assert run_cli("build", "generic", *flags, "--out", str(trace)).returncode == 0
    lines = trace.read_text().splitlines(True)
    retyped = [("meta\tmissed_blocks\tx\n" if line.startswith("meta\tmissed_blocks\t") else line) for line in lines]
    assert retyped != lines
    bad = tmp_path / "bad.trace"
    bad.write_text("".join(retyped))
    _assert_input_error(run_cli("check", "schnorr", str(bad)))


def _with_meta(tmp_path, trace, key, value):
    """A copy of the trace file whose meta `key` line holds `value`."""
    lines = trace.read_text().splitlines(True)
    edited = [f"meta\t{key}\t{value}\n" if line.startswith(f"meta\t{key}\t") else line for line in lines]
    assert edited != lines
    out = tmp_path / f"edited-{key}.trace"
    out.write_text("".join(edited))
    return out


def test_check_schnorr_with_a_negative_missed_block_errors(tmp_path):
    trace = tmp_path / "generic.trace"
    flags = ("--index-bound", "6", "--blocks", "4", "--markers", "5", "--stages", "120")
    assert run_cli("build", "generic", *flags, "--out", str(trace)).returncode == 0
    result = run_cli("check", "schnorr", str(_with_meta(tmp_path, trace, "missed_blocks", "[-3]")))
    _assert_input_error(result)
    assert "missed_blocks" in result.stderr


def test_check_schnorr_refuses_a_missed_block_below_1(tmp_path):
    """Blocks are numbered from 1: a block 0 is refused with one error line,
    and block 1 still answers U_0 (this trace's prefix holds 0, so block 1
    is not missed)."""
    trace = tmp_path / "generic.trace"
    flags = ("--index-bound", "6", "--blocks", "4", "--markers", "5", "--stages", "120")
    assert run_cli("build", "generic", *flags, "--out", str(trace)).returncode == 0
    result = run_cli("check", "schnorr", str(_with_meta(tmp_path, trace, "missed_blocks", "[0]")))
    _assert_input_error(result)
    assert result.stdout == "" and result.stderr.count("\n") == 1 and "missed_blocks" in result.stderr
    result = run_cli("check", "schnorr", str(_with_meta(tmp_path, trace, "missed_blocks", "[1]")))
    assert (result.returncode, result.stdout) == (2, "schnorr\tU_0\tMISSING\twitness\t0\n"), result.stderr


def test_check_immunity_with_a_negative_witness_position_errors(tmp_path):
    trace = tmp_path / "hnc.trace"
    assert run_cli("build", "hi-not-ci", "--blocks", "6", "--out", str(trace)).returncode == 0
    edited = _with_meta(tmp_path, trace, "witness_positions", "[-5]")
    result = run_cli("check", "immunity", str(edited), "--expect-fail")
    _assert_input_error(result)
    assert "witness_positions" in result.stderr


def test_check_immunity_refuses_a_witness_position_past_twice_the_prefix(tmp_path):
    """Block n of the witness rule starts at or above n, so a position 2n at
    or past twice the prefix length names a block outside the prefix; the
    check refuses it with one error line before it scans."""
    trace = tmp_path / "hnc.trace"
    assert run_cli("build", "hi-not-ci", "--blocks", "4", "--out", str(trace)).returncode == 0
    length = parse_trace(trace.read_text()).prefixes["R"].length
    forged = _with_meta(tmp_path, trace, "witness_positions", "[200000]")
    command_line = [sys.executable, "-m", "canimm", "check", "immunity", str(forged), "--expect-fail"]
    result = subprocess.run(command_line, capture_output=True, text=True, timeout=10)
    _assert_input_error(result)
    assert result.stderr == f"error: witness position 200000 names block 100000, which starts at or past the prefix length {length}\n"
    for last, code in ((2 * length - 1, 0), (2 * length, 1)):
        edge = _with_meta(tmp_path, trace, "witness_positions", f"[4,{last}]")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert command.main(["check", "immunity", str(edge), "--expect-fail"]) == code, last


def test_hi_not_ci_witness_positions_stay_below_half_the_prefix(tmp_path):
    """Every trace the CLI builds keeps its largest witness position at most
    4/9 of its prefix length, far below the refused twice that, and checks."""
    for count in range(1, 9):
        trace = tmp_path / f"hnc{count}.trace"
        assert command.main(["build", "hi-not-ci", "--blocks", str(count), "--out", str(trace)]) == 0
        parsed = parse_trace(trace.read_text())
        assert 9 * max(parsed.meta["witness_positions"]) <= 4 * parsed.prefixes["R"].length, count
        verdict = tmp_path / f"hnc{count}.verdict"
        assert command.main(["check", "immunity", str(trace), "--expect-fail", "--out", str(verdict)]) == 0, count


def test_check_schnorr_without_prefix_errors(tmp_path):
    trace = tmp_path / "generic.trace"
    flags = ("--index-bound", "6", "--blocks", "4", "--markers", "5", "--stages", "120")
    assert run_cli("build", "generic", *flags, "--out", str(trace)).returncode == 0
    lines = trace.read_text().splitlines(True)
    kept = [line for line in lines if not line.startswith("prefix\tR\t")]
    assert len(kept) == len(lines) - 1
    stripped = tmp_path / "no-prefix.trace"
    stripped.write_text("".join(kept))
    _assert_input_error(run_cli("check", "schnorr", str(stripped)))


@pytest.mark.parametrize("suite", ["immunity", "domination", "effective"])
def test_check_of_a_trace_without_prefix_errors(tmp_path, suite):
    witness = tmp_path / "witness.trace"
    assert command.main(["build", "2generic-witness", "--index-bound", "1", "--out", str(witness)]) == 0
    bare = tmp_path / "bare.trace"
    bare.write_text("trace\tdelta2\n")
    for trace in (witness, bare):
        for expect_fail in ([], ["--expect-fail"]):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert command.main(["check", suite, str(trace), *expect_fail]) == 1
            assert "no prefix line" in err.getvalue()


def test_build_with_a_too_deep_pool_rule_errors(tmp_path):
    rule = M.Proj(0)
    for _ in range(M.MAX_NESTING):
        rule = M.Comp(M.Succ(), (rule,))
    pool_file = tmp_path / "pool.tsv"
    pool_file.write_text(f"0\t{M.encode(rule)}\t1\tdeep\n")
    result = run_cli("build", "delta2", "--stages", "10", "--markers", "2", "--pool", str(pool_file))
    _assert_input_error(result)
    assert "nest" in result.stderr


def test_a_pool_rule_past_the_fuel_cap_errors(tmp_path):
    # 2 ** (2 ** 40) needs more steps than the total tier's cap
    pool_file = tmp_path / "huge.tsv"
    pool_file.write_text(f"0\t{M.encode(M.Comp(M.Pow2(), (M.Const(2**40),)))}\t0\thuge\n")
    trace = tmp_path / "cofinal.trace"
    assert run_cli("build", "cofinal", "--out", str(trace)).returncode == 0
    for args in (("build", "cofinal"), ("check", "immunity", str(trace))):
        result = run_cli(*args, "--pool", str(pool_file))
        _assert_input_error(result)
        assert "needs more than" in result.stderr


def test_check_domination_and_effective(tmp_path):
    trace = tmp_path / "cnh.trace"
    assert run_cli("build", "ci-not-hi", "--stages", "200", "--index-bound", "10", "--out", str(trace)).returncode == 0
    dominated = run_cli("check", "domination", str(trace), "--modulus", "double")
    assert dominated.returncode == 0
    refuted = run_cli("check", "domination", str(trace), "--modulus", "zero", "--expect-fail")
    assert refuted.returncode == 0
    eff = run_cli("check", "effective", str(trace), "--modulus", "double", "--index-bound", "64", "--budget", "96")
    assert eff.returncode == 0


def test_check_schnorr_membership(tmp_path):
    trace = tmp_path / "generic.trace"
    build = run_cli(
        "build", "generic", "--index-bound", "6", "--blocks", "4", "--markers", "5", "--stages", "120",
        "--out", str(trace),
    )
    assert build.returncode == 0
    result = run_cli("check", "schnorr", str(trace))
    assert result.returncode == 0
    assert "member" in result.stdout


def test_cli_pool_file_roundtrip(tmp_path):
    pool_file = tmp_path / "pool.tsv"
    pool_file.write_text(default_pool().serialize())
    trace = tmp_path / "delta2.trace"
    with_file = run_cli("build", "delta2", "--stages", "300", "--markers", "8", "--pool", str(pool_file), "--out", str(trace))
    assert with_file.returncode == 0
    default_trace = tmp_path / "default.trace"
    assert run_cli("build", "delta2", "--stages", "300", "--markers", "8", "--out", str(default_trace)).returncode == 0
    assert trace.read_bytes() == default_trace.read_bytes()


def test_pool_file_holds_a_rule_past_the_decimal_limit(tmp_path):
    """Pool files write rules through the trace integer codec: the
    20,660-bit witness rule of `build 2generic-witness --index-bound 20`
    goes out as hex, reads back, and feeds a build."""
    _, witness, _ = C.build_2generic_witness("", pg.enumerate_oracle_ones_code(), pg.zero_code(), 20, 20)
    assert witness.rule >= DECIMAL_LIMIT
    pool = default_pool()
    pool.register(witness.rule, surjective=True, label="2generic-witness")
    text = pool.serialize()
    assert f"\t{witness.rule:#x}\t" in text
    assert Registry.deserialize(text).codes() == pool.codes()
    pool_file = tmp_path / "pool.tsv"
    pool_file.write_text(text)
    result = run_cli("build", "delta2", "--stages", "50", "--markers", "8", "--pool", str(pool_file))
    assert result.returncode == 0, result.stderr


def test_main_entrypoint_callable():
    # the benchmark runs the command line through the canimm.cli shim
    assert cli.main(["measure", "1", "3"]) == 0
    assert cli.modulus_catalog() == command.modulus_catalog()


# name -> the library function (module, attribute) its BUILDS entry reaches
BUILD_ENTRY_POINTS = {
    "delta2": (markers, "delta2_prefix"),
    "bci": (avoiding, "bci_run"),
    "cofinal": (avoiding, "cofinal_encode"),
    "ci-hi": (avoiding, "ci_hi_run"),
    "ci-not-hi": (avoiding, "ci_not_hi_run"),
    "hi-not-ci": (blocks, "hi_not_ci_run"),
    "effectivize": (markers, "effectivize_inside"),
    "2generic-witness": (pumping, "build_2generic_witness"),
    "generic": (mathias, "build_generic"),
}

# suite -> (module, attribute) its CHECKS entry reaches, and the build and
# check flags that make it reach it
CHECK_ENTRY_POINTS = {
    "immunity": ((checkers, "check_canonical_immunity"), "delta2", ()),
    "domination": ((checkers, "refute_domination"), "ci-not-hi", ("--modulus", "double")),
    "effective": ((checkers, "check_effective_immunity"), "ci-not-hi", ("--modulus", "double", "--budget", "96")),
    "schnorr": ((schnorr, "disjoint_blocks"), "generic", ()),
}


def _count_calls(monkeypatch, module, attr):
    calls = []
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("name,flags", BUILD_FLAGS, ids=[name for name, _ in BUILD_FLAGS])
def test_build_entry_calls_the_library_through_its_module(monkeypatch, tmp_path, name, flags):
    """A wrapper installed on the module after import (the benchmark
    tracer's, say) sees the call; an entry that captured the function at
    import would bypass it."""
    assert set(BUILD_ENTRY_POINTS) == set(builds.BUILDS)
    calls = _count_calls(monkeypatch, *BUILD_ENTRY_POINTS[name])
    assert command.main(["build", name, *flags, "--out", str(tmp_path / "t.trace")]) == 0
    assert calls


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_constructions_index_holds_its_families_objects():
    """The benchmark reads names off `canimm.constructions`: its tracer wraps
    them there and rebinds each wrapper wherever the same object is bound,
    and its verifier calls the replays.  Each is its family's own object."""
    tracer = _perfbench_module("tracer")
    names = {attr for _, module, attr in tracer.ENTRY_POINTS if module == "constructions"}
    verify = (ROOT / "perfbench" / "verify.py").read_text()
    assert "from canimm import constructions as C\n" in verify
    names |= set(re.findall(r"\bC\.(\w+)", verify))
    assert {"delta2_prefix", "pump_enumeration", "h_block_at", "replay_2generic", "cofinal_decode"} <= names
    for name in names:
        value = getattr(C, name)
        assert value.__module__ in {family.__name__ for family in (avoiding, blocks, markers, pumping)}
        assert getattr(sys.modules[value.__module__], name) is value


# a build of each construction family -> the span its traced run records
TRACED_FAMILY_BUILDS = {
    "delta2": "constructions.delta2_prefix",
    "bci": "constructions.bci_run",
    "hi-not-ci": "constructions.hi_not_ci_run",
    "2generic-witness": "constructions.build_2generic_witness",
}


@pytest.mark.parametrize("name", sorted(TRACED_FAMILY_BUILDS))
def test_the_benchmark_tracer_records_each_family_entry_point(tmp_path, name):
    """perfbench/tracer.py wraps `canimm.constructions.<entry>`; the build
    runs the entry off its family module, which must hold the wrapper."""
    tracer = _perfbench_module("tracer")
    spans = tmp_path / "spans"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command_line = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "op", "build", name,
                    *dict(BUILD_FLAGS)[name], "--out", str(tmp_path / "t.trace")]
    result = subprocess.run(command_line, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    _, names, counts, (name_col, *_) = tracer.load(spans)
    span = TRACED_FAMILY_BUILDS[name]
    assert span in names and list(name_col).count(names.index(span)) == 1
    assert counts["constructions.records"] > 0


@pytest.mark.parametrize("suite", sorted(CHECK_ENTRY_POINTS))
def test_check_entry_calls_the_library_through_its_module(monkeypatch, tmp_path, suite):
    assert set(CHECK_ENTRY_POINTS) == set(checks.CHECKS)
    entry_point, build, flags = CHECK_ENTRY_POINTS[suite]
    trace = str(tmp_path / "t.trace")
    assert command.main(["build", build, *dict(BUILD_FLAGS)[build], "--out", trace]) == 0
    calls = _count_calls(monkeypatch, *entry_point)
    assert command.main(["check", suite, trace, *flags, "--out", str(tmp_path / "verdicts")]) == 0
    assert calls


def test_check_schnorr_inconclusive_exits_like_the_other_suites(tmp_path, capsys):
    """An Inconclusive is no failure: exit 0, or 2 under --expect-fail."""
    trace = str(tmp_path / "g0.trace")
    flags = ("--index-bound", "4", "--blocks", "0", "--markers", "4", "--stages", "20")
    assert command.main(["build", "generic", *flags, "--out", trace]) == 0
    capsys.readouterr()
    for expect_fail, code in (([], 0), (["--expect-fail"], 2)):
        assert command.main(["check", "schnorr", trace, *expect_fail]) == code
        assert capsys.readouterr().out == "schnorr\tinconclusive\tno covered missed blocks\n"


class _Unread:
    """Stands for an input a verb declares it does not read: any use raises."""

    def _refuse(self, *args):
        raise AssertionError("a handler used an input its verb does not declare")

    __getattr__ = __iter__ = __len__ = __bool__ = __index__ = __int__ = __hash__ = _refuse
    __eq__ = __lt__ = __le__ = __gt__ = __ge__ = __add__ = __mul__ = __rshift__ = __and__ = __or__ = _refuse


class _Watched:
    """A pool that counts the handler's reads of it."""

    def __init__(self, pool):
        self.pool, self.reads = pool, 0

    def __iter__(self):
        self.reads += 1
        return iter(self.pool)

    def codes(self):
        self.reads += 1
        return self.pool.codes()


def _declared(verb, name, pool, modulus=None):
    reads = command.VERBS[verb][name]
    return (pool if command.POOL in reads else _Unread()), (modulus if command.MODULUS in reads else _Unread())


def test_handlers_read_only_the_inputs_their_verbs_declare(pool):
    """Each handler runs with an input-refusing stand-in for every input its
    verb does not declare, and reads the pool whenever it declares one."""
    parsed = {}
    for name, flags in BUILD_FLAGS:
        watched = _Watched(pool)
        given_pool, _ = _declared("build", name, watched)
        trace, prefixes = builds.BUILDS[name](given_pool, command.parse_args(["build", name, *flags]))
        assert watched.reads > 0 or command.POOL not in command.VERBS["build"][name]
        parsed[name] = parse_trace(render_trace(trace, prefixes))
    for suite, (_, build, flags) in CHECK_ENTRY_POINTS.items():
        args = command.parse_args(["check", suite, "unused.trace", *flags])
        watched = _Watched(pool)
        given_pool, h = _declared("check", suite, watched, command.MODULI[args.modulus](pg))
        lines, found_fail = checks.CHECKS[suite](parsed[build], given_pool, h, args)
        assert lines and not found_fail
        assert watched.reads > 0 or command.POOL not in command.VERBS["check"][suite]


# the verbs that open --pool: every other verb runs with a missing pool file
POOL_READERS = {
    "build": {"delta2", "bci", "cofinal", "ci-hi", "ci-not-hi", "effectivize", "generic"},
    "check": {"immunity"},
}


def test_a_missing_pool_file_fails_exactly_the_verbs_that_read_a_pool(tmp_path, capsys):
    missing = str(tmp_path / "no-such-pool.tsv")
    declared = {verb: {n for n, reads in table.items() if command.POOL in reads} for verb, table in command.VERBS.items()}
    assert declared == POOL_READERS
    traces = {}
    for name, flags in BUILD_FLAGS:
        traces[name] = str(tmp_path / f"{name}.trace")
        code = command.main(["build", name, *flags, "--pool", missing, "--out", traces[name]])
        assert code == (1 if name in POOL_READERS["build"] else 0), name
        if code:  # a pool reader: build it from the default pool for the checks below
            assert f"error: cannot read pool file {missing}" in capsys.readouterr().err
            assert command.main(["build", name, *flags, "--out", traces[name]]) == 0
    for suite, (_, build, flags) in CHECK_ENTRY_POINTS.items():
        code = command.main(["check", suite, traces[build], *flags, "--pool", missing, "--out", str(tmp_path / "v")])
        assert code == (1 if suite in POOL_READERS["check"] else 0), suite
    assert capsys.readouterr().err.count("cannot read pool file") == len(POOL_READERS["check"])
