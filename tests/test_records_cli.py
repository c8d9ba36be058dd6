import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canimm import checkers, cli, command
from canimm import constructions as C
from canimm import machine as M
from canimm import mathias
from canimm import programs as pg
from canimm import schnorr
from canimm.finitesets import SetPrefix
from canimm.numberings import default_pool, witness_rule_from_table
from canimm.records import parse_trace, parse_value, render_trace, render_value


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "canimm", *args], capture_output=True, text=True)


def test_value_codec_roundtrip():
    for value in (0, 12345, "case2", [1, 2, 3], [], [(0, 4), (2, 9)], ["thin-D0", "size-8"]):
        assert parse_value(render_value(value)) == value


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
    assert {n for n, _ in BUILD_FLAGS} == set(cli.BUILDS) == set(REPLAYS)
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


def _generic_run(pool):
    schedule = mathias.default_schedule(list(pool), thin_count=6, avoid_count=4, stem_target=5)
    run = mathias.build_generic(mathias.Condition.empty(), schedule, horizon=120)
    return run.trace, {"R": run.prefix}


def _hi_not_ci_run(pool):
    prefix, trace = C.hi_not_ci_run(cli.default_functions(), 6, target_index=0)
    return trace, {"R": prefix}


def _2generic_witness_run(pool):
    _, _, trace = C.build_2generic_witness("", pg.enumerate_oracle_ones_code(), pg.zero_code(), 1, 1)
    return trace, {}


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


def _choices(parser, dest):
    return next(action.choices for action in parser._actions if action.dest == dest)


def test_parser_choices_are_the_name_tables():
    verbs = _choices(cli.build_parser(), "command")
    assert list(_choices(verbs["build"], "construction")) == list(cli.BUILDS)
    assert list(_choices(verbs["check"], "suite")) == list(cli.CHECKS)
    assert list(_choices(verbs["check"], "modulus")) == sorted(cli.modulus_catalog())


def test_broken_extension_order_exits_2(monkeypatch, capsys):
    def broken(pool, args):
        raise mathias.ExtensionOrderError("step 3 (thin) does not extend its input")

    monkeypatch.setitem(cli.BUILDS, "delta2", broken)
    assert cli.main(["build", "delta2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: step 3 (thin) does not extend its input\n"
    assert captured.out == ""


@given(st.text(alphabet="/.a", max_size=8))
def test_paths_show_as_pathlib_shows_them(text):
    # the CLI's messages name a path argument in this form
    assert command._path(text) == str(Path(text))


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


def test_build_missing_pool_file_errors(tmp_path):
    _assert_input_error(run_cli("build", "delta2", "--pool", str(tmp_path / "no-such-pool.tsv")))


def test_check_malformed_trace_errors(tmp_path):
    trace = tmp_path / "bad.trace"
    trace.write_text("trace\tdelta2\nbogus\trecord\n")
    _assert_input_error(run_cli("check", "immunity", str(trace)))


def test_build_past_the_int_digit_limit_errors():
    result = run_cli("build", "hi-not-ci", "--blocks", "7")
    _assert_input_error(result)
    assert "the hi-not-ci trace has an integer of more than" in result.stderr
    assert "a smaller --blocks shrinks it" in result.stderr


# (construction, its size flag, a value whose trace passes the digit limit,
# a smaller value whose trace does not)
TRACE_SIZE_CASES = [
    ("effectivize", "--markers", "64", "32"),
    ("hi-not-ci", "--blocks", "7", "6"),
    ("2generic-witness", "--index-bound", "20", "16"),
    ("generic", "--index-bound", "64", "48"),
]


def test_trace_size_cases_cover_the_flag_table():
    assert {case[:2] for case in TRACE_SIZE_CASES} == set(cli.TRACE_SIZE_FLAGS.items())


@pytest.mark.parametrize("construction, flag, too_big, fits", TRACE_SIZE_CASES, ids=[c[0] for c in TRACE_SIZE_CASES])
def test_build_names_the_flag_that_shrinks_an_oversized_trace(construction, flag, too_big, fits):
    result = run_cli("build", construction, flag, too_big)
    _assert_input_error(result)
    assert f"the {construction} trace has an integer of more than" in result.stderr
    assert f"a smaller {flag} shrinks it" in result.stderr
    assert run_cli("build", construction, flag, fits).returncode == 0


def test_build_without_a_size_flag_names_only_the_trace(monkeypatch, capsys):
    oversized = C.ConstructionTrace("delta2", {"code": 1 << 20000})
    monkeypatch.setitem(cli.BUILDS, "delta2", lambda pool, args: (oversized, {}))
    assert cli.main(["build", "delta2"]) == 1
    err = capsys.readouterr().err
    assert "the delta2 trace has an integer of more than" in err
    assert "shrinks it" not in err


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


def test_build_hi_not_ci_with_double_second_errors(monkeypatch, capsys):
    # unguarded, this list ran out of memory at 10 selections
    fns = [pg.identity_code(), pg.double_code(), pg.succ_code(), pg.zero_code()]
    monkeypatch.setattr(command, "default_functions", lambda: fns)
    assert cli.main(["build", "hi-not-ci", "--blocks", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --blocks 10: selection 7 would walk more than") and "Traceback" not in err


def test_measure_negative_n_errors():
    _assert_input_error(run_cli("measure", "-1", "3"))


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


def test_check_immunity_with_a_negative_witness_position_errors(tmp_path):
    trace = tmp_path / "hnc.trace"
    assert run_cli("build", "hi-not-ci", "--blocks", "6", "--out", str(trace)).returncode == 0
    edited = _with_meta(tmp_path, trace, "witness_positions", "[-5]")
    result = run_cli("check", "immunity", str(edited), "--expect-fail")
    _assert_input_error(result)
    assert "witness_positions" in result.stderr


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


def test_build_with_a_too_deep_pool_rule_errors(tmp_path):
    rule = M.Proj(0)
    for _ in range(M.MAX_NESTING):
        rule = M.Comp(M.Succ(), (rule,))
    pool_file = tmp_path / "pool.tsv"
    pool_file.write_text(f"0\t{M.encode(rule)}\t1\tdeep\n")
    result = run_cli("build", "delta2", "--stages", "10", "--markers", "2", "--pool", str(pool_file))
    _assert_input_error(result)
    assert "nest" in result.stderr


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


def test_main_entrypoint_callable():
    assert cli.main(["measure", "1", "3"]) == 0


# name -> the library function (module, attribute) its BUILDS entry reaches
BUILD_ENTRY_POINTS = {
    "delta2": (C, "delta2_prefix"),
    "bci": (C, "bci_run"),
    "cofinal": (C, "cofinal_encode"),
    "ci-hi": (C, "ci_hi_run"),
    "ci-not-hi": (C, "ci_not_hi_run"),
    "hi-not-ci": (C, "hi_not_ci_run"),
    "effectivize": (C, "effectivize_inside"),
    "2generic-witness": (C, "build_2generic_witness"),
    "generic": (mathias, "build_generic"),
}

# suite -> (module, attribute) its CHECKS entry reaches, and the build and
# check flags that make it reach it
CHECK_ENTRY_POINTS = {
    "immunity": ((checkers, "check_canonical_immunity"), "delta2", ()),
    "domination": ((checkers, "refute_domination"), "ci-not-hi", ("--modulus", "double")),
    "effective": ((checkers, "check_effective_immunity"), "ci-not-hi", ("--modulus", "double", "--budget", "96")),
    "schnorr": ((schnorr, "in_U_n"), "generic", ()),
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
    assert set(BUILD_ENTRY_POINTS) == set(cli.BUILDS)
    calls = _count_calls(monkeypatch, *BUILD_ENTRY_POINTS[name])
    assert cli.main(["build", name, *flags, "--out", str(tmp_path / "t.trace")]) == 0
    assert calls


@pytest.mark.parametrize("suite", sorted(CHECK_ENTRY_POINTS))
def test_check_entry_calls_the_library_through_its_module(monkeypatch, tmp_path, suite):
    assert set(CHECK_ENTRY_POINTS) == set(cli.CHECKS)
    entry_point, build, flags = CHECK_ENTRY_POINTS[suite]
    trace = str(tmp_path / "t.trace")
    assert cli.main(["build", build, *dict(BUILD_FLAGS)[build], "--out", trace]) == 0
    calls = _count_calls(monkeypatch, *entry_point)
    assert cli.main(["check", suite, trace, *flags, "--out", str(tmp_path / "verdicts")]) == 0
    assert calls
