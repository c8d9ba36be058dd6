import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canimm import builds, checks, machine
from canimm.checkers import Verdict
from canimm.finitesets import (
    FiniteSet,
    SetPrefix,
    code_of,
    elements_of,
    subset_of_string,
)
from canimm.mathias import (
    AvoidanceRecord,
    ComputableSet,
    Condition,
    GenericRun,
    MeetOutcome,
    ScheduleStep,
    ThinCertificate,
)
from canimm.numberings import Numbering, default_pool
from canimm.pumping import PumpResult, WitnessEntry
from canimm.records import ConstructionTrace, ParsedTrace, TraceRecord
from canimm.schnorr import DyadicRational

ROOT = Path(__file__).resolve().parent.parent


@given(st.lists(st.integers(0, 300)))
def test_code_of_sets_one_bit_per_distinct_element(elements):
    assert code_of(elements) == sum(1 << n for n in set(elements))
    assert code_of(iter(elements)) == code_of(elements)


def test_code_of_refuses_negative_elements():
    with pytest.raises(ValueError, match="negative element -2"):
        code_of([5, -2, -1])


def test_canonical_code_examples():
    assert FiniteSet.from_elements([]).code == 0
    assert FiniteSet.from_elements([0, 2]).code == 5
    assert FiniteSet(8).elements == (3,)
    assert FiniteSet(6).elements == (1, 2)


@given(st.sets(st.integers(min_value=0, max_value=200)))
def test_code_roundtrip(elements):
    fs = FiniteSet.from_elements(elements)
    assert set(fs.elements) == elements
    assert FiniteSet(fs.code).code == fs.code


@given(st.integers(min_value=0, max_value=1 << 64))
def test_decode_encode_identity_on_codes(code):
    assert FiniteSet.from_elements(FiniteSet(code).elements).code == code


def test_max_of_empty_set_is_undefined():
    with pytest.raises(ValueError):
        FiniteSet(0).max_value()


def test_characteristic_string_has_length_max_plus_one():
    assert FiniteSet(0).characteristic_string() == ""
    fs = FiniteSet.from_elements([0, 3])
    assert fs.characteristic_string() == "1001"


def test_subset_of_string_semantics():
    fs = FiniteSet.from_elements([1, 3])
    assert subset_of_string(fs, "0101")
    assert not subset_of_string(fs, "010")  # element beyond the string
    assert not subset_of_string(fs, "0100")
    assert subset_of_string(FiniteSet.from_elements([]), "")


def test_set_prefix_bits_roundtrip():
    p = SetPrefix.from_bits("01101")
    assert p.members() == (1, 2, 4)
    assert p.bits == "01101"
    assert SetPrefix.from_members([1, 2, 4], 5) == p
    assert elements_of(((1 << p.length) - 1) ^ p.mask) == (0, 3)


def test_set_prefix_rejects_overflow():
    with pytest.raises(ValueError):
        SetPrefix(0b100, 2)


# The per-bit loops the linear SetPrefix.bits, SetPrefix.from_bits,
# the complement's elements_of, FiniteSet.characteristic_string and
# elements_of replaced, kept as their reference.
def _bits_by_loop(mask, length):
    return "".join("1" if (mask >> n) & 1 else "0" for n in range(length))


def _complement_by_loop(mask, length):
    return tuple(n for n in range(length) if not (mask >> n) & 1)


def _from_bits_by_loop(bits):
    mask = 0
    for pos, ch in enumerate(bits):
        if ch == "1":
            mask |= 1 << pos
        elif ch != "0":
            raise ValueError(f"bad bit {ch!r}")
    return SetPrefix(mask, len(bits))


def _elements_by_loop(code):
    out = []
    while code:
        low = code & -code
        out.append(low.bit_length() - 1)
        code ^= low
    return tuple(out)


@given(st.integers(min_value=0, max_value=1 << 3000), st.integers(min_value=0, max_value=70))
def test_prefix_bits_and_elements_match_the_per_bit_loops(mask, extra):
    length = mask.bit_length() + extra
    prefix = SetPrefix(mask, length)
    assert prefix.bits == _bits_by_loop(mask, length)
    assert SetPrefix.from_bits(prefix.bits) == _from_bits_by_loop(prefix.bits) == prefix
    assert elements_of(((1 << length) - 1) ^ mask) == _complement_by_loop(mask, length)
    # the characteristic string runs to the largest element: "" for the empty set
    assert FiniteSet(mask).characteristic_string() == _bits_by_loop(mask, mask.bit_length())
    assert elements_of(mask) == _elements_by_loop(mask)


@given(st.sets(st.integers(min_value=0, max_value=20000), max_size=300))
def test_elements_of_sparse_and_dense_codes_match_the_per_bit_loop(elements):
    # up to 300 elements below 20000: both sides of the count*count < 4*bits
    # choice in elements_of, long codes included
    code = sum(1 << n for n in elements)
    assert elements_of(code) == _elements_by_loop(code) == tuple(sorted(elements))


def test_elements_of_at_the_sparse_dense_boundary():
    # top bit 99: 19 elements take the clearing loop, 20 the bit scan
    for count in (19, 20):
        elements = tuple(range(99 - count + 1, 100))
        assert elements_of(sum(1 << n for n in elements)) == elements


@given(st.text(alphabet="01_+- 2\n", max_size=24))
def test_from_bits_rejects_what_the_per_bit_loop_rejects(text):
    # int(text, 2) alone would take "_", "+", "-" and surrounding spaces
    try:
        expected = _from_bits_by_loop(text)
    except ValueError as err:
        with pytest.raises(ValueError) as info:
            SetPrefix.from_bits(text)
        assert str(info.value) == str(err)
    else:
        assert SetPrefix.from_bits(text) == expected


def test_cli_import_loads_no_dataclasses():
    # -S: a .pth file of the installation may import dataclasses itself
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, canimm.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def _imports(*argv, cwd=None):
    """The modules a fresh `python -S -X importtime ARGV` process imports,
    and the finished process.  -S: no .pth file imports anything first.
    The tests' references are importable too, as `reference` and as
    `tests.reference`, so that a verb loading them would show."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (ROOT / "src", ROOT, ROOT / "tests")))}
    command = [sys.executable, "-S", "-X", "importtime", *argv]
    result = subprocess.run(command, env=env, capture_output=True, text=True, cwd=cwd)
    lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}, result


# the tests' references, under both names `_imports` makes importable
REFERENCE = {"reference", "tests.reference"}


def _canimm(modules):
    return {name for name in modules if name.split(".")[0] == "canimm"}


def test_measure_loads_only_the_front_and_schnorr():
    modules, result = _imports("-m", "canimm", "measure", "1", "3")
    assert result.returncode == 0, result.stderr
    # not canimm.builds or canimm.checks: the glue of both verbs stays uncompiled
    assert _canimm(modules) == {"canimm", "canimm.command", "canimm.finitesets", "canimm.schnorr"}
    assert not modules & REFERENCE
    assert not modules & {"pathlib", "typing"}
    assert not modules & {"argparse", "gettext"}  # the flags come from command.ARGS


# construction -> the one construction family module its build loads
BUILD_FAMILIES = {
    "delta2": "canimm.markers",
    "effectivize": "canimm.markers",
    "bci": "canimm.avoiding",
    "cofinal": "canimm.avoiding",
    "ci-hi": "canimm.avoiding",
    "ci-not-hi": "canimm.avoiding",
    "hi-not-ci": "canimm.blocks",
    "2generic-witness": "canimm.pumping",
    "generic": None,  # mathias: no construction family
}
FAMILIES = {"canimm.markers", "canimm.avoiding", "canimm.blocks", "canimm.pumping"}


def test_build_and_check_load_only_the_modules_they_run(tmp_path):
    """Each build loads exactly its family's module and never the
    `constructions` index of all four; no check loads a family module; a
    build loads its glue `builds` and never `checks`, and a check the
    reverse; no verb loads `recursion`, whose s-m-n and fixed points no
    verb runs, or the tests' references."""
    from test_records_cli import BUILD_FLAGS, CHECK_ENTRY_POINTS

    assert set(BUILD_FAMILIES) == set(builds.BUILDS) == {name for name, _ in BUILD_FLAGS}
    assert set(CHECK_ENTRY_POINTS) == set(checks.CHECKS)
    never = {"canimm.constructions", "canimm.recursion", "argparse", "gettext", *REFERENCE}
    traces = {}
    for name, flags in BUILD_FLAGS:
        traces[name] = str(tmp_path / f"{name}.trace")
        modules, result = _imports("-m", "canimm", "build", name, *flags, "--out", traces[name])
        assert result.returncode == 0, result.stderr
        family = BUILD_FAMILIES[name]
        assert modules & FAMILIES == ({family} if family else set()), name
        assert not modules & (never | {"canimm.checkers", "canimm.checks"}), name
        assert "canimm.builds" in modules, name
        assert ("canimm.mathias" in modules) == (name == "generic"), name
        assert ("canimm.schnorr" in modules) == (name == "generic"), name
    for suite, (_, build, flags) in CHECK_ENTRY_POINTS.items():
        modules, result = _imports("-m", "canimm", "check", suite, traces[build], *flags)
        assert result.returncode in (0, 2), result.stderr
        assert not modules & (FAMILIES | never | {"canimm.mathias", "canimm.builds"}), suite
        assert "canimm.checks" in modules, suite
        assert "canimm.records" in modules, suite
        assert ("canimm.checkers" in modules) == (suite != "schnorr"), suite
        assert ("canimm.schnorr" in modules) == (suite == "schnorr"), suite


@pytest.mark.parametrize("verb", [None, "build", "check", "measure"])
def test_help_exits_0_and_lists_every_flag_of_its_verb(verb):
    """--help needs no argparse either: it prints the usage line, the verb's
    positionals and every flag of the verb from command.ARGS."""
    from canimm.command import _TOP, ARGS

    modules, result = _imports("-m", "canimm", *([verb] if verb else []), "--help")
    assert result.returncode == 0, result.stderr
    assert all(line.startswith("import time:") for line in result.stderr.splitlines())  # no error text
    assert not modules & {"argparse", "gettext"}
    out = result.stdout
    assert out.startswith(f"usage: canimm {verb} [-h]" if verb else "usage: canimm [-h] {build,check,measure} ...")
    _, positionals, flags = ARGS.get(verb, _TOP)
    for name, kind in positionals.items():
        assert ("{" + ",".join(kind) + "}" if isinstance(kind, dict) else f" {name}") in out.splitlines()[0]
    for flag in flags:
        assert f"\n  --{flag.replace('_', '-')} " in out
    expected = {"build": {"--stages", "--markers", "--index-bound", "--budget", "--blocks", "--pool", "--out"},
                "check": {"--pool", "--index-bound", "--budget", "--modulus", "--expect-fail", "--out"}}
    assert {"--" + flag.replace("_", "-") for flag in flags} == expected.get(verb, set())


def test_check_schnorr_loads_no_pool_and_no_machine(tmp_path):
    """The schnorr suite reads neither --pool nor --modulus, so it opens no
    pool file and encodes no modulus: nothing loads the machine."""
    trace = tmp_path / "generic.trace"
    flags = ["--index-bound", "6", "--blocks", "4", "--markers", "5", "--stages", "120", "--out", str(trace)]
    assert subprocess.run([sys.executable, "-m", "canimm", "build", "generic", *flags]).returncode == 0
    pool_file = tmp_path / "pool.tsv"
    pool_file.write_text(default_pool().serialize())
    modules, result = _imports("-m", "canimm", "check", "schnorr", str(trace), "--pool", str(pool_file))
    assert result.returncode == 0, result.stderr
    assert not modules & {"canimm.machine", "canimm.programs", "canimm.numberings"}
    assert _canimm(modules) == {
        "canimm", "canimm.command", "canimm.checks", "canimm.records", "canimm.finitesets", "canimm.schnorr"
    }


def test_package_import_loads_no_submodule():
    modules, result = _imports("-c", "import canimm")
    assert result.returncode == 0, result.stderr
    assert _canimm(modules) == {"canimm"}


def test_cli_import_loads_every_module_the_benchmark_tracer_wraps():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from tracer import ENTRY_POINTS; import canimm.cli; "
        "print(sorted({m for _, m, _ in ENTRY_POINTS if 'canimm.' + m not in sys.modules}))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


_NATURALS = machine.encode(machine.Proj(0))
_RESERVOIR = ComputableSet(_NATURALS)
_TRACE = ConstructionTrace("generic")

# (class, every field by keyword in field order, repr)
RECORDS = [
    (FiniteSet, {"code": 5}, "FiniteSet(code=5)"),
    (SetPrefix, {"mask": 5, "length": 4}, "SetPrefix(mask=5, length=4)"),
    (DyadicRational, {"numerator": 3, "exponent": 2}, "DyadicRational(numerator=3, exponent=2)"),
    (
        Verdict,
        {"status": "fail", "violations": ((0, 1),), "horizon": (("bound", 4),)},
        "Verdict(status='fail', violations=((0, 1),), horizon=(('bound', 4),))",
    ),
    (
        Numbering,
        {"id": 1, "rule": 7, "surjective": True, "label": "x"},
        "Numbering(id=1, rule=7, surjective=True, label='x')",
    ),
    (
        TraceRecord,
        {"stage": 2, "rule": "mark", "fields": (3, "a")},
        "TraceRecord(stage=2, rule='mark', fields=(3, 'a'))",
    ),
    (
        ConstructionTrace,
        {"name": "t", "meta": {"k": 1}, "records": [TraceRecord(0, "r")]},
        "ConstructionTrace(name='t', meta={'k': 1}, records=[TraceRecord(stage=0, rule='r', fields=())])",
    ),
    (
        PumpResult,
        {"rho": "01", "candidates_tried": 3, "best_size": 2},
        "PumpResult(rho='01', candidates_tried=3, best_size=2)",
    ),
    (
        WitnessEntry,
        {"i": 0, "n": 1, "key": 2, "target": 3, "beta": None, "witness": FiniteSet(6)},
        "WitnessEntry(i=0, n=1, key=2, target=3, beta=None, witness=FiniteSet(code=6))",
    ),
    (
        ParsedTrace,
        {"name": "delta2", "meta": {}, "records": [], "prefixes": {"R": SetPrefix(1, 2)}},
        "ParsedTrace(name='delta2', meta={}, records=[], prefixes={'R': SetPrefix(mask=1, length=2)})",
    ),
    (ComputableSet, {"enumerator": _NATURALS}, f"ComputableSet(enumerator={_NATURALS})"),
    (
        Condition,
        {"stem": FiniteSet(0), "reservoir": _RESERVOIR},
        f"Condition(stem=FiniteSet(code=0), reservoir=ComputableSet(enumerator={_NATURALS}))",
    ),
    (
        ThinCertificate,
        {"numbering_id": 0, "start": 1, "bound": 5, "visible_mask": 6, "ceiling": 9},
        "ThinCertificate(numbering_id=0, start=1, bound=5, visible_mask=6, ceiling=9)",
    ),
    (
        AvoidanceRecord,
        {"missed_blocks": (3,), "kept_values": (7,)},
        "AvoidanceRecord(missed_blocks=(3,), kept_values=(7,))",
    ),
    (
        MeetOutcome,
        {"condition": None, "clause": None, "evidence": {"best_size": 0}},
        "MeetOutcome(condition=None, clause=None, evidence={'best_size': 0})",
    ),
    (
        ScheduleStep,
        {"name": "size-1", "apply": len},
        "ScheduleStep(name='size-1', apply=<built-in function len>)",
    ),
    (
        GenericRun,
        {"chain": [], "prefix": SetPrefix(0, 0), "thin_certificates": [], "avoidance": None, "trace": _TRACE},
        "GenericRun(chain=[], prefix=SetPrefix(mask=0, length=0), thin_certificates=[], avoidance=None, "
        "trace=ConstructionTrace(name='generic', meta={}, records=[]))",
    ),
]


def _hash_or_type_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_classes_keep_their_value_semantics(cls, fields, text):
    record = cls(**fields)
    assert repr(record) == text
    assert record == cls(*fields.values())
    assert record.__eq__(tuple(fields.values())) is NotImplemented
    name, value = next(iter(fields.items()))
    # the hash of the field tuple, a TypeError when a field holds a dict or list
    assert _hash_or_type_error(record) == _hash_or_type_error(tuple(fields.values()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_record_defaults_are_fresh_per_instance():
    assert Numbering(0, 7) == Numbering(0, 7, False, "")
    assert TraceRecord(0, "r").fields == ()
    assert Verdict("pass") == Verdict("pass", (), ())
    for make in (lambda: ConstructionTrace("t"), lambda: ParsedTrace("t")):
        first, second = make(), make()
        assert first == second
        assert first.meta is not second.meta
        assert first.records is not second.records
    assert ParsedTrace("t").prefixes is not ParsedTrace("t").prefixes


def test_reservoir_normal_form_stays_out_of_eq_hash_and_repr():
    derived = _RESERVOIR._derived(lambda parent: parent, (0, 1), 2)  # same program, other normal form
    assert derived == _RESERVOIR and hash(derived) == hash(_RESERVOIR)
    assert repr(derived) == repr(_RESERVOIR)
    assert derived.values(4) == _RESERVOIR.values(4)
