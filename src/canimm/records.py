"""Construction traces and their line-delimited text form.

`ConstructionTrace` holds a run's name, meta and `TraceRecord`s; it lives
here, not in `constructions`, so reading a trace loads no construction.
In the text form, one record per line, fields separated by tabs.
Integers print as decimals, or as `0x` hex from 10**4300 up, integer lists
as sorted bracket lists like [1,2,3], integer pairs inside lists as e:i.
The layout is stable so identical runs serialize to identical bytes.
"""

from __future__ import annotations

from .finitesets import Record, SetPrefix


class TraceRecord(Record):
    __slots__ = ("stage", "rule", "fields")

    def __init__(self, stage: int, rule: str, fields: tuple[int | str, ...] = ()):
        self._fill(stage, rule, fields)


class ConstructionTrace(Record):
    __slots__ = ("name", "meta", "records")

    def __init__(self, name: str, meta: dict[str, object] | None = None, records: list[TraceRecord] | None = None):
        self._fill(name, {} if meta is None else meta, [] if records is None else records)

    def add(self, stage: int, rule: str, *fields_: int | str):
        self.records.append(TraceRecord(stage, rule, tuple(fields_)))


# Integers from here up print in hex: CPython's int->str is quadratic and
# refuses more than 4,300 digits.  A constant, not sys.get_int_max_str_digits(),
# so that trace bytes do not depend on the environment.
_DECIMAL_DIGITS = 4300  # the digits of DECIMAL_LIMIT - 1, the longest decimal atom
DECIMAL_LIMIT = 10**_DECIMAL_DIGITS


def render_atom(value) -> str:
    """One trace field: an int in decimal, or in hex from DECIMAL_LIMIT up."""
    if isinstance(value, int) and abs(value) >= DECIMAL_LIMIT:
        return format(value, "#x")
    return str(value)


def render_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, str)):
        return render_atom(value)
    if isinstance(value, (list, tuple)):
        parts = []
        for item in value:
            if isinstance(item, tuple):
                parts.append(":".join(render_atom(x) for x in item))
            else:
                parts.append(render_atom(item))
        return "[" + ",".join(parts) + "]"
    raise TypeError(f"cannot render {value!r}")


def _parse_atom(text: str):
    """The int `render_atom` wrote, or the text itself when it is no number.

    An int is an optional `-` and then either decimal digits without a
    leading zero and below DECIMAL_LIMIT, or `0x` and lowercase hex digits
    without a leading zero for DECIMAL_LIMIT or more; `-0` is no int.  Any
    other text of decimal digits, or starting with `0x` or `0X`, after an
    optional `-`, raises ValueError: it would render back as other bytes."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isdigit() and digits.isascii():
        if (digits[0] != "0" or text == "0") and len(digits) <= _DECIMAL_DIGITS:
            return int(text)
    elif digits[:2] in ("0x", "0X"):
        hex_digits = digits[2:]
        if digits[1] == "x" and hex_digits[:1] not in ("", "0") and not hex_digits.strip("0123456789abcdef"):
            value = int(hex_digits, 16)
            if value >= DECIMAL_LIMIT:
                return -value if text[0] == "-" else value
    else:
        return text
    raise ValueError(f"{text!r} is not an integer as a trace writes it")


def parse_value(text: str):
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1]
        if not body:
            return []
        items = []
        for piece in body.split(","):
            if ":" in piece:
                items.append(tuple(_parse_atom(x) for x in piece.split(":")))
            else:
                items.append(_parse_atom(piece))
        return items
    return _parse_atom(text)


def render_trace(trace: ConstructionTrace, prefixes: dict[str, SetPrefix]) -> str:
    lines = [f"trace\t{trace.name}"]
    for key in sorted(trace.meta):
        lines.append(f"meta\t{key}\t{render_value(trace.meta[key])}")
    for rec in trace.records:
        fields = "\t".join(render_atom(x) for x in rec.fields)
        line = f"rec\t{rec.stage}\t{rec.rule}"
        if fields:
            line += "\t" + fields
        lines.append(line)
    for label in sorted(prefixes):
        lines.append(f"prefix\t{label}\t{prefixes[label].bits}")
    return "\n".join(lines) + "\n"


class ParsedTrace(Record):
    __slots__ = ("name", "meta", "records", "prefixes")

    def __init__(
        self,
        name: str,
        meta: dict | None = None,
        records: list[TraceRecord] | None = None,
        prefixes: dict[str, SetPrefix] | None = None,
    ):
        self._fill(
            name,
            {} if meta is None else meta,
            [] if records is None else records,
            {} if prefixes is None else prefixes,
        )

    def trace(self) -> ConstructionTrace:
        return ConstructionTrace(self.name, dict(self.meta), list(self.records))


def parse_trace(text: str) -> ParsedTrace:
    name = ""
    meta: dict = {}
    records: list[TraceRecord] = []
    prefixes: dict[str, SetPrefix] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        kind, _, rest = line.partition("\t")
        if kind == "trace":
            name = rest
        elif kind == "meta":
            key, _, raw = rest.partition("\t")
            meta[key] = parse_value(raw)
        elif kind == "rec":
            parts = rest.split("\t")
            stage = parts[0]  # int() also reads `1_0`, `+4`, `010` and non-ASCII digits
            if not (stage.isdigit() and stage.isascii() and (stage[0] != "0" or stage == "0")):
                raise ValueError(f"record stage {stage!r} is not a decimal number as a trace writes it")
            fields = tuple(_parse_atom(x) for x in parts[2:])
            records.append(TraceRecord(int(stage), parts[1], fields))
        elif kind == "prefix":
            label, _, bits = rest.partition("\t")
            prefixes[label] = SetPrefix.from_bits(bits)
        else:
            raise ValueError(f"unknown record kind {kind!r}")
    if not name:
        raise ValueError("not a trace file (no trace header)")
    return ParsedTrace(name, meta, records, prefixes)
