import dataclasses
import io
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainwatch.trace import (
    InstructionCall,
    Trace,
    TraceError,
    call_from_record,
    parse_trace_record,
    read_trace,
    serialize_trace_record,
)
from chainwatch.vocab import CATEGORIES, SCOPES

GOOD_LINE = (
    '{"api_name":"readLine","category":"invokevirtual","scope":"Application",'
    '"package":"Ljava/io/BufferedReader","inputs":[],"outputs":["String"]}'
)


def test_parse_good_record(vocabs):
    call = parse_trace_record(GOOD_LINE, vocabs)
    assert call.api_name == "readLine"
    assert call.category == "invokevirtual"
    assert call.scope == "Application"
    assert call.package == "Ljava/io/BufferedReader"
    assert call.inputs == ()
    assert call.outputs == ("String",)


def test_io_multisets_are_order_insensitive(vocabs):
    """Same multiset of types in different order must compare and hash equal."""
    a = InstructionCall("f", "phi", "Application", "Ljava/lang/String",
                        inputs=("String", "int", "String"))
    b = InstructionCall("f", "phi", "Application", "Ljava/lang/String",
                        inputs=("int", "String", "String"))
    assert a == b
    assert hash(a) == hash(b)
    assert a.inputs == ("String", "String", "int")  # stored sorted


def test_multiplicity_distinguishes_calls():
    a = InstructionCall("f", "phi", "Application", "p", inputs=("String",))
    b = InstructionCall("f", "phi", "Application", "p", inputs=("String", "String"))
    assert a != b


def test_round_trip_canonical_line(vocabs):
    assert serialize_trace_record(parse_trace_record(GOOD_LINE, vocabs)) == GOOD_LINE


@given(
    name=st.text(alphabet="abcdefgXYZ_0123456789", min_size=1, max_size=20).filter(
        lambda s: not any(c.isspace() for c in s)
    ),
    category=st.sampled_from(CATEGORIES),
    scope=st.sampled_from(SCOPES),
    pkg_i=st.integers(min_value=0, max_value=21),
    ins=st.lists(st.integers(min_value=0, max_value=23), max_size=4),
    outs=st.lists(st.integers(min_value=0, max_value=23), max_size=4),
)
def test_serialize_parse_round_trip(vocabs_session, name, category, scope, pkg_i, ins, outs):
    """parse(serialize(call)) == call for any in-vocabulary call."""
    vocabs = vocabs_session
    call = InstructionCall(
        api_name=name,
        category=category,
        scope=scope,
        package=vocabs.packages[pkg_i],
        inputs=tuple(vocabs.io_types[i] for i in ins),
        outputs=tuple(vocabs.io_types[i] for i in outs),
    )
    line = serialize_trace_record(call)
    assert parse_trace_record(line, vocabs) == call
    # and the line itself is canonical
    assert serialize_trace_record(parse_trace_record(line, vocabs)) == line


@pytest.fixture(scope="session")
def vocabs_session(vocabs):
    # hypothesis forbids function-scoped fixtures; re-expose the session one
    return vocabs


# Each id names its row's kind of fault and keeps the test id the row has always had.
@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda o: o.pop("category"), "missing field(s): category"),
        (lambda o: o.update(extra=1), "unexpected field(s): extra"),
        (lambda o: o.update(api_name=7), "field 'api_name' must be a string, got int"),
        (lambda o: o.update(api_name="has space"), "api_name contains whitespace: 'has space'"),
        (lambda o: o.update(inputs="String"), "field 'inputs' must be an array of strings"),
        (lambda o: o.update(inputs=[3]), "field 'inputs' must be an array of strings"),
        (lambda o: o.update(category="jump"), "unknown category: 'jump'"),
        (lambda o: o.update(scope="Kernel"), "unknown scope: 'Kernel'"),
        (lambda o: o.update(package="Lcom/nope/Nope"), "unknown package: 'Lcom/nope/Nope'"),
        (lambda o: o.update(outputs=["NotAType"]), "unknown io-type: 'NotAType'"),
    ],
    ids=[f"<lambda>-MalformedRecord{i}" for i in range(6)]
    + [f"<lambda>-Unknown{kind}" for kind in ("Category", "Scope", "Package", "IoType")],
)
def test_bad_records_raise(vocabs, mutate, fragment):
    obj = json.loads(GOOD_LINE)
    mutate(obj)
    with pytest.raises(TraceError, match=re.escape(fragment)) as from_line:
        parse_trace_record(json.dumps(obj), vocabs)
    with pytest.raises(TraceError, match=re.escape(fragment)) as from_obj:
        call_from_record(obj, vocabs)
    assert str(from_obj.value) == str(from_line.value)


def test_not_json_and_not_object(vocabs):
    with pytest.raises(TraceError, match="invalid JSON"):
        parse_trace_record("{nope", vocabs)
    with pytest.raises(TraceError, match="record must be a JSON object"):
        parse_trace_record("[1,2]", vocabs)
    with pytest.raises(TraceError, match="record must be a JSON object"):
        call_from_record([1, 2], vocabs)


def test_unknown_errors_carry_field_and_value(vocabs):
    obj = json.loads(GOOD_LINE)
    obj["package"] = "Lbad/Pkg"
    with pytest.raises(TraceError) as ei:
        parse_trace_record(json.dumps(obj), vocabs)
    assert str(ei.value) == "unknown package: 'Lbad/Pkg'"


def test_read_trace_skips_blank_lines_and_numbers_errors(vocabs):
    stream = io.StringIO(GOOD_LINE + "\n\n" + GOOD_LINE + "\n{bad\n")
    with pytest.raises(TraceError) as ei:
        read_trace(stream, vocabs, source_id="t.jsonl")
    assert str(ei.value).startswith("t.jsonl line 4:")


@pytest.mark.parametrize("space", [" ", "\t", "\x1c", "\x1f", "\x85", "\xa0", "\u3000"])
def test_api_name_with_whitespace_rejected(vocabs, space):
    obj = json.loads(GOOD_LINE)
    obj["api_name"] = f"read{space}Line"
    with pytest.raises(TraceError, match="api_name contains whitespace"):
        parse_trace_record(json.dumps(obj), vocabs)


def test_api_name_with_a_zero_width_space_accepted(vocabs):
    obj = json.loads(GOOD_LINE)
    obj["api_name"] = "read\u200bLine"
    assert parse_trace_record(json.dumps(obj), vocabs).api_name == "read\u200bLine"


def test_read_trace_with_a_memo_parses_each_distinct_line_once(vocabs, monkeypatch):
    from chainwatch import trace as trace_mod

    parsed = []
    parse = trace_mod.parse_trace_record
    monkeypatch.setattr(
        trace_mod, "parse_trace_record", lambda line, v: parsed.append(line) or parse(line, v)
    )
    other = GOOD_LINE.replace("readLine", "readAll")
    memo = {}
    first = read_trace(io.StringIO(f"{GOOD_LINE}\n {GOOD_LINE}\n\n{other}\n"), vocabs, memo=memo)
    second = read_trace(io.StringIO(f"{other}\n{GOOD_LINE}\n"), vocabs, memo=memo)
    assert parsed == [GOOD_LINE, other]
    assert memo == {GOOD_LINE: first.calls[0], other: first.calls[2]}
    assert first.calls[0] is first.calls[1] is second.calls[1]
    plain = read_trace(io.StringIO(f"{GOOD_LINE}\n{GOOD_LINE}\n{other}\n"), vocabs)
    assert first.calls == plain.calls
    with pytest.raises(TraceError) as ei:
        read_trace(io.StringIO(f"{GOOD_LINE}\n{other}\n{{bad\n"), vocabs, source_id="t", memo=memo)
    assert str(ei.value).startswith("t line 3: invalid JSON")
    assert set(memo) == {GOOD_LINE, other}


def test_read_write_round_trip(vocabs):
    stream = io.StringIO(GOOD_LINE + "\n" + GOOD_LINE + "\n")
    trace = read_trace(stream, vocabs, source_id="x")
    assert len(trace) == 2
    out = "".join(serialize_trace_record(call) + "\n" for call in trace.calls)
    assert out == GOOD_LINE + "\n" + GOOD_LINE + "\n"


def test_trace_is_iterable(vocabs):
    trace = Trace("s", [parse_trace_record(GOOD_LINE, vocabs)])
    assert [c.api_name for c in trace] == ["readLine"]


def _with(old: str, new: str) -> str:
    assert old in GOOD_LINE
    return GOOD_LINE.replace(old, new, 1)


GOOD_CALL = InstructionCall(
    "readLine", "invokevirtual", "Application", "Ljava/io/BufferedReader", (), ("String",)
)

# Each row: a line and what parsing it gives, a call or the exact TraceError
# message, as recorded from the two-step parser (json.loads, then one check
# per field) that the one-pass decode and check replaced.
PARSE_TABLE = {
    "bom": (
        "\ufeff" + GOOD_LINE,
        "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
    ),
    "trailing-x": (GOOD_LINE + "x", "invalid JSON: Extra data: line 1 column 142 (char 141)"),
    "two-objects": (
        GOOD_LINE + GOOD_LINE, "invalid JSON: Extra data: line 1 column 142 (char 141)"
    ),
    "two-objects-spaced": (
        GOOD_LINE + " " + GOOD_LINE, "invalid JSON: Extra data: line 1 column 143 (char 142)"
    ),
    "leading-whitespace": (" \t" + GOOD_LINE, GOOD_CALL),
    "trailing-whitespace": (GOOD_LINE + " \r", GOOD_CALL),
    "inner-whitespace": (GOOD_LINE.replace(",", " ,\t"), GOOD_CALL),
    "truncated": (
        GOOD_LINE[:-1], "invalid JSON: Expecting ',' delimiter: line 1 column 141 (char 140)"
    ),
    "array": ("[1,2]", "record must be a JSON object"),
    "number": ("7", "record must be a JSON object"),
    "null": ("null", "record must be a JSON object"),
    "string": ('"readLine"', "record must be a JSON object"),
    "duplicate-key-last-wins": ('{"api_name":"first",' + GOOD_LINE[1:], GOOD_CALL),
    "escaped-name": (_with('"readLine"', '"read\\u004cine"'), GOOD_CALL),
    "nan-in-a-string-field": (
        _with('"Application"', "NaN"), "field 'scope' must be a string, got float"
    ),
    "infinity-in-a-list": (
        _with('["String"]', "[Infinity]"), "field 'outputs' must be an array of strings"
    ),
    "null-list": (_with('["String"]', "null"), "field 'outputs' must be an array of strings"),
    "bool-name": (_with('"readLine"', "true"), "field 'api_name' must be a string, got bool"),
    "unsorted-io": (
        _with('"inputs":[]', '"inputs":["int","String","String"]'),
        InstructionCall("readLine", "invokevirtual", "Application", "Ljava/io/BufferedReader",
                        ("String", "String", "int"), ("String",)),
    ),
    # Several faults in one record: the first check in order raises.
    "missing-and-extra": (
        _with('"category":"invokevirtual",', "")[:-1] + ',"extra":1}',
        "missing field(s): category",
    ),
    "two-extra-sorted": (
        GOOD_LINE[:-1] + ',"zeta":1,"alpha":2}', "unexpected field(s): alpha, zeta"
    ),
    "int-name-and-unknown-category": (
        _with('"readLine","category":"invokevirtual"', '7,"category":"jump"'),
        "field 'api_name' must be a string, got int",
    ),
    "spaced-name-and-int-category": (
        _with('"readLine","category":"invokevirtual"', '"read Line","category":1'),
        "api_name contains whitespace: 'read Line'",
    ),
    "unknown-category-and-int-package": (
        _with('"invokevirtual"', '"jump"').replace('"Ljava/io/BufferedReader"', "2"),
        "field 'package' must be a string, got int",
    ),
    "bad-inputs-and-unknown-output": (
        _with('"inputs":[],"outputs":["String"]', '"inputs":"String","outputs":["NotAType"]'),
        "field 'inputs' must be an array of strings",
    ),
    "unknown-input-and-output": (
        _with('"inputs":[],"outputs":["String"]', '"inputs":["NoIn"],"outputs":["NoOut"]'),
        "unknown io-type: 'NoIn'",
    ),
}


@pytest.mark.parametrize("line, expected", PARSE_TABLE.values(), ids=PARSE_TABLE.keys())
def test_parse_table(vocabs, line, expected):
    """Each line gives its recorded call or message, parsed alone and as line 2 of a trace."""
    stream = io.StringIO(f"{GOOD_LINE}\n{line}\n")
    if isinstance(expected, InstructionCall):
        assert parse_trace_record(line, vocabs) == expected
        assert read_trace(stream, vocabs, source_id="t").calls == [GOOD_CALL, expected]
    else:
        with pytest.raises(TraceError) as direct:
            parse_trace_record(line, vocabs)
        assert str(direct.value) == expected
        with pytest.raises(TraceError) as in_trace:
            read_trace(stream, vocabs, source_id="t")
        assert str(in_trace.value) == f"t line 2: {expected}"


def test_parse_takes_what_json_loads_takes(vocabs):
    """An empty line is a decode error when parsed alone, and bytes decode as json.loads does."""
    with pytest.raises(TraceError) as ei:
        parse_trace_record("", vocabs)
    assert str(ei.value) == "invalid JSON: Expecting value: line 1 column 1 (char 0)"
    assert parse_trace_record(GOOD_LINE.encode(), vocabs) == GOOD_CALL


@pytest.mark.parametrize("record", [[1, 2], 7, None, "readLine"])
def test_call_from_a_non_object(vocabs, record):
    with pytest.raises(TraceError) as ei:
        call_from_record(record, vocabs)
    assert str(ei.value) == "record must be a JSON object"


def test_read_trace_parses_each_line_through_the_module_function(vocabs, monkeypatch):
    """Without a memo every record line goes through ``trace.parse_trace_record``,
    looked up at call time, so a wrapper put there sees each one."""
    from chainwatch import trace as trace_mod

    parsed = []
    parse = trace_mod.parse_trace_record
    monkeypatch.setattr(
        trace_mod, "parse_trace_record", lambda line, v: parsed.append(line) or parse(line, v)
    )
    read_trace(io.StringIO(f"{GOOD_LINE}\n\n {GOOD_LINE}\n"), vocabs)
    assert parsed == [GOOD_LINE, GOOD_LINE]


def test_calls_have_slots_and_stay_frozen():
    call = GOOD_CALL
    assert not hasattr(call, "__dict__")
    with pytest.raises(AttributeError):
        call.api_name = "other"
    assert hash(call) == hash(dataclasses.replace(call))
