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
