"""Instruction-call trace records.

A trace is a newline-delimited stream of JSON objects, one per instruction
call, with the fields ``api_name``, ``category``, ``scope``, ``package``,
``inputs`` and ``outputs``.  ``inputs``/``outputs`` are multisets of I/O type
identifiers carried as JSON arrays; multiplicity is meaningful, order is not.
Blank lines are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import IO, Iterable, Iterator

from .vocab import CATEGORY_INDEX, SCOPE_INDEX, WHITESPACE, Vocabularies, numbered_lines

RECORD_FIELDS = ("api_name", "category", "scope", "package", "inputs", "outputs")
_FIELD_SET = frozenset(RECORD_FIELDS)
_field_values = itemgetter(*RECORD_FIELDS)
_DECODER = json.JSONDecoder()


class TraceError(ValueError):
    """A trace record is malformed or names a value outside the vocabularies;
    ``read_trace`` prefixes the message with ``<source> line <n>:``."""


@dataclass(frozen=True, slots=True)
class InstructionCall:
    """One observed API/instruction call.

    ``inputs`` and ``outputs`` are stored as sorted tuples so that two calls
    with the same multiset of types compare equal and hash identically.
    """

    api_name: str
    category: str
    scope: str
    package: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(sorted(self.inputs)))
        object.__setattr__(self, "outputs", tuple(sorted(self.outputs)))


@dataclass
class Trace:
    """An ordered sequence of instruction calls plus a source identifier."""

    source_id: str
    calls: list[InstructionCall] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.calls)

    def __iter__(self) -> Iterator[InstructionCall]:
        return iter(self.calls)


def parse_trace_record(line: str, vocabs: Vocabularies) -> InstructionCall:
    """Parse one record line, validating every field against the vocabularies.

    The line is decoded once, by the scanner ``json.loads`` runs, and the
    value is kept when it spans the whole line.  Anything else (a decode
    error, extra data, whitespace around the value, a BOM, bytes) goes
    through ``json.loads`` itself, so the line is accepted exactly when
    ``json.loads`` accepts it, and refused with its message; only that path
    decodes twice.
    """
    try:
        obj, end = _DECODER.raw_decode(line)
    except (json.JSONDecodeError, TypeError):
        end = -1
    if end != len(line):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"invalid JSON: {exc}") from exc
    return call_from_record(obj, vocabs)


def _not_a_string(key: str, value: object) -> TraceError:
    return TraceError(f"field {key!r} must be a string, got {type(value).__name__}")


def _not_a_string_list(key: str) -> TraceError:
    return TraceError(f"field {key!r} must be an array of strings")


def call_from_record(obj: object, vocabs: Vocabularies) -> InstructionCall:
    """Validate one decoded record against the vocabularies and build its call.

    The checks run in a fixed order and the first that fails raises: the
    fields present (missing ones first), the type of each field in
    ``RECORD_FIELDS`` order (and whitespace in ``api_name`` right after its
    type), then category, scope, package and every I/O type, inputs first,
    against the vocabularies.

    For readers that have already decoded the JSON, such as the fingerprint
    and graph loaders, which carry records inside their own lines.
    """
    if not isinstance(obj, dict):
        raise TraceError("record must be a JSON object")
    if obj.keys() != _FIELD_SET:
        missing = [k for k in RECORD_FIELDS if k not in obj]
        if missing:
            raise TraceError(f"missing field(s): {', '.join(missing)}")
        extra = sorted(k for k in obj if k not in _FIELD_SET)
        raise TraceError(f"unexpected field(s): {', '.join(extra)}")

    api_name, category, scope, package, inputs, outputs = _field_values(obj)
    if not isinstance(api_name, str):
        raise _not_a_string("api_name", api_name)
    if WHITESPACE.search(api_name):
        raise TraceError(f"api_name contains whitespace: {api_name!r}")
    if not isinstance(category, str):
        raise _not_a_string("category", category)
    if not isinstance(scope, str):
        raise _not_a_string("scope", scope)
    if not isinstance(package, str):
        raise _not_a_string("package", package)
    for key, items in (("inputs", inputs), ("outputs", outputs)):
        if not isinstance(items, list):
            raise _not_a_string_list(key)
        for item in items:
            if not isinstance(item, str):
                raise _not_a_string_list(key)

    if category not in CATEGORY_INDEX:
        raise TraceError(f"unknown category: {category!r}")
    if scope not in SCOPE_INDEX:
        raise TraceError(f"unknown scope: {scope!r}")
    if package not in vocabs.package_index:
        raise TraceError(f"unknown package: {package!r}")
    io_index = vocabs.io_type_index
    for items in (inputs, outputs):
        for io_type in items:
            if io_type not in io_index:
                raise TraceError(f"unknown io-type: {io_type!r}")

    return InstructionCall(api_name, category, scope, package, inputs, outputs)


def serialize_trace_record(call: InstructionCall) -> str:
    """Render a call in canonical single-line form.

    Key order is fixed and the multiset fields are emitted sorted, so
    ``serialize(parse(s)) == s`` holds for any canonical line ``s``.
    """
    obj = {
        "api_name": call.api_name,
        "category": call.category,
        "scope": call.scope,
        "package": call.package,
        "inputs": list(call.inputs),
        "outputs": list(call.outputs),
    }
    return json.dumps(obj, separators=(",", ":"))


def read_trace(
    stream: IO[str] | Iterable[str],
    vocabs: Vocabularies,
    source_id: str = "<stream>",
    memo: dict[str, InstructionCall] | None = None,
) -> Trace:
    """Read a full trace, failing on the first bad record with its line number.

    Each line is stripped and goes through this module's
    ``parse_trace_record``, looked up at each call, so a wrapper put there
    sees every line parsed.  The first line it refuses ends the read: its
    ``TraceError`` is re-raised with ``<source_id> line <n>: `` in front of
    the message.  A line that is not one whole JSON value is decoded twice,
    the second time by ``json.loads`` for its message; every other line once.

    ``memo`` maps stripped record lines to their calls.  With one, a line
    already in it reuses its call, and only other lines go through
    ``parse_trace_record`` and are added, so every distinct line is still
    validated once and equal lines share one (frozen) call.
    ``corpus.load_split`` passes a memo that lasts for one split load and
    holds one entry per distinct line.  The detect path passes none, so it
    keeps no cache across traces.
    """
    calls = []
    for lineno, line in numbered_lines(stream):
        call = memo.get(line) if memo is not None else None
        if call is None:
            try:
                call = parse_trace_record(line, vocabs)
            except TraceError as exc:
                exc.args = (f"{source_id} line {lineno}: {exc.args[0]}",)
                raise
            if memo is not None:
                memo[line] = call
        calls.append(call)
    return Trace(source_id=source_id, calls=calls)
