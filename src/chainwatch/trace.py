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
from typing import IO, Iterable, Iterator

from .vocab import CATEGORY_INDEX, SCOPE_INDEX, WHITESPACE, Vocabularies, numbered_lines

RECORD_FIELDS = ("api_name", "category", "scope", "package", "inputs", "outputs")


class TraceError(ValueError):
    """A trace record is malformed or names a value outside the vocabularies;
    ``read_trace`` prefixes the message with ``<source> line <n>:``."""


@dataclass(frozen=True)
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


def _require_str(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise TraceError(f"field {key!r} must be a string, got {type(value).__name__}")
    return value


def _require_str_list(obj: dict, key: str) -> list[str]:
    value = obj[key]
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise TraceError(f"field {key!r} must be an array of strings")
    return value


def parse_trace_record(line: str, vocabs: Vocabularies) -> InstructionCall:
    """Parse one record line, validating every field against the vocabularies."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"invalid JSON: {exc}") from exc
    return call_from_record(obj, vocabs)


def call_from_record(obj: object, vocabs: Vocabularies) -> InstructionCall:
    """Validate one decoded record against the vocabularies and build its call.

    For readers that have already decoded the JSON, such as the fingerprint
    and graph loaders, which carry records inside their own lines.
    """
    if not isinstance(obj, dict):
        raise TraceError("record must be a JSON object")
    missing = [k for k in RECORD_FIELDS if k not in obj]
    if missing:
        raise TraceError(f"missing field(s): {', '.join(missing)}")
    extra = [k for k in obj if k not in RECORD_FIELDS]
    if extra:
        raise TraceError(f"unexpected field(s): {', '.join(sorted(extra))}")

    api_name = _require_str(obj, "api_name")
    if WHITESPACE.search(api_name):
        raise TraceError(f"api_name contains whitespace: {api_name!r}")
    category = _require_str(obj, "category")
    scope = _require_str(obj, "scope")
    package = _require_str(obj, "package")
    inputs = _require_str_list(obj, "inputs")
    outputs = _require_str_list(obj, "outputs")

    if category not in CATEGORY_INDEX:
        raise TraceError(f"unknown category: {category!r}")
    if scope not in SCOPE_INDEX:
        raise TraceError(f"unknown scope: {scope!r}")
    if package not in vocabs.package_index:
        raise TraceError(f"unknown package: {package!r}")
    for io_type in (*inputs, *outputs):
        if io_type not in vocabs.io_type_index:
            raise TraceError(f"unknown io-type: {io_type!r}")

    return InstructionCall(
        api_name=api_name,
        category=category,
        scope=scope,
        package=package,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
    )


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
