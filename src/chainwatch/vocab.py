"""Instruction-call vocabularies.

Categories and scopes are closed sets baked into the feature layout, so they
live here as module constants.  Package and I/O-type vocabularies are
deployment data: they are loaded from plain text files (one identifier per
non-blank line, in index order) and must contain exactly the number of entries
the feature layout reserves for them.

Every reader of a text file goes through the helpers here, since this is the
lowest module they all import: :func:`open_text` decodes a file the one way
``docs/formats.md`` documents and names the line of any bytes that are not
UTF-8, :func:`decode_text` does the same for bytes already read (stdin),
:func:`numbered_lines` numbers and strips their lines, and
:func:`json_objects` reads the JSON-lines formats.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import io
import json
import re
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

CATEGORIES = (
    "binaryop",
    "conversion",
    "getCaughtException",
    "getstatic",
    "invokeinterface",
    "invokespecial",
    "invokestatic",
    "invokevirtual",
    "phi",
)

SCOPES = ("Application", "Primordial")

N_CATEGORIES = len(CATEGORIES)  # 9
N_SCOPES = len(SCOPES)  # 2
N_PACKAGES = 22
N_IO_TYPES = 24

CATEGORY_INDEX = {name: i for i, name in enumerate(CATEGORIES)}
SCOPE_INDEX = {name: i for i, name in enumerate(SCOPES)}


# Matches exactly the characters for which ``str.isspace`` is true.
WHITESPACE = re.compile(r"\s")


@contextlib.contextmanager
def open_text(path: str | Path) -> Iterator[IO[str]]:
    """Open ``path`` for reading as UTF-8 text, as a context manager.

    Lines end only at ``\\n``, ``\\r\\n`` or ``\\r``, whatever the locale.  A
    file that is not valid UTF-8 fails, when its reader reaches the bad
    bytes, with ``ValueError("{path} line {n}: not valid UTF-8")``.  Reading
    a line costs nothing more: only that error path rereads the file, through
    :func:`decode_text`, to find the line.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            decode_text(Path(path).read_bytes(), path)
            raise  # the file decodes: the error came from elsewhere


def decode_text(data: bytes, name: str | Path) -> IO[str]:
    """``data`` as :func:`open_text` reads a file, for bytes already read, such
    as stdin's: UTF-8, lines ending only at ``\\n``, ``\\r\\n`` or ``\\r``.

    Bytes that are not UTF-8 fail with ``ValueError("{name} line {n}: not
    valid UTF-8")``, naming the line of the first bad byte.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{name} line {lineno}: not valid UTF-8") from None
    return io.StringIO(text, newline=None)


def numbered_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` for each non-blank line, from 1."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def json_objects(path: str | Path, error: type[Exception]) -> Iterator[tuple[str, dict]]:
    """``(where, object)`` for each non-blank line of a JSON-lines file.

    ``where`` is ``"{path} line {n}"``; a line that is not a JSON object
    raises ``error`` with it.
    """
    with open_text(path) as fh:
        for lineno, line in numbered_lines(fh):
            where = f"{path} line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise error(f"{where}: expected a JSON object")
            yield where, obj


class VocabularyError(ValueError):
    """A vocabulary file is missing, malformed, or has the wrong size."""


def _read_identifier_file(path: Path) -> list[str]:
    entries = []
    with open_text(path) as fh:
        for lineno, line in numbered_lines(fh):
            if WHITESPACE.search(line):
                raise VocabularyError(
                    f"{path} line {lineno}: identifier contains whitespace: {line!r}"
                )
            entries.append(line)
    return entries


def default_vocab_dir() -> Path:
    return Path(importlib.resources.files("chainwatch")) / "data" / "vocab"


def vocabulary_files(vocab_dir: str | Path | None = None) -> tuple[Path, Path, Path]:
    """The packages, io-types and categories files in ``vocab_dir`` (default: bundled)."""
    base = Path(vocab_dir) if vocab_dir is not None else default_vocab_dir()
    return base / "packages.txt", base / "io_types.txt", base / "categories.txt"


@dataclass(frozen=True)
class Vocabularies:
    """Index maps for every text-valued instruction-call field.

    ``files``, the paths the two vocabularies were read from, if any, only
    prefix the error message of a faulty one and are not kept.
    """

    packages: tuple[str, ...]
    io_types: tuple[str, ...]
    package_index: dict[str, int] = field(init=False, repr=False)
    io_type_index: dict[str, int] = field(init=False, repr=False)
    files: InitVar[tuple[Path | None, Path | None]] = (None, None)

    def __post_init__(self, files):
        named = (("package", self.packages, N_PACKAGES), ("io-type", self.io_types, N_IO_TYPES))
        prefixes = [f"{path}: " if path else "" for path in files]
        for (name, seq, size), prefix in zip(named, prefixes):
            if len(seq) != size:
                raise VocabularyError(
                    f"{prefix}{name} vocabulary must have {size} entries, got {len(seq)}"
                )
        for (name, seq, _), prefix in zip(named, prefixes):
            if len(set(seq)) != len(seq):
                raise VocabularyError(f"{prefix}duplicate entry in {name} vocabulary")
        object.__setattr__(self, "package_index", {p: i for i, p in enumerate(self.packages)})
        object.__setattr__(self, "io_type_index", {t: i for i, t in enumerate(self.io_types)})


def load_vocabularies(vocab_dir: str | Path | None = None) -> Vocabularies:
    """Load package/io-type vocabularies from ``vocab_dir`` (default: bundled).

    The directory must contain ``packages.txt`` and ``io_types.txt``.  An
    optional ``categories.txt`` is validated against the built-in category
    list; a mismatch is an error because category indices are frozen into the
    feature layout.
    """
    packages_file, io_file, categories_file = vocabulary_files(vocab_dir)
    if not packages_file.is_file():
        raise VocabularyError(f"missing vocabulary file: {packages_file}")
    if not io_file.is_file():
        raise VocabularyError(f"missing vocabulary file: {io_file}")
    packages = _read_identifier_file(packages_file)
    io_types = _read_identifier_file(io_file)

    if categories_file.is_file():
        listed = tuple(_read_identifier_file(categories_file))
        if listed != CATEGORIES:
            raise VocabularyError(
                f"{categories_file} does not match the built-in category list"
            )

    return Vocabularies(
        packages=tuple(packages), io_types=tuple(io_types), files=(packages_file, io_file)
    )
