import re
import sys

import pytest

from chainwatch.vocab import (
    CATEGORIES,
    CATEGORY_INDEX,
    N_IO_TYPES,
    N_PACKAGES,
    SCOPES,
    WHITESPACE,
    Vocabularies,
    VocabularyError,
    decode_text,
    load_vocabularies,
    open_text,
)


def test_closed_sets():
    assert CATEGORIES == (
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
    assert SCOPES == ("Application", "Primordial")
    assert CATEGORY_INDEX["invokevirtual"] == 7
    assert N_PACKAGES == 22
    assert N_IO_TYPES == 24


def test_bundled_vocab_loads(vocabs):
    assert len(vocabs.packages) == 22
    assert len(vocabs.io_types) == 24
    assert vocabs.package_index[vocabs.packages[0]] == 0
    assert vocabs.io_type_index["String"] == 0


def test_wrong_size_rejected():
    with pytest.raises(VocabularyError, match="22 entries"):
        Vocabularies(packages=("a", "b"), io_types=tuple(f"t{i}" for i in range(24)))


def test_duplicate_rejected():
    pkgs = tuple(f"p{i}" for i in range(21)) + ("p0",)
    with pytest.raises(VocabularyError, match="duplicate"):
        Vocabularies(packages=pkgs, io_types=tuple(f"t{i}" for i in range(24)))


def test_missing_file(tmp_path):
    with pytest.raises(VocabularyError, match="missing"):
        load_vocabularies(tmp_path)


def test_categories_file_must_match(tmp_path):
    (tmp_path / "packages.txt").write_text("".join(f"p{i}\n" for i in range(22)))
    (tmp_path / "io_types.txt").write_text("".join(f"t{i}\n" for i in range(24)))
    (tmp_path / "categories.txt").write_text("alpha\nbeta\n")
    with pytest.raises(VocabularyError, match="category"):
        load_vocabularies(tmp_path)


def test_whitespace_identifier_rejected(tmp_path):
    (tmp_path / "packages.txt").write_text("ok\nhas space\n" + "".join(f"p{i}\n" for i in range(20)))
    (tmp_path / "io_types.txt").write_text("".join(f"t{i}\n" for i in range(24)))
    where = re.escape(f"{tmp_path / 'packages.txt'} line 2: identifier contains whitespace")
    with pytest.raises(VocabularyError, match=f"^{where}"):
        load_vocabularies(tmp_path)


def test_whitespace_pattern_is_isspace_on_every_code_point():
    """The one pattern both readers test identifiers with flags exactly the
    characters ``str.isspace`` does, separators such as \\x1c-\\x1f, \\x85 and
    \\xa0 included."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    flagged = [m.start() for m in WHITESPACE.finditer(every)]
    assert flagged == [i for i, ch in enumerate(every) if ch.isspace()]
    assert {0x1C, 0x1F, 0x20, 0x85, 0xA0, 0x3000} <= set(flagged)
    assert 0x200B not in flagged  # zero-width space is not whitespace


@pytest.mark.parametrize(
    "space",
    [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
     "\u2028", "\u2029", "\u3000"],
)
def test_identifier_with_any_whitespace_rejected(tmp_path, space):
    packages = f"o{space}k\n" + "".join(f"p{i}\n" for i in range(21))
    (tmp_path / "packages.txt").write_text(packages, encoding="utf-8")
    (tmp_path / "io_types.txt").write_text("".join(f"t{i}\n" for i in range(24)))
    with pytest.raises(VocabularyError, match="packages.txt line 1: identifier contains white"):
        load_vocabularies(tmp_path)


@pytest.mark.parametrize(
    "data, line",
    [(b"\xe9\n", 1), (b"a\nb\n\xe9", 3), (b"a\r\nb\rc\n d\xe9e\n", 4), (b"a\n\xe2\x82", 2)],
    ids=["first-line", "last-line-no-end", "mixed-line-ends", "truncated-sequence"],
)
def test_open_text_names_the_first_undecodable_line(tmp_path, data, line):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        with open_text(path) as fh:
            fh.read()
    assert str(info.value) == f"{path} line {line}: not valid UTF-8"
    assert not isinstance(info.value, UnicodeDecodeError)
    with pytest.raises(ValueError, match=f"^<stdin> line {line}: not valid UTF-8$"):
        decode_text(data, "<stdin>")


def test_decode_text_splits_lines_as_open_text(tmp_path):
    data = "a\r\nb\rc\n d\x0ce\x1c\x85\u2028f\r\r\n\ng".encode("utf-8")
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with open_text(path) as fh:
        lines = list(fh)
    assert list(decode_text(data, path)) == lines == [
        "a\n", "b\n", "c\n", " d\x0ce\x1c\x85\u2028f\n", "\n", "\n", "g"
    ]


def test_open_text_keeps_other_decode_errors(tmp_path):
    """A decode error that the file itself did not cause passes through as it was."""
    path = tmp_path / "f.txt"
    path.write_text("ok\n", encoding="utf-8")
    with pytest.raises(UnicodeDecodeError):
        with open_text(path):
            b"\xe9".decode("utf-8")
