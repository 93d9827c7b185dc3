import re

import pytest

from monomine.errors import ParseError, read_json, read_lines


class TestReadLines:
    def test_numbers_lines_and_strips_newlines(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\r\n\nb\rc")
        assert list(read_lines(path)) == [(1, "a"), (2, ""), (3, "b"), (4, "c")]

    def test_bad_bytes_come_through(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\nb\xffc\nd\n")
        assert [n for n, _ in read_lines(path)] == [1, 2, 3]


class TestReadJson:
    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{\n "aa": 0,\n "b\xff": 1\n}', "line 3: not UTF-8"),
            (b'{\n "aa": "\\ud800",\n "bb": 1\n}', "line 2: not UTF-8: an escape leaves a lone surrogate"),
            (b'{\n "aa": 0,\n "\\udfff": 1\n}', "line 3: not UTF-8: an escape leaves a lone surrogate"),
            (b'{\n "aa": 0,\n "bb": \n}', "line 4: bad JSON"),
        ],
        ids=["bad-byte", "lone-surrogate-value", "lone-surrogate-key", "bad-json"],
    )
    def test_malformed_file_names_the_path_and_line(self, tmp_path, data, message):
        path = tmp_path / "f.json"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}, {re.escape(message)}"):
            read_json(path, dict, "an object")

    def test_escapes_that_make_text_are_read(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b'{"\\ud83d\\ude00": "\\\\ud800", "x": ["\\\\", "\\"\\ud800\\udc00"]}')
        assert read_json(path, dict, "an object") == {"\U0001f600": "\\ud800", "x": ["\\", '"\U00010000']}

    def test_deep_nesting(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: bad JSON: maximum recursion depth"):
            read_json(path, list, "a list")

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("[1]")
        with pytest.raises(ParseError, match="expected an object, got list"):
            read_json(path, dict, "an object")
