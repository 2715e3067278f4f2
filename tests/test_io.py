"""Unit tests for CSV interval I/O (repro.datasets.io)."""

import numpy as np
import pytest

from repro.core.errors import InvalidIntervalError
from repro.datasets.io import load_intervals_csv, save_intervals_csv


class TestCsvRoundtrip:
    def test_save_and_load(self, tmp_path, tiny_collection):
        path = tmp_path / "intervals.csv"
        save_intervals_csv(tiny_collection, path)
        loaded = load_intervals_csv(path)
        assert list(loaded.ids) == list(tiny_collection.ids)
        assert list(loaded.starts) == list(tiny_collection.starts)
        assert list(loaded.ends) == list(tiny_collection.ends)

    def test_two_column_format(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("10,20\n30,40\n")
        loaded = load_intervals_csv(path)
        assert list(loaded.ids) == [0, 1]
        assert list(loaded.starts) == [10, 30]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("id,start,end\n5,1,2\n")
        loaded = load_intervals_csv(path, has_header=True)
        assert list(loaded.ids) == [5]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("1,2,3\n\n4,5,6\n")
        assert len(load_intervals_csv(path)) == 2

    def test_malformed_row_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,notanumber,3\n")
        with pytest.raises(InvalidIntervalError):
            load_intervals_csv(path)

    def test_single_column_raises(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("42\n")
        with pytest.raises(InvalidIntervalError):
            load_intervals_csv(path)

    def test_malformed_row_names_its_row(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("id,start,end\n1,2,3\n\n4,x,6\n")
        with pytest.raises(InvalidIntervalError, match=r"bad3.csv: .*'x'.* at row \d"):
            load_intervals_csv(path, has_header=True)
        path.write_text("1,2,3\n99999999999999999999,1,2\n")  # past int64
        with pytest.raises(InvalidIntervalError, match=r"at row \d"):
            load_intervals_csv(path)

    def test_single_column_names_its_line(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("id\n\n42\n")
        with pytest.raises(InvalidIntervalError, match=r"narrow.csv:3: .*got 1"):
            load_intervals_csv(path, has_header=True)

    def test_ragged_rows_raise_with_the_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        for text in ("1,2,3\n4,5,6\n7,8\n", "1,2\n3,4,5\n", "1,2,3,4\n5,6\n"):
            path.write_text(text)
            with pytest.raises(InvalidIntervalError, match=r"at row \d"):
                load_intervals_csv(path)

    def test_extra_columns_take_the_first_three(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("5,10,20,x\n6,30,40,label,more\n")
        loaded = load_intervals_csv(path)
        assert list(loaded.ids) == [5, 6]
        assert list(loaded.starts) == [10, 30]
        assert list(loaded.ends) == [20, 40]

    def test_quoted_fields_load(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"5","10","20"\n6,30,40\n')
        loaded = load_intervals_csv(path)
        assert list(loaded.ids) == [5, 6]
        assert list(loaded.ends) == [20, 40]

    def test_repeated_id_raises_naming_the_id(self, tmp_path):
        """Backends disagree on a repeated id (some answer both rows, some
        the last), so the loader refuses it, sorted or not."""
        path = tmp_path / "repeated.csv"
        for text in ("1,0,5\n1,50,60\n2,10,20\n", "3,70,90\n1,0,5\n2,10,20\n1,50,60\n"):
            path.write_text(text)
            with pytest.raises(InvalidIntervalError, match=r"repeated.csv: id 1 appears"):
                load_intervals_csv(path)

    def test_distinct_ids_load_and_increasing_ids_skip_the_sort(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "distinct.csv"
        path.write_text("3,70,90\n1,0,5\n2,10,20\n")
        assert list(load_intervals_csv(path).ids) == [3, 1, 2]

        def no_sort(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("increasing ids were sorted")

        path.write_text("1,0,5\n2,10,20\n3,70,90\n")
        monkeypatch.setattr(np, "sort", no_sort)
        assert list(load_intervals_csv(path).ids) == [1, 2, 3]

    def test_empty_file_is_an_empty_collection(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert len(load_intervals_csv(path)) == 0

    def test_save_creates_parent_directories(self, tmp_path, tiny_collection):
        path = tmp_path / "nested" / "dir" / "intervals.csv"
        save_intervals_csv(tiny_collection, path)
        assert path.exists()
