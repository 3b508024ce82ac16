"""Tests for dataset generation, parsers, splits, and persistence."""

import json
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from huberdp import data_io
from huberdp.data_io import (
    ParseReport,
    RatingsParseError,
    RunRecord,
    SchemaVersionError,
    SUMMARY_FIELDS,
    generate_synthetic,
    holdout_split,
    load_run,
    mask_entries,
    parse_movielens,
    parse_sweetrs,
    persist_run,
    subsample,
    write_summary_csv,
)


class TestGenerateSynthetic:
    def test_full_observation(self):
        x, obs = generate_synthetic(10, 8, 2, 1.0, 0)
        assert obs.n_observed == 80

    def test_numerical_rank(self):
        x, _ = generate_synthetic(100, 100, 5, 0.5, 1)
        singular = np.linalg.svd(x, compute_uv=False)
        assert np.count_nonzero(singular > 1e-8 * singular[0]) == 5

    def test_deterministic(self):
        x1, obs1 = generate_synthetic(30, 30, 3, 0.2, 5)
        x2, obs2 = generate_synthetic(30, 30, 3, 0.2, 5)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(obs1.rows, obs2.rows)
        np.testing.assert_array_equal(obs1.values, obs2.values)

    def test_entry_variance_near_one(self):
        x, _ = generate_synthetic(200, 200, 4, 0.1, 2)
        assert x.var() == pytest.approx(1.0, rel=0.10)

    def test_mask_count(self):
        _, obs = generate_synthetic(20, 20, 2, 0.15, 3)
        assert obs.n_observed == int(0.15 * 400)

    def test_observed_values_match_truth(self):
        x, obs = generate_synthetic(15, 12, 2, 0.3, 4)
        np.testing.assert_array_equal(obs.values, x[obs.rows, obs.cols])

    @pytest.mark.parametrize("m,n,rank,fraction,message", [
        (5, 5, 6, 0.5, "synthetic rank 6 must lie in [1, 5]"),
        (5, 5, 2, 0.0, "fraction 0.0 must lie in (0, 1]"),
        (5, 5, 2, 1.5, "fraction 1.5 must lie in (0, 1]"),
        (20, 20, 2, 0.001, "fraction 0.001 observes no entry of a 20x20 matrix"),
    ])
    def test_refusals(self, m, n, rank, fraction, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_synthetic(m, n, rank, fraction, 0)

    def test_refused_fraction_draws_nothing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("synthetic_truth ran before the fraction was checked")

        monkeypatch.setattr(data_io, "synthetic_truth", no_draw)
        with pytest.raises(ValueError, match="observes no entry"):
            generate_synthetic(20, 20, 2, 0.001, 0)

    def test_truth_then_mask_from_one_generator(self):
        x, obs = generate_synthetic(20, 15, 2, 0.5, 16)
        rng = np.random.default_rng(16)
        x_ref = data_io.synthetic_truth(20, 15, 2, rng)
        obs_ref = mask_entries(x_ref, 0.5, rng)
        np.testing.assert_array_equal(x, x_ref)
        for name in ("rows", "cols", "values"):
            np.testing.assert_array_equal(getattr(obs, name), getattr(obs_ref, name))

    def test_mask_entries_direct(self):
        x = np.arange(24.0).reshape(4, 6)
        obs = mask_entries(x, 0.5, np.random.default_rng(11))
        assert obs.n_observed == 12
        np.testing.assert_array_equal(obs.values, x[obs.rows, obs.cols])
        with pytest.raises(ValueError):
            mask_entries(x, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("shape,fraction,message", [
        ((3, 4), 0.001, "^fraction 0.001 observes no entry of a 3x4 matrix$"),
        ((3, 4), math.nan, r"^fraction nan must lie in \(0, 1\]$"),
        ((4,), 0.5, r"^x must be a 2-D matrix, got shape \(4,\)$"),
    ])
    def test_mask_entries_refuses_bad_input(self, shape, fraction, message):
        with pytest.raises(ValueError, match=message):
            mask_entries(np.ones(shape), fraction, np.random.default_rng(0))

    @pytest.mark.parametrize("x,message", [
        # the observed entries would otherwise refuse it as values
        (np.full((3, 4), np.nan), "^x must be finite$"),
        # a cast would observe only the real parts
        (np.ones((3, 4)) + 1j, "^x must be a real array, got dtype complex128$"),
    ], ids=["nan", "complex"])
    def test_mask_entries_names_x(self, x, message):
        with pytest.raises(ValueError, match=message):
            mask_entries(x, 0.5, np.random.default_rng(0))


MOVIELENS_FIXTURE = "196\t242\t3\t881250949\n186\t302\t3\t891717742\n"


class TestParseMovielens:
    def test_two_line_fixture(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text(MOVIELENS_FIXTURE)
        obs = parse_movielens(path)
        assert obs.n_observed == 2
        assert obs.m == 196 and obs.n == 302
        assert (obs.rows.tolist(), obs.cols.tolist(), obs.values.tolist()) == ([195, 185], [241, 301], [3.0, 3.0])

    def test_malformed_line_carries_number(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t5\t0\n1\t2\n")
        with pytest.raises(RatingsParseError) as err:
            parse_movielens(path)
        assert err.value.line_number == 2

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\tx\t5\t0\n")
        with pytest.raises(RatingsParseError):
            parse_movielens(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("")
        with pytest.raises(RatingsParseError):
            parse_movielens(path)

    def test_duplicates_last_write_wins(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t2\t0\n1\t1\t4\t1\n2\t2\t5\t2\n")
        report = ParseReport()
        obs = parse_movielens(path, report)
        assert report.duplicates == 1
        assert obs.n_observed == 2
        assert (obs.rows.tolist(), obs.cols.tolist(), obs.values.tolist()) == ([0, 1], [0, 1], [4.0, 5.0])

    def test_ids_whose_keys_would_wrap_rejected(self, tmp_path):
        # user 4294967297's (4294967296, 0) and (0, 0) share an int64 key
        # in a 4294967297 x 4294967296 matrix; no rating is merged
        path = tmp_path / "u.data"
        path.write_text("1\t1\t3\t0\n4294967297\t1\t4\t0\n1\t4294967296\t5\t0\n")
        with pytest.raises(RatingsParseError,
                           match=r"4294967297x4294967296 matrix has 2\*\*63 or more entries"):
            parse_movielens(path)

    def test_out_of_range_rating_kept(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t7\t0\n2\t2\t1\t0\n")
        report = ParseReport()
        obs = parse_movielens(path, report)
        assert report.out_of_range == 1
        assert (obs.rows.tolist(), obs.cols.tolist(), obs.values.tolist()) == ([0, 1], [0, 1], [7.0, 1.0])

    def test_ingest_memory_scales_with_the_parsed_arrays(self, tmp_path):
        # the file streams through numpy's reader, so the traced peak is the
        # reader's table plus the returned arrays, about 2.4x a file of
        # 20-byte lines; a read that holds the text and a list of its lines
        # reaches about 9x
        rng = np.random.default_rng(0)
        keys = rng.choice(943 * 1682, 50_000, replace=False)
        table = np.column_stack([keys // 1682 + 1, keys % 1682 + 1, rng.integers(1, 6, keys.size),
                                 rng.integers(874_724_710, 892_724_710, keys.size)])
        path = tmp_path / "u.data"
        np.savetxt(path, table, fmt="%d", delimiter="\t")
        tracemalloc.start()
        try:
            obs = parse_movielens(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obs.n_observed == keys.size
        assert peak < 4 * path.stat().st_size

    CANONICAL = os.environ.get("HUBERDP_MOVIELENS", "data/ml-100k/u.data")

    @pytest.mark.skipif(
        not Path(CANONICAL).is_file(), reason="canonical MovieLens100k not present"
    )
    def test_canonical_file_counts(self):
        obs = parse_movielens(self.CANONICAL)
        assert obs.n_observed == 100_000
        assert obs.m == 943 and obs.n == 1682
        # the 943 x 1682 grid gives ~6.3% visibility at 100k ratings
        assert 0.05 < obs.observed_fraction < 0.07


class TestParseSweetrs:
    def test_three_record_fixture(self, tmp_path):
        path = tmp_path / "sweetrs.csv"
        path.write_text("1,1,5\n2,3,4\n4,2,1\n")
        obs = parse_sweetrs(path)
        assert obs.n_observed == 3
        assert obs.m == 4 and obs.n == 3

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "sweetrs.csv"
        path.write_text("user,item,rating\n1,1,5\n")
        obs = parse_sweetrs(path)
        assert obs.n_observed == 1

    def test_duplicate_policy_matches_movielens(self, tmp_path):
        path = tmp_path / "sweetrs.csv"
        path.write_text("1,1,2\n1,1,3\n")
        report = ParseReport()
        obs = parse_sweetrs(path, report)
        assert report.duplicates == 1
        assert (obs.rows.tolist(), obs.cols.tolist(), obs.values.tolist()) == ([0], [0], [3.0])

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "sweetrs.csv"
        path.write_text("1,1,5\n2,3\n")
        with pytest.raises(RatingsParseError) as err:
            parse_sweetrs(path)
        assert err.value.line_number == 2


class TestRatingsFile:
    """A ratings file is named KIND:PATH; the kind picks the parser."""

    def test_unknown_kind(self):
        from huberdp.bench_cli import ExperimentPlan

        with pytest.raises(ValueError, match="KIND one of"):
            ExperimentPlan(dataset="netflix:x.csv")


def _dict_oracle(triples):
    """Reference ingest: last write wins in a dict, which keeps each
    coordinate at its first appearance."""
    seen = {}
    duplicates = out_of_range = 0
    for user, item, rating in triples:
        duplicates += (user - 1, item - 1) in seen
        out_of_range += not 1.0 <= rating <= 5.0
        seen[(user - 1, item - 1)] = rating
    m = max(t[0] for t in triples)
    n = max(t[1] for t in triples)
    rows = [k[0] for k in seen]
    cols = [k[1] for k in seen]
    return m, n, rows, cols, list(seen.values()), duplicates, out_of_range


_RATING = st.integers(0, 7) | st.floats(0.0, 7.0)
_TRIPLE = st.tuples(st.integers(1, 6), st.integers(1, 5), _RATING)


class TestRatingsParser:
    @pytest.mark.parametrize("parse", [parse_movielens, parse_sweetrs], ids=lambda f: f.__name__)
    def test_missing_file(self, parse, tmp_path):
        with pytest.raises(RatingsParseError, match="no such file"):
            parse(tmp_path / "nope")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("fmt", ["movielens", "sweetrs"])
    def test_non_finite_rating_names_its_line(self, fmt, value, tmp_path):
        path = tmp_path / "ratings"
        if fmt == "movielens":
            path.write_text(f"1\t1\t3\t0\n2\t2\t{value}\t1\n")
            parse = parse_movielens
        else:
            path.write_text(f"user,item,rating\n1,1,3\n2,2,{value}\n")
            parse = parse_sweetrs
        line = 2 if fmt == "movielens" else 3
        with pytest.raises(RatingsParseError) as err:
            parse(path)
        assert str(err.value).startswith(f"{path}:{line}: rating must be finite")
        assert err.value.line_number == line

    @pytest.mark.parametrize("fmt", ["movielens", "sweetrs"])
    def test_id_below_one_names_its_line(self, fmt, tmp_path):
        path = tmp_path / "ratings"
        if fmt == "movielens":
            path.write_text("1\t1\t3\t0\n0\t2\t4\t1\n")
        else:
            path.write_text("1,1,3\n2,0,4\n")
        parse = parse_movielens if fmt == "movielens" else parse_sweetrs
        with pytest.raises(RatingsParseError, match=f"^{path}:2: ids must be >= 1"):
            parse(path)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        triples=st.lists(_TRIPLE, min_size=1, max_size=40),
        blanks=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(["", "  ", " \t"]))),
        fmt=st.sampled_from(["movielens", "sweetrs", "sweetrs-header"]),
    )
    def test_matches_dict_oracle(self, triples, blanks, fmt):
        if fmt == "movielens":
            lines = [f"{u}\t{i}\t{r}\t{k}" for k, (u, i, r) in enumerate(triples)]
        else:
            lines = [f"{u}, {i},{r} " for u, i, r in triples]
        for pos, blank in blanks:
            lines.insert(pos, blank)
        if fmt == "sweetrs-header":
            lines.insert(0, "user,item,rating")
        parse = parse_movielens if fmt == "movielens" else parse_sweetrs
        report = ParseReport()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ratings"
            path.write_text("\n".join(lines) + "\n")
            obs = parse(path, report)
        m, n, rows, cols, values, duplicates, out_of_range = _dict_oracle(triples)
        assert (obs.m, obs.n) == (m, n)
        np.testing.assert_array_equal(obs.rows, rows)
        np.testing.assert_array_equal(obs.cols, cols)
        np.testing.assert_array_equal(obs.values, np.asarray(values, dtype=float))
        assert (report.duplicates, report.out_of_range) == (duplicates, out_of_range)


def _parse_error(parse, path, text):
    Path(path).write_text(text, encoding="utf-8")
    with pytest.raises(RatingsParseError) as err:
        parse(path)
    return str(err.value), err.value.line_number


class TestRatingsParserEdges:
    """Inputs where numpy's bulk reader and the line rules could part ways."""

    @pytest.mark.parametrize("line,got", [("2\t2\t4", 3), ("2\t2\t4\t1\t9", 5)])
    def test_movielens_field_count_names_its_line(self, line, got, tmp_path):
        path = tmp_path / "u.data"
        message, lineno = _parse_error(parse_movielens, path, f"1\t1\t3\t0\n{line}\n")
        assert (message, lineno) == (f"{path}:2: expected 4 fields, got {got}", 2)

    @pytest.mark.parametrize(
        "parse,text",
        [(parse_movielens, "1\t1\t3\t0\n\n2\t2\t4.5\t1\n1\t1\t7\t2\n"),
         (parse_sweetrs, "user,item,rating\n1,1,3\n \n2,2,4.5\n1,1,7\n")],
        ids=["movielens", "sweetrs"],
    )
    def test_crlf_file_parses_as_its_lf_twin(self, parse, text, tmp_path):
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        reports = ParseReport(), ParseReport()
        a, b = parse(lf, reports[0]), parse(crlf, reports[1])
        assert (a.m, a.n) == (b.m, b.n) == (2, 2)
        for name in ("rows", "cols", "values"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert reports[0] == reports[1] == ParseReport(duplicates=1, out_of_range=1)

    @pytest.mark.parametrize(
        "parse,text",
        [(parse_movielens, "1\t1\t3\t0\n2\t2\t3#\t0\n"),
         (parse_movielens, "1\t1\t3\t0\n#2\t2\t3\t0\n"),
         (parse_sweetrs, "1,1,3\n2,2,3 # four\n")],
    )
    def test_hash_is_data_not_a_comment(self, parse, text, tmp_path):
        path = tmp_path / "ratings"
        message, lineno = _parse_error(parse, path, text)
        assert message.startswith(f"{path}:2: ") and lineno == 2

    def test_hash_in_the_unread_timestamp_is_kept(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t3\t# no time\n")
        obs = parse_movielens(path)
        assert (obs.rows.tolist(), obs.cols.tolist(), obs.values.tolist()) == ([0], [0], [3.0])

    def test_header_only_sweetrs_has_no_ratings(self, tmp_path):
        path = tmp_path / "sweetrs.csv"
        for text in ("user,item,rating\n\n", "user,item,rating\n \t \n"):
            message, lineno = _parse_error(parse_sweetrs, path, text)
            assert (message, lineno) == (f"{path}: no ratings found", None)

    @pytest.mark.parametrize(
        "line,field",
        [("1_0\t2\t4\t0", "1_0"), ("2\t٣\t4\t0", "٣"), ("2\t2\t4_0\t0", "4_0"),
         ("2\t2\t٣.5\t0", "٣.5")],
        ids=["id-underscore", "id-arabic-indic", "rating-underscore", "rating-arabic-indic"],
    )
    def test_number_int_reads_but_numpy_does_not_names_its_line(self, line, field, tmp_path):
        # int() and float() accept '_' separators and any Unicode digit
        path = tmp_path / "u.data"
        message, lineno = _parse_error(parse_movielens, path, f"1\t1\t3\t0\n{line}\n")
        assert message == (
            f"{path}:2: numbers must be ASCII without '_' separators, got {field!r}"
        )
        assert lineno == 2

    def test_id_beyond_int64_names_its_line(self, tmp_path):
        path = tmp_path / "u.data"
        huge = "99999999999999999999"
        message, lineno = _parse_error(parse_movielens, path, f"1\t1\t3\t0\n{huge}\t2\t4\t0\n")
        assert (message, lineno) == (f"{path}:2: ids must be < 2**63, got {huge}", 2)

    @pytest.mark.parametrize(
        "text,lineno",
        [("1_0\t1\t3\t0\n\n2\t2\tnan\t1\n", 1), ("1\t1\t5\t0\n1_0\t2\t4\t0\n1\t2\t4\n", 2)],
        ids=["before-a-nan", "before-a-short-line"],
    )
    def test_numpy_only_refusal_in_line_order(self, text, lineno, tmp_path):
        # '1_0' is valid to int() but not to numpy's reader; it is the file's
        # first bad line, ahead of a later line that int() or float() refuses
        path = tmp_path / "u.data"
        assert _parse_error(parse_movielens, path, text) == (
            f"{path}:{lineno}: numbers must be ASCII without '_' separators, got '1_0'", lineno)

    @pytest.mark.parametrize(
        "parse,data,lineno",
        [(parse_movielens, b"1\t1\t5\t0\n1\t2\t4\t0 \xff\n1\t3\n", 2),
         (parse_sweetrs, b"1,1,5\n1,2\xff,4\n", 2),
         (parse_sweetrs, b"us\xe9r,item,rating\n1,1,5\n", 1),
         (parse_movielens, b"1\t1\t3\t0\n2\t2\t4\t1\n3\t3\xff\t5\t2\n", 3)],
        ids=["movielens", "sweetrs", "sweetrs-header", "movielens-line-3"],
    )
    def test_line_that_is_not_utf8_names_its_line(self, parse, data, lineno, tmp_path):
        # an undecodable byte is its line's first error, a header's too
        path = tmp_path / "ratings"
        path.write_bytes(data)
        with pytest.raises(RatingsParseError) as err:
            parse(path)
        assert (str(err.value), err.value.line_number) == (f"{path}:{lineno}: not UTF-8 text", lineno)

    @pytest.mark.parametrize("pad", ["\x1c", "\x1f"])
    def test_separator_padding_is_refused_as_int_refuses_it(self, pad, tmp_path):
        # numpy's reader strips these four ASCII separators around a number;
        # int() and float() do not, and a line of them alone is blank
        path = tmp_path / "u.data"
        message, lineno = _parse_error(
            parse_movielens, path, f"1\t1\t3\t0\n{pad}\n2\t2{pad}\t4\t1\n"
        )
        assert message.startswith(f"{path}:3: invalid literal for int()") and lineno == 3
        path.write_text(f"1\t1\t3\t0\n{pad}\n2\t2\t4\t{pad}\n")
        assert parse_movielens(path).n_observed == 2

    @pytest.mark.parametrize(
        "parse,data,expected",
        [(parse_movielens, b"1\t1\t3\t0\r2\t2\t4\t1\n", ([0, 1], [0, 1], [3.0, 4.0])),
         (parse_movielens, b"1\t1\t3\t0\r \t\n2\t2\t4\t1\n", ([0, 1], [0, 1], [3.0, 4.0])),
         (parse_sweetrs, b"user,item,rating\r1,1,3\r2,2,4\n", ([0, 1], [0, 1], [3.0, 4.0])),
         (parse_movielens, b"1\t1\t3\t0\r\n\r\n \r\n2\t2\t4\t1\r\n", ([0, 1], [0, 1], [3.0, 4.0])),
         (parse_movielens, "1\t1\t3\t0\n\u3000\n\u00a0\n2\t2\t4\t1\n".encode(),
          ([0, 1], [0, 1], [3.0, 4.0])),
         (parse_movielens, "1\t1\t3\u2028\t0\n\u2028\n2\t2\t4\t1\n".encode(),
          ([0, 1], [0, 1], [3.0, 4.0])),
         (parse_sweetrs, "\ufeff1,1,3\n2,2,4\n".encode(), ([1], [1], [4.0])),
         (parse_sweetrs, "\ufeffuser,item,rating\n1,1,3\n".encode(), ([0], [0], [3.0])),
         (parse_sweetrs, b"user,item,rating\n \t \n1,1,3\n", ([0], [0], [3.0]))],
        ids=["lone-cr", "lone-cr-before-blank", "sweetrs-lone-cr", "crlf-blank-lines",
             "u3000-and-u00a0-lines", "u2028-pad-and-line", "bom-data-line-is-a-header",
             "bom-header", "header-then-whitespace-line"],
    )
    def test_line_breaks_and_blank_lines(self, parse, data, expected, tmp_path):
        # universal newlines split a lone CR; str.isspace lines are blank;
        # U+2028 breaks no line; a BOM is part of line 1's first field
        path = tmp_path / "ratings"
        path.write_bytes(data)
        obs = parse(path)
        assert (obs.rows.tolist(), obs.cols.tolist(), obs.values.tolist()) == expected

    @pytest.mark.parametrize(
        "parse,data,error,lineno",
        [(parse_movielens, b"1\t1\t3\t0\n2\t2\r\t4\t1\n", "expected 4 fields, got 2", 2),
         (parse_movielens, "1\t1\t3\t0\u20282\t2\t4\t1\n".encode(), "expected 4 fields, got 7", 1),
         (parse_sweetrs, "1,1,3\u20282,2,4\n".encode(), "expected 3 fields, got 5", 1),
         (parse_movielens, b"1\t1\t3\t0\n\x1c2\t2\t4\t1\n",
          "invalid literal for int() with base 10: '\\x1c2'", 2),
         (parse_sweetrs, b"1,1,3\n2,2,4\x1e\n", "could not convert string to float: '4\\x1e'", 2),
         (parse_movielens, "\ufeff1\t1\t3\t0\n2\t2\t4\t1\n".encode(),
          "invalid literal for int() with base 10: '\\ufeff1'", 1)],
        ids=["lone-cr-splits-a-line", "u2028-joins-lines", "sweetrs-u2028-joins-lines",
             "u001c-leads-an-id", "u001e-trails-a-rating", "bom"],
    )
    def test_edge_line_names_its_line(self, parse, data, error, lineno, tmp_path):
        path = tmp_path / "ratings"
        path.write_bytes(data)
        with pytest.raises(RatingsParseError) as err:
            parse(path)
        assert (str(err.value), err.value.line_number) == (f"{path}:{lineno}: {error}", lineno)

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_read_block_size_changes_no_parse(self, block, tmp_path, monkeypatch):
        # lines, CRLF pairs and a lone CR that straddle a block's end
        lines = [f"{u}\t{i}\t{(u * i) % 5 + 1}\t{u}" for u in range(1, 30) for i in (1, 3)]
        text = "\r\n".join(lines[:20]) + "\r\n \n\n" + "\r".join(lines[20:]) + "\n1\t1\t4\t\x1c\n"
        path = tmp_path / "u.data"
        path.write_bytes(text.encode())
        expected_report = ParseReport()
        expected = parse_movielens(path, expected_report)
        monkeypatch.setattr(data_io, "_BLOCK_CHARS", block)
        report = ParseReport()
        obs = parse_movielens(path, report)
        assert (obs.m, obs.n) == (expected.m, expected.n) == (29, 3)
        for name in ("rows", "cols", "values"):
            np.testing.assert_array_equal(getattr(obs, name), getattr(expected, name))
        assert report == expected_report == ParseReport(duplicates=1, out_of_range=0)
        path.write_bytes(text.encode() + b"2\t2\t3\t0\n3\t\x1d3\t4\t0\n")
        with pytest.raises(RatingsParseError) as err:
            parse_movielens(path)
        assert (str(err.value), err.value.line_number) == (
            f"{path}:63: invalid literal for int() with base 10: '\\x1d3'", 63)


class TestSubsample:
    def setup_method(self):
        self.x, self.obs = generate_synthetic(20, 20, 2, 0.4, 6)

    def test_identity_at_current_fraction(self):
        out = subsample(self.obs, self.obs.observed_fraction, np.random.default_rng(0))
        assert out is self.obs

    def test_target_count(self):
        out = subsample(self.obs, 0.1, np.random.default_rng(1))
        assert out.n_observed == int(0.1 * 400)

    def test_deterministic(self):
        a = subsample(self.obs, 0.1, np.random.default_rng(2))
        b = subsample(self.obs, 0.1, np.random.default_rng(2))
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.cols, b.cols)

    def test_subset_of_original(self):
        out = subsample(self.obs, 0.1, np.random.default_rng(3))
        original = set(zip(self.obs.rows.tolist(), self.obs.cols.tolist()))
        assert set(zip(out.rows.tolist(), out.cols.tolist())) <= original
        assert (out.m, out.n) == (self.obs.m, self.obs.n)

    def test_infeasible_target(self):
        with pytest.raises(ValueError):
            subsample(self.obs, 0.9, np.random.default_rng(4))

    @pytest.mark.parametrize("fraction,message", [
        (0.0, r"^fraction 0.0 must lie in \(0, 1\]$"),
        (-0.5, r"^fraction -0.5 must lie in \(0, 1\]$"),
        (math.nan, r"^fraction nan must lie in \(0, 1\]$"),
        (1.5, r"^fraction 1.5 must lie in \(0, 1\]$"),
        (0.001, "^fraction 0.001 observes no entry of a 20x20 matrix$"),
    ])
    def test_empty_or_out_of_range_target_is_refused(self, fraction, message):
        with pytest.raises(ValueError, match=message):
            subsample(self.obs, fraction, np.random.default_rng(5))


class TestHoldoutSplit:
    def test_partition(self):
        _, obs = generate_synthetic(10, 10, 2, 1.0, 7)
        train, test = holdout_split(obs, 0.1, np.random.default_rng(5))
        assert test.n_observed == 10
        assert train.n_observed == 90
        train_set = set(zip(train.rows.tolist(), train.cols.tolist()))
        test_set = set(zip(test.rows.tolist(), test.cols.tolist()))
        assert not train_set & test_set
        full = set(zip(obs.rows.tolist(), obs.cols.tolist()))
        assert train_set | test_set == full

    def test_deterministic(self):
        _, obs = generate_synthetic(10, 10, 2, 0.5, 8)
        a_train, a_test = holdout_split(obs, 0.2, np.random.default_rng(6))
        b_train, b_test = holdout_split(obs, 0.2, np.random.default_rng(6))
        np.testing.assert_array_equal(a_test.rows, b_test.rows)
        np.testing.assert_array_equal(a_train.values, b_train.values)

    def test_degenerate_sizes_rejected(self):
        obs_small = generate_synthetic(3, 3, 1, 1.0, 9)[1]
        with pytest.raises(ValueError):
            holdout_split(obs_small, 0.01, np.random.default_rng(7))
        with pytest.raises(ValueError):
            holdout_split(obs_small, 1.0, np.random.default_rng(7))


def make_record(**overrides):
    base = dict(
        dataset="synthetic-m20-n20-rank2",
        solver="als",
        mechanism="huber",
        variance=2.0,
        fraction=0.1,
        rank=2,
        epsilon=5.38,
        delta=0.0,
        seed=13,
        config={"lam": 0.5},
        draw_counts={"u_sweep": 0, "v_sweep": 120},
        rmse_scope="all_entries",
        wall_clock_sec=0.25,
        extras={"note": 1},
    )
    base.update(overrides)
    return RunRecord(rmse_trials=[0.5, 0.7, 0.6], **base)


class TestRunPersistence:
    def test_round_trip_identity(self, tmp_path):
        record = make_record()
        path = tmp_path / "run.json"
        persist_run(record, path)
        loaded = load_run(path)
        assert loaded == record

    def test_round_trip_infinite_epsilon(self, tmp_path):
        record = make_record(mechanism="none", variance=None, epsilon=math.inf)
        path = tmp_path / "none.json"
        persist_run(record, path)
        loaded = load_run(path)
        assert math.isinf(loaded.epsilon)
        assert loaded.variance is None

    def test_future_schema_version_rejected(self, tmp_path):
        record = make_record()
        path = tmp_path / "run.json"
        persist_run(record, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaVersionError):
            load_run(path)

    def test_mean_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        persist_run(make_record(), path)
        payload = json.loads(path.read_text())
        payload["rmse_mean"] = 0.9
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"run\.json: rmse_mean 0\.9 does not match"):
            load_run(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda payload: payload.pop("epsilon"), r"run\.json: record lacks key\(s\) epsilon$"),
        (lambda payload: payload.update(bogus=1),
         r"run\.json: record has unknown key\(s\) bogus$"),
        (lambda payload: payload.update(epsilon="abc"),
         r"run\.json: record field epsilon must be float, got 'abc'$"),
        (lambda payload: payload.update(rmse_trials="ab"),
         r"run\.json: record field rmse_trials must be list\[float\], got 'ab'$"),
        (lambda payload: payload.update(rmse_trials=[[0.5, 0.7, 0.6]]),
         r"run\.json: record field rmse_trials must be list\[float\], "
         r"got \[\[0\.5, 0\.7, 0\.6\]\]$"),
        (lambda payload: payload.update(rmse_trials=[]),
         r"run\.json: record field rmse_trials must not be empty$"),
        (lambda payload: payload.update(rank=2.5),
         r"run\.json: record field rank must be int, got 2\.5$"),
        (lambda payload: payload.update(wall_clock_sec=[1]),
         r"run\.json: record field wall_clock_sec must be float, got \[1\]$"),
        (lambda payload: payload.update(solver=5),
         r"run\.json: record field solver must be str, got 5$"),
        (lambda payload: payload.update(config=[1]),
         r"run\.json: record field config must be dict, got \[1\]$"),
        (lambda payload: payload.update(draw_counts="z"),
         r"run\.json: record field draw_counts must be dict, got 'z'$"),
        (lambda payload: payload.update(rank=0),
         r"run\.json: record field rank must be >= 1, got 0$"),
        (lambda payload: payload.update(rmse_mean="0.6"),
         r"run\.json: rmse_mean '0\.6' does not match its rmse_trials$"),
    ], ids=["missing-key", "unknown-key", "string-epsilon", "string-trials", "nested-trials",
            "empty-trials", "fractional-rank", "list-wall-clock", "solver-int", "config-list",
            "draw-counts-str", "zero-rank", "string-mean"])
    def test_malformed_record_names_its_key(self, edit, message, tmp_path):
        # a KeyError, RunRecord's TypeError, float()'s or numpy's own error
        # would name neither the file nor what is wrong with it, and a
        # fractional rank, a listed wall clock or a numeric solver would
        # load without one
        path = tmp_path / "run.json"
        persist_run(make_record(), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_run(path)

    @pytest.mark.parametrize("key,value,message", [
        ("variance", "inf", r"run\.json: record field variance must be float \| None, got 'inf'$"),
        ("epsilon", "-inf", r"run\.json: record field epsilon must be float, got '-inf'$"),
    ], ids=["inf-variance", "minus-inf-epsilon"])
    def test_only_epsilon_reads_inf(self, key, value, message, tmp_path):
        # epsilon = inf is the one non-finite float a record holds, so it is
        # the one string load_run reads as a number
        path = tmp_path / "run.json"
        persist_run(make_record(), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_run(path)

    @pytest.mark.parametrize("content", [[1], "text", None], ids=["list", "str", "null"])
    def test_non_object_record_rejected(self, content, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(content))
        kind = type(content).__name__
        message = rf"run\.json: record must hold a JSON object, got {kind}$"
        with pytest.raises(ValueError, match=message):
            load_run(path)

    CELL = dict(dataset="d", solver="als", mechanism="none", variance=None,
                fraction=0.1, rank=2, epsilon=1.0, delta=0.0, seed=0)

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="rmse_trials must not be empty"):
            RunRecord(rmse_trials=[], **self.CELL)

    @pytest.mark.parametrize("trials", [[math.inf], [0.5, math.nan]], ids=["inf", "nan"])
    def test_non_finite_trials_rejected(self, trials):
        # persist_run would write a non-standard Infinity or NaN that
        # load_run refuses to read back
        with pytest.raises(ValueError, match="^record field rmse_trials must be finite, got "):
            RunRecord(rmse_trials=trials, **self.CELL)

    @pytest.mark.parametrize("field", ["variance", "fraction", "epsilon", "delta", "wall_clock_sec"])
    def test_nan_float_fields_rejected(self, field):
        # persist_run would write a non-standard NaN, and load_run would
        # return a record unequal to the one written
        with pytest.raises(ValueError) as info:
            RunRecord(rmse_trials=[0.5], **{**self.CELL, field: math.nan})
        assert str(info.value) == f"record field {field} must be finite, got nan"

    @pytest.mark.parametrize("field,value,message", [
        ("mechanism", None, "record field mechanism must be str, got None"),
        ("seed", -1, "record field seed must be >= 0, got -1"),
        ("seed", True, "record field seed must be int, got True"),
        ("variance", "2", "record field variance must be float | None, got '2'"),
        ("extras", [], "record field extras must be dict, got []"),
    ], ids=["none-mechanism", "negative-seed", "bool-seed", "string-variance", "list-extras"])
    def test_built_record_is_checked(self, field, value, message):
        # the rule load_run reads a record by holds for every record built,
        # so run_plan cannot write one that load_run refuses
        with pytest.raises(ValueError) as info:
            RunRecord(rmse_trials=[0.5], **{**self.CELL, field: value})
        assert str(info.value) == message

    def test_mean_and_std_recomputable(self):
        record = make_record()
        trials = np.asarray(record.rmse_trials)
        assert record.rmse_mean == pytest.approx(trials.mean(), abs=1e-12)
        assert record.rmse_std == pytest.approx(trials.std(), abs=1e-12)

    def test_csv_summary(self, tmp_path):
        records = [make_record(), make_record(mechanism="laplace", epsilon=5.0)]
        path = tmp_path / "summary.csv"
        write_summary_csv(records, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(SUMMARY_FIELDS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "synthetic-m20-n20-rank2"
        assert float(first[8]) == pytest.approx(records[0].rmse_mean)
