import math
import re
import tracemalloc
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest

from dlstf import dataset
from dlstf.dataset import (HOUR, Normalizer, TimeSeriesPanel, denormalize,
                           fill_missing, fit_normalizer, fraction_cuts, ingest_csv,
                           make_samples, normalize, parse_timestamp, write_csv)
from dlstf.errors import DataError
from conftest import seeded_rng


def panel_from(values, start="2020-01-01T00:00:00Z", ids=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    n = values.shape[1]
    ids = ids or tuple(f"S{k:02d}" for k in range(n))
    t0 = parse_timestamp(start)
    return TimeSeriesPanel(ids, t0 + np.arange(values.shape[0]) * HOUR, values)


# ASCII digits to the Arabic-Indic ones, which strptime and float() also read
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

CSV_OK = """timestamp,AAA,BBB
2014-01-01T00:00:00Z,3.5,4.0
2014-01-01T01:00:00Z,NA,4.5
2014-01-01T02:00:00Z,2.0,
"""


def per_line_loop(path):
    """One line at a time, as ingest_csv parsed files before the chunk path,
    except that it also refuses a cell with _, CR or a non-ASCII character and
    a timestamp that is not the zero-padded ASCII YYYY-MM-DDTHH:00:00Z: the
    oracle for ingest_csv's output."""
    def fmt(d):
        return (f"{d.year:04d}-{d.month:02d}-{d.day:02d}"
                f"T{d.hour:02d}:{d.minute:02d}:{d.second:02d}Z")

    def stamp(text):
        # strptime also reads one-digit fields and non-ASCII digits: the
        # canonical text must come back from fmt
        try:
            d = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
        except ValueError:
            d = None
        if d is None or fmt(d) != text:
            raise DataError(f"bad timestamp {text!r}: expected YYYY-MM-DDTHH:00:00Z")
        if d.minute or d.second:
            raise DataError(f"bad timestamp {text!r}: not on the hour")
        return d

    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    lines = [ln[:-1] if ln.endswith("\r") else ln for ln in raw.split("\n")]
    if lines and lines[-1] == "":
        lines.pop()
    station_ids = lines[0].split(",")[1:]
    n = len(station_ids)
    stamps, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != n + 1:
            raise DataError(
                f"{path}: line {lineno} has {len(fields)} fields, expected {n + 1}")
        try:
            ts = stamp(fields[0])
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        if stamps:
            if ts == stamps[-1]:
                raise DataError(
                    f"{path}: line {lineno}: duplicate timestamp {fields[0]}")
            if ts != stamps[-1] + timedelta(hours=1):
                raise DataError(
                    f"{path}: line {lineno}: timestamp {fields[0]} breaks the "
                    f"hourly grid (previous was {fmt(stamps[-1])})")
        row = []
        for col, cell in enumerate(fields[1:]):
            if cell == "" or cell == "NA":
                row.append(np.nan)
                continue
            # a cell float() reads is still refused if it holds _, CR or a non-ASCII character
            try:
                value = (float(cell) if cell.isascii() and "_" not in cell
                         and "\r" not in cell else None)
            except ValueError:
                value = None
            if value is None:
                raise DataError(
                    f"{path}: line {lineno}, column {station_ids[col]!r}: "
                    f"non-numeric cell {cell!r}")
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: line {lineno}, column {station_ids[col]!r}: "
                    f"non-finite cell {cell!r}")
            row.append(value)
        stamps.append(ts)
        rows.append(row)
    return (tuple(station_ids), np.array(stamps, dtype="datetime64[s]"),
            np.array(rows, dtype=np.float64))


# read block sizes for ingest_csv: a byte or a few, about a line, many lines and the default
READ_SIZES = (1, 2, 7, 64, 1000, dataset._READ_BYTES)


def csv_lines(T, n=2, start="2014-01-01T00:00:00Z"):
    """The header and T clean data lines of an n-station CSV, without line ends."""
    stamps = np.datetime_as_string(parse_timestamp(start) + np.arange(T) * HOUR, unit="s")
    return ["timestamp," + ",".join(f"S{k}" for k in range(n))] + [
        f"{ts}Z," + ",".join(f"{t + k / 4:g}" for k in range(n)) for t, ts in enumerate(stamps)]


def whole_file_decode_error(path):
    """What ingest_csv says of a file that is not UTF-8: the error of one decode of all
    of it, which names the first bad byte by its position after any BOM."""
    with pytest.raises(UnicodeDecodeError) as exc:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            fh.read()
    return f"{path}: not UTF-8 text: {exc.value}"


def via_ingest_csv(path):
    panel = ingest_csv(path)
    return panel.station_ids, panel.timestamps, panel.values


def outcome(parse, path):
    """What `parse` makes of a file: the panel's bytes, or the error text."""
    try:
        ids, stamps, values = parse(path)
    except DataError as exc:
        return str(exc)
    return ids, stamps.dtype, stamps.tobytes(), values.shape, values.tobytes()


class TestParseTimestamp:
    @pytest.mark.parametrize("text", ["2014-01-01T00:00:00Z", "0005-01-01T23:00:00Z",
                                      "9999-12-31T23:00:00Z", "2016-02-29T12:00:00Z"])
    def test_canonical_stamp_round_trips(self, text):
        assert dataset.format_timestamp(parse_timestamp(text)) == text

    @pytest.mark.parametrize("text", [
        "2014-1-1T1:00:00Z", "2014-01-01T1:00:00Z", "2014-01-01T00:00:00Z".translate(ARABIC_INDIC),
        "\u0662\u0660\u0661\u0664-01-01T00:00:00Z", "2014-01-01 00:00:00Z",
        "2014-01-01T00:00:00", "2014-01-01T00:00:00z", "2014-01-01T00:00:00Z\n",
        " 2014-01-01T00:00:00Z", "-999-01-01T00:00:00Z", "+2014-01-01T00:00:00Z",
        "2014-01-01T00:00+01Z", "2014-01-01T00+0100Z", "2014-02-30T00:00:00Z",
        "2014-13-01T00:00:00Z", "2014-01-01T24:00:00Z", "10000-01-01T00:00:00Z", ""])
    def test_other_forms_refused_without_a_warning(self, text):
        # np.datetime64 alone reads a timezone suffix, with a warning, and a negative year
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(
                    f"bad timestamp {text!r}: expected YYYY-MM-DDTHH:00:00Z")):
                parse_timestamp(text)

    @pytest.mark.parametrize("text", ["2014-01-01T00:30:00Z", "2014-01-01T00:00:59Z"])
    def test_off_the_hour_refused(self, text):
        with pytest.raises(DataError, match=re.escape(f"bad timestamp {text!r}: not on the hour")):
            parse_timestamp(text)


class TestIngest:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(CSV_OK)
        p = ingest_csv(path)
        assert p.station_ids == ("AAA", "BBB")
        assert p.n_times == 3
        assert p.values[0, 0] == 3.5

    def test_na_and_empty_become_missing(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(CSV_OK)
        p = ingest_csv(path)
        assert np.isnan(p.values[1, 0])
        assert np.isnan(p.values[2, 1])

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(CSV_OK.replace("\n", "\r\n").encode())
        assert ingest_csv(path).n_times == 3

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,AAA\n2014-01-01T00:00:00Z,1.0\n")
        with pytest.raises(DataError, match="header"):
            ingest_csv(path)

    def test_duplicate_timestamp_named(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("timestamp,AAA\n"
                        "2014-01-01T00:00:00Z,1.0\n"
                        "2014-01-01T00:00:00Z,2.0\n")
        with pytest.raises(DataError, match="duplicate timestamp 2014-01-01T00:00:00Z"):
            ingest_csv(path)

    def test_duplicate_station_id_named(self, tmp_path):
        path = tmp_path / "dupid.csv"
        path.write_text("timestamp,S00,S00,S02\n"
                        "2014-01-01T00:00:00Z,1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="duplicate station id 'S00'"):
            ingest_csv(path)

    @pytest.mark.parametrize("sid", [" S01", "S01 ", "\tS01", " "])
    def test_station_id_with_surrounding_whitespace_named(self, tmp_path, sid):
        path = tmp_path / "spaced.csv"
        path.write_text(f"timestamp,S00,{sid},S02\n2014-01-01T00:00:00Z,1.0,2.0,3.0\n")
        with pytest.raises(DataError, match=re.escape(
                f"station id {sid!r} has leading or trailing whitespace")):
            ingest_csv(path)

    def test_gap_named_with_row(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("timestamp,AAA\n"
                        "2014-01-01T00:00:00Z,1.0\n"
                        "2014-01-01T02:00:00Z,2.0\n")
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        # non-finite numbers are refused too: only empty and NA mark missing
        path = tmp_path / "cell.csv"
        for cell in ("oops", "inf", "nan", "1e999"):
            path.write_text("timestamp,AAA,BBB\n"
                            f"2014-01-01T00:00:00Z,1.0,{cell}\n")
            with pytest.raises(DataError, match=rf"line 2.*'BBB'.*'{cell}'"):
                ingest_csv(path)

    @pytest.mark.parametrize("cell", ["1_0", "١٢", "１２", "12\xa0"])
    @pytest.mark.parametrize("lineno", [2, 3])
    def test_underscore_or_non_ascii_cell_refused(self, tmp_path, cell, lineno):
        # float() reads the first three as 10.0, 12.0 and 12.0 and loadtxt reads
        # 12\xa0 as 12.0; the chunk path refuses each, on the first line and after it
        rows = ["1.0,2.0", "3.0,4.0"]
        rows[lineno - 2] = f"1.0,{cell}"
        path = tmp_path / "cell.csv"
        path.write_bytes(("timestamp,AAA,BBB\n"
                          f"2014-01-01T00:00:00Z,{rows[0]}\n"
                          f"2014-01-01T01:00:00Z,{rows[1]}\n").encode("utf-8"))
        message = f"line {lineno}, column 'BBB': non-numeric cell {cell!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            ingest_csv(path)

    def test_roundtrip_write_read(self, tmp_path):
        rng = seeded_rng(8)
        vals = rng.uniform(0, 10, (20, 3))
        vals[4, 1] = np.nan
        p = panel_from(vals)
        path = tmp_path / "rt.csv"
        write_csv(p, path)
        q = ingest_csv(path)
        assert q.station_ids == p.station_ids
        assert np.array_equal(q.timestamps, p.timestamps)
        assert np.array_equal(q.values, p.values, equal_nan=True)

    @pytest.mark.parametrize("chunk", [3, dataset.CSV_CHUNK_ROWS])
    def test_write_matches_per_row_writer(self, tmp_path, monkeypatch, chunk):
        def per_row_writer(panel, path):
            # one formatted timestamp and one cell at a time, as write_csv wrote before
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("timestamp," + ",".join(panel.station_ids) + "\n")
                for t in range(panel.n_times):
                    dt = panel.timestamps[t].astype("datetime64[s]").item()
                    cells = [dt.strftime("%Y-%m-%dT%H:%M:%SZ")]
                    for v in panel.values[t]:
                        cells.append("NA" if np.isnan(v) else repr(float(v)))
                    fh.write(",".join(cells) + "\n")

        monkeypatch.setattr(dataset, "CSV_CHUNK_ROWS", chunk)
        rng = seeded_rng(17, chunk)
        special = np.array([0.0, -0.0, 5e-324, -1e-300, 1e300, 0.1, 1 / 3, np.nan])
        for trial in range(60):
            T, n = int(rng.integers(1, 50)), int(rng.integers(1, 5))
            vals = rng.normal(5.0, 3.0, (T, n)) * 10.0 ** rng.integers(-8, 9, (T, n))
            pick = rng.uniform(size=(T, n)) < 0.2
            vals[pick] = rng.choice(special, size=int(pick.sum()))
            # years 1000 to about 8990
            start = (np.datetime64("1000-01-01T00:00:00", "s")
                     + int(rng.integers(0, 7 * 10 ** 7)) * HOUR)
            p = TimeSeriesPanel(tuple(f"S{k:02d}" for k in range(n)),
                                start + np.arange(T) * HOUR, vals)
            write_csv(p, tmp_path / "new.csv")
            per_row_writer(p, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_year_before_1000_round_trips(self, tmp_path):
        p = panel_from([[1.0], [2.0]], start="0005-01-01T23:00:00Z")
        path = tmp_path / "old.csv"
        write_csv(p, path)
        assert path.read_text().split("\n")[1] == "0005-01-01T23:00:00Z,1.0"
        assert np.array_equal(ingest_csv(path).timestamps, p.timestamps)

    @pytest.mark.parametrize("chunk", [3, 8, dataset.CSV_CHUNK_ROWS])
    def test_matches_per_line_loop(self, tmp_path, monkeypatch, chunk):
        def set_field(line, k, text):
            fields = line.split(",")
            fields[k] = text
            return ",".join(fields)

        def stamp_of(line):
            return parse_timestamp(line.split(",")[0])

        def unpadded(ts):
            d = ts.item()
            return f"{d.year}-{d.month}-{d.day}T{d.hour}:0:00Z"

        def restamp(line, edit):
            return set_field(line, 0, edit(line.split(",")[0]))

        def missing_pair(line, rng):
            # NA and empty side by side, the second of them at the end of the line
            fields = line.split(",")
            k = min(2, len(fields) - 1)
            fields[-k:] = [str(c) for c in rng.permutation(["NA", ""])[:k]]
            return ",".join(fields)

        # each defect rewrites data row r of `lines` (the header is lines[0])
        defects = {
            "extra_field": lambda lines, r, rng: lines[r + 1] + ",1.5",
            "missing_field": lambda lines, r, rng: lines[r + 1].rsplit(",", 1)[0],
            "bad_stamp": lambda lines, r, rng: set_field(
                lines[r + 1], 0, str(rng.choice(["2000-13-01T00:00:00Z", "yesterday", ""]))),
            "off_hour": lambda lines, r, rng: set_field(
                lines[r + 1], 0, lines[r + 1].split(",")[0][:14] + "30:00Z"),
            # on row 0, the stamp of row 1, which then repeats it
            "duplicate": lambda lines, r, rng: set_field(
                lines[r + 1], 0, lines[r if r else min(2, len(lines) - 1)].split(",")[0]),
            "off_grid": lambda lines, r, rng: set_field(
                lines[r + 1], 0, dataset.format_timestamp(
                    stamp_of(lines[r + 1]) + int(rng.choice([-2, 1, 5])) * HOUR)),
            "non_numeric": lambda lines, r, rng: set_field(
                lines[r + 1], 1 + int(rng.integers(n)), str(rng.choice(["abc", "1.2.3", "N/A"]))),
            "non_finite": lambda lines, r, rng: set_field(
                lines[r + 1], 1 + int(rng.integers(n)),
                str(rng.choice(["inf", "nan", "-Infinity", "1e999"]))),
            # stamps that strptime reads, but not of the zero-padded ASCII form
            "unpadded_stamp": lambda lines, r, rng: set_field(
                lines[r + 1], 0, unpadded(stamp_of(lines[r + 1]))),
            "non_ascii_digits": lambda lines, r, rng: restamp(
                lines[r + 1], lambda t: t[:4].translate(ARABIC_INDIC) + t[4:]),
            "one_digit_hour": lambda lines, r, rng: restamp(
                lines[r + 1], lambda t: t[:11] + str(int(t[11:13]) % 10) + t[13:]),
            # accepted by the per-line parse: same values as the canonical line
            "missing_cell": lambda lines, r, rng: set_field(
                lines[r + 1], 1 + int(rng.integers(n)), str(rng.choice(["", "NA"]))),
            "spaced_cell": lambda lines, r, rng: set_field(lines[r + 1], 1, " 2.5 "),
            # inputs that np.loadtxt reads unlike the per-line parse, or refuses
            # where float() reads them
            "blank_line": lambda lines, r, rng: lines[r + 1] + "\n",
            "comment_line": lambda lines, r, rng: "#" + lines[r + 1],
            "literal_nan": lambda lines, r, rng: set_field(
                lines[r + 1], 1 + int(rng.integers(n)), str(rng.choice(["nan", "NaN", "NAN"]))),
            "missing_pair": lambda lines, r, rng: missing_pair(lines[r + 1], rng),
            "inner_cr": lambda lines, r, rng: set_field(
                lines[r + 1], 1, str(rng.choice(["\r2.5", "2\r5", "2.5\r"]))),
            "underscore": lambda lines, r, rng: set_field(lines[r + 1], 1, "1_0"),
            "full_width": lambda lines, r, rng: set_field(lines[r + 1], 1, "\uff11.\uff15"),
            "five_digit_year": lambda lines, r, rng: set_field(
                lines[r + 1], 0, "0" + lines[r + 1].split(",")[0]),
        }

        monkeypatch.setattr(dataset, "CSV_CHUNK_ROWS", chunk)
        rng = seeded_rng(16, chunk)
        path = tmp_path / "panel.csv"
        cases = [(kind, pos) for kind in defects for pos in ("first", "boundary", "last")]
        cases += [(None, None)] * (120 if chunk < 100 else 4)
        for trial, (kind, pos) in enumerate(cases):
            n = int(rng.integers(1, 5))
            T = chunk + 2 if kind is not None else int(rng.integers(1, 3 * chunk + 3))
            start = np.datetime64("2000-01-01T00:00:00", "s") + int(rng.integers(0, 10 ** 6)) * HOUR
            vals = rng.normal(5.0, 3.0, (T, n))
            stamps = np.datetime_as_string(start + np.arange(T) * HOUR, unit="s")
            lines = ["timestamp," + ",".join(f"S{k}" for k in range(n))]
            for ts, row in zip(stamps, vals.tolist()):
                cells = [str(rng.choice(["", "NA"])) if rng.uniform() < 0.05 else repr(v)
                         for v in row]
                lines.append(ts + "Z," + ",".join(cells))
            if kind is not None:
                # row `chunk` ends the first array pass, row chunk + 1 starts the second
                r = {"first": 0, "boundary": chunk + int(rng.integers(2)), "last": T - 1}[pos]
                lines[r + 1] = defects[kind](lines, r, rng)
            else:
                for _ in range(int(rng.integers(0, 4))):
                    kind = str(rng.choice(list(defects)))
                    r = int(rng.integers(T))
                    try:
                        lines[r + 1] = defects[kind](lines, r, rng)
                    except (DataError, IndexError):  # a defect on an already broken line
                        pass
            eol = "\r\n" if trial % 4 == 1 else "\n"
            text = eol.join(lines) + ("" if trial % 5 == 2 else eol)
            path.write_bytes(text.encode("utf-8"))
            # most files span several read blocks, and a block may end inside a CRLF
            monkeypatch.setattr(dataset, "_READ_BYTES", READ_SIZES[trial % len(READ_SIZES)])
            assert outcome(via_ingest_csv, path) == outcome(per_line_loop, path), (trial, kind, pos)

    def test_character_sweep_matches_per_line_loop(self, tmp_path):
        # loadtxt strips \x1c-\x1f around a number as whitespace, where float() refuses
        # the cell; every other character must also give the per-line outcome
        path = tmp_path / "sweep.csv"
        for ch in [chr(c) for c in range(128)] + ["\x85", "\xa0", "\u3000", "\ufeff"]:
            for cell in ("1.5", "NA", ""):
                for placed in dict.fromkeys([ch + cell, cell[:1] + ch + cell[1:], cell + ch]):
                    for row in (f"{placed},3.0", f"3.0,{placed}"):
                        path.write_bytes(("timestamp,A,B\n"
                                          "2014-01-01T00:00:00Z,1.0,2.0\n"
                                          f"2014-01-01T01:00:00Z,{row}\n"
                                          "2014-01-01T02:00:00Z,4.0,5.0\n").encode("utf-8"))
                        assert (outcome(via_ingest_csv, path)
                                == outcome(per_line_loop, path)), (ch, placed, row)

    def test_clean_file_reads_each_chunk_in_one_pass(self, tmp_path, monkeypatch):
        rng = seeded_rng(23)
        T = 2 * dataset.CSV_CHUNK_ROWS + 10  # three chunks, the first line in the first
        stamps = np.datetime_as_string(parse_timestamp("2014-01-01T00:00:00Z")
                                       + np.arange(T) * HOUR, unit="s")
        lines = ["timestamp,A,B,C"]
        for ts, row in zip(stamps, rng.normal(5.0, 3.0, (T, 3)).tolist()):
            cells = [str(rng.choice(["", "NA"])) if rng.uniform() < 0.1 else repr(v) for v in row]
            lines.append(ts + "Z," + ",".join(cells))
        text = "\r\n".join(lines) + "\r\n"
        assert all(m in text for m in (",NA,", ",,", ",NA\r\n", ",\r\n", ",NA,\r\n", ",,NA"))
        path = tmp_path / "clean.csv"
        path.write_bytes(text.encode("utf-8"))
        linenos = []
        parse_line = dataset._parse_line
        monkeypatch.setattr(dataset, "_parse_line", lambda path, lineno, *rest: (
            linenos.append(lineno) or parse_line(path, lineno, *rest)))
        assert outcome(via_ingest_csv, path) == outcome(per_line_loop, path)
        assert linenos == []

    def test_refused_chunk_without_a_fault_is_not_accepted(self, tmp_path, monkeypatch):
        # the per-line code only names faults, so a chunk that the chunk reader
        # refuses is never read through it
        path = tmp_path / "ok.csv"
        path.write_text(CSV_OK)
        monkeypatch.setattr(dataset, "_read_chunk", lambda *args: None)
        with pytest.raises(DataError, match="lines 2-4 refused with no line at fault"):
            ingest_csv(path)

    def test_year_10000_on_the_grid_refused(self, tmp_path):
        path = tmp_path / "y10k.csv"
        path.write_text("timestamp,A\n9999-12-31T22:00:00Z,1.0\n"
                        "9999-12-31T23:00:00Z,2.0\n10000-01-01T00:00:00Z,3.0\n")
        with pytest.raises(DataError, match="line 4: bad timestamp '10000-01-01T00:00:00Z'"):
            ingest_csv(path)

    def test_leading_byte_order_mark_ignored(self, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(CSV_OK)
        bom.write_bytes(b"\xef\xbb\xbf" + CSV_OK.encode("utf-8"))
        assert outcome(via_ingest_csv, bom) == outcome(via_ingest_csv, plain)


class TestStreamingRead:
    """ingest_csv reads the file in blocks of _READ_BYTES bytes: no block boundary may
    change a panel, a line number or an error text, and a byte that is not UTF-8
    anywhere is named as a decode of the whole file names it."""

    def test_crlf_split_across_blocks(self, tmp_path, monkeypatch):
        lines = csv_lines(30)
        crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
        crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        lf.write_bytes(("\n".join(lines) + "\n").encode())
        cut = crlf.read_bytes().index(b"\r\n", 300) + 1  # the first block ends with a CR
        for size in (cut, 1, 2):
            monkeypatch.setattr(dataset, "_READ_BYTES", size)
            assert outcome(via_ingest_csv, crlf) == outcome(per_line_loop, lf)

    @pytest.mark.parametrize("refused", [False, True])
    def test_multibyte_character_split_across_blocks(self, tmp_path, monkeypatch, refused):
        lines = csv_lines(30)
        lines[0] = "timestamp,Z\u00fcrich,S1"
        if refused:
            lines[21] = lines[21].rsplit(",", 1)[0] + ",1.5\u20ac"
        path = tmp_path / "mb.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        data = path.read_bytes()
        expected = outcome(per_line_loop, path)
        assert isinstance(expected, str) == refused
        for char in ("\u00fc", "\u20ac") if refused else ("\u00fc",):
            at = data.index(char.encode("utf-8"))
            for size in range(at + 1, at + len(char.encode("utf-8"))):  # cut inside the character
                monkeypatch.setattr(dataset, "_READ_BYTES", size)
                assert outcome(via_ingest_csv, path) == expected, (char, size)
        if refused:
            assert expected == f"{path}: line 22, column 'S1': non-numeric cell '1.5\u20ac'"

    def test_lone_cr_in_a_later_chunk_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "CSV_CHUNK_ROWS", 4)
        monkeypatch.setattr(dataset, "_READ_BYTES", 16)
        lines = csv_lines(20)
        lines[14] = lines[14].rsplit(",", 1)[0] + ",2\r5"  # data row 13, in the fourth chunk
        path = tmp_path / "cr.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        with pytest.raises(DataError) as exc:
            ingest_csv(path)
        assert str(exc.value) == f"{path}: line 15, column 'S1': non-numeric cell '2\\r5'"

    @pytest.mark.parametrize("case", [
        "first_block", "later_block", "bom", "after_a_data_fault", "after_a_header_fault",
        "cut_sequence", "truncated_at_end", "surrogate"])
    def test_non_utf8_byte_named_as_a_whole_file_decode(self, tmp_path, monkeypatch, case):
        lines = csv_lines(300)
        if case == "after_a_data_fault":
            lines[3] = lines[3].rsplit(",", 1)[0] + ",abc"
        elif case == "after_a_header_fault":
            lines[0] = "time,S0,S1"
        data = ("\n".join(lines) + "\n").encode()
        at = {"first_block": 40, "later_block": 5000, "bom": 5000, "cut_sequence": 5000,
              "truncated_at_end": len(data), "surrogate": 7000}.get(case, len(data) - 10)
        bad = {"cut_sequence": b"\xe2\x82A", "truncated_at_end": b"\xe2\x82",
               "surrogate": b"\xed\xa0\x80"}.get(case, b"\xff")
        data = (b"\xef\xbb\xbf" if case == "bom" else b"") + data[:at] + bad + data[at:]
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        expected = whole_file_decode_error(path)
        for size in READ_SIZES:
            monkeypatch.setattr(dataset, "_READ_BYTES", size)
            with pytest.raises(DataError) as exc:
                ingest_csv(path)
            assert str(exc.value) == expected, size

    @pytest.mark.parametrize("data,error", [
        (b"", "empty file"), (b"\r", "empty file"), (b"\xef\xbb\xbf", "empty file"),
        (b"\xef\xbb", "empty file"), (b"\n", "missing header"),
        (b"timestamp,A\n", "no data rows"), (b"timestamp,A", "no data rows"),
        (b"\xef\xbb\xbftimestamp,A\r\n\r", "no data rows")])
    def test_file_without_data_rows(self, tmp_path, monkeypatch, data, error):
        path = tmp_path / "short.csv"
        path.write_bytes(data)
        for size in (1, 2, dataset._READ_BYTES):
            monkeypatch.setattr(dataset, "_READ_BYTES", size)
            with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {error}')}"):
                ingest_csv(path)

    def test_bom_and_missing_final_newline(self, tmp_path, monkeypatch):
        text = "\n".join(csv_lines(25)).encode()
        plain, variant = tmp_path / "plain.csv", tmp_path / "variant.csv"
        plain.write_bytes(text + b"\n")
        expected = outcome(via_ingest_csv, plain)
        for data in (b"\xef\xbb\xbf" + text + b"\n", text, b"\xef\xbb\xbf" + text, text + b"\r",
                     text + b"\n\r", text.replace(b"\n", b"\r\n")):
            variant.write_bytes(data)
            for size in (1, 2, 3, 4, 100, dataset._READ_BYTES):
                monkeypatch.setattr(dataset, "_READ_BYTES", size)
                assert outcome(via_ingest_csv, variant) == expected, (data[-3:], size)

    @pytest.mark.parametrize("change", ["grow", "shrink", "not_utf8"])
    def test_file_changed_between_count_and_parse(self, tmp_path, monkeypatch, change):
        lines = csv_lines(50)
        path = tmp_path / "changing.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        extra = {"grow": "\n".join(csv_lines(51)[-1:]).encode() + b"\n",
                 "not_utf8": b"\xff\n"}.get(change)
        text_blocks, passes = dataset._text_blocks, []

        def change_after_the_count(p):
            passes.append(p)
            yield from text_blocks(p)
            if len(passes) == 1:
                if extra is None:
                    path.write_bytes(("\n".join(lines[:-2]) + "\n").encode())
                else:
                    with open(path, "ab") as fh:
                        fh.write(extra)

        monkeypatch.setattr(dataset, "_text_blocks", change_after_the_count)
        message = ("not UTF-8 text" if change == "not_utf8"
                   else "file changed while it was read")
        with pytest.raises(DataError, match=message):
            ingest_csv(path)
        assert len(passes) == 2


class TestFillMissing:
    def test_interpolates_short_run(self):
        p = panel_from([3.0, np.nan, 5.0])
        fixed, report = fill_missing(p, max_gap=1)
        assert np.array_equal(fixed.values[:, 0], [3.0, 4.0, 5.0])
        assert len(report.filled) == 1
        assert report.filled.tolist() == [[0, 1, 1]]

    def test_long_run_left_missing_and_reported(self):
        p = panel_from([1.0, np.nan, np.nan, np.nan, np.nan, 2.0])
        fixed, report = fill_missing(p, max_gap=3)
        assert np.isnan(fixed.values[1:5, 0]).all()
        assert len(report.unfilled) == 1
        assert report.unfilled.tolist() == [[0, 1, 4]]

    def test_boundary_runs_never_filled(self):
        p = panel_from([np.nan, 2.0, 3.0, np.nan])
        fixed, report = fill_missing(p, max_gap=5)
        assert np.isnan(fixed.values[0, 0])
        assert np.isnan(fixed.values[3, 0])
        assert len(report.unfilled) == 2
        assert report.unfilled.tolist() == [[0, 0, 1], [0, 3, 1]]

    def test_no_missing_identity(self):
        p = panel_from([1.0, 2.0, 3.0])
        fixed, report = fill_missing(p, max_gap=3)
        assert np.array_equal(fixed.values, p.values)
        assert report.filled.shape == report.unfilled.shape == (0, 3)

    def test_multi_step_interpolation_values(self):
        p = panel_from([0.0, np.nan, np.nan, 3.0])
        fixed, _ = fill_missing(p, max_gap=2)
        assert np.allclose(fixed.values[:, 0], [0.0, 1.0, 2.0, 3.0], atol=1e-12)


    def test_matches_per_run_loop(self):
        def per_run_loop(panel, max_gap):
            # one run at a time, one element at a time, as fill_missing filled them before
            values = panel.values.copy()
            filled, unfilled = [], []
            T = panel.n_times
            for s in range(panel.n_stations):
                col = values[:, s]
                missing = np.isnan(col)
                t = 0
                while t < T:
                    if not missing[t]:
                        t += 1
                        continue
                    start = t
                    while t < T and missing[t]:
                        t += 1
                    length = t - start
                    if start > 0 and t < T and length <= max_gap:
                        left, right = col[start - 1], col[t]
                        for j in range(length):
                            frac = (j + 1) / (length + 1)
                            col[start + j] = left + frac * (right - left)
                        filled.append([s, start, length])
                    else:
                        unfilled.append([s, start, length])
            return values, filled, unfilled

        rng = seeded_rng(18)
        for trial in range(300):
            T, n = int(rng.integers(1, 60)), int(rng.integers(1, 5))
            vals = rng.normal(5.0, 3.0, (T, n))
            vals[rng.uniform(size=(T, n)) < (0.0, 0.05, 0.3, 0.7, 1.0)[trial % 5]] = np.nan
            max_gap = int(rng.integers(0, 6))
            fixed, report = fill_missing(panel_from(vals), max_gap)
            want_values, *want_runs = per_run_loop(panel_from(vals), max_gap)
            assert fixed.values.tobytes() == want_values.tobytes()
            for runs, want in zip((report.filled, report.unfilled), want_runs):
                assert runs.dtype.kind == "i" and runs.shape == (len(want), 3)
                assert runs.tolist() == want


class TestNormalizer:
    def test_hand_computed(self):
        p = panel_from([2.0, 6.0, 10.0])
        nz = fit_normalizer(p)
        out = normalize(p.values, nz)
        assert np.array_equal(out[:, 0], [0.0, 0.5, 1.0])

    def test_roundtrip_inverse(self):
        rng = seeded_rng(9)
        p = panel_from(rng.uniform(-3, 14, (50, 4)))
        nz = fit_normalizer(p)
        back = denormalize(normalize(p.values, nz), nz)
        assert np.max(np.abs(back - p.values)) < 1e-12

    def test_constant_station_unit_span_with_warning(self):
        p = panel_from(np.full(10, 4.0))
        with pytest.warns(UserWarning, match="constant"):
            nz = fit_normalizer(p)
        out = normalize(p.values, nz)
        assert np.array_equal(out[:, 0], np.zeros(10))

    def test_statistics_from_training_range_only(self):
        rng = seeded_rng(10)
        base = rng.uniform(0, 10, (40, 2))
        p1 = panel_from(base)
        modified = base.copy()
        modified[30:] += 100.0  # outside the training range
        p2 = panel_from(modified)
        nz1 = fit_normalizer(p1.slice_rows(0, 30))
        nz2 = fit_normalizer(p2.slice_rows(0, 30))
        assert np.array_equal(nz1.mins, nz2.mins)
        assert np.array_equal(nz1.maxs, nz2.maxs)

    def test_spans_computed_once_and_read_only(self):
        nz = Normalizer(("a", "b", "c", "d"), [0.0, 2.0, -1.0, 0.0], [1.5, 2.0, 3.0, 5e-324])
        assert np.array_equal(nz.spans, np.where(nz.maxs > nz.mins, nz.maxs - nz.mins, 1.0))
        assert np.array_equal(nz.spans, [1.5, 1.0, 4.0, 5e-324])
        assert nz.spans is nz.spans
        with pytest.raises(ValueError, match="read-only"):
            nz.spans[0] = 2.0

    def test_fully_missing_station_rejected(self):
        p = panel_from(np.full(5, np.nan))
        with pytest.raises(DataError, match="no observations"):
            fit_normalizer(p)


class TestSplit:
    def test_split_by_index_sizes(self):
        p = panel_from(np.arange(100.0))
        a, b = fraction_cuts(p.n_times, 0.7, 0.1)
        assert (a, b) == (70, 80)
        train, val, test = p.slice_rows(0, a), p.slice_rows(a, b), p.slice_rows(b, p.n_times)
        assert train.station_ids == p.station_ids
        assert np.array_equal(np.concatenate([train.values, val.values, test.values]),
                              p.values)


class TestMakeSamples:
    def test_sample_count_all_real(self):
        rng = seeded_rng(11)
        p = panel_from(rng.uniform(0, 1, (100, 2)))
        out = make_samples(p.values, None, ell=12, i=1)
        assert len(out) == 88
        assert out.skipped == 0
        seq, target = out.x[:, 0], out.y[0]
        assert seq.shape == (12, 2)
        assert np.array_equal(seq, p.values[0:12])
        assert np.array_equal(target, p.values[12])

    def test_real_then_forecast_order(self):
        T, n = 30, 2
        p = panel_from(np.zeros((T, n)) + np.arange(T)[:, None])
        overlay = np.full((2, T, n), np.nan)
        overlay[0] = 1000.0 + np.arange(T)[:, None]  # offset-1 forecasts
        overlay[1] = 2000.0 + np.arange(T)[:, None]  # offset-2 forecasts
        out = make_samples(p.values, overlay, ell=5, i=3)
        seq = out.x[:, 0]
        t = out.target_indices[0]
        # 3 real rows for positions t-5 .. t-3, then overlay offsets 1 and 2
        assert np.array_equal(seq[0:3], p.values[t - 5:t - 2])
        assert np.array_equal(seq[3], overlay[0, t - 2])
        assert np.array_equal(seq[4], overlay[1, t - 1])

    def test_edge_rule_all_forecast(self):
        T, n = 20, 2
        p = panel_from(np.arange(T, dtype=float)[:, None] * np.ones((1, n)))
        overlay = np.stack([k * 100.0 + np.arange(T)[:, None] * np.ones((1, n))
                            for k in range(1, 5)])
        out = make_samples(p.values, overlay, ell=3, i=5)
        seq = out.x[:, 0]
        t = out.target_indices[0]
        # all three rows come from forecasts at offsets i-ell..i-1 = 2, 3, 4
        assert np.array_equal(seq[0], overlay[1, t - 3])
        assert np.array_equal(seq[1], overlay[2, t - 2])
        assert np.array_equal(seq[2], overlay[3, t - 1])

    def test_missing_values_skipped_and_counted(self):
        rng = seeded_rng(12)
        vals = rng.uniform(0, 1, (40, 2))
        vals[20, 0] = np.nan
        p = panel_from(vals)
        out = make_samples(p.values, None, ell=6, i=1)
        # row 20 poisons 7 samples: as target at t=20 and as input for t=21..26
        assert out.skipped == 7
        assert len(out) == (40 - 6) - 7
        assert 20 not in out.target_indices

    def test_closed_form_count_invariant(self):
        rng = seeded_rng(13)
        for trial in range(5):
            T = int(rng.integers(30, 80))
            ell = int(rng.integers(1, 8))
            p = panel_from(rng.uniform(0, 1, (T, 2)))
            out = make_samples(p.values, None, ell=ell, i=1)
            assert len(out) == T - ell - out.skipped

    def test_matches_per_target_loop(self):
        def per_target_loop(values, overlay, ell, i):
            # one sample at a time, as make_samples assembled them before
            T, n = values.shape
            n_real = ell - min(i - 1, ell)
            seqs, targets, kept, skipped = [], [], [], 0
            for t in range(ell, T):
                seq = np.empty((ell, n))
                seq[:n_real] = values[t - ell:t - ell + n_real]
                for row in range(n_real, ell):
                    p = t - ell + row
                    seq[row] = overlay[p - t + i - 1, p]
                if np.all(np.isfinite(seq)) and np.all(np.isfinite(values[t])):
                    seqs.append(seq)
                    targets.append(values[t].copy())
                    kept.append(t)
                else:
                    skipped += 1
            x = np.stack(seqs, axis=1) if seqs else np.empty((ell, 0, n))
            y = np.stack(targets) if targets else np.empty((0, n))
            return x, y, np.array(kept, dtype=np.intp), skipped

        rng = seeded_rng(14)
        for trial in range(200):
            ell = int(rng.integers(1, 7))
            T = int(rng.integers(1, 3 * ell + 12))  # T <= ell happens
            n = int(rng.integers(1, 4))
            i = int(rng.integers(1, ell + 4))  # i - 1 >= ell happens
            nan_frac = (0.0, 0.03, 0.2)[trial % 3]
            vals = rng.uniform(0, 1, (T, n))
            vals[rng.uniform(size=(T, n)) < nan_frac] = np.nan
            overlay = rng.uniform(0, 1, (i - 1, T, n))
            overlay[rng.uniform(size=overlay.shape) < nan_frac] = np.nan
            p = panel_from(vals)
            out = make_samples(p.values, overlay if i > 1 else None, ell, i)
            x, y, kept, skipped = per_target_loop(p.values, overlay, ell, i)
            for got, want in ((out.x, x), (out.y, y), (out.target_indices, kept)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert out.skipped == skipped
            assert len(out) == len(kept)

    @pytest.mark.parametrize("i", [1, 3])
    def test_samples_are_c_contiguous(self, i):
        # train_model gathers each batch from x along axis 1; a strided x
        # makes every gather cost a copy of the whole array
        vals = seeded_rng(15).uniform(0, 1, (40, 3))
        vals[20, 1] = np.nan
        overlay = np.full((i - 1, 40, 3), 0.5)
        out = make_samples(vals, overlay if i > 1 else None, ell=6, i=i)
        assert 0 < out.skipped < 40 - 6
        assert out.x.flags.c_contiguous

    def test_invalid_arguments(self):
        p = panel_from(np.arange(30.0))
        with pytest.raises(ValueError):
            make_samples(p.values, None, ell=0, i=1)
        with pytest.raises(ValueError):
            make_samples(p.values, None, ell=3, i=0)

    def test_overlay_required_for_later_offsets(self):
        p = panel_from(np.arange(30.0))
        with pytest.raises(ValueError, match="forecast_overlay"):
            make_samples(p.values, None, ell=3, i=2)


class TestPanelInvariants:
    def test_gapped_timestamps_rejected(self):
        t0 = parse_timestamp("2020-01-01T00:00:00Z")
        stamps = np.array([t0, t0 + HOUR, t0 + 3 * HOUR])
        with pytest.raises(ValueError, match="1-hour"):
            TimeSeriesPanel(("A",), stamps, np.zeros((3, 1)))

    def test_values_immutable(self):
        p = panel_from(np.arange(5.0))
        with pytest.raises(ValueError):
            p.values[0, 0] = 9.9

    def test_constructor_copies_its_input(self):
        vals = np.arange(10.0).reshape(5, 2)
        stamps = parse_timestamp("2014-01-01T00:00:00Z") + np.arange(5) * HOUR
        p = TimeSeriesPanel(("A", "B"), stamps, vals)
        assert not np.shares_memory(p.values, vals)
        assert not np.shares_memory(p.timestamps, stamps)
        assert vals.flags.writeable and stamps.flags.writeable

    def test_slice_rows_is_a_read_only_view(self):
        p = panel_from(np.arange(10.0).reshape(5, 2))
        s = p.slice_rows(1, 4)
        assert np.shares_memory(s.values, p.values)
        assert np.shares_memory(s.timestamps, p.timestamps)
        assert not s.values.flags.writeable and not s.timestamps.flags.writeable
        assert np.array_equal(s.values, p.values[1:4])
        assert np.array_equal(s.timestamps, p.timestamps[1:4])

    def test_slice_rows_still_checks_its_range(self):
        p = panel_from(np.arange(5.0))
        for lo, hi in ((0, 0), (3, 2), (-1, 2), (0, 6)):
            with pytest.raises(ValueError, match="bad row slice"):
                p.slice_rows(lo, hi)


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, traced by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Deterministic tracemalloc bounds: ingest holds the panel plus a few chunks of
    text, however long the file, fill_missing copies the panel once, and a row slice
    copies and computes no array of its length."""

    CHUNKS = 24

    @pytest.fixture(scope="class")
    def gappy(self):
        rng = seeded_rng(41)
        T = self.CHUNKS * dataset.CSV_CHUNK_ROWS
        vals = rng.normal(8.0, 3.0, (T, 6))
        for start in rng.choice(np.arange(1, T - 10, 12), size=60, replace=False):
            vals[start:start + int(rng.integers(1, 6)), int(rng.integers(6))] = np.nan
        return panel_from(vals)

    def test_ingest_holds_the_panel_and_a_few_chunks(self, gappy, tmp_path):
        path = tmp_path / "long.csv"
        write_csv(gappy, path)
        chunk_bytes = path.stat().st_size / self.CHUNKS
        panel, peak = traced_peak(ingest_csv, path)
        assert np.array_equal(panel.values, gappy.values, equal_nan=True)
        # a whole-file read holds the file's text and a string per line: over 40 chunks here
        assert peak < panel.values.nbytes + panel.timestamps.nbytes + 8 * chunk_bytes

    def test_fill_missing_peaks_under_two_panels(self, gappy):
        (filled, report), peak = traced_peak(fill_missing, gappy, 3)
        assert len(report.filled) and np.isnan(gappy.values).any()
        assert np.shares_memory(filled.timestamps, gappy.timestamps)
        assert peak < 2 * gappy.values.nbytes

    def test_slice_rows_holds_no_array_of_its_length(self, gappy):
        # a slice of a checked panel lies on its hourly grid, so it is not checked again
        sliced, peak = traced_peak(gappy.slice_rows, 0, gappy.n_times)
        assert np.shares_memory(sliced.values, gappy.values)
        assert np.shares_memory(sliced.timestamps, gappy.timestamps)
        assert peak < 0.02 * gappy.values.nbytes

    def test_fill_missing_report_small_with_many_runs(self):
        # 5% of cells missing at random gives about 7,000 runs; a report of one Python
        # object per run peaks near 2.9x the values
        rng = seeded_rng(42)
        vals = rng.normal(8.0, 3.0, (self.CHUNKS * dataset.CSV_CHUNK_ROWS, 6))
        vals[rng.uniform(size=vals.shape) < 0.05] = np.nan
        gappy = panel_from(vals)
        (_, report), peak = traced_peak(fill_missing, gappy, 3)
        assert len(report.filled) + len(report.unfilled) > 6000
        assert peak < 2.5 * gappy.values.nbytes


class TestIndexOf:
    """index_of is the one rule from a time to a row: t0 + k hours is row k."""

    NOT_IN_PANEL = re.escape(
        "is not in the panel (2020-01-01T00:00:00Z .. 2020-01-01T04:00:00Z)")

    def test_every_row_and_the_hour_after_the_last(self):
        p = panel_from(np.arange(5.0))
        assert [p.index_of(ts) for ts in p.timestamps] == list(range(5))
        end = p.timestamps[-1] + HOUR
        assert p.index_of(end, past_end=True) == 5
        with pytest.raises(DataError, match=self.NOT_IN_PANEL):
            p.index_of(end)

    @pytest.mark.parametrize("past_end", [False, True])
    @pytest.mark.parametrize("ts", ["2019-12-31T23:00:00", "2020-01-01T06:00:00",
                                    "2020-01-01T00:30", "2020-01-01T03:59:59",
                                    "2020-01-01T01:00:00.5"])
    def test_off_the_panel_or_the_grid_refused(self, ts, past_end):
        ts = np.datetime64(ts)
        text = re.escape(f"timestamp {dataset.format_timestamp(ts)} ") + self.NOT_IN_PANEL
        with pytest.raises(DataError, match=text):
            panel_from(np.arange(5.0)).index_of(ts, past_end=past_end)
