"""Log parsing, half-splitting, baselines, and streak replay."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from notif_ltv import LogParseError, SendLog, build_dataset, ingest, read_log
from conftest import log_from_rows
from oracles import build_dataset_oracle, from_rows_oracle, read_log_oracle


def write_log(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def row(uid="u1", utype=1, ts=0, score=0.5, outcome=1):
    return {"user_id": uid, "user_type": utype, "timestamp": ts,
            "raw_score": score, "outcome": outcome}


def assert_same_log(got, want):
    assert got.users == want.users
    for name in ("user", "user_type", "timestamp", "raw_score", "outcome"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def read_or_message(read, path):
    try:
        return read(path)
    except LogParseError as exc:
        return str(exc)


def assert_reads_like_oracle(path):
    """read_log and read_log_oracle give equal logs or equal messages;
    returns the oracle's."""
    got, want = read_or_message(read_log, path), read_or_message(read_log_oracle, path)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert_same_log(got, want)
    return want


def block_lines(monkeypatch, lines, k):
    """Set _BLOCK_BYTES so that a block of these lines, in this order and
    each ended by one newline byte, holds k of them: a read of that many
    bytes from the start of any line holds k whole lines and not k + 1."""
    sizes = [len(line if isinstance(line, bytes) else line.encode()) + 1 for line in lines]
    size = max(sum(sizes[i:i + k]) for i in range(len(sizes)))
    assert size < min((sum(sizes[i:i + k + 1]) for i in range(len(sizes) - k)), default=size + 1)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", size)


def one_user_log(outcomes, uid="u1"):
    """One user's sends at timestamps 0, 1, ..., scores i / 1024 so that a
    record's score names the send it came from."""
    n = len(outcomes)
    return log_from_rows([uid] * n, [1] * n, range(n), [i / 1024 for i in range(n)], outcomes)


class TestReadLog:
    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        log = read_log(path)
        assert len(log) == 0 and log.users == ()

    def test_events_sorted_within_user(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(ts=30), row(ts=10), row(ts=20)])
        log = read_log(path)
        assert log.users == ("u1",)
        assert log.timestamp.tolist() == [10, 20, 30]

    def test_outcome_out_of_domain_names_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(), row(outcome=2)])
        with pytest.raises(LogParseError, match="line 2"):
            read_log(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"user_id": "u1"\nnot json\n')
        with pytest.raises(LogParseError, match="line 1"):
            read_log(path)

    def test_unknown_user_type_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(utype=9)])
        with pytest.raises(LogParseError, match="user_type"):
            read_log(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        bad = row()
        del bad["raw_score"]
        write_log(path, [bad])
        with pytest.raises(LogParseError, match="raw_score"):
            read_log(path)

    def test_score_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(score=1.5)])
        with pytest.raises(LogParseError, match="raw_score"):
            read_log(path)

    def test_users_sorted_by_id(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(uid="b"), row(uid="a"), row(uid="c")])
        log = read_log(path)
        assert log.users == ("a", "b", "c")
        assert log.user.tolist() == [0, 1, 2]

    def test_user_changing_type_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(utype=1), row(utype=2, ts=1)])
        with pytest.raises(LogParseError, match="changes type"):
            read_log(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(row()) + "\n\n" + json.dumps(row(ts=1)) + "\n")
        assert len(read_log(path)) == 2

    @pytest.mark.parametrize("ts", [2 ** 63, -2 ** 63 - 1])
    def test_timestamp_outside_int64_names_line(self, tmp_path, ts):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(), row(ts=ts)])
        with pytest.raises(LogParseError, match="line 2: timestamp"):
            read_log(path)

    def test_ids_differing_by_trailing_nul_stay_distinct(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(uid="a\u0000", ts=i) for i in range(4)]
                  + [row(uid="a", ts=i, outcome=0) for i in range(2)])
        log = read_log(path)
        assert log.users == ("a", "a\u0000")
        assert log.user.tolist() == [0, 0, 1, 1, 1, 1]
        records = build_dataset(log, min_samples=1)
        assert records.user.tolist() == [0, 1, 1]
        assert records.baseline_rate.tolist() == [0.0, 1.0, 1.0]


class TestChunkedRead:
    """read_log parses a block of lines as one JSON array and falls back to
    one line at a time; neither may move a line number or change a row."""

    @pytest.mark.parametrize("lines, objects", [
        # the lines hold as many objects as lines, but not one a line
        ([json.dumps(row())[:-1] + ', "x": [0\n', "1]}\n",
          json.dumps(row(ts=1)) + ", " + json.dumps(row(ts=2)) + "\n"], 3),
        # each line holds one { and one }, but one of each is in a string
        ([json.dumps(row())[:-1] + ', "a": "}", "b": [1\n', '"{", 2]}\n'], 1),
        # each line starts with { and ends with }, but the chunk holds more
        # braces than lines
        ([json.dumps(row())[:-1] + ', "a": [{"b": 1}\n', '{"c": 2}], "d": [{"e": 1}\n',
          '{"f": 3}]}\n', ", ".join(json.dumps(row(ts=t)) for t in range(3)) + "\n"], 4),
    ])
    def test_object_split_across_lines_is_invalid_json_on_its_first_line(self, tmp_path, lines,
                                                                         objects):
        # joined into one array, the lines are valid rows
        joined = json.loads("[" + ",".join(lines) + "]")
        assert len(joined) == objects and joined[0].keys() >= set(row())
        path = tmp_path / "log.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(LogParseError, match=r"^line 1: invalid JSON"):
            read_log(path)

    def test_malformed_line_after_the_first_chunk_names_its_line(self, tmp_path, monkeypatch):
        lines = [json.dumps(row(ts=t)) for t in range(8)] + ["not json"]
        block_lines(monkeypatch, lines[:-1], 3)
        path = tmp_path / "log.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(LogParseError, match=r"^line 9: invalid JSON"):
            read_log(path)

    def test_type_change_across_a_chunk_boundary_names_its_line(self, tmp_path, monkeypatch):
        rows = ([row(uid="u1", utype=1)] + [row(uid="u2", utype=3, ts=t) for t in range(3)]
                + [row(uid="u1", utype=2, ts=1)])
        block_lines(monkeypatch, [json.dumps(r) for r in rows], 4)
        path = tmp_path / "log.jsonl"
        write_log(path, rows)
        with pytest.raises(LogParseError, match=r"^line 5: user 'u1' changes type from 1 to 2$"):
            read_log(path)

    def test_blank_lines_inside_a_chunk_keep_line_numbers(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join([json.dumps(row()), "", "   ", json.dumps(row(ts=1)), "\t",
                                   json.dumps(row(ts=2, outcome=2))]) + "\n")
        with pytest.raises(LogParseError, match=r"^line 6: outcome must be 0 or 1, got 2$"):
            read_log(path)

    @pytest.fixture
    def per_line_chunks(self, monkeypatch):
        """Lists the (first line number, lines) of each block that goes
        through the per-line loop."""
        calls, per_line = [], ingest._read_lines

        def spy(lines, lineno, codes, type_of):
            calls.append((lineno, len(lines)))
            return per_line(lines, lineno, codes, type_of)
        monkeypatch.setattr(ingest, "_read_lines", spy)
        return calls

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Lists the (first line number, bytes) of each block, as read, that
        the byte proof proves, numbering lines by the proof's own counts of
        line ends: the numbers hold while every block is proved."""
        seen, prove, lineno = [], ingest._array_text, [1]

        def spy(block):
            found = prove(block)
            if found:
                seen.append((lineno[0], block))
                lineno[0] += found[2]
            return found
        monkeypatch.setattr(ingest, "_array_text", spy)
        return seen

    def test_valid_log_over_several_chunks_skips_the_per_line_loop(self, tmp_path, monkeypatch,
                                                                   per_line_chunks, blocks):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"".join(
            (json.dumps(row(uid=f"u{t % 3}", utype=t % 3 + 1, ts=-t, outcome=t % 2))
             + ("\r\n\n" if t % 4 else " \r")).encode() for t in range(13)))
        log = read_log(path)
        assert len(log) == 13 and per_line_chunks == [] and len(blocks) > 4
        assert_same_log(log, read_log_oracle(path))

    def test_array_of_non_objects_goes_through_the_per_line_loop(self, tmp_path, monkeypatch,
                                                                  per_line_chunks):
        """An array text with one element per line is no proof of the
        block's rows unless every element is an object."""
        path = tmp_path / "log.jsonl"
        write_log(path, [row(uid=f"u{t % 3}", utype=t % 3 + 1, ts=t, outcome=t % 2)
                         for t in range(5)])
        want, prove = read_log(path), ingest._array_text

        def numbers(block):
            _, n, ends = prove(block)
            return "[" + ", ".join(["1"] * n) + "]", n, ends
        monkeypatch.setattr(ingest, "_array_text", numbers)
        assert_same_log(read_log(path), want)
        assert per_line_chunks == [(1, 5)]

    @pytest.mark.parametrize("chunk", [1, 2, 4])
    def test_guard_miss_sends_only_its_own_chunk_through_the_per_line_loop(
            self, tmp_path, monkeypatch, per_line_chunks, chunk):
        # 13 lines in blocks of 4 starting at lines 1, 5, 9 and 13
        brace = 4 * (chunk - 1) + 1
        rows = [row(uid="a{b" if t == brace else f"u{t % 3}", ts=-t, outcome=t % 2)
                for t in range(1, 14)]
        block_lines(monkeypatch, [json.dumps(r) for r in rows], 4)
        write_log(tmp_path / "log.jsonl", rows)
        log = read_log(tmp_path / "log.jsonl")
        assert per_line_chunks == [(brace, 4 if chunk < 4 else 1)]
        assert "a{b" in log.users
        assert_same_log(log, read_log_oracle(tmp_path / "log.jsonl"))

    @pytest.mark.parametrize("change", [3, 6])
    def test_type_change_beats_a_malformed_line_in_a_later_chunk(self, tmp_path, monkeypatch,
                                                                  per_line_chunks, change):
        rows = [json.dumps(row(uid="u1" if t in (1, change) else f"v{t}",
                               utype=2 if t == change else 1, ts=t)) for t in range(1, 13)]
        rows[9] = "not json".ljust(len(rows[9]))  # line 10, in the third block
        block_lines(monkeypatch, rows, 4)
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(LogParseError,
                           match=rf"^line {change}: user 'u1' changes type from 1 to 2$"):
            read_log(path)
        assert per_line_chunks == [(change - (change - 1) % 4, 4)]

    @pytest.mark.parametrize("first_chunk", [False, True])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, monkeypatch, per_line_chunks,
                                                   first_chunk):
        # blocks of 2 lines, the blank line and the bad one in the first or the third
        skip = 0 if first_chunk else 4
        lines = [json.dumps(row(ts=t)).encode() for t in range(skip)]
        bad = json.dumps(row(uid="u?", ts=10)).encode().replace(b"?", b"\xff")
        block_lines(monkeypatch, lines + [b"", bad], 2)
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines) + b"\n" + bad)
        with pytest.raises(LogParseError,
                           match=rf"^line {skip + 2}: byte 0xff is not valid UTF-8$"):
            read_log(path)
        assert per_line_chunks == [(skip + 1, 2)]

    def test_earlier_error_comes_before_a_later_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"not json\n\xff\n")
        with pytest.raises(LogParseError, match=r"^line 1: invalid JSON"):
            read_log(path)

    def test_encoded_surrogate_is_a_byte_that_is_not_utf8(self, tmp_path):
        # the three bytes of U+DCFF, which a surrogatepass decode would accept
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"".join(json.dumps(row(uid=uid, ts=t)).encode() + b"\n" for t, uid
                                  in enumerate(["u1", "u?", "u2"])).replace(b"?", b"\xed\xb3\xbf"))
        with pytest.raises(LogParseError, match=r"^line 2: byte 0xed is not valid UTF-8$"):
            read_log(path)

    def test_escaped_surrogate_in_a_user_id_still_reads(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [row(uid="u\udcff")])
        assert read_log(path).users == ("u\udcff",)

    def test_line_straddling_two_blocks_is_completed_by_its_block(self, tmp_path, monkeypatch,
                                                                  per_line_chunks, blocks):
        lines = [json.dumps(row(uid=f"u{t % 2}", ts=t)).encode() + b"\n" for t in range(5)]
        # each read ends 5 bytes into the next line, which the next block starts with
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", len(lines[0]) + 5)
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"".join(lines))
        assert_same_log(read_log(path), read_log_oracle(path))
        assert blocks == [(1 + t, line) for t, line in enumerate(lines)]
        assert per_line_chunks == []

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"])
    def test_crlf_and_lone_cr_line_ends_take_the_byte_guard(self, tmp_path, monkeypatch,
                                                             per_line_chunks, blocks, end):
        lines = [json.dumps(row(uid=f"u{t % 2}", ts=t)).encode() for t in range(5)]
        # a read ends just past the first CR
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", len(lines[0]) + 1)
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"".join(line + end for line in lines))
        assert_same_log(read_log(path), read_log_oracle(path))
        # the CR that ends each read is carried into the next, whose first
        # byte shows a CRLF or a lone CR, so each block is one line
        assert blocks == [(1 + t, line + end) for t, line in enumerate(lines)]
        assert per_line_chunks == []
        # and every line keeps its number
        path.write_bytes(b"".join(line + end for line in lines[:3]) + b"{}" + end)
        with pytest.raises(LogParseError, match=r"^line 4: missing field 'user_id'$"):
            read_log(path)

    def test_lone_cr_log_is_read_in_blocks_of_whole_lines(self, tmp_path, monkeypatch,
                                                          per_line_chunks, blocks):
        # a log with no LF is cut at its CRs, each read ending a byte into its third line
        lines = [json.dumps(row(uid=f"u{t % 3}", utype=t % 3 + 1, ts=t)).encode()
                 for t in range(9)]
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 2 * (len(lines[0]) + 1) + 1)
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"".join(line + b"\r" for line in lines))
        assert_same_log(read_log(path), read_log_oracle(path))
        assert blocks == [(1 + t, b"".join(line + b"\r" for line in lines[t:t + 2]))
                          for t in range(0, 9, 2)]
        assert per_line_chunks == []

    def test_crlf_whose_cr_ends_a_block_is_one_line_end(self, tmp_path, monkeypatch,
                                                        per_line_chunks):
        lines = [json.dumps(row(ts=t)).encode() for t in range(4)]
        # reads end at the CRs of lines 3 and 5, so blocks hold lines 1-2, 3-4
        # and 5, and the CR of line 3 is carried to the block it ends
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 2 * len(lines[0]) + 7)
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"\r\n".join(lines[:2] + [b"[]"] + lines[2:]) + b"\r\n")
        with pytest.raises(LogParseError, match=r"^line 3: expected a JSON object$"):
            read_log(path)
        assert per_line_chunks == [(3, 2)]

    @pytest.mark.parametrize("last", [json.dumps(row(ts=9)), '{"user_id": "u', '{"user_id": "u1"'])
    def test_last_line_without_a_newline_reads_as_the_oracle_does(self, tmp_path, monkeypatch,
                                                                   last):
        # an unterminated string ends at the end of the file, not at a newline
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 100)
        path = tmp_path / "log.jsonl"
        path.write_text("".join(json.dumps(row(ts=t)) + "\n" for t in range(3)) + last)
        want = assert_reads_like_oracle(path)
        if last.endswith("}"):
            assert len(want) == 4
        else:
            assert want.startswith("line 4: invalid JSON")

    # a read ends inside the id's 2-, 3- or 4-byte character
    @pytest.mark.parametrize("cut", [1, 6, 7, 9, 10, 11])
    def test_multi_byte_utf8_id_reads_in_the_byte_guard(self, tmp_path, monkeypatch,
                                                       per_line_chunks, blocks, cut):
        line = json.dumps(row(uid="\u00fcser\u30e6\U0001f600"), ensure_ascii=False).encode()
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", line.index(b"\xc3") + cut)
        path = tmp_path / "log.jsonl"
        path.write_bytes((line + b"\n") * 3)
        log = assert_reads_like_oracle(path)
        assert log.users == ("\u00fcser\u30e6\U0001f600",)
        assert per_line_chunks == []
        assert b"".join(block for _, block in blocks) == path.read_bytes()

    @pytest.mark.parametrize("size", [None, 256])
    @pytest.mark.parametrize("lines, end", [
        ([pad + json.dumps(row(uid=f"u{t % 3}", ts=t)) + pad[::-1]
          for t, pad in enumerate([" ", "\t", " \t", "\t\t "] * 3)], "\n"),
        (["", " \t"] + [json.dumps(row(ts=t)) for t in range(4)] + ["", " \t", ""]
         + [json.dumps(row(ts=t)) for t in range(4, 8)] + [" \t", ""], "\n"),
        ([json.dumps(row(uid=f"u{t % 2}", ts=t)) for t in range(10)], " \r\n"),
        ([json.dumps(row(ts=t)) for t in range(3)]
         + [" \t" * 300 + json.dumps(row(ts=3)) + "\t " * 300]
         + [json.dumps(row(ts=t)) for t in range(4, 7)], "\n"),
    ], ids=["padded", "blank", "space-crlf", "padding-past-a-block"])
    def test_padded_and_blank_lines_take_the_byte_proof(self, tmp_path, monkeypatch,
                                                        per_line_chunks, blocks, lines, end,
                                                        size):
        # the whole file as one block, or blocks of a few lines
        if size:
            monkeypatch.setattr(ingest, "_BLOCK_BYTES", size)
        data = "".join(line + end for line in lines).encode()
        path = tmp_path / "log.jsonl"
        path.write_bytes(data)
        log = assert_reads_like_oracle(path)
        assert len(log) == sum(map(bool, map(str.strip, lines)))
        assert per_line_chunks == [] and b"".join(block for _, block in blocks) == data
        if size is None:
            assert blocks == [(1, data)]
        else:
            assert max(block.count(end.encode()) for _, block in blocks) > 1

    @pytest.mark.parametrize("pad", ["\x0c", "\u00a0"])
    @pytest.mark.parametrize("alone", [True, False])
    def test_padding_that_is_not_json_whitespace_takes_the_per_line_loop_of_its_block(
            self, tmp_path, monkeypatch, per_line_chunks, pad, alone):
        # str.strip takes these for whitespace and JSON does not: alone on its
        # line the pad is a blank line, around an object it is invalid JSON
        lines = [json.dumps(row(uid=f"u{t % 3}", utype=t % 3 + 1, ts=t)) for t in range(9)]
        lines[4] = pad if alone else pad + lines[4] + pad
        block_lines(monkeypatch, lines, 3)
        path = tmp_path / "log.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        want = assert_reads_like_oracle(path)
        assert (len(want) == 8) if alone else want.startswith("line 5: invalid JSON")
        assert per_line_chunks == [(4, 3)]


class TestFromRows:
    """`SendLog.from_codes`, given ids coded in first-seen order by
    `log_from_rows` or codes of its caller's own, orders rows as the
    oracle's one lexsort by user rank and timestamp does, equal keys
    keeping their input order."""

    @staticmethod
    def assert_like_oracle(columns):
        assert_same_log(log_from_rows(*columns), from_rows_oracle(*columns))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_shuffled_rows_with_tied_and_negative_timestamps(self, data):
        keys = data.draw(st.lists(st.tuples(
            st.sampled_from(["a", "b", "b\0", "c"]),
            st.integers(-3, 3) | st.sampled_from([-2 ** 63, 2 ** 63 - 1])), max_size=40))
        keys = data.draw(st.permutations(keys))
        # each row's score is its input position, so a tie's order shows in the bytes
        self.assert_like_oracle(([uid for uid, _ in keys], [len(uid) for uid, _ in keys],
                                 [ts for _, ts in keys], [i / 64 for i in range(len(keys))],
                                 [i % 2 for i in range(len(keys))]))

    @pytest.mark.parametrize("users, key", [(200, np.uint8), (70_000, np.uint32)])
    def test_user_key_wider_than_a_radix_pass(self, users, key):
        # 70,000 ranks need more than 16 bits, where numpy's stable sort is
        # no longer a radix sort
        assert np.min_scalar_type(users) == key
        rng = np.random.default_rng(users)
        n = 2 * users
        ids = rng.permutation(np.arange(n) % users)
        self.assert_like_oracle(([f"u{i}" for i in ids.tolist()], [1] * n,
                                 rng.integers(-5, 5, n), np.arange(n) / n, [1] * n))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_codes_constructor_on_shuffled_rows(self, data):
        # code c is ids[c]; codes no row holds name no user
        ids = data.draw(st.permutations(["a", "b", "b\0", "c", "u9999999", "u10000000"]))
        keys = data.draw(st.lists(st.tuples(
            st.integers(0, len(ids) - 1),
            st.integers(-3, 3) | st.sampled_from([-2 ** 63, 2 ** 63 - 1])), max_size=40))
        code, stamps = [c for c, _ in keys], [ts for _, ts in keys]
        columns = ([len(ids[c]) for c in code], stamps, [i / 64 for i in range(len(keys))],
                   [i % 2 for i in range(len(keys))])
        assert_same_log(SendLog.from_codes(ids, code, *columns),
                        from_rows_oracle([ids[c] for c in code], *columns))

    def test_user_indices_as_codes_whose_ids_sort_out_of_code_order(self):
        # as the simulator calls it: codes are user indices, and the columns
        # are numpy arrays, outcomes a bool mask; u10000000 sorts before u9999999
        ids = ["u9999999", "u10000000", "u0000005", "u0000006"]
        code = np.array([0, 1, 2, 1, 0, 2, 0])
        columns = (np.array([3, 1, 2, 1, 3, 2, 3]), np.array([5, 4, 4, 4, 4, 0, 4]),
                   np.arange(7) / 8, np.array([1, 0, 0, 1, 1, 0, 1], dtype=bool))
        log = SendLog.from_codes(ids, code, *columns)
        assert log.users == ("u0000005", "u10000000", "u9999999")
        assert log.timestamp.tolist() == [0, 4, 4, 4, 4, 4, 5]
        assert_same_log(log, from_rows_oracle([ids[c] for c in code.tolist()], *columns))


EDGE_FIELDS = [("uid", ""), ("uid", 7), ("utype", True), ("utype", 1.0), ("utype", 7),
               ("ts", 1.0), ("ts", True), ("ts", 2 ** 63), ("ts", -2 ** 63 - 1),
               ("ts", 2 ** 63 - 1), ("ts", -2 ** 63), ("score", True), ("score", "0.5"),
               ("score", float("nan")), ("score", 1.5), ("score", 1), ("score", 10 ** 400),
               ("outcome", True), ("outcome", 2), ("outcome", 0.5), ("outcome", None),
               ("outcome", 1.0), ("outcome", -0.0)]


EDGE_NAMES = {2 ** 63: "2**63", 2 ** 63 - 1: "2**63-1", -2 ** 63: "-2**63",
              -2 ** 63 - 1: "-2**63-1", 10 ** 400: "10**400"}


@pytest.mark.parametrize("field, value", EDGE_FIELDS,
                         ids=[f"{f}={EDGE_NAMES.get(v, repr(v))}" for f, v in EDGE_FIELDS])
def test_each_field_rule_matches_per_line_oracle(tmp_path, field, value):
    """One row at or past a field's rule, amid valid rows of one chunk."""
    path = tmp_path / "log.jsonl"
    write_log(path, [row(ts=t) for t in range(5)] + [row(**{field: value})] + [row(ts=9)])
    want = assert_reads_like_oracle(path)
    assert not isinstance(want, str) or want.startswith("line 6: ")


ROW_LINE = st.builds(lambda user, ts, score, outcome: json.dumps(row(*user, ts, score, outcome)),
                     st.sampled_from([("a", 1), ("b", 2), ("c", 3)]), st.integers(-3, 3),
                     st.sampled_from([0.0, 0.25, 1, 1.0]), st.sampled_from([0, 1]))
ADVERSARIAL_LINE = st.one_of(
    # blank, and whitespace only to str.strip but not to JSON
    st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\x1c", "\u00a0", "\u2028"]),
    # whitespace around an object, in and out of JSON's own
    st.sampled_from([" ", "\t", "\u00a0", "\x0c"]).map(lambda w: w + json.dumps(row()) + w),
    # braces and spaces inside a user_id
    st.sampled_from(["a{b", "}", "a b", "{}", "{"]).map(lambda u: json.dumps(row(uid=u))),
    # extra fields, nested or not
    st.sampled_from([{"x": [0, 1]}, {"extra": {"k": [1, {"z": 2}]}}, {"e": "}{"}]).map(
        lambda extra: json.dumps({**row(), **extra})),
    # an object split across lines, and two objects on one line
    st.integers(1, 60).map(lambda k: json.dumps(row())[:k] + "\n" + json.dumps(row())[k:]),
    st.just(json.dumps(row())[:-1] + ', "x": [0\n1]}'),
    st.sampled_from([", ", " ", ""]).map(lambda sep: json.dumps(row()) + sep + json.dumps(row())),
    # values at and past the checks' edges
    st.sampled_from(EDGE_FIELDS).map(lambda edge: json.dumps(row(**dict([edge])))),
    # a user whose type changes, a non-object, a missing field
    st.sampled_from([json.dumps(row(uid="a", utype=4)), "[]", '"{}"', "{}"]),
    # bytes that are not UTF-8
    st.sampled_from([b"\xff", b'{"user_id": "\xe2"}', b"\xc3",
                     json.dumps(row(uid="u?")).encode().replace(b"?", b"\xed\xb3\xbf")]),
    # past the decoder's limits: an int of 5000 digits, a field nested 100k deep
    st.sampled_from(["9" * 5000, "[" * 100_000 + "]" * 100_000]).map(
        lambda value: json.dumps(row())[:-1] + ', "x": ' + value + "}"),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_read_log_matches_per_line_oracle(tmp_path_factory, data):
    """read_log and the per-line oracle give equal logs or equal errors on
    files that mix valid rows with lines each path could get wrong; the
    block is at most a few rows, so every file of more spans several."""
    lines = data.draw(st.lists(ROW_LINE, max_size=16))
    for line in data.draw(st.lists(ADVERSARIAL_LINE, max_size=3)):
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    ends = data.draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]),
                              min_size=len(lines), max_size=len(lines)))
    body = b"".join((line if isinstance(line, bytes) else line.encode()) + end
                    for line, end in zip(lines, ends))
    if lines and data.draw(st.booleans()):
        body = body.rstrip(b"\r\n")
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    path.write_bytes(body)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK_BYTES", data.draw(st.integers(1, 512)))
        assert_reads_like_oracle(path)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_type_change_matches_per_line_oracle(tmp_path_factory, data):
    """A row of user `a` with type 4 after one with type 1 is the same error
    from read_log and the oracle, whether the two rows share a block or not."""
    lines = data.draw(st.lists(ROW_LINE, max_size=16))
    lines.insert(data.draw(st.integers(0, len(lines))),
                 data.draw(ROW_LINE.filter(lambda line: json.loads(line)["user_id"] == "a")))
    first = next(i for i, line in enumerate(lines) if json.loads(line)["user_id"] == "a")
    at = data.draw(st.integers(first + 1, len(lines)))
    lines.insert(at, json.dumps(row(uid="a", utype=4)))
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    path.write_text("".join(line + "\n" for line in lines))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK_BYTES", data.draw(st.integers(1, 512)))
        assert assert_reads_like_oracle(path) == (
            f"line {at + 1}: user 'a' changes type from 1 to 4")


class TestSplitHalves:
    @pytest.mark.parametrize("n,expected", [(10, (5, 5)), (7, (3, 4)), (0, (0, 0)), (1, (0, 1))])
    def test_floor_split_sizes(self, n, expected):
        log = one_user_log([1] * n)
        records = build_dataset(log, min_samples=1)
        # the second half becomes the records; an empty first half excludes the user
        first, second = expected
        assert len(records) == (second if first >= 1 else 0)
        if first >= 1:
            assert records.raw_score.tolist() == log.raw_score[first:].tolist()

    @given(st.integers(0, 50))
    def test_lossless(self, n):
        # a first half of k sends with one open has baseline 1 / k
        log = one_user_log([1] + [0] * (n - 1) if n else [])
        records = build_dataset(log, min_samples=1)
        if n < 2:  # an empty first half excludes the user
            assert len(records) == 0
            return
        first = round(1 / records.baseline_rate[0])
        assert first + len(records) == n
        assert records.raw_score.tolist() == log.raw_score[first:].tolist()


class TestEstimateBaseline:
    def test_alternating_outcomes_give_half(self):
        records = build_dataset(one_user_log([i % 2 for i in range(20)]), min_samples=10)
        assert len(records) == 10
        assert records.baseline_rate.tolist() == [0.5] * 10

    def test_too_few_events_excluded(self):
        assert len(build_dataset(one_user_log([1] * 8), min_samples=10)) == 0

    def test_all_opens_give_one(self):
        records = build_dataset(one_user_log([1] * 20), min_samples=10)
        assert records.baseline_rate.tolist() == [1.0] * 10

    def test_min_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            build_dataset(one_user_log([]), min_samples=0)


class TestFlatten:
    def test_streaks_replay_outcomes(self):
        records = build_dataset(one_user_log([1, 0, 1, 0] + [1, 1, 0, 1]), min_samples=1)
        assert records.streak.tolist() == [0, 1, 2, -1]
        assert records.outcome.tolist() == [1, 1, 0, 1]
        assert records.baseline_rate.tolist() == [0.5] * 4

    def test_empty_input(self):
        assert len(build_dataset(one_user_log([]), min_samples=1)) == 0

    def test_two_ignores(self):
        records = build_dataset(one_user_log([1, 1, 0, 0]), min_samples=1)
        assert records.streak.tolist() == [0, -1]

    def test_excluded_baseline_rejected(self):
        log = log_from_rows(["a"] * 2 + ["b"] * 6, [1] * 8, [0, 1] + list(range(6)),
                            [0.5] * 8, [1] * 8)
        records = build_dataset(log, min_samples=2)
        assert log.users == ("a", "b")
        assert records.user.tolist() == [1] * 3  # user "a" contributes no records

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    def test_record_count_and_open_rate_cross_check(self, outcomes):
        records = build_dataset(one_user_log([0] * len(outcomes) + outcomes), min_samples=1)
        assert len(records) == len(outcomes)
        assert records.outcome.sum() / len(records) == \
            sum(outcomes) / len(outcomes)


def test_build_dataset_skips_excluded_users(tmp_path):
    path = tmp_path / "log.jsonl"
    rows = []
    # u1: 20 events -> first half 10 >= min_samples; u2: 4 events -> excluded
    for i in range(20):
        rows.append(row(uid="u1", ts=i, outcome=i % 2))
    for i in range(4):
        rows.append(row(uid="u2", ts=i))
    write_log(path, rows)
    log = read_log(path)
    records = build_dataset(log, min_samples=10)
    assert {log.users[u] for u in records.user.tolist()} == {"u1"}
    assert len(records) == 10  # u1's second half


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_columnar_dataset_matches_per_user_oracle(tmp_path_factory, data):
    """Every record column equals the per-user split, baseline and replay of
    the scalar oracle. Logs hold excluded users, odd send counts, equal
    timestamps within a user, runs long enough to reach both streak bounds,
    and only some of the user types."""
    lo = -data.draw(st.integers(1, 3))
    hi = data.draw(st.integers(1, 3))
    min_samples = data.draw(st.integers(1, 4))
    types = data.draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6]), min_size=1, max_size=3,
                               unique=True))
    rows = []
    for u in range(data.draw(st.integers(1, 8))):
        uid, utype = f"user{data.draw(st.integers(0, 99))}", data.draw(st.sampled_from(types))
        if any(r["user_id"] == uid for r in rows):
            continue
        n = data.draw(st.integers(0, 30))
        outcomes = data.draw(st.lists(st.sampled_from([0, 0, 1, 1, 1]), min_size=n, max_size=n))
        stamps = data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
        rows += [row(uid=uid, utype=utype, ts=t, score=data.draw(st.floats(0, 1)), outcome=o)
                 for t, o in zip(stamps, outcomes)]
    order = data.draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    write_log(path, rows)

    log = read_log(path)
    got = build_dataset(log, min_samples=min_samples, bounds=(lo, hi))
    want = build_dataset_oracle(rows, min_samples=min_samples, bounds=(lo, hi))
    assert [log.users[u] for u in got.user.tolist()] == [r[0] for r in want]
    for i, column in enumerate(("user_type", "streak", "outcome", "baseline_rate",
                                "raw_score"), start=1):
        assert getattr(got, column).tolist() == [r[i] for r in want], column


def test_columnar_dataset_oracle_cases_cover_the_edges():
    """The random logs of the differential test reach what it claims: a fixed
    log with every edge case matches the oracle too."""
    rows = ([row(uid="long", utype=2, ts=t // 2, outcome=o, score=0.01 * t)
             for t, o in enumerate([1, 0] * 5 + [1] * 6 + [0] * 6 + [1])]
            + [row(uid="short", utype=4, ts=t) for t in range(3)]
            + [row(uid="odd", utype=2, ts=5, outcome=t % 2, score=0.5) for t in range(7)]
            # adjacent users: the first's second half ends in opens and the
            # next's begins with them, so a run must not carry across users
            + [row(uid="opens_a", utype=2, ts=t, outcome=o)
               for t, o in enumerate([0] * 5 + [1] * 3)]
            + [row(uid="opens_b", utype=2, ts=t, outcome=o) for t, o in enumerate([0, 0, 1, 1, 1])]
            # a second half of one send, kept at min_samples 1 only
            + [row(uid="single", utype=2, ts=t) for t in range(2)])
    log = log_from_rows(*zip(*[(r["user_id"], r["user_type"], r["timestamp"],
                                r["raw_score"], r["outcome"]) for r in rows]))
    records = {m: build_dataset(log, min_samples=m, bounds=(-3, 3)) for m in (1, 2)}
    for min_samples, got in records.items():
        want = build_dataset_oracle(rows, min_samples=min_samples, bounds=(-3, 3))
        assert [log.users[u] for u in got.user.tolist()] == [r[0] for r in want]
        assert got.streak.tolist() == [r[2] for r in want]
        assert got.baseline_rate.tolist() == [r[4] for r in want]
    users = [log.users[u] for u in records[1].user.tolist()]
    assert users.count("single") == 1 and users.count("opens_b") == 3
    got = records[2]
    assert {3, -3} <= set(got.streak.tolist())  # both bounds reached
    assert "short" not in {log.users[u] for u in got.user.tolist()}
    assert np.isin(got.user_type, [2]).all()
