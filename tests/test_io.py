import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from netcent import (DirectedGraph, EmptyInput, InteractionRecord, Interactions,
                     InvalidParameter, ParseError, ScoreVector, build_graph,
                     from_edges, preferential_attachment, top_k)
from netcent import cells
from netcent import io as ncio
from netcent.io import EDGE_COLUMNS, INTERACTION_COLUMNS
from netcent.cli import main


def table(rows):
    """(actor, target, weight) per row, from the columns."""
    labels = rows.labels
    return [(labels[a], labels[t], w)
            for a, t, w in zip(rows.actor, rows.target, rows.weight)]


def read_text(tmp_path, text):
    p = tmp_path / "i.csv"
    p.write_bytes(text.encode())
    return ncio.read_interactions_csv(p)


def test_interactions_csv_optional_columns(tmp_path):
    p = tmp_path / "i.csv"
    p.write_text("actor,target\nu1,u2\n# comment\nu2,u3\n\n")
    rows = ncio.read_interactions_csv(p)
    assert len(rows) == 2
    assert table(rows) == [("u1", "u2", 1.0), ("u2", "u3", 1.0)]


def test_interactions_csv_full_columns(tmp_path):
    p = tmp_path / "i.csv"
    p.write_text("actor,target,kind,timestamp,weight\n"
                 "a,b,RETWEET,1600000000,2.5\n"
                 "b,c,oddkind,,\n")
    assert table(ncio.read_interactions_csv(p)) == [("a", "b", 2.5),
                                                    ("b", "c", 1.0)]


# -- per-line parsing: each case pins the result of the csv-per-line reader

def test_unbalanced_quote_leaves_next_line_its_own_row(tmp_path):
    rows = read_text(tmp_path, 'actor,target\na,"b\nc,d\n')
    assert table(rows) == [("a", "b", 1.0), ("c", "d", 1.0)]


def test_quoted_field_keeps_its_comma(tmp_path):
    rows = read_text(tmp_path, 'actor,target,kind\n"x,y",z,reply\nz,"x,y"\n')
    assert table(rows) == [("x,y", "z", 1.0), ("z", "x,y", 1.0)]


def test_quote_inside_unquoted_field_is_literal(tmp_path):
    rows = read_text(tmp_path, 'actor,target\nx"y,z\n')
    assert table(rows) == [('x"y', "z", 1.0)]


@pytest.mark.parametrize("eol", ["\r\n", "\r"])
def test_crlf_and_cr_line_endings(tmp_path, eol):
    text = eol.join(["actor,target,kind,timestamp,weight",
                     "a,b,mention,5,2", "b,c", ""])
    assert table(read_text(tmp_path, text)) == [("a", "b", 2.0), ("b", "c", 1.0)]


def test_blank_and_comment_lines_skipped(tmp_path):
    rows = read_text(tmp_path, "actor,target\n\n# c\n   \n  # indented\n"
                               "a,b\n\n#x,y\nb,a\n")
    assert table(rows) == [("a", "b", 1.0), ("b", "a", 1.0)]


def test_short_rows_lack_optional_columns(tmp_path):
    rows = read_text(tmp_path, "actor,target,kind,timestamp,weight\n"
                               "a,b\nb,c,share\nc,a,reply,7\n")
    assert table(rows) == [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)]


def test_row_with_too_many_fields_names_line(tmp_path):
    with pytest.raises(ParseError) as exc:
        read_text(tmp_path, "actor,target\n# c\na,b,c\n")
    assert exc.value.line == 3


# -- weights: finite and positive, errors name the file line

BAD_WEIGHTS = ["nan", "inf", "-1", "0"]


@pytest.mark.parametrize("weight", BAD_WEIGHTS)
def test_interactions_csv_bad_weight_names_line(tmp_path, weight):
    with pytest.raises(ParseError) as exc:
        read_text(tmp_path, f"actor,target,weight\na,b,1\nb,c,{weight}\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("weight", BAD_WEIGHTS)
def test_edge_csv_bad_weight_names_line(tmp_path, weight):
    p = tmp_path / "e.csv"
    p.write_text(f"src,dst,weight\nx,y,1\ny,z,{weight}\n")
    with pytest.raises(ParseError) as exc:
        ncio.read_edge_csv(p)
    assert exc.value.line == 3


def test_weight_error_counts_file_lines_not_records(tmp_path):
    with pytest.raises(ParseError) as exc:
        read_text(tmp_path, "actor,target,kind,timestamp,weight\n"
                            "# exported 2020-01-01\n"
                            "a,b,retweet,1,1\n"
                            "b,c,retweet,2,0\n")
    assert exc.value.line == 4


@pytest.mark.parametrize("fmt,text", [
    ("interactions", "actor,target,weight\na,b,1\nb,c,nan\n"),
    ("edges", "src,dst,weight\na,b,1\nb,c,inf\n"),
])
def test_cli_run_rejects_non_finite_weight_with_exit_2(tmp_path, capsys, fmt, text):
    p = tmp_path / "in.csv"
    p.write_text(text)
    code = main(["run", "--input", str(p), "--format", fmt, "--pc-weighted",
                 "--metrics", "pc", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


# -- equivalence: streamed ingest == dict oracle == from_edges

LABELS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])
ROWS = st.lists(
    st.tuples(LABELS, LABELS, st.sampled_from(oracles.INTERACTION_KINDS),
              st.one_of(st.none(), st.integers(1, 8).map(lambda q: q / 4))),
    min_size=1, max_size=40)


@given(rows=ROWS, seed=st.randoms(use_true_random=False),
       convention=st.sampled_from(["info_flow", "endorsement"]))
@settings(max_examples=60, deadline=None)
def test_ingest_matches_dict_oracle_and_from_edges(tmp_path_factory, rows, seed,
                                                   convention):
    rows = rows + rows[: len(rows) // 2]     # guaranteed duplicates
    seed.shuffle(rows)
    lines = ["actor,target,kind,weight"] + [
        f"{a},{t},{k},{'' if w is None else w}" for a, t, k, w in rows]
    p = tmp_path_factory.mktemp("eq") / "i.csv"
    p.write_text("\n".join(lines) + "\n")
    g = build_graph(ncio.read_interactions_csv(p), convention)

    weighted = [(a, t, 1.0 if w is None else w) for a, t, _, w in rows]
    labels, edges, loops = oracles.interaction_graph(weighted, convention)
    src, dst, w = g.edge_arrays()
    assert g.labels == tuple(labels)
    assert {(g.labels[s], g.labels[d]): x for s, d, x in zip(src, dst, w)} == edges
    assert g.self_loops_dropped == loops

    oriented = [(t, a, x) if convention == "info_flow" else (a, t, x)
                for a, t, x in weighted]
    assert g == from_edges(oriented, direction=convention)


def test_interactions_csv_missing_actor_line_number(tmp_path):
    p = tmp_path / "i.csv"
    p.write_text("actor,target\na,b\n,b\n")
    with pytest.raises(ParseError) as exc:
        ncio.read_interactions_csv(p)
    assert exc.value.line == 3


def test_interactions_csv_missing_column(tmp_path):
    p = tmp_path / "i.csv"
    p.write_text("actor\na\n")
    with pytest.raises(ParseError):
        ncio.read_interactions_csv(p)


def _rows(read, path):
    """What a reader gives for ``path``, in a form == compares."""
    got = read(path)
    if isinstance(got, Interactions):
        return table(got)
    if isinstance(got, ScoreVector):
        return list(got.labels), got.scores.tolist()
    return got


@pytest.mark.parametrize("read,text", [
    (ncio.read_interactions_csv, "actor,target\na,b\nb,c\n"),
    (ncio.read_edge_csv, "src,dst\na,b\nb,c\n"),
    (ncio.read_scores_csv, "node_label,score\na,2.0\nb,1.0\n"),
    (ncio.read_attributes_csv, "node,retweet_count\na,2\nb,1\n"),
])
def test_byte_order_mark_before_the_header_is_skipped(tmp_path, read, text):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert _rows(read, marked) == _rows(read, plain)


def test_cli_reads_a_byte_order_marked_file(tmp_path, capsys):
    p = tmp_path / "i.csv"
    p.write_bytes(b"\xef\xbb\xbfactor,target\na,b\nb,c\n")
    assert main(["run", "--input", str(p), "--out", str(tmp_path / "out"),
                 "--metrics", "degree"]) == 0
    assert (tmp_path / "out" / "degree_total.scores.csv").read_text() \
        .splitlines()[1:] == ["b,2.0", "a,1.0", "c,1.0"]


@pytest.mark.parametrize("read,text,line", [
    (ncio.read_interactions_csv, "# a comment\nactor,Actor ,target\na,b,c\n",
     2),
    (ncio.read_edge_csv, "src,dst,SRC\na,b,c\n", 1),
    (ncio.read_scores_csv, "node_label,score,score\na,1.0,2.0\n", 1),
    (ncio.read_attributes_csv, "\nnode,retweet_count, retweet_count\na,1,2\n",
     2),
])
def test_repeated_header_name_fails_at_the_header(tmp_path, read, text, line):
    p = tmp_path / "in.csv"
    p.write_text(text)
    with pytest.raises(ParseError, match="column '[a-z_]+' repeats") as exc:
        read(p)
    assert exc.value.line == line


def test_cli_rejects_a_repeated_header_name_with_exit_2(tmp_path, capsys):
    p = tmp_path / "i.csv"
    p.write_text("actor,actor,target\na,b,c\n")
    assert main(["run", "--input", str(p), "--out",
                 str(tmp_path / "out")]) == 2
    assert "line 1: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_blank_header_names_may_repeat(tmp_path):
    assert table(read_text(tmp_path, "actor,target,,\na,b,,\n")) \
        == [("a", "b", 1.0)]


def test_interactions_csv_empty(tmp_path):
    p = tmp_path / "i.csv"
    p.write_text("actor,target\n# nothing\n")
    with pytest.raises(EmptyInput):
        ncio.read_interactions_csv(p)


def test_edge_csv_round_trip(tmp_path):
    g = from_edges([("b", "a", 2.0), ("a", "c", 0.125), ("b", "c", 1.0)])
    path = tmp_path / "edges.csv"
    ncio.write_edge_csv(g, path)
    back = ncio.read_edge_csv(path)
    assert back == g
    # rows sorted by (src, dst), full precision
    lines = path.read_text().splitlines()
    assert lines[0] == "src,dst,weight"
    assert lines[1].startswith("a,c,0.125")


def test_edge_csv_default_weight(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("src,dst\nx,y\n")
    g = ncio.read_edge_csv(p)
    assert g.num_edges == 1 and g.edge_arrays()[2][0] == 1.0


def test_scores_csv_round_trip_and_order(tmp_path):
    sv = ScoreVector("pc", ("a", "b", "c"), np.array([0.25, 0.5, 0.25]))
    path = tmp_path / "pc.scores.csv"
    ncio.write_scores_csv(sv, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_label,score"
    # descending score, ties by ascending label
    assert [ln.split(",")[0] for ln in lines[1:]] == ["b", "a", "c"]
    back = ncio.read_scores_csv(path)
    assert back.metric == "pc"
    assert dict(zip(back.labels, back.scores)) == {"a": 0.25, "b": 0.5, "c": 0.25}


def test_attributes_csv(tmp_path):
    p = tmp_path / "attrs.csv"
    p.write_text("node,vulnerability_0,retweet_count\na,0.5,10\nb,,3\nc,0.25,\n")
    cols = ncio.read_attributes_csv(p)
    assert cols["vulnerability_0"] == {"a": 0.5, "c": 0.25}
    assert cols["retweet_count"] == {"a": 10.0, "b": 3.0}


def test_attributes_csv_bad_number(tmp_path):
    p = tmp_path / "attrs.csv"
    p.write_text("node,vulnerability_0\na,not-a-number\n")
    with pytest.raises(ParseError) as exc:
        ncio.read_attributes_csv(p)
    assert exc.value.line == 2


# line 2 lacks an actor, but the byte 0xff on line 3 is found first
BAD_UTF8 = b"actor,target\n,b\nc,\xff\n"


@pytest.mark.parametrize("data,line", [
    (BAD_UTF8, 3),
    (BAD_UTF8.replace(b"\n", b"\r\n"), 3),
    (BAD_UTF8.replace(b"\n", b"\r"), 3),
    (b"actor,target\na,b\r\rc,d\xe2\x82\n", 4),
    # a later block, with a header and rows both readers accept
    (b"node,actor,target\n" + b"".join(b"%05d,2,3\n" % i for i in range(20000))
     + b"\xc3(,2,3\n", 20002),
], ids=["lf", "crlf", "cr", "cut-short", "later-block"])
@pytest.mark.parametrize("read", [ncio.read_interactions_csv,
                                  ncio.read_attributes_csv])
def test_bad_utf8_names_the_line_of_the_byte(tmp_path, data, line, read):
    p = tmp_path / "bad.csv"
    p.write_bytes(data)
    with pytest.raises(ParseError, match="not valid UTF-8") as exc:
        read(p)
    assert exc.value.line == line


@pytest.mark.parametrize("read", [ncio.read_interactions_csv,
                                  ncio.read_attributes_csv])
def test_fault_in_the_block_before_the_bad_byte_is_found_first(tmp_path, read):
    # the first read holds the bad byte, but the first block ends at the
    # line end before it, so that block's fault on the line before counts
    head = b"node,actor,target\n"
    rows = b"".join(b"%05d,2,3\n" % i
                    for i in range((ncio.BLOCK_CHARS - len(head)) // 10 - 1))
    data = head + rows + b",,3\n" + b"\xff" + b"0" * 11 + b",2,3\n"
    assert data.index(b"\xff") < ncio.BLOCK_CHARS < len(data)
    p = tmp_path / "bad.csv"
    p.write_bytes(data)
    with pytest.raises(ParseError, match="missing") as exc:
        read(p)
    assert exc.value.line == data.count(b"\n", 0, data.index(b"\xff"))


def test_cli_rejects_bad_utf8_with_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_bytes(BAD_UTF8)
    assert main(["ingest", "--input", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.json"
    ncio.write_atomic(target, "one")
    ncio.write_atomic(target, "two")
    assert target.read_text() == "two"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def _attributes_argv(tmp_path, text):
    attrs = tmp_path / "attrs.csv"
    attrs.write_text(text)
    scores = tmp_path / "pc.scores.csv"
    scores.write_text("node_label,score\nu1,1.0\n")
    return (lambda: ncio.read_attributes_csv(attrs),
            ("correlate", "--scores", scores, "--attributes", attrs,
             "--proxy", "retweet_count"))


# each case fails a check of the io module: (make the call and, where a
# command line reaches the check, its argv; the error, a part of its
# message, its line, the exit code)
IO_CHECKS = {
    "attributes of comments only": (
        lambda tmp: _attributes_argv(tmp, "# only\n\n# comments\n"),
        EmptyInput, "no header row", None, 2),
    "attributes not keyed by node": (
        lambda tmp: _attributes_argv(tmp, "# ids\nlabel,retweet_count\nu1,3\n"),
        ParseError, "first column must be 'node'", 2, 2),
    # the write fails after the temp file is made
    "write that raises": (
        lambda tmp: (lambda: ncio.write_atomic(tmp / "out" / "x.json", None),
                     None),
        TypeError, "must be str", None, None),
}


@pytest.mark.parametrize("case", sorted(IO_CHECKS))
def test_io_input_checks(tmp_path, capsys, case):
    make, error, message, line, code = IO_CHECKS[case]
    call, argv = make(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert getattr(info.value, "line", None) == line
    # a failed write leaves no temp file behind
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == \
        [p for p in before if p.is_file()]
    if argv:
        assert main([str(a) for a in argv]) == code
        assert message in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, netcent.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_process_pools_unloaded():
    # workers are forked by hand: a pool module costs 20-30 ms to import
    code = ("import sys, netcent.cli; print([m for m in sys.modules if "
            "m.split('.')[0] in ('multiprocessing', 'concurrent')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- block-wise ingest == the per-line readers it replaced (tests/oracles.py)

# cells a clean block may hold, which ingest parses as bytes: prefix pairs,
# labels either side of the 8-byte word, multi-byte UTF-8, and digit-only
# numbers either side of the 15 digits the byte path converts itself
CLEAN_LABEL_CELLS = ["a", "ab", "a\0", "b", "c", "dd", "é", "日本", "日本語",
                     "abcdefgh", "abcdefghi", "abcdefghijklmnopqrs", ""]
CLEAN_KIND_CELLS = ["retweet", "MENTION", "share", "odd", ""]
CLEAN_NUMBER_CELLS = ["1", "0", "007", "00", "2.5", "1e3", "-1", "\u0663",
                      "12345678", "123456789", "123456789012345",
                      "1234567890123456", "1234567890123456789", ""]
LABEL_CELLS = CLEAN_LABEL_CELLS + [" a", "b\t", "\xa0c", '"x,y"', '"e', 'f"g', "#h"]
KIND_CELLS = CLEAN_KIND_CELLS + [" reply "]
NUMBER_CELLS = CLEAN_NUMBER_CELLS + [" 4", "nan", "inf", "x"]
JUNK_LINES = ["# comment", "", "   ", "  # indented", "\t", "#a,b,c,d,e,f"]


def cell_pool(column, clean=False):
    if column == "kind":
        return CLEAN_KIND_CELLS if clean else KIND_CELLS
    if column in ("timestamp", "weight", "score"):
        return CLEAN_NUMBER_CELLS if clean else NUMBER_CELLS
    return CLEAN_LABEL_CELLS if clean else LABEL_CELLS


@st.composite
def csv_files(draw, columns):
    """Text of a headered CSV over some of ``columns`` in some order, maybe
    with an extra column, short and long rows, comment and blank lines,
    and LF, CRLF or CR line ends. Half the files hold only clean cells
    and no comment or blank line, so every block of them parses as bytes."""
    header = draw(st.permutations(list(columns)))
    header = header[:draw(st.integers(2, len(header)))] if draw(st.booleans()) \
        else header
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "extra")
    shown = [draw(st.sampled_from([h, h.upper(), f" {h} "])) for h in header]
    lines = [",".join(shown)]
    clean = draw(st.booleans())
    for _ in range(draw(st.integers(0, 12))):
        if not clean and draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(JUNK_LINES)))
            continue
        width = draw(st.sampled_from([len(header)] * 6
                                     + [1, len(header) - 1, len(header) + 1]))
        pools = [cell_pool(h, clean) for h in header] + [cell_pool("", clean)]
        lines.append(",".join(
            draw(st.sampled_from(pools[min(i, len(header))]))
            for i in range(width)))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = eol.join(lines)
    return text + eol if draw(st.booleans()) else text


def outcome(read, path):
    """What a reader returns or raises, in comparable form."""
    try:
        got = read(path)
    except Exception as exc:     # compared by type, message and line
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(got, ScoreVector):
        return got.metric, got.labels, got.scores.tolist()
    if isinstance(got, DirectedGraph):
        src, dst, w = got.edge_arrays()
        return (got.labels, src.tolist(), dst.tolist(), w.tolist(),
                got.self_loops_dropped)
    return got.labels, list(got.actor), list(got.target), list(got.weight)


READERS = {
    "interactions": (ncio.read_interactions_csv, oracles.read_interactions_csv,
                     INTERACTION_COLUMNS),
    "edges": (ncio.read_edge_csv, oracles.read_edge_csv, EDGE_COLUMNS),
    "scores": (ncio.read_scores_csv, oracles.read_scores_csv,
               ("node_label", "score")),
}


def assert_same_as_oracle(tmp_path, fmt, text, block_chars):
    new, old, _ = READERS[fmt]
    p = tmp_path / "t.scores.csv"
    p.write_bytes(text.encode())
    with mock.patch.object(ncio, "BLOCK_CHARS", block_chars):
        got = outcome(new, p)
    assert got == outcome(old, p)
    return got


@pytest.mark.parametrize("fmt", sorted(READERS))
@given(data=st.data(), block_chars=st.sampled_from([1, 2, 7, 16, 31, 64, 1 << 18]))
@settings(max_examples=150, deadline=None)
def test_block_readers_match_per_line_oracle(tmp_path_factory, fmt, data,
                                             block_chars):
    text = data.draw(csv_files(READERS[fmt][2]))
    assert_same_as_oracle(tmp_path_factory.mktemp("csv"), fmt, text, block_chars)


@pytest.mark.parametrize("text,line", [
    # the weight column fails first in file order, though timestamp comes first
    ("actor,target,timestamp,weight\na,b,1,1\nb,c,1,0\nc,d,x,1\n", 3),
    # within one row, the timestamp is checked before the weight
    ("actor,target,timestamp,weight\na,b,x,0\n", 2),
    # a too-wide row after a bad weight in the same block
    ("actor,target,weight\na,b,-1\nb,c,1,9\n", 2),
    ("actor,target,weight\na,b,1\nb,c,1,9\n,d,1\n", 3),
    ("# c\n\nactor,target\na,\n", 4),
    ("# only comments\n\n", None),
])
@pytest.mark.parametrize("block_chars", [3, 1 << 18])
def test_first_fault_in_file_order_wins(tmp_path, text, line, block_chars):
    got = assert_same_as_oracle(tmp_path, "interactions", text, block_chars)
    assert got[2] == line


@pytest.mark.parametrize("fmt", sorted(READERS))
@pytest.mark.parametrize("fault", [None, -2, -1, 0, 1])
def test_rows_and_faults_either_side_of_a_block_boundary(tmp_path, fmt, fault):
    columns = {"interactions": ("actor", "target", "weight"),
               "edges": EDGE_COLUMNS, "scores": ("node_label", "score")}[fmt]
    rows = [",".join([f"{i:05d}", f"{i + 1:05d}", "1"][-len(columns):])
            for i in range(ncio.BLOCK_CHARS // 6)]
    lines = [",".join(columns)] + rows
    # file line that starts the second block
    boundary = "\n".join(lines)[:ncio.BLOCK_CHARS].count("\n") + 1
    if fault is not None:
        lines[boundary + fault - 1] = lines[boundary + fault - 1][:-1] + "x"
    lines[boundary + 19] += ",1"                    # too wide, past every fault
    got = assert_same_as_oracle(tmp_path, fmt, "\n".join(lines) + "\n",
                                ncio.BLOCK_CHARS)
    assert got[2] == boundary + (20 if fault is None else fault)


def test_clean_blocks_parse_as_bytes(tmp_path):
    # every label and number kind the byte path packs into words, over
    # blocks of a few rows each
    rows = [f"{a},{t},share,{ts},{w}" for a, t, ts, w in zip(
        CLEAN_LABEL_CELLS[:-1], CLEAN_LABEL_CELLS[-2::-1],
        ["0", "007", "123456789012345", "1600000000", "", "12345678"] * 2,
        ["1", "", "007", "12345678", "123456789012345", "9"] * 2)]
    text = "actor,target,kind,timestamp,weight\n" + "\n".join(rows) + "\n"
    with mock.patch.object(ncio, "_loose_cells", side_effect=AssertionError):
        got = assert_same_as_oracle(tmp_path, "interactions", text, 100)
    assert got[0] == list(dict.fromkeys(
        label for row in rows for label in row.split(",")[:2]))
    assert got[3][:3] == [1.0, 1.0, 7.0]


def test_quoted_and_padded_copy_runs_to_the_same_bytes(tmp_path, monkeypatch):
    # the copy's blocks all go line by line: its kind cells are quoted,
    # some labels are quoted or padded, every seventh weight is padded and
    # it holds a comment line
    g = preferential_attachment(300, 3, seed=5)
    src, dst, _ = g.edge_arrays()
    label = [("é" if i % 5 else "u") + lab for i, lab in enumerate(g.labels)]
    rows = [(label[d], label[s], kind, str(1600000000 + i),
             "2.5" if i % 11 == 0 else str(1 + i % 3))
            for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist()))
            for kind in ("retweet", "mention")[:1 + i % 2]]
    header = ",".join(INTERACTION_COLUMNS)
    clean = [",".join(row) for row in rows]
    loose = [",".join([f'"{a}"' if i % 5 == 0 else a,
                       f" {t}\t" if i % 3 == 0 else t, f'"{kind}"', ts,
                       f" {w}" if i % 7 == 0 else w])
             for i, (a, t, kind, ts, w) in enumerate(rows)]
    loose.insert(len(loose) // 2, "# exported in two parts")
    monkeypatch.setattr(ncio, "BLOCK_CHARS", 4096)
    outs, loose_blocks = [], []
    for name, lines in (("clean", clean), ("loose", loose)):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join([header, *lines]) + "\n")
        outs.append(tmp_path / f"out-{name}")
        with mock.patch.object(ncio, "_loose_cells",
                               wraps=ncio._loose_cells) as split:
            assert main(["run", "--input", str(path), "--out", str(outs[-1]),
                         "--seed", "3", "--k", "5"]) == 0
        loose_blocks.append(split.call_count)
    assert loose_blocks[0] == 0 and loose_blocks[1] > 5
    files = sorted(p.name for p in outs[0].iterdir() if p.name != "timings.json")
    assert files == sorted(p.name for p in outs[1].iterdir()
                           if p.name != "timings.json")
    assert "overlap.json" in files and "pc.scores.csv" in files
    for name in files:
        got = [(out / name).read_bytes() for out in outs]
        if name == "report.json":
            got = [blank_paths(text, out) for text, out in zip(got, outs)]
        assert got[0] == got[1], name


def blank_paths(report, out):
    """``report`` with its config's input and output paths blanked."""
    data = json.loads(report)
    assert data["config"]["out"] == str(out)
    data["config"]["input"] = data["config"]["out"] = ""
    return json.dumps(data, indent=2, sort_keys=True)


REAL_HASH = cells.label_hash


def constant_hash(length, words):
    return np.zeros(length.size, dtype=np.uint64)


def long_labels_collide(length, words):
    h = REAL_HASH(length, words)
    h[length > 8] = 0
    return h


@pytest.mark.parametrize("collide", [constant_hash, long_labels_collide])
def test_label_hash_collisions_keep_ids_exact(tmp_path, monkeypatch, collide):
    labels = CLEAN_LABEL_CELLS[:-1] + [f"n{i:08d}" for i in range(40)]
    rng = np.random.default_rng(5)
    # numpy string arrays would drop the NUL of "a\0", so pick by index
    pairs = [(labels[a], labels[t])
             for a, t in rng.integers(0, len(labels), (300, 2)).tolist()]
    text = "actor,target,weight\n" + "".join(
        f"{a},{t},{i % 7 + 1}\n" for i, (a, t) in enumerate(pairs))
    monkeypatch.setattr(cells, "label_hash", collide)
    got = assert_same_as_oracle(tmp_path, "interactions", text, 64)
    assert got[0] == list(dict.fromkeys(label for pair in pairs for label in pair))
    assert "a\0" in got[0] and "a" in got[0]
    records = Interactions.from_records(InteractionRecord(a, t) for a, t in pairs)
    assert table(records) == [(a, t, 1.0) for a, t in pairs]
    assert records.labels == got[0]


def test_scores_csv_duplicate_names_the_repeat_line(tmp_path):
    p = tmp_path / "pc.scores.csv"
    p.write_text("node_label,score\na,1\nb,2\n# c\na,3\nb,4\n")
    with pytest.raises(ParseError, match="duplicate node label 'a'") as exc:
        ncio.read_scores_csv(p)
    assert exc.value.line == 5


@pytest.mark.parametrize("text,line,message", [
    ("node,vulnerability_0\na,0.5\na,0.9\n", 3, "duplicate node 'a'"),
    ("node,vulnerability_0\na,0.5\nb,0.1,7\n", 3, "row has 3 fields"),
])
def test_attributes_csv_rejects_malformed_rows(tmp_path, text, line, message):
    p = tmp_path / "attrs.csv"
    p.write_text(text)
    with pytest.raises(ParseError, match=message) as exc:
        ncio.read_attributes_csv(p)
    assert exc.value.line == line


@pytest.mark.parametrize("column,value", [
    ("vulnerability_0", "1.5"), ("vulnerability_0", "-0.1"),
    ("retweet_count", "-2"), ("emotion_word_count", "-1e-9")])
def test_attribute_out_of_range_fails_at_its_line(tmp_path, capsys, column,
                                                  value):
    attrs = tmp_path / "attrs.csv"
    attrs.write_text(f"node,{column},other\na,0.5,-7\n# note\nb,{value},1\n")
    with pytest.raises(ParseError, match=f"{value}' in column '{column}' is "
                       "out of range") as exc:
        ncio.read_attributes_csv(attrs)
    assert exc.value.line == 4
    scores = tmp_path / "pc.scores.csv"
    scores.write_text("node_label,score\na,1\nb,2\n")
    assert main(["correlate", "--scores", str(scores), "--attributes",
                 str(attrs), "--proxy", column]) == 2
    assert "line 4" in capsys.readouterr().err
    # the bounds are closed, and a column without bounds takes any value
    attrs.write_text(f"node,{column},other\na,0,-7\n")
    assert ncio.read_attributes_csv(attrs) == {column: {"a": 0.0},
                                               "other": {"a": -7.0}}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_scores_and_attributes_fail_at_their_line(tmp_path, capsys,
                                                             value):
    scores = tmp_path / "pc.scores.csv"
    scores.write_text(f"node_label,score\na,1\n# note\nb,{value}\nc,2\n")
    with pytest.raises(ParseError, match="not finite") as exc:
        ncio.read_scores_csv(scores)
    assert exc.value.line == 4
    attrs = tmp_path / "attrs.csv"
    attrs.write_text(f"node,vulnerability_0\na,0.5\nb,{value}\n")
    with pytest.raises(ParseError, match="not finite") as exc:
        ncio.read_attributes_csv(attrs)
    assert exc.value.line == 3
    assert main(["compare", "--scores", str(scores)]) == 2
    assert "line 4" in capsys.readouterr().err
    scores.write_text("node_label,score\na,1\nb,2\n")
    assert main(["correlate", "--scores", str(scores), "--attributes",
                 str(attrs), "--proxy", "vulnerability_0"]) == 2
    assert "line 3" in capsys.readouterr().err


# -- writers == csv.writer

WRITER_LABELS = ["a", "a,b", 'q"uote', " lead", "trail ", "é", "日本", "n\nl",
                 "c\rr", "", '"', "#x"]
WRITER_SCORES = [0.0, -0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3, 2.0, 1e16, 1e-5]


TEXT = st.text(st.characters(), max_size=4)


def utf8(label):
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@given(labels=st.lists(st.sampled_from(WRITER_LABELS) | TEXT,
                       min_size=1, max_size=12, unique=True),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_write_scores_csv_matches_csv_writer(tmp_path_factory, labels, data):
    scores = data.draw(st.lists(
        st.sampled_from(WRITER_SCORES) | st.floats(allow_nan=False,
                                                   allow_infinity=False),
        min_size=len(labels), max_size=len(labels)))
    if not all(map(utf8, labels)):  # a lone surrogate cannot be written
        with pytest.raises(InvalidParameter, match="UTF-8"):
            ScoreVector("pc", tuple(labels), np.array(scores))
        return
    sv = ScoreVector("pc", tuple(labels), np.array(scores))
    rows = sorted(zip(labels, scores), key=lambda r: (-r[1], r[0]))
    p = tmp_path_factory.mktemp("w") / "pc.scores.csv"
    ncio.write_scores_csv(sv, p)
    assert p.read_bytes().decode() == oracles.csv_writer_text(
        [["node_label", "score"]] + [[lab, repr(s)] for lab, s in rows])


def test_score_vector_rejects_a_label_utf8_cannot_encode():
    with pytest.raises(InvalidParameter, match="UTF-8"):
        ScoreVector("x", ("a", "\ud800"), [1.0, 2.0])


def test_nul_suffix_ranks_after_its_prefix_on_a_tie(tmp_path):
    sv = ScoreVector("x", ("a\0", "a"), [1.0, 1.0])
    assert top_k(sv, 2).labels() == ["a", "a\0"]
    p = tmp_path / "x.scores.csv"
    ncio.write_scores_csv(sv, p)
    assert p.read_bytes() == b"node_label,score\na,1.0\na\0,1.0\n"


def test_write_edge_csv_matches_csv_writer_on_unsorted_labels(tmp_path):
    # the labels are given out of label order (n10 sorts before n2), and
    # some need quoting
    labels = [f"n{i}" for i in range(13)] + ["x,y", 'q"', " sp", "é"]
    rng = np.random.default_rng(4)
    pairs = sorted({(int(s), int(d)) for s, d in rng.integers(0, 17, (60, 2))
                    if s != d})
    w = [float(x) for x in rng.choice(WRITER_SCORES[2:6] + [0.5, 3.0], len(pairs))]
    w = [abs(x) or 1.0 for x in w]
    g = DirectedGraph(labels, [s for s, _ in pairs], [d for _, d in pairs], w)
    p = tmp_path / "e.csv"
    ncio.write_edge_csv(g, p)
    want = sorted((labels[s], labels[d], x) for (s, d), x in zip(pairs, w))
    assert p.read_bytes().decode() == oracles.csv_writer_text(
        [list(EDGE_COLUMNS)] + [[s, d, repr(x)] for s, d, x in want])


def test_spaces_are_every_character_strip_removes_but_newline():
    every = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    assert set(ncio._SPACES) == every - {"\n"}


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/spans.py patches netcent functions by name, so a renamed
    # one fails every traced benchmark run
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = "import spans; spans.install(spans.Tracer())"
    out = subprocess.run([sys.executable, "-c", code], cwd=root / "perfbench",
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
