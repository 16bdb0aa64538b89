"""Block-parsed loss columns against the per-line and per-sample paths they replaced.

``parse_campaign_log`` reads a log's text in blocks, counts lines by head
and adds each accepted loss to its pair's column; ``build_loss_matrix``
aggregates the columns. Two parse oracles are kept here in behaviour: the
per-line parser that the block parse replaced (``line_parse``), and the
earlier one ``OldSample`` per line. The only rule added since the latter,
finiteness of both levels and the loss, is its last check too. The build
oracle groups the samples per pair and takes the mean, median or pNN as an
exact ``Fraction``, which the matrix must hold rounded once. Hypothesis
draws multi-file logs with integer, decimal, exponent-form and repr floats,
comments, blank lines, every kind of rejected line and mixed channels. A
second strategy repeats a few heads (a line's text before its last space)
with drawn separators, last tokens and line ends, so that most lines are
counted by head. The block parse must give the per-line oracle's
rejections, channels and per-pair loss multisets (the order within a
column is not observable: ``aggregate`` counts values) at blocks of 1, 7
and 64 characters and at count bounds of 1 and 4, so that lines straddle
reads and the counts are folded into the store mid-log. Logs parsed one
after another into one store must equal their concatenation parsed once,
and every line read twice must keep each mean and median bit for bit,
double each count and give the stddev of the doubled column.

Stddev is checked against exact correct rounding on every Python, and
against ``statistics.stdev`` from 3.11 on, where it rounds once, and
on columns that repeat a few values many times against the per-sample
sums it replaced. Mean, median and pNN are checked against the exact
formula on drawn columns, and the median against ``np.median`` bit for
bit.
"""

import io
import math
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from topogen import measurements
from topogen.measurements import (
    HEAD_CACHE,
    VALID_CHANNELS,
    ChannelMismatchError,
    LossColumns,
    Rejection,
    aggregate,
    build_loss_matrix,
    check_record,
    parse_aggregator,
    parse_campaign_log,
)


@dataclass(frozen=True)
class OldSample:
    tx: int
    rx: int
    tx_power: float
    rssi: float
    channel: int
    seq: int

    def __post_init__(self):
        if self.tx == self.rx:
            raise ValueError(f"self-reception {self.tx} -> {self.rx}")
        if self.rssi > self.tx_power:
            raise ValueError("negative loss")
        if self.channel not in VALID_CHANNELS:
            raise ValueError(f"channel {self.channel} outside 11-26")
        if self.seq < 0:
            raise ValueError(f"negative sequence number {self.seq}")
        for name, value in (("tx_power", self.tx_power), ("rssi", self.rssi),
                            ("loss", self.loss)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite {name} {value}")

    @property
    def loss(self):
        return self.tx_power - self.rssi


def old_parse(lines):
    """Oracle: one sample object per accepted line."""
    samples, rejections = [], []
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            rejections.append(Rejection(number, "expected 6 fields"))
            continue
        try:
            sample = OldSample(
                tx=int(fields[0]),
                rx=int(fields[1]),
                tx_power=float(fields[2]),
                rssi=float(fields[3]),
                channel=int(fields[4]),
                seq=int(fields[5]),
            )
        except ValueError as exc:
            rejections.append(Rejection(number, str(exc)))
            continue
        samples.append(sample)
    return samples, rejections


def line_parse(lines):
    """Oracle: the per-line parser the block parse replaced, one list append per line."""
    columns, rejections = LossColumns(), []
    for number, raw in enumerate(lines, start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            if len(fields) != 6:
                raise ValueError("expected 6 fields")
            tx, rx, tx_power, rssi, channel, seq = fields
            tx, rx = int(tx), int(rx)
            tx_power, rssi = float(tx_power), float(rssi)
            channel, seq = int(channel), int(seq)
            loss = check_record(tx, rx, tx_power, rssi, channel, seq)
        except ValueError as exc:
            rejections.append(Rejection(number, str(exc)))
            continue
        columns.losses.setdefault((tx, rx), []).append(loss)
        columns.channels.add(channel)
    return columns, rejections


def exact_location(losses, aggregator):
    """Oracle: the mean, median or pNN of ``losses`` as an exact Fraction.

    pNN interpolates linearly between the order statistics around rank
    (count - 1) * NN / 100, numpy's default percentile; median is p50.
    """
    ordered = sorted(map(Fraction, losses))
    if aggregator == "mean":
        return sum(ordered) / len(ordered)
    p = 50 if aggregator == "median" else float(aggregator[1:])
    rank = (len(ordered) - 1) * Fraction(p) / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


def stddev_of(losses):
    return aggregate(Counter(losses), None)[1]


def old_build(samples, aggregator):
    """Oracle: group the samples per pair, then aggregate exactly and round once."""
    channels = sorted({s.channel for s in samples})
    if len(channels) > 1:
        raise ChannelMismatchError(f"samples mix channels {channels[0]} and {channels[1]}")
    groups = {}
    for s in samples:
        groups.setdefault((s.tx, s.rx), []).append(s.loss)
    return {
        pair: (float(exact_location(losses, aggregator)), len(losses), sorted(losses))
        for pair, losses in groups.items()
    }, {n for pair in groups for n in pair}


def assert_correctly_rounded(stddev, losses):
    """stddev is sqrt(exact sample variance) rounded to nearest, ties to even."""
    exact = [Fraction(x) for x in losses]
    mean = sum(exact) / len(exact)
    variance = sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)
    below = (Fraction(stddev) + Fraction(math.nextafter(stddev, -math.inf))) / 2
    above = (Fraction(stddev) + Fraction(math.nextafter(stddev, math.inf))) / 2
    assert max(below, 0) ** 2 <= variance <= above**2
    if variance in (below**2, above**2):  # a tie: the last mantissa bit is 0
        assert int(stddev.hex().split("p")[0][-1], 16) % 2 == 0


NODES = st.sampled_from(["0", "1", "2", "+2", "x"])
SEQS = st.sampled_from(["0", "1", "42", "-1", "x"])
LEVEL_FORMS = [repr, "{:.2f}".format, "{:.6e}".format, lambda x: str(round(x))]


def levels(low, high, bad):
    return st.one_of(
        st.builds(lambda x, form: form(x), st.floats(low, high), st.sampled_from(LEVEL_FORMS)),
        st.sampled_from(bad),
    )


# 1e308 - -1e308 overflows: finite levels, non-finite loss
TX_POWERS = levels(-17.0, 3.0, ["nan", "inf", "-inf", *["1e308"] * 3, "3dBm"])
RSSIS = levels(-110.0, -20.0, ["nan", "inf", "-inf", *["-1e308"] * 3, "-60dBm"])
# what becomes of a drawn record: kept (most often), given a trailing
# comment, cut to 5 fields, given a 7th, or replaced by a comment or blank
SHAPES = [lambda line: line] * 6 + [
    lambda line: line + "  # note",
    lambda line: line.rsplit(" ", 1)[0],
    lambda line: line + " extra",
    lambda line: "# tx rx tx_power rssi channel seq",
    lambda line: "  \t",
]


def log_file(channel):
    record = st.builds(
        lambda *fields: " ".join(fields),
        NODES, NODES, TX_POWERS, RSSIS,
        st.sampled_from([str(channel)] * 8 + ["9", "27"]),
        SEQS,
    )
    line = st.builds(lambda text, shape: shape(text) + "\n", record, st.sampled_from(SHAPES))
    return st.lists(line, max_size=16)


def log_files():
    return st.lists(st.sampled_from([26, 26, 17]).flatmap(log_file), min_size=1, max_size=3)


AGGREGATORS = st.sampled_from(["mean", "median", "p0", "p33.3", "p90", "p100"])


def ingest_both(files, aggregator):
    """(old result, new result): per-file rejections and counts, then the matrix.

    Every file's text parses into one store, as in ``ingest``; a file's
    count is what the store grew by.
    """
    results = []
    old_samples, columns = [], LossColumns()
    for lines in files:
        text = "".join(lines)
        samples, old_rejected = old_parse(io.StringIO(text))
        before = len(columns)
        _, rejected = parse_campaign_log(io.StringIO(text), columns)
        results.append(((len(samples), old_rejected), (len(columns) - before, rejected)))
        old_samples.extend(samples)
    try:
        old = old_build(old_samples, aggregator)
    except ChannelMismatchError as exc:
        old = str(exc)
    try:
        new = build_loss_matrix(columns, aggregator)
    except ChannelMismatchError as exc:
        new = str(exc)
    return results, old, new


@settings(max_examples=300, deadline=None)
@given(log_files(), AGGREGATORS)
def test_columns_match_per_sample_oracle(files, aggregator):
    per_file, old, new = ingest_both(files, aggregator)
    for old_file, new_file in per_file:
        assert old_file == new_file
    if isinstance(old, str):
        assert new == old
        return
    groups, nodes = old
    assert new.nodes == sorted(nodes)
    assert new.entries.keys() == groups.keys()
    for pair, entry in new.entries.items():
        mean_loss, count, losses = groups[pair]
        assert (entry.mean_loss.hex(), entry.count) == (mean_loss.hex(), count)
        if count == 1:
            assert entry.stddev == 0.0
            continue
        assert_correctly_rounded(entry.stddev, losses)
        if sys.version_info >= (3, 11):
            assert entry.stddev.hex() == statistics.stdev(losses).hex()


REASONS = [
    "expected 6 fields",
    "invalid literal",
    "could not convert",
    "self-reception",
    "negative loss",
    "outside 11-26",
    "negative sequence number",
    "non-finite tx_power",
    "non-finite rssi",
    "non-finite loss",
    "samples mix channels",
]


@pytest.mark.parametrize("reason", REASONS)
def test_drawn_logs_reach_every_rejection_and_the_channel_mix(reason):
    def reaches(files):
        per_file, old, new = ingest_both(files, "mean")
        texts = [r.reason for _, (_, rejected) in per_file for r in rejected]
        texts += [error for error in (old, new) if isinstance(error, str)]
        return any(reason in text for text in texts)

    find(
        log_files(),
        reaches,
        settings=settings(
            max_examples=2000, database=None, deadline=None, derandomize=True,
            phases=[Phase.generate],
        ),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=-1e6, max_value=1e6),
            st.floats(min_value=-1e-300, max_value=1e-300),
            st.integers(min_value=-120, max_value=120).map(float),
        ),
        min_size=2,
        max_size=40,
    )
)
def test_stddev_is_correctly_rounded(losses):
    stddev = stddev_of(losses)
    assert_correctly_rounded(stddev, losses)
    if sys.version_info >= (3, 11):
        assert stddev.hex() == statistics.stdev(losses).hex()


def new_columns(columns):
    """Each pair's losses as a multiset of hex strings, and the channels seen."""
    pairs = {
        pair: Counter(loss.hex() for loss in losses) for pair, losses in columns.losses.items()
    }
    return pairs, columns.channels


def assert_parses_as_oracle(text):
    columns, rejected = parse_campaign_log(io.StringIO(text), LossColumns())
    expected, expected_rejected = line_parse(io.StringIO(text))
    assert rejected == expected_rejected
    assert new_columns(columns) == new_columns(expected)
    return columns, rejected


# a head's fields, mostly those of an accepted line; the pool also draws
# heads that are rejected and heads with a comment before or after their
# fifth field
HEAD_NODES = st.sampled_from(["0", "1", "2"])
HEAD_POWERS = st.sampled_from(["3"] * 3 + ["0.5", "-1e308"])
HEAD_RSSIS = st.sampled_from(["-40"] * 3 + ["-40.25", "-0.0", "1e308", "9"])
HEAD_CHANNELS = st.sampled_from(["26"] * 4 + ["11", "27"])
# a separator with one space and other whitespace leaves five space-parted
# tokens, which int and float strip and split parts
HEAD_SEPARATORS = st.sampled_from([" "] * 6 + ["  ", "\u2003", "\t ", " \x1f", "\u2003 "])
HEAD_COMMENTS = st.sampled_from([""] * 8 + ["#c", " 5#", " 5 #"])
SEQ_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\u2003"])
# None ends the line after the head, with no separator and no seq
LAST_TOKENS = st.sampled_from(["0", "-0", "+7", "1_0", "-1", "x", "#4", "7 #c", "", None])
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "  \n", "", " \u2003\n"])


def heads():
    return st.builds(
        lambda fields, separators, comment: "".join(
            f"{field}{separator}" for field, separator in zip(fields, separators)
        ) + fields[-1] + comment,
        st.tuples(HEAD_NODES, HEAD_NODES, HEAD_POWERS, HEAD_RSSIS, HEAD_CHANNELS),
        st.lists(HEAD_SEPARATORS, min_size=4, max_size=4),
        HEAD_COMMENTS,
    )


def repeated_head_log(pool):
    def line(head, separator, token, end):
        return head + ("" if token is None else separator + token) + end

    return st.lists(
        st.builds(line, st.sampled_from(pool), SEQ_SEPARATORS, LAST_TOKENS, LINE_ENDS),
        min_size=8,
        max_size=40,
    )


REPEATED_HEAD_FILES = st.lists(
    st.lists(heads(), min_size=1, max_size=3).flatmap(repeated_head_log), min_size=1, max_size=3
)


@settings(max_examples=500, deadline=None)
@given(REPEATED_HEAD_FILES)
def test_repeated_heads_match_per_line_oracle(files):
    for lines in files:
        assert_parses_as_oracle("".join(lines))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(log_files(), REPEATED_HEAD_FILES),
    st.sampled_from([1, 7, 64, measurements.BLOCK]),
    st.sampled_from([1, 4, HEAD_CACHE]),
)
def test_blocks_and_folds_match_per_line_oracle(files, block, bound):
    with patch.multiple(measurements, BLOCK=block, HEAD_CACHE=bound):
        for lines in files:
            assert_parses_as_oracle("".join(lines))


def ended(text):
    """``text`` with its last line ended, which changes no line's outcome."""
    return text if not text or text.endswith("\n") else text + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(log_files(), REPEATED_HEAD_FILES))
def test_logs_parsed_into_one_store_equal_their_concatenation(files):
    # each parse starts an empty count; the concatenation's carries over
    texts = ["".join(lines) for lines in files]
    store, rejected, offset = LossColumns(), [], 0
    for text in texts:
        columns, file_rejected = parse_campaign_log(io.StringIO(text), store)
        assert columns is store
        rejected += [Rejection(r.line_number + offset, r.reason) for r in file_rejected]
        offset += len(io.StringIO(text).readlines())
    whole_text = "".join(map(ended, texts))
    whole, whole_rejected = parse_campaign_log(io.StringIO(whole_text), LossColumns())
    assert new_columns(store) == new_columns(whole)
    assert rejected == whole_rejected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(log_files(), REPEATED_HEAD_FILES))
def test_every_line_twice_keeps_mean_and_median_and_doubles_the_count(files):
    lines = list(map(ended, io.StringIO("".join(sum(files, []))).readlines()))
    once, _ = parse_campaign_log(io.StringIO("".join(lines)), LossColumns())
    twice, _ = parse_campaign_log(io.StringIO("".join(lines * 2)), LossColumns())
    assert twice.channels == once.channels
    if len(once.channels) > 1:
        return  # both are refused for mixing channels
    for aggregator in ("mean", "median"):
        single = build_loss_matrix(once, aggregator)
        double = build_loss_matrix(twice, aggregator)
        assert double.entries.keys() == single.entries.keys()
        for pair, entry in single.entries.items():
            twin = double.entries[pair]
            assert (twin.mean_loss.hex(), twin.count) == (entry.mean_loss.hex(), 2 * entry.count)
            assert_correctly_rounded(twin.stddev, once.losses[pair] * 2)


def test_fresh_heads_past_the_bound_fold_and_equal_the_oracle():
    # one pair per head, each head read twice, HEAD_CACHE + 8,192 heads
    # apart, so that whole blocks of fresh heads follow the bound: both
    # reads of a head counted in one go share one float, and a fold between
    # them gives the second read a float of its own
    texts = [f"{i} {i + 1} 3 -{i % 100}.5 26" for i in range(HEAD_CACHE + 8192)]
    text = "".join(f"{head} 0\n" for head in texts) + "".join(f"{head} 1\n" for head in texts)
    columns, _ = assert_parses_as_oracle(text)
    shared = [first is second for first, second in columns.losses.values()]
    assert False in shared


@pytest.mark.parametrize("block", [1, 7, 64, measurements.BLOCK])
def test_a_file_opened_as_ingest_opens_it_parses_as_the_oracle(tmp_path, block):
    # CRLF and lone CR endings, an undecodable byte, and an em space (3
    # bytes in UTF-8) that straddles the text reader's 8 KiB byte chunk
    records = b"".join(b"%d 0 3 -%d 26 %d\r\n" % (1 + i % 9, 40 + i % 7, i) for i in range(400))
    records += b"0 1 3 \xff 26 0\r\n2 1 3 -44 26 1\r"
    records += b"#" * (8191 - len(records) - 3) + b"\r\n1"
    path = tmp_path / "campaign.log"
    path.write_bytes(records + "\u2003".encode() + b"2 3 -50 26 7\r\n3 1 3 -61 26 8")
    assert path.read_bytes()[8190:8194] == b"1\xe2\x80\x83"

    def read(parse):
        with open(path, encoding="utf-8", errors="backslashreplace") as stream:
            return parse(stream)

    with patch.object(measurements, "BLOCK", block):
        columns, rejected = read(lambda stream: parse_campaign_log(stream, LossColumns()))
    expected, expected_rejected = read(line_parse)
    reason = "could not convert string to float: '\\\\xff'"
    assert rejected == expected_rejected == [Rejection(401, reason)]
    assert new_columns(columns) == new_columns(expected)
    assert len(columns) == 403


@pytest.mark.parametrize(
    "text",
    ["", "\n", "# only a comment", "1 2 3 -40 26 0", "1 2 3 -40 26 0\n1 2 3 -40 26 1", "x 1"],
)
def test_short_logs_and_last_lines_without_a_newline_parse_as_the_oracle(text):
    for block in (1, measurements.BLOCK):
        with patch.object(measurements, "BLOCK", block):
            assert_parses_as_oracle(text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_a_seq_past_the_int_digit_limit_is_rejected_as_per_line():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        columns, rejected = assert_parses_as_oracle(
            f"1 2 3 -40 26 {'7' * 640}\n1 2 3 -40 26 {'7' * 641}\n"
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(columns) == 1
    assert [r.line_number for r in rejected] == [2]


def test_lines_rejected_through_their_head_keep_their_numbers():
    _, rejected = assert_parses_as_oracle("1 2 3.0 -50.0 26\n" * 5000)
    assert rejected == [Rejection(n, "expected 6 fields") for n in range(1, 5001)]


def old_stddev(losses):
    """Oracle: the exact sums taken sample by sample, before values were counted."""
    ratios = list(map(float.as_integer_ratio, losses))
    scale = max(map(itemgetter(1), ratios))
    values = [n * (scale // d) for n, d in ratios]
    count = len(values)
    total = sum(values)
    num = count * sum(map(mul, values, values)) - total * total
    den = count * (count - 1) * scale * scale
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


REPEATED_VALUES = [
    0.0, -0.0, 5e-324, 2.5e-323, 2.2250738585072014e-308,
    1e6, 999999.9999999999, 1000000.0000000001, -1e6, 43.0, 43.5,
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(REPEATED_VALUES), st.floats(min_value=-1e6, max_value=1e6)),
        min_size=1,
        max_size=4,
    ).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=300))
)
def test_stddev_over_repeated_values_matches_per_sample_sums(losses):
    column = sorted(losses)
    stddev = stddev_of(column)
    assert stddev.hex() == old_stddev(column).hex()
    assert stddev_of(losses).hex() == stddev.hex()
    assert_correctly_rounded(stddev, column)


PERCENTILES = [0, 33.3, 50, 95, 100]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=0, max_value=200),
            st.floats(min_value=1e300, max_value=1.7e308),
            st.integers(min_value=0, max_value=120).map(float),
        ),
        min_size=1,
        max_size=4,
    ).flatmap(lambda pool: st.lists(st.sampled_from(pool) | st.floats(0, 200),
                                    min_size=1, max_size=60))
)
def test_locations_are_the_exact_formula_rounded_once(losses):
    counts = Counter(losses)
    for aggregator in ["mean", "median", *(f"p{p}" for p in PERCENTILES)]:
        location, stddev = aggregate(counts, parse_aggregator(aggregator))
        assert location.hex() == float(exact_location(losses, aggregator)).hex()
        assert stddev.hex() == stddev_of(losses).hex()
    if max(losses) < 1e300:  # numpy's midpoint a + b overflows near the float maximum
        assert aggregate(counts, 50.0)[0].hex() == float(np.median(losses)).hex()
