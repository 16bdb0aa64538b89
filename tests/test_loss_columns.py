"""Streamed loss columns against the per-sample ingest path they replaced.

``parse_campaign_log`` appends each accepted loss to its pair's column and
``build_loss_matrix`` aggregates the columns. The oracles below are the
earlier implementations, kept here in behaviour: a parse that builds one
``OldSample`` per line and a build that groups the samples. The only rule
added since, finiteness of both levels and the loss, is the oracle's last
check too. Hypothesis draws multi-file logs with integer, decimal,
exponent-form and repr floats, comments, blank lines, every kind of
rejected line and mixed channels.

Stddev is checked against exact correct rounding on every Python, and
against ``statistics.stdev`` from 3.11 on, where it rounds once.
"""

import math
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from topogen.measurements import (
    VALID_CHANNELS,
    ChannelMismatchError,
    LossColumns,
    Rejection,
    build_loss_matrix,
    make_aggregator,
    parse_campaign_log,
    sample_stddev,
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
            rejections.append(Rejection(number, raw.rstrip("\n"), "expected 6 fields"))
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
            rejections.append(Rejection(number, raw.rstrip("\n"), str(exc)))
            continue
        samples.append(sample)
    return samples, rejections


def old_build(samples, aggregator):
    """Oracle: group the samples per pair, then aggregate as before."""
    agg = make_aggregator(aggregator)
    channels = sorted({s.channel for s in samples})
    if len(channels) > 1:
        raise ChannelMismatchError(f"samples mix channels {channels[0]} and {channels[1]}")
    groups = {}
    for s in samples:
        groups.setdefault((s.tx, s.rx), []).append(s.loss)
    return {
        pair: (agg(sorted(losses)), len(losses), sorted(losses))
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


AGGREGATORS = st.sampled_from(["mean", "median", "p90"])


def ingest_both(files, aggregator):
    """(old result, new result): per-file rejections and counts, then the matrix."""
    results = []
    old_samples, columns = [], LossColumns()
    for lines in files:
        samples, old_rejected = old_parse(lines)
        file_columns, rejected = parse_campaign_log(lines)
        results.append(((len(samples), old_rejected), (len(file_columns), rejected)))
        old_samples.extend(samples)
        columns.extend(file_columns)
    try:
        old = old_build(old_samples, aggregator)
    except ChannelMismatchError as exc:
        old = str(exc)
    try:
        new = build_loss_matrix(columns, aggregator)
    except ChannelMismatchError as exc:
        new = str(exc)
    return results, old, new


# two losses near the float maximum overflow numpy's mean, in both paths
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("reason", REASONS)
def test_drawn_logs_reach_every_rejection_and_the_channel_mix(reason):
    def reaches(files):
        per_file, old, _ = ingest_both(files, "mean")
        texts = [r.reason for _, (_, rejected) in per_file for r in rejected]
        return any(reason in text for text in texts + [old if isinstance(old, str) else ""])

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
    stddev = sample_stddev(losses)
    assert_correctly_rounded(stddev, losses)
    if sys.version_info >= (3, 11):
        assert stddev.hex() == statistics.stdev(losses).hex()
