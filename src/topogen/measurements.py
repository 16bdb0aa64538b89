"""Campaign log parsing and aggregation of pairwise signal-loss estimates.

A measurement campaign produces one log line per received packet. Each
line yields a directed loss sample (transmit power minus RSSI). Samples
are aggregated per directed node pair into a loss matrix, the central
input of every downstream step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter, mul
from typing import Callable, Iterable

import numpy as np

VALID_CHANNELS = range(11, 27)

Position = tuple[float, float, float]
NodePositions = dict[int, Position]


class ChannelMismatchError(ValueError):
    """Samples from different IEEE 802.15.4 channels were mixed."""


def check_record(
    tx: int, rx: int, tx_power: float, rssi: float, channel: int, seq: int
) -> float:
    """Loss of a campaign record; ValueError names the first rule it breaks.

    The finiteness test comes last so that a line failing an earlier rule
    keeps that rule as its reason.
    """
    if tx == rx:
        raise ValueError(f"self-reception {tx} -> {rx}")
    if rssi > tx_power:
        raise ValueError("negative loss")
    if channel not in VALID_CHANNELS:
        raise ValueError(f"channel {channel} outside 11-26")
    if seq < 0:
        raise ValueError(f"negative sequence number {seq}")
    loss = tx_power - rssi
    if not math.isfinite(loss):
        for name, value in (("tx_power", tx_power), ("rssi", rssi), ("loss", loss)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite {name} {value}")
    return loss


@dataclass(frozen=True)
class LossSample:
    """One received packet with the levels needed to derive its loss."""

    tx: int
    rx: int
    tx_power: float
    rssi: float
    channel: int
    seq: int

    def __post_init__(self):
        check_record(self.tx, self.rx, self.tx_power, self.rssi, self.channel, self.seq)

    @property
    def loss(self) -> float:
        """Signal loss in dB derived from transmit power and RSSI."""
        return self.tx_power - self.rssi


@dataclass
class LossColumns:
    """Accepted losses per directed (tx, rx) pair, in log order.

    ``len()`` is the number of samples; ``channels`` holds every channel
    seen, so a mix is caught when the matrix is built.
    """

    losses: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    channels: set[int] = field(default_factory=set)

    def __len__(self) -> int:
        return sum(map(len, self.losses.values()))

    def extend(self, other: LossColumns):
        """Append the samples of ``other`` after those already held."""
        for pair, losses in other.losses.items():
            self.losses.setdefault(pair, []).extend(losses)
        self.channels |= other.channels


@dataclass(frozen=True)
class Rejection:
    """A log line that could not be turned into a valid sample."""

    line_number: int
    line: str
    reason: str


@dataclass(frozen=True)
class MatrixEntry:
    mean_loss: float
    stddev: float
    count: int


@dataclass
class LossMatrix:
    """Directed pairwise loss estimates between node ids.

    Absent entries mean the receiver never heard the transmitter; they
    are treated downstream as a loss above every bound. ``channel`` is
    None only for an empty matrix.
    """

    nodes: list[int]
    channel: int | None
    entries: dict[tuple[int, int], MatrixEntry]
    meta: dict = field(default_factory=dict)

    def loss(self, tx: int, rx: int) -> float | None:
        entry = self.entries.get((tx, rx))
        return entry.mean_loss if entry is not None else None

    @cached_property
    def edge_births(self) -> dict[int, tuple[list[float], list[int]]]:
        """Per node, its neighbours in the order their edges are born.

        The birth of edge {a, b} is max(loss(a->b), loss(b->a)): the
        smallest bound at which both directions are within budget. A pair
        missing a direction, or with a NaN loss either way, is never an
        edge. Each node maps to parallel lists of births and neighbours
        sorted by (birth, neighbour), so the graph at any bound is a prefix
        of every row. Computed once; a matrix is not mutated after
        construction.
        """
        rows: dict[int, list[tuple[float, int]]] = {n: [] for n in self.nodes}
        for (a, b), entry in self.entries.items():
            if a >= b:
                continue
            reverse = self.entries.get((b, a))
            if reverse is None:
                continue
            forward, backward = entry.mean_loss, reverse.mean_loss
            if math.isnan(forward) or math.isnan(backward):
                continue
            birth = max(forward, backward)
            rows[a].append((birth, b))
            rows[b].append((birth, a))
        for row in rows.values():
            row.sort()
        return {
            node: ([birth for birth, _ in row], [v for _, v in row])
            for node, row in rows.items()
        }

    def neighbors_within(self, node: int, beta: float) -> list[int]:
        """Neighbours of ``node`` whose edge is born at or below ``beta``."""
        births, neighbors = self.edge_births[node]
        return neighbors[: bisect_right(births, beta)]


def parse_campaign_log(lines: Iterable[str]) -> tuple[LossColumns, list[Rejection]]:
    """Parse campaign log lines into per-pair loss columns.

    Record format: ``tx rx tx_power_dBm rssi_dBm channel seq``,
    whitespace-separated; ``#`` starts a comment. Malformed lines are
    collected as rejections and never abort the parse.
    """
    columns = LossColumns()
    losses = columns.losses
    channels = columns.channels
    rejections: list[Rejection] = []
    for number, raw in enumerate(lines, start=1):
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
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
            rejections.append(Rejection(number, raw.rstrip("\n"), str(exc)))
            continue
        column = losses.get((tx, rx))
        if column is None:
            losses[tx, rx] = [loss]
        else:
            column.append(loss)
        channels.add(channel)
    return columns, rejections


def format_sample(sample: LossSample) -> str:
    """Render a sample in the campaign log record format.

    Float fields use repr so that parse -> format -> parse round-trips
    bit-exactly.
    """
    return (
        f"{sample.tx} {sample.rx} {sample.tx_power!r} {sample.rssi!r} "
        f"{sample.channel} {sample.seq}"
    )


def make_aggregator(spec: str) -> Callable[[list[float]], float]:
    """Build a loss aggregator from its name: mean, median or pNN."""
    if spec == "mean":
        return lambda losses: float(np.mean(losses))
    if spec == "median":
        return lambda losses: float(np.median(losses))
    if spec.startswith("p"):
        try:
            p = float(spec[1:])
        except ValueError:
            raise ValueError(f"unknown aggregator {spec!r}") from None
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} outside [0, 100]")
        return lambda losses: float(np.percentile(losses, p))
    raise ValueError(f"unknown aggregator {spec!r}")


def sample_stddev(losses: list[float]) -> float:
    """Sample standard deviation of two or more finite floats, rounded once.

    The sums are exact integers over the samples' common power-of-two
    denominator, and the square root of the exact variance is correctly
    rounded by round-to-odd, as ``statistics.stdev`` does from Python
    3.11 on; so the bits are the same on every supported Python.
    """
    ratios = list(map(float.as_integer_ratio, losses))
    scale = max(map(itemgetter(1), ratios))
    values = [n * (scale // d) for n, d in ratios]
    count = len(values)
    total = sum(values)
    num = count * sum(map(mul, values, values)) - total * total
    den = count * (count - 1) * scale * scale
    # sqrt(num / den) to 55 or more bits, the last one odd if inexact, so
    # that converting to a 53-bit float rounds once and correctly
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def build_loss_matrix(columns: LossColumns, aggregator: str = "mean") -> LossMatrix:
    """Aggregate per-pair loss columns into a directed loss matrix.

    All samples must share one channel; mixing channels is a hard error
    because losses are not comparable across frequencies.
    """
    agg = make_aggregator(aggregator)
    channels = sorted(columns.channels)
    if len(channels) > 1:
        raise ChannelMismatchError(
            f"samples mix channels {channels[0]} and {channels[1]}"
        )
    entries = {}
    nodes: set[int] = set()
    for pair, losses in columns.losses.items():
        # sort so aggregation is exactly permutation-invariant in float math
        losses = sorted(losses)
        stddev = sample_stddev(losses) if len(losses) >= 2 else 0.0
        entries[pair] = MatrixEntry(
            mean_loss=agg(losses), stddev=stddev, count=len(losses)
        )
        nodes.update(pair)
    channel = channels[0] if channels else None
    return LossMatrix(nodes=sorted(nodes), channel=channel, entries=entries)


def warn_low_counts(
    matrix: LossMatrix, min_count: int
) -> list[tuple[int, int, int]]:
    """Directed entries with fewer than min_count samples, fewest first."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    low = [
        (tx, rx, entry.count)
        for (tx, rx), entry in matrix.entries.items()
        if entry.count < min_count
    ]
    return sorted(low, key=lambda item: (item[2], item[0], item[1]))


def distance_loss_correlation(matrix: LossMatrix, positions: NodePositions) -> float:
    """Pearson correlation between node distance and mean loss.

    In real deployments this correlation is typically weak, which is why
    picking nodes off the floor plan rarely yields the intended topology.
    """
    missing = [n for n in matrix.nodes if n not in positions]
    if missing:
        raise ValueError(f"missing positions for nodes {missing}")
    if len(matrix.entries) < 2:
        raise ValueError("insufficient data: need at least 2 entries")
    distances = []
    losses = []
    for (tx, rx), entry in sorted(matrix.entries.items()):
        distances.append(math.dist(positions[tx], positions[rx]))
        losses.append(entry.mean_loss)
    d = np.asarray(distances)
    l = np.asarray(losses)
    if np.ptp(d) == 0 or np.ptp(l) == 0:
        raise ValueError("degenerate: zero variance in distance or loss")
    return float(np.corrcoef(d, l)[0, 1])
