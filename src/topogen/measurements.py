"""Campaign log parsing and aggregation of pairwise signal-loss estimates.

A measurement campaign produces one log line per received packet. Each
line yields a directed loss sample (transmit power minus RSSI). Samples
are aggregated per directed node pair into a loss matrix, the central
input of every downstream step.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

VALID_CHANNELS = range(11, 27)

Position = tuple[float, float, float]
NodePositions = dict[int, Position]


class ChannelMismatchError(ValueError):
    """Samples from different IEEE 802.15.4 channels were mixed."""


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
        if self.tx == self.rx:
            raise ValueError(f"self-reception {self.tx} -> {self.rx}")
        if self.rssi > self.tx_power:
            raise ValueError("negative loss")
        if self.channel not in VALID_CHANNELS:
            raise ValueError(f"channel {self.channel} outside 11-26")
        if self.seq < 0:
            raise ValueError(f"negative sequence number {self.seq}")

    @property
    def loss(self) -> float:
        """Signal loss in dB derived from transmit power and RSSI."""
        return self.tx_power - self.rssi


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


def parse_campaign_log(lines: Iterable[str]) -> tuple[list[LossSample], list[Rejection]]:
    """Parse campaign log lines into loss samples.

    Record format: ``tx rx tx_power_dBm rssi_dBm channel seq``,
    whitespace-separated; ``#`` starts a comment. Malformed lines are
    collected as rejections and never abort the parse.
    """
    samples: list[LossSample] = []
    rejections: list[Rejection] = []
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            rejections.append(Rejection(number, raw.rstrip("\n"), "expected 6 fields"))
            continue
        try:
            sample = LossSample(
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


def build_loss_matrix(
    samples: list[LossSample], aggregator: str = "mean"
) -> LossMatrix:
    """Aggregate samples into a directed loss matrix.

    All samples must share one channel; mixing channels is a hard error
    because losses are not comparable across frequencies.
    """
    agg = make_aggregator(aggregator)
    channels = sorted({s.channel for s in samples})
    if len(channels) > 1:
        raise ChannelMismatchError(
            f"samples mix channels {channels[0]} and {channels[1]}"
        )
    groups: dict[tuple[int, int], list[float]] = {}
    nodes: set[int] = set()
    for s in samples:
        groups.setdefault((s.tx, s.rx), []).append(s.loss)
        nodes.add(s.tx)
        nodes.add(s.rx)
    entries = {}
    for pair, losses in groups.items():
        # sort so aggregation is exactly permutation-invariant in float math
        losses = sorted(losses)
        stddev = statistics.stdev(losses) if len(losses) >= 2 else 0.0
        entries[pair] = MatrixEntry(
            mean_loss=agg(losses), stddev=stddev, count=len(losses)
        )
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
