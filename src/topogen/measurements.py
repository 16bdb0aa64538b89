"""Campaign log parsing and aggregation of pairwise signal-loss estimates.

A measurement campaign produces one log line per received packet. Each
line yields a directed loss sample (transmit power minus RSSI). Samples
are aggregated per directed node pair into a loss matrix, the central
input of every downstream step.
"""

from __future__ import annotations

import math
import re
import statistics
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import eq, gt, itemgetter, mul, or_, sub
from typing import NamedTuple, TextIO

VALID_CHANNELS = range(11, 27)
# Characters of a campaign log read at a time.
BLOCK = 1 << 16
# Distinct record heads (a line's text before its last space) that one
# parse counts before it may add the counts to the store and start again.
HEAD_CACHE = 1 << 16
# A line whose last token is a plain decimal seq; group 1 is its head. 640
# is the least digit limit sys.set_int_max_str_digits takes, so int()
# converts every such seq whatever the limit.
_PLAIN_SEQ = re.compile(r"^(.*) [0-9]{1,640}\n", re.M)

Position = tuple[float, float, float]
NodePositions = dict[int, Position]


def check_channel(channel) -> int:
    """``channel`` if it is an IEEE 802.15.4 channel number; a bool is not one."""
    if type(channel) is not int or channel not in VALID_CHANNELS:
        raise ValueError(f"channel {channel!r} is not an integer in 11-26")
    return channel


class ChannelMismatchError(ValueError):
    """Samples from different IEEE 802.15.4 channels were mixed."""


class PositionsError(ValueError):
    """Positions that give no finite distance for some pair of a matrix."""


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


@dataclass
class LossColumns:
    """Accepted losses per directed (tx, rx) pair, in log order.

    Every log of an ``ingest`` run parses into one store, so each sample
    is held once. ``len()`` is the number of samples; ``channels`` holds
    every channel seen, so a mix is caught when the matrix is built.
    """

    losses: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    channels: set[int] = field(default_factory=set)

    def __len__(self) -> int:
        return sum(map(len, self.losses.values()))


@dataclass(frozen=True)
class Rejection:
    """A log line that could not be turned into a valid sample."""

    line_number: int
    reason: str


class MatrixEntry(NamedTuple):
    """One directed pair's aggregate; a named tuple, as a matrix holds thousands."""

    mean_loss: float
    stddev: float
    count: int


@dataclass(frozen=True)
class LossMatrix:
    """Directed pairwise loss estimates between node ids.

    Absent entries mean the receiver never heard the transmitter; they
    are treated downstream as a loss above every bound. ``channel`` is
    None only for an empty matrix. Frozen, so the caches below, derived
    from the fields once, cannot outlive a reassigned field: ``bound_masks``
    holds the last bound pair's masks.
    """

    nodes: list[int]
    channel: int | None
    entries: dict[tuple[int, int], MatrixEntry]
    meta: dict = field(default_factory=dict)
    bound_masks: dict[tuple[float, float], tuple[list[int], list[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def position(self) -> dict[int, int]:
        """Each node's position in ``nodes``: its bit in every mask."""
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def edge_births(self) -> dict[int, tuple[list[float], list[int], list[int]]]:
        """Per node, its neighbours in the order their edges are born.

        The birth of edge {a, b} is max(loss(a->b), loss(b->a)): the
        smallest bound at which both directions are within budget. A pair
        missing a direction, or with a NaN loss either way, is never an
        edge. Each node maps to parallel lists of births and neighbours
        sorted by (birth, neighbour), so the graph at any bound is a prefix
        of every row, and to the row's prefix masks: bit i stands for
        ``nodes[i]`` and mask k holds the bits of the first k neighbours,
        so the graph at ``beta`` is mask ``bisect_right(births, beta)``.
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
        bit = {node: 1 << i for node, i in self.position.items()}
        result = {}
        for node, row in rows.items():
            row.sort()
            neighbors = [v for _, v in row]
            masks = list(accumulate(map(bit.__getitem__, neighbors), or_, initial=0))
            result[node] = ([birth for birth, _ in row], neighbors, masks)
        return result

    def neighbors_within(self, node: int, beta: float) -> list[int]:
        """Neighbours of ``node`` whose edge is born at or below ``beta``."""
        births, neighbors, _ = self.edge_births[node]
        return neighbors[: bisect_right(births, beta)]

    def masks_within(self, beta: float, outer: float) -> tuple[list[int], list[int]]:
        """Per position in ``nodes``, the masks of its neighbours at ``beta`` and ``outer``.

        Only the last pair asked for stays in ``bound_masks``: a sweep asks
        for the same pair for every root, so it bisects each row twice per
        bound, however long the sweep.
        """
        key = (beta, outer)
        masks = self.bound_masks.get(key)
        if masks is None:
            rows = list(map(self.edge_births.__getitem__, self.nodes))
            masks = tuple(
                [prefixes[bisect_right(births, bound)] for births, _, prefixes in rows]
                for bound in key
            )
            self.bound_masks.clear()
            self.bound_masks[key] = masks
        return masks


def _parse_line(raw: str) -> tuple[tuple[int, int], float, int] | str | None:
    """A line's ((tx, rx), loss, channel), the reason it is rejected, or None for no record."""
    fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
    if not fields:
        return None
    try:
        if len(fields) != 6:
            raise ValueError("expected 6 fields")
        tx, rx, tx_power, rssi, channel, seq = fields
        tx, rx = int(tx), int(rx)
        tx_power, rssi = float(tx_power), float(rssi)
        channel, seq = int(channel), int(seq)
        return (tx, rx), check_record(tx, rx, tx_power, rssi, channel, seq), channel
    except ValueError as exc:
        return str(exc)


def _accept_heads(
    heads: list[str], refused: dict[str, str]
) -> tuple[list[str], list[tuple[int, int]], list[float], list[int]]:
    """The heads whose lines with a plain seq are accepted, with their pairs, losses and channels.

    Each rejected head's reason goes to ``refused``. Heads of five tokens
    parted by single spaces convert a column per ``map``: ``int`` and ``float``
    strip the whitespace ``split`` parts on, and convert no token with a
    ``#`` or inner whitespace. If any head fails, all take the line rules.
    """
    if set(map(str.count, heads, repeat(" "))) == {4}:
        tokens = " ".join(heads).split(" ")
        try:
            tx, rx, channel = (list(map(int, tokens[i::5])) for i in (0, 1, 4))
            tx_power, rssi = list(map(float, tokens[2::5])), list(map(float, tokens[3::5]))
        except ValueError:
            pass
        else:
            losses = list(map(sub, tx_power, rssi))
            if not (
                any(map(eq, tx, rx))
                or any(map(gt, rssi, tx_power))
                or not all(map(VALID_CHANNELS.__contains__, channel))
                or not all(map(math.isfinite, losses))
            ):
                return heads, list(zip(tx, rx)), losses, channel
    accepted = []
    for head in heads:
        outcome = _parse_line(head + " 0")
        if type(outcome) is str:
            refused[head] = outcome
        elif outcome is not None:
            accepted.append((head, *outcome))
    return tuple(map(list, zip(*accepted))) or ([], [], [], [])


def parse_campaign_log(
    stream: TextIO, columns: LossColumns
) -> tuple[LossColumns, list[Rejection]]:
    """Add the accepted samples of a campaign log's text to ``columns``.

    Every log of a run parses into one store, so each sample is held once.
    Record format: ``tx rx tx_power_dBm rssi_dBm channel seq``,
    whitespace-separated; ``#`` starts a comment. Malformed lines are
    collected as rejections, numbered from the log's first line, and never
    abort the parse.

    The text is read ``BLOCK`` characters at a time. A line whose last
    token is a plain decimal seq (``_PLAIN_SEQ``) has the outcome of its
    head, the text before that token, so a ``Counter`` counts such lines by
    head and each new head is classified once, as its line with seq 0
    would be. Every other line, and each line whose head is rejected,
    takes the line rules in log order. The counts are folded into the
    store at the end: each accepted head adds its loss, one shared float,
    once per line. They are folded early, and counting starts again, when
    more than ``HEAD_CACHE`` heads are counted and over 9 in 10 lines of a
    block brought a new head, so a log that repeats no head holds no large
    count.
    """
    losses, channels = columns.losses, columns.channels
    rejections: list[Rejection] = []
    counts: Counter[str] = Counter()
    refused: dict[str, str] = {}  # rejected head -> reason
    # the accepted heads in the order counted, with their columns and losses
    kept_heads, kept_columns, kept_losses = [], [], []

    def fold():
        tallies = map(counts.__getitem__, kept_heads)
        # consume the extends in C: one call per head, none per line
        deque(map(list.extend, kept_columns, map(repeat, kept_losses, tallies)), maxlen=0)
        for held in (counts, refused, kept_heads, kept_columns, kept_losses):
            held.clear()

    number, carry = 0, ""
    while True:
        block = stream.read(BLOCK)
        if not block:
            if not carry:
                break
            block = "\n"  # the last line ends where the log does
        elif "\n" not in block:
            carry += block  # a line longer than a block is split once, when it ends
            continue
        text = carry + block
        items = _PLAIN_SEQ.split(text)
        tail = items[-1]
        end = tail.rfind("\n") + 1
        items[-1], carry = tail[:end], tail[end:]
        heads = items[1::2]
        before = len(counts)
        counts.update(heads)
        added = len(counts) - before
        if added:
            new = list(islice(reversed(counts), added))[::-1]
            accepted, pairs, head_losses, head_channels = _accept_heads(new, refused)
            kept_heads += accepted
            kept_columns += [losses.setdefault(pair, []) for pair in pairs]
            kept_losses += head_losses
            channels.update(head_channels)
        if any(items[::2]) or not refused.keys().isdisjoint(heads):
            # the items alternate: the lines between counted lines, then the
            # head of one counted line
            line = number
            for lines, head in zip(items[::2], [*heads, None]):
                for raw in lines.split("\n")[:-1]:
                    line += 1
                    outcome = _parse_line(raw)
                    if type(outcome) is str:
                        rejections.append(Rejection(line, outcome))
                    elif outcome is not None:
                        pair, loss, channel = outcome
                        losses.setdefault(pair, []).append(loss)
                        channels.add(channel)
                line += 1
                if head in refused:
                    rejections.append(Rejection(line, refused[head]))
        number += text.count("\n")
        if len(counts) > HEAD_CACHE and added * 10 > 9 * len(heads):
            fold()
    fold()
    return columns, rejections


def parse_aggregator(spec: str) -> float | None:
    """The percentile an aggregator names: None for mean, 50 for median, NN for pNN."""
    if spec == "mean":
        return None
    if spec == "median":
        return 50.0
    if spec.startswith("p"):
        try:
            p = float(spec[1:])
        except ValueError:
            raise ValueError(f"unknown aggregator {spec!r}") from None
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} outside [0, 100]")
        return p
    raise ValueError(f"unknown aggregator {spec!r}")


def aggregate(counts: Counter[float], percentile: float | None) -> tuple[float, float]:
    """Location and sample stddev of a column of finite losses, each rounded once.

    ``counts`` maps each distinct loss to how often it occurs. The losses
    are integers over their largest power-of-two denominator ``scale``, so
    every sum is exact. The location is the mean ``total / (count * scale)``
    if ``percentile`` is None, else the linearly interpolated percentile
    with an exact rank ``(count - 1) * percentile / 100``. Both are exact
    fractions rounded once by an int-by-int division, and lie between the
    extreme losses, so they never overflow. The square root of the exact
    variance is rounded once by round-to-odd, as ``statistics.stdev`` does
    from Python 3.11 on. So the bits are the same on every Python.
    """
    weights = counts.values()
    ratios = list(map(float.as_integer_ratio, counts))
    scale = max(map(itemgetter(1), ratios))
    values = [n * (scale // d) for n, d in ratios]
    count = sum(weights)
    total = sum(map(mul, values, weights))
    if percentile is None:
        location = total / (count * scale)
    else:
        order = sorted(zip(values, weights))
        ends = list(accumulate(w for _, w in order))  # losses up to each value
        rank = (count - 1) * Fraction(percentile) / 100
        low = math.floor(rank)
        a, b = (order[bisect_right(ends, k)][0] for k in (low, min(low + 1, count - 1)))
        location = float((a + (rank - low) * (b - a)) / scale)
    if count == 1:
        return location, 0.0
    num = count * sum(map(mul, map(mul, values, values), weights)) - total * total
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
    return location, float(root << shift) if shift >= 0 else root / (1 << -shift)


def build_loss_matrix(columns: LossColumns, aggregator: str = "mean") -> LossMatrix:
    """Aggregate per-pair loss columns into a directed loss matrix.

    All samples must share one channel; mixing channels is a hard error
    because losses are not comparable across frequencies.
    """
    percentile = parse_aggregator(aggregator)
    channels = sorted(columns.channels)
    if len(channels) > 1:
        raise ChannelMismatchError(f"samples mix channels {channels[0]} and {channels[1]}")
    entries = {}
    nodes: set[int] = set()
    for pair, losses in columns.losses.items():
        loss, stddev = aggregate(Counter(losses), percentile)
        entries[pair] = MatrixEntry(mean_loss=loss, stddev=stddev, count=len(losses))
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
    Pearson's r is scale-free, so each series is divided by its largest
    value: no sum of squares then overflows or underflows.
    """
    missing = [n for n in matrix.nodes if n not in positions]
    if missing:
        raise PositionsError(f"missing positions for nodes {missing}")
    if len(matrix.entries) < 2:
        raise ValueError("insufficient data: need at least 2 entries")
    pairs = sorted(matrix.entries)
    distances = [math.dist(positions[tx], positions[rx]) for tx, rx in pairs]
    losses = [matrix.entries[pair].mean_loss for pair in pairs]
    if math.inf in distances:
        raise PositionsError(f"distance of pair {pairs[distances.index(math.inf)]} overflows")
    far, peak = max(distances), max(losses)
    if min(distances) == far or min(losses) == peak:
        raise ValueError("degenerate: zero variance in distance or loss")
    return statistics.correlation([d / far for d in distances], [x / peak for x in losses])
