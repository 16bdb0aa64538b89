import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import matrix_from_losses, pearson
from topogen.measurements import (
    ChannelMismatchError,
    LossColumns,
    Rejection,
    build_loss_matrix,
    check_record,
    distance_loss_correlation,
    parse_campaign_log,
    warn_low_counts,
)


def log(lines):
    """A campaign log's text stream, one line per item."""
    return io.StringIO("".join(f"{line}\n" for line in lines))


def test_parse_single_record():
    columns, rejections = parse_campaign_log(log(["3 7 3.0 -60.0 17 42"]), LossColumns())
    assert rejections == []
    assert columns == LossColumns(losses={(3, 7): [63.0]}, channels={17})
    assert len(columns) == 1
    assert check_record(tx=3, rx=7, tx_power=3.0, rssi=-60.0, channel=17, seq=42) == 63.0


def test_parse_empty_stream():
    assert parse_campaign_log(log([]), LossColumns()) == (LossColumns(), [])
    assert len(LossColumns()) == 0


def test_parse_rejects_negative_loss():
    samples, rejections = parse_campaign_log(log(["3 7 3.0 10.0 17 42"]), LossColumns())
    assert len(samples) == 0
    assert len(rejections) == 1
    assert rejections[0].reason == "negative loss"
    assert rejections[0].line_number == 1


def test_parse_skips_comments_and_blank_lines():
    lines = [
        "# campaign header",
        "",
        "1 2 3.0 -50.0 17 0  # trailing comment",
        "bad line",
        "1 2 3.0 -50.0 17",
    ]
    samples, rejections = parse_campaign_log(log(lines), LossColumns())
    assert len(samples) == 1
    assert [r.line_number for r in rejections] == [4, 5]
    assert all(r.reason == "expected 6 fields" for r in rejections)


def test_parse_rejects_self_reception_and_bad_channel():
    lines = ["5 5 3.0 -50.0 17 0", "1 2 3.0 -50.0 9 0"]
    samples, rejections = parse_campaign_log(log(lines), LossColumns())
    assert len(samples) == 0
    assert len(rejections) == 2


@pytest.mark.parametrize(
    "line, reason",
    [
        ("2 1 3 -inf 26 0", "non-finite rssi -inf"),
        ("2 1 3 nan 26 0", "non-finite rssi nan"),
        ("2 1 inf -60 26 0", "non-finite tx_power inf"),
        ("2 1 nan -60 26 0", "non-finite tx_power nan"),
        ("2 1 inf inf 26 0", "non-finite tx_power inf"),
        ("2 1 1e308 -1e308 26 0", "non-finite loss inf"),
        # a line broken in an earlier way keeps that reason
        ("2 2 3 -inf 26 0", "self-reception 2 -> 2"),
        ("2 1 -inf -60 26 0", "negative loss"),
        ("2 1 3 inf 26 0", "negative loss"),
        ("2 1 3 nan 9 0", "channel 9 outside 11-26"),
        ("2 1 nan -60 26 -1", "negative sequence number -1"),
    ],
)
def test_parse_rejects_non_finite_levels_last(line, reason):
    samples, rejections = parse_campaign_log(log([line, "2 1 3 -60 26 1"]), LossColumns())
    assert samples.losses == {(2, 1): [63.0]}
    assert rejections == [Rejection(1, reason)]
    tx, rx, tx_power, rssi, channel, seq = line.split()
    with pytest.raises(ValueError, match=reason):
        check_record(int(tx), int(rx), float(tx_power), float(rssi), int(channel), int(seq))


def test_parse_never_aborts_on_partial_corruption():
    lines = ["1 2 3.0 -50.0 17 0", "garbage", "2 1 3.0 -52.0 17 1"]
    samples, rejections = parse_campaign_log(log(lines), LossColumns())
    assert len(samples) == 2
    assert len(rejections) == 1


def test_format_parse_round_trip_bit_exact():
    rng = random.Random(7)
    originals = [
        (
            rng.randrange(100),
            rng.randrange(100, 200),
            rng.uniform(-17, 3),
            rng.uniform(-101, -20),
            rng.randrange(11, 27),
            rng.randrange(10**6),
        )
        for _ in range(50)
    ]
    # repr keeps every bit of the float levels
    text = [
        f"{tx} {rx} {tx_power!r} {rssi!r} {channel} {seq}"
        for tx, rx, tx_power, rssi, channel, seq in originals
    ]
    parsed, rejections = parse_campaign_log(log(text), LossColumns())
    assert rejections == []
    assert parsed == columns(originals)
    assert len(parsed) == len(originals)


def sample(tx, rx, loss, channel=17, seq=0):
    """A (tx, rx, tx_power, rssi, channel, seq) record with the given loss."""
    return (tx, rx, 3.0, 3.0 - loss, channel, seq)


def columns(records):
    """The loss columns of records, in the order given."""
    result = LossColumns()
    for record in records:
        tx, rx, _, _, channel, _ = record
        result.losses.setdefault((tx, rx), []).append(check_record(*record))
        result.channels.add(channel)
    return result


def test_build_matrix_two_point_statistics():
    matrix = build_loss_matrix(columns([sample(1, 2, 60), sample(1, 2, 64)]))
    entry = matrix.entries[(1, 2)]
    assert entry.mean_loss == 62.0
    assert entry.count == 2
    assert entry.stddev == pytest.approx(2 * math.sqrt(2))


def test_build_matrix_keeps_directions_separate():
    matrix = build_loss_matrix(columns([sample(1, 2, 60)]))
    assert set(matrix.entries) == {(1, 2)}
    assert (2, 1) not in matrix.entries


def test_build_matrix_250_identical_samples():
    matrix = build_loss_matrix(columns([sample(1, 2, 63, seq=i) for i in range(250)]))
    entry = matrix.entries[(1, 2)]
    assert entry.mean_loss == 63.0
    assert entry.stddev == 0.0
    assert entry.count == 250


def test_build_matrix_rejects_mixed_channels():
    with pytest.raises(ChannelMismatchError, match="17.*26|26.*17"):
        build_loss_matrix(columns([sample(1, 2, 60, channel=17), sample(2, 1, 60, channel=26)]))


def test_build_matrix_empty_is_valid():
    matrix = build_loss_matrix(LossColumns())
    assert matrix.nodes == []
    assert matrix.entries == {}


def test_build_matrix_median_and_percentile():
    samples = columns([sample(1, 2, loss) for loss in (50, 60, 100)])
    assert build_loss_matrix(samples, "median").entries[(1, 2)].mean_loss == 60.0
    assert build_loss_matrix(samples, "p100").entries[(1, 2)].mean_loss == 100.0


def test_build_matrix_unknown_aggregator():
    with pytest.raises(ValueError, match="aggregator"):
        build_loss_matrix(columns([sample(1, 2, 60)]), "mode")


@pytest.mark.parametrize("aggregator", ["mean", "median"])
def test_build_matrix_permutation_invariant(aggregator):
    rng = random.Random(11)
    samples = [
        sample(rng.randrange(4), 4 + rng.randrange(4), rng.uniform(40, 90), seq=i)
        for i in range(60)
    ]
    reference = build_loss_matrix(columns(samples), aggregator)
    for _ in range(5):
        rng.shuffle(samples)
        assert build_loss_matrix(columns(samples), aggregator).entries == reference.entries


def test_mean_within_sample_range():
    rng = random.Random(13)
    for _ in range(20):
        losses = [rng.uniform(30, 100) for _ in range(rng.randrange(1, 15))]
        samples = [sample(1, 2, loss, seq=i) for i, loss in enumerate(losses)]
        mean = build_loss_matrix(columns(samples)).entries[(1, 2)].mean_loss
        assert min(losses) <= mean <= max(losses)


def test_warn_low_counts():
    matrix = build_loss_matrix(
        columns(
            [sample(1, 2, 60, seq=i) for i in range(3)]
            + [sample(2, 1, 60, seq=i) for i in range(12)]
        )
    )
    assert warn_low_counts(matrix, 10) == [(1, 2, 3)]
    assert warn_low_counts(matrix, 1) == []
    assert warn_low_counts(build_loss_matrix(LossColumns()), 10) == []
    with pytest.raises(ValueError):
        warn_low_counts(matrix, 0)


def geometric_line_fixture():
    # Nodes on a line at geometric spacing; losses follow the log-distance
    # law exactly, so distance and loss are monotone but nonlinear.
    positions = {i: (float(2**i), 0.0, 0.0) for i in range(6)}
    losses = {}
    for a in positions:
        for b in positions:
            if a != b:
                d = abs(positions[a][0] - positions[b][0])
                losses[(a, b)] = 40 + 20 * math.log10(d)
    return matrix_from_losses(losses), positions


def test_correlation_against_hand_pearson():
    matrix, positions = geometric_line_fixture()
    distances, losses = [], []
    for (tx, rx), entry in sorted(matrix.entries.items()):
        distances.append(abs(positions[tx][0] - positions[rx][0]))
        losses.append(entry.mean_loss)
    expected = pearson(distances, losses)
    assert distance_loss_correlation(matrix, positions) == pytest.approx(expected)
    assert expected > 0.9  # monotone but nonlinear: strong, not perfect


def test_correlation_uncorrelated_fixture():
    rng = random.Random(5)
    positions = {i: (rng.uniform(0, 50), rng.uniform(0, 50), 0.0) for i in range(15)}
    pairs = [(a, b) for a in positions for b in positions if a != b][:100]
    values = [60 + 0.01 * k for k in range(len(pairs))]
    rng.shuffle(values)
    matrix = matrix_from_losses(dict(zip(pairs, values)))
    coefficient = distance_loss_correlation(matrix, positions)
    assert abs(coefficient) < 0.3


def test_correlation_scale_invariant():
    matrix, positions = geometric_line_fixture()
    scaled = {n: (3 * x, 3 * y, 3 * z) for n, (x, y, z) in positions.items()}
    assert distance_loss_correlation(matrix, scaled) == pytest.approx(
        distance_loss_correlation(matrix, positions)
    )


def test_correlation_errors():
    positions = {1: (0.0, 0.0, 0.0), 2: (1.0, 0.0, 0.0)}
    single = matrix_from_losses({(1, 2): 60.0})
    with pytest.raises(ValueError, match="insufficient data"):
        distance_loss_correlation(single, positions)
    constant = matrix_from_losses({(1, 2): 60.0, (2, 1): 60.0})
    with pytest.raises(ValueError, match="degenerate"):
        distance_loss_correlation(constant, positions)
    with pytest.raises(ValueError, match="missing positions"):
        distance_loss_correlation(constant, {1: (0.0, 0.0, 0.0)})


def test_measurements_imports_no_numpy():
    code = "import sys, topogen.measurements; print('numpy' in sys.modules)"
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"
