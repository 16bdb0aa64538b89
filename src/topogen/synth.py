"""Synthetic loss-matrix generation for desk-scale experiments.

Log-distance path loss with optional per-pair shadowing and per-direction
asymmetry noise, plus deterministic scenario builders (chains, grids).
Each draw hashes the text of its key (seed, tag, pair) with BLAKE2b and
maps the hash to a normal quantile, so generation is reproducible and
order-independent; the generator identity is recorded in the matrix metadata.
"""

from __future__ import annotations

import hashlib
import math
import sys
from statistics import NormalDist

from .measurements import LossMatrix, MatrixEntry, NodePositions, check_channel

GENERATOR_ID = "blake2b-inv-cdf-per-pair"

SYNTH_COUNT = 250  # nominal campaign size recorded for generated entries


def finite(value, where: str) -> float:
    """``value`` if it is an int or float within the float range.

    Any other type, bool included, is refused; so are NaN, the infinities
    and an int too large for a float, which all fail the comparison. Such
    an int is named by its size, not its digits.
    """
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        if type(value) is int:
            raise ValueError(f"{where} is a {value.bit_length()}-bit int, outside the float range")
        raise ValueError(f"{where} {value!r} is not a finite number")
    return value


def integer(value, where: str) -> int:
    """``value`` if it is an int >= 0; any other type, bool included, is refused."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{where} {value!r} is not a non-negative integer")
    return value


def _normal(seed_key: list[int], sigma: float) -> float:
    """N(0, sigma) draw keyed by non-negative ints."""
    if sigma == 0:
        return 0.0
    digest = hashlib.blake2b(" ".join(map(str, seed_key)).encode(), digest_size=8).digest()
    k = int.from_bytes(digest, "big") >> 12  # 52 bits: with 53, k + 0.5 could round to 2**53
    return NormalDist(0.0, sigma).inv_cdf((k + 0.5) / 2**52)


def generate(
    positions: NodePositions,
    reference_loss: float = 40.0,
    path_loss_exponent: float = 2.0,
    shadowing_sigma: float = 0.0,
    asymmetry_sigma: float = 0.0,
    seed: int = 0,
    channel: int = 26,
) -> LossMatrix:
    """Directed loss matrix under the log-distance model.

    loss(a->b) = reference + 10 * exponent * log10(d(a,b))
                 + shadow(pair) + asym(direction)

    Shadowing is symmetric per unordered pair, asymmetry independent per
    direction; both are keyed by (seed, pair), so parallel or reordered
    generation yields identical matrices.
    """
    finite(reference_loss, "reference_loss")
    finite(path_loss_exponent, "path_loss_exponent")
    finite(shadowing_sigma, "shadowing_sigma")
    finite(asymmetry_sigma, "asymmetry_sigma")
    integer(seed, "seed")
    check_channel(channel)
    if reference_loss < 0:
        raise ValueError(f"reference_loss {reference_loss!r} is a negative loss")
    if path_loss_exponent <= 0:
        raise ValueError("path loss exponent must be positive")
    if shadowing_sigma < 0 or asymmetry_sigma < 0:
        raise ValueError("sigmas must be >= 0")
    if len(positions) < 2:
        raise ValueError("need at least 2 positioned nodes")
    nodes = sorted(positions)
    if nodes[0] < 0:
        raise ValueError(f"positions: node id {nodes[0]} is negative")
    entries: dict[tuple[int, int], MatrixEntry] = {}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            d = math.dist(positions[a], positions[b])
            if d == 0:
                raise ValueError(f"nodes {a} and {b} have coincident positions")
            deterministic = reference_loss + 10.0 * path_loss_exponent * math.log10(d)
            shadow = _normal([seed, 0, a, b], shadowing_sigma)
            for tx, rx, tag in ((a, b, 1), (b, a, 2)):
                asym = _normal([seed, tag, a, b], asymmetry_sigma)
                loss = deterministic + shadow + asym
                if not math.isfinite(loss):
                    raise ValueError(f"loss {tx} -> {rx} {loss!r} is not a finite number")
                loss = max(0.0, loss)
                entries[(tx, rx)] = MatrixEntry(
                    mean_loss=loss, stddev=0.0, count=SYNTH_COUNT
                )
    return LossMatrix(
        nodes=nodes,
        channel=channel,
        entries=entries,
        meta={
            "generator": GENERATOR_ID,
            "seed": seed,
            "reference_loss": reference_loss,
            "path_loss_exponent": path_loss_exponent,
            "shadowing_sigma": shadowing_sigma,
            "asymmetry_sigma": asymmetry_sigma,
        },
    )


def chain_scenario(
    n: int, on_loss: float, off_loss: float, channel: int = 26
) -> LossMatrix:
    """Chain of n nodes: consecutive pairs get on_loss, all others off_loss.

    With a bound between the two losses the neighborhood graph is
    exactly the path graph, which makes hand-simulated oracles easy.
    """
    if integer(n, "n") < 2:
        raise ValueError("chain needs at least 2 nodes")
    finite(on_loss, "on_loss")
    finite(off_loss, "off_loss")
    check_channel(channel)
    if on_loss < 0:
        raise ValueError(f"on_loss {on_loss!r} is a negative loss")
    if on_loss >= off_loss:
        raise ValueError("on_loss must be below off_loss")
    entries = {}
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            loss = on_loss if abs(a - b) == 1 else off_loss
            entries[(a, b)] = MatrixEntry(mean_loss=loss, stddev=0.0, count=SYNTH_COUNT)
    return LossMatrix(
        nodes=list(range(n)),
        channel=channel,
        entries=entries,
        meta={"generator": "chain", "on_loss": on_loss, "off_loss": off_loss},
    )


def grid_positions(rows: int, cols: int, spacing: float) -> NodePositions:
    positions: NodePositions = {}
    for r in range(rows):
        for c in range(cols):
            positions[r * cols + c] = (c * spacing, r * spacing, 0.0)
    return positions


def grid_scenario(rows: int, cols: int, spacing: float, **params) -> LossMatrix:
    """Regular grid layout fed through the log-distance generator."""
    integer(rows, "rows")
    integer(cols, "cols")
    finite(spacing, "spacing")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    return generate(grid_positions(rows, cols, spacing), **params)
