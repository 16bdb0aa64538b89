"""Synthetic loss-matrix generation for desk-scale experiments.

Log-distance path loss with optional per-pair shadowing and per-direction
asymmetry noise, plus deterministic scenario builders (chains, grids).
Randomness comes from numpy's PCG64 seeded per pair, so generation is
reproducible and order-independent; the generator identity is recorded
in the matrix metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measurements import LossMatrix, MatrixEntry, NodePositions

GENERATOR_ID = "numpy-pcg64-per-pair"

SYNTH_COUNT = 250  # nominal campaign size recorded for generated entries


@dataclass(frozen=True)
class SynthScenario:
    positions: tuple[tuple[int, tuple[float, float, float]], ...]
    reference_loss: float = 40.0
    path_loss_exponent: float = 2.0
    shadowing_sigma: float = 0.0
    asymmetry_sigma: float = 0.0
    seed: int = 0
    channel: int = 26

    def __post_init__(self):
        if self.path_loss_exponent <= 0:
            raise ValueError("path loss exponent must be positive")
        if self.shadowing_sigma < 0 or self.asymmetry_sigma < 0:
            raise ValueError("sigmas must be >= 0")
        if len(self.positions) < 2:
            raise ValueError("need at least 2 positioned nodes")
        for node, _ in self.positions:
            if node < 0:
                raise ValueError("node ids must be non-negative")

    @classmethod
    def from_positions(cls, positions: NodePositions, **params) -> "SynthScenario":
        items = tuple(sorted((n, tuple(p)) for n, p in positions.items()))
        return cls(positions=items, **params)


def _normal(seed_key: list[int], sigma: float) -> float:
    if sigma == 0:
        return 0.0
    rng = np.random.default_rng(seed_key)
    return float(rng.normal(0.0, sigma))


def generate(scenario: SynthScenario) -> LossMatrix:
    """Directed loss matrix under the log-distance model.

    loss(a->b) = reference + 10 * exponent * log10(d(a,b))
                 + shadow(pair) + asym(direction)

    Shadowing is symmetric per unordered pair, asymmetry independent per
    direction; both are keyed by (seed, pair), so parallel or reordered
    generation yields identical matrices.
    """
    positions = dict(scenario.positions)
    nodes = sorted(positions)
    entries: dict[tuple[int, int], MatrixEntry] = {}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            d = math.dist(positions[a], positions[b])
            if d == 0:
                raise ValueError(f"nodes {a} and {b} have coincident positions")
            deterministic = (
                scenario.reference_loss
                + 10.0 * scenario.path_loss_exponent * math.log10(d)
            )
            shadow = _normal([scenario.seed, 0, a, b], scenario.shadowing_sigma)
            for tx, rx, tag in ((a, b, 1), (b, a, 2)):
                asym = _normal(
                    [scenario.seed, tag, a, b], scenario.asymmetry_sigma
                )
                loss = max(0.0, deterministic + shadow + asym)
                entries[(tx, rx)] = MatrixEntry(
                    mean_loss=loss, stddev=0.0, count=SYNTH_COUNT
                )
    return LossMatrix(
        nodes=nodes,
        channel=scenario.channel,
        entries=entries,
        meta={
            "generator": GENERATOR_ID,
            "seed": scenario.seed,
            "reference_loss": scenario.reference_loss,
            "path_loss_exponent": scenario.path_loss_exponent,
            "shadowing_sigma": scenario.shadowing_sigma,
            "asymmetry_sigma": scenario.asymmetry_sigma,
        },
    )


def chain_scenario(
    n: int, on_loss: float, off_loss: float, channel: int = 26
) -> LossMatrix:
    """Chain of n nodes: consecutive pairs get on_loss, all others off_loss.

    With a bound between the two losses the neighborhood graph is
    exactly the path graph, which makes hand-simulated oracles easy.
    """
    if n < 2:
        raise ValueError("chain needs at least 2 nodes")
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
    if rows * cols < 2:
        raise ValueError("grid needs at least 2 nodes")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    scenario = SynthScenario.from_positions(
        grid_positions(rows, cols, spacing), **params
    )
    return generate(scenario)
