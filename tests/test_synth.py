import math
import random
import statistics
from types import SimpleNamespace

import pytest

from topogen import synth
from topogen.graphs import neighborhood_graph
from topogen.measurements import distance_loss_correlation
from topogen.synth import chain_scenario, generate, grid_positions, grid_scenario


def two_nodes(distance):
    return {0: (0.0, 0.0, 0.0), 1: (distance, 0.0, 0.0)}


def test_reference_loss_at_one_meter():
    matrix = generate(two_nodes(1.0))
    assert matrix.entries[(0, 1)].mean_loss == 40.0
    assert matrix.entries[(1, 0)].mean_loss == 40.0


def test_closed_form_at_ten_meters():
    matrix = generate(two_nodes(10.0))
    assert matrix.entries[(0, 1)].mean_loss == pytest.approx(60.0)


def test_spacing_doubling_closed_form():
    a = grid_scenario(3, 4, 1.0)
    b = grid_scenario(3, 4, 2.0)
    shift = 10 * 2.0 * math.log10(2)
    for pair, entry in a.entries.items():
        assert b.entries[pair].mean_loss == pytest.approx(entry.mean_loss + shift)


def test_coincident_positions_error():
    with pytest.raises(ValueError, match="coincident"):
        generate({0: (1.0, 2.0, 0.0), 1: (1.0, 2.0, 0.0)})


def test_determinism_in_seed():
    positions = {i: (float(i), float(i % 3), 0.0) for i in range(8)}
    params = dict(shadowing_sigma=6.0, asymmetry_sigma=2.0, seed=99)
    assert generate(positions, **params) == generate(positions, **params)
    different = generate(
        dict((i, (float(i), float(i % 3), 0.0)) for i in range(8)),
        shadowing_sigma=6.0,
        asymmetry_sigma=2.0,
        seed=100,
    )
    assert different != generate(positions, **params)


@pytest.mark.parametrize(
    "key, sigma, draw",
    # exact reprs: a libm or inv_cdf that differs, or a changed key text, changes them
    [
        ([0, 0, 0, 1], 1.0, "-0.8187306265688256"),
        ([1, 0, 0, 1], 4.0, "-10.521824973771372"),
        ([1, 1, 0, 1], 1.0, "0.1540519832235539"),
        ([1, 2, 0, 1], 2.5, "0.02943381657857199"),
        ([7, 0, 256, 257], 0.5, "-0.3569172855077872"),
        ([3, 2, 300, 301], 6.0, "-12.988379441807325"),
        ([2**70, 0, 5, 288], 4.0, "-2.334879930919743"),
        ([2**70, 1, 5, 288], 1.0, "0.8545052066184337"),
        ([2**70, 2, 5, 288], 1.0, "-0.11140159588058535"),
        ([2**70, 2, 5, 288], 0.0, "0.0"),
    ],
)
def test_draws_are_pinned(key, sigma, draw):
    assert repr(synth._normal(key, sigma)) == draw


@pytest.mark.parametrize("digest, z", [(bytes(8), -8.2095), (b"\xff" * 8, 8.2095)])
def test_extreme_hashes_give_finite_draws(monkeypatch, digest, z):
    # the top 52 bits all 0 or all 1 are the points 2**-53 and 1 - 2**-53
    fixed = SimpleNamespace(blake2b=lambda data, digest_size: SimpleNamespace(digest=lambda: digest))
    monkeypatch.setattr(synth, "hashlib", fixed)
    draw = synth._normal([0, 0, 0, 1], 3.0)
    assert math.isfinite(draw)
    assert draw == pytest.approx(3.0 * z, abs=1e-3)


def test_symmetric_without_noise_and_increasing_in_distance():
    positions = {i: (float(2**i), 0.0, 0.0) for i in range(5)}
    matrix = generate(positions)
    losses = []
    for i in range(4):
        assert matrix.entries[(i, i + 1)].mean_loss == matrix.entries[(i + 1, i)].mean_loss
        losses.append(matrix.entries[(0, i + 1)].mean_loss)
    assert losses == sorted(losses)


def test_asymmetry_sigma_scale():
    sigma = 3.0
    rng = random.Random(1)
    positions = {i: (rng.uniform(0, 100), rng.uniform(0, 100), 0.0) for i in range(50)}
    matrix = generate(positions, asymmetry_sigma=sigma, seed=5)
    deltas = []
    nodes = sorted(positions)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            deltas.append(matrix.entries[(a, b)].mean_loss - matrix.entries[(b, a)].mean_loss)
    assert len(deltas) >= 1000
    observed = statistics.pstdev(deltas)
    expected = math.sqrt(2) * sigma
    assert abs(observed - expected) / expected < 0.2


def test_heavy_shadowing_weakens_distance_correlation():
    rng = random.Random(2)
    positions = {
        i: (rng.uniform(0, 60), rng.uniform(0, 60), 0.0) for i in range(100)
    }
    matrix = generate(positions, shadowing_sigma=8.0, seed=3)
    assert distance_loss_correlation(matrix, positions) < 0.7


def test_scenario_validation():
    with pytest.raises(ValueError, match="exponent"):
        generate(two_nodes(1.0), path_loss_exponent=0)
    with pytest.raises(ValueError, match="sigmas"):
        generate(two_nodes(1.0), shadowing_sigma=-1)
    with pytest.raises(ValueError, match="at least 2"):
        generate({0: (0.0, 0.0, 0.0)})


def test_chain_fixture():
    matrix = chain_scenario(6, 45, 90)
    graph = neighborhood_graph(matrix, 60)
    assert sorted(graph.edges) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    assert len(matrix.entries) == 30
    two = chain_scenario(2, 45, 90)
    assert set(two.entries) == {(0, 1), (1, 0)}
    with pytest.raises(ValueError):
        chain_scenario(1, 45, 90)
    with pytest.raises(ValueError):
        chain_scenario(3, 90, 45)


def test_grid_layout():
    positions = grid_positions(3, 4, 1.5)
    assert len(positions) == 12
    assert positions[0] == (0.0, 0.0, 0.0)
    assert positions[5] == (1.5, 1.5, 0.0)
    deterministic = grid_scenario(3, 4, 1.5)
    assert len(deterministic.nodes) == 12
    assert deterministic == grid_scenario(3, 4, 1.5)
