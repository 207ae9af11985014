import math

import numpy as np
import pytest

from dtxalign.config import SimConfig
from dtxalign.geometry import (MobileDrop, NetworkLayout, build_hex_layout,
                               drop_mobiles, point_in_hexagon)


def test_cell_count_formula():
    for tiers in range(5):
        layout = build_hex_layout(tiers, 500.0)
        assert layout.num_cells == 1 + 3 * tiers * (tiers + 1)


def test_degenerate_single_cell():
    layout = build_hex_layout(0, 500.0)
    assert layout.num_cells == 1
    np.testing.assert_allclose(layout.cell_positions[0], [0.0, 0.0])


def test_one_tier_ring():
    layout = build_hex_layout(1, 500.0)
    assert layout.num_cells == 7
    dists = np.linalg.norm(layout.cell_positions, axis=1)
    assert dists[0] == 0.0
    np.testing.assert_allclose(dists[1:], 500.0, rtol=1e-9)


def test_nineteen_cells_two_tiers():
    layout = build_hex_layout(2, 500.0)
    assert layout.num_cells == 19
    assert layout.center_cell_index == 0
    np.testing.assert_allclose(layout.cell_positions[0], [0.0, 0.0])


def test_nearest_neighbor_spacing():
    layout = build_hex_layout(2, 500.0)
    pts = layout.cell_positions
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    d[d == 0] = np.inf
    np.testing.assert_allclose(d.min(axis=1), 500.0, rtol=1e-9)


def test_sixty_degree_rotation_symmetry():
    layout = build_hex_layout(2, 500.0)
    ang = math.pi / 3
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    rotated = layout.cell_positions @ rot.T
    for p in rotated:
        dist = np.linalg.norm(layout.cell_positions - p, axis=1)
        assert dist.min() < 1e-6


def test_invalid_layout_args():
    # layout arguments come from SimConfig, which checks them when built
    with pytest.raises(ValueError):
        SimConfig(tiers=-1)
    with pytest.raises(ValueError):
        SimConfig(isd_m=0.0)


def test_drop_seeded_determinism():
    layout = build_hex_layout(2, 500.0)
    a = drop_mobiles(layout, 10, np.random.default_rng(42))
    b = drop_mobiles(layout, 10, np.random.default_rng(42))
    np.testing.assert_array_equal(a.positions, b.positions)


def test_drop_inside_serving_hexagon():
    layout = build_hex_layout(2, 500.0)
    drop = drop_mobiles(layout, 10, np.random.default_rng(7))
    assert drop.positions.shape == (19, 10, 2)
    for c in range(layout.num_cells):
        inside = point_in_hexagon(drop.positions[c], layout.cell_positions[c],
                                  layout.cell_radius)
        assert inside.all()


def test_mean_distance_matches_closed_form():
    # uniform hexagon of circumradius R: E[r] = R * (1/3 + ln(3)/4)
    layout = build_hex_layout(0, 500.0)
    radius = layout.cell_radius
    rng = np.random.default_rng(123)
    dists = []
    for _ in range(1000):
        drop = drop_mobiles(layout, 10, rng)
        dists.append(np.linalg.norm(drop.positions[0], axis=1))
    expected = radius * (1.0 / 3.0 + math.log(3.0) / 4.0)
    assert np.mean(dists) == pytest.approx(expected, rel=0.02)


def test_rejection_acceptance_ratio():
    # hexagon area over square bounding box: 3*sqrt(3)/8
    rng = np.random.default_rng(11)
    radius = 1.0
    pts = rng.uniform(-radius, radius, size=(100_000, 2))
    ratio = point_in_hexagon(pts, np.zeros(2), radius).mean()
    assert ratio == pytest.approx(3 * math.sqrt(3) / 8, rel=0.02)
