"""Hexagonal cell layout and uniform mobile placement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class NetworkLayout:
    """Cell centers of a hexagonal grid, center cell at the origin."""

    cell_positions: np.ndarray  # (C, 2) meters
    intersite_distance: float
    center_cell_index: int = 0

    @property
    def num_cells(self) -> int:
        return self.cell_positions.shape[0]

    @property
    def cell_radius(self) -> float:
        """Center-to-corner radius of one hexagonal cell."""
        return self.intersite_distance / SQRT3


@dataclass(frozen=True)
class MobileDrop:
    """Uniform mobile positions, one row of K mobiles per cell."""

    positions: np.ndarray  # (C, K, 2) meters

    @property
    def mobiles_per_cell(self) -> int:
        return self.positions.shape[1]

    @property
    def flat_positions(self) -> np.ndarray:
        """All mobiles stacked, cell-major: mobile m = c*K + k."""
        return self.positions.reshape(-1, 2)


def build_hex_layout(tiers: int, isd: float) -> NetworkLayout:
    """Hexagonal lattice of 1 + 3*tiers*(tiers+1) cells with spacing isd.

    Cells are flat-topped hexagons of radius isd/sqrt(3); neighbor centers
    sit across the flats at distance isd.  Cell 0 is at the origin, the
    rest are ordered by ring and angle for determinism.
    """
    a1 = isd * np.array([SQRT3 / 2.0, 0.5])
    a2 = isd * np.array([0.0, 1.0])
    centers = []
    for q in range(-tiers, tiers + 1):
        for r in range(-tiers, tiers + 1):
            if max(abs(q), abs(r), abs(q + r)) <= tiers:
                centers.append((q, r, q * a1 + r * a2))
    def ring_key(item):
        q, r, pos = item
        ring = max(abs(q), abs(r), abs(q + r))
        return (ring, math.atan2(pos[1], pos[0]) % (2 * math.pi))
    centers.sort(key=ring_key)
    pts = np.array([pos for _, _, pos in centers])
    return NetworkLayout(cell_positions=pts, intersite_distance=float(isd))


def point_in_hexagon(points: np.ndarray, center: np.ndarray, radius: float,
                     eps: float = 1e-12) -> np.ndarray:
    """Membership test for a flat-topped hexagon of given corner radius."""
    p = np.atleast_2d(points) - np.asarray(center)
    dx = np.abs(p[:, 0])
    dy = np.abs(p[:, 1])
    tol = eps * radius
    inside = (dy <= SQRT3 / 2.0 * radius + tol) & (SQRT3 * dx + dy <= SQRT3 * radius + tol)
    return inside if points.ndim > 1 else inside[0]


def drop_mobiles(layout: NetworkLayout, k_per_cell: int,
                 rng: np.random.Generator) -> MobileDrop:
    """Rejection-sample k_per_cell uniform points inside every hexagon."""
    radius = layout.cell_radius
    origin = np.zeros(2)
    out = np.empty((layout.num_cells, k_per_cell, 2))
    for c, center in enumerate(layout.cell_positions):
        collected = np.empty((0, 2))
        while collected.shape[0] < k_per_cell:
            cand = rng.uniform(-radius, radius, size=(2 * k_per_cell, 2))
            collected = np.vstack([collected, cand[point_in_hexagon(cand, origin, radius)]])
        out[c] = center + collected[:k_per_cell]
    return MobileDrop(positions=out)
