"""Link gains (pathloss, shadowing, fading) and per-RB SINR computation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dtxalign.geometry import NetworkLayout

BOLTZMANN_J_PER_K = 1.380649e-23

# 2 GHz urban-macro NLOS curve, lognormal shadowing on top.
PATHLOSS_INTERCEPT_DB = 128.1
PATHLOSS_SLOPE_DB_PER_DECADE = 37.6
DISTANCE_FLOOR_M = 35.0
SINR_BLOCK_ITEMS = 1 << 16     # compute_sinr's products per block


@dataclass(frozen=True)
class LinkGainMap:
    """Linear power gain of every (cell, mobile, subcarrier) link.

    Gains are frozen for the lifetime of one drop (quasi-static block
    fading): the only frame-to-frame SINR change is the transmit pattern.
    """

    gain: np.ndarray  # (C, M, N), M = C * K mobiles cell-major
    mobiles_per_cell: int


def pathloss_db(distance_m) -> np.ndarray:
    """Macro NLOS pathloss in dB, with a 35 m distance floor."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be > 0")
    d = np.maximum(d, DISTANCE_FLOOR_M)
    out = PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE_DB_PER_DECADE * np.log10(d / 1000.0)
    return out if out.ndim else float(out)


def noise_power(bandwidth_hz: float, temperature_k: float) -> float:
    """Thermal noise power k_B * T * B in watts."""
    return BOLTZMANN_J_PER_K * temperature_k * bandwidth_hz


def build_link_gains(layout: NetworkLayout, drop: np.ndarray,
                     rng: np.random.Generator, n_subcarriers: int,
                     shadowing_std_db: float = 8.0) -> LinkGainMap:
    """Draw the frozen per-drop gain map of the (C, K, 2) mobile positions.

    gain = 10^(-(PL + shadowing)/10) * fading with a unit-mean exponential
    (Rayleigh power) fading draw per (cell, mobile, subcarrier).  Shadowing
    is one draw per mobile, shared by all of that mobile's links: it then
    cancels out of interference-limited SINR, which keeps the cell-edge
    rate floor set by geometry alone.  Independent per-link draws create
    mobiles whose targets exceed the whole frame grid, freezing the entire
    network at full power.

    The gains are stored subcarrier-major, as an (N, C, M) array seen
    through a (C, M, N) view, so that the per-subcarrier products of
    compute_sinr read contiguous (C, M) blocks.
    """
    mobiles = drop.reshape(-1, 2)                       # (M, 2), m = c*K + k
    cells = layout.cell_positions                       # (C, 2)
    dist = np.linalg.norm(mobiles[None, :, :] - cells[:, None, :], axis=2)
    pl = pathloss_db(dist)                              # (C, M)
    shadow = rng.normal(0.0, shadowing_std_db, size=(1, mobiles.shape[0]))
    fading = rng.exponential(1.0, size=pl.shape + (n_subcarriers,))
    scale = 10.0 ** (-(pl + shadow) / 10.0)             # (C, M)
    # written straight into the subcarrier-major buffer: a product without
    # `out` keeps the cell-major layout, and a contiguous copy of it would
    # hold two gain arrays at once
    buf = np.empty((n_subcarriers,) + pl.shape)
    np.multiply(scale, fading.transpose(2, 0, 1), out=buf)
    return LinkGainMap(gain=buf.transpose(1, 2, 0),
                       mobiles_per_cell=drop.shape[1])


def compute_sinr(gains: LinkGainMap, active: np.ndarray, p_rb: float,
                 n0: float, out: np.ndarray | None = None) -> np.ndarray:
    """Hypothetical per-RB SINR tensors for every cell.

    active[c, n, t] marks cells transmitting on RB (n, t).  Returns
    s[c, n, t, k], the SINR mobile k of cell c would see on RB (n, t);
    the desired-link numerator is evaluated on every RB, including the
    serving cell's DTX slots, so slot rankings can use all T slots.
    The result is written into `out`, a (C, N, T, K) float array, when
    one is given.
    """
    g = gains.gain
    num_cells, num_mobiles, n_sub = g.shape
    k_per = gains.mobiles_per_cell
    n_slots = active.shape[2]
    sinr = np.empty((num_cells, n_sub, n_slots, k_per)) if out is None else out
    # total received power per mobile and RB from all active cells, one
    # (M, C) @ (C, T) product per subcarrier.  With the mobile axis
    # reversed, the gain operand has no stride of +1 item, so matmul never
    # hands it to BLAS (which sums in blocks and rounds differently) and
    # sums the cells in index order, bit for bit like a loop over cells.
    # A single mobile means a single cell, and no sum to order.  Blocks of
    # subcarriers keep the products' temporary small.
    step = max(1, SINR_BLOCK_ITEMS // (num_mobiles * n_slots))
    for n in (slice(lo, lo + step) for lo in range(0, n_sub, step)):
        total = np.matmul(g[:, ::-1, n].transpose(2, 1, 0),
                          active[:, n].astype(float).transpose(1, 0, 2))
        total *= p_rb                                       # (n, M, T)
        sinr[:, n] = total[:, ::-1].reshape(
            -1, num_cells, k_per, n_slots).transpose(1, 0, 3, 2)
    cells = np.arange(num_cells)
    # each serving cell's gains to its own mobiles: the diagonal blocks,
    # taken per subcarrier (the reshape is a view of subcarrier-major gains)
    desired = g.transpose(2, 0, 1).reshape(
        n_sub, num_cells, num_cells, k_per)[:, cells, cells]  # (N, C, K)
    desired *= p_rb
    desired = desired.transpose(1, 0, 2)[:, :, None, :]      # (C, N, 1, K)
    # interference: the total less the serving cell's share where it
    # transmits, then the noise and the quotient, all in place
    np.subtract(sinr, desired, out=sinr, where=active[..., None])
    sinr += n0
    return np.divide(desired, sinr, out=sinr)
