import numpy as np
import pytest

from dtxalign.channel import (build_link_gains, compute_sinr, noise_power,
                              pathloss_db, sample_shadowing)
from dtxalign.config import SimConfig
from dtxalign.geometry import MobileDrop, build_hex_layout, drop_mobiles


def test_pathloss_reference_points():
    assert pathloss_db(1000.0) == pytest.approx(128.1, abs=1e-9)
    assert pathloss_db(500.0) == pytest.approx(116.7813, abs=1e-3)


def test_pathloss_monotone_above_floor():
    d = np.linspace(35.0, 5000.0, 200)
    pl = pathloss_db(d)
    assert np.all(np.diff(pl) > 0)


def test_pathloss_distance_floor():
    assert pathloss_db(1.0) == pathloss_db(35.0)
    assert pathloss_db(34.9) == pathloss_db(35.0)


def test_pathloss_rejects_nonpositive():
    with pytest.raises(ValueError):
        pathloss_db(0.0)
    with pytest.raises(ValueError):
        pathloss_db(np.array([100.0, -1.0]))


def test_shadowing_statistics():
    rng = np.random.default_rng(5)
    x = sample_shadowing(rng, size=100_000, std_db=8.0)
    assert abs(x.mean()) < 0.1
    assert x.std() == pytest.approx(8.0, abs=0.2)


def test_shadowing_seeded():
    a = sample_shadowing(np.random.default_rng(9), size=10)
    b = sample_shadowing(np.random.default_rng(9), size=10)
    np.testing.assert_array_equal(a, b)


def test_noise_power_value():
    n0 = noise_power(200e3, 290.0)
    assert n0 == pytest.approx(8.008e-16, rel=1e-3)


def test_noise_power_linear_in_bandwidth():
    assert noise_power(2 * 200e3, 290.0) == 2 * noise_power(200e3, 290.0)
    assert noise_power(1e-6, 290.0) < 1e-20


def test_noise_power_rejects_nonpositive():
    # noise_power's arguments come from SimConfig, which checks them when built
    with pytest.raises(ValueError):
        SimConfig(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        SimConfig(noise_temp_k=0.0)


@pytest.fixture
def small_scene():
    layout = build_hex_layout(1, 500.0)
    rng = np.random.default_rng(3)
    drop = drop_mobiles(layout, 3, rng)
    gains = build_link_gains(layout, drop, rng, 4)
    return layout, drop, gains


def test_gains_positive_finite(small_scene):
    _, _, gains = small_scene
    assert np.all(gains.gain > 0)
    assert np.all(np.isfinite(gains.gain))
    assert gains.gain.shape == (7, 21, 4)


def test_gains_seeded(small_scene):
    layout, drop, gains = small_scene
    again = build_link_gains(layout, drop, np.random.default_rng(3), 4)
    # note: drop_mobiles consumed part of rng 3; rebuild identically
    rng = np.random.default_rng(3)
    drop2 = drop_mobiles(layout, 3, rng)
    gains2 = build_link_gains(layout, drop2, rng, 4)
    np.testing.assert_array_equal(gains.gain, gains2.gain)


def test_fading_unit_mean():
    layout = build_hex_layout(0, 500.0)
    rng = np.random.default_rng(17)
    drop = drop_mobiles(layout, 10, rng)
    gains = build_link_gains(layout, drop, rng, 10_000, shadowing_std_db=0.0)
    d = np.linalg.norm(drop.flat_positions, axis=1)
    mean_gain = 10 ** (-pathloss_db(d) / 10.0)
    fading = gains.gain[0] / mean_gain[:, None]
    assert fading.mean() == pytest.approx(1.0, rel=0.02)


def test_pathloss_slope_via_scaled_drop():
    # doubling all distances cuts the median gain by ~37.6*log10(2) dB
    layout = build_hex_layout(0, 500.0)
    rng = np.random.default_rng(23)
    drop = drop_mobiles(layout, 500, rng)
    far = MobileDrop(positions=2.0 * drop.positions)
    g_near = build_link_gains(layout, drop, np.random.default_rng(1), 8)
    g_far = build_link_gains(layout, far, np.random.default_rng(1), 8)
    near_ok = np.linalg.norm(drop.flat_positions, axis=1) >= 35.0
    drop_db = 10 * np.log10(g_near.gain[0][near_ok] / g_far.gain[0][near_ok])
    assert np.median(drop_db) == pytest.approx(37.6 * np.log10(2), rel=0.02)


def _brute_force_sinr(gains, active, p_rb, n0):
    c_n, m_n, n_n = gains.gain.shape
    k_n = gains.mobiles_per_cell
    t_n = active.shape[2]
    out = np.empty((c_n, n_n, t_n, k_n))
    for c in range(c_n):
        for n in range(n_n):
            for t in range(t_n):
                for k in range(k_n):
                    m = c * k_n + k
                    interference = sum(
                        p_rb * gains.gain[cc, m, n]
                        for cc in range(c_n) if cc != c and active[cc, n, t])
                    out[c, n, t, k] = (p_rb * gains.gain[c, m, n]
                                       / (n0 + interference))
    return out


def test_sinr_matches_independent_reimplementation():
    layout = build_hex_layout(2, 500.0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        drop = drop_mobiles(layout, 2, rng)
        gains = build_link_gains(layout, drop, rng, 3)
        active = rng.random((19, 3, 4)) < 0.5
        got = compute_sinr(gains, active, 0.8, 8.008e-16)
        want = _brute_force_sinr(gains, active, 0.8, 8.008e-16)
        np.testing.assert_allclose(got, want, rtol=1e-9)


def _unit_gain_map():
    from dtxalign.channel import LinkGainMap
    return LinkGainMap(gain=np.ones((2, 4, 3)), mobiles_per_cell=2)


def test_sinr_noise_limited():
    gains = _unit_gain_map()
    active = np.zeros((2, 3, 2), dtype=bool)
    active[0] = True
    s = compute_sinr(gains, active, 0.8, 8.008e-16)
    np.testing.assert_allclose(s[0], 0.8 / 8.008e-16, rtol=1e-12)


def test_sinr_single_equal_interferer():
    gains = _unit_gain_map()
    active = np.ones((2, 3, 2), dtype=bool)
    s = compute_sinr(gains, active, 0.8, 8.008e-16)
    np.testing.assert_allclose(s, 1.0, rtol=1e-10)


def test_sinr_interferer_removal_monotone():
    layout = build_hex_layout(1, 500.0)
    rng = np.random.default_rng(31)
    drop = drop_mobiles(layout, 2, rng)
    gains = build_link_gains(layout, drop, rng, 3)
    for _ in range(25):
        active = rng.random((7, 3, 4)) < 0.7
        s_before = compute_sinr(gains, active, 0.8, 8.008e-16)
        cell = rng.integers(0, 7)
        slot = rng.integers(0, 4)
        quieter = active.copy()
        quieter[cell, :, slot] = False
        s_after = compute_sinr(gains, quieter, 0.8, 8.008e-16)
        others = [c for c in range(7) if c != cell]
        assert np.all(s_after[others] >= s_before[others] - 1e-18)


def test_sinr_all_dtx_except_serving_equals_noise_limited():
    layout = build_hex_layout(1, 500.0)
    rng = np.random.default_rng(37)
    drop = drop_mobiles(layout, 2, rng)
    gains = build_link_gains(layout, drop, rng, 3)
    active = np.zeros((7, 3, 4), dtype=bool)
    active[0, :, 1] = True
    s = compute_sinr(gains, active, 0.8, 8.008e-16)
    desired = 0.8 * gains.gain[0, 0:2, :]    # (K, N)
    np.testing.assert_allclose(s[0][:, 1, :], (desired / 8.008e-16).T)


def test_sinr_pattern_change_touches_only_that_slot():
    layout = build_hex_layout(1, 500.0)
    rng = np.random.default_rng(41)
    drop = drop_mobiles(layout, 2, rng)
    gains = build_link_gains(layout, drop, rng, 3)
    active = np.ones((7, 3, 4), dtype=bool)
    s_full = compute_sinr(gains, active, 0.8, 8.008e-16)
    active[3, :, 2] = False
    s_mod = compute_sinr(gains, active, 0.8, 8.008e-16)
    unchanged = [t for t in range(4) if t != 2]
    np.testing.assert_array_equal(s_full[0][:, unchanged, :],
                                  s_mod[0][:, unchanged, :])
    assert np.any(s_full[0][:, 2, :] != s_mod[0][:, 2, :])


def _per_cell_einsum_sinr(gains, active, p_rb, n0):
    """The earlier form of compute_sinr: one einsum over all cells for the
    total received power, then each serving cell's share taken out in a
    loop over cells."""
    g = gains.gain
    num_cells, _, n_sub = g.shape
    k_per = gains.mobiles_per_cell
    act = active.astype(float)
    n_slots = act.shape[2]
    total = p_rb * np.einsum("cmn,cnt->mnt", g, act)
    sinr = np.empty((num_cells, n_sub, n_slots, k_per))
    for c in range(num_cells):
        sel = slice(c * k_per, (c + 1) * k_per)
        desired = p_rb * g[c, sel, :]
        own = desired[:, :, None] * act[c][None, :, :]
        interference = total[sel] - own
        s = desired[:, :, None] / (n0 + interference)
        sinr[c] = s.transpose(1, 2, 0)
    return sinr


@pytest.mark.parametrize("tiers", [0, 1, 2, 3])
def test_sinr_bit_identical_to_per_cell_form(tiers):
    # the cells are summed in the same order, so not one bit may differ;
    # the shapes include the reference grid and the one-RB frame
    layout = build_hex_layout(tiers, 500.0)
    rng = np.random.default_rng(100 + tiers)
    for k_per, n_sub, n_slots in ((1, 1, 1), (3, 1, 4), (2, 5, 1), (4, 6, 3),
                                  (10, 50, 10)):
        drop = drop_mobiles(layout, k_per, rng)
        gains = build_link_gains(layout, drop, rng, n_sub)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            active = rng.random((layout.num_cells, n_sub, n_slots)) < density
            want = _per_cell_einsum_sinr(gains, active, 0.8, 8.008e-16)
            np.testing.assert_array_equal(
                compute_sinr(gains, active, 0.8, 8.008e-16), want)
            out = np.empty_like(want)
            assert compute_sinr(gains, active, 0.8, 8.008e-16, out=out) is out
            np.testing.assert_array_equal(out, want)
