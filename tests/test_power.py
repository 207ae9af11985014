import numpy as np
import pytest

from dtxalign.config import SimConfig
from dtxalign.power import price_cells

N, T, K = 50, 10, 10


def test_full_load_anchor_350w():
    # every RB scheduled: 200 idle + 3.75 * 0.8 * 50 transmit
    assert price_cells(np.ones((N, T), dtype=int), SimConfig()) \
        == pytest.approx(350.0)


def test_all_dtx_anchor_90w():
    total = price_cells(np.zeros((N, T), dtype=int), SimConfig())
    assert total == pytest.approx(90.0)
    # exactly the sleep power: no transmit and no idle term
    assert total == SimConfig().p_sleep_w


def test_partial_load_anchor_159w():
    # 3 active slots carrying 120 RBs total, 7 DTX slots:
    # 90*0.7 + 3*120/10 + 200*0.3 = 63 + 36 + 60 = 159
    pi = np.zeros((N, T), dtype=int)
    pi[:40, :3] = 1
    assert price_cells(pi, SimConfig()) == pytest.approx(159.0)


def slot_loop_power(pi, config):
    """Frame-average power of one cell's (N, T) map, priced slot by slot:
    sleep power in a DTX slot, otherwise idle power plus the transmit
    cost of the slot's RBs."""
    total = 0.0
    for t in range(pi.shape[1]):
        n_rbs = np.count_nonzero(pi[:, t])
        if n_rbs == 0:
            total += config.p_sleep_w
        else:
            total += config.p_idle_w \
                + config.load_factor * config.p_rb_w * n_rbs
    return total / pi.shape[1]


def test_price_cells_matches_slot_loop():
    config = SimConfig()
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = rng.integers(1, 6)
        busy = rng.random((c, 1, T)) < rng.random()
        pi = (busy & (rng.random((c, N, T)) < rng.random())) \
            * rng.integers(1, K + 1, size=(c, N, T))
        totals = price_cells(pi, config)
        assert totals.shape == (c,)
        for row, total in zip(pi, totals):
            assert price_cells(row, config) == total
            assert total == pytest.approx(slot_loop_power(row, config),
                                          rel=1e-12)


def test_power_bounds_and_monotonicity():
    params = SimConfig()
    rng = np.random.default_rng(5)
    pi = np.zeros((N, T), dtype=int)
    prev = price_cells(pi, params)
    assert prev == pytest.approx(90.0)
    # adding RBs one slot at a time never lowers power
    for t in range(T):
        pi[: rng.integers(1, N + 1), t] = 1
        cur = price_cells(pi, params)
        assert cur >= prev
        prev = cur
    assert prev <= 350.0 + 1e-9


def test_sleep_cheaper_than_idle():
    empty_slot = np.zeros((N, T), dtype=int)
    one_rb = empty_slot.copy()
    one_rb[0, 0] = 1
    params = SimConfig()
    sleeping = price_cells(empty_slot, params)
    active = price_cells(one_rb, params)
    # waking one slot for a single RB costs (200-90)/10 + 3*0.1 = 11.3 W
    assert active - sleeping == pytest.approx(11.3)


def test_one_busy_slot_116w():
    # 9 DTX slots and one slot carrying all 50 RBs, 5 per slot on average:
    # 90*0.9 + 200*0.1 + 3*5 = 81 + 20 + 15
    pi = np.zeros((N, T), dtype=int)
    pi[:, 4] = 2
    assert price_cells(pi, SimConfig()) == pytest.approx(116.0)
