import numpy as np
import pytest

from dtxalign.config import SimConfig
from dtxalign.power import PowerBreakdown, total_power
from dtxalign.scheduler import ScheduleMap

N, T, K = 50, 10, 10


def make_schedule(pi):
    pi = np.asarray(pi, dtype=int)
    return ScheduleMap(pi=pi, bits=np.where(pi > 0, 100.0, 0.0),
                       infeasible=np.zeros(K, dtype=bool))


def test_full_load_anchor_350w():
    # every RB scheduled: 200 idle + 3.75 * 0.8 * 50 transmit
    sched = make_schedule(np.ones((N, T)))
    assert total_power(sched, SimConfig()).total_w == pytest.approx(350.0)


def test_all_dtx_anchor_90w():
    sched = make_schedule(np.zeros((N, T)))
    bd = total_power(sched, SimConfig())
    assert bd.total_w == pytest.approx(90.0)
    assert bd.tx_part_w == 0.0 and bd.idle_part_w == 0.0


def test_partial_load_anchor_159w():
    # 3 active slots carrying 120 RBs total, 7 DTX slots:
    # 90*0.7 + 3*120/10 + 200*0.3 = 63 + 36 + 60 = 159
    pi = np.zeros((N, T), dtype=int)
    pi[:40, :3] = 1
    sched = make_schedule(pi)
    bd = total_power(sched, SimConfig())
    assert bd.t_s == 7
    assert bd.n_tx_avg == pytest.approx(12.0)
    assert bd.total_w == pytest.approx(159.0)


def test_breakdown_parts_sum_to_total():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pi = (rng.random((N, T)) < rng.random()) * rng.integers(1, K + 1)
        bd = total_power(make_schedule(pi), SimConfig())
        assert bd.total_w == bd.sleep_part_w + bd.tx_part_w + bd.idle_part_w


def test_power_bounds_and_monotonicity():
    params = SimConfig()
    rng = np.random.default_rng(5)
    pi = np.zeros((N, T), dtype=int)
    prev = total_power(make_schedule(pi), params).total_w
    assert prev == pytest.approx(90.0)
    # adding RBs one slot at a time never lowers power
    for t in range(T):
        pi[: rng.integers(1, N + 1), t] = 1
        cur = total_power(make_schedule(pi), params).total_w
        assert cur >= prev
        prev = cur
    assert prev <= 350.0 + 1e-9


def test_sleep_cheaper_than_idle():
    empty_slot = np.zeros((N, T), dtype=int)
    one_rb = empty_slot.copy()
    one_rb[0, 0] = 1
    params = SimConfig()
    sleeping = total_power(make_schedule(empty_slot), params).total_w
    active = total_power(make_schedule(one_rb), params).total_w
    # waking one slot for a single RB costs (200-90)/10 + 3*0.1 = 11.3 W
    assert active - sleeping == pytest.approx(11.3)


def test_params_validation():
    with pytest.raises(ValueError):
        SimConfig(p_sleep_w=-1.0).validate()
    with pytest.raises(ValueError):
        SimConfig(load_factor=-0.1).validate()


def test_breakdown_fields():
    pi = np.zeros((N, T), dtype=int)
    pi[:, 4] = 2
    bd = total_power(make_schedule(pi), SimConfig())
    assert isinstance(bd, PowerBreakdown)
    assert bd.t_s == 9
    assert bd.n_tx_avg == pytest.approx(5.0)
    assert bd.sleep_part_w == pytest.approx(81.0)
    assert bd.idle_part_w == pytest.approx(20.0)
    assert bd.tx_part_w == pytest.approx(15.0)
