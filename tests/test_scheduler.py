import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dtxalign.scheduler import (allocate_cells, allocate_from_bits,
                                scheduled_rbs)

BW = 200e3
DT = 1e-3


def test_scheduled_rbs_matches_loop():
    rng = np.random.default_rng(19)
    for shape in [(6, 4, 3), (3, 5, 2, 4), (1, 1, 1), (2, 3, 4, 1),
                  "strided"] * 5:
        if shape == "strided":
            # a view into a larger array, contiguous along no axis
            bits = rng.exponential(300.0, size=(5, 9, 4, 7))[1::2, ::3, ::-1,
                                                            1:6:2]
        else:
            bits = rng.exponential(300.0, size=shape)
        k_mob = bits.shape[-1]
        pi = rng.integers(0, k_mob + 1, size=bits.shape[:-1])
        pi.reshape(-1)[0] = 0                    # one unassigned RB at least
        for maps in (pi, np.zeros_like(pi)):     # the second schedules none
            at, bins, got = [], [], []
            for idx in np.ndindex(maps.shape):   # RB order
                if maps[idx] > 0:
                    rb = idx + (maps[idx] - 1,)
                    at.append(np.ravel_multi_index(rb, bits.shape))
                    bins.append(idx[0] * k_mob + maps[idx] - 1)
                    got.append(bits[rb])
            for want, have in zip((at, bins, got), scheduled_rbs(maps, bits)):
                assert have.shape == (len(want),)
                np.testing.assert_array_equal(have, want)


def oracle_allocate(priority, est_bits, targets):
    """Straightforward loop equivalent of the greedy sequential fill."""
    n_sub, n_slots, k_mob = est_bits.shape
    pi = np.zeros((n_sub, n_slots), dtype=int)
    infeasible = np.zeros(k_mob, dtype=bool)
    for k in range(k_mob):
        need = targets[k]
        for t in priority:
            for n in range(n_sub):
                if need <= 0:
                    break
                if pi[n, t] == 0 and est_bits[n, t, k] > 0:
                    pi[n, t] = k + 1
                    need -= est_bits[n, t, k]
            if need <= 0:
                break
        if need > 0:
            infeasible[k] = True
    return pi, infeasible


def random_instance(rng, n_sub=6, n_slots=4, k_mob=3, zero_frac=0.3):
    est = rng.exponential(300.0, size=(n_sub, n_slots, k_mob))
    est[rng.random(est.shape) < zero_frac] = 0.0
    targets = rng.uniform(100.0, 3000.0, size=k_mob)
    priority = tuple(rng.permutation(n_slots).astype(int))
    return priority, est, targets


def test_allocate_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        priority, est, targets = random_instance(rng)
        sched = allocate_from_bits(priority, est, targets)
        pi_ref, inf_ref = oracle_allocate(priority, est, targets)
        np.testing.assert_array_equal(sched.pi, pi_ref)
        np.testing.assert_array_equal(sched.infeasible, inf_ref)


def test_rate_guarantee_when_feasible():
    rng = np.random.default_rng(11)
    for _ in range(200):
        priority, est, targets = random_instance(rng, n_sub=10, n_slots=5)
        sched = allocate_from_bits(priority, est, targets)
        got = np.bincount(sched.pi.ravel(), sched.bits.ravel(),
                          len(targets) + 1)[1:]
        for k in range(len(targets)):
            if not sched.infeasible[k]:
                assert got[k] >= targets[k] - 1e-9


def test_minimality_last_rb_necessary():
    rng = np.random.default_rng(13)
    for _ in range(200):
        priority, est, targets = random_instance(rng, n_sub=10, n_slots=5)
        sched = allocate_from_bits(priority, est, targets)
        # consumption order: slots by priority, subcarriers ascending
        t_idx = np.repeat(priority, est.shape[0])
        n_idx = np.tile(np.arange(est.shape[0]), len(priority))
        for k in range(len(targets)):
            if sched.infeasible[k]:
                continue
            mine = np.nonzero(sched.pi[n_idx, t_idx] == k + 1)[0]
            bits = sched.bits[n_idx[mine], t_idx[mine]]
            # dropping the last consumed RB must break the target
            assert bits[:-1].sum() < targets[k]


def test_no_double_assignment_and_bits_consistency():
    rng = np.random.default_rng(17)
    for _ in range(100):
        priority, est, targets = random_instance(rng)
        sched = allocate_from_bits(priority, est, targets)
        mask = sched.pi > 0
        assert np.all(sched.bits[~mask] == 0)
        np.testing.assert_array_equal(
            sched.bits[mask],
            est[mask.nonzero()[0], mask.nonzero()[1], sched.pi[mask] - 1])


def test_infeasible_keeps_grabbed_rbs():
    est = np.full((2, 1, 1), 100.0)
    sched = allocate_from_bits((0,), est, np.array([500.0]))
    assert sched.infeasible[0]
    assert sched.num_scheduled_rbs == 2


def test_infeasible_mobile_blocks_later_mobile():
    # mobile 1 exhausts the grid chasing an unreachable target, so mobile 2
    # finds nothing even though its own demand is tiny
    est = np.full((2, 1, 2), 100.0)
    sched = allocate_from_bits((0,), est, np.array([500.0, 50.0]))
    assert sched.infeasible.tolist() == [True, True]
    assert np.all(sched.pi == 1)


def test_zero_target_takes_no_rb():
    est = np.full((3, 2, 2), 100.0)
    sched = allocate_from_bits((0, 1), est, [0.0, 150.0])
    # mobile 1 takes nothing, so mobile 2 starts at the first RB
    assert sched.pi[:, 0].tolist() == [2, 2, 0]
    assert sched.num_scheduled_rbs == 2
    assert sched.infeasible.tolist() == [False, False]
    pi_ref, inf_ref = oracle_allocate((0, 1), est, [0.0, 150.0])
    np.testing.assert_array_equal(sched.pi, pi_ref)
    np.testing.assert_array_equal(sched.infeasible, inf_ref)
    # a zero target is met even when no RB is left for it
    sched = allocate_from_bits((0,), np.full((1, 1, 2), 100.0), [500.0, 0.0])
    assert sched.pi.tolist() == [[1]]
    assert sched.infeasible.tolist() == [True, False]


def test_zero_rate_rbs_skipped():
    est = np.zeros((3, 2, 1))
    est[1, 1, 0] = 400.0
    sched = allocate_from_bits((0, 1), est, np.array([300.0]))
    assert sched.pi[1, 1] == 1
    assert sched.num_scheduled_rbs == 1
    assert not sched.infeasible[0]


def test_slot_used_and_dtx_counts():
    est = np.full((4, 3, 2), 250.0)
    sched = allocate_from_bits((2, 0, 1), est, np.array([900.0, 400.0]))
    # mobile 1 takes 4 RBs (slot 2), mobile 2 takes 2 RBs (slot 0)
    assert (sched.pi > 0).any(axis=0).tolist() == [True, False, True]
    assert sched.num_scheduled_rbs == 6


def test_exact_target_takes_minimal_rbs():
    est = np.full((5, 1, 1), 200.0)
    sched = allocate_from_bits((0,), est, np.array([400.0]))
    assert sched.num_scheduled_rbs == 2


def test_high_priority_slots_fill_first():
    est = np.full((2, 4, 1), 200.0)
    sched = allocate_from_bits((3, 1, 0, 2), est, np.array([1000.0]))
    # 5 RBs: both subcarriers of slots 3 and 1, then one of slot 0
    assert sched.pi[:, 3].tolist() == [1, 1]
    assert sched.pi[:, 1].tolist() == [1, 1]
    assert sched.pi[:, 0].tolist() == [1, 0]
    assert sched.pi[:, 2].tolist() == [0, 0]


def test_allocate_wraps_sinr():
    est_sinr = np.full((2, 1, 1), 3.0)     # 400 bits per RB
    sched = allocate_from_bits((0,), BW * DT * np.log2(1.0 + est_sinr),
                               np.array([700.0]))
    assert sched.num_scheduled_rbs == 2
    assert not sched.infeasible[0]


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_allocate_property_vs_oracle(seed):
    rng = np.random.default_rng(seed)
    priority, est, targets = random_instance(
        rng, n_sub=rng.integers(1, 8), n_slots=rng.integers(1, 6),
        k_mob=rng.integers(1, 5))
    sched = allocate_from_bits(priority, est, targets)
    pi_ref, inf_ref = oracle_allocate(priority, est, targets)
    np.testing.assert_array_equal(sched.pi, pi_ref)
    np.testing.assert_array_equal(sched.infeasible, inf_ref)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_allocate_cells_equals_oracle_per_cell(seed):
    # one call for C cells, each with its own priority row, rates (zero-rate
    # RBs included) and targets (unreachable and zero ones included)
    rng = np.random.default_rng(seed)
    n_cells, n_sub = rng.integers(1, 5), rng.integers(1, 8)
    n_slots, k_mob = rng.integers(1, 6), rng.integers(1, 5)
    est = rng.exponential(300.0, size=(n_cells, n_sub, n_slots, k_mob))
    est[rng.random(est.shape) < rng.uniform(0.0, 0.6)] = 0.0
    targets = rng.uniform(100.0, 3000.0, size=k_mob)
    targets[rng.random(k_mob) < 0.2] = 0.0
    priorities = np.array([rng.permutation(n_slots) for _ in range(n_cells)])
    pi, infeasible = allocate_cells(priorities, est, targets)
    at, _, planned = scheduled_rbs(pi, est)
    bits = np.zeros(pi.shape)
    bits.flat[at // k_mob] = planned
    assert pi.shape == bits.shape == (n_cells, n_sub, n_slots)
    assert infeasible.shape == (n_cells, k_mob)
    for c in range(n_cells):
        pi_ref, inf_ref = oracle_allocate(tuple(priorities[c]), est[c], targets)
        np.testing.assert_array_equal(pi[c], pi_ref)
        np.testing.assert_array_equal(infeasible[c], inf_ref)
        mask = pi_ref > 0
        np.testing.assert_array_equal(
            bits[c][mask],
            est[c][mask.nonzero()[0], mask.nonzero()[1], pi_ref[mask] - 1])
        assert np.all(bits[c][~mask] == 0)
