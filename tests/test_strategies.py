import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtxalign.config import STRATEGIES, SimConfig
from dtxalign.strategies import (SlotPriorities, memory_update,
                                 rank_by_capacity, slot_sum_capacity)


def one_cell(strategy, n_slots, seed=0, **kwargs):
    cfg = SimConfig(strategy=strategy, slots=n_slots, **kwargs)
    return SlotPriorities(cfg, [np.random.default_rng(seed)])


def step1(state, b, used=None):
    """One step of a one-cell state, as a tuple of ints."""
    b = np.asarray(b, dtype=float)
    used = np.ones(len(b), dtype=bool) if used is None else used
    return tuple(int(t) for t in state.step(b[None], np.asarray(used)[None])[0])


def test_sum_capacity_zero_sinr():
    s = np.zeros((4, 3, 2))
    np.testing.assert_array_equal(slot_sum_capacity(s), np.zeros(3))


def test_sum_capacity_exact_logs():
    s = np.zeros((2, 1, 1))
    s[0, 0, 0] = 1.0
    s[1, 0, 0] = 3.0
    assert slot_sum_capacity(s)[0] == pytest.approx(3.0)


def test_sum_capacity_matches_brute_force():
    rng = np.random.default_rng(2)
    s = rng.exponential(2.0, size=(5, 4, 3))
    b = slot_sum_capacity(s)
    for t in range(4):
        ref = sum(np.log2(1 + s[n, t, k]) for n in range(5) for k in range(3))
        assert b[t] == pytest.approx(ref, rel=1e-12)


def test_sum_capacity_every_cell_in_place():
    rng = np.random.default_rng(3)
    s = rng.exponential(2.0, size=(3, 5, 4, 2))
    per_cell = np.array([slot_sum_capacity(cell) for cell in s])
    buf = s.copy()
    np.testing.assert_array_equal(slot_sum_capacity(buf, out=buf), per_cell)
    np.testing.assert_array_equal(buf, np.log2(1.0 + s))


def test_sequential():
    b = np.array([1.0, 3.0, 2.0])
    assert step1(one_cell("sequential", 3), b) == (0, 1, 2)
    state = one_cell("sequential", 10)
    assert step1(state, np.ones(10)) == tuple(range(10))
    assert step1(state, np.ones(10)) == step1(state, np.arange(10.0))
    with pytest.raises(ValueError):
        SimConfig(strategy="sequential", slots=0)


def test_random_priority_single_slot():
    assert step1(one_cell("random", 1), [1.0]) == (0,)


def test_random_priority_uniform_over_permutations():
    state = one_cell("random", 3, seed=8)
    b = np.ones(3)
    counts = {}
    n = 60_000
    for _ in range(n):
        counts[step1(state, b)] = counts.get(step1(state, b), 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert c / n == pytest.approx(1 / 6, rel=0.02)


def test_rank_by_capacity_ties_to_lower_index():
    assert tuple(rank_by_capacity(np.array([2.0, 5.0, 2.0]))) == (1, 0, 2)
    assert tuple(rank_by_capacity(np.array([1.0, 1.0, 1.0]))) == (0, 1, 2)


def _p_persistent(p, prev, rng):
    """One-cell p_persistent state on rng whose previous row is prev.

    Its first step adopts the ranking of the capacities without a draw,
    so every later step draws from rng once, as a call given prev did.
    """
    state = SlotPriorities(
        SimConfig(strategy="p_persistent", slots=len(prev), p_persist=p), [rng])
    b_prev = np.empty(len(prev))
    b_prev[list(prev)] = np.arange(len(prev), 0, -1)
    assert step1(state, b_prev) == tuple(prev)
    return state


def test_p_persistent_degenerate_p():
    rng = np.random.default_rng(1)
    b = np.array([1.0, 3.0, 2.0])
    prev = (0, 1, 2)
    for _ in range(20):
        assert step1(_p_persistent(1.0, prev, rng), b) == (1, 2, 0)
        assert step1(_p_persistent(0.0, prev, rng), b) == prev


def test_p_persistent_first_frame_adopts():
    state = one_cell("p_persistent", 3, seed=1, p_persist=0.0)
    assert step1(state, np.array([1.0, 3.0, 2.0])) == (1, 2, 0)


def test_p_persistent_adoption_rate():
    rng = np.random.default_rng(44)
    b = np.array([1.0, 3.0, 2.0])
    prev = (0, 1, 2)           # distinct from the fresh ranking (1, 2, 0)
    n = 100_000
    adopted = sum(step1(_p_persistent(0.3, prev, rng), b) == (1, 2, 0)
                  for _ in range(n))
    assert adopted / n == pytest.approx(0.30, abs=0.01)


def test_p_persistent_rejects_bad_p():
    with pytest.raises(ValueError):
        SimConfig(strategy="p_persistent", p_persist=1.5)


# three-slot worked walkthrough, slots a=0, b=1, c=2
def _update(psi, used, b):
    mask = np.zeros(3, dtype=bool)
    mask[list(used)] = True
    psi, v = memory_update(np.array(psi), mask, b, psi_ul=5, psi_ll=0)
    return list(psi), tuple(int(t) for t in v)


def _capacities(order):
    b = np.empty(3)
    for rank, slot in enumerate(order):
        b[slot] = 3 - rank
    return b


def test_memory_walkthrough_step1():
    psi, v = _update([0, 2, 5], {2}, _capacities((1, 2, 0)))
    assert psi == [0, 3, 5]
    assert v == (2, 1, 0)


def test_memory_walkthrough_step2():
    psi, v = _update([0, 3, 5], {1, 2}, _capacities((1, 2, 0)))
    assert psi == [0, 5, 5]
    assert v == (1, 2, 0)


def test_memory_walkthrough_step3():
    psi, v = _update([0, 5, 5], {1}, _capacities((1, 0, 2)))
    assert psi == [0, 5, 4]
    assert v == (1, 2, 0)


def test_memory_leader_double_increment():
    # slot used last frame and top ranked gains two points
    psi, _ = _update([0, 3, 5], {1, 2}, _capacities((1, 2, 0)))
    assert psi[1] == 5


def test_memory_fixed_point_at_saturation():
    psi, _ = _update([5, 5, 5], {0, 1, 2}, _capacities((0, 1, 2)))
    assert psi == [5, 5, 5]


@st.composite
def memory_cases(draw):
    n_slots = draw(st.integers(2, 12))
    psi_ll = draw(st.integers(-3, 2))
    psi_ul = draw(st.integers(psi_ll, psi_ll + 8))
    psi = draw(st.lists(st.integers(psi_ll, psi_ul),
                        min_size=n_slots, max_size=n_slots))
    used = draw(st.lists(st.booleans(), min_size=n_slots, max_size=n_slots))
    b = draw(st.lists(st.floats(0, 1e6, allow_nan=False),
                      min_size=n_slots, max_size=n_slots))
    return psi, psi_ul, psi_ll, used, b


@given(memory_cases())
@settings(max_examples=300)
def test_memory_update_properties(case):
    psi, psi_ul, psi_ll, used, b = case
    new, v = memory_update(np.array(psi), np.array(used), np.array(b),
                           psi_ul, psi_ll)
    n_slots = len(psi)
    assert sorted(v) == list(range(n_slots))
    assert np.all(new >= psi_ll) and np.all(new <= psi_ul)
    # a used slot never ends below an unused non-leader slot that started equal
    leader = rank_by_capacity(np.array(b))[0]
    for i in range(n_slots):
        for j in range(n_slots):
            if used[i] and not used[j] and j != leader and psi[i] == psi[j]:
                assert new[i] >= new[j]


@given(st.integers(2, 10), st.integers(0, 6))
@settings(max_examples=100)
def test_ranking_invariant_under_monotone_transform(n_slots, seed):
    rng = np.random.default_rng(seed)
    b = rng.exponential(1.0, n_slots)
    assert tuple(rank_by_capacity(b)) == tuple(rank_by_capacity(np.exp(b) * 3.0))


def test_memory_strategy_initialization():
    state = one_cell("memory", 4, psi_ul=5, psi_ll=0)
    assert state.psi.tolist() == [[0, 0, 0, 0]]
    v = step1(state, np.array([1.0, 4.0, 2.0, 3.0]))
    assert sorted(v) == [0, 1, 2, 3]
    # every slot used in the full-power start: each gains a point, and the
    # leader (slot 1) one more
    assert state.psi.tolist() == [[1, 2, 1, 1]]


def test_score_state_validation():
    with pytest.raises(ValueError):
        SimConfig(psi_ul=0, psi_ll=1)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cells_step_independently(strategy):
    """A C-cell step equals C one-cell states fed the same RNG streams."""
    n_cells, n_slots = 5, 6
    cfg = SimConfig(strategy=strategy, slots=n_slots)
    many = SlotPriorities(cfg, [np.random.default_rng(c) for c in range(n_cells)])
    singles = [SlotPriorities(cfg, [np.random.default_rng(c)])
               for c in range(n_cells)]
    rng = np.random.default_rng(99)
    for _ in range(8):
        b = rng.exponential(1.0, (n_cells, n_slots))
        used = rng.random((n_cells, n_slots)) < 0.5
        rows = many.step(b, used)
        assert rows.shape == (n_cells, n_slots)
        for c, single in enumerate(singles):
            np.testing.assert_array_equal(
                rows[c], single.step(b[c:c + 1], used[c:c + 1])[0])
            np.testing.assert_array_equal(many.psi[c], single.psi[0])


@st.composite
def step_cases(draw):
    n_cells = draw(st.integers(1, 6))
    n_slots = draw(st.integers(1, 12))
    psi_ll = draw(st.integers(-3, 2))
    psi_ul = draw(st.integers(psi_ll, psi_ll + 8))
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    n_frames = draw(st.integers(1, 6))
    return n_cells, n_slots, psi_ll, psi_ul, p, seed, n_frames


@given(step_cases())
@settings(max_examples=200, deadline=None)
def test_every_row_is_a_permutation(case):
    n_cells, n_slots, psi_ll, psi_ul, p, seed, n_frames = case
    for strategy in STRATEGIES:
        cfg = SimConfig(strategy=strategy, slots=n_slots, p_persist=p,
                        psi_ul=psi_ul, psi_ll=psi_ll)
        state = SlotPriorities(cfg, [np.random.default_rng([seed, c])
                                     for c in range(n_cells)])
        rng = np.random.default_rng(seed)
        for _ in range(n_frames):
            b = rng.exponential(1.0, (n_cells, n_slots))
            used = rng.random((n_cells, n_slots)) < 0.5
            rows = state.step(b, used)
            assert rows.shape == (n_cells, n_slots)
            for row in rows:
                assert sorted(row.tolist()) == list(range(n_slots))
            if strategy == "memory":
                assert np.all(state.psi >= psi_ll)
                assert np.all(state.psi <= psi_ul)
