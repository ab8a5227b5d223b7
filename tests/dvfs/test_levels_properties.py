"""Property-based tests for level selection and the deadline epsilon.

Hand-picked constants can only probe the boundaries someone thought
of; these generate (cycles, budget, margin) triples and whole float
neighborhoods around the exact-fit frontier.  Requires ``hypothesis``
(a dev extra) — skipped cleanly where it is absent.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.dvfs import (  # noqa: E402
    ASIC_VOLTAGES,
    AsicVfModel,
    build_level_table,
    select_level,
)
from repro.units import MHZ, TIME_EPS_REL, deadline_missed  # noqa: E402

#: One table for the whole module — characterization is deterministic.
LEVELS = build_level_table(AsicVfModel.characterize(100 * MHZ),
                           ASIC_VOLTAGES)

cycles_st = st.floats(min_value=0.0, max_value=1e9,
                      allow_nan=False, allow_infinity=False)
budget_st = st.floats(min_value=1e-6, max_value=1.0,
                      allow_nan=False, allow_infinity=False)
margin_st = st.floats(min_value=0.0, max_value=0.5,
                      allow_nan=False, allow_infinity=False)
boost_st = st.booleans()


@settings(deadline=None)
@given(cycles=cycles_st, budgets=st.tuples(budget_st, budget_st),
       margin=margin_st, boost=boost_st)
def test_select_level_monotone_in_budget(cycles, budgets, margin, boost):
    """A looser deadline never selects a faster level."""
    tight, loose = sorted(budgets)
    fast = select_level(LEVELS, cycles, tight, margin_fraction=margin,
                        allow_boost=boost)
    slow = select_level(LEVELS, cycles, loose, margin_fraction=margin,
                        allow_boost=boost)
    assert fast.point.frequency >= slow.point.frequency
    # Feasibility is monotone too: what fits in tight fits in loose.
    if fast.feasible:
        assert slow.feasible


@settings(deadline=None)
@given(cycles=st.tuples(cycles_st, cycles_st), budget=budget_st,
       margin=margin_st, boost=boost_st)
def test_select_level_monotone_in_cycles(cycles, budget, margin, boost):
    """A bigger prediction never selects a slower level."""
    small, large = sorted(cycles)
    a = select_level(LEVELS, small, budget, margin_fraction=margin,
                     allow_boost=boost)
    b = select_level(LEVELS, large, budget, margin_fraction=margin,
                     allow_boost=boost)
    assert b.point.frequency >= a.point.frequency
    if b.feasible:
        assert a.feasible


@settings(deadline=None)
@given(cycles=cycles_st, budget=budget_st, margin=margin_st,
       boost=boost_st)
def test_selected_level_is_minimal(cycles, budget, margin, boost):
    """The selected point is the *slowest* one meeting f_required."""
    decision = select_level(LEVELS, cycles, budget,
                            margin_fraction=margin, allow_boost=boost)
    if not decision.feasible:
        assert decision.point == LEVELS.fastest(allow_boost=boost)
        assert all(p.frequency < decision.f_required for p in LEVELS)
        return
    assert decision.point.frequency >= decision.f_required
    slower = [p for p in LEVELS
              if p.frequency < decision.point.frequency]
    assert all(p.frequency < decision.f_required for p in slower)


@settings(deadline=None)
@given(f_required=st.floats(min_value=0.0, max_value=1e10,
                            allow_nan=False),
       boost=boost_st)
def test_lowest_meeting_matches_brute_force(f_required, boost):
    candidates = list(LEVELS.points)
    if boost and LEVELS.boost is not None:
        candidates.append(LEVELS.boost)
    meeting = [p for p in candidates if p.frequency >= f_required]
    expected = (min(meeting, key=lambda p: p.frequency)
                if meeting else None)
    assert LEVELS.lowest_meeting(f_required, allow_boost=boost) \
        == expected


@settings(deadline=None)
@given(k=st.integers(min_value=-30, max_value=0),
       level=st.integers(min_value=0, max_value=len(LEVELS) - 1))
def test_exact_fit_boundary(k, level):
    """At exactly-fitting cycle counts the level still qualifies; one
    ULP more cycles pushes selection to the next-faster level.

    Power-of-two budgets make ``cycles / budget`` reproduce the
    level's frequency bit-exactly, so this probes the true float
    boundary rather than a safely-distant constant.
    """
    budget = 2.0 ** k
    point = LEVELS.points[level]
    cycles = point.frequency * budget  # exact: scaling by 2**k
    decision = select_level(LEVELS, cycles, budget)
    assert decision.feasible
    assert decision.point == point

    bumped = select_level(LEVELS, math.nextafter(cycles, math.inf),
                          budget)
    if level == len(LEVELS) - 1:
        assert not bumped.feasible  # past nominal: run flat out
    else:
        assert bumped.point == LEVELS.points[level + 1]
        assert bumped.point.frequency > point.frequency


@settings(deadline=None)
@given(budget=budget_st, cycles=cycles_st,
       overhead=st.floats(min_value=0.0, max_value=2.0,
                          allow_nan=False))
def test_no_time_left_is_never_feasible(budget, cycles, overhead):
    """Overheads at or beyond the budget force the flat-out fallback."""
    t_slice = budget + overhead
    decision = select_level(LEVELS, cycles, budget, t_slice=t_slice)
    if cycles > 0.0:
        assert not decision.feasible
        assert decision.f_required == math.inf
    assert decision.point == LEVELS.fastest()


# -- the deadline epsilon predicate ----------------------------------

deadline_st = st.floats(min_value=1e-6, max_value=10.0,
                        allow_nan=False, allow_infinity=False)
release_factor_st = st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(deadline=deadline_st, factor=release_factor_st,
       k=st.floats(min_value=-1.0, max_value=0.0, allow_nan=False))
def test_on_time_is_never_missed(deadline, factor, k):
    """finish <= release + deadline can never be flagged missed."""
    release = deadline * factor
    finish = (release + deadline) + k * deadline
    assert not deadline_missed(finish, release, deadline)


@settings(deadline=None)
@given(deadline=deadline_st, factor=release_factor_st,
       k=st.floats(min_value=2 * TIME_EPS_REL, max_value=1.0,
                   allow_nan=False))
def test_clear_overrun_is_always_missed(deadline, factor, k):
    """Overruns of at least 2 epsilon are always flagged."""
    release = deadline * factor
    finish = (release + deadline) + k * deadline
    assert deadline_missed(finish, release, deadline)


@settings(deadline=None)
@given(deadline=deadline_st, factor=release_factor_st,
       k=st.floats(min_value=-1e-10, max_value=1e-10,
                   allow_nan=False))
def test_rounding_noise_is_forgiven(deadline, factor, k):
    """Jitter an order of magnitude below epsilon never flags."""
    release = deadline * factor
    finish = (release + deadline) + k * deadline
    assert not deadline_missed(finish, release, deadline)
