from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edcert.curvebounds import (
    NOT_OBSTRUCTED,
    OBSTRUCTED,
    UNKNOWN,
    CastelnuovoInput,
    castelnuovo_bound,
    gonality_obstruction,
    hurwitz_min_genus,
    riemann_genus_cap,
    tower_genus_bound,
)
from edcert.errors import ValidationError

small = st.integers(min_value=1, max_value=40)
genus = st.integers(min_value=0, max_value=40)


def test_castelnuovo_examples():
    assert castelnuovo_bound(CastelnuovoInput(2, 0, 2, 0)) == 1
    assert castelnuovo_bound(CastelnuovoInput(2, 0, 3, 1)) == 5


@given(genus, small, genus)
def test_castelnuovo_degenerate_degree_one(g, k, h):
    assert castelnuovo_bound(CastelnuovoInput(1, g, k, h)) == g + k * h


@given(small, genus, small, genus)
def test_castelnuovo_monotone(n1, g1, n2, g2):
    base = castelnuovo_bound(CastelnuovoInput(n1, g1, n2, g2))
    assert castelnuovo_bound(CastelnuovoInput(n1 + 1, g1, n2, g2)) >= base
    assert castelnuovo_bound(CastelnuovoInput(n1, g1 + 1, n2, g2)) >= base
    assert castelnuovo_bound(CastelnuovoInput(n1, g1, n2 + 1, g2)) >= base
    assert castelnuovo_bound(CastelnuovoInput(n1, g1, n2, g2 + 1)) >= base


def test_castelnuovo_validation():
    with pytest.raises(ValidationError):
        CastelnuovoInput(0, 0, 1, 0)
    with pytest.raises(ValidationError):
        CastelnuovoInput(1, -1, 1, 0)


def test_tower_bound_values():
    assert tower_genus_bound(6, 1) == 25
    assert tower_genus_bound(6, 6) == 25
    assert tower_genus_bound(6, 2) == Fraction(36, 2) - 18 + 12 + 1 == 13
    assert tower_genus_bound(4, 2) == 5
    assert isinstance(tower_genus_bound(6, 2), Fraction)


def test_tower_bound_domain():
    with pytest.raises(ValidationError, match="does not divide"):
        tower_genus_bound(6, 4)
    with pytest.raises(ValidationError, match="defined for n >= 2"):
        tower_genus_bound(1, 1)


def test_tower_bound_capped_by_square_small_range():
    for n in range(2, 61):
        cap = (n - 1) ** 2
        for m in range(1, n + 1):
            if n % m:
                continue
            value = tower_genus_bound(n, m)
            assert value <= cap
            assert (value == cap) == (m in (1, n))


def test_tower_bound_critical_point_sign_change():
    # d/dt of the bound is n - (n/t)^2, so the unique positive critical
    # point sits at t = sqrt(n): negative just below, positive just above
    from math import isqrt

    for n in (2, 3, 6, 10, 30, 100):
        def derivative(t: Fraction) -> Fraction:
            return n - (Fraction(n) / t) ** 2

        denom = 1000
        k = isqrt(n * denom * denom)  # k/denom <= sqrt(n) < (k+1)/denom
        t_below = Fraction(k - 1, denom)
        t_above = Fraction(k + 1, denom)
        assert derivative(t_below) < 0
        assert derivative(t_above) > 0
        if k * k == n * denom * denom:  # sqrt(n) rational: exact critical point
            assert derivative(Fraction(k, denom)) == 0


def test_riemann_genus_cap():
    assert riemann_genus_cap(1) == 0
    assert riemann_genus_cap(2) == 1
    assert riemann_genus_cap(6) == 25


def test_hurwitz_min_genus_values():
    assert hurwitz_min_genus(2520) == 31
    assert hurwitz_min_genus(168) == 3
    assert hurwitz_min_genus(2) == 2


def test_hurwitz_min_genus_definition_full_sweep():
    # independent two-pointer oracle: least g >= 2 with 84(g-1) >= order
    g = 2
    for order in range(2, 1_000_001):
        while 84 * (g - 1) < order:
            g += 1
        assert hurwitz_min_genus(order) == g


def test_gonality_obstruction_routes():
    assert gonality_obstruction(60, 60, "no") == NOT_OBSTRUCTED
    assert gonality_obstruction(2520, 6, "no") == OBSTRUCTED
    assert gonality_obstruction(2520, 6, "unknown") == UNKNOWN
    assert gonality_obstruction(60, 2, "yes") == NOT_OBSTRUCTED


@pytest.mark.parametrize("order", [0, -3])
def test_gonality_obstruction_rejects_orders_below_one(order):
    with pytest.raises(ValidationError):
        gonality_obstruction(order, 2, "no")


def test_gonality_obstruction_with_real_deciders(group_of):
    from edcert.rhoracle import acts_on_genus_le

    # Hurwitz floor 31 > 25 stands in for the action decider at n = 6
    verdict = gonality_obstruction(2520, 6, "no" if riemann_genus_cap(6) < hurwitz_min_genus(2520) else "unknown")
    assert verdict == OBSTRUCTED

    psl7 = group_of("PSL2:7")
    verdict = gonality_obstruction(168, 2, acts_on_genus_le(psl7, riemann_genus_cap(2)).verdict)
    assert verdict == OBSTRUCTED


def test_validation_guards():
    with pytest.raises(ValidationError):
        riemann_genus_cap(0)
    with pytest.raises(ValidationError):
        hurwitz_min_genus(1)
    with pytest.raises(ValidationError):
        gonality_obstruction(60, 0, "no")
