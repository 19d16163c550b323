import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edcert.errors import ValidationError
from edcert.permutation import (
    Permutation,
    compose,
    cycle_string,
    identity_tuple,
    invert,
    power,
    tuple_order,
)

perms7 = st.permutations(list(range(7))).map(Permutation)


def test_rejects_non_bijection():
    with pytest.raises(ValidationError):
        Permutation([0, 0, 1])


@given(perms7, perms7, perms7)
def test_composition_associative(p, q, r):
    assert ((p * q) * r).images == (p * (q * r)).images


@given(perms7)
def test_inverse_law(p):
    assert (p.inverse() * p).is_identity()
    assert (p * p.inverse()).is_identity()


@given(perms7, st.integers(min_value=0, max_value=6))
def test_composition_is_left_to_right(p, x):
    q = Permutation([(i + 1) % 7 for i in range(7)])
    assert (p * q)(x) == q(p(x))


@given(perms7)
def test_order_matches_brute_force(p):
    # independent oracle: repeated multiplication until identity
    k = 1
    q = p
    while not q.is_identity():
        q = q * p
        k += 1
    assert p.order() == k
    assert tuple_order(p.images) == k


@given(perms7, st.integers(min_value=-20, max_value=20))
def test_power(p, k):
    expected = Permutation.identity(7)
    step = p if k >= 0 else p.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert (p ** k).images == expected.images


def test_cycle_string_round_trip():
    p = Permutation.from_cycles([[0, 1, 2], [3, 4]], 6)
    assert p.cycle_string() == "(0 1 2)(3 4)"
    assert Permutation.identity(4).cycle_string() == "()"


def test_from_cycles_rejects_overlap():
    with pytest.raises(ValidationError):
        Permutation.from_cycles([[0, 1], [1, 2]], 3)


def test_raw_helpers_agree_with_objects():
    p = Permutation.from_cycles([[0, 1, 2]], 5)
    q = Permutation.from_cycles([[2, 3]], 5)
    assert compose(p.images, q.images) == (p * q).images
    assert invert(p.images) == p.inverse().images
    assert identity_tuple(5) == Permutation.identity(5).images


@pytest.mark.parametrize("degree", [0, 1, 2, 6, 54])
def test_compose_is_pointwise_p_then_q(degree):
    rng = random.Random(degree)
    p, q = list(range(degree)), list(range(degree))
    rng.shuffle(p)
    rng.shuffle(q)
    assert compose(p, q) == tuple(q[p[i]] for i in range(degree))  # a tuple at every degree


KERNEL_DEGREES = [0, 1, 2, 6]  # degree 1 is the single-index edge of compose


@pytest.mark.parametrize("degree", KERNEL_DEGREES)
@given(data=st.data())
def test_power_is_repeated_compose(degree, data):
    p = tuple(data.draw(st.permutations(list(range(degree)))))
    expected = identity_tuple(degree)
    for k in range(2 * tuple_order(p) + 1):
        assert power(p, k) == expected
        expected = compose(expected, p)


@pytest.mark.parametrize("degree", KERNEL_DEGREES)
@given(data=st.data())
def test_cycle_string_round_trips_through_from_cycles(degree, data):
    p = tuple(data.draw(st.permutations(list(range(degree)))))
    cycles = [[int(x) for x in body.split()] for body in re.findall(r"\(([^)]*)\)", cycle_string(p))]
    assert Permutation.from_cycles(cycles, degree).images == p


@pytest.mark.parametrize("degree", KERNEL_DEGREES)
def test_cycle_string_of_identity(degree):
    assert cycle_string(identity_tuple(degree)) == "()"


def test_immutability():
    p = Permutation.identity(3)
    with pytest.raises(AttributeError):
        p.images = (0, 1, 2)


def test_mul_rejects_degree_mismatch():
    with pytest.raises(ValidationError):
        Permutation.identity(3) * Permutation.identity(4)


def test_from_cycles_rejects_out_of_range():
    with pytest.raises(ValidationError):
        Permutation.from_cycles([[0, 5]], 3)


def test_ordering_and_repr():
    p = Permutation.from_cycles([[0, 1]], 3)
    q = Permutation.from_cycles([[1, 2]], 3)
    assert p != "not a permutation"
    assert (p < q) == (p.images < q.images)
    assert "(0 1)" in repr(p)
