"""Optional cross-validation against sympy's permutation groups.

Runs only when sympy is importable (install the `crosscheck` extra); the
rest of the suite keeps its own independent brute-force oracles.
"""

import random

import pytest

sympy_combinatorics = pytest.importorskip("sympy.combinatorics")
SymPerm = sympy_combinatorics.Permutation
SymGroup = sympy_combinatorics.PermutationGroup

from edcert.permgroup import PermGroup, prime_factors, sylow_report
from edcert.permutation import Permutation


def _sym(group):
    return SymGroup([SymPerm(list(g)) for g in group.generators])


def test_orders_and_sylow_against_sympy():
    rng = random.Random(424242)
    for _ in range(30):
        deg = rng.choice([5, 6, 7, 8])
        gens = []
        for _ in range(rng.choice([1, 2, 3])):
            images = list(range(deg))
            rng.shuffle(images)
            gens.append(Permutation(images))
        ours = PermGroup(gens)
        theirs = _sym(ours)
        assert ours.order == theirs.order()
        if ours.order <= 2000:
            assert sorted(ours.element_orders()) == sorted(p.order() for p in theirs.elements)
        for p in prime_factors(ours.order):
            assert sylow_report(ours, p).order == theirs.sylow_subgroup(p).order()


def test_normal_closures_against_sympy(group_of):
    cases = [("A:4", [[0, 1], [2, 3]]), ("S:4", [[0, 1]]), ("A:5", [[0, 1, 2]]), ("S:5", [[0, 1, 2]])]
    for text, cycles in cases:
        group = group_of(text)
        seed = Permutation.from_cycles(cycles, group.degree)
        theirs = _sym(group).normal_closure(SymGroup([SymPerm(list(seed.images))]))
        assert group.normal_closure([seed.images]).order == theirs.order()
