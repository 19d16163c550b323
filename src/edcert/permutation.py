"""Permutations of {0, ..., deg-1} stored as dense image tuples.

The engine hands elements around as image tuples and computes on them with
the kernels below; only the stabilizer chain in ``permgroup`` stores its
elements as ``bytes`` internally, up to degree 256, and falls back to these
kernels above it.  ``Permutation`` is the validated value type for the
edges of the package, where specs are parsed and witnesses are checked
again.

Composition is left to right: ``(p * q)(x) == q(p(x))``, the convention
of most permutation-group software.  Points are always 0-based.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import ValidationError


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Raw image-tuple composition, p first then q."""
    if len(p) > 1:
        return itemgetter(*p)(q)  # one C-level gather, several times faster than map
    return tuple(q[i] for i in p)  # itemgetter of a single index returns a bare item


def invert(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def identity_tuple(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def tuple_order(p: Sequence[int]) -> int:
    """Order of a permutation, as the lcm of its cycle lengths."""
    seen = [False] * len(p)
    out = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out = lcm(out, length)
    return out


def power(p: Sequence[int], k: int) -> tuple[int, ...]:
    """p composed with itself k times (k < 0: the inverse, -k times)."""
    if k < 0:
        p, k = invert(p), -k
    result = identity_tuple(len(p))
    while k:
        if k & 1:
            result = compose(result, p)
        p = compose(p, p)
        k >>= 1
    return result


def cycle_string(p: Sequence[int]) -> str:
    """Nontrivial cycles, each starting at its smallest point, e.g. "(0 1 2)(3 4)";
    "()" for the identity."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            continue
        cycle = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            seen[j] = True
            cycle.append(j)
            j = p[j]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) or "()"


class Permutation:
    """An immutable permutation with hashing, powers and cycle output."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValidationError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]], degree: int) -> "Permutation":
        """Build a permutation from disjoint cycles on 0..degree-1."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            for pt in cycle:
                if not 0 <= pt < degree:
                    raise ValidationError(f"point {pt} outside degree {degree}")
                if pt in seen:
                    raise ValidationError(f"point {pt} repeated; cycles must be disjoint")
                seen.add(pt)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValidationError("cannot compose permutations of different degrees")
        return Permutation(compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(invert(self.images))

    def __pow__(self, k: int) -> "Permutation":
        return Permutation(power(self.images, k))

    def order(self) -> int:
        return tuple_order(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_string(self) -> str:
        return cycle_string(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}, deg={self.degree}]"

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")


def record_json(record) -> dict:
    """A result record's JSON: its fields by name, each value converted by
    `_json_value`.  The records whose JSON is their fields take this as
    their ``to_json``."""
    return {name: _json_value(value) for name, value in zip(record._fields, record)}


def _json_value(value):
    """A nested record as its own ``to_json()``, a tuple or list as a list, a
    `Permutation` as its cycle string, and any other value unchanged."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, Permutation):
        return value.cycle_string()
    if isinstance(value, (tuple, list)):
        return [_json_value(item) for item in value]
    return value
