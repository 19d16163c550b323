"""Finite permutation groups backed by a deterministic stabilizer chain.

The chain is built with the classical (non-randomized) Schreier-Sims
algorithm, so orders, membership tests and element enumeration are exact
and reproducible bit for bit: generators are processed in the order given,
orbits in breadth-first discovery order, and every search below iterates
in a fixed order.  A group fixes its generators, degree, cap and spec
when it is made, and builds its chain only when a question needs it:
membership, orbits, simplicity, enumeration or any element-level query.
`catalogue.build` gives a family group the order of the group its
generators lie in, so `PermGroup.order` answers it with no chain; when
the chain is built, it stops once it reaches that order and must equal
it.  Every method is pure and caches only values derived from the group
itself.

Inside the chain, on degree <= 256, an element is a ``bytes`` string of
images and a product is the bare C method ``bytes.translate``: several
times cheaper than a tuple gather, and chain building dominates the PSL2
tables.  Its right factor must be a 256-entry table, so each right factor
that is used again and again (a level generator, a transversal inverse, an
element whose powers are walked) is padded to one once, and a transversal
inverse is made as a table directly, with ``bytes.maketrans``.  A byte
holds a point only below 256, so larger degrees keep image tuples,
``permutation.compose`` and ``invert``.  One helper, ``kernel(degree)``,
makes that choice; the chain takes its kernel from it, and so does the
Moebius word search, which builds no chain.  There an element's order
comes from one walk, ``Kernel.order``, over at most `WALK` of its powers
with no list kept, and past that, or on image tuples, from its cycle
lengths; a power comes by repeated squaring, ``Kernel.power``.

Each group carries its enumeration cap, the largest order it enumerates
(`DEFAULT_CAP` unless given), and hands it on to every subgroup it makes;
`PermGroup._check_cap` is the one place it is enforced.

The element-level work stays in that kernel too.  A group lists its
elements once, as kernel elements with an index of their positions, and
makes an element an image tuple only when it hands that element out, one
stored tuple per element; the whole tuple list is built only when
``elements()`` is asked for.  Element orders come from walks over cyclic
subgroups (``element_orders``), and the classes rest on two facts:

* conjugation preserves the order of an element, so every conjugacy class
  lies inside one bucket of equal-order elements, and each bucket can be
  partitioned into classes on its own (``classes_of_order``), conjugating
  in the kernel;
* every nontrivial normal subgroup contains an element of prime order, so
  the normal closures of the classes of prime order decide simplicity.

The genus oracle's generating-vector search works on kernel elements as
well: ``vector_pool`` hands it, once per group and per (slot kind, order),
the elements with their right-factor and inverse tables, each pool with
tables of its own.  So do the certifier's Moebius searches: the word
search on the generators' words, and the exceptional-pair test on
``kernel_elements_of_order(3)``.

Simplicity is first tried from the chain alone, before any element is
enumerated: the derived subgroup, the order of the alternating group, and
Iwasawa's criterion for 2-transitive groups (Iwasawa, Proc. Imp. Acad.
Tokyo 17, 1941; Dixon & Mortimer, Permutation Groups, GTM 163, 7.2).  The
class-by-class test runs only when none of them applies.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence, Union

from .errors import EdcertInternalError, ValidationError, check_budget
from .permutation import (
    Permutation,
    compose,
    cycle_string,
    identity_tuple,
    invert,
    power,
    tuple_order,
)

if TYPE_CHECKING:
    from .catalogue import GroupSpec


# an element as the stabilizer chain stores it: images as bytes, or as a tuple above degree 256
Element = Union[bytes, tuple[int, ...]]
# the largest degree whose elements are bytes: a byte holds a point only below 256
BYTES_DEGREE = 256
# the most powers `Kernel.order` walks; past it an order comes from the cycle lengths
WALK = 256


class Kernel(NamedTuple):
    """How elements of one degree are stored and multiplied; see `kernel`."""

    identity: Element
    encode: Callable[[Iterable[int]], Element]
    mul: Callable[[Element, Element], Element]  # mul(p, table(q)) is p then q
    table: Callable[[Element], Element]
    inverse_table: Callable[[Element], Element]  # table(p^-1), made from p directly

    def order(self, x: Element) -> int:
        """Order of x: on bytes, a walk over at most `WALK` of its powers,
        one ``translate`` a step and no list kept; past that, or on image
        tuples, where a step is a full ``compose``, the lcm of its cycle
        lengths (``tuple_order``), one Python step per point.  So neither
        time nor memory grows with the order."""
        if type(x) is bytes:
            mul, identity, x_table, y = self.mul, self.identity, self.table(x), x
            for m in range(1, WALK + 1):
                if y == identity:
                    return m
                y = mul(y, x_table)
        return tuple_order(x)

    def power(self, x: Element, k: int) -> Element:
        """x^k for k >= 0, by repeated squaring: about 2 log2(k) products."""
        mul, table, result = self.mul, self.table, self.identity
        while k:
            x_table = table(x)
            if k & 1:
                result = mul(result, x_table)
            k >>= 1
            if k:
                x = mul(x, x_table)
        return result


def kernel(degree: int) -> Kernel:
    """The element kernel for `degree`: ``bytes`` images up to 256 points,
    where a product is ``bytes.translate`` against the right factor padded
    to a 256-entry table, and image tuples with ``compose`` above, where a
    table is the element itself.  ``inverse_table(p)[:degree]`` is p^-1 in
    either kernel.  Made afresh on each call, so it multiplies with the
    ``compose`` the module holds at that moment."""
    if degree <= BYTES_DEGREE:
        pad = bytes(BYTES_DEGREE - degree)
        identity = bytes(range(degree))
        return Kernel(identity, bytes, bytes.translate, lambda q: q + pad, lambda u: bytes.maketrans(u, identity))
    return Kernel(identity_tuple(degree), tuple, compose, tuple, invert)


class _Level:
    __slots__ = ("point", "gens", "transversal", "inverses")

    def __init__(self, point: int, identity: Element, identity_table: Element):
        self.point = point
        self.gens: list[Element] = []
        # transversal[q] maps the base point to q; inverses[q] is its inverse
        # as a right-factor table (see StabilizerChain)
        self.transversal: dict[int, Element] = {point: identity}
        self.inverses: dict[int, Element] = {point: identity_table}


def _first_moved(p: Sequence[int]) -> int:
    for i, pi in enumerate(p):
        if pi != i:
            return i
    raise EdcertInternalError("identity permutation moves no point")


class StabilizerChain:
    """Base, strong generators and transversals for ⟨generators⟩.

    On degree <= 256 every element the chain stores is a ``bytes`` string
    of images, and ``_mul(p, t)`` is ``bytes.translate`` itself: p then q,
    where t = ``_table(q)`` is q padded to the 256-entry table.  A caller
    makes the table once per right factor it reuses, and the transversal
    inverses are stored as tables, made by ``bytes.maketrans``.  Above 256
    a point no longer fits in a byte: the chain stores image tuples,
    ``_mul`` is ``compose``, ``_table`` returns its argument and an inverse
    is ``invert``.  The chain takes these slots from ``kernel(degree)``,
    once per chain, and both kernels run the same construction, so base, strong generators and transversals
    are the same permutations either way.  Strong generators leave the
    chain as tuples; ``elements`` lists kernel elements for `PermGroup`.

    `bound`, when given, must be an upper bound on the order of the group
    the generators generate, such as the order of a group they are known
    to lie in.  Construction then stops once the orbit sizes multiply to
    it (see ``_complete``), and builds the same chain with fewer products.
    """

    __slots__ = ("degree", "levels", "_identity", "_encode", "_mul", "_table", "_inverse_table")

    def __init__(self, generators: Iterable[Sequence[int]], degree: int, bound: int | None = None):
        self.degree = degree
        gens = [tuple(g) for g in generators]
        if any(len(g) != degree for g in gens):
            raise ValidationError("generator degree mismatch")
        self._identity, self._encode, self._mul, self._table, self._inverse_table = kernel(degree)
        self.levels: list[_Level] = []
        gens = [g for g in map(self._encode, gens) if g != self._identity]
        for g in gens:
            if all(g[lvl.point] == lvl.point for lvl in self.levels):
                self._append_level(_first_moved(g))
        for g in gens:
            self._insert_generator(g)
        for i in reversed(range(len(self.levels))):
            self._complete(i, bound if i == 0 else None)

    # -- construction internals ------------------------------------------

    def _append_level(self, point: int) -> None:
        self.levels.append(_Level(point, self._identity, self._inverse_table(self._identity)))

    def _insert_generator(self, g: Element) -> None:
        """Attach g to every level whose base prefix it fixes."""
        for lvl in self.levels:
            lvl.gens.append(g)
            if g[lvl.point] != lvl.point:
                return

    def _rebuild_orbit(self, i: int, gen_pairs: list[tuple[Element, Element]]) -> None:
        """Breadth-first orbit of level i under its (generator, table) pairs."""
        lvl = self.levels[i]
        mul, inverse_table = self._mul, self._inverse_table
        transversal = {lvl.point: self._identity}
        queue = [lvl.point]
        head = 0
        while head < len(queue):
            gamma = queue[head]
            head += 1
            u = transversal[gamma]
            for s, s_table in gen_pairs:
                delta = s[gamma]
                if delta not in transversal:
                    transversal[delta] = mul(u, s_table)
                    queue.append(delta)
        lvl.transversal = transversal
        lvl.inverses = {q: inverse_table(u) for q, u in transversal.items()}

    def _sift(self, g: Element, start: int) -> tuple[Element, int]:
        """Strip g against levels start.. ; returns (residue, stuck level)."""
        mul = self._mul
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            u_inv = lvl.inverses.get(g[lvl.point])
            if u_inv is None:
                return g, i
            g = mul(g, u_inv)
        return g, len(self.levels)

    def _complete(self, i: int, bound: int | None = None) -> None:
        """Make level i complete: every Schreier generator sifts to identity.

        Residues are inserted as strong generators on the deeper levels and
        those levels are re-completed deepest first, the textbook recursion.
        The Schreier generator u s u_δ⁻¹ (δ = γ^s) is the identity exactly
        when u s = u_δ, so most pairs are settled by one product.

        `bound`, an upper bound on |G|, is given for level 0 alone (Seress,
        Permutation Group Algorithms, 2003, ch. 4).  There, once every
        deeper level is complete, the orbit sizes multiply to |orbit| |H|
        for the group H the deeper levels generate, a subgroup of the
        stabilizer of the first base point; reaching the bound makes H that
        whole stabilizer, so every pending Schreier generator would sift to
        the identity and the chain is final.  While a deeper level is being
        completed, the levels above it have stale transversals and the
        product means nothing, so no other level may stop early.
        """
        lvl = self.levels[i]
        mul = self._mul
        gen_pairs = [(s, self._table(s)) for s in lvl.gens]
        self._rebuild_orbit(i, gen_pairs)
        if bound is not None and self.order() >= bound:
            return
        transversal, inverses = lvl.transversal, lvl.inverses
        for gamma, u in transversal.items():  # deeper levels change below, never this one
            for s, s_table in gen_pairs:
                delta = s[gamma]
                us = mul(u, s_table)
                if us == transversal[delta]:
                    continue
                residue, j = self._sift(mul(us, inverses[delta]), i + 1)
                if residue == self._identity:
                    continue
                if j == len(self.levels):
                    self._append_level(_first_moved(residue))
                for k in range(i + 1, j + 1):
                    self.levels[k].gens.append(residue)
                for k in range(j, i, -1):
                    self._complete(k)
                if bound is not None and self.order() >= bound:
                    return

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(lvl.transversal) for lvl in self.levels)

    def strong_generators(self, i: int) -> list[tuple[int, ...]]:
        """The strong generators of level i, as image tuples."""
        return [tuple(g) for g in self.levels[i].gens]

    def contains(self, g: Sequence[int]) -> bool:
        residue, _ = self._sift(self._encode(g), 0)
        return residue == self._identity

    def elements(self) -> list[Element]:
        """All elements in the chain's kernel, in the deterministic
        transversal-product order.  `PermGroup` makes an element a tuple
        only when it hands that element out.
        """
        mul = self._mul
        elems = [self._identity]
        for lvl in reversed(self.levels):
            tables = [self._table(u) for _, u in sorted(lvl.transversal.items())]
            elems = [mul(h, t) for t in tables for h in elems]
        return elems


# The default enumeration cap: the largest |G| that element-by-element work
# takes on (`--cap`, `EDCERT_CAP`).  `PermGroup._check_cap` raises
# CapExceeded past a group's cap, and the certifier turns that into `unknown`.
DEFAULT_CAP = 100_000


class PermGroup:
    """A permutation group of fixed degree, with its stabilizer chain built
    on first use.

    The trivial group is written ``PermGroup((), degree=d)``; otherwise the
    degree is taken from the generators.  Generators may be given as
    ``Permutation`` objects or image sequences and are validated once here;
    every element the group hands out or takes is an image tuple.  The
    generators, degree, cap and spec are fixed here.  The chain is built
    when a question first needs it (membership, orbits, simplicity,
    enumeration or any element-level query), and it and every value
    derived from it are cached.

    `order`, when given, is the order of a group the generators lie in and
    are known to generate, from a formula (`catalogue.build` gives one for
    each family).  The `order` property answers from it with no chain.
    The chain stops once it reaches it and must then equal it, or building
    the chain raises EdcertInternalError.  Since the value bounds |G| from above,
    that check can catch only a group smaller than the formula.  The
    simplicity test builds the chain before it reads the order, so no
    computed decision rests on the formula unchecked (an abelian group it
    decides from its generators alone).

    `cap` is the enumeration cap: every element-level query raises
    CapExceeded when the order exceeds it.  It is fixed when the group is
    built, and the subgroups the group makes carry it over.

    `spec` is the parsed spec of a group that `catalogue.build` made, and
    None for every other group: one made from generators, and every
    subgroup, which so never reads the literature constants of the group
    it came from.
    """

    spec: GroupSpec | None = None

    def __init__(
        self,
        generators: Iterable[Permutation | Sequence[int]],
        degree: int | None = None,
        cap: int = DEFAULT_CAP,
        order: int | None = None,
    ):
        gens = tuple((g if isinstance(g, Permutation) else Permutation(g)).images for g in generators)
        if degree is None:
            if not gens:
                raise ValidationError("degree is required for an empty generating set")
            degree = len(gens[0])
        for g in gens:
            if len(g) != degree:
                raise ValidationError("generators must share one degree")
        self.generators = gens
        self.degree = degree
        self.cap = cap
        self._order = order  # the given order until the chain is built, then the chain's
        self._built: StabilizerChain | None = None
        self._elements: list[Element] | None = None  # the chain's enumeration, in its kernel
        self._index: dict[Element, int] = {}  # element -> enumeration index
        # the i-th element's tuple, made when first handed out; all of them once elements() is asked
        self._tuples: list[tuple[int, ...] | None] | tuple[tuple[int, ...], ...] = ()
        self._orders: tuple[int, ...] | None = None
        # order m -> (enumeration index of the representative, class) pairs
        self._partitions: dict[int, tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]] = {}
        self._classes: tuple[tuple[tuple[int, ...], ...], ...] | None = None
        # the generating-vector search's state, see vector_pool: (first slot,
        # order) -> pool, with its tables; order -> the kernel elements of
        # that order; the largest orbit's point and size
        self._pools: dict[tuple[bool, int | None], tuple[tuple[Element, Element, Element], ...]] = {}
        self._of_order: dict[int, dict[Element, None]] = {}
        self._largest_orbit: tuple[int, int] | None = None
        self._simple: bool | None = None
        self._derived: PermGroup | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def _chain(self) -> StabilizerChain:
        """The stabilizer chain, built on first use and checked against a
        given order."""
        if self._built is None:
            chain = StabilizerChain(self.generators, self.degree, self._order)
            if self._order is not None and chain.order() != self._order:
                raise EdcertInternalError(f"chain order {chain.order()} differs from the given order {self._order}")
            self._order, self._built = chain.order(), chain
        return self._built

    @property
    def order(self) -> int:
        """|G|: the order given at construction, else the chain's."""
        return self._chain.order() if self._order is None else self._order

    def orbit_sizes(self) -> tuple[int, ...]:
        return self._chain.orbit_sizes()

    def __contains__(self, p: tuple[int, ...]) -> bool:
        return len(p) == self.degree and self._chain.contains(p)

    def name(self) -> str:
        """The spec's canonical text, else the ``perm:<degree>:<cycles>``
        text of the generators, which is what an explicit spec reads."""
        if self.spec is not None:
            return self.spec.canonical()
        return f"perm:{self.degree}:" + ",".join(map(cycle_string, self.generators))

    def identity(self) -> tuple[int, ...]:
        return identity_tuple(self.degree)

    def subgroup(self, generators: Iterable[tuple[int, ...]]) -> "PermGroup":
        return PermGroup(tuple(generators), degree=self.degree, cap=self.cap)

    def _check_cap(self) -> None:
        check_budget("enumeration", self.order, "group order {needed} exceeds the enumeration cap {cap}", self.cap)

    # -- element-level queries (capped) -------------------------------------

    def _enumerate(self) -> list[Element]:
        if self._elements is None:
            self._check_cap()
            self._elements = self._chain.elements()
            self._index = {x: i for i, x in enumerate(self._elements)}
            self._tuples = [None] * self.order
        return self._elements

    def _tuple(self, i: int) -> tuple[int, ...]:
        t = self._tuples[i]
        if t is None:
            t = self._tuples[i] = tuple(self._elements[i])
        return t

    def element(self, i: int) -> tuple[int, ...]:
        """The i-th element in enumeration order, the same tuple on every call."""
        self._enumerate()
        return self._tuple(i)

    def elements(self) -> tuple[tuple[int, ...], ...]:
        self._enumerate()
        if type(self._tuples) is list:
            self._tuples = tuple(map(self._tuple, range(self.order)))
        return self._tuples

    def element_orders(self) -> tuple[int, ...]:
        """Orders in enumeration order, by walking cyclic subgroups in the
        kernel: from each x that no earlier walk reached, x, x^2, ..., x^k = 1,
        and x^j has order k / gcd(k, j)."""
        els = self._enumerate()
        if self._orders is None:
            chain = self._chain
            index, mul, table, identity = self._index, chain._mul, chain._table, chain._identity
            orders = [0] * len(els)
            for i, x in enumerate(els):
                if not orders[i]:
                    walk, y, x_table = [i], x, table(x)
                    while y != identity:
                        y = mul(y, x_table)
                        walk.append(index[y])
                    for j, w in enumerate(walk, 1):
                        orders[w] = len(walk) // gcd(len(walk), j)
            self._orders = tuple(orders)
        return self._orders

    def max_element_order(self) -> int:
        return max(self.element_orders())

    def elements_of_order(self, m: int) -> tuple[tuple[int, ...], ...]:
        return tuple(self._tuple(i) for i, o in enumerate(self.element_orders()) if o == m)

    def kernel_elements_of_order(self, m: int) -> dict[Element, None]:
        """The elements of order m as kernel elements, in enumeration order,
        as the keys of a dict (an ordered set); cached per m."""
        found = self._of_order.get(m)
        if found is None:
            els = self._enumerate()
            found = self._of_order[m] = dict.fromkeys(x for x, o in zip(els, self.element_orders()) if o == m)
        return found

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(compose(a, b) == compose(b, a) for i, a in enumerate(gens) for b in gens[i + 1:])

    # -- conjugacy ----------------------------------------------------------

    def _partition(self, m: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
        """Classes of the order-m elements with their representatives' indices.

        Conjugation preserves order, so the classes of the order-m bucket
        are found without looking at any other element.  Each element is
        conjugated once per generator, in the chain's kernel.
        """
        els = self._enumerate()
        cached = self._partitions.get(m)
        if cached is not None:
            return cached
        chain = self._chain
        index, mul, table = self._index, chain._mul, chain._table
        conj_pairs = [(table(chain._encode(g)), chain._encode(invert(g))) for g in self.generators]
        seen = set()
        out = []
        for i, o in enumerate(self.element_orders()):
            if o != m or i in seen:
                continue
            seen.add(i)
            members = [self._tuple(i)]
            queue = [els[i]]
            while queue:
                x_table = table(queue.pop())
                for g_table, ginv in conj_pairs:
                    j = index[mul(mul(ginv, x_table), g_table)]
                    if j not in seen:
                        seen.add(j)
                        members.append(self._tuple(j))
                        queue.append(els[j])
            out.append((i, tuple(members)))
        self._partitions[m] = tuple(out)
        return self._partitions[m]

    def classes_of_order(self, m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Conjugacy classes of the elements of order m, partitioned on first
        request for each m; each class leads with its first member in
        enumeration order, and the classes follow their leaders' order."""
        return tuple(cls for _, cls in self._partition(m))

    def conjugacy_classes(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Partition into conjugacy classes; each class leads with the first
        member in enumeration order, which serves as its representative.

        Every class lies inside one bucket of equal-order elements, so this
        merges the per-order partitions of ``classes_of_order``, sorted by
        the enumeration index of each representative.
        """
        if self._classes is None:
            keyed = [pair for m in set(self.element_orders()) for pair in self._partition(m)]
            self._classes = tuple(cls for _, cls in sorted(keyed, key=lambda pair: pair[0]))
        return self._classes

    def class_representatives(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cls[0] for cls in self.conjugacy_classes())

    # -- generating-vector search support ------------------------------------

    def vector_pool(self, m: int | None, first: bool) -> tuple[tuple[Element, Element, Element], ...]:
        """What one slot of a generating-vector search ranges over, as
        (element, right-factor table, inverse table) triples of the chain's
        kernel, in enumeration order: for the first slot the class
        representatives, for a later slot the elements; those of order m,
        or of every order when m is None.

        Each pool is built once per group and per (first, m), and only when
        a search asks for it, with its own tables: ``_table(x)`` and
        ``_inverse_table(x)``, the table of x^-1 made from x directly.
        """
        pool = self._pools.get((first, m))
        if pool is None:
            chain = self._chain
            if first:
                classes = self.conjugacy_classes() if m is None else self.classes_of_order(m)
                xs = [chain._encode(cls[0]) for cls in classes]
            else:
                xs = [x for x, o in zip(self._enumerate(), self.element_orders()) if m is None or o == m]
            pool = self._pools[(first, m)] = tuple((x, chain._table(x), chain._inverse_table(x)) for x in xs)
        return pool

    def largest_orbit(self) -> tuple[int, int]:
        """The first point whose orbit under the generators is largest, and
        that orbit's size; cached."""
        if self._largest_orbit is None:
            size = [0] * self.degree
            for start in range(self.degree):
                if size[start]:
                    continue
                orbit, seen = [start], {start}
                for x in orbit:
                    for g in self.generators:
                        if g[x] not in seen:
                            seen.add(g[x])
                            orbit.append(g[x])
                for x in orbit:
                    size[x] = len(orbit)
            point = max(range(self.degree), key=size.__getitem__)
            self._largest_orbit = (point, size[point])
        return self._largest_orbit

    # -- normal structure ----------------------------------------------------

    def normal_closure(self, seeds: Iterable[tuple[int, ...]]) -> "PermGroup":
        """Smallest normal subgroup containing the seeds.

        Grows one subgroup from the trivial one.  Each seed, and each
        conjugate of an added generator by a group generator, is tested for
        membership in the subgroup grown so far; one that lies outside is
        added to its generators.  The first test after an addition builds
        the grown subgroup's chain, and the group returned is the last one
        grown, so its chain is already built.
        """
        queue = list(seeds)
        for s in queue:
            if s not in self:
                raise ValidationError("normal_closure seeds must lie in the group")
        closure = self.subgroup(())
        conj_pairs = [(g, invert(g)) for g in self.generators]
        while queue:
            x = queue.pop(0)
            if x in closure:
                continue
            closure = self.subgroup((*closure.generators, x))
            for g, ginv in conj_pairs:
                queue.append(compose(compose(ginv, x), g))
        return closure

    def derived_subgroup(self) -> "PermGroup":
        """G', the normal closure of the commutators of the generators."""
        if self._derived is None:
            gens = self.generators
            self._derived = self.normal_closure(
                compose(compose(invert(a), invert(b)), compose(a, b)) for i, a in enumerate(gens) for b in gens[:i]
            )
        return self._derived

    def is_simple_nonabelian(self) -> bool:
        """True iff the group is nonabelian with no proper nontrivial normal
        subgroup.

        `_simplicity_from_chain` decides most groups without enumerating an
        element.  Otherwise: every nontrivial normal subgroup contains an
        element of some prime order q dividing |G|, and with it that
        element's whole class, so the group is simple iff the normal closure
        of each representative of a class of prime order is the whole group.
        The cap applies either way, and is checked before the chain is
        built.
        """
        self._check_cap()
        if self._simple is None:
            simple = self._simplicity_from_chain()
            if simple is None:
                simple = all(
                    self.normal_closure([cls[0]]).order == self.order
                    for q in prime_factors(self.order)
                    for cls in self.classes_of_order(q)
                )
            self._simple = simple
        return self._simple

    def _simplicity_from_chain(self) -> bool | None:
        """Nonabelian simplicity from chain-only facts, or None.

        * An abelian group is not simple.  Its generators commute, which
          decides it before the chain is built.
        * A group of order d!/2 on d >= 5 points is the alternating group
          A_d, the only subgroup of index 2 in S_d, and is simple.
        * A group whose derived subgroup is proper is not.
        * Iwasawa's criterion: let G be perfect and 2-transitive (the chain's
          orbits begin d, d - 1), H the stabilizer of the first base point
          and K != 1 the first abelian term of H's derived series, normal in
          H.  If the normal closure of K is G, then G is simple: a normal
          N != 1 of the primitive G is transitive, so G = NH, every
          conjugate of K lies in NK, G = NK, and G/N, a quotient of the
          abelian K, is trivial because G is perfect.

        None when the series reaches a perfect term, K = 1, the closure of K
        is proper, or G is not 2-transitive.  The order is the chain's:
        building the chain checks a given order first.
        """
        if self.is_abelian():
            return False
        d, order = self.degree, self._chain.order()
        if d >= 5 and order == factorial(d) // 2:
            return True
        if self.derived_subgroup().order < order:
            return False
        if self.orbit_sizes()[:2] != (d, d - 1):
            return None
        k = self.subgroup(self._chain.strong_generators(1))
        while not k.is_abelian():
            derived = k.derived_subgroup()
            if derived.order == k.order:
                return None
            k = derived
        if k.order > 1 and self.normal_closure(k.generators).order == order:
            return True
        return None


# -- Sylow subgroups ----------------------------------------------------------


class SylowReport(NamedTuple):
    """A Sylow p-subgroup together with its isomorphism shape.

    shape is one of "cyclic", "elementary_abelian", "dihedral", "other";
    rank is set only for the elementary abelian case.
    """

    prime: int
    exponent: int
    order: int
    shape: str
    rank: int | None
    generators: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        """The fields, with the raw image tuples written as cycle strings."""
        return {
            "prime": self.prime,
            "exponent": self.exponent,
            "order": self.order,
            "shape": self.shape,
            "rank": self.rank,
            "generators": [cycle_string(g) for g in self.generators],
        }


def _is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors in ascending order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def inverting_involution(
    x: tuple[int, ...], order: int, involutions: Iterable[tuple[int, ...]]
) -> tuple[int, ...] | None:
    """The first involution t outside <x> with t x t = x^-1, or None.

    Such a t and the element x of the given order generate a dihedral
    group of order 2 * order.  The cyclic group <x> holds one involution,
    x^(order/2), when the order is even, and none when it is odd."""
    inside = power(x, order // 2) if order % 2 == 0 else None
    x_inv = invert(x)
    return next((t for t in involutions if t != inside and compose(compose(t, x), t) == x_inv), None)


def _classify_p_group(sub: PermGroup, p: int, exponent: int) -> tuple[str, int | None]:
    orders = sub.element_orders()
    if max(orders) == sub.order:
        return "cyclic", None
    if max(orders) == p and sub.is_abelian():
        return "elementary_abelian", exponent
    if p == 2:
        half = sub.order // 2
        involutions = sub.elements_of_order(2)
        for x, ox in zip(sub.elements(), orders):
            if ox == half and inverting_involution(x, half, involutions) is not None:
                return "dihedral", None
    return "other", None


def sylow_report(group: PermGroup, p: int) -> SylowReport:
    """Construct a Sylow p-subgroup by iterated extension and classify it.

    Starting from a Cauchy element of order p, repeatedly adjoins the first
    p-power-order element (in enumeration order) that normalizes the current
    subgroup without lying in it; each step multiplies the order by a power
    of p, so the loop reaches the full p^{v_p(|G|)}.
    """
    if not _is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if group.order % p:
        raise ValidationError(f"{p} does not divide the group order {group.order}")
    exponent = 0
    n = group.order
    while n % p == 0:
        exponent += 1
        n //= p
    target = p ** exponent

    els = group.elements()
    orders = group.element_orders()

    seed = next(power(g, o // p) for g, o in zip(els, orders) if o % p == 0)
    sub_gens = [seed]
    sub = group.subgroup(sub_gens)
    while sub.order < target:
        extension = None
        for g, o in zip(els, orders):
            if prime_factors(o) != [p]:
                continue
            if g in sub:
                continue
            ginv = invert(g)
            if all(compose(compose(ginv, s), g) in sub for s in sub_gens):
                extension = g
                break
        if extension is None:  # cannot happen for p | |G|; guard against misuse
            raise EdcertInternalError("Sylow extension step found no normalizing p-element")
        sub_gens.append(extension)
        sub = group.subgroup(sub_gens)

    # a p-group is its own Sylow subgroup: classify the group, whose orders are cached
    shape, rank = _classify_p_group(group if sub.order == group.order else sub, p, exponent)
    return SylowReport(
        prime=p,
        exponent=exponent,
        order=sub.order,
        shape=shape,
        rank=rank,
        generators=tuple(sub_gens),
    )


# -- brute-force subgroup search ----------------------------------------------

def closed_subgroup(degree: int, seeds: Sequence[tuple[int, ...]], limit: int) -> frozenset[tuple[int, ...]] | None:
    """Element set of ⟨seeds⟩, or None as soon as it exceeds `limit` elements."""
    elems = {identity_tuple(degree)}
    queue = list(elems)
    while queue:
        x = queue.pop()
        for s in seeds:
            y = compose(x, s)
            if y not in elems:
                if len(elems) >= limit:
                    return None
                elems.add(y)
                queue.append(y)
    return frozenset(elems)


def max_proper_subgroup(group: PermGroup, limit: int | None = None) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Order and generators of the largest proper subgroup a search finds.

    Searches the subgroups generated by a conjugacy-class representative
    plus one further element, the cyclic ones included.  An element lying
    in a subgroup already closed for the same representative is skipped:
    the pair would generate a subgroup of that one, which cannot beat the
    best found.  `limit` must bound the order of every proper subgroup; it
    defaults to |G| // 2, true of any group.  A closure is abandoned once
    it exceeds `limit`, so it was the whole group, and the search returns
    at the first subgroup of order `limit`, which no later pair can beat.
    The witness is always a proper subgroup, so |G| / order bounds d(G)
    from above; the search alone does not prove that bound exact.  Raises
    CapExceeded past ``BUDGETS["subgroup_search"]`` or past the group's
    enumeration cap.
    """
    n = group.order
    if n == 1:
        raise ValidationError("the trivial group has no proper subgroup")
    check_budget("subgroup_search", n, "order {needed} exceeds the subgroup-search cap {cap}")
    if limit is None:
        limit = n // 2

    identity = group.identity()
    els = [e for e in group.elements() if e != identity]
    reps = [r for r in group.class_representatives() if r != identity]
    best = 1
    witness: tuple[tuple[int, ...], ...] = ()
    for rep in reps:
        covered: set[tuple[int, ...]] = set()  # union of the subgroups closed for rep
        for b in els:
            if b in covered:
                continue
            sub = closed_subgroup(group.degree, (rep, b), limit)
            if sub is None:
                continue
            covered |= sub
            if len(sub) > best:
                best = len(sub)
                witness = (rep, b)
                if best == limit:
                    return best, witness
    return best, witness


def embedding_degree_subgroup(group: PermGroup) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """A subgroup of index k0 = `first_embedding_degree(|G|)` in a
    nonabelian simple G, as (order, generators), or None if the search
    finds none.

    Such a G has no proper subgroup of index k < k0, which would embed it
    in A_k, so no proper subgroup has more than |G| // k0 elements and the
    search runs with that limit.  An index-k0 subgroup found is d(G).  Only
    for groups known to be nonabelian simple: S4 has k0 = 5, yet a subgroup
    of order 12.
    """
    k0 = first_embedding_degree(group.order)
    best, witness = max_proper_subgroup(group, group.order // k0)
    return (best, witness) if best * k0 == group.order else None


def first_embedding_degree(order: int) -> int:
    """Least k >= 2 with `order` dividing k!/2.

    A nonabelian simple group with a subgroup of index k acts faithfully on
    its k cosets by even permutations, so it embeds in A_k and its order
    divides k!/2: this k is a lower bound on d(G) for such a group.
    """
    k, rest = 2, order  # rest: the part of order that does not divide k!/2 = 3 * 4 * ... * k
    while rest > 1:
        k += 1
        rest //= gcd(rest, k)
    return k


def min_proper_subgroup_index(group: PermGroup) -> int | None:
    """d(G), the least index of a proper subgroup, or None when unproven.

    Let p be the least prime dividing |G|.  No index below p divides |G|, a
    subgroup of index p is normal with quotient C_p and so contains the
    derived subgroup G', and the abelian G/G' has a subgroup of index p
    whenever p divides |G : G'|: then d(G) = p.  Otherwise, for G
    nonabelian simple only, d(G) is the index `embedding_degree_subgroup`
    finds, when it finds one.  The search raises CapExceeded past the
    group's enumeration cap or past ``BUDGETS["subgroup_search"]``.
    """
    n = group.order
    if n == 1:
        raise ValidationError("the trivial group has no proper subgroup")
    p = prime_factors(n)[0]
    if n // group.derived_subgroup().order % p == 0:
        return p
    if not group.is_simple_nonabelian():
        return None
    found = embedding_degree_subgroup(group)
    return None if found is None else n // found[0]
