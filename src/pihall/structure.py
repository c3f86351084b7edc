"""Normal structure: closures, simplicity, minimal normal subgroups, chief
series, and induced automorphism groups on sections.

Within the enumeration budget everything is exact and computed on the
element table's conjugacy classes: a normal subgroup is a union of
classes, so normal closures, simplicity, minimal normal subgroups, the
normal-subgroup lattice and the chief series are small computations on
sets of class ids in G's table (ElementTable.normal_closure_classes); only
the returned subgroups are built as PermGroups.  Above the budget, normal
closures grow a stabilizer chain one generator at a time, the chief series
passes through quotients, and is_simple and minimal_normal_subgroups
reduce along orbit and block actions; primitive groups are
certified through a prime p dividing the degree with p^2 not dividing the
order (every nontrivial normal subgroup is transitive, hence contains the
normal closure of a Sylow p-subgroup).  Past these reductions, seeded
sampling can only refute: a simplicity or completeness question it cannot
settle raises a budget error instead of answering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Iterator

from .actions import (block_action, coset_action, nontrivial_block_system,
                      section_action)
from .arith import is_prime, p_part, prime_divisors, prime_factorization
from .backtrack import BudgetExceededError, centralizer
from .cache import LRUCache
from .config import DEFAULT_BUDGETS, Budgets
from .groups import (PermGroup, is_normal, join_subgroups, p_element,
                     require_subgroup, span)
from .perms import Perm
from .tables import ElementTable, require_order_within

_SPIN_CHECK_LIMIT = 4096
_SAMPLE_DRAWS = 48
_NORMAL_SUBGROUP_LIMIT = 512

# G.cache_key() -> ElementTable
_table_cache = LRUCache(48)


def get_table(G: PermGroup, budgets: Budgets = DEFAULT_BUDGETS) -> ElementTable:
    # a cached table must not let a smaller budget skip its check
    require_order_within(G, budgets)
    key = G.cache_key()
    tbl = _table_cache.get(key)
    if tbl is None:
        tbl = _table_cache[key] = ElementTable(G, budgets)
    return tbl


# -- closures ----------------------------------------------------------------


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements.

    Generated by the seeds and their conjugates that enlarge the span, in
    queue order; within the enumeration budget, normal structure is
    computed on class ids instead (ElementTable.normal_closure_classes)."""
    return span(G.degree, seeds,
                then=lambda x: [x.conjugate(g) for g in G.generators])


def derived_subgroup(G: PermGroup) -> PermGroup:
    comms = [a.commutator(b) for i, a in enumerate(G.generators)
             for b in G.generators[i + 1:]]
    return normal_closure(G, comms)


# -- simplicity ----------------------------------------------------------------


def is_simple(G: PermGroup, budgets: Budgets = DEFAULT_BUDGETS,
              seed: int = 1) -> bool:
    order = G.order()
    if order <= 1:
        raise ValueError("is_simple requires a nontrivial group")
    if is_prime(order):
        return True
    if order <= budgets.order_budget:
        tbl = get_table(G, budgets)
        # a proper subgroup has order at most |G|/2
        return all(tbl.normal_closure_classes([cid], limit=order // 2) is None
                   for cid in _prime_order_classes(tbl))
    return _is_simple_large(G, budgets, seed)


def _prime_order_classes(tbl: ElementTable) -> list[int]:
    """Ids of the classes of elements of prime order; every minimal normal
    subgroup is the normal closure of one of them."""
    _, reps = tbl.classes()
    return [cid for cid, rep in enumerate(reps)
            if rep != tbl.identity_idx and is_prime(tbl.element_order(rep))]


def _is_simple_large(G: PermGroup, budgets: Budgets, seed: int) -> bool:
    order = G.order()
    orbits = [o for o in G.orbits() if len(o) > 1]
    if len(orbits) > 1 or (orbits and len(orbits[0]) < G.degree):
        for orb in orbits:
            image = block_action(G, [[x] for x in orb])
            if image.order() == order:  # faithful on this orbit
                return is_simple(image, budgets, seed)
        # every orbit's action has a proper nontrivial kernel
        return False
    blocks = nontrivial_block_system(G)
    if blocks is not None:
        # G moves the blocks, so the kernel is proper: a nontrivial one
        # refutes simplicity, and a faithful image carries the question
        image = block_action(G, blocks)
        return image.order() == order and is_simple(image, budgets, seed)
    # primitive: every nontrivial normal subgroup is transitive
    n = G.degree
    for p in prime_divisors(n):
        if p_part(order, p) == p:
            z = p_element(G, p, random.Random(seed))
            if z is None:
                continue
            M = normal_closure(G, [z ** (z.order() // p)])
            return M.order() == order
    # sampling can find a proper normal closure (a witness of "not
    # simple") but never certify simplicity
    if any(M.order() < order for M in _sampled_closures(G, seed)):
        return False
    raise BudgetExceededError(
        "simplicity", f"no certificate for a primitive group of order {order}"
        f" on {n} points; sampling found no proper normal closure")


def _sampled_closures(G: PermGroup, seed: int) -> Iterator[PermGroup]:
    """Normal closures of the prime-order powers of G's generators, then of
    _SAMPLE_DRAWS random elements drawn under the seed, in that order."""
    rng = random.Random(seed)
    sources = list(G.generators)
    sources += [G.random_element(rng) for _ in range(_SAMPLE_DRAWS)]
    for x in sources:
        o = x.order()
        for p in prime_divisors(o):
            yield normal_closure(G, [x ** (o // p)])


# -- minimal normal subgroups ---------------------------------------------------


def minimal_normal_subgroups(G: PermGroup, budgets: Budgets = DEFAULT_BUDGETS,
                             seed: int = 1) -> list[PermGroup]:
    """All minimal normal subgroups, ordered by (order, generator list)."""
    order = G.order()
    if order <= 1:
        raise ValueError("the trivial group has no minimal normal subgroups")
    if order <= budgets.order_budget:
        tbl = get_table(G, budgets)
        closures = {tbl.normal_closure_classes([cid])
                    for cid in _prime_order_classes(tbl)}
        out = [tbl.subgroup(tbl.union_of_classes(s)) for s in closures
               if not any(t < s for t in closures)]
        return sorted(out, key=_subgroup_sort_key)
    return _minimal_normals_large(G, budgets, seed)


def _subgroup_sort_key(H: PermGroup):
    return (H.order(), tuple(sorted(g.images for g in H.generators)))


def _minimal_normals_large(G: PermGroup, budgets: Budgets,
                           seed: int) -> list[PermGroup]:
    """The inclusion-minimal sampled proper normal closures, each kept as
    the first sample that gives it.  Sampling stops as soon as the
    candidates so far certify themselves (see _socle_certified); later
    samples could only repeat or contain them."""
    order = G.order()
    minimal: list[PermGroup] = []
    verified: dict[PermGroup, bool] = {}
    error = None
    for M in _sampled_closures(G, seed):
        if M.order() == order or any(K.order() <= M.order()
                                     and K.is_subgroup_of(M)
                                     for K in minimal):
            continue
        minimal = [K for K in minimal
                   if not (M.order() < K.order() and M.is_subgroup_of(K))]
        minimal.append(M)
        try:
            if _socle_certified(G, minimal, verified, budgets, seed):
                return sorted(minimal, key=_subgroup_sort_key)
            error = None
        except BudgetExceededError as exc:
            error = exc   # open for now: a later sample may replace M
    if not minimal:
        if is_simple(G, budgets, seed):
            return [G]
        raise BudgetExceededError("minimal-normal",
                                  "no proper closure found by sampling")
    if error is not None:
        raise error
    if not all(verified[M] for M in minimal):
        raise BudgetExceededError("minimal-normal",
                                  "candidate failed minimality check")
    raise BudgetExceededError("minimal-normal",
                              "completeness check inconclusive")


def _socle_certified(G: PermGroup, minimal: list[PermGroup],
                     verified: dict[PermGroup, bool], budgets: Budgets,
                     seed: int) -> bool:
    """True when every candidate is a verified minimal normal subgroup and
    their join S has C_G(S) = 1; then they are all the minimal normal
    subgroups.  One outside S would meet S trivially and centralize it;
    one inside S would share a simple factor with a found one, S having
    trivial centre.  `verified` caches each candidate's verification."""
    for M in minimal:
        if M not in verified:
            verified[M] = _verify_minimal_normal(G, M, budgets, seed)
    return all(verified[M] for M in minimal) and centralizer(
        G, join_subgroups(G, minimal), budgets).is_trivial()


def _verify_minimal_normal(G: PermGroup, M: PermGroup, budgets: Budgets,
                           seed: int) -> bool:
    if not is_normal(G, M):
        return False
    if M.order() <= _SPIN_CHECK_LIMIT:
        return all(normal_closure(G, [x]).same_group_as(M)
                   for x in M.elements() if not x.is_identity())
    if is_simple(M, budgets, seed):
        return True
    factors = minimal_normal_subgroups(M, budgets, seed)
    if any(f.order() != factors[0].order() or not is_simple(f, budgets, seed)
           for f in factors):
        return False
    total = 1
    for f in factors:
        total *= f.order()
    if total != M.order():
        return False
    orbits = factor_orbits(G, factors, PermGroup(G.degree, []))
    return orbits is not None and len(orbits) == 1


def factor_orbits(G: PermGroup, factors: list[PermGroup],
                  B: PermGroup) -> list[tuple[int, int]] | None:
    """(representative index, orbit size) for the orbits of G, acting by
    conjugation, on the direct factors of a section over B (subgroups
    containing B), least unseen index first; None when a conjugate lands
    in no factor."""
    probes = [next(g for g in f.generators if not B.contains(g))
              for f in factors]

    def locate(p: Perm) -> int | None:
        for j, f in enumerate(factors):
            if f.contains(p):
                return j
        return None

    unseen = set(range(len(factors)))
    out = []
    while unseen:
        start = min(unseen)
        orbit = {start}
        queue = [start]
        while queue:
            i = queue.pop()
            for g in G.generators:
                j = locate(probes[i].conjugate(g))
                if j is None:
                    return None
                if j not in orbit:
                    orbit.add(j)
                    queue.append(j)
        unseen -= orbit
        out.append((start, len(orbit)))
    return out


def normal_subgroups(G: PermGroup,
                     budgets: Budgets = DEFAULT_BUDGETS) -> list[PermGroup]:
    """All normal subgroups (within the enumeration budget and
    _NORMAL_SUBGROUP_LIMIT of them): the join semilattice generated by the
    normal closures of single classes, as sets of class ids, each kept with
    the classes that generate it."""
    tbl = get_table(G, budgets)
    class_id, reps = tbl.classes()
    ident = frozenset([int(class_id[tbl.identity_idx])])
    found: dict[frozenset, frozenset] = {ident: frozenset()}
    for cid in range(len(reps)):
        if cid not in ident:
            found.setdefault(tbl.normal_closure_classes([cid]),
                             frozenset([cid]))
    worklist = [item for item in found.items() if item[0] != ident]
    while worklist:
        s, gens = worklist.pop()
        for s2, gens2 in list(found.items()):
            if s <= s2 or s2 <= s:
                continue
            jgens = gens | gens2
            join = tbl.normal_closure_classes(jgens)
            if join not in found:
                found[join] = jgens
                worklist.append((join, jgens))
                if len(found) > _NORMAL_SUBGROUP_LIMIT:
                    raise BudgetExceededError(
                        "normal-subgroups",
                        f"more than {_NORMAL_SUBGROUP_LIMIT} found")
    idx_sets = [tbl.union_of_classes(s) for s in found]
    ordered = sorted(idx_sets, key=lambda s: (len(s), tuple(sorted(s))))
    return [tbl.subgroup(s) for s in ordered]


# -- chief series -----------------------------------------------------------------


@dataclass
class ChiefSeries:
    """Descending normal series G = terms[0] > ... > terms[n] = 1 whose
    factors are minimal normal subgroups of the corresponding quotients,
    with the budgets and seed it was built under; everything computed from
    the series (its factor decompositions) uses those."""

    group: PermGroup
    terms: list[PermGroup]
    budgets: Budgets
    seed: int
    _decompositions: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.terms) - 1

    def factor_pair(self, i: int) -> tuple[PermGroup, PermGroup]:
        """(A, B) with the i-th factor A/B, i = 1..n."""
        return self.terms[i - 1], self.terms[i]

    def factor_order(self, i: int) -> int:
        A, B = self.factor_pair(i)
        return A.order() // B.order()

    def factor_is_abelian(self, i: int) -> bool:
        """Whether the i-th factor is abelian: exactly when its order is a
        prime power.  A chief factor is T^k for a simple T.  An abelian T
        has prime order, and a nonabelian simple T has at least three
        prime divisors, since a group of order p^a q^b is solvable
        (Burnside's p^a q^b theorem)."""
        return len(prime_factorization(self.factor_order(i))) == 1


def chief_series(G: PermGroup, budgets: Budgets = DEFAULT_BUDGETS,
                 seed: int = 1) -> ChiefSeries:
    """Chief series built upward from 1: each next term M is normal in G
    with M/N minimal normal in G/N, N the term before, of least order.

    Within the enumeration budget the terms are sets of class ids in G's
    table, and terms[0] is G itself: each class outside N whose elements
    have prime order modulo N gives a candidate N·ncl(class), and the next
    term is a candidate of least order, ties broken by _subgroup_sort_key
    of the subgroups in G; no candidate is grown past |G|/2, the largest
    order of a proper normal subgroup, or past the least order found so
    far.  Past the budget, the next term is the preimage
    of minimal_normal_subgroups(G/N)[0] under the seed, G/N the regular
    quotient (ties broken there)."""
    if G.order() <= budgets.order_budget:
        terms_up = _chief_terms_in_table(G, budgets)
    else:
        terms_up = _chief_terms_by_quotients(G, budgets, seed)
    return ChiefSeries(group=G, terms=list(reversed(terms_up)),
                       budgets=budgets, seed=seed)


def _chief_terms_in_table(G: PermGroup, budgets: Budgets) -> list[PermGroup]:
    """The terms, from 1 upward, grown as sets of class ids in G's table.

    A minimal normal subgroup M/N of G/N is N·ncl(x) for every x in M
    outside N, and some such x has prime order modulo N; so the least of
    these closures is minimal, and a growth may stop once it passes the
    least found so far.  A proper normal subgroup has order at most
    |G|/2, so no growth runs past that: when every one stops, the next
    term is G.  Candidate classes are tried smallest first, so that the
    least order falls early; every closure of that order is kept, so the
    term chosen does not depend on the order of the candidates."""
    tbl = get_table(G, budgets)
    class_id, reps = tbl.classes()
    powers = tbl.prime_power_classes()
    by_size = sorted(range(len(reps)),
                     key=lambda cid: tbl.size_of_classes([cid]))
    N = frozenset([int(class_id[tbl.identity_idx])])
    terms_up = [PermGroup(G.degree, [])]
    while len(N) < len(reps):
        least: list[frozenset] = []
        least_order = tbl.size // 2
        for cid in by_size:
            if cid in N or not any(q in N for q in powers[cid]):
                continue
            M = tbl.normal_closure_classes([cid], limit=least_order, start=N)
            if M is None or M in least:
                continue
            M_order = tbl.size_of_classes(M)
            if not least or M_order < least_order:
                least, least_order = [M], M_order
            else:
                least.append(M)
        if not least:
            terms_up.append(G)
            break
        term, N = min(((tbl.subgroup(tbl.union_of_classes(M)), M)
                       for M in least),
                      key=lambda sub: _subgroup_sort_key(sub[0]))
        terms_up.append(term)
    return terms_up


def _chief_terms_by_quotients(G: PermGroup, budgets: Budgets,
                              seed: int) -> list[PermGroup]:
    """The terms, from 1 upward, through minimal normal subgroups of G and
    of the quotients G/N by the terms found."""
    terms_up = [PermGroup(G.degree, [])]
    current = terms_up[0]
    order = G.order()
    while current.order() < order:
        if current.is_trivial():
            nxt = minimal_normal_subgroups(G, budgets, seed)[0]
        else:
            hom = coset_action(G, current, budgets)
            mins = minimal_normal_subgroups(hom.quotient, budgets, seed)
            nxt = hom.preimage_group(mins[0])
        terms_up.append(nxt)
        current = nxt
    return terms_up


def chief_factor_decomposition(series: ChiefSeries,
                               i: int) -> list[PermGroup]:
    """Subgroups of terms[i-1] containing terms[i] whose images modulo
    terms[i] are the simple direct factors of a nonabelian chief factor;
    computed once per series, under its budgets and seed.  An abelian
    factor raises ValueError: it is elementary abelian of order p^k, and
    `cpi_reduce` reads its k cyclic factors off that order.

    A chief factor A/B is T^k for a simple T, so k divides every prime
    exponent of |A/B|.  When those exponents have gcd 1, k = 1 and the
    factor is [A] with no quotient built; otherwise the regular quotient
    A/B is split into its minimal normal subgroups."""
    got = series._decompositions.get(i)
    if got is not None:
        return got
    if series.factor_is_abelian(i):
        raise ValueError(f"chief factor {i} is abelian")
    budgets, seed = series.budgets, series.seed
    A, B = series.factor_pair(i)
    if gcd(*prime_factorization(series.factor_order(i)).values()) == 1:
        series._decompositions[i] = [A]
        return [A]
    hom = None
    if B.is_trivial():
        Q = A
    else:
        hom = coset_action(A, B, budgets)
        Q = hom.quotient

    if is_simple(Q, budgets, seed):
        parts = [Q]
    else:
        parts = minimal_normal_subgroups(Q, budgets, seed)
    total = 1
    for p in parts:
        total *= p.order()
    if total != Q.order():
        raise BudgetExceededError("chief-factor",
                                  "factor did not split into direct factors")
    if hom is None:
        out = parts
    else:
        out = [hom.preimage_group(p) for p in parts]
    series._decompositions[i] = out
    return out


# -- induced automorphisms on a section -------------------------------------------


@dataclass
class InducedAutomizer:
    """Automorphisms of a section A/B induced by conjugation in the ambient
    group, realized faithfully as a permutation group, and the route that
    realized them."""

    section_image: PermGroup
    route: str


def induced_automizer(G: PermGroup, A: PermGroup, B: PermGroup,
                      budgets: Budgets = DEFAULT_BUDGETS) -> InducedAutomizer:
    """Faithful representation of the automorphisms of A/B induced by G.

    Requires B <= A with both normalized by G.  Representation: the ambient
    group itself when B = 1 and A has trivial centralizer (G already acts
    faithfully, whatever the section size); else the image of G's
    conjugation action on the nonidentity section elements when the
    section is small; otherwise the coset action on the section
    centralizer C_G(A/B).  For B != 1 that centralizer is the preimage,
    under the action of G on the cosets of B, of the centralizer of A's
    image in G/B, a pruned search in the quotient; so this route needs
    |G:B| within `coset_degree_budget`."""
    require_subgroup(G, A, "A")
    if not B.is_trivial():
        require_subgroup(A, B, "B")
    if not (is_normal(G, A) and is_normal(G, B)):
        raise ValueError("A and B must be normalized by the ambient group")

    cent = centralizer(G, A, budgets) if B.is_trivial() else None
    if cent is not None and cent.is_trivial():
        return InducedAutomizer(section_image=G, route="ambient-faithful")
    if A.order() // B.order() <= budgets.element_action_budget:
        image = section_action(G, A, B, budgets)
        return InducedAutomizer(section_image=image, route="element-action")
    if cent is None:
        hom = coset_action(G, B, budgets)
        Abar = PermGroup(hom.domain_size,
                         [hom.image(a) for a in A.generators])
        cent = hom.preimage_group(centralizer(hom.quotient, Abar, budgets))
    image = coset_action(G, cent, budgets).quotient
    return InducedAutomizer(section_image=image, route="coset-on-centralizer")

