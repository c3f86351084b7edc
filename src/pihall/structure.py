"""Normal structure: closures, simplicity, minimal normal subgroups, chief
series, and induced automorphism groups on sections.

Within the enumeration budget everything is exact (conjugacy-class sweep).
Above it, is_simple and minimal_normal_subgroups reduce along orbit
restrictions and block actions; primitive groups are certified through a
prime p dividing the degree with p^2 not dividing the order (every
nontrivial normal subgroup is transitive, hence contains the normal
closure of a Sylow p-subgroup).  Instances outside these reductions fall
back to seeded sampling and are flagged by raising a budget error when the
completeness check is inconclusive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .actions import (ActionHom, block_action, coset_action, identity_hom,
                      nontrivial_block_system, orbit_restriction,
                      section_action)
from .arith import is_prime, p_part, prime_divisors
from .backtrack import (BudgetExceededError, PredicateProperty, centralizer,
                        subgroup_search)
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup, _inv, _mul, join_subgroups, require_subgroup
from .perms import Perm
from .tables import ElementTable, require_order_within

_SPIN_CHECK_LIMIT = 4096
_SAMPLE_DRAWS = 48

_table_cache: dict = {}


def get_table(G: PermGroup, order_budget: int) -> ElementTable:
    # a cached table must not let a smaller budget skip its check
    require_order_within(G, order_budget)
    key = G.canonical_key()
    tbl = _table_cache.get(key)
    if tbl is None:
        tbl = ElementTable(G, order_budget)
        if len(_table_cache) > 48:
            _table_cache.clear()
        _table_cache[key] = tbl
    return tbl


# -- closures ----------------------------------------------------------------


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements."""
    gens: list[Perm] = []
    K = PermGroup(G.degree, [])
    queue = list(seeds)
    while queue:
        x = queue.pop(0)
        if K.contains(x):
            continue
        gens.append(x)
        K = PermGroup(G.degree, gens)
        for g in G.generators:
            queue.append(x.conjugate(g))
    return K


def derived_subgroup(G: PermGroup) -> PermGroup:
    comms = [a.commutator(b) for i, a in enumerate(G.generators)
             for b in G.generators[i + 1:]]
    return normal_closure(G, comms)


def center(G: PermGroup) -> PermGroup:
    return centralizer(G, G)


def is_normal(G: PermGroup, H: PermGroup) -> bool:
    return all(H.contains(h.conjugate(g))
               for g in G.generators for h in H.generators)


# -- simplicity ----------------------------------------------------------------


def _prime_order_element(G: PermGroup, p: int, seed: int) -> Perm | None:
    rng = random.Random(seed)
    for g in G.generators:
        o = g.order()
        if o % p == 0:
            return g ** (o // p)
    for _ in range(4096):
        g = G.random_element(rng)
        o = g.order()
        if o % p == 0:
            return g ** (o // p)
    return None


def is_simple(G: PermGroup, budgets: Budgets = DEFAULT_BUDGETS,
              seed: int = 1) -> bool:
    order = G.order()
    if order <= 1:
        raise ValueError("is_simple requires a nontrivial group")
    if is_prime(order):
        return True
    if order <= budgets.order_budget:
        tbl = get_table(G, budgets.order_budget)
        _, reps = tbl.classes()
        for rep in reps:
            if rep == tbl.identity_idx:
                continue
            if not is_prime(tbl.element_order(rep)):
                continue
            M = normal_closure(G, [tbl.perm_of(rep)])
            if M.order() < order:
                return False
        return True
    return _is_simple_large(G, budgets, seed)


def _is_simple_large(G: PermGroup, budgets: Budgets, seed: int) -> bool:
    orbits = [o for o in G.orbits() if len(o) > 1]
    if len(orbits) > 1 or (orbits and len(orbits[0]) < G.degree):
        for orb in orbits:
            hom = orbit_restriction(G, orb)
            if hom.kernel().is_trivial():
                return is_simple(hom.quotient, budgets, seed)
        # every orbit restriction has a proper nontrivial kernel
        return False
    blocks = nontrivial_block_system(G)
    if blocks is not None:
        hom = block_action(G, blocks)
        k = hom.kernel().order()
        if k == 1:
            return is_simple(hom.quotient, budgets, seed)
        return False
    # primitive: every nontrivial normal subgroup is transitive
    n = G.degree
    order = G.order()
    for p in prime_divisors(n):
        if p_part(order, p) == p:
            z = _prime_order_element(G, p, seed)
            if z is None:
                continue
            M = normal_closure(G, [z])
            return M.order() == order
    # sampling boundary: deterministic per seed, not a certificate
    rng = random.Random(seed)
    sources = list(G.generators)
    sources += [G.random_element(rng) for _ in range(_SAMPLE_DRAWS)]
    for x in sources:
        o = x.order()
        for p in prime_divisors(o):
            M = normal_closure(G, [x ** (o // p)])
            if M.order() < order:
                return False
    return True


# -- minimal normal subgroups ---------------------------------------------------


def _minimal_sets(sets: list[frozenset]) -> list[frozenset]:
    uniq = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    out = []
    for s in uniq:
        if not any(t < s for t in uniq):
            out.append(s)
    return out


def minimal_normal_subgroups(G: PermGroup, budgets: Budgets = DEFAULT_BUDGETS,
                             seed: int = 1) -> list[PermGroup]:
    """All minimal normal subgroups, ordered by (order, generator list)."""
    order = G.order()
    if order <= 1:
        raise ValueError("the trivial group has no minimal normal subgroups")
    if order <= budgets.order_budget:
        tbl = get_table(G, budgets.order_budget)
        _, reps = tbl.classes()
        closure_sets = set()
        for rep in reps:
            if rep == tbl.identity_idx or not is_prime(tbl.element_order(rep)):
                continue
            M = normal_closure(G, [tbl.perm_of(rep)])
            closure_sets.add(tbl.indices_of_subgroup(M))
        mins = _minimal_sets(list(closure_sets))
        out = [tbl.subgroup(s) for s in mins]
        return sorted(out, key=_subgroup_sort_key)
    return _minimal_normals_large(G, budgets, seed)


def _subgroup_sort_key(H: PermGroup):
    return (H.order(), tuple(sorted(g.images for g in H.generators)))


def _minimal_normals_large(G: PermGroup, budgets: Budgets,
                           seed: int) -> list[PermGroup]:
    order = G.order()
    rng = random.Random(seed)
    sources = list(G.generators)
    sources += [G.random_element(rng) for _ in range(_SAMPLE_DRAWS)]
    cands: list[PermGroup] = []
    for x in sources:
        o = x.order()
        for p in prime_divisors(o):
            M = normal_closure(G, [x ** (o // p)])
            if M.order() < order:
                cands.append(M)
    if not cands:
        if is_simple(G, budgets, seed):
            return [G]
        raise BudgetExceededError("minimal-normal",
                                  "no proper closure found by sampling")
    # keep inclusion-minimal candidates
    cands.sort(key=lambda H: H.order())
    minimal: list[PermGroup] = []
    for M in cands:
        if any(K.order() <= M.order() and K.is_subgroup_of(M) for K in minimal):
            continue
        if any(M.same_group_as(K) for K in minimal):
            continue
        minimal.append(M)
    for M in minimal:
        if not _verify_minimal_normal(G, M, budgets, seed):
            raise BudgetExceededError("minimal-normal",
                                      "candidate failed minimality check")
    socle = join_subgroups(G, minimal)
    if not centralizer(G, socle, node_budget=budgets.node_budget).is_trivial():
        raise BudgetExceededError("minimal-normal",
                                  "completeness check inconclusive")
    return sorted(minimal, key=_subgroup_sort_key)


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
    return _transitive_on_factors(G, factors)


def _transitive_on_factors(G: PermGroup, factors: list[PermGroup]) -> bool:
    probe = [next(g for g in f.generators if not g.is_identity())
             for f in factors]

    def locate(p: Perm) -> int | None:
        for j, f in enumerate(factors):
            if f.contains(p):
                return j
        return None

    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for g in G.generators:
            j = locate(probe[i].conjugate(g))
            if j is None:
                return False
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(factors)


def normal_subgroups(G: PermGroup, budgets: Budgets = DEFAULT_BUDGETS,
                     limit: int = 512) -> list[PermGroup]:
    """All normal subgroups (within the enumeration budget): the join
    semilattice generated by normal closures of conjugacy class reps."""
    tbl = get_table(G, budgets.order_budget)
    _, reps = tbl.classes()
    atoms: dict[frozenset, tuple] = {}
    for rep in reps:
        if rep == tbl.identity_idx:
            continue
        M = normal_closure(G, [tbl.perm_of(rep)])
        s = tbl.indices_of_subgroup(M)
        if s not in atoms:
            atoms[s] = tuple(sorted(tbl.idx_of_perm(g) for g in M.generators))
    found: dict[frozenset, tuple] = {frozenset([tbl.identity_idx]): ()}
    found.update(atoms)
    worklist = list(atoms.items())
    while worklist:
        s, gens = worklist.pop()
        for s2, gens2 in list(found.items()):
            if s <= s2 or s2 <= s:
                continue
            join = tbl.closure(set(gens) | set(gens2))
            if join not in found:
                jgens = tuple(sorted(set(gens) | set(gens2)))
                found[join] = jgens
                worklist.append((join, jgens))
                if len(found) > limit:
                    raise BudgetExceededError("normal-subgroups",
                                              f"more than {limit} found")
    ordered = sorted(found, key=lambda s: (len(s), tuple(sorted(s))))
    return [tbl.subgroup(s) for s in ordered]


# -- chief series -----------------------------------------------------------------


@dataclass
class ChiefSeries:
    """Descending normal series G = terms[0] > ... > terms[n] = 1 whose
    factors are minimal normal subgroups of the corresponding quotients."""

    group: PermGroup
    terms: list[PermGroup]
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
        A, B = self.factor_pair(i)
        return all(B.contains(a.commutator(b))
                   for idx, a in enumerate(A.generators)
                   for b in A.generators[idx + 1:])

    def factor_orders(self) -> list[int]:
        return [self.factor_order(i) for i in range(1, len(self) + 1)]


def chief_series(G: PermGroup, budgets: Budgets = DEFAULT_BUDGETS,
                 seed: int = 1) -> ChiefSeries:
    """Chief series built upward from minimal normal subgroups of successive
    quotients; deterministic for a fixed seed (smallest order first, ties by
    generator fingerprint)."""
    terms_up: list[PermGroup] = [PermGroup(G.degree, [])]
    current = terms_up[0]
    order = G.order()
    while current.order() < order:
        if current.is_trivial():
            mins = minimal_normal_subgroups(G, budgets, seed)
            nxt = mins[0]
        else:
            hom = coset_action(G, current,
                               degree_budget=budgets.coset_degree_budget,
                               check_subgroup=False)
            mins = minimal_normal_subgroups(hom.quotient, budgets, seed)
            nxt = hom.preimage_group(mins[0])
        terms_up.append(nxt)
        current = nxt
    return ChiefSeries(group=G, terms=list(reversed(terms_up)))


def chief_factor_decomposition(series: ChiefSeries, i: int,
                               budgets: Budgets = DEFAULT_BUDGETS,
                               seed: int = 1) -> list[PermGroup]:
    """Subgroups of terms[i-1] containing terms[i] whose images modulo
    terms[i] are the simple direct factors of the chief factor (cyclic
    factors for an abelian one)."""
    got = series._decompositions.get(i)
    if got is not None:
        return got
    A, B = series.factor_pair(i)
    hom = None
    if B.is_trivial():
        Q = A
    else:
        hom = coset_action(A, B, degree_budget=budgets.coset_degree_budget,
                           check_subgroup=False)
        Q = hom.quotient

    if series.factor_is_abelian(i):
        parts = _cyclic_decomposition(Q)
    elif is_simple(Q, budgets, seed):
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


def _cyclic_decomposition(Q: PermGroup) -> list[PermGroup]:
    """Cyclic direct factors of an elementary abelian group, greedily from
    its elements in deterministic order."""
    out: list[PermGroup] = []
    span = PermGroup(Q.degree, [])
    for x in sorted(Q.elements(), key=lambda p: p.images):
        if span.order() == Q.order():
            break
        if not x.is_identity() and not span.contains(x):
            out.append(PermGroup(Q.degree, [x]))
            span = PermGroup(Q.degree, [h for f in out for h in f.generators])
    return out


# -- induced automorphisms on a section -------------------------------------------


@dataclass
class InducedAutomizer:
    """Automorphisms of a section A/B induced by conjugation in the ambient
    group, realized faithfully as a permutation group."""

    ambient: PermGroup
    section_image: PermGroup
    inner_image: PermGroup
    kernel: PermGroup
    hom: ActionHom
    route: str


def induced_automizer(G: PermGroup, A: PermGroup, B: PermGroup,
                      budgets: Budgets = DEFAULT_BUDGETS) -> InducedAutomizer:
    """Faithful representation of the automorphisms of A/B induced by G.

    Requires B <= A with both normalized by G.  Representation: the ambient
    group itself when B = 1 and A has trivial centralizer (G already acts
    faithfully, whatever the section size); else conjugation on the
    nonidentity section elements when the section is small; otherwise the
    coset action on the section centralizer."""
    require_subgroup(G, A, "A")
    if not B.is_trivial():
        require_subgroup(A, B, "B")
    if not (is_normal(G, A) and is_normal(G, B)):
        raise ValueError("A and B must be normalized by the ambient group")

    if B.is_trivial():
        cent = centralizer(G, A, node_budget=budgets.node_budget)
        if cent.is_trivial():
            hom = identity_hom(G)
            return InducedAutomizer(ambient=G, section_image=G,
                                    inner_image=A, kernel=cent, hom=hom,
                                    route="ambient-faithful")

    section_size = A.order() // B.order()
    if section_size <= budgets.element_action_budget:
        sec = section_action(G, A, B,
                             element_budget=budgets.element_action_budget)
        inner = PermGroup(sec.domain_size,
                          [sec.image(a) for a in A.generators])
        return InducedAutomizer(ambient=G, section_image=sec.quotient,
                                inner_image=inner, kernel=sec.kernel(),
                                hom=sec, route="element-action")

    cent = _section_centralizer(G, A, B, budgets)
    hom = coset_action(G, cent, degree_budget=budgets.coset_degree_budget,
                       check_subgroup=False)
    inner = PermGroup(hom.domain_size, [hom.image(a) for a in A.generators])
    return InducedAutomizer(ambient=G, section_image=hom.quotient,
                            inner_image=inner, kernel=cent, hom=hom,
                            route="coset-on-centralizer")


def _section_centralizer(G: PermGroup, A: PermGroup, B: PermGroup,
                         budgets: Budgets) -> PermGroup:
    """{g : [g, a] in B for all a in A} by predicate backtrack."""
    a_gens = A.gen_tuples()
    b_chain = B.chain()

    def pred(g):
        g_inv = _inv(g)
        for a in a_gens:
            comm = _mul(_mul(_mul(g_inv, _inv(a)), g), a)
            if not b_chain.contains(comm):
                return False
        return True

    return subgroup_search(G, PredicateProperty(pred),
                           node_budget=budgets.node_budget)
