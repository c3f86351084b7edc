"""Hall subgroup analysis for a set of primes pi.

One extension sweep (`_grow`) serves the oracle and dominance: from seed
subgroups it grows pi-subgroups by single-element extensions, one class at
a time, keeping one member per conjugacy class.  Classes are orbits of
element-index sets under conjugation (`_SetOrbits`) in the group's own
table; a normal subgroup A's Hall classes are named in A's table, where
`k_induced` locates the intersections H ∩ A and `hall_classes_kept`
their conjugates.  The oracle's classes keep their index sets in the
group's table (`HallClassSet.class_sets`), which those two and dominance
read.

The sweep's inner loops are batches over the element table.  A candidate
x extends K only when every element of the coset Kx is a pi-element of
order dividing the pi-part: a necessary condition, decided by the same
pass that finds the cosets (`ElementTable.coset_reps` over the mask of
such elements) before any extension is closed.  That one rule, one x
per right coset Kx, is the only way either caller extends a class.  The
oracle's sweep has one seed P, and every class it extends contains P, so
it runs one coset pass, over the cosets of P, and reads each later
class's cosets off the cosets of P that pass kept (`_SeedCosets`); the
dominance sweep has many seeds and runs a pass per class
(`_coset_candidates`).  An orbit is searched a level at a time, and only
its members are kept: the classes are all the sweeps read.

The oracle (`all_hall_classes`) is exhaustive within the enumeration
budget: the sweep starts at a Sylow subgroup for one pi-prime, and every
Hall class has a member through it.  Within the budget `sylow` grows that
subgroup in G's element table, one p-element of the normalizer at a time;
past it, a backtrack descent through element centralizers and an ascent
through normalizers find it with no table.  The oracle is reached only
through `classify_EC` / `classify_ECD`, whose cache answers a repeated
(G, pi, seed, budgets) without a second sweep.  Dominance (C, and every
pi-subgroup inside a Hall subgroup) is read only once C holds, so it fails
exactly when some pi-subgroup lies in no conjugate of the one Hall class's
representative H.  With one effective prime it holds by Sylow.  Otherwise
the sweep starts at the subgroups of prime order, grows only through
classes inside a conjugate of H, and stops at the first class outside,
which it keeps as a witness.  It is exact for any number of primes.

The reduction's extension step (`extend_hall`) lifts a Hall subgroup of
a normal subgroup A of pi-number index to one of G.  A Hall subgroup M of
A is H ∩ A for a Hall subgroup H of G exactly when G keeps M's A-class,
which one pass over A's classes decides (`hall_classes_kept`, by G's
generators); for the first class kept, a Hall subgroup of N_G(M), one
normalizer search, is the answer, certified to contain M.

Negative answers are certificates; running out of a budget raises
BudgetExceededError instead.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .actions import coset_action
from .arith import (PiSet, is_pi_number, is_prime, p_part, pi_part,
                    prime_divisors)
from .backtrack import (BudgetExceededError, certify, conjugating_element,
                        element_centralizer, normalizer)
from .cache import LRUCache
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup, p_element, require_subgroup
from .perms import Perm
from .registry import SpecialCaseRegistry
from .structure import ChiefSeries, get_table, is_normal
from .tables import _SIFT_CHUNK, ElementTable, _row_keys


def is_hall(G: PermGroup, H: PermGroup, pi: PiSet) -> bool:
    """H <= G with |H| a pi-number and |G:H| a pi'-number."""
    require_subgroup(G, H, "H")
    return H.order() == pi_part(G.order(), pi)


# -- Sylow subgroups -------------------------------------------------------------


def sylow(G: PermGroup, p: int, budgets: Budgets = DEFAULT_BUDGETS,
          seed: int = 1) -> PermGroup:
    """A Sylow p-subgroup: grown in G's element table within the order
    budget, by centralizer descent and normalizer ascent past it.  The
    seed picks which one."""
    order = G.order()
    if order > budgets.order_budget:
        return _sylow_descent(G, p, budgets, seed)
    return _sylow_in_table(get_table(G, budgets), p, p_part(order, p),
                           random.Random(seed))


def _sylow_in_table(tbl: ElementTable, p: int, target: int,
                    rng: random.Random) -> PermGroup:
    """A Sylow p-subgroup of the tabled group, of order `target`.

    From P = 1, each step adds a p-element x of N_G(P) outside P, drawn by
    rng: P is normal in <P, x>, so P<x> is a p-group.  While |P| < target
    such an x exists (p divides |N_G(P) : P|, and the p-part of an element
    of order p in N_G(P)/P is one)."""
    p_mask = _pi_order_mask(tbl, PiSet([p]), target)
    P, gens = frozenset([tbl.identity_idx]), ()
    while len(P) < target:
        cand = tbl.normalizing(P, gens, np.flatnonzero(p_mask & ~tbl.mask(P)))
        certify(len(cand) > 0, "no p-element normalizes a p-subgroup below "
                               "the Sylow order")
        x = int(cand[rng.randrange(len(cand))])
        P = tbl.closure(gens + (x,), limit=target, known=P)
        certify(P is not None and target % len(P) == 0,
                "<P, x> is not a p-subgroup")
        gens += (x,)
    return PermGroup(tbl.degree, map(tbl.perm_of, gens), order=target)


def _sylow_descent(G: PermGroup, p: int, budgets: Budgets,
                   seed: int) -> PermGroup:
    """A Sylow p-subgroup by backtrack: centralizer descent and normalizer
    ascent, with no element table."""
    order = G.order()
    target = p_part(order, p)
    if target == 1:
        return PermGroup(G.degree, [])
    if order == target:
        return G
    rng = random.Random(seed)
    # prefer a p-element whose centralizer captures the largest p-part
    best = None
    for _ in range(6):
        z = p_element(G, p, rng)
        if z is None:
            raise BudgetExceededError(
                "sylow", f"sampling found no element of order divisible by {p}")
        C = element_centralizer(G, z, budgets)
        key = p_part(C.order(), p)
        if best is None or key > best[0]:
            best = (key, C)
        if key == target:
            break
    _, C = best
    if C.order() < order:
        P = _sylow_descent(C, p, budgets, seed)
    else:
        # z is central; pass to the quotient by <z>
        Z = PermGroup(G.degree, [z])
        hom = coset_action(G, Z, budgets)
        P = hom.preimage_group(_sylow_descent(hom.quotient, p, budgets, seed))
    while P.order() < target:
        N = normalizer(G, P, budgets)
        if N.order() == order:
            # P is normal; a Sylow subgroup is the preimage of one in G/P
            hom = coset_action(G, P, budgets)
            return hom.preimage_group(
                _sylow_descent(hom.quotient, p, budgets, seed))
        P = _sylow_descent(N, p, budgets, seed)
    return P


# -- the oracle ---------------------------------------------------------------------


@dataclass
class HallClassSet:
    """Conjugacy classes of pi-Hall subgroups of a group.  When the oracle
    named them in the group's element table, `class_sets` holds each
    representative's index set there (its class's least member)."""

    group: PermGroup
    pi: PiSet
    class_reps: list[PermGroup]
    class_sizes: list[int]
    class_sets: list[frozenset] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.class_reps)


class _SetOrbits:
    """Orbits of element-index sets under conjugation by the tabled group,
    memoized per class.

    Each distinct class triggers one orbit search, a level at a time: the
    frontier is conjugated by every generator in batches of _SIFT_CHUNK
    members, and the images are sorted and keyed by their index bytes;
    one dict lookup per image then finds the new members.  Every member's
    key is registered, so later queries for conjugate sets are dictionary
    hits.  Per class, the members' keys are kept in the order the search
    finds them, and its canonical member, the least."""

    def __init__(self, tbl: ElementTable):
        self.maps = tbl.conj_maps()
        self.class_of: dict[bytes, int] = {}
        # per class, its members' keys (each mapped to the class id)
        self.class_reps: list[dict[bytes, int]] = []
        self.class_canon: list[frozenset] = []

    def _images(self, keys: list[bytes]):
        """The keys of the conjugates of the given members (by their keys)
        by each generator."""
        if not self.maps:
            return []  # the trivial group fixes every set
        rows = _key_rows(keys)
        conj = np.concatenate([M[rows] for M in self.maps], axis=1)
        conj = conj.reshape(-1, rows.shape[1])
        conj.sort(axis=1)
        return _row_keys(conj)

    def class_id(self, idxs: frozenset) -> int:
        key = self.key_of(idxs)
        cid = self.class_of.get(key)
        if cid is not None:
            return cid
        cid = len(self.class_reps)
        reps = {key: cid}
        frontier = [key]
        while frontier:
            nxt = []
            for s in range(0, len(frontier), _SIFT_CHUNK):
                for k in self._images(frontier[s:s + _SIFT_CHUNK]):
                    if k not in reps:
                        reps[k] = cid
                        nxt.append(k)
            frontier = nxt
        self.class_of.update(reps)
        self.class_reps.append(reps)
        self.class_canon.append(frozenset(
            np.frombuffer(min(reps), dtype=np.int64).tolist()))
        return cid

    @staticmethod
    def key_of(idxs: frozenset) -> bytes:
        return np.asarray(sorted(idxs), dtype=np.int64).tobytes()

    def canon(self, cid: int) -> frozenset:
        return self.class_canon[cid]

    def size(self, cid: int) -> int:
        return len(self.class_reps[cid])

    def members(self, cid: int):
        """Every member of the class, one sorted index array per row."""
        return _key_rows(list(self.class_reps[cid]))


def _key_rows(keys: list[bytes]) -> np.ndarray:
    """Index-set keys of one size back as rows of sorted indices."""
    return np.frombuffer(b"".join(keys), dtype=np.int64).reshape(len(keys), -1)


def _orbits_for(tbl: ElementTable) -> _SetOrbits:
    """Index-set orbits under conjugation by the tabled group; one memo,
    kept on the table."""
    if tbl.set_orbits is None:
        tbl.set_orbits = _SetOrbits(tbl)
    return tbl.set_orbits


def _pi_order_mask(tbl: ElementTable, pi: PiSet, m: int):
    """Per-element flag: order is a pi-number dividing m (class-constant)."""
    class_id, reps = tbl.classes()
    ok = np.zeros(len(reps), dtype=bool)
    for cid, rep in enumerate(reps):
        o = tbl.element_order(rep)
        ok[cid] = m % o == 0 and is_pi_number(o, pi)
    return ok[class_id]


def _grow(tbl: ElementTable, orbits: _SetOrbits, m: int, seeds, candidates):
    """Classes of subgroups of order dividing m reached from the seeds, as
    (index set, class id), each new class yielded in breadth-first order.

    A class is represented by the first member reached, with the elements
    that generate it; `seeds` gives such pairs.  Each is extended by the
    elements `candidates(K)` gives, one per right coset Kx wholly in the
    mask (`_coset_candidates`, or `_SeedCosets.candidates` when every
    class contains the one seed), one closure each; classes of order m
    are not extended."""
    seen: set[int] = set()
    queue: deque = deque()
    for K, gens in seeds:
        cid = orbits.class_id(K)
        if cid not in seen:
            seen.add(cid)
            queue.append((K, gens))
    while queue:
        K, gens = queue.popleft()
        for x in candidates(K):
            L = tbl.closure(gens + (x,), limit=m, known=K)
            if L is None or len(L) <= len(K) or m % len(L) != 0:
                continue
            cid = orbits.class_id(L)
            if cid in seen:
                continue
            seen.add(cid)
            yield L, cid
            if len(L) < m:
                queue.append((L, gens + (x,)))


def _sylow_seed(G: PermGroup, pi: PiSet, budgets: Budgets, seed: int):
    """The table of G, and a Sylow subgroup P, with its index set, for the
    pi-prime with the largest Sylow subgroup (fewest cosets).  Every Hall
    class has a member containing P."""
    order = G.order()
    tbl = get_table(G, budgets)
    effective = [p for p in pi if order % p == 0]
    pstar = max(effective, key=lambda p: (p_part(order, p), p))
    P = sylow(G, pstar, budgets, seed)
    return tbl, P, tbl.indices_of_subgroup(P)


def _hall_classes_over(tbl: ElementTable, pi: PiSet, m: int, P: PermGroup,
                       p_set: frozenset):
    """Ids of the classes of order-m pi-subgroups with a member containing
    P (not itself of order m), in the order the sweep from P finds them."""
    orbits = _orbits_for(tbl)
    cosets = _SeedCosets(tbl, _pi_order_mask(tbl, pi, m), p_set)
    p_gens = tuple(tbl.idx_of_perm(g) for g in P.generators)
    grown = _grow(tbl, orbits, m, [(p_set, p_gens)], cosets.candidates)
    return (cid for L, cid in grown if len(L) == m)


def all_hall_classes(G: PermGroup, pi: PiSet,
                     budgets: Budgets = DEFAULT_BUDGETS,
                     seed: int = 1) -> HallClassSet:
    """Every conjugacy class of pi-Hall subgroups (the oracle; exhaustive).
    The worker behind classify_EC, which callers use instead."""
    order = G.order()
    m = pi_part(order, pi)
    if m == 1:
        return HallClassSet(G, pi, [PermGroup(G.degree, [])], [1])
    if m == order:
        return HallClassSet(G, pi, [G], [1])
    tbl, P, p_set = _sylow_seed(G, pi, budgets, seed)
    orbits = _orbits_for(tbl)
    if len(p_set) == m:
        cids = [orbits.class_id(p_set)]
    else:
        cids = sorted(_hall_classes_over(tbl, pi, m, P, p_set),
                      key=lambda cid: sorted(orbits.canon(cid)))
    sets = [orbits.canon(cid) for cid in cids]
    return HallClassSet(G, pi, [tbl.subgroup(s) for s in sets],
                        [orbits.size(cid) for cid in cids], sets)


def find_hall(G: PermGroup, pi: PiSet, budgets: Budgets = DEFAULT_BUDGETS,
              seed: int = 1,
              known: SpecialCaseRegistry | None = None) -> PermGroup | None:
    """One pi-Hall subgroup, or None with certainty (search exhausted).

    `known`, a SpecialCaseRegistry, can serve groups past the enumeration
    budget; its hits are verified Hall subgroups of G."""
    order = G.order()
    m = pi_part(order, pi)
    if m == 1:
        return PermGroup(G.degree, [])
    if m == order:
        return G
    if known is not None:
        hit = known.lookup_hall(G, pi)
        if hit is not None:
            return hit
    tbl, P, p_set = _sylow_seed(G, pi, budgets, seed)
    if len(p_set) == m:
        return P
    cid = next(_hall_classes_over(tbl, pi, m, P, p_set), None)
    return None if cid is None else tbl.subgroup(_orbits_for(tbl).canon(cid))


# -- subgroup conjugacy ---------------------------------------------------------------


def are_conjugate(G: PermGroup, H: PermGroup, K: PermGroup,
                  budgets: Budgets = DEFAULT_BUDGETS) -> Perm | None:
    """Some x in G with H^x = K, or None as a non-conjugacy certificate.

    Subgroups of different orders are not conjugate.  Otherwise the
    answer is exact with no pre-filter: within the enumeration budget one
    batched conjugation test over G's element table finds the x with
    h^x in K for each generator h of H (`ElementTable.normalizing`), and
    as |H| = |K| any such x has H^x = K; past the budget a backtrack
    search (`conjugating_element`, with its own checks)."""
    require_subgroup(G, H, "H")
    require_subgroup(G, K, "K")
    if H.order() != K.order():
        return None
    if G.order() <= budgets.order_budget:
        tbl = get_table(G, budgets)
        found = tbl.normalizing(tbl.indices_of_subgroup(K),
                                [tbl.idx_of_perm(h) for h in H.generators])
        if not len(found):
            return None
        x = tbl.perm_of(int(found[0]))
        certify(all(K.contains(h.conjugate(x)) for h in H.generators),
                "the element found does not conjugate H onto K")
        return x
    return conjugating_element(G, H, K, budgets)


# -- E / C / D classification ------------------------------------------------------


@dataclass
class ECDReport:
    """E, C and k with the Hall classes; D is computed on first read (it
    needs the dominance sweep) and then kept on the report, with
    d_witness."""

    group: PermGroup
    pi: PiSet
    E: bool
    C: bool
    k: int
    classes: HallClassSet
    budgets: Budgets
    _D: bool | None = field(default=None, repr=False)
    _d_witness: PermGroup | None = field(default=None, repr=False)

    @property
    def D(self) -> bool:
        if self._D is None:
            order = self.group.order()
            m = pi_part(order, self.pi)
            if m in (1, order):
                self._D = True
            elif not self.C:
                self._D = False
            else:
                self._d_witness = _dominance_check(
                    self.group, self.pi, self.classes, self.budgets)
                self._D = self._d_witness is None
        return self._D

    @property
    def d_witness(self) -> PermGroup | None:
        """When C holds and D fails, a pi-subgroup in no Hall subgroup;
        None otherwise."""
        self.D
        return self._d_witness

    def flags(self) -> dict:
        return {"E": self.E, "C": self.C, "D": self.D, "k": self.k}


# (G, pi, seed, budgets) -> ECDReport
_classify_cache = LRUCache(512)


def classify_EC(G: PermGroup, pi: PiSet, budgets: Budgets = DEFAULT_BUDGETS,
                seed: int = 1) -> ECDReport:
    """E: a Hall subgroup exists; C: exactly one class.  The entry point
    for callers that do not need D: the dominance sweep runs only if the
    report's D is read."""
    key = (G.cache_key(), pi.primes, seed, budgets)
    got = _classify_cache.get(key)
    if got is not None:
        return got
    classes = all_hall_classes(G, pi, budgets, seed)
    k = classes.k
    report = ECDReport(G, pi, E=k >= 1, C=k == 1, k=k, classes=classes,
                       budgets=budgets)
    _classify_cache[key] = report
    return report


def classify_ECD(G: PermGroup, pi: PiSet, budgets: Budgets = DEFAULT_BUDGETS,
                 seed: int = 1) -> ECDReport:
    """E and C as in classify_EC; D: C and every pi-subgroup lies in a
    Hall subgroup.  D is computed before returning."""
    report = classify_EC(G, pi, budgets, seed)
    report.D  # the dominance sweep runs here, inside the call
    return report


def _dominance_check(G: PermGroup, pi: PiSet, classes: HallClassSet,
                     budgets: Budgets) -> PermGroup | None:
    """A pi-subgroup of G in no conjugate of the first pi-Hall class's
    representative H, or None when every pi-subgroup lies in one.  Under C
    that conjugacy class holds every Hall subgroup, so None means D."""
    effective = [p for p in pi if G.order() % p == 0]
    if len(effective) <= 1:
        return None  # Sylow: every p-subgroup lies in a conjugate of H
    tbl = get_table(G, budgets)
    witness = _grow_outside_hall(tbl, pi, classes.class_sets[0])
    return None if witness is None else tbl.subgroup(witness)


def _grow_outside_hall(tbl: ElementTable, pi: PiSet,
                       h_set: frozenset) -> frozenset | None:
    """The first pi-subgroup (index set) found in no conjugate of the
    pi-Hall subgroup h_set, or None when there is none.

    Classes grow from the subgroups of prime order, one single-element
    extension at a time (one x per right coset of K, as in the oracle),
    and only through classes inside a conjugate of h_set.  A minimal
    pi-subgroup outside every conjugate has all its proper subgroups
    inside, so it is an extension of a class that grows; the sweep stops
    there."""
    m = len(h_set)
    orbits = _orbits_for(tbl)
    mask = _pi_order_mask(tbl, pi, m)
    in_h = np.zeros(tbl.size, dtype=bool)
    in_h[list(h_set)] = True
    # level one: <x> for one x of prime order per element class
    _, reps = tbl.classes()
    seeds = ((tbl.closure([x]), (x,)) for x in reps
             if mask[x] and is_prime(tbl.element_order(x)))
    for L, cid in _grow(tbl, orbits, m, seeds,
                        lambda K: _coset_candidates(tbl, mask, K)):
        # a subgroup of prime-power order lies in a Sylow subgroup, hence
        # in a conjugate of H
        if (len(prime_divisors(len(L))) > 1
                and not in_h[orbits.members(cid)].all(axis=1).any()):
            return L
    return None


def _coset_candidates(tbl: ElementTable, mask, K: frozenset):
    """The least element x of each right coset Kx outside K (a coset's
    elements all give the same extension) that lies wholly in `mask`, the
    pi-elements of order dividing the pi-part.  Kx lies in <K, x>, so that
    is necessary for <K, x> to be a pi-subgroup of order dividing it.  One
    fresh `coset_reps` pass finds the cosets and applies the test."""
    return [x for x in tbl.coset_reps(K, within=mask) if x not in K]


class _SeedCosets:
    """The right cosets Px of a seed P that lie wholly in the mask, from
    one `coset_reps` pass, and the candidates of every K ⊇ P read off them:
    the Hall sweep grows only through such K, so it needs one pass.

    The pass labels each element of a kept coset with the coset's least
    element, and every other element with |G|.  K is the union of the
    cosets Pt over T, the least elements of the P-cosets inside K.  So Kr
    is the union of the cosets P(t·r), t in T: it lies wholly in the mask
    exactly when each P(t·r) is a kept coset, and its least element is the
    least of their labels.  One batched `products` call gives every t·r
    for a batch of starts r, one per uncovered kept coset at an even
    stride; each K-coset found covers the kept cosets it holds, as
    `coset_reps` covers elements.  The candidates are those of
    `_coset_candidates`, in the same order."""

    def __init__(self, tbl: ElementTable, mask, p_set: frozenset):
        self.tbl, self.p_set = tbl, p_set
        self.reps, self.label = tbl.coset_reps(p_set, within=mask,
                                               labels=True)

    def candidates(self, K: frozenset) -> list[int]:
        if K == self.p_set:  # its pass is the seed pass
            return [x for x in self.reps if x not in K]
        label, outside = self.label, self.tbl.size
        in_k = np.zeros(outside + 1, dtype=bool)
        in_k[label[np.fromiter(K, np.intp, len(K))]] = True
        T = np.flatnonzero(in_k)
        certify(not in_k[outside] and len(T) * len(self.p_set) == len(K),
                "K is not a union of the seed's kept cosets")
        # the kept cosets not yet covered, by their least elements
        todo = np.zeros(outside + 1, dtype=bool)
        todo[self.reps] = True
        todo[T] = False
        # rows a batch looks up: a chunk, and a quarter of the kept cosets,
        # at most
        batch = max(1, min(_SIFT_CHUNK, len(self.reps) // 4) // len(T))
        found: set[int] = set()
        while True:
            free = np.flatnonzero(todo)
            if not len(free):
                return sorted(found)
            starts = free[::max(1, len(free) // batch)][:batch]
            # row j: the labels of the cosets P(t·r) over t in T, r = starts[j]
            cosets = label[self.tbl.products(T, starts)]
            todo[starts] = False  # so that every batch makes progress
            todo[cosets] = False
            cosets = cosets[(cosets < outside).all(axis=1)]
            found.update(cosets.min(axis=1).tolist())


# -- induced Hall classes -----------------------------------------------------------


@dataclass
class KReport:
    """Counting report for the classes of intersections H^g ∩ A: `induced`
    says, per Hall class of A in classify_EC(A)'s order, whether it holds
    one, and `induced_class_reps` lists those classes' representatives."""

    group: PermGroup
    normal_subgroup: PermGroup
    pi: PiSet
    k_induced: int
    k_total: int
    induced: list[bool]
    induced_class_reps: list[PermGroup]
    e_holds: bool


def hall_classes_kept(A: PermGroup, pi: PiSet, xs,
                      budgets: Budgets = DEFAULT_BUDGETS,
                      seed: int = 1) -> list[bool]:
    """Per Hall class of A, in classify_EC(A)'s order, whether conjugation
    by each of the permutations xs (which normalize A) keeps it: M^x lies
    in M's A-class.  The classes are named in A's own table, where
    classify_EC(A) registered every member of every class, so each
    conjugate located there is named by a dict hit.  A single class is
    kept by every element, with no table."""
    classes = classify_EC(A, pi, budgets, seed).classes
    if classes.k <= 1:
        return [True] * classes.k
    tbl = get_table(A, budgets)
    orbits = _orbits_for(tbl)
    maps = [(g, np.argsort(g)) for g in (np.array(x.images) for x in xs)]
    kept = []
    for m_set in classes.class_sets:
        cid, rows = orbits.class_id(m_set), tbl.rows[list(m_set)]
        # M^x row by row, x^-1 m x as in ElementTable.conj_maps
        kept.append(all(orbits.class_id(tbl.locate(g[rows[:, g_inv]])) == cid
                        for g, g_inv in maps))
    return kept


def k_induced(G: PermGroup, A: PermGroup, pi: PiSet,
              budgets: Budgets = DEFAULT_BUDGETS, seed: int = 1) -> KReport:
    """Number of A-classes of subgroups H ∩ A over the Hall classes of G.

    A's normality is read off G's element table (a union of classes).
    Each H ∩ A, a Hall subgroup of A, is located in A's own table and
    named there, as in `hall_classes_kept`; when A has a single Hall
    class, every H ∩ A lies in it."""
    require_subgroup(G, A, "A")
    tbl = get_table(G, budgets)
    a_set = tbl.indices_of_subgroup(A)
    if not tbl.is_normal(a_set):
        raise ValueError("A must be normal in G")
    classes = classify_EC(A, pi, budgets, seed).classes
    halls = classify_EC(G, pi, budgets, seed).classes
    induced = [halls.k > 0] * classes.k
    if classes.k > 1 and halls.k:
        a_tbl = get_table(A, budgets)
        orbits = _orbits_for(a_tbl)
        found = {orbits.class_id(a_tbl.locate(tbl.rows[list(h_set & a_set)]))
                 for h_set in halls.class_sets}
        induced = [orbits.class_id(m_set) in found
                   for m_set in classes.class_sets]
    return KReport(G, A, pi, sum(induced), classes.k, induced,
                   [M for M, got in zip(classes.class_reps, induced) if got],
                   halls.k > 0)


# -- extension through an invariant class ---------------------------------------


def extend_hall(G: PermGroup, A: PermGroup, pi: PiSet,
                budgets: Budgets = DEFAULT_BUDGETS,
                seed: int = 1) -> PermGroup | None:
    """A pi-Hall subgroup H of G, for A normal in G of pi-number index,
    whose intersection with A is the first of classify_EC(A)'s class
    representatives M whose A-class G keeps; None when G keeps none.

    For a Hall subgroup H of G, H ∩ A is Hall in A and G = HA keeps its
    class, so None certifies that G has none.  When G keeps M's class,
    G = N_G(M)·A (the Frattini argument).  Then N = N_G(M) has the
    pi-separable series M ≤ N_A(M) ≤ N, and a Hall subgroup H of N is
    Hall in G.  M is a normal pi-subgroup of N, so M ≤ H, and H ∩ A, a
    pi-subgroup of A containing the Hall subgroup M, is M."""
    if not is_normal(G, A):
        raise ValueError("A must be normal in G")
    if not is_pi_number(G.order() // A.order(), pi):
        raise ValueError("|G:A| must be a pi-number")
    reps = classify_EC(A, pi, budgets, seed).classes.class_reps
    kept = hall_classes_kept(A, pi, G.generators, budgets, seed)
    M = next((M for M, k in zip(reps, kept) if k), None)
    if M is None or A.same_group_as(G):
        return M
    H = find_hall(normalizer(G, M, budgets), pi, budgets, seed)
    certify(H is not None,
            "normalizer is pi-separable, yet no Hall subgroup was found")
    certify(is_hall(G, H, pi), "the normalizer's Hall subgroup is not Hall")
    certify(M.is_subgroup_of(H), "M is normal in N_G(M) but not in its Hall "
                                 "subgroup")
    return H


def pi_separable_series(series: ChiefSeries,
                        pi: PiSet) -> list[PermGroup] | None:
    """The chief series' terms when every factor is a pi- or pi'-group (a
    pi-separable series), else None.

    Groups admitting one satisfy all three Hall properties, so this is a
    fast path for solvable inputs."""
    for i in range(1, len(series) + 1):
        fo = series.factor_order(i)
        if not (is_pi_number(fo, pi) or pi_part(fo, pi) == 1):
            return None
    return series.terms
