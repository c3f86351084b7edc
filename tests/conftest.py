"""Shared brute-force oracles, independent of the stabilizer-chain engine."""

import time

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from pihall import groups, zoo
from pihall.arith import PiSet
from pihall.groups import PermGroup
from pihall.perms import Perm


def brute_elements(generators, degree, limit=None):
    """Closure under multiplication, as a set of Perm (no chain involved);
    it stops early once it holds more than `limit` elements."""
    idt = Perm.identity(degree)
    seen = {idt}
    frontier = [idt]
    gens = list(generators)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                t = w * g
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
            if limit is not None and len(seen) > limit:
                return seen
        frontier = nxt
    return seen


def brute_group_elements(G):
    return brute_elements(G.generators, G.degree)


def brute_normalizer(G, H):
    h_els = brute_group_elements(H)
    out = set()
    for g in brute_group_elements(G):
        gi = g.inverse()
        if all((gi * h * g) in h_els for h in H.generators):
            out.add(g)
    return out


def brute_centralizer(G, H):
    return {g for g in brute_group_elements(G)
            if all(g * h == h * g for h in H.generators)}


def brute_subgroups_dividing(G, order):
    """All subgroups whose order divides `order`, as frozensets of elements,
    grown from the trivial group one element at a time."""
    els = sorted(brute_group_elements(G), key=lambda p: p.images)
    trivial = frozenset([Perm.identity(G.degree)])
    found = {trivial}
    frontier = {trivial: ()}
    while frontier:
        nxt = {}
        for sub, gens in frontier.items():
            if len(sub) == order:
                continue
            done = set(sub)
            for x in els:
                if x in done:
                    continue
                done.update(s * x for s in sub)  # <sub, s*x> = <sub, x>
                bigger = frozenset(brute_elements(list(gens) + [x], G.degree,
                                                  limit=order))
                if order % len(bigger) != 0 or bigger in found:
                    continue
                found.add(bigger)
                nxt[bigger] = gens + (x,)
        frontier = nxt
    return found


def brute_subgroups_of_order(G, order):
    """All subgroups of the given order, as frozensets of elements."""
    return {s for s in brute_subgroups_dividing(G, order) if len(s) == order}


def chain_shape(chain):
    """Per level of a stabilizer chain: base point, generators, orbit."""
    return [(lvl.point, list(lvl.gens), list(lvl.orbit_list))
            for lvl in chain.levels]


def chains_built(run, stated):
    """run() with every chain it builds recorded as (chain, stated order);
    with stated=False each chain ignores its stated order and verifies in
    full.  Returns the records and run()'s result."""
    built = []
    init = groups._Chain.__init__

    def recording(self, degree, gens, hint=(), order=None):
        init(self, degree, gens, hint, order if stated else None)
        built.append((self, order))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups._Chain, "__init__", recording)
        result = run()
    return built, result


@st.composite
def small_groups_up_to_degree_8(draw):
    """Random subgroups of S_n (n <= 7), and direct and wreath products of
    small ones, as generator image lists."""
    def sub(max_degree, max_gens):
        n = draw(st.integers(2, max_degree))
        images = draw(st.lists(st.permutations(range(n)), min_size=1,
                               max_size=max_gens))
        return PermGroup(n, [Perm(tuple(p)) for p in images])

    kind = draw(st.sampled_from(["sym", "direct", "wreath"]))
    if kind == "sym":
        G = sub(7, 3)
    elif kind == "direct":
        G = zoo.direct_product(sub(4, 2), sub(4, 2))
    else:
        G = zoo.wreath(sub(3, 2), 2)
    return G.degree, G.gen_tuples()


@st.composite
def small_groups_and_pi(draw):
    """Random subgroups of S_n (n <= 6) and small direct and wreath products,
    of order at most 144; pi a nonempty subset of {2, 3, 5}."""
    def sub(min_degree, max_degree, min_gens, max_gens):
        n = draw(st.integers(min_degree, max_degree))
        images = draw(st.lists(st.permutations(range(n)), min_size=min_gens,
                               max_size=max_gens))
        return PermGroup(n, [Perm(tuple(p)) for p in images])

    kind = draw(st.sampled_from(["sym", "direct", "wreath"]))
    if kind == "sym":
        G = sub(4, 6, 2, 3)
    elif kind == "direct":
        G = zoo.direct_product(sub(2, 5, 1, 2), sub(2, 4, 1, 2))
    else:
        G = zoo.wreath(sub(2, 3, 1, 2), 2)
    assume(1 < G.order() <= 144)
    pi = PiSet(draw(st.sampled_from(
        [[2, 3], [2, 5], [3, 5], [2, 3, 5], [2], [3], [5]])))
    return G, pi


@pytest.fixture(scope="session")
def gl52_example_run():
    """The example pipeline runs once per session; several tests consume its
    report, the special-case results it registered and its wall time."""
    from pihall.example_gl52 import run_example
    from pihall.registry import SpecialCaseRegistry
    known = SpecialCaseRegistry()
    t0 = time.perf_counter()
    report = run_example(known=known)
    return report, known, time.perf_counter() - t0


@pytest.fixture(scope="session")
def gl52_example_report(gl52_example_run):
    return gl52_example_run[0]


@pytest.fixture(scope="session")
def gl52_known(gl52_example_run):
    return gl52_example_run[1]
