"""Shared brute-force oracles, independent of the stabilizer-chain engine."""

import pytest

from pihall.perms import Perm


def brute_elements(generators, degree):
    """Closure under multiplication, as a set of Perm (no chain involved)."""
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


def brute_subgroups_of_order(G, order):
    """All subgroups of the given order, as frozensets of elements."""
    els = sorted(brute_group_elements(G), key=lambda p: p.images)
    found = set()
    seen_sets = set()

    def closure(gens):
        out = brute_elements(gens, G.degree)
        return frozenset(out)

    # grow subgroups by adding elements; prune by divisibility
    frontier = {frozenset([Perm.identity(G.degree)]): ()}
    while frontier:
        nxt = {}
        for sub, gens in frontier.items():
            if len(sub) == order:
                found.add(sub)
                continue
            for x in els:
                if x in sub:
                    continue
                bigger = closure(list(gens) + [x])
                if order % len(bigger) != 0 or len(bigger) <= len(sub):
                    continue
                if bigger not in seen_sets:
                    seen_sets.add(bigger)
                    nxt[bigger] = tuple(list(gens) + [x])
        frontier = nxt
    return found


@pytest.fixture(scope="session")
def gl52_example_run():
    """The example pipeline runs once per session; several tests consume its
    report and the special-case results it registered."""
    from pihall.example_gl52 import run_example
    from pihall.registry import SpecialCaseRegistry
    known = SpecialCaseRegistry()
    return run_example(known=known), known


@pytest.fixture(scope="session")
def gl52_example_report(gl52_example_run):
    return gl52_example_run[0]


@pytest.fixture(scope="session")
def gl52_known(gl52_example_run):
    return gl52_example_run[1]
