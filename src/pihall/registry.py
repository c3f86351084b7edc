"""Special-cased results that bypass generic budgets.

A pipeline that certifies a result past the oracle budget (the GL5(2)
example) records it in a SpecialCaseRegistry it is handed; a caller passes
that object to `cpi_reduce(known=...)`.  There is no process-wide
registry.  Both tables are keyed by (degree, order, pi), and every hit is
confirmed exactly before it is returned: a conjugacy verdict only for the
same group (`same_group_as`), a Hall subgroup only when it is a Hall
subgroup of the querying group.  Consumers mark every injected value in
their traces."""

from __future__ import annotations

from .arith import PiSet
from .groups import PermGroup


class SpecialCaseRegistry:
    def __init__(self):
        self._cpi: dict = {}    # key -> [(group, verdict)]
        self._hall: dict = {}   # key -> [hall subgroup]

    @staticmethod
    def _key(G: PermGroup, pi: PiSet):
        return (G.degree, G.order(), pi.primes)

    def register_cpi_verdict(self, G: PermGroup, pi: PiSet, verdict: bool):
        self._cpi.setdefault(self._key(G, pi), []).append((G, verdict))

    def lookup_cpi_verdict(self, G: PermGroup, pi: PiSet):
        for K, verdict in self._cpi.get(self._key(G, pi), ()):
            if K.same_group_as(G):
                return verdict
        return None

    def register_hall(self, G: PermGroup, pi: PiSet, hall: PermGroup):
        self._hall.setdefault(self._key(G, pi), []).append(hall)

    def lookup_hall(self, G: PermGroup, pi: PiSet):
        from .hall import is_hall
        for hall in self._hall.get(self._key(G, pi), ()):
            if hall.is_subgroup_of(G) and is_hall(G, hall, pi):
                return hall
        return None
