"""Memoized color-count guarantees for the constructive algorithms.

The guarantees grow as towers of exponentials; beyond a few thousand bits a
value cannot be materialized at all, so each bound is either an exact integer
or a certified ``huge`` marker meaning "at least 2**CAP_BITS".  Comparing an
actually-used color count against a huge bound is sound: no run of the
constructive algorithms ever approaches 2**CAP_BITS colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

CAP_BITS = 1 << 16  # exact values up to 65536 bits (8 KiB integers)


@dataclass(frozen=True)
class Bound:
    """An exact nonnegative integer, or a lower-certified huge value."""

    value: int  # exact value, or 0 when huge
    huge: bool = False

    def at_least(self, other: int) -> bool:
        if self.huge:
            return True
        return self.value >= other

    def __repr__(self):
        if self.huge:
            return f"Bound(>=2**{CAP_BITS})"
        return f"Bound({self.value})"


def exact(v: int) -> Bound:
    if v.bit_length() > CAP_BITS:
        return Bound(0, True)
    return Bound(v)


HUGE = Bound(0, True)


def _mul(a: Bound, b: Bound) -> Bound:
    if a.huge or b.huge:
        return HUGE
    if a.value.bit_length() + b.value.bit_length() > CAP_BITS + 1:
        return HUGE
    return exact(a.value * b.value)


def _add(a: Bound, b: Bound) -> Bound:
    if a.huge or b.huge:
        return HUGE
    return exact(a.value + b.value)


def _pow2(e: Bound) -> Bound:
    if e.huge or e.value > CAP_BITS:
        return HUGE
    return exact(1 << e.value)


def _const(v: int) -> Bound:
    return exact(v)


@lru_cache(maxsize=None)
def tw_bound(k: int, digraphs: int, sets: int) -> Bound:
    """Colors guaranteed for the treewidth construction.

    digraphs/sets counts below 1 are clamped to 1: the construction pads
    missing constraints with an empty digraph or empty set, which changes
    nothing.
    """
    ell = max(digraphs, 1)
    m = max(sets, 1)
    if k == 0:
        return exact(1 << (m + 1))
    inner = tw_bound(k - 1, ell, m + k * ell)
    types = _pow2(_mul(_const(m + ell * k), inner))
    core = _mul(_mul(_mul(_const(3), inner), types), tw_clique_bound(k - 1))
    return _mul(_const(2), _add(core, _const(k)))


@lru_cache(maxsize=None)
def tw_clique_bound(k: int) -> Bound:
    """Colors guaranteed for clique colorings of (k+1)-cliques in a k-tree."""
    return tw_bound(k, 1, 1)


@lru_cache(maxsize=None)
def rtw_bound(k: int, sets: int) -> Bound:
    """Colors guaranteed for the row-treewidth construction."""
    inner = tw_bound(k, 3, sets)
    return _mul(_mul(_const(6), inner), _pow2(_mul(_const(max(sets, 1)), inner)))


@lru_cache(maxsize=None)
def summand_bound(k: int, t: int, sets: int) -> Bound:
    """Colors guaranteed for one (k,t)-summand: the product coloring gets the
    t apex out-neighborhoods as extra tracked sets, plus t fresh apex colors."""
    return _add(rtw_bound(k, sets + t), _const(t))


@lru_cache(maxsize=None)
def sum_bound(k: int, t: int, sets: int, w: int) -> Bound:
    """Colors guaranteed for the (w,k,t)-sum construction."""
    m = max(sets, 0)
    if w == 0:
        f3 = summand_bound(k, t, m)
        return _mul(_mul(f3, _pow2(_mul(_const(m), f3))), tw_bound(0, 0, m))
    inner = sum_bound(k, t, m + w, w - 1)
    rows = _add(_const(m), sum_bound(k, t, 0, w - 1))
    types = _pow2(_mul(rows, inner))
    core = _mul(_mul(_mul(_const(3), inner), types), sum_clique_bound(k, t, w - 1))
    return _mul(_const(2), _add(core, sum_bound(k, t, m, 0)))


@lru_cache(maxsize=None)
def sum_clique_bound(k: int, t: int, w: int) -> Bound:
    """Colors guaranteed for clique colorings inside a (w,k,t)-sum."""
    return _mul(_pow2(_const(k + 2 + t)), sum_bound(k, t, 1, w))
