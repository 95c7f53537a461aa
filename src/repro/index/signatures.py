"""Keyword-bitmap signatures: stdlib ints as keyword bitsets.

The textual half of every CoSKQ query is set algebra over small integer
keyword ids — ``isdisjoint`` to prune index nodes, ``issubset`` to test
covers, intersection traces to rank cover candidates.  The vocabulary
assigns keyword ids densely from zero (:mod:`repro.model.vocabulary`),
so a keyword set is exactly a bitset in an arbitrary-precision Python
``int``: bit ``t`` is set iff keyword ``t`` is present.  On that
representation the hot predicates collapse to single C-level integer
ops:

==========================  ==============================
set expression              mask expression
==========================  ==============================
``a.isdisjoint(b)``         ``a_mask & b_mask == 0``
``q <= o`` (``issubset``)   ``q_mask & ~o_mask == 0``
``a & b`` (trace)           ``a_mask & b_mask``
``a - b`` (uncovered)       ``a_mask & ~b_mask``
``len(a)`` (popcount)       ``a_mask.bit_count()``
==========================  ==============================

The mask↔set mapping is a bijection (each keyword id owns one bit and
ints are exact), so every mask predicate returns *exactly* the boolean
the set expression returns — pruning decisions, candidate orderings and
tie-breaks are those of the set algebra.

A query's stream uses a second, dense bit assignment
(:func:`query_bits`): bit ``i`` stands for the ``i``-th smallest query
keyword, so a stream mask has one bit per query keyword and stays a
small int however large the vocabulary is.  Every stream producer
(the indexes) and consumer (``N(q)`` and the owner stream) takes its
bits from there.

This module is the sanctioned home for keyword-set algebra in the index
and solver packages; inline ``isdisjoint``/``issubset``/``&`` keyword
ops there are barred by lint rule R9 (``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List

__all__ = [
    "mask_of",
    "query_bits",
    "query_keyword_of_bit",
    "bits_of",
    "overlaps",
    "shared_keywords",
    "covers_all",
]

# -- building masks ------------------------------------------------------------


def mask_of(keywords: Iterable[int]) -> int:
    """The bitmask of a keyword id set."""
    mask = 0
    for t in keywords:
        mask |= 1 << t
    return mask


def query_bits(keywords: Iterable[int]) -> Dict[int, int]:
    """Each query keyword's stream bit: ``1 << i`` for the ``i``-th smallest."""
    return {t: 1 << i for i, t in enumerate(sorted(keywords))}


def query_keyword_of_bit(keywords: Iterable[int]) -> List[int]:
    """The query keyword of each stream bit position (:func:`query_bits`)."""
    return sorted(keywords)


# -- reading masks -------------------------------------------------------------


def bits_of(mask: int) -> Iterator[int]:
    """Iterate the keyword ids of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- predicates ----------------------------------------------------------------


def overlaps(a_mask: int, b_mask: int) -> bool:
    """``not a.isdisjoint(b)`` on masks."""
    return a_mask & b_mask != 0


# -- set-level companions ------------------------------------------------------
#
# Cold call sites (baseline solvers, one-shot setup code) route their
# keyword algebra through these instead of inline frozenset operators so
# rule R9 keeps a single grep-able inventory of keyword-set algebra.
# They are the literal set expressions — no mask round-trip — because at
# cold sites the set op is already optimal and the point is only that
# the representation lives in one module.


def shared_keywords(a: FrozenSet[int], b) -> FrozenSet[int]:
    """``a & b`` for keyword sets (the relevant-keyword trace)."""
    return a & b


def covers_all(required, carried) -> bool:
    """``required ⊆ carried`` for keyword sets."""
    return required <= carried
