"""Subgroup-based point partitions and polynomials constant on their blocks.

A block structure of size r+1 comes from a subgroup H of the field:
multiplicative (size divides q-1) or, in characteristic 2, additive
(size a power of two).  Cosets of H give the blocks, x^(r+1) or the
subspace annihilator gives a degree-(r+1) polynomial constant on every
block, and subtracting its value on the last block pins that value to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoSubgroup, NotConstantOnBlocks, TooManyBlocks
from .field import Field, poly_eval_vec, poly_from_roots, smallest_primitive

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"


@dataclass(frozen=True)
class SubgroupSpec:
    kind: str
    elements: tuple[int, ...]


@dataclass(frozen=True)
class PartitionSpec:
    """Blocks A_1..A_m (disjoint cosets, ascending min order) and the
    punctured subset B of the last block whose points are dropped."""

    blocks: tuple[tuple[int, ...], ...]
    B: tuple[int, ...]


@dataclass(frozen=True)
class GoodPolynomial:
    gamma: int
    g_tilde: tuple[int, ...]


def find_subgroup(F: Field, size: int) -> SubgroupSpec:
    """A subgroup of GF(q) with exactly *size* elements.

    Multiplicative subgroups (size | q-1) are preferred over additive
    ones (p = 2 and size a power of two); the two conditions cannot in
    fact hold at once for size >= 2, but the tie-break is fixed anyway.
    """
    if size < 2:
        raise NoSubgroup(f"subgroup size must be at least 2, got {size}")
    if (F.order - 1) % size == 0:
        alpha = smallest_primitive(F)
        gen = F.pow(alpha, (F.order - 1) // size)
        elems = set()
        x = 1
        while x not in elems:
            elems.add(x)
            x = F.mul(x, gen)
        return SubgroupSpec(MULTIPLICATIVE, tuple(sorted(elems)))
    if F.characteristic == 2 and size & (size - 1) == 0:
        a = size.bit_length() - 1
        if a <= F.extension_degree:
            basis = [1 << i for i in range(a)]
            span = {0}
            for b in basis:
                span |= {F.add(x, b) for x in span}
            return SubgroupSpec(ADDITIVE, tuple(sorted(span)))
    raise NoSubgroup(
        f"GF({F.order}) has no subgroup of size {size}: "
        f"{size} does not divide {F.order - 1}"
        + ("" if F.characteristic == 2 else " and the characteristic is odd")
    )


def coset_partition(F: Field, H: SubgroupSpec, m: int) -> list[tuple[int, ...]]:
    """The m cosets of H with the smallest minima, each sorted ascending.

    Greedy by smallest uncovered element, so block i+1's minimum exceeds
    block i's; the result is deterministic for fixed (q, H, m).
    """
    size = len(H.elements)
    if H.kind == MULTIPLICATIVE:
        universe = range(1, F.order)
        shift = F.mul
        capacity = (F.order - 1) // size
    else:
        universe = range(F.order)
        shift = F.add
        capacity = F.order // size
    if m > capacity:
        raise TooManyBlocks(f"{m} blocks of size {size} need more than GF({F.order}) offers")
    blocks: list[tuple[int, ...]] = []
    covered: set[int] = set()
    for rep in universe:
        if len(blocks) == m:
            break
        if rep in covered:
            continue
        coset = tuple(sorted(shift(rep, h) for h in H.elements))
        blocks.append(coset)
        covered.update(coset)
    return blocks


def make_partition(blocks: Sequence[tuple[int, ...]], t: int) -> PartitionSpec:
    """Attach the punctured set B: the t largest elements of the last block."""
    last = blocks[-1]
    B = tuple(sorted(last)[len(last) - t:]) if t else ()
    return PartitionSpec(tuple(blocks), B)


def good_polynomial(F: Field, H: SubgroupSpec) -> list[int]:
    """Degree-|H| polynomial constant on every coset of H.

    x^|H| in the multiplicative case (cosets are scalings of H, and H^|H|
    = {1}); the annihilator prod(x - h) in the additive case (a linearized
    polynomial, hence additive as a map, hence constant on x + H).
    """
    if H.kind == MULTIPLICATIVE:
        return [0] * len(H.elements) + [1]
    return poly_from_roots(F, H.elements)


def normalize_gamma(F: Field, g: Sequence[int], partition: PartitionSpec) -> GoodPolynomial:
    """Subtract g's value on the last block so that value becomes zero.

    Verifies block-constancy by evaluating g at every point first, in
    one vector Horner pass over the (m, r+1) array of blocks.  Only g's
    constant term changes, and deg g = r+1 >= 2, so none needs trimming.
    """
    values = poly_eval_vec(F, g, np.array(partition.blocks, dtype=np.int64))
    for block, vals in zip(partition.blocks, values):
        if (vals != vals[0]).any():
            raise NotConstantOnBlocks(
                f"polynomial takes {len(set(vals.tolist()))} distinct values on block {block}"
            )
    gamma = int(values[-1, 0])  # the last block's value
    return GoodPolynomial(gamma=gamma, g_tilde=(F.sub(g[0], gamma), *g[1:]))
