"""Subgroups, coset partitions, and block-constant polynomials."""

import pytest

from conftest import poly_add
from lrcodes.construction import build_code, validate_params
from lrcodes.errors import NoSubgroup, NotConstantOnBlocks, TooManyBlocks
from lrcodes.field import Field, poly_eval
from lrcodes.goodpoly import (
    coset_partition,
    find_subgroup,
    good_polynomial,
    make_partition,
    normalize_gamma,
    smallest_primitive,
)


def _order(a, p):
    # multiplicative order by walking the powers of a
    x, order = a, 1
    while x != 1:
        x = x * a % p
        order += 1
    return order


def test_smallest_primitive():
    for p, g in ((13, 2), (17, 3), (257, 3), (65521, 17)):
        assert smallest_primitive(Field(p)) == g
        # exhaustive confirmation: g has order p-1, every smaller candidate less
        assert _order(g, p) == p - 1
        assert all(_order(a, p) < p - 1 for a in range(2, g))


def test_find_subgroup_multiplicative():
    H = find_subgroup(Field(13), 4)
    assert H.kind == "multiplicative"
    assert H.elements == (1, 5, 8, 12)
    # oracle: exactly the solutions of y^4 = 1 among all nonzero elements
    F = Field(13)
    assert set(H.elements) == {y for y in range(1, 13) if F.pow(y, 4) == 1}


def test_find_subgroup_additive():
    F = Field(16)
    H = find_subgroup(F, 4)
    assert H.kind == "additive"
    assert H.elements == (0, 1, 2, 3)
    for a in H.elements:
        for b in H.elements:
            assert F.add(a, b) in set(H.elements)


def test_find_subgroup_multiplicative_in_char2():
    # in GF(16), size 5 divides q-1 = 15, so the multiplicative path fires
    # even though the field has characteristic 2
    H = find_subgroup(Field(16), 5)
    assert H.kind == "multiplicative"
    assert len(H.elements) == 5


def test_find_subgroup_none():
    with pytest.raises(NoSubgroup):
        find_subgroup(Field(13), 5)
    with pytest.raises(NoSubgroup):
        find_subgroup(Field(17), 5)


def test_coset_partition_gf13():
    F = Field(13)
    H = find_subgroup(F, 4)
    blocks = coset_partition(F, H, 3)
    assert blocks == [(1, 5, 8, 12), (2, 3, 10, 11), (4, 6, 7, 9)]


def test_coset_partition_gf16_covers_field():
    F = Field(16)
    H = find_subgroup(F, 4)
    blocks = coset_partition(F, H, 4)
    assert len(blocks) == 4
    seen = set()
    for b in blocks:
        assert len(b) == 4
        assert not seen & set(b)
        seen.update(b)
    assert seen == set(range(16))


def test_coset_partition_exhausted():
    F = Field(13)
    H = find_subgroup(F, 4)
    with pytest.raises(TooManyBlocks):
        coset_partition(F, H, 4)


def test_blocks_ordered_by_minimum():
    F = Field(17)
    H = find_subgroup(F, 4)
    blocks = coset_partition(F, H, 4)
    minima = [b[0] for b in blocks]
    assert minima == sorted(minima)


def test_good_polynomial_multiplicative():
    F = Field(13)
    H = find_subgroup(F, 4)
    g = good_polynomial(F, H)
    assert g == [0, 0, 0, 0, 1]  # x^4
    assert all(poly_eval(F, g, h) == 1 for h in H.elements)


def test_good_polynomial_additive():
    F = Field(16)
    H = find_subgroup(F, 4)
    g = good_polynomial(F, H)
    assert g == [0, 6, 7, 0, 1]  # x^4 + (x^2+x+1) X^2 + (x^2+x) X
    assert all(poly_eval(F, g, h) == 0 for h in H.elements)
    # constant on every coset
    for rep in range(16):
        vals = {poly_eval(F, g, F.add(rep, h)) for h in H.elements}
        assert len(vals) == 1


def test_normalize_gamma_reference():
    F = Field(13)
    H = find_subgroup(F, 4)
    partition = make_partition(coset_partition(F, H, 3), t=2)
    good = normalize_gamma(F, good_polynomial(F, H), partition)
    assert good.gamma == 9  # 4^4 = 256 = 9 mod 13
    assert good.g_tilde == (4, 0, 0, 0, 1)  # x^4 + 4
    block_values = [poly_eval(F, good.g_tilde, block[0]) for block in partition.blocks]
    assert block_values == [5, 7, 0]


def test_normalize_gamma_fixed_point():
    F = Field(16)
    H = find_subgroup(F, 4)
    partition = make_partition(coset_partition(F, H, 1), t=0)
    # the annihilator is already zero on H itself, the only (and last) block
    good = normalize_gamma(F, good_polynomial(F, H), partition)
    assert good.gamma == 0
    assert good.g_tilde == tuple(good_polynomial(F, H))


def test_normalize_gamma_subtracts_gamma_from_g(grid_specs):
    # g~ = g - gamma by the general polynomial sum, on every grid code and
    # on the long codes of the benchmark
    specs = [spec for _, spec in grid_specs]
    specs += [build_code(validate_params(*c)) for c in ((65536, 62, 40, 7), (65521, 118, 80, 4))]
    for spec in specs:
        F, good = spec.field, spec.good
        g = good_polynomial(F, spec.subgroup)
        assert list(good.g_tilde) == poly_add(F, g, [F.neg(good.gamma)])
        assert all(type(c) is int for c in good.g_tilde)


def test_normalize_gamma_detects_non_coset_block():
    from lrcodes.goodpoly import PartitionSpec

    F = Field(13)
    bad = PartitionSpec(blocks=((1, 5, 8, 12), (2, 3, 4, 11)), B=())
    with pytest.raises(NotConstantOnBlocks):
        normalize_gamma(F, [0, 0, 0, 0, 1], bad)


def test_make_partition_takes_largest_of_last_block():
    F = Field(13)
    H = find_subgroup(F, 4)
    partition = make_partition(coset_partition(F, H, 3), t=2)
    assert partition.blocks[-1] == (4, 6, 7, 9)
    assert partition.B == (7, 9)
    assert sum(map(len, partition.blocks)) == 12
