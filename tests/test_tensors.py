"""Symmetric tensor storage and contraction against dense einsum oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaosgamma.multiindex import (
    as_multi_index,
    distinct_permutations,
    merge,
    permutation_count,
    split_count,
    sub_multisets,
    subtract,
)
from chaosgamma.tensors import (
    SymTensor,
    contract,
    contract_sym,
    symmetrize,
    tensor_from_dense,
)


def random_sym_dense(rng, order, dim, scale=1.0):
    arr = rng.normal(size=(dim,) * order) * scale
    return symmetrize(arr).to_dense()


def random_tensor(rng, order, dim, scale=1.0):
    return tensor_from_dense(random_sym_dense(rng, order, dim, scale))


# -- multi-index bookkeeping ---------------------------------------------------------


def test_multi_index_normalizes_and_counts():
    m = as_multi_index((2, 0, 2, 1))
    assert m == (0, 1, 2, 2)
    # 4! / 2! orderings of (0,1,2,2)
    assert permutation_count(m) == 12
    assert permutation_count(()) == 1


def test_distinct_permutations_enumerates_exactly():
    m = as_multi_index((1, 1, 3, 5))
    perms = list(distinct_permutations(m))
    assert len(perms) == permutation_count(m)
    assert len(set(perms)) == len(perms)
    assert all(tuple(sorted(p)) == m for p in perms)


@given(st.lists(st.integers(0, 3), max_size=7).map(as_multi_index))
def test_permutation_count_counts_distinct_orderings(m):
    assert permutation_count(m) == len(set(itertools.permutations(m)))


def test_merge_contains_subtract_roundtrip():
    a = as_multi_index((0, 2, 2))
    b = as_multi_index((1, 2))
    ab = merge(a, b)
    assert ab == (0, 1, 2, 2, 2)
    assert subtract(ab, b) == a


def test_sub_multisets_cover_all_splits():
    m = as_multi_index((0, 0, 1, 2))
    pairs = sub_multisets(m, 2)
    # sub-multisets of size 2 of {0,0,1,2}: {0,0},{0,1},{0,2},{1,2}
    assert len(pairs) == 4
    for sub, rem in pairs:
        assert merge(sub, rem) == m
    # multinomial identity: sum over splits of perm(sub)*perm(rem)*split ways
    total = sum(
        split_count(m, sub) for sub, _ in pairs
    )
    assert total == math.comb(4, 2)


def test_split_count_is_a_multinomial():
    m = as_multi_index((0, 0, 1))
    assert split_count(m, as_multi_index((0,))) == 2
    assert split_count(m, as_multi_index((1,))) == 1
    assert split_count(m, as_multi_index((0, 1))) == 2


# -- SymTensor basics ----------------------------------------------------------------


def test_sym_tensor_entries_are_order_insensitive():
    t = SymTensor(2, 3, {(0, 1): 2.0, (2, 2): -1.0})
    assert t[(1, 0)] == 2.0
    assert t[(0, 1)] == 2.0
    assert t[(2, 2)] == -1.0
    assert t[(0, 0)] == 0.0


def test_norm_and_inner_match_dense():
    rng = np.random.default_rng(101)
    for order, dim in [(1, 4), (2, 3), (3, 3), (4, 2)]:
        f = random_tensor(rng, order, dim)
        g = random_tensor(rng, order, dim)
        fd, gd = f.to_dense(), g.to_dense()
        assert math.isclose(f.norm_sq(), float(np.sum(fd * fd)), rel_tol=1e-12)
        assert math.isclose(f.inner(g), float(np.sum(fd * gd)), rel_tol=1e-12, abs_tol=1e-14)


def test_dense_roundtrip_and_symmetrize_idempotent():
    rng = np.random.default_rng(11)
    f = random_tensor(rng, 3, 4)
    again = tensor_from_dense(f.to_dense())
    assert again.coeffs == pytest.approx(f.coeffs)
    assert symmetrize(f.to_dense()).coeffs == pytest.approx(f.coeffs)


def test_symmetrize_dense_oracle():
    rng = np.random.default_rng(12)
    arr = rng.normal(size=(3, 3, 3))
    sym = symmetrize(arr).to_dense()
    expected = np.zeros_like(arr)
    from itertools import permutations

    for perm in permutations(range(3)):
        expected += np.transpose(arr, perm)
    expected /= 6.0
    assert np.allclose(sym, expected, atol=1e-14)


def test_slice_matches_dense_row():
    rng = np.random.default_rng(13)
    f = random_tensor(rng, 3, 3)
    fd = f.to_dense()
    for j in range(3):
        assert np.allclose(f.slice(j).to_dense(), fd[j], atol=1e-14)
    with pytest.raises(ValueError):
        f.slice(0).slice(0).slice(0).slice(0)


def test_basis_tensor():
    # symmetrization of e_1 (x) e_1 (x) e_2: 1/3 in each of three slots
    e = SymTensor.basis((1, 1, 2), dim=3)
    assert e[(1, 2, 1)] == pytest.approx(1.0 / 3.0)
    assert e.norm_sq() == pytest.approx(1.0 / 3.0)
    diag = SymTensor.basis((0, 0), dim=2)
    assert diag[(0, 0)] == 1.0


def test_add_scale_compatibility_checks():
    a = SymTensor(2, 2, {(0, 1): 1.0})
    b = SymTensor(2, 2, {(0, 0): 2.0})
    assert (a + b)[(0, 1)] == 1.0
    assert (2.0 * a)[(0, 1)] == 2.0
    with pytest.raises(ValueError):
        a + SymTensor(3, 2, {(0, 0, 0): 1.0})
    with pytest.raises(ValueError):
        a + SymTensor(2, 3, {(0, 1): 1.0})


def test_json_roundtrip():
    rng = np.random.default_rng(14)
    f = random_tensor(rng, 2, 3)
    doc = f.to_json_dict()
    g = SymTensor.from_json_dict(doc)
    assert g.order == f.order and g.dim == f.dim
    assert g.coeffs == pytest.approx(f.coeffs)


# -- contractions --------------------------------------------------------------------


def dense_contract(fd, gd, r):
    """Pair the last r axes of f with the first r axes of g."""
    axes_f = list(range(fd.ndim - r, fd.ndim))
    axes_g = list(range(r))
    return np.tensordot(fd, gd, axes=(axes_f, axes_g))


@pytest.mark.parametrize("pf,qg,r,dim", [
    (2, 2, 1, 3),
    (2, 2, 2, 3),
    (3, 2, 1, 3),
    (3, 3, 2, 2),
    (4, 2, 2, 2),
    (3, 3, 3, 2),
])
def test_contract_matches_tensordot(pf, qg, r, dim):
    rng = np.random.default_rng(1000 + 10 * pf + qg + r)
    f = random_tensor(rng, pf, dim)
    g = random_tensor(rng, qg, dim)
    got = contract(f, g, r)
    want = dense_contract(f.to_dense(), g.to_dense(), r)
    assert np.allclose(got, want, atol=1e-12)


def test_contract_sym_is_symmetrized_contraction():
    rng = np.random.default_rng(21)
    f = random_tensor(rng, 3, 3)
    g = random_tensor(rng, 2, 3)
    cs = contract_sym(f, g, 1)
    want = symmetrize(dense_contract(f.to_dense(), g.to_dense(), 1))
    assert cs.order == 3
    for key in set(cs.coeffs) | set(want.coeffs):
        assert cs[key] == pytest.approx(want[key], abs=1e-12)


def test_full_contraction_equals_inner():
    rng = np.random.default_rng(22)
    f = random_tensor(rng, 3, 3)
    g = random_tensor(rng, 3, 3)
    val = contract(f, g, 3)
    assert np.ndim(val) == 0
    assert float(val) == pytest.approx(f.inner(g), rel=1e-12)


def test_contract_argument_validation():
    rng = np.random.default_rng(23)
    f = random_tensor(rng, 2, 3)
    g = random_tensor(rng, 2, 3)
    with pytest.raises(ValueError):
        contract(f, g, 3)
    with pytest.raises(ValueError):
        contract(f, g, -1)
    with pytest.raises(ValueError):
        contract(f, random_tensor(rng, 2, 4), 1)
