"""Sparse symmetric tensors over a finite orthonormal basis.

A symmetric order-q tensor f on R^d is determined by its coordinate value at
the sorted representative of each multi-index; ``SymTensor.coeffs`` maps the
sorted tuple to that coordinate value.  The squared norm of the full tensor is
then

    ||f||^2 = sum_m mult(m) * f[m]^2,

where mult(m) counts the distinct orderings of m, and inner products weight
shared keys the same way.

Two contraction routes are provided and tested against each other:

* ``contract(f, g, r)`` pairs the last r slots of f and g and returns the
  resulting (generally non-symmetric) tensor as a dense numpy array.  It is
  the transparent oracle route and only viable for small d and order.
* ``contract_sym(f, g, r)`` computes the symmetrization of f (x)_r g directly
  in multiset storage.  For sorted output key M of order n+m-2r,

      sym(f ox_r g)[M] = (1/C(n+m-2r, n-r)) * sum over splits M = u + v,
          |u| = n-r, of split_count(M, u) * sum_K ord(K) f[u+K] g[v+K]

  with K running over size-r multisets and ord(K) the number of ordered
  r-tuples realizing K.  This is the production path used by the chaos
  engine, exact in floating point up to summation order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Mapping

import numpy as np

from .multiindex import (
    MultiIndex,
    as_multi_index,
    distinct_permutations,
    merge,
    permutation_count,
    split_count,
    sub_multisets,
    subtract,
)

__all__ = [
    "SymTensor",
    "contract",
    "contract_sym",
    "symmetrize",
    "tensor_from_dense",
]


@dataclass(frozen=True)
class SymTensor:
    """Symmetric tensor of a fixed order on a d-dimensional basis."""

    order: int
    dim: int
    coeffs: Mapping[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        clean: dict[MultiIndex, float] = {}
        for key, val in self.coeffs.items():
            k = as_multi_index(key)
            if len(k) != self.order:
                raise ValueError(f"key {key} has length {len(k)}, expected order {self.order}")
            if k and (k[0] < 0 or k[-1] >= self.dim):
                raise ValueError(f"key {key} outside basis range [0, {self.dim})")
            v = float(val)
            if v != 0.0:
                clean[k] = clean.get(k, 0.0) + v
        object.__setattr__(self, "coeffs", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int, dim: int) -> "SymTensor":
        return SymTensor(order, dim, {})

    @staticmethod
    def basis(indices: Iterable[int], dim: int) -> "SymTensor":
        """Symmetrized elementary tensor e_{i1} (x) ... (x) e_{iq}.

        Stored so that the coordinate at the sorted key equals 1/mult(m):
        the symmetrization of the elementary tensor, whose full norm is
        1/sqrt(mult(m)).  For a diagonal key (i,...,i) this is just 1.
        """
        m = as_multi_index(tuple(indices))
        return SymTensor(len(m), dim, {m: 1.0 / permutation_count(m)})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "SymTensor") -> "SymTensor":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return SymTensor(self.order, self.dim, out)

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return self + other.scale(-1.0)

    def scale(self, a: float) -> "SymTensor":
        return SymTensor(self.order, self.dim, {k: a * v for k, v in self.coeffs.items()})

    def __rmul__(self, a: float) -> "SymTensor":
        return self.scale(float(a))

    def _check_compatible(self, other: "SymTensor") -> None:
        if self.order != other.order or self.dim != other.dim:
            raise ValueError(
                f"incompatible tensors: order/dim ({self.order},{self.dim}) vs "
                f"({other.order},{other.dim})"
            )

    # -- metric ------------------------------------------------------------

    def norm_sq(self) -> float:
        return float(sum(permutation_count(k) * v * v for k, v in self.coeffs.items()))

    def inner(self, other: "SymTensor") -> float:
        self._check_compatible(other)
        small, big = (self.coeffs, other.coeffs)
        if len(big) < len(small):
            small, big = big, small
        total = 0.0
        for k, v in small.items():
            w = big.get(k)
            if w is not None:
                total += permutation_count(k) * v * w
        return float(total)

    def __getitem__(self, indices: Iterable[int]) -> float:
        return self.coeffs.get(as_multi_index(tuple(indices)), 0.0)

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    # -- slicing (used by the Malliavin derivative) -------------------------

    def slice(self, j: int) -> "SymTensor":
        """f(j, .) as an order-(q-1) symmetric tensor.

        Keys not containing j vanish; a key m containing j maps to m minus one
        copy of j with unchanged coordinate value.
        """
        if self.order == 0:
            raise ValueError("cannot slice an order-0 tensor")
        out: dict[MultiIndex, float] = {}
        for k, v in self.coeffs.items():
            if j in k:
                out[subtract(k, (j,))] = v
        return SymTensor(self.order - 1, self.dim, out)

    def support(self) -> set[int]:
        s: set[int] = set()
        for k in self.coeffs:
            s.update(k)
        return s

    # -- dense conversion ----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Full dense array of shape (dim,)*order.  Small cases only."""
        arr = np.zeros((self.dim,) * self.order)
        for k, v in self.coeffs.items():
            for p in distinct_permutations(k):
                arr[p] = v
        return arr

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = [[list(k), v] for k, v in sorted(self.coeffs.items())]
        return {"order": self.order, "dim": self.dim, "entries": entries}

    @staticmethod
    def from_json_dict(doc: Mapping) -> "SymTensor":
        entries = {tuple(idx): val for idx, val in doc["entries"]}
        return SymTensor(int(doc["order"]), int(doc["dim"]), entries)


def tensor_from_dense(arr: np.ndarray) -> SymTensor:
    """Read a dense array that is already symmetric into sparse storage."""
    t = symmetrize(arr)
    dense = t.to_dense()
    if arr.shape and not np.allclose(dense, arr, rtol=0.0, atol=1e-12 * max(1.0, np.abs(arr).max())):
        raise ValueError("dense array is not symmetric")
    return t


def symmetrize(obj: "np.ndarray | SymTensor") -> SymTensor:
    """Symmetrization f~ = (1/q!) sum_sigma f^sigma, returned sparsely.

    Accepts a dense array (any tensor) or a SymTensor (then a no-op copy).
    For a dense array the value at sorted key m is the mean of the array over
    the distinct orderings of m, each ordering standing for the same number of
    permutations sigma.
    """
    if isinstance(obj, SymTensor):
        return obj
    arr = np.asarray(obj, dtype=float)
    order = arr.ndim
    if order == 0:
        return SymTensor(0, 1, {(): float(arr)})
    dims = set(arr.shape)
    if len(dims) != 1:
        raise ValueError("tensor axes must share one dimension")
    dim = arr.shape[0]
    out: dict[MultiIndex, float] = {}
    for key in _sorted_keys(order, dim):
        total = 0.0
        nperm = 0
        for p in distinct_permutations(key):
            total += float(arr[p])
            nperm += 1
        val = total / nperm
        if val != 0.0:
            out[key] = val
    return SymTensor(order, dim, out)


def _sorted_keys(order: int, dim: int) -> Iterable[MultiIndex]:
    if order == 0:
        yield ()
        return

    def rec(start: int, left: int, prefix: tuple[int, ...]):
        if left == 0:
            yield prefix
            return
        for v in range(start, dim):
            yield from rec(v, left - 1, prefix + (v,))

    yield from rec(0, order, ())


def contract(f: SymTensor, g: SymTensor, r: int) -> np.ndarray:
    """Contraction f (x)_r g over the last r slots of each, as a dense array.

    The result has order (f.order - r) + (g.order - r) and is not symmetric
    in general; pass it through ``symmetrize`` for canonical storage.  This
    route materializes both operands densely, so it is intended for small
    dimensions (oracle/testing); the engine uses ``contract_sym``.
    """
    if f.dim != g.dim:
        raise ValueError("contraction requires matching dims")
    if r < 0 or r > min(f.order, g.order):
        raise ValueError(f"invalid contraction count r={r}")
    fd, gd = f.to_dense(), g.to_dense()
    if r == 0:
        if f.order == 0:
            return float(fd) * gd
        if g.order == 0:
            return fd * float(gd)
        return np.tensordot(fd, gd, axes=0)
    axes_f = list(range(f.order - r, f.order))
    axes_g = list(range(g.order - r, g.order))
    out = np.tensordot(fd, gd, axes=(axes_f, axes_g))
    return np.asarray(out, dtype=float)


def contract_sym(f: SymTensor, g: SymTensor, r: int) -> SymTensor:
    """Symmetrized contraction sym(f (x)_r g) computed in multiset storage."""
    if f.dim != g.dim:
        raise ValueError("contraction requires matching dims")
    n, m = f.order, g.order
    if r < 0 or r > min(n, m):
        raise ValueError(f"invalid contraction count r={r}")
    out_order = n + m - 2 * r
    total_splits = comb(out_order, n - r)

    # index g by its size-r sub-multisets once
    g_index: dict[MultiIndex, list[tuple[MultiIndex, float]]] = defaultdict(list)
    for mg, vg in g.coeffs.items():
        for key_k, rest in sub_multisets(mg, r):
            g_index[key_k].append((rest, vg))

    acc: dict[MultiIndex, float] = defaultdict(float)
    for mf, vf in f.coeffs.items():
        for key_k, u in sub_multisets(mf, r):
            matches = g_index.get(key_k)
            if not matches:
                continue
            ordered_k = permutation_count(key_k)
            base = vf * ordered_k
            for v, vg in matches:
                big = merge(u, v)
                acc[big] += base * vg * split_count(big, u) / total_splits
    return SymTensor(out_order, f.dim, dict(acc))
