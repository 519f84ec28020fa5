"""Exhaustive separated filtrations of Q^n indexed by exact rationals.

Indices are Fractions; integer indexing is the normal case, fractional
indices only occur for slope-derived filtrations with non-integral slopes.
Semantics of the sparse `steps` map:

  decreasing F: F(i) is the value at the smallest listed index >= i,
  and the zero space above the largest listed index.  The value at the
  smallest listed index must be the full space (prepended if missing),
  so F is exhaustive below and separated above.

  increasing M: M(i) is the value at the largest listed index <= i,
  and the zero space below the smallest listed index.  The value at the
  largest listed index must be the full space (appended if missing).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from operator import itemgetter

from .errors import FiltrationError
from .exact_linalg import Subspace, rat, rat_str

DECREASING = "decreasing"
INCREASING = "increasing"
_INDEX = itemgetter(0)


@dataclass(frozen=True)
class IndexedFiltration:
    ambient_dim: int
    orientation: str
    steps: tuple  # sorted tuple of (Fraction index, Subspace)

    def __post_init__(self):
        self.validate()

    @staticmethod
    def make(ambient_dim: int, orientation: str, steps) -> "IndexedFiltration":
        """The filtration of a sparse step map, completed by the full space
        at its exhaustive end."""
        items = sorted(((rat(i), s) for i, s in dict(steps).items()),
                       key=lambda kv: kv[0])
        full = Subspace.full(ambient_dim)
        if not items:
            items = [(Fraction(0), full)]
        if orientation == DECREASING and items[0][1] != full:
            items.insert(0, (items[0][0] - 1, full))
        elif orientation == INCREASING and items[-1][1] != full:
            items.append((items[-1][0] + 1, full))
        return IndexedFiltration(ambient_dim, orientation, tuple(items))

    def validate(self):
        if self.orientation not in (DECREASING, INCREASING):
            raise FiltrationError(f"unknown orientation {self.orientation!r}")
        if any(s.ambient_dim != self.ambient_dim for _, s in self.steps):
            raise FiltrationError("step ambient dimension mismatch")
        prev = None
        for _, s in self.steps:
            if prev is not None:
                big, small = (prev, s) if self.orientation == DECREASING else (s, prev)
                if not big.contains(small):
                    raise FiltrationError("filtration is not monotone")
            prev = s

    def at(self, i) -> Subspace:
        return self._values([rat(i)])[0]

    def _values(self, indices: list) -> list:
        """[self.at(i) for i in indices], for increasing indices, by one walk
        over the steps: a decreasing F takes the first step at or above i,
        an increasing M the last step at or below i."""
        steps, zero = self.steps, Subspace.zero(self.ambient_dim)
        out = []
        if self.orientation == DECREASING:
            pos = bisect_left(steps, indices[0], key=_INDEX) if indices else 0
            for i in indices:
                while pos < len(steps) and steps[pos][0] < i:
                    pos += 1
                out.append(steps[pos][1] if pos < len(steps) else zero)
        else:
            pos = bisect_right(steps, indices[0], key=_INDEX) if indices else 0
            for i in indices:
                while pos < len(steps) and steps[pos][0] <= i:
                    pos += 1
                out.append(steps[pos - 1][1] if pos else zero)
        return out

    def keys(self) -> list:
        return [k for k, _ in self.steps]

    def graded_dims(self) -> dict:
        """Nonzero graded dimensions keyed by jump index.

        For a decreasing filtration the piece at a listed index k is
        F(k)/F(next listed index); for an increasing one it is
        M(k)/M(previous listed index).
        """
        out = {}
        ks = self.keys()
        for idx, k in enumerate(ks):
            here = self.steps[idx][1].dim
            if self.orientation == DECREASING:
                other = self.steps[idx + 1][1].dim if idx + 1 < len(ks) else 0
                g = here - other
            else:
                other = self.steps[idx - 1][1].dim if idx > 0 else 0
                g = here - other
            if g:
                out[k] = g
        return out

    def _union_keys(self, other: "IndexedFiltration") -> list:
        """The indices listed in either filtration, increasing, by one merge."""
        out = []
        for k in merge(self.keys(), other.keys()):
            if not out or out[-1] != k:
                out.append(k)
        return out

    def same_filtration(self, other: "IndexedFiltration") -> bool:
        if (self.ambient_dim, self.orientation) != (other.ambient_dim, other.orientation):
            return False
        keys = self._union_keys(other)
        return self._values(keys) == other._values(keys)

    def step_diff(self, other: "IndexedFiltration") -> list:
        """[(index, self dim, other dim)] at indices where the two differ."""
        keys = self._union_keys(other)
        return [(k, a.dim, b.dim)
                for k, a, b in zip(keys, self._values(keys), other._values(keys)) if a != b]

    def map_subspaces(self, fn) -> "IndexedFiltration":
        """Apply a subspace transform stepwise (e.g. a quotient image)."""
        stepped = [(k, fn(s)) for k, s in self.steps]
        amb = stepped[0][1].ambient_dim if stepped else 0
        return IndexedFiltration.make(amb, self.orientation, dict(stepped))


def graded_dims_to_json(g: dict) -> dict:
    return {rat_str(rat(k)): v for k, v in sorted(g.items(), key=lambda kv: rat(kv[0]))}
