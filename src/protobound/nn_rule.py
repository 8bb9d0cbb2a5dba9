"""The 1-nearest-neighbor rule over a prototype subset of a dataset.

Distances are compared as squared Euclidean values; no square roots are
taken. Ties go to the prototype with the smallest source index, which makes
every consumer of the rule deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    Dataset,
    LabeledPoint,
    _coord_buffer,
    _query_blocks,
    _take_rows,
    sq_dists_to,
)


class EmptyPrototypeSetError(Exception):
    """The nearest-neighbor map does not exist for an empty prototype set."""


def _doubled(buf: np.ndarray) -> np.ndarray:
    """A copy of `buf` in a buffer with twice as many rows; a coordinate
    matrix keeps `_coord_buffer`'s layout."""
    if buf.ndim == 2:
        grown = _coord_buffer(2 * len(buf), buf.shape[1])
    else:
        grown = np.empty(2 * len(buf), dtype=buf.dtype)
    grown[: len(buf)] = buf
    return grown


class PrototypeSet:
    """An insertion-ordered subset of a dataset's points.

    Members are stored as source indices into the parent dataset, in
    insertion order, plus a membership mask over the parent. Coordinates and
    codes are copied into rows preallocated for the whole parent, so
    nearest-neighbor scans stay vectorized while condensation algorithms
    append one point at a time.
    """

    def __init__(self, parent: Dataset, indices: list[int] | None = None):
        self._parent = parent
        n = len(parent)
        self._size = 0
        self._member = np.zeros(n, dtype=bool)
        self._idx_arr = np.empty(n, dtype=np.int64)
        self._coords = _coord_buffer(n, parent.dim)
        self._codes = np.empty(n, dtype=np.int64)
        for i in indices or ():
            self.add(i)

    @property
    def parent(self) -> Dataset:
        return self._parent

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self.index_array.tolist())

    @property
    def coords(self) -> np.ndarray:
        return self._coords[: self._size]

    @property
    def codes(self) -> np.ndarray:
        return self._codes[: self._size]

    @property
    def index_array(self) -> np.ndarray:
        return self._idx_arr[: self._size]

    def add(self, source_index: int) -> None:
        if not 0 <= source_index < len(self._parent):
            raise IndexError(f"source index {source_index} out of range")
        if self._member[source_index]:
            raise ValueError(f"source index {source_index} already a member")
        n = self._size
        self._coords[n] = self._parent.coords[source_index]
        self._codes[n] = self._parent.label_codes[source_index]
        self._idx_arr[n] = source_index
        self._member[source_index] = True
        self._size = n + 1

    def members(self) -> list[tuple[int, LabeledPoint]]:
        return [(i, self._parent[i]) for i in self.indices]

    def __contains__(self, source_index: int) -> bool:
        return 0 <= source_index < len(self._parent) and bool(
            self._member[source_index]
        )

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"PrototypeSet(indices={list(self.indices)!r})"


@dataclass(frozen=True)
class UpdateEvent:
    """One addition to the prototype set.

    `predicted` is the (wrong) label the current set produced, or None when
    the addition happened because the set was still empty.
    """

    pass_number: int
    source_index: int
    true_class: str
    predicted: str | None


@dataclass
class UpdateTrace:
    """Additions in order, plus the final prototype set.

    `n_passes` counts every executed sweep including the final clean one.
    """

    events: list[UpdateEvent]
    prototypes: PrototypeSet
    n_passes: int

    def event_keys(self) -> list[tuple[int, int]]:
        return [(e.pass_number, e.source_index) for e in self.events]


def nearest(prototypes: PrototypeSet, x) -> tuple[LabeledPoint, int]:
    """Nearest member of the prototype set to `x`, with its source index;
    ties go to the smallest source index."""
    if len(prototypes) == 0:
        raise EmptyPrototypeSetError("nearest neighbor of an empty set")
    q = np.asarray(x, dtype=np.float64)
    if q.shape != (prototypes.parent.dim,):
        raise ValueError(
            f"query has shape {q.shape}, expected ({prototypes.parent.dim},)"
        )
    d2 = sq_dists_to(prototypes.coords, q)
    tied = prototypes.index_array[d2 == d2.min()]
    idx = int(tied.min())
    return prototypes.parent[idx], idx


def classify(prototypes: PrototypeSet, x) -> str:
    """Label of the nearest prototype."""
    return nearest(prototypes, x)[0].label


def is_consistent(prototypes: PrototypeSet, dataset: Dataset) -> bool:
    """True when every point of `dataset` gets its own label back.

    `prototypes` must have been drawn from `dataset`. One batched pass in
    query blocks: with the members in source-index order, the first minimal
    distance is the nearest member with the smallest source index, as in
    `nearest`.
    """
    if prototypes.parent is not dataset:
        raise ValueError("prototype set was not drawn from this dataset")
    if len(prototypes) == 0:
        raise EmptyPrototypeSetError("an empty set classifies nothing")
    by_index = np.argsort(prototypes.index_array)
    coords = _take_rows(prototypes.coords, by_index)
    codes = prototypes.codes[by_index]
    for block in _query_blocks(len(dataset), coords.size):
        d2 = sq_dists_to(coords, dataset.coords[block])
        if (codes[d2.argmin(axis=1)] != dataset.label_codes[block]).any():
            return False
    return True
