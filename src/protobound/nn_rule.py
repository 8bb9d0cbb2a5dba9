"""The 1-nearest-neighbor rule over a prototype subset of a dataset.

Distances are compared as squared Euclidean values; no square roots are
taken. Ties go to the prototype with the smallest source index, which makes
every consumer of the rule deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, LabeledPoint, _row_blocks, _take_rows, sq_dists_to


class EmptyPrototypeSetError(Exception):
    """The nearest-neighbor map does not exist for an empty prototype set."""


class PrototypeSet:
    """An insertion-ordered subset of a dataset's points.

    Members are stored only as source indices into the parent dataset, in
    insertion order, plus a membership mask over the parent. `coords`
    gathers the members' rows from the parent, in insertion order, when
    asked for.
    """

    def __init__(self, parent: Dataset, indices: list[int] | None = None):
        self._parent = parent
        n = len(parent)
        self._size = 0
        self._member = np.zeros(n, dtype=bool)
        self._idx_arr = np.empty(n, dtype=np.int64)
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
        return _take_rows(self._parent.coords, self.index_array)

    @property
    def index_array(self) -> np.ndarray:
        return self._idx_arr[: self._size]

    def add(self, source_index: int) -> None:
        if not 0 <= source_index < len(self._parent):
            raise IndexError(f"source index {source_index} out of range")
        if self._member[source_index]:
            raise ValueError(f"source index {source_index} already a member")
        self._idx_arr[self._size] = source_index
        self._member[source_index] = True
        self._size += 1

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
    members = np.sort(prototypes.index_array)
    coords = _take_rows(dataset.coords, members)
    codes = dataset.label_codes[members]
    for block, d2 in _row_blocks(coords, dataset.coords):
        if (codes[d2.argmin(axis=1)] != dataset.label_codes[block]).any():
            return False
    return True


def _sweep(
    dataset: Dataset, scores, order, max_passes: int
) -> tuple[UpdateTrace, bool]:
    """Sweep `dataset` in scan `order` until a pass adds nothing or
    `max_passes` passes have run; return the trace and whether a pass came
    clean. Condensation and the perceptron each run it with their own
    scorer, and at a neighborly bandwidth the two agree: the paper's identity.

    A scorer keeps `mistaken` and `argmax_codes` (the predicted class code)
    current per scan position and takes in an update at position t with
    `add(t)`; a pass jumps from one mistaken position to the next. Before
    any update every test is a mistake, so the first scanned point is added
    with no prediction. A point joins the prototype set once, however often
    it is updated, so both runs give a trace of one shape.
    """
    prototypes = PrototypeSet(dataset)
    events: list[UpdateEvent] = []
    for pass_no in range(1, max_passes + 1):
        n_before = len(events)
        t = 0
        while t < len(order):
            t += int(scores.mistaken[t:].argmax())
            if not scores.mistaken[t]:
                break
            i = int(order[t])
            predicted = dataset.classes[scores.argmax_codes[t]] if events else None
            label = dataset.classes[dataset.label_codes[i]]
            events.append(UpdateEvent(pass_no, i, label, predicted))
            scores.add(t)
            if i not in prototypes:
                prototypes.add(i)
            t += 1
        if len(events) == n_before:
            return UpdateTrace(events, prototypes, pass_no), True
    return UpdateTrace(events, prototypes, max_passes), False
