"""Condensed nearest-neighbor selection, batch and single-pass online.

The batch rule sweeps the dataset repeatedly, adding every point the current
prototype set misclassifies, and stops after the first clean sweep. The
result is consistent: the retained subset classifies the full training set
correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dataset import (
    Dataset,
    DatasetError,
    LabeledPoint,
    _coord_buffer,
    _doubled,
    _RangeGuard,
    _stream_block_size,
    _take_rows,
    sq_dists_to,
)
from .nn_rule import UpdateTrace, _sweep


def run_cnn(dataset: Dataset, shuffle_seed: int | None = None) -> UpdateTrace:
    """Condense `dataset` into a consistent prototype set: `nn_rule._sweep`
    with `_NearestPrototypes` as its scorer.

    Scan order is dataset order; pass `shuffle_seed` to scan a fixed random
    permutation instead (source indices still refer to the original dataset).
    Terminates after at most len(dataset) + 1 sweeps since each sweep before
    the last adds at least one point.
    """
    order = list(range(len(dataset)))
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        rng.shuffle(order)
    scores = _NearestPrototypes(dataset, np.array(order))
    return _sweep(dataset, scores, order, len(dataset) + 1)[0]


class _NearestPrototypes:
    """Every point's nearest prototype (squared distance, source index, class
    code), in scan order: `nn_rule._sweep`'s scorer for condensation. Each
    addition takes one distance row over the set, the very floats
    `sq_dists_to(prototypes.coords, x)` would give, and wins where it is
    nearer, or as near with a smaller source index: `nearest`'s tie-break,
    as insertion order is not source order under a shuffle.
    """

    def __init__(self, dataset: Dataset, order: np.ndarray):
        self._order = order
        self._coords = _take_rows(dataset.coords, order)
        self._codes = dataset.label_codes[order]
        self._near_d2 = np.full(len(order), np.inf)
        self._near_index = np.zeros(len(order), dtype=np.int64)
        self.argmax_codes = np.zeros(len(order), dtype=np.int64)
        self.mistaken = np.ones(len(order), dtype=bool)  # the empty set errs

    def add(self, t: int) -> None:
        """Add the point at scan position t as a prototype."""
        i, code = self._order[t], self._codes[t]
        d2 = sq_dists_to(self._coords, self._coords[t])
        won = (d2 < self._near_d2) | ((d2 == self._near_d2) & (i < self._near_index))
        self._near_d2[won] = d2[won]
        self._near_index[won] = i
        self.argmax_codes[won] = code
        self.mistaken[won] = self._codes[won] != code


@dataclass
class OnlineResult:
    """Growth record of a single-pass condensation over a stream."""

    curve: list[tuple[int, int]]
    prototype_count: int
    items_seen: int
    conflicts_skipped: int


def default_checkpoints(max_items: int, count: int = 10) -> list[int]:
    """`count` evenly spaced item counts ending at `max_items`."""
    if max_items <= 0:
        return []
    count = min(count, max_items)
    return sorted({round(max_items * (i + 1) / count) for i in range(count)})


def run_cnn_online(
    stream: Iterable[LabeledPoint],
    max_items: int,
    checkpoints: Sequence[int] | None = None,
) -> OnlineResult:
    """Single-pass condensation: keep each item the current set misclassifies.

    There are no repeat sweeps, so the prototype set never shrinks its error
    on past items to zero; what it buys is a bounded, one-look update rule.
    Items are refused, with DatasetError, by the range rule `Dataset`
    applies to the items seen so far, so distinct items have a squared
    distance d2 with 0 < d2 < inf. An item whose nearest prototype is at
    d2 == 0.0 under a different label therefore duplicates it exactly and
    violates the unambiguous-labeling assumption; it is skipped and counted
    rather than admitted.

    Items are pulled and checked one at a time, and scored in blocks. With
    n prototypes in d coordinates a block is the largest q with
    q * (n + q) * d <= `BLOCK_ELEMENTS` (at least 1, and never past
    `max_items`); the first item, which fixes d, is a block of its own and
    is always kept. Every block is scored on one path, with at most two
    distance calls, each giving the very floats a per-item call would. The
    first gives each item its squared distances to the n block-start
    prototypes, and its nearest one is the earliest minimum. The second,
    the block's items against themselves, is made only once an item is
    added with items still after it. Walking the block in order, item t
    compares its nearest block-start prototype with each item s < t the
    walk added, and s wins only on a strictly smaller d2: its insertion
    index is later than every block-start prototype's. That is the
    earliest-minimum rule over the grown set, so the prototypes, curve and
    conflict count are those of scoring one item at a time.
    """
    if checkpoints is None:
        checkpoints = default_checkpoints(max_items)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if any(c < 1 or c > max_items for c in checkpoints):
        raise ValueError("checkpoints must lie in [1, max_items]")
    marks = iter(checkpoints)
    next_mark = next(marks, None)

    dim: int | None = None
    guard = _RangeGuard()
    labels: list[str] = []
    curve: list[tuple[int, int]] = []
    conflicts = 0
    seen = 0

    it: Iterator[LabeledPoint] = iter(stream)
    q = 1  # the first item fixes the dimension: a block of its own
    while seen < max_items:
        block: list[LabeledPoint] = []
        for item in it:
            seen += 1
            if dim is None:
                dim = len(item.coords)
                coords = _coord_buffer(16, dim)
            elif len(item.coords) != dim:
                raise ValueError(
                    f"stream item {seen} has dimension {len(item.coords)}, "
                    f"expected {dim}"
                )
            try:
                guard.check(item.coords)
            except DatasetError as exc:
                raise DatasetError(f"stream item {seen}: {exc}") from None
            block.append(item)
            if len(block) == q:
                break
        if not block:
            break
        n = len(labels)
        x = np.array([item.coords for item in block])
        if n:
            d2 = sq_dists_to(coords[:n], x)
            nearest = d2.argmin(axis=1).tolist()
        inner: list[list[float]] = []
        added: list[int] = []
        first = seen - len(block)
        for t, item in enumerate(block):
            label, best = None, np.inf
            if n:
                j = nearest[t]
                label, best = labels[j], d2[t, j]
            for s in added:
                if inner[t][s] < best:
                    best, label = inner[t][s], block[s].label
            if label != item.label:
                if best == 0.0:
                    conflicts += 1
                else:
                    if not inner and t + 1 < len(block):
                        inner = sq_dists_to(x, x).tolist()
                    added.append(t)
                    if len(labels) == len(coords):
                        coords = _doubled(coords)
                    coords[len(labels)] = item.coords
                    labels.append(item.label)
            while first + t + 1 == next_mark:
                curve.append((next_mark, len(labels)))
                next_mark = next(marks, None)
        if len(block) < q:
            break
        if q > 1 or n == 0:
            # n only grows and the items left only shrink, so once a block
            # holds one item every later block does
            q = _stream_block_size(len(labels), dim, max_items - seen)
    return OnlineResult(curve, len(labels), seen, conflicts)
