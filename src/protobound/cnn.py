"""Condensed nearest-neighbor selection, batch and single-pass online.

The batch rule sweeps the dataset repeatedly, adding every point the current
prototype set misclassifies, and stops after the first clean sweep. A test
against an empty prototype set counts as a misclassification, so the first
scanned point is always kept. The result is consistent: the retained subset
classifies the full training set correctly.
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
    _RangeGuard,
    sq_dists_to,
)
from .nn_rule import PrototypeSet, UpdateEvent, UpdateTrace, _doubled


def run_cnn(dataset: Dataset, shuffle_seed: int | None = None) -> UpdateTrace:
    """Condense `dataset` into a consistent prototype set.

    Scan order is dataset order; pass `shuffle_seed` to scan a fixed random
    permutation instead (source indices still refer to the original dataset).
    Terminates after at most len(dataset) + 1 sweeps since each sweep before
    the last adds at least one point.

    Every point's nearest prototype (squared distance, source index, class
    code) is kept current: each addition takes one distance row over the
    whole set and wins where it is nearer, or as near with a smaller source
    index, the tie-break of `nearest` (insertion order is not source order
    under a shuffle). A test is then a lookup, with `nearest`'s answer: the
    row holds the very floats `sq_dists_to(prototypes.coords, x)` would.
    """
    order = list(range(len(dataset)))
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        rng.shuffle(order)
    coords, codes = dataset.coords, dataset.label_codes
    near_d2 = np.full(len(dataset), np.inf)
    near_index = np.zeros(len(dataset), dtype=np.int64)
    near_code = np.zeros(len(dataset), dtype=np.int64)
    prototypes = PrototypeSet(dataset)
    events: list[UpdateEvent] = []
    pass_no = 0
    while True:
        pass_no += 1
        updated = False
        for i in order:
            if len(prototypes) == 0:
                predicted = None
            elif near_code[i] == codes[i]:
                continue
            else:
                predicted = dataset.classes[near_code[i]]
            prototypes.add(i)
            events.append(UpdateEvent(pass_no, i, dataset[i].label, predicted))
            updated = True
            d2 = sq_dists_to(coords, coords[i])
            won = (d2 < near_d2) | ((d2 == near_d2) & (i < near_index))
            near_d2[won] = d2[won]
            near_index[won] = i
            near_code[won] = codes[i]
        if not updated:
            break
    return UpdateTrace(events, prototypes, pass_no)


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
    while seen < max_items:
        try:
            item = next(it)
        except StopIteration:
            break
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
        n = len(labels)
        if n == 0:
            misclassified = True
        else:
            d2 = sq_dists_to(coords[:n], np.asarray(item.coords))
            # argmin returns the earliest minimum, which is the smallest
            # source index because arrival order is insertion order.
            j = int(d2.argmin())
            misclassified = labels[j] != item.label
            if misclassified and d2[j] == 0.0:
                conflicts += 1
                misclassified = False
        if misclassified:
            if n == len(coords):
                coords = _doubled(coords)
            coords[n] = item.coords
            labels.append(item.label)
        while next_mark is not None and seen == next_mark:
            curve.append((seen, len(labels)))
            next_mark = next(marks, None)
    return OnlineResult(curve, len(labels), seen, conflicts)
