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

from .dataset import Dataset, LabeledPoint, sq_dists_to
from .nn_rule import PrototypeSet, UpdateEvent, UpdateTrace, _doubled, classify


def run_cnn(dataset: Dataset, shuffle_seed: int | None = None) -> UpdateTrace:
    """Condense `dataset` into a consistent prototype set.

    Scan order is dataset order; pass `shuffle_seed` to scan a fixed random
    permutation instead (source indices still refer to the original dataset).
    Terminates after at most len(dataset) + 1 sweeps since each sweep before
    the last adds at least one point.
    """
    order = list(range(len(dataset)))
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        rng.shuffle(order)
    prototypes = PrototypeSet(dataset)
    events: list[UpdateEvent] = []
    pass_no = 0
    while True:
        pass_no += 1
        updated = False
        for i in order:
            point = dataset[i]
            if len(prototypes) == 0:
                predicted = None
            else:
                predicted = classify(prototypes, dataset.coords[i])
                if predicted == point.label:
                    continue
            prototypes.add(i)
            events.append(UpdateEvent(pass_no, i, point.label, predicted))
            updated = True
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
    Items that exactly duplicate a kept prototype's coordinates under a
    different label violate the unambiguous-labeling assumption; they are
    skipped and counted rather than admitted.
    """
    if checkpoints is None:
        checkpoints = default_checkpoints(max_items)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if any(c < 1 or c > max_items for c in checkpoints):
        raise ValueError("checkpoints must lie in [1, max_items]")
    marks = iter(checkpoints)
    next_mark = next(marks, None)

    dim: int | None = None
    labels: list[str] = []
    kept: dict[tuple[float, ...], str] = {}
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
            coords = np.empty((16, dim), dtype=np.float64)
        elif len(item.coords) != dim:
            raise ValueError(
                f"stream item {seen} has dimension {len(item.coords)}, "
                f"expected {dim}"
            )
        n = len(labels)
        if n == 0:
            misclassified = True
        else:
            prior = kept.get(item.coords)
            if prior is not None and prior != item.label:
                conflicts += 1
                misclassified = False
            else:
                d2 = sq_dists_to(coords[:n], np.asarray(item.coords))
                # argmin returns the earliest minimum, which is the smallest
                # source index because arrival order is insertion order.
                misclassified = labels[int(np.argmin(d2))] != item.label
        if misclassified:
            if n == len(coords):
                coords = _doubled(coords)
            coords[n] = item.coords
            labels.append(item.label)
            kept[item.coords] = item.label
        while next_mark is not None and seen == next_mark:
            curve.append((seen, len(labels)))
            next_mark = next(marks, None)
    return OnlineResult(curve, len(labels), seen, conflicts)
