"""The sweeps as they were before they kept per-point state: every test
rescans the prototypes or records through the public per-query API, and the
perceptron scores every (query, record) entry through its own dense class
sums, zero ratios included. The incremental sweeps in `protobound` must
reproduce these bit for bit. So must the blocked all-pairs passes reproduce
their row-by-row loops, and blocked online condensation its per-item loop,
kept below. `min_squared_gap` must give what its former block loop gave.
`Dataset`, which holds arrays alone, must hand out the points of its former
tuple of `LabeledPoint`s, `TupleDataset`, and refuse what that refused.
"""

import math

import numpy as np

import protobound as pb
from protobound.dataset import (
    _coord_buffer,
    _distance_row_blocks,
    _grown,
    _RangeGuard,
)
from protobound.kernel_machine import DEFAULT_MAX_PASSES


def oracle_run_cnn(dataset, shuffle_seed=None):
    order = list(range(len(dataset)))
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        rng.shuffle(order)
    prototypes = pb.PrototypeSet(dataset)
    events = []
    pass_no = 0
    while True:
        pass_no += 1
        updated = False
        for i in order:
            point = dataset[i]
            if len(prototypes) == 0:
                predicted = None
            else:
                predicted = pb.classify(prototypes, dataset.coords[i])
                if predicted == point.label:
                    continue
            prototypes.add(i)
            events.append(pb.UpdateEvent(pass_no, i, point.label, predicted))
            updated = True
        if not updated:
            break
    return pb.UpdateTrace(events, prototypes, pass_no)


def dense_class_sums(ratios, rows, n_classes):
    """Per-class sums of shifted kernel ratios, shape (q, R, k), over every
    entry of `ratios` (q, P), zeros included: row r of query i sums
    ratios[i, j] over the records j with rows[r, j] equal to the class (-1
    for none), in record order, through one flat bincount."""
    n_queries, n_rows = len(ratios), len(rows)
    width = n_classes + 1
    offsets = np.arange(1, n_queries * n_rows * width, width)
    bins = rows + offsets.reshape(n_queries, n_rows, 1)
    weights = ratios[:, None, :].repeat(n_rows, axis=1)
    return np.bincount(
        bins.ravel(), weights=weights.ravel(), minlength=len(offsets) * width
    ).reshape(n_queries, n_rows, width)[..., 1:]


def dense_sums(w, x):
    """(added, subtracted) per-class sums of shifted ratios at the query
    points `x` (q, d), each (q, k), from every record of `w`."""
    d2 = pb.sq_dists_to(w.coords, np.asarray(x, dtype=np.float64))
    ratios = w.kernel.kernel(d2 - d2.min(axis=1, keepdims=True))
    sums = dense_class_sums(ratios, np.stack((w.c_codes, w.y_codes)), len(w.classes))
    return sums[:, 0], sums[:, 1]


def dense_argmax_class(w, x):
    """`argmax_class(w, x)` scored through `dense_class_sums`."""
    if len(w) == 0:
        return w.classes[0], True
    added, subtracted = dense_sums(w, np.asarray(x)[None])
    scores = added[0] - subtracted[0]
    degenerate = np.count_nonzero(scores == scores.max()) > 1
    return w.classes[int(scores.argmax())], bool(degenerate)


def oracle_run_mp(dataset, cfg, max_passes=DEFAULT_MAX_PASSES):
    w = pb.DualWeightVector(cfg, dataset.classes, dataset.dim)
    wrong = dataset.wrong_codes
    prototypes = pb.PrototypeSet(dataset)
    events = []
    pass_no = 0
    while True:
        if pass_no >= max_passes:
            raise pb.PassBudgetError(
                f"no stable pass within {max_passes} passes",
                pb.UpdateTrace(events, prototypes, pass_no),
                w,
            )
        pass_no += 1
        updated = False
        for i, point in enumerate(dataset):
            was_empty = len(w) == 0
            predicted, degenerate = dense_argmax_class(w, dataset.coords[i])
            if predicted == point.label and not degenerate:
                continue
            if predicted != point.label:
                subtracted = predicted
            else:
                subtracted = w.classes[wrong[i, 0]] if wrong.size else None
            w.append(i, point.coords, point.label, subtracted)
            if i not in prototypes:
                prototypes.add(i)
            events.append(
                pb.UpdateEvent(pass_no, i, point.label, None if was_empty else predicted)
            )
            updated = True
        if not updated:
            break
    return pb.UpdateTrace(events, prototypes, pass_no), w


def oracle_is_consistent(prototypes, dataset):
    return all(
        pb.classify(prototypes, dataset.coords[i]) == p.label
        for i, p in enumerate(dataset)
    )


def oracle_run_cnn_online(stream, max_items):
    """Online condensation with its former duplicate dictionary and no range
    check; returns (kept items in order, items seen, conflicts skipped)."""
    kept, dictionary = [], {}
    conflicts = seen = 0
    for item in stream:
        if seen == max_items:
            break
        seen += 1
        if not kept:
            misclassified = True
        else:
            prior = dictionary.get(item.coords)
            if prior is not None and prior != item.label:
                conflicts += 1
                misclassified = False
            else:
                d2 = pb.sq_dists_to(np.array([p.coords for p in kept]),
                                    np.asarray(item.coords))
                misclassified = kept[int(np.argmin(d2))].label != item.label
        if misclassified:
            kept.append(item)
            dictionary[item.coords] = item.label
    return kept, seen, conflicts


def loop_run_cnn_online(stream, max_items, checkpoints=None):
    """`run_cnn_online` as it was before it scored items in blocks: one
    distance call per item. Returns (curve, kept items in order, items seen,
    conflicts skipped)."""
    if checkpoints is None:
        checkpoints = pb.default_checkpoints(max_items)
    marks = iter(sorted(set(int(c) for c in checkpoints)))
    next_mark = next(marks, None)

    dim = None
    guard = _RangeGuard()
    kept, curve = [], []
    conflicts = seen = 0

    it = iter(stream)
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
        except pb.DatasetError as exc:
            raise pb.DatasetError(f"stream item {seen}: {exc}") from None
        n = len(kept)
        if n == 0:
            misclassified = True
        else:
            d2 = pb.sq_dists_to(coords[:n], np.asarray(item.coords))
            j = int(d2.argmin())
            misclassified = kept[j].label != item.label
            if misclassified and d2[j] == 0.0:
                conflicts += 1
                misclassified = False
        if misclassified:
            if n == len(coords):
                coords = _grown(coords, (2 * len(coords), dim))
            coords[n] = item.coords
            kept.append(item)
        while next_mark is not None and seen == next_mark:
            curve.append((seen, len(kept)))
            next_mark = next(marks, None)
    return curve, kept, seen, conflicts


def oracle_pairwise_sq_dists(coords):
    return np.stack([pb.sq_dists_to(coords, x) for x in coords])


def oracle_nearest_sq_dists(dataset):
    nearest = np.empty(len(dataset))
    for q, x in enumerate(dataset.coords):
        row = pb.sq_dists_to(dataset.coords, x)
        row[q] = np.inf
        nearest[q] = row.min()
    return nearest


def oracle_diameter(dataset):
    coords = dataset.coords
    return math.sqrt(max(float(pb.sq_dists_to(coords, x).max()) for x in coords))


def oracle_min_squared_gap(dataset):
    """The gap, or the (query, first, second) a tie raises with."""
    gamma = math.inf
    coords = dataset.coords
    for q in range(len(dataset)):
        d2 = pb.sq_dists_to(coords, coords[q])
        diffs = np.diff(np.sort(d2))
        if not diffs.all():
            order = np.argsort(d2, kind="stable")
            t = int(np.nonzero(diffs == 0.0)[0][0])
            return q, int(order[t]), int(order[t + 1])
        gamma = min(gamma, float(diffs.min()))
    return gamma


def blocked_min_squared_gap(dataset):
    """The gap, or the (query, first, second) a tie raises with, by the former
    block loop, which tested every row of a block for a tie."""
    gamma = math.inf
    for block, d2 in _distance_row_blocks(dataset.coords):
        diffs = np.diff(np.sort(d2, axis=1), axis=1)
        tied = np.flatnonzero(~diffs.all(axis=1))
        if len(tied):
            r = int(tied[0])
            order = np.argsort(d2[r], kind="stable")
            t = int(np.nonzero(diffs[r] == 0.0)[0][0])
            return block.start + r, int(order[t]), int(order[t + 1])
        gamma = min(gamma, float(diffs.min()))
    return gamma


def loop_generate_blobs(seed, n_per_class, centers, spread):
    """The points of `generate_blobs` as its former loop drew them: one
    `standard_normal(d)` call per point, centers in order, as (coords,
    label) pairs. (Its resample of an exact cross-label collision never
    ran.)"""
    rng = np.random.default_rng(seed)
    points = []
    for c, label in centers:
        center = np.asarray(c, dtype=np.float64)
        for _ in range(n_per_class):
            coords = center + spread * rng.standard_normal(center.size)
            points.append((tuple(float(v) for v in coords), str(label)))
    return points


class TupleDataset:
    """A dataset's points as `Dataset` held them before it kept arrays alone:
    a tuple of `LabeledPoint`s, with conflicting duplicates found by one
    dict scan over coordinate tuples. Only what the tuple gave is kept:
    indexing, iteration, length, equality and hash."""

    def __init__(self, points):
        pts = tuple(
            p if isinstance(p, pb.LabeledPoint) else pb.LabeledPoint(tuple(p[0]), p[1])
            for p in points
        )
        seen = {}
        for i, p in enumerate(pts):
            prev = seen.get(p.coords)
            if prev is None:
                seen[p.coords] = (i, p.label)
            elif prev[1] != p.label:
                raise pb.ConflictingDuplicateError(
                    f"points {prev[0]} and {i} share coordinates {p.coords!r} "
                    f"but have labels {prev[1]!r} and {p.label!r}",
                    prev[0],
                    i,
                )
        self._points = pts

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, i):
        return self._points[i]

    def __eq__(self, other):
        return self._points == other._points

    def __hash__(self):
        return hash(self._points)
