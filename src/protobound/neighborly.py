"""Bandwidth certificates for agreement between kernel scores and the NN rule.

A bandwidth sigma is *neighborly* for a training set T when, for every
nonempty subset P of T, every dual weight vector with exactly one record per
member of P (true class added, any single other class subtracted), and every
query taken from T, the kernel argmax names the same class as the 1-NN rule
over P.

The analytic certificate works by domination. Fix a query x' and a subset P
with nearest member N. After dividing every kernel value by k(N, x'), the
record of N contributes exactly 1 to its true class and at most 0 elsewhere,
while each other record contributes at most exp(-(d2 - d2_min) / (2 sigma^2))
in absolute value, where d2 ranges over squared distances from x' to members
of P. With gamma the smallest positive gap between squared distances from any
query in T to any two points of T, each of those at most |T| - 1 terms is
bounded by exp(-gamma / (2 sigma^2)). Requiring

    (|T| - 1) * exp(-gamma / (2 sigma^2)) < 1/2

keeps the nearest record's vote decisive for every P, assignment, and query
simultaneously, and solving for sigma gives the threshold

    sigma* = sqrt(gamma / (2 ln(2 (|T| - 1)))).

Every sigma strictly below sigma* is certified. If some query is exactly
equidistant from two points (gamma = 0) the construction collapses and no
analytic certificate exists. Tied data still reaches a certified bound through
an explicit grid: `bound_infimum(ds, sigma_grid=[...])`, or `protobound bound
--sigma-grid`, keeps each point where the perceptron replays condensation's
trace, at any set size and with no enumeration.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, _take_rows, sq_dists_to
from .kernel_machine import (
    DualWeightVector,
    KernelConfig,
    _argmax_codes,
    _shifted_class_sums,
    argmax_class,
)
from .nn_rule import PrototypeSet, classify

DEFAULT_SAMPLED_TRIALS = 2000
# Largest number of rows exhaustive mode scores; see verify_neighborly.
EXHAUSTIVE_ROW_BUDGET = 10**6


class GammaDegenerateError(Exception):
    """Some query is exactly equidistant from two dataset points.

    No analytic certificate exists: the domination argument needs a positive
    gap. Perturb the data, or give `bound_infimum` (`protobound bound
    --sigma-grid`) an explicit grid, whose points it trace-verifies.
    """

    def __init__(self, message: str, query_index: int, first: int, second: int):
        super().__init__(message)
        self.query_index = query_index
        self.first = first
        self.second = second


class ExhaustiveCapError(Exception):
    """The set is too large to enumerate; use sampled mode instead."""


@dataclass(frozen=True)
class SigmaCertificate:
    """A certified-neighborly bandwidth statement.

    Analytic certificates cover every sigma strictly below `sigma_star`; a
    certificate of any other method covers nothing. `cnn_bound` certifies
    any other bandwidth, tied data's too, where the perceptron replays
    condensation's trace.
    """

    sigma_star: float
    gamma: float
    method: str

    def covers(self, sigma: float) -> bool:
        return self.method == "analytic-sufficient" and 0.0 < sigma < self.sigma_star

    def to_json_dict(self) -> dict:
        return asdict(self)


def min_squared_gap(dataset: Dataset) -> float:
    """Smallest positive gap between squared distances from any query in the
    set to any two of its points (the query's zero self-distance included).

    Raises GammaDegenerateError on an exact tie, naming the first tied
    query and the two points a stable argsort of its row puts side by side.
    The gap is read from the dataset's sorting all-pairs pass, which runs
    once per dataset and leaves `nearest_sq_dists` and `diameter` free.
    """
    if len(dataset) < 2:
        raise ValueError("need at least two points")
    gap = dataset._squared_gap()
    if isinstance(gap, tuple):
        q, first, second = gap
        raise GammaDegenerateError(
            f"query {q} is equidistant from points {first} and {second}",
            q,
            first,
            second,
        )
    return gap


def sufficient_sigma(dataset: Dataset) -> SigmaCertificate:
    """Analytic bandwidth threshold sigma* for the dataset.

    Every sigma < sigma* makes kernel scoring reproduce the 1-NN rule for
    all subsets, assignments, and training queries.
    """
    gamma = min_squared_gap(dataset)
    n = len(dataset)
    sigma_star = math.sqrt(gamma / (2.0 * math.log(2.0 * (n - 1))))
    return SigmaCertificate(sigma_star, gamma, "analytic-sufficient")


@dataclass(frozen=True)
class Violation:
    """A witness that a bandwidth is not neighborly.

    Replaying the subset, assignment, and query through the kernel machine
    reproduces the mismatch (or the degenerate tie) exactly.
    """

    subset: tuple[int, ...]
    assignment: dict[int, str]
    query_index: int
    argmax_label: str
    nn_label: str
    degenerate: bool

    def describe(self) -> str:
        o = ", ".join(f"{i}->{c}" for i, c in self.assignment.items())
        kind = "degenerate argmax" if self.degenerate else "argmax mismatch"
        return (
            f"{kind}: P={list(self.subset)}, o=({o}), query={self.query_index}, "
            f"argmax={self.argmax_label!r}, nn={self.nn_label!r}"
        )


def replay_violation(
    dataset: Dataset, cfg: KernelConfig, violation: Violation
) -> tuple[str, bool, str]:
    """Recompute both sides of a reported violation through the public API.

    Returns (argmax label, degeneracy flag, nn label).
    """
    w = DualWeightVector(cfg, dataset.classes, dataset.dim)
    for i in violation.subset:
        point = dataset[i]
        w.append(i, point.coords, point.label, violation.assignment[i])
    prototypes = PrototypeSet(dataset, list(violation.subset))
    label, degenerate = argmax_class(w, dataset.coords[violation.query_index])
    nn_label = classify(prototypes, dataset.coords[violation.query_index])
    return label, degenerate, nn_label


def _first_violation(dataset: Dataset, cfg: KernelConfig, cases) -> Violation | None:
    """First violation over groups of (members, assignment rows, queries):
    groups in order, then the lowest assignment rank, then the lowest query.

    Every query of a group is scored in one batch. Members and queries must
    ascend by source index: the first minimal distance is then the nearest
    member with the smallest source index, and the first hit in (rank,
    query) order is the lowest query. Only the flagged triple is replayed
    through the public API, as a cross-check."""
    coords = dataset.coords
    label_codes = dataset.label_codes
    n_classes = len(dataset.classes)
    for members, assignments, queries in cases:
        member_codes = label_codes[members]
        d2 = sq_dists_to(_take_rows(coords, members), coords[queries])
        codes = np.concatenate((member_codes[None], assignments))
        sums = _shifted_class_sums(d2, codes, cfg, n_classes)
        argmaxes, degenerate = _argmax_codes(sums[:, :1] - sums[:, 1:])
        nn_codes = member_codes[d2.argmin(axis=1)]
        bad = degenerate | (argmaxes != nn_codes[:, None])
        if bad.any():
            rank, pos = np.argwhere(bad.T)[0].tolist()
            subset = tuple(members.tolist())
            codes = assignments[rank].tolist()
            assignment = {m: dataset.classes[c] for m, c in zip(subset, codes)}
            q = int(queries[pos])
            candidate = Violation(subset, assignment, q, "", "", False)
            label, degen, nn = replay_violation(dataset, cfg, candidate)
            if not degen and label == nn:  # pragma: no cover - internal check
                raise RuntimeError(
                    "flagged violation did not replay; scoring paths diverged"
                )
            return Violation(subset, assignment, q, label, nn, degen)
    return None


def _exhaustive_cases(dataset: Dataset):
    """Subsets ascend as bitmasks and assignments lexicographically by
    member order, so the first violation is the first in (P, o, query)
    order."""
    n = len(dataset)
    wrong = dataset.wrong_codes.tolist()
    for mask in range(1, 2**n):
        members = [i for i in range(n) if mask >> i & 1]
        rows = list(itertools.product(*(wrong[i] for i in members)))
        yield np.array(members), np.array(rows, dtype=np.int64), range(n)


def _sampled_cases(dataset: Dataset, seed: int, trials: int):
    """Per trial, three draws from one generator: fair coins for membership
    (`random(n)`, redrawn until nonempty), then one `integers(q, size=|P|)`
    call picking each member's wrong class in index order (q = |C| - 1 for
    every point), then `integers(n)` for the query.

    The sized call yields the values, and leaves the generator in the state,
    of |P| scalar `integers(q)` calls; a test pins it to that per-member
    stream, so a seed names the same witness it always has."""
    n = len(dataset)
    rng = np.random.default_rng(seed)
    wrong = dataset.wrong_codes
    q = wrong.shape[1]
    for _ in range(trials):
        while True:
            take = rng.random(n) < 0.5
            if take.any():
                break
        members = np.flatnonzero(take)
        row = wrong[members, rng.integers(q, size=len(members))]
        yield members, row[None, :], [int(rng.integers(n))]


def verify_neighborly(
    dataset: Dataset,
    cfg: KernelConfig,
    mode: str = "exhaustive",
    seed: int = 0,
    trials: int = DEFAULT_SAMPLED_TRIALS,
) -> Violation | None:
    """Check the neighborly property empirically at one bandwidth.

    Exhaustive mode enumerates every nonempty subset, assignment of a wrong
    class to each member, and training query. Before enumerating it refuses
    more than `EXHAUSTIVE_ROW_BUDGET` scored rows: n * (k^n - 1) for n points
    in k classes. Sampled mode draws `trials` random triples from `seed`,
    each in a fixed order: membership by fair coin, then every member's wrong
    class in one uniform `integers(k - 1, size=|P|)` call, then a uniform
    query (see `_sampled_cases`). It refuses a trial count that is not an
    integer, or is below one and would pass without checking anything.
    Returns None on a pass or the first violation found; a degenerate (tied)
    argmax counts as a violation even when its resolution happens to match
    the NN label.
    """
    n, k = len(dataset), len(dataset.classes)
    if mode == "exhaustive":
        rows = n * (k**n - 1)
        if rows > EXHAUSTIVE_ROW_BUDGET:
            raise ExhaustiveCapError(
                f"exhaustive verification would score {n}*({k}^{n} - 1) ~ "
                f"10^{math.log10(rows):.1f} rows, over the budget of "
                f"{EXHAUSTIVE_ROW_BUDGET}; use mode='sampled'"
            )
        cases = _exhaustive_cases(dataset)
    elif mode == "sampled":
        if not isinstance(trials, numbers.Integral) or trials < 1:
            raise ValueError(
                f"sampled mode needs a whole number of at least one trial, "
                f"got {trials!r}"
            )
        cases = _sampled_cases(dataset, seed, trials)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if k < 2:
        return None  # no restricted vector exists
    return _first_violation(dataset, cfg, cases)
