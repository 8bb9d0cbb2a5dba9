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
analytic certificate exists; `bisect_sigma` can still search for an
empirically verified bandwidth on small sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, sq_dists_to
from .kernel_machine import (
    DualWeightVector,
    KernelConfig,
    _argmax_codes,
    _scores_from_ratios,
    argmax_class,
)
from .nn_rule import PrototypeSet, classify

DEFAULT_SAMPLED_TRIALS = 2000
# Largest number of rows exhaustive mode scores; see verify_neighborly.
EXHAUSTIVE_ROW_BUDGET = 10**6
BISECT_MAX_HALVINGS = 60
BISECT_REFINE_ROUNDS = 12


class GammaDegenerateError(Exception):
    """Some query is exactly equidistant from two dataset points.

    No analytic certificate exists: the domination argument needs a positive
    gap. Perturb the data or search empirically with `bisect_sigma`.
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

    Analytic certificates cover every sigma strictly below `sigma_star`.
    Empirical certificates cover exactly the bandwidth that passed
    verification; neighborliness is not monotone in sigma in general, so
    nothing else can be inferred from them.
    """

    sigma_star: float
    gamma: float
    method: str
    verified: bool

    def covers(self, sigma: float) -> bool:
        if self.method == "analytic-sufficient":
            return 0.0 < sigma < self.sigma_star
        return self.verified and sigma == self.sigma_star

    def to_json_dict(self) -> dict:
        return {
            "sigma_star": self.sigma_star,
            "gamma": self.gamma,
            "method": self.method,
            "verified": self.verified,
        }


def min_squared_gap(dataset: Dataset) -> float:
    """Smallest positive gap between squared distances from any query in the
    set to any two of its points (the query's zero self-distance included).

    Raises GammaDegenerateError on an exact tie.
    """
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least two points")
    gamma = math.inf
    coords = dataset.coords
    for q in range(n):
        d2 = sq_dists_to(coords, coords[q])
        order = np.argsort(d2, kind="stable")
        diffs = np.diff(d2[order])
        tied = np.nonzero(diffs == 0.0)[0]
        if tied.size:
            t = int(tied[0])
            raise GammaDegenerateError(
                f"query {q} is equidistant from points {int(order[t])} "
                f"and {int(order[t + 1])}",
                q,
                int(order[t]),
                int(order[t + 1]),
            )
        gamma = min(gamma, float(diffs.min()))
    return gamma


def sufficient_sigma(dataset: Dataset) -> SigmaCertificate:
    """Analytic bandwidth threshold sigma* for the dataset.

    Every sigma < sigma* makes kernel scoring reproduce the 1-NN rule for
    all subsets, assignments, and training queries.
    """
    gamma = min_squared_gap(dataset)
    n = len(dataset)
    sigma_star = math.sqrt(gamma / (2.0 * math.log(2.0 * (n - 1))))
    return SigmaCertificate(sigma_star, gamma, "analytic-sufficient", False)


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
        w.append(i, dataset[i].coords, dataset[i].label, violation.assignment[i])
    prototypes = PrototypeSet(dataset, list(violation.subset))
    label, degenerate = argmax_class(w, dataset.coords[violation.query_index])
    nn_label = classify(prototypes, dataset.coords[violation.query_index])
    return label, degenerate, nn_label


def _wrong_codes(dataset: Dataset) -> list[list[int]]:
    """Per point, the alphabet positions of every class but its own."""
    k = len(dataset.classes)
    return [[c for c in range(k) if c != own] for own in dataset.label_codes.tolist()]


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
    scale = 2.0 * cfg.sigma * cfg.sigma
    for members, assignments, queries in cases:
        member_codes = label_codes[members]
        d2 = sq_dists_to(coords[members], coords[queries])
        logk = -d2 / scale
        ratios = np.exp(logk - logk.max(axis=1, keepdims=True))
        scores = _scores_from_ratios(ratios, member_codes, assignments, n_classes)
        argmaxes, degenerate = _argmax_codes(scores)
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
    wrong = _wrong_codes(dataset)
    for mask in range(1, 2**n):
        members = [i for i in range(n) if mask >> i & 1]
        rows = list(itertools.product(*(wrong[i] for i in members)))
        yield np.array(members), np.array(rows, dtype=np.int64), range(n)


def _sampled_cases(dataset: Dataset, seed: int, trials: int):
    """Per trial: membership by fair coin (redrawn until nonempty), one wrong
    class per member in index order, then the query."""
    n = len(dataset)
    rng = np.random.default_rng(seed)
    wrong = _wrong_codes(dataset)
    for _ in range(trials):
        while True:
            take = rng.random(n) < 0.5
            if take.any():
                break
        members = np.flatnonzero(take)
        row = [wrong[i][int(rng.integers(len(wrong[i])))] for i in members.tolist()]
        yield members, np.array([row], dtype=np.int64), [int(rng.integers(n))]


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
    in k classes. Sampled mode draws `trials` random triples (membership by
    fair coin, assignments and query uniform) from `seed` and refuses fewer
    than one trial, which would pass without checking anything. Returns None
    on a pass or the first violation found; a degenerate (tied) argmax counts
    as a violation even when its resolution happens to match the NN label.
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
        if trials < 1:
            raise ValueError(f"sampled mode needs at least one trial, got {trials}")
        cases = _sampled_cases(dataset, seed, trials)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if k < 2:
        return None  # no restricted vector exists
    return _first_violation(dataset, cfg, cases)


def bisect_sigma(dataset: Dataset) -> SigmaCertificate:
    """Search for an exhaustively verified bandwidth when no analytic
    certificate exists (gamma = 0 on ties).

    Halves sigma from max(diameter, 1) until verification passes, then
    bisects geometrically toward the largest passing bandwidth found. The
    returned certificate covers exactly its own sigma. Each step is one
    exhaustive verification, so any set within `EXHAUSTIVE_ROW_BUDGET` is
    searched; near the budget that is slow (15 points in 2 classes: 18-19
    verifications, about 15 s on a 2-vCPU VM).
    """
    sigma = max(dataset.diameter(), 1.0)
    for halvings in range(BISECT_MAX_HALVINGS):
        if verify_neighborly(dataset, KernelConfig(sigma)) is None:
            break
        sigma /= 2.0
    else:
        raise ValueError(
            f"no neighborly bandwidth found down to {sigma}; "
            f"the set may admit none (cross-class distance ties)"
        )
    # a pass at the start leaves nothing to refine against
    lo, hi = sigma, 2.0 * sigma
    for _ in range(BISECT_REFINE_ROUNDS if halvings else 0):
        mid = math.sqrt(lo * hi)
        if verify_neighborly(dataset, KernelConfig(mid)) is None:
            lo = mid
        else:
            hi = mid
    return SigmaCertificate(lo, 0.0, "empirical-bisection", True)
