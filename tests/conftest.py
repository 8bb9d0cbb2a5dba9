"""Shared helpers for the test suite.

Kept deliberately dumb: plain python loops and math.exp, no shortcuts through
the package's own vectorized code paths.
"""

import math

import pytest

import protobound as pb

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, name: str, passed: int, total: int) -> bool:
    """Collect one verdict line per acceptance criterion for the summary."""
    ok = passed == total
    ACCEPTANCE_LINES.append(
        f"[criterion {number}] {name}: {passed}/{total} "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def naive_class_scores(classes, records, x, sigma):
    """Linear-domain scores by brute force.

    records: iterable of (coords, c, y) with y possibly None.
    """
    scores = {}
    for cls in classes:
        total = 0.0
        for coords, c, y in records:
            d2 = sum((a - b) ** 2 for a, b in zip(coords, x))
            k = math.exp(-d2 / (2.0 * sigma * sigma))
            if c == cls:
                total += k
            if y == cls:
                total -= k
        scores[cls] = total
    return scores


def mirror_weights(dataset, prototypes, cfg, wrong_of=None):
    """One record per prototype: +1 on its own class, -1 on a wrong class.

    wrong_of(index) may override the default "first other class" choice.
    Single-class datasets get y=None records.
    """
    w = pb.DualWeightVector(cfg, dataset.classes, dataset.dim)
    for idx in prototypes.indices:
        point = dataset[idx]
        if wrong_of is not None:
            y = wrong_of(idx)
        else:
            y = next((c for c in dataset.classes if c != point.label), None)
        w.append(idx, point.coords, point.label, y)
    return w


# Every squared-distance gap of `gap3` is at least 1, so sigma* is about 0.60
# and certifies every smaller bandwidth `KernelConfig` accepts, including
# those (sigma <= 1e-155) where every off-diagonal d2 / (2 sigma^2) overflows.
GAP3_POINTS = [((0.0,), "A"), ((1.0,), "B"), ((2.5,), "A")]
TINY_SIGMAS = (1e-155, 1e-160)
# 2 sigma^2 underflows to 0.0 here, so no kernel exists
UNDERFLOWING_SIGMA = 1e-170
# Coordinates `Dataset` refuses: their squared distances overflow to inf (and
# would give sigma* = inf), or underflow to 0.0 between distinct points.
OVERFLOWING_POINTS = [
    ((0.0,), "A"), ((1e200,), "B"), ((3e200,), "A"), ((2.5e200,), "B"),
    ((2.6e200,), "B"),
]
UNDERFLOWING_POINTS = [((0.0,), "A"), ((1e-200,), "B")]
# shifted exponents (d2 - shift) / (2 sigma^2) on both sides of where exp
# underflows to 0.0 (~745.13) and of the scoring cut (800)
CUT_EXPONENTS = (745.0, 745.2, 799.9, 800.1)
CUT_SIGMA = 0.5  # 2 sigma^2 = 0.5 exactly


def cut_set():
    """Pairs of an A and a B point whose squared distance is 0.5 t for each
    t of CUT_EXPONENTS, 100 apart along x; each is a record once the sweep
    is stable, so the pair's entries come up in rows and in re-derivations,
    and every entry across pairs is skipped."""
    points = []
    for k, t in enumerate(CUT_EXPONENTS):
        x = 100.0 * k
        points += [((x, 0.0), "A"), ((x + math.sqrt(0.5 * t), 0.0), "B")]
    return pb.Dataset(points)


@pytest.fixture
def gap3():
    return pb.Dataset(GAP3_POINTS)


@pytest.fixture
def line3():
    """Three collinear points; the smallest set whose condensation is a
    strict subset."""
    return pb.Dataset(
        [
            pb.LabeledPoint((0.0,), "A"),
            pb.LabeledPoint((10.0,), "B"),
            pb.LabeledPoint((11.0,), "B"),
        ]
    )
