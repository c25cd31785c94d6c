"""Expected results, transcribed by hand from the package README.

Nothing in this file calls lieext: the tables below restate the README's
"Cocycle registry" section (applicability and the "nontrivial class at"
column) and its "Findings on the svir grid" section (the three classes the
closed-form table does not count).  The benchmark compares every answer it
times against these tables, so a faster wrong answer counts as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# README "Findings on the svir grid": the standard acceptance grid.
GRID_LAMBDAS = tuple(Fraction(v) for v in ("-3", "-2", "-1", "0", "1/2", "1", "2", "5"))
GRID_MUS = tuple(
    Fraction(v) for v in ("-2", "-1", "1", "2", "1/2", "1/3", "2/3", "4/3", "1/4", "1/5")
)


def _integer(q: Fraction) -> bool:
    return q.denominator == 1


# README "Cocycle registry", one row per class:
#   applicable - the stated multiple of mu is an integer and no substituted
#                denominator has an integer root (yy-reciprocal divides by
#                m + mu, which vanishes at an integer m exactly when mu is one);
#   nontrivial - the "nontrivial class at" column.
REGISTRY_TABLE = {
    "virasoro": (
        lambda lam, mu: True,
        lambda lam, mu: True,
    ),
    "c1": (
        lambda lam, mu: _integer(mu),
        lambda lam, mu: lam == -1 and _integer(mu),
    ),
    "c2": (
        lambda lam, mu: _integer(3 * mu),
        lambda lam, mu: lam == -1 and _integer(3 * mu),
    ),
    "ly-linear": (
        lambda lam, mu: _integer(mu),
        lambda lam, mu: lam == -3 and _integer(mu),
    ),
    "ly-cubic": (
        lambda lam, mu: _integer(mu),
        lambda lam, mu: lam == 1 and _integer(mu),
    ),
    "ly-constant": (
        lambda lam, mu: _integer(mu),
        lambda lam, mu: lam == -3 and _integer(mu),
    ),
    "lm-yy-cubic": (
        lambda lam, mu: _integer(2 * mu),
        lambda lam, mu: lam == 1 and _integer(2 * mu),
    ),
    "yy-reciprocal": (
        lambda lam, mu: _integer(2 * mu) and not _integer(mu),
        lambda lam, mu: lam == -3 and _integer(2 * mu) and not _integer(mu),
    ),
}

# README "Findings": the bottom three registry entries are the classes the
# closed-form prediction table undercounts.
SURPLUS = frozenset({"ly-constant", "lm-yy-cubic", "yy-reciprocal"})


@dataclass(frozen=True)
class Point:
    """What lieext must report for svir at degree 0 and (lambda, mu)."""

    applicable: frozenset
    matched: frozenset

    @property
    def core_h2_dim(self) -> int:
        return len(self.matched)

    @property
    def predicted_dim(self) -> int:
        return len(self.matched - SURPLUS)

    @property
    def agree(self) -> bool:
        return self.core_h2_dim == self.predicted_dim

    @property
    def h2_exit_code(self) -> int:
        """README "Exit codes": 1 where computed != predicted, else 0
        (every point the benchmark uses stabilizes)."""
        return 0 if self.agree else 1


def point(lam, mu) -> Point:
    lam, mu = Fraction(lam), Fraction(mu)
    return Point(
        applicable=frozenset(n for n, (app, _) in REGISTRY_TABLE.items() if app(lam, mu)),
        matched=frozenset(n for n, (_, live) in REGISTRY_TABLE.items() if live(lam, mu)),
    )


def verify_passes(lam, mu, name: str) -> bool:
    """Whether `verify` of a registry class must pass and find it nontrivial.

    The README column says where each class is a nontrivial cocycle; at every
    other applicable point the identity fails and verification stops at a
    witness triple.
    """
    return REGISTRY_TABLE[name][1](Fraction(lam), Fraction(mu))
