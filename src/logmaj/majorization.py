"""Submajorisation predicates and the Fuglede-Kadison determinant.

Both predicates compare prefix integrals at every breakpoint of the union
partition of the two step functions.  Prefix integrals of step functions
are piecewise linear in t, so extrema of their difference occur at
breakpoints; checking there is exact, no grid sampling is involved.

The breakpoints are floats, and a prefix integral at one is a ``bisect``
lookup in the step function's float tables, with numpy's bits, made by the
function's evaluator (``StepFunction._prefix``, ``._log_prefix``), which
is built once per function with its tables bound; the log-prefix sums over
whole pieces are a table of ``np.add.reduce``'s bits, built in Python
floats.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from .algebra import Operator, OperatorBatch, is_psd_many, norm_inf_many
from .config import tolerances
from .errors import NotPSD, ShapeMismatch
from .stepfun import NEG_INF, StepFunction, _refine, _union_breakpoints, mu_many


@dataclasses.dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of a prefix-domination check.

    ``slack`` is the minimum of RHS - LHS over the checked breakpoints
    (+inf when every comparison was trivially satisfied by an infinite
    branch, -inf when domination fails against a -inf right side) and
    ``worst_t`` the breakpoint attaining it.
    """

    holds: bool
    worst_t: float
    slack: float
    checked_points: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "worst_t": self.worst_t,
            "slack": self.slack,
            "checked_points": list(self.checked_points),
        }


def _checked_pair(b: StepFunction, a: StepFunction):
    if not (b.is_decreasing and a.is_decreasing):
        raise ShapeMismatch("submajorisation requires decreasing step functions")
    if not (b.is_nonnegative and a.is_nonnegative):
        raise ShapeMismatch("submajorisation requires nonnegative step functions")
    la, lb = a.total_length, b.total_length
    if abs(la - lb) > 1e-12 * max(1.0, la, lb):
        length = max(la, lb)
        a = a.pad_to(length)
        b = b.pad_to(length)
    return b, a


def submajorizes(b: StepFunction, a: StepFunction) -> MajorizationVerdict:
    """Check b <<(prec-prec) a: prefix integrals of b dominated by a's.

    The comparison allows a slack of ``tolerances().maj * scale``, where
    ``scale`` is the larger total integral, so the verdict does not change
    when both functions are multiplied by a common c > 0.
    """
    tol = tolerances().maj
    b, a = _checked_pair(b, a)
    points = _union_breakpoints(b, a)
    if not points:
        return MajorizationVerdict(True, 0.0, 0.0, ())
    b_at, a_at = b._prefix, a._prefix
    scale = max(abs(b_at(b.total_length)), abs(a_at(a.total_length)))
    holds = True
    slack = math.inf
    worst_t = points[0]
    for t in points:
        gap = a_at(t) - b_at(t)
        if gap < slack:
            slack = gap
            worst_t = t
        if gap < -tol * scale:
            holds = False
    if slack == math.inf:
        slack = 0.0
    return MajorizationVerdict(holds, worst_t, slack, tuple(points))


def log_submajorizes(b: StepFunction, a: StepFunction) -> MajorizationVerdict:
    """Check b <<_log a: log-prefix integrals of b dominated by a's.

    -inf on the left is dominated by anything; a finite left side against
    -inf on the right is a failure.  Slack is taken over breakpoints where
    both sides are finite; the slack allowed is ``tolerances().maj``.
    """
    tol = tolerances().maj
    b, a = _checked_pair(b, a)
    points = _union_breakpoints(b, a)
    if not points:
        return MajorizationVerdict(True, 0.0, 0.0, ())
    b_at, a_at = b._log_prefix, a._log_prefix
    holds = True
    slack = math.inf
    worst_t = points[0]
    for t in points:
        lhs = b_at(t)
        if lhs == NEG_INF:
            continue
        rhs = a_at(t)
        if rhs == NEG_INF:
            holds = False
            slack = NEG_INF
            worst_t = t
            continue
        gap = rhs - lhs
        if gap < slack:
            slack = gap
            worst_t = t
        if gap < -tol:
            holds = False
    if slack == math.inf:
        slack = 0.0
    return MajorizationVerdict(holds, worst_t, slack, tuple(points))


def fk_log_determinant(x: Operator) -> float:
    """Log of the Fuglede-Kadison determinant: the full log-prefix integral
    of mu(x), the sum of ``c_k log s`` over the singular values ``s`` of
    every block ``k``.

    ``-inf`` when the operator is singular, with singularity decided by the
    relative rank cut applied in mu.  Finite wherever the determinant
    itself underflows to 0 or overflows a float.
    """
    return fk_log_determinant_many([x])[0]


def fk_log_determinant_many(xs: Sequence[Operator] | OperatorBatch) -> list[float]:
    """``fk_log_determinant`` of each operator, from one ``mu_many`` call
    (the operators of a list may live on different algebras)."""
    return [float(f.log_prefix_integral(f.total_length)) for f in mu_many(xs)]


def fk_determinant(x: Operator) -> float:
    """Fuglede-Kadison determinant: ``exp(fk_log_determinant(x))``.

    Equals the product of all singular values raised to their block trace
    weights; 0 when the operator is singular or the determinant underflows
    a float (``fk_log_determinant`` tells the two apart), and ``inf`` when
    it overflows.
    """
    return exp_log_determinant(fk_log_determinant(x))


def exp_log_determinant(log_det: float) -> float:
    """``exp(log_det)`` as a float: 0 for ``-inf``, ``inf`` on overflow."""
    if log_det == NEG_INF:
        return 0.0
    try:
        return float(math.exp(log_det))
    except OverflowError:
        return math.inf


def mu_values_equal(f: StepFunction, g: StepFunction, tol: float) -> bool:
    """Pointwise equality of two step functions on the union partition."""
    _, fv, gv = _refine(f, g)
    return not any(abs(p - q) > tol for p, q in zip(fv, gv))


@dataclasses.dataclass(frozen=True)
class DisjointnessDiagnostic:
    """Executable form of the mu-equality => disjointness implication.

    ``violation`` is set when mu(x-y) = mu(x+y) holds but the product is
    not zero, which would falsify the underlying rigidity statement.
    """

    mu_equal: bool
    product_zero: bool

    @property
    def violation(self) -> bool:
        return self.mu_equal and not self.product_zero

    def to_json(self) -> dict:
        return {
            "mu_equal": self.mu_equal,
            "product_zero": self.product_zero,
            "violation": self.violation,
        }


def disjointness_from_mu_equality(x: Operator, y: Operator) -> DisjointnessDiagnostic:
    """Compare mu(x-y) with mu(x+y) and test the product of two PSD operators."""
    return disjointness_from_mu_equality_many([x], [y])[0]


def disjointness_from_mu_equality_many(xs: Sequence[Operator], ys: Sequence[Operator]
                                       ) -> list[DisjointnessDiagnostic]:
    """``disjointness_from_mu_equality`` of each pair ``(xs[i], ys[i])``,
    which may live on different algebras: one ``is_psd_many``, one
    ``mu_many`` and one ``norm_inf_many`` call over every pair.  Raises
    ``NotPSD`` if any operator of any pair is not PSD."""
    n = len(xs)
    if not all(is_psd_many([*xs, *ys])):
        raise NotPSD("diagnostic requires positive semidefinite operators")
    tol = tolerances()
    fs = mu_many([x - y for x, y in zip(xs, ys)] + [x + y for x, y in zip(xs, ys)])
    norms = norm_inf_many([x @ y for x, y in zip(xs, ys)] + [*xs, *ys])
    out = []
    for f_diff, f_sum, prod, nx, ny in zip(fs[:n], fs[n:], norms[:n], norms[n:2 * n], norms[2 * n:]):
        scale = f_sum.values.max() if f_sum.pieces else 0.0
        mu_equal = mu_values_equal(f_diff, f_sum, tol.maj * scale)
        out.append(DisjointnessDiagnostic(mu_equal, prod <= tol.alg * nx * ny))
    return out
