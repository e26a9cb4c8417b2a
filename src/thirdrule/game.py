"""Household coalition games: pooled value, fair splits, and the nested
equal-thirds scheme for multigenerational households.

A coalition's value is the sum of its members' incomes plus a
size-indexed scale benefit minus a size-indexed coordination cost (an
optional per-subset cost table can override the size table).  Shapley
values are computed by exact subset enumeration in integer cents scaled
by n!, then rounded to cents with a largest-remainder pass so the shares
sum to the grand coalition's value exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ._numpy import np
from .domain import Allocation, AllocationRule, Money, make_allocation, total_income
from .errors import DomainError, ValidationError, is_int
from .utility_opt import UtilityParams, utility

SHAPLEY_MAX_MEMBERS = 10
SUPERADDITIVITY_MAX_MEMBERS = 16
# Subset cost overrides force full disjoint-pair enumeration, which is
# 3**n pairs; keep that tractable.
SUBSET_COST_MAX_MEMBERS = 12


@dataclass(frozen=True)
class CoalitionSpec:
    """Game description.

    scale_benefit and coordination_cost map coalition size to Money;
    missing sizes mean zero.  subset_costs, when given, overrides the
    size-indexed cost for exactly the listed member sets.
    """

    member_incomes: tuple[Money, ...]
    scale_benefit: Mapping[int, Money] = field(default_factory=dict)
    coordination_cost: Mapping[int, Money] = field(default_factory=dict)
    subset_costs: Optional[Mapping[frozenset[int], Money]] = None

    def __post_init__(self) -> None:
        n = len(self.member_incomes)
        if n < 1:
            raise ValidationError("a coalition game needs at least one member")
        for m in self.member_incomes:
            if not isinstance(m, Money):
                raise ValidationError("member incomes must be Money")
        for table_name in ("scale_benefit", "coordination_cost"):
            table = getattr(self, table_name)
            for size, amount in table.items():
                if not isinstance(size, int) or not 1 <= size <= n:
                    raise ValidationError(f"{table_name} size {size!r} is out of range 1..{n}")
                if not isinstance(amount, Money):
                    raise ValidationError(f"{table_name}[{size}] must be Money")
        if self.subset_costs is not None:
            for members, amount in self.subset_costs.items():
                bad = [i for i in members if not isinstance(i, int) or not 0 <= i < n]
                if bad:
                    raise ValidationError(f"subset cost members {sorted(members)} out of range")
                if not isinstance(amount, Money):
                    raise ValidationError("subset costs must be Money")

    @property
    def n_members(self) -> int:
        return len(self.member_incomes)


def _value_cents(spec: CoalitionSpec, mask: int) -> int:
    """Coalition value in cents for a member bitmask.  May be negative
    when costs exceed resources; callers decide whether that is an error."""
    if mask == 0:
        return 0
    size = bin(mask).count("1")
    total = 0
    members = []
    for i in range(spec.n_members):
        if mask >> i & 1:
            total += spec.member_incomes[i].cents
            members.append(i)
    benefit = spec.scale_benefit.get(size)
    if benefit is not None:
        total += benefit.cents
    cost = None
    if spec.subset_costs is not None:
        cost = spec.subset_costs.get(frozenset(members))
    if cost is None:
        cost = spec.coordination_cost.get(size)
    if cost is not None:
        total -= cost.cents
    return total


def coalition_value(spec: CoalitionSpec, members: Iterable[int]) -> Money:
    """Value of one coalition.  The empty coalition is worth zero."""
    member_list = list(members)
    seen = set()
    mask = 0
    for i in member_list:
        if not is_int(i) or not 0 <= i < spec.n_members:
            raise ValidationError(f"member index {i!r} out of range 0..{spec.n_members - 1}")
        if i in seen:
            raise ValidationError(f"member index {i} listed twice")
        seen.add(i)
        mask |= 1 << i
    cents = _value_cents(spec, mask)
    if cents < 0:
        raise DomainError("coordination cost exceeds the coalition's pooled resources")
    return Money(cents)


def is_superadditive(spec: CoalitionSpec) -> bool:
    """Whether v(S union T) >= v(S) + v(T) for every disjoint pair.

    With size-indexed tables the member incomes cancel on both sides, so
    the condition reduces to g(s + t) >= g(s) + g(t) over sizes, where
    g(k) = benefit(k) - cost(k).  That check covers every disjoint pair
    exhaustively.  Per-subset cost overrides disable the reduction and
    force direct enumeration.
    """
    n = spec.n_members
    if n > SUPERADDITIVITY_MAX_MEMBERS:
        raise ValidationError(
            f"superadditivity check supports at most {SUPERADDITIVITY_MAX_MEMBERS} members"
        )
    if spec.subset_costs:
        if n > SUBSET_COST_MAX_MEMBERS:
            raise ValidationError(
                "superadditivity with per-subset costs supports at most "
                f"{SUBSET_COST_MAX_MEMBERS} members"
            )
        values = [_value_cents(spec, mask) for mask in range(1 << n)]
        for union in range(1 << n):
            sub = (union - 1) & union
            while sub > 0:
                if values[union] < values[sub] + values[union ^ sub]:
                    return False
                sub = (sub - 1) & union
        return True
    gain = [0] * (n + 1)
    for size in range(1, n + 1):
        benefit = spec.scale_benefit.get(size)
        cost = spec.coordination_cost.get(size)
        gain[size] = (benefit.cents if benefit else 0) - (cost.cents if cost else 0)
    for s in range(1, n + 1):
        for t in range(1, n - s + 1):
            if gain[s + t] < gain[s] + gain[t]:
                return False
    return True


@dataclass(frozen=True)
class ShapleyResult:
    """Per-member shares.  Sums exactly to the grand coalition value."""

    values: tuple[Money, ...]

    @property
    def total(self) -> Money:
        return Money(sum(v.cents for v in self.values))


def shapley_values(spec: CoalitionSpec) -> ShapleyResult:
    """Exact Shapley shares of the grand coalition value.

    phi_i = sum over coalitions S not containing i of
    |S|! * (n - |S| - 1)! / n! * (v(S + i) - v(S)), evaluated in integer
    cents scaled by n!.  Cent rounding distributes the leftover by
    largest remainder (ties to the lower member index).
    """
    n = spec.n_members
    if n > SHAPLEY_MAX_MEMBERS:
        raise ValidationError(f"shapley_values supports at most {SHAPLEY_MAX_MEMBERS} members")
    values = [_value_cents(spec, mask) for mask in range(1 << n)]
    for mask, cents in enumerate(values):
        if cents < 0:
            raise DomainError("coordination cost exceeds the coalition's pooled resources")
    fact = [math.factorial(k) for k in range(n + 1)]
    n_fact = fact[n]
    scaled = [0] * n
    for mask in range(1 << n):
        size = bin(mask).count("1")
        weight = fact[size] * fact[n - size - 1] if size < n else 0
        if weight == 0:
            continue
        for i in range(n):
            if mask >> i & 1:
                continue
            scaled[i] += weight * (values[mask | 1 << i] - values[mask])
    floors = [num // n_fact for num in scaled]
    remainders = [num - q * n_fact for num, q in zip(scaled, floors)]
    leftover = values[(1 << n) - 1] - sum(floors)
    order = sorted(range(n), key=lambda i: (-remainders[i], i))
    shares = list(floors)
    for i in order[:leftover]:
        shares[i] += 1
    for i, share in enumerate(shares):
        if share < 0:
            raise DomainError(
                f"cost structure leaves member {i} with a negative fair share"
            )
    return ShapleyResult(values=tuple(Money(c) for c in shares))


@dataclass(frozen=True)
class MultigenAllocation:
    """Nested equal-thirds split for a multi-earner household."""

    personal: tuple[Allocation, ...]
    collective: Allocation

    @property
    def pooled(self) -> Money:
        return self.collective.income


def nested_multigen_allocation(member_incomes: Sequence[Money]) -> MultigenAllocation:
    """Each member splits income into personal debt, personal savings, and
    a household contribution (the third bucket); pooled contributions are
    split in thirds again at the household level."""
    if len(member_incomes) < 1:
        raise ValidationError("at least one member income is required")
    rule = AllocationRule.one_third()
    personal = tuple(make_allocation(m, rule.fractions) for m in member_incomes)
    pooled = total_income(a.expenses for a in personal)
    collective = make_allocation(pooled, rule.fractions)
    return MultigenAllocation(personal=personal, collective=collective)


def best_response_check(
    params: UtilityParams,
    income: Money,
    candidate: Allocation,
    resolution: Money,
) -> bool:
    """Whether no budget-feasible split beats the candidate's utility by
    more than a 1e-9 relative slack, scanning a grid at the given cent
    resolution.  Vacuously true at zero income."""
    if candidate.income.cents != income.cents:
        raise ValidationError("candidate allocation must be on the same income")
    if resolution.cents <= 0:
        raise ValidationError("grid resolution must be positive")
    cents = income.cents
    if cents == 0:
        return True
    step = resolution.cents
    marks = np.arange(0, cents + 1, step, dtype=np.int64)
    if marks[-1] != cents:
        marks = np.append(marks, cents)
    debt = marks[:, None].astype(float)
    savings = marks[None, :].astype(float)
    expenses = cents - debt - savings
    feasible = expenses >= 0
    with np.errstate(invalid="ignore"):
        grid_utility = np.where(
            feasible,
            (debt / 100.0) ** params.alpha
            * (savings / 100.0) ** params.beta
            * (np.maximum(expenses, 0.0) / 100.0) ** params.gamma,
            -np.inf,
        )
    best = float(np.nanmax(grid_utility))
    target = utility(params, candidate)
    return best <= target + 1e-9 * max(abs(target), 1.0)
