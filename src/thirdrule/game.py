"""Household coalition games: pooled value, fair splits, and the nested
equal-thirds scheme for multigenerational households.

A coalition's value is the sum of its members' incomes plus a
size-indexed scale benefit minus a size-indexed coordination cost (an
optional per-subset cost table can override the size table).  Shapley
values are in closed form: a member's own income, an equal share of the
grand coalition's gain and one exact term per override, all over one
integer denominator, rounded to cents with a largest-remainder pass so
the shares sum to the grand coalition's value exactly.  Games are about
money alone; the utility model and its checks live in ``utility_opt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

from .domain import Allocation, AllocationRule, Money, rule_allocation, total_income
from .errors import DomainError, ValidationError, is_int

SUPERADDITIVITY_MAX_MEMBERS = 16
# Subset cost overrides force coalition enumeration: 2**n values, and 3**n
# disjoint pairs for the superadditivity check; keep that tractable.
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
    members = [i for i, bit in enumerate(reversed(f"{mask:b}")) if bit == "1"]
    size = len(members)
    total = sum(spec.member_incomes[i].cents for i in members)
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


def _size_gains(spec: CoalitionSpec) -> list[int]:
    """g(k) = benefit(k) - cost(k) in cents for k = 0..n; a missing size
    is zero."""
    gain = [0] * (spec.n_members + 1)
    for size, amount in spec.scale_benefit.items():
        gain[size] += amount.cents
    for size, amount in spec.coordination_cost.items():
        gain[size] -= amount.cents
    return gain


def _coalition_values(spec: CoalitionSpec, check: str) -> list[int]:
    """Every coalition's value in cents, indexed by member bitmask, for a
    game whose per-subset cost overrides leave nothing to reduce."""
    if spec.n_members > SUBSET_COST_MAX_MEMBERS:
        raise ValidationError(
            f"{check} with per-subset costs supports at most {SUBSET_COST_MAX_MEMBERS} members"
        )
    return [_value_cents(spec, mask) for mask in range(1 << spec.n_members)]


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
        values = _coalition_values(spec, "superadditivity")
        for union in range(1 << n):
            sub = (union - 1) & union
            while sub > 0:
                if values[union] < values[sub] + values[union ^ sub]:
                    return False
                sub = (sub - 1) & union
        return True
    gain = _size_gains(spec)
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
    """Exact Shapley shares of the grand coalition value, in closed form.

    v(S) is the incomes x_i in S plus g(|S|) = benefit - cost, plus
    d_T = cost(t) - override(T) when S is a member set T of size t with a
    per-subset cost.  By additivity and symmetry (Shapley 1953), phi_i =
    x_i + (v(N) - sum of x) / n, where v(N) holds any override on N, and
    an override on a proper nonempty T adds d_T / (t * C(n, t)) to each
    member of T and subtracts d_T / ((n - t) * C(n, t)) from the others.
    Cent rounding distributes the leftover by largest remainder (ties to
    the lower member index).
    """
    n = spec.n_members
    incomes = [m.cents for m in spec.member_incomes]
    if spec.subset_costs:
        insolvent = min(_coalition_values(spec, "shapley_values")) < 0
    else:
        # the k poorest members form the least valuable coalition of size k
        poorest = accumulate(sorted(incomes))
        insolvent = any(x + g < 0 for x, g in zip(poorest, _size_gains(spec)[1:]))
    if insolvent:
        raise DomainError("coordination cost exceeds the coalition's pooled resources")
    grand = _value_cents(spec, (1 << n) - 1)
    # _value_cents looks overrides up by frozenset, so no other key applies
    overrides = [
        (members, spec.coordination_cost.get(len(members), Money.zero()).cents - cost.cents)
        for members, cost in (spec.subset_costs or {}).items()
        if isinstance(members, frozenset) and 0 < len(members) < n
    ]
    # each member's gain over its income is num / den, in integers
    sizes = {len(members) for members, _ in overrides}
    den = math.lcm(n, *(k * math.comb(n, t) for t in sizes for k in (t, n - t)))
    nums = [(grand - sum(incomes)) * (den // n)] * n
    for members, d in overrides:
        t = len(members)
        inside = d * den // (t * math.comb(n, t))
        outside = -d * den // ((n - t) * math.comb(n, t))
        nums = [g + (inside if i in members else outside) for i, g in enumerate(nums)]
    shares = [x + g // den for x, g in zip(incomes, nums)]
    # the largest remainders take the leftover cents; sorted is stable, so
    # ties go to the lower member index
    order = sorted(range(n), key=lambda i: -(nums[i] % den))
    for i in order[: grand - sum(shares)]:
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
    personal = tuple(rule_allocation(rule, m) for m in member_incomes)
    pooled = total_income(a.expenses for a in personal)
    collective = rule_allocation(rule, pooled)
    return MultigenAllocation(personal=personal, collective=collective)
