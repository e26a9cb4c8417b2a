"""Core money and allocation types.

Money is stored as an integer count of cents (fixed point, two decimal
digits).  Sums and differences of Money are exact.  Every income split,
here and in the stress ledger, goes through ``_split_cents``: debt and
savings round half-to-even and the leftover cent(s) go to expenses, so
debt + savings + expenses == income always holds exactly.  The named
rules' fractions live in one table, ``_NAMED_FRACTIONS``.

Ratios, rates, and volatilities are plain binary floats.  Signed cash-flow
deltas (which may be smaller than one cent) travel as ``SignedMoney``, an
alias for ``float`` measured in currency units, not cents.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DomainError, ValidationError, finite_number, is_int

# Signed amount in currency units.  Not quantized to cents.
SignedMoney = float

_CENT = Decimal("0.01")
# Largest Money in cents: every cent count up to it is exact as a float,
# and int64 sums of a few such amounts cannot overflow.
MAX_CENTS = 2**53


def _round_div(num, den: int):
    """Nearest-integer division with ties to even.  den must be positive.
    num may be an int or an int64 array, which rounds elementwise."""
    q = num // den
    # up when the remainder passes half of den, or is half of it and q is odd
    return q + (2 * (num - q * den) + (q & 1) > den)


@dataclass(frozen=True, order=True)
class Money:
    """Nonnegative amount of currency held as integer cents."""

    cents: int

    def __post_init__(self) -> None:
        if not is_int(self.cents):
            raise ValidationError("money cents must be an integer")
        if self.cents < 0:
            raise ValidationError("money amount must be nonnegative")
        if self.cents > MAX_CENTS:
            raise ValidationError(f"money amount {self} is out of range")

    @classmethod
    def of(cls, amount: Union["Money", int, float, str, Decimal]) -> "Money":
        """Build Money from units.  Floats and strings round half-to-even
        at the second decimal digit."""
        if isinstance(amount, Money):
            return amount
        if isinstance(amount, bool):
            raise ValidationError("money amount must be a number")
        if isinstance(amount, int):
            return cls(amount * 100)
        if isinstance(amount, float):
            if amount != amount or amount in (float("inf"), float("-inf")):
                raise ValidationError("money amount must be finite")
            amount = Decimal(repr(amount))
        if isinstance(amount, str):
            if "_" in amount:  # Decimal reads digit grouping, "6_0000" as 60000
                raise ValidationError(f"cannot parse money amount {amount!r}")
            try:
                amount = Decimal(amount)
            except InvalidOperation as exc:
                raise ValidationError(f"cannot parse money amount {amount!r}") from exc
        if isinstance(amount, Decimal):
            if not amount.is_finite():
                raise ValidationError("money amount must be finite")
            try:
                quantized = amount.quantize(_CENT, rounding=ROUND_HALF_EVEN)
            except InvalidOperation as exc:
                raise ValidationError(f"money amount {amount} is out of range") from exc
            return cls(int(quantized.scaleb(2)))
        raise ValidationError(f"cannot build money from {type(amount).__name__}")

    @classmethod
    def zero(cls) -> "Money":
        return cls(0)

    @property
    def units(self) -> float:
        return self.cents / 100.0

    def __add__(self, other: "Money") -> "Money":
        return Money(self.cents + other.cents)

    def __sub__(self, other: "Money") -> "Money":
        if other.cents > self.cents:
            raise DomainError("money subtraction would go negative")
        return Money(self.cents - other.cents)

    def __str__(self) -> str:
        return f"{self.cents // 100}.{self.cents % 100:02d}"


class HouseholdType(str, Enum):
    SINGLE_INCOME = "single_income"
    DUAL_INCOME = "dual_income"
    MULTIGENERATIONAL = "multigenerational"


class RuleId(str, Enum):
    ONE_THIRD = "one_third"
    FIFTY_THIRTY_TWENTY = "fifty_thirty_twenty"
    SEVENTY_TWENTY_TEN = "seventy_twenty_ten"
    CUSTOM = "custom"


class IncomeBand(str, Enum):
    LOW = "low"
    MIDDLE = "middle"
    HIGH = "high"


FractionLike = Union[Fraction, int, str, float]


def _as_fraction(value: FractionLike, label: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"{label} must be a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Floats go through their decimal repr so 0.1 means exactly 1/10.
        return Fraction(repr(value))
    if isinstance(value, str):
        if "_" in value:  # Fraction reads digit grouping, "1_0/3" as 10/3
            raise ValidationError(f"cannot parse {label} {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {label} {value!r}") from exc
    raise ValidationError(f"{label} must be a rational number")


def check_fractions(fractions: Sequence[FractionLike]) -> tuple[Fraction, Fraction, Fraction]:
    """Validate a (debt, savings, expenses) fraction triple.

    Entries must be nonnegative rationals summing to exactly one.
    """
    if len(fractions) != 3:
        raise ValidationError("exactly three allocation fractions are required")
    labels = ("debt fraction", "savings fraction", "expenses fraction")
    parsed = tuple(_as_fraction(f, lbl) for f, lbl in zip(fractions, labels))
    for value, label in zip(parsed, labels):
        if value < 0:
            raise ValidationError(f"{label} must be nonnegative, got {value}")
    total = parsed[0] + parsed[1] + parsed[2]
    if total != 1:
        raise ValidationError(f"allocation fractions must sum to 1, got {total}")
    return parsed


# (debt, savings, expenses) fractions of every rule but custom.
_NAMED_FRACTIONS = {
    RuleId.ONE_THIRD: (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    # Needs 50, wants 30, savings-and-debt 20.  In (debt, savings,
    # expenses) order the needs and wants merge into expenses and the
    # last bucket splits evenly between debt and savings.
    RuleId.FIFTY_THIRTY_TWENTY: (Fraction(1, 10), Fraction(1, 10), Fraction(8, 10)),
    RuleId.SEVENTY_TWENTY_TEN: (Fraction(1, 10), Fraction(2, 10), Fraction(7, 10)),
}


def _as_rule_id(value: Union[RuleId, str]) -> RuleId:
    try:
        return RuleId(value)
    except ValueError:
        raise ValidationError(f"unknown allocation rule {value!r}") from None


@dataclass(frozen=True)
class AllocationRule:
    """A named split of income into (debt, savings, expenses) fractions."""

    rule_id: RuleId
    fractions: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self) -> None:
        rule_id = _as_rule_id(self.rule_id)
        fractions = check_fractions(self.fractions)
        if rule_id is not RuleId.CUSTOM and fractions != _NAMED_FRACTIONS[rule_id]:
            got, want = (", ".join(map(str, f)) for f in (fractions, _NAMED_FRACTIONS[rule_id]))
            raise ValidationError(f"rule {rule_id.value} splits ({want}), got ({got})")
        object.__setattr__(self, "rule_id", rule_id)
        object.__setattr__(self, "fractions", fractions)

    @classmethod
    def one_third(cls) -> "AllocationRule":
        return cls.named(RuleId.ONE_THIRD)

    @classmethod
    def fifty_thirty_twenty(cls) -> "AllocationRule":
        return cls.named(RuleId.FIFTY_THIRTY_TWENTY)

    @classmethod
    def seventy_twenty_ten(cls) -> "AllocationRule":
        return cls.named(RuleId.SEVENTY_TWENTY_TEN)

    @classmethod
    def custom(cls, fractions: Sequence[FractionLike]) -> "AllocationRule":
        return cls(RuleId.CUSTOM, fractions)

    @classmethod
    def named(cls, rule_id: Union[RuleId, str]) -> "AllocationRule":
        rule_id = _as_rule_id(rule_id)
        if rule_id is RuleId.CUSTOM:
            raise ValidationError("custom rules need explicit fractions")
        return cls(rule_id, _NAMED_FRACTIONS[rule_id])


@dataclass(frozen=True)
class Allocation:
    """One income split.  The buckets always sum exactly to income."""

    income: Money
    debt: Money
    savings: Money
    expenses: Money

    def __post_init__(self) -> None:
        total = self.debt.cents + self.savings.cents + self.expenses.cents
        if total != self.income.cents:
            raise ValidationError(
                f"allocation buckets sum to {total} cents, income is {self.income.cents} cents"
            )


def _settle_residual(income_c, debt_c, savings_c):
    """Complete a split whose debt and savings buckets are already rounded.

    Expenses take the residual cents, so the three buckets sum exactly to
    income.  When the rounded (nonnegative) debt and savings overshoot
    income, the overshoot comes back from savings first, then from debt.
    Takes ints, or int64 arrays that it settles elementwise.
    """
    expenses_c = income_c - debt_c - savings_c
    over = expenses_c * (expenses_c < 0)  # minus the overshoot, or 0
    kept = savings_c + over  # savings left if they gave back all of it
    take = savings_c - kept * (kept > 0)  # min(overshoot, savings_c)
    return debt_c + over + take, savings_c - take, expenses_c - over


def _split_cents(income_c, fd_num: int, fd_den: int, fs_num: int, fs_den: int):
    """The one cent split: debt and savings, each num / den (den > 0) of
    income, round half-to-even and ``_settle_residual`` gives expenses the rest.
    income_c is an int, or an int64 array such that int64 holds the
    denominators and twice each product of an income and a numerator; the
    stress ledger splits a block of months at once that way."""
    return _settle_residual(
        income_c, _round_div(income_c * fd_num, fd_den), _round_div(income_c * fs_num, fs_den)
    )


def rule_allocation(rule: AllocationRule, income: Money) -> Allocation:
    debt, savings, _ = rule.fractions
    cents = _split_cents(
        income.cents, debt.numerator, debt.denominator, savings.numerator, savings.denominator
    )
    return Allocation(income, *map(Money, cents))


def make_allocation(income: Money, fractions: Sequence[FractionLike]) -> Allocation:
    """Split income by a fraction triple, checked as a custom rule's."""
    return rule_allocation(AllocationRule.custom(fractions), income)


def dti(debt_payment: Money, income: Money) -> float:
    """Debt payment to income ratio."""
    if income.cents == 0:
        raise DomainError("income must be positive to form a debt-to-income ratio")
    return debt_payment.cents / income.cents


def ser(savings: Money, expenses: Money) -> float:
    """Savings to expenses ratio."""
    if expenses.cents == 0:
        raise DomainError("expenses must be positive to form a savings-to-expense ratio")
    return savings.cents / expenses.cents


def classify_income(income: Money, regional_median: Money) -> IncomeBand:
    """Band an income against a regional median.

    low when income < 0.30 * median, middle up to and including
    0.80 * median, high above.  Comparisons are exact in cents.
    """
    if regional_median.cents <= 0:
        raise ValidationError("regional median income must be positive")
    scaled = 10 * income.cents
    if scaled < 3 * regional_median.cents:
        return IncomeBand.LOW
    if scaled <= 8 * regional_median.cents:
        return IncomeBand.MIDDLE
    return IncomeBand.HIGH


def _store_member_incomes(record) -> None:
    """Check a frozen record's member_incomes, a tuple or list of Money,
    and store it as a tuple."""
    incomes = record.member_incomes
    if not isinstance(incomes, (tuple, list)) or not all(isinstance(m, Money) for m in incomes):
        raise ValidationError("member_incomes must be a tuple of Money")
    object.__setattr__(record, "member_incomes", tuple(incomes))  # a list becomes a tuple


@dataclass(frozen=True)
class HouseholdProfile:
    """Static description of one household used by risk and stress runs."""

    profile_id: str
    household_type: HouseholdType  # or its value, which becomes one
    member_incomes: tuple[Money, ...]
    debt_balance: Money
    debt_apr: float
    baseline_expenses: Money
    sigma_income: float
    sigma_market: float
    rho: float
    mu: float
    r_savings: float

    def __post_init__(self) -> None:
        # A message about one field starts with the field's name, which
        # cli.load_profiles turns into a row and column.
        if not isinstance(self.profile_id, str):
            raise ValidationError("profile_id must be a string")
        if not self.profile_id:
            raise ValidationError("profile_id must be nonempty")
        try:
            object.__setattr__(self, "household_type", HouseholdType(self.household_type))
        except ValueError:
            raise ValidationError(
                f"household_type must be one of {[t.value for t in HouseholdType]}, "
                f"got {self.household_type!r}"
            ) from None
        _store_member_incomes(self)
        for name in ("debt_balance", "baseline_expenses"):
            if not isinstance(getattr(self, name), Money):
                raise ValidationError(f"{name} must be Money")
        counts = {  # every type needs at least one member
            HouseholdType.SINGLE_INCOME: (1, 1),
            HouseholdType.DUAL_INCOME: (2, 2),
            HouseholdType.MULTIGENERATIONAL: (1, None),
        }
        lo, hi = counts[self.household_type]
        n = len(self.member_incomes)
        if n < lo or (hi is not None and n > hi):
            raise ValidationError(
                f"{self.household_type.value} expects "
                f"{lo if lo == hi else f'at least {lo}'} member income(s), got {n}"
            )
        for name in ("debt_apr", "sigma_income", "sigma_market", "rho", "mu", "r_savings"):
            finite_number(getattr(self, name), name)
        if self.debt_apr < 0:
            raise ValidationError("debt_apr must be nonnegative")
        if self.sigma_income < 0:
            raise ValidationError("sigma_income must be nonnegative")
        if self.sigma_market < 0:
            raise ValidationError("sigma_market must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValidationError("rho must lie in [-1, 1]")
        if self.r_savings <= -1.0:
            raise ValidationError("r_savings must exceed -1")

    @property
    def income(self) -> Money:
        return total_income(self.member_incomes)


def total_income(members: Iterable[Money]) -> Money:
    return Money(sum(m.cents for m in members))
