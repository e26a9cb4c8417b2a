"""Fixed-point money, allocation rules, and household records."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thirdrule import (
    Allocation,
    AllocationRule,
    DomainError,
    HouseholdProfile,
    HouseholdType,
    IncomeBand,
    Money,
    RuleId,
    ValidationError,
    check_fractions,
    classify_income,
    dti,
    make_allocation,
    rule_allocation,
    ser,
    total_income,
)
from thirdrule.domain import MAX_CENTS, _settle_residual


class TestMoney:
    def test_parse_string(self):
        assert Money.of("1234.56").cents == 123456
        assert Money.of("0").cents == 0
        assert Money.of("0.01").cents == 1

    def test_parse_int_and_float(self):
        assert Money.of(41000).cents == 4100000
        assert Money.of(10.25).cents == 1025
        assert Money.of(Decimal("7.77")).cents == 777

    def test_half_even_rounding(self):
        # ties round toward the even cent
        assert Money.of("0.005").cents == 0
        assert Money.of("0.015").cents == 2
        assert Money.of("0.025").cents == 2
        assert Money.of("0.035").cents == 4

    def test_idempotent_on_money(self):
        m = Money.of("19.99")
        assert Money.of(m) is m or Money.of(m) == m

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Money.of("-0.01")
        with pytest.raises(ValidationError):
            Money(-1)

    def test_nan_and_inf_rejected(self):
        with pytest.raises(ValidationError):
            Money.of(float("nan"))
        with pytest.raises(ValidationError):
            Money.of(float("inf"))

    def test_arithmetic(self):
        a = Money.of("10.00")
        b = Money.of("2.50")
        assert (a + b).cents == 1250
        assert (a - b).cents == 750
        with pytest.raises(DomainError):
            b - a

    def test_ordering_and_str(self):
        assert Money.of("1.00") < Money.of("1.01")
        assert str(Money.of("1234.56")) == "1234.56"
        assert str(Money.of("0.05")) == "0.05"
        assert str(Money.zero()) == "0.00"

    def test_units(self):
        assert Money.of("13666.67").units == 13666.67


class TestCheckFractions:
    def test_exact_thirds(self):
        f = check_fractions((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        assert f == (Fraction(1, 3),) * 3

    def test_decimal_strings(self):
        f = check_fractions(("0.5", "0.3", "0.2"))
        assert sum(f) == 1

    def test_floats_via_repr(self):
        # 0.1 parses by its printed value, not its binary expansion
        f = check_fractions((0.1, 0.1, 0.8))
        assert f == (Fraction(1, 10), Fraction(1, 10), Fraction(4, 5))

    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            check_fractions((Fraction(1, 3), Fraction(1, 3), Fraction(1, 4)))

    def test_float_thirds_rejected(self):
        # repr of 1/3 sums to less than one; only exact rationals pass
        with pytest.raises(ValidationError):
            check_fractions((1 / 3, 1 / 3, 1 / 3))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            check_fractions((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 1)))

    def test_wrong_arity(self):
        with pytest.raises(ValidationError):
            check_fractions((Fraction(1, 2), Fraction(1, 2)))


class TestAllocationRules:
    def test_named_rules(self):
        assert AllocationRule.one_third().fractions == (Fraction(1, 3),) * 3
        assert AllocationRule.fifty_thirty_twenty().fractions == (
            Fraction(1, 10),
            Fraction(1, 10),
            Fraction(4, 5),
        )
        assert AllocationRule.seventy_twenty_ten().fractions == (
            Fraction(1, 10),
            Fraction(1, 5),
            Fraction(7, 10),
        )

    def test_named_lookup(self):
        assert AllocationRule.named("one_third") == AllocationRule.one_third()
        assert AllocationRule.named(RuleId.SEVENTY_TWENTY_TEN).rule_id is RuleId.SEVENTY_TWENTY_TEN
        with pytest.raises(ValidationError):
            AllocationRule.named("custom")

    def test_custom(self):
        rule = AllocationRule.custom(("1/2", "1/4", "1/4"))
        assert rule.rule_id is RuleId.CUSTOM
        assert rule.fractions == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_rule_id_string_becomes_a_rule_id(self):
        rule = AllocationRule("fifty_thirty_twenty", ("0.1", "0.1", "0.8"))
        assert rule.rule_id is RuleId.FIFTY_THIRTY_TWENTY
        assert rule == AllocationRule.fifty_thirty_twenty()

    @pytest.mark.parametrize("rule_id", ["nope", "", 3, None])
    def test_unknown_rule_id_is_named(self, rule_id):
        with pytest.raises(ValidationError, match=f"^unknown allocation rule {rule_id!r}$"):
            AllocationRule(rule_id, (Fraction(1, 3),) * 3)

    @pytest.mark.parametrize("rule_id", [RuleId.ONE_THIRD, "one_third"])
    def test_named_rule_carries_its_own_fractions(self, rule_id):
        with pytest.raises(
            ValidationError, match=r"^rule one_third splits \(1/3, 1/3, 1/3\), got \(1/2, 1/2, 0\)$"
        ):
            AllocationRule(rule_id, (Fraction(1, 2), Fraction(1, 2), 0))


def _settle_residual_cent_loop(income_c, debt_c, savings_c):
    """The residual split's former loop: give back the overshoot one
    cent at a time, from savings while it lasts, then from debt."""
    expenses_c = income_c - debt_c - savings_c
    while expenses_c < 0:
        if savings_c > 0:
            savings_c -= 1
        else:
            debt_c -= 1
        expenses_c += 1
    return debt_c, savings_c, expenses_c


class TestMakeAllocation:
    def test_even_split(self):
        a = make_allocation(Money.of("60000"), (Fraction(1, 3),) * 3)
        assert (a.debt.cents, a.savings.cents, a.expenses.cents) == (2000000,) * 3

    def test_residual_goes_to_expenses(self):
        a = make_allocation(Money.of("100"), (Fraction(1, 3),) * 3)
        assert (str(a.debt), str(a.savings), str(a.expenses)) == ("33.33", "33.33", "33.34")

    def test_identity_exact_many_incomes(self):
        rules = [
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            (Fraction(1, 10), Fraction(1, 10), Fraction(4, 5)),
            (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)),
            ("0.123", "0.456", "0.421"),
        ]
        incomes = ["0.01", "0.02", "0.03", "1.00", "99.99", "41000", "123456.78", "0.97"]
        for fractions in rules:
            for raw in incomes:
                income = Money.of(raw)
                a = make_allocation(income, fractions)
                assert a.debt.cents + a.savings.cents + a.expenses.cents == income.cents

    def test_shave_when_rounding_oversubscribes(self):
        # one and-a-half cents in both buckets rounds up twice
        a = make_allocation(Money.of("0.03"), (Fraction(1, 2), Fraction(1, 2), Fraction(0, 1)))
        assert (a.debt.cents, a.savings.cents, a.expenses.cents) == (2, 1, 0)

    def test_zero_income(self):
        a = make_allocation(Money.zero(), (Fraction(1, 3),) * 3)
        assert a.income.cents == 0
        assert a.expenses.cents == 0

    def test_worked_income_splits(self):
        # 41000 / 90000 / 72000 split into equal thirds
        for raw, third in (("41000", "13666.67"), ("90000", "30000.00"), ("72000", "24000.00")):
            a = rule_allocation(AllocationRule.one_third(), Money.of(raw))
            assert str(a.debt) == third
            assert str(a.savings) == third

    @given(
        cents=st.integers(min_value=0, max_value=10**15),
        den=st.integers(min_value=1, max_value=10**6),
        data=st.data(),
    )
    def test_split_is_exact_and_near_the_fractions(self, cents, den, data):
        a = data.draw(st.integers(min_value=0, max_value=den))
        b = data.draw(st.integers(min_value=0, max_value=den - a))
        fractions = (Fraction(a, den), Fraction(b, den), Fraction(den - a - b, den))
        alloc = make_allocation(Money(cents), fractions)
        debt, savings, expenses = alloc.debt.cents, alloc.savings.cents, alloc.expenses.cents
        assert min(debt, savings, expenses) >= 0
        assert debt + savings + expenses == cents
        assert abs(debt - cents * fractions[0]) <= 1
        assert abs(savings - cents * fractions[1]) <= 1

    @given(
        debt_c=st.integers(min_value=0, max_value=MAX_CENTS),
        savings_c=st.integers(min_value=0, max_value=5000),
        over=st.integers(min_value=-5000, max_value=5000),
    )
    def test_residual_split_matches_the_cent_loop(self, debt_c, savings_c, over):
        # overshoots on both sides of savings_c, up to thousands of cents
        income_c = max(debt_c + savings_c - over, 0)
        expected = _settle_residual_cent_loop(income_c, debt_c, savings_c)
        assert _settle_residual(income_c, debt_c, savings_c) == expected

    def test_allocation_validates_identity(self):
        with pytest.raises(ValidationError):
            Allocation(
                Money.of("10.00"), Money.of("5.00"), Money.of("5.00"), Money.of("1.00")
            )


class TestRatios:
    def test_dti(self):
        assert dti(Money.of("1200"), Money.of("4000")) == 0.3
        with pytest.raises(DomainError):
            dti(Money.of("1"), Money.zero())

    def test_ser(self):
        assert ser(Money.of("1500"), Money.of("1000")) == 1.5
        with pytest.raises(DomainError):
            ser(Money.of("1"), Money.zero())


class TestClassifyIncome:
    def test_boundaries_are_exact(self):
        median = Money.of("100")
        # 30: exactly 30% of median is not below it
        assert classify_income(Money.of("29.99"), median) is IncomeBand.LOW
        assert classify_income(Money.of("30.00"), median) is IncomeBand.MIDDLE
        # 80% boundary is inclusive on the middle side
        assert classify_income(Money.of("80.00"), median) is IncomeBand.MIDDLE
        assert classify_income(Money.of("80.01"), median) is IncomeBand.HIGH

    def test_integer_comparison_avoids_float_edges(self):
        # 0.3 * 36903.40 is not representable; the comparison stays exact
        median = Money.of("36903.40")
        boundary = Money.of("11071.02")
        assert classify_income(boundary, median) is IncomeBand.MIDDLE
        assert classify_income(boundary - Money.of("0.01"), median) is IncomeBand.LOW

    def test_zero_median_rejected(self):
        with pytest.raises(ValidationError):
            classify_income(Money.of("1"), Money.zero())


class TestHouseholdProfile:
    def _base(self, **kw):
        fields = dict(
            profile_id="h1",
            household_type=HouseholdType.SINGLE_INCOME,
            member_incomes=(Money.of("41000"),),
            debt_balance=Money.of("63000"),
            debt_apr=0.18,
            baseline_expenses=Money.of("13000"),
            sigma_income=0.1,
            sigma_market=0.1,
            rho=0.25,
            mu=0.02,
            r_savings=0.04,
        )
        fields.update(kw)
        return HouseholdProfile(**fields)

    def test_income_property_sums_members(self):
        p = self._base(
            household_type=HouseholdType.DUAL_INCOME,
            member_incomes=(Money.of("50000"), Money.of("40000")),
        )
        assert p.income == Money.of("90000")

    def test_member_count_must_match_type(self):
        with pytest.raises(ValidationError):
            self._base(member_incomes=(Money.of("1"), Money.of("2")))
        with pytest.raises(ValidationError):
            self._base(
                household_type=HouseholdType.DUAL_INCOME,
                member_incomes=(Money.of("1"),),
            )
        # multigenerational takes any positive member count
        p = self._base(
            household_type=HouseholdType.MULTIGENERATIONAL,
            member_incomes=(Money.of("1"), Money.of("2"), Money.of("3")),
        )
        assert p.income == Money.of("6")

    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            self._base(debt_apr=-0.01)
        with pytest.raises(ValidationError):
            self._base(rho=1.5)
        with pytest.raises(ValidationError):
            self._base(sigma_income=-0.1)
        with pytest.raises(ValidationError):
            self._base(mu=float("nan"))
        with pytest.raises(ValidationError):
            self._base(profile_id="")

    def test_rho_endpoints_allowed(self):
        assert self._base(rho=1.0).rho == 1.0
        assert self._base(rho=-1.0).rho == -1.0


def test_total_income():
    assert total_income([Money.of("1.10"), Money.of("2.20")]) == Money.of("3.30")
    assert total_income([]) == Money.zero()
