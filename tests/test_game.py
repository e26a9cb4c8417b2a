"""Cooperative pooling: Shapley splits checked against full permutation
enumeration and against the earlier subset enumeration, plus the
superadditivity screens and nested multigen split.

The oracle below walks every ordering of members and averages marginal
contributions as exact rationals; the library computes the same values
in closed form.  The two must agree to the cent, including the
largest-remainder distribution of leftover cents.
"""

import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thirdrule import (
    CoalitionSpec,
    DomainError,
    Money,
    UtilityParams,
    ValidationError,
    best_response_check,
    coalition_value,
    is_superadditive,
    make_allocation,
    nested_multigen_allocation,
    shapley_values,
)


def _value_cents_oracle(spec: CoalitionSpec, members: frozenset) -> int:
    """Characteristic function in cents, written independently: member
    incomes plus the size-indexed benefit, minus the subset-specific cost
    when one is listed for exactly this member set, else the size-indexed
    cost."""
    if not members:
        return 0
    size = len(members)
    total = sum(spec.member_incomes[i].cents for i in members)
    benefit = spec.scale_benefit.get(size)
    total += benefit.cents if benefit is not None else 0
    cost = None
    if spec.subset_costs:
        cost = spec.subset_costs.get(frozenset(members))
    if cost is None:
        cost = spec.coordination_cost.get(size)
    total -= cost.cents if cost is not None else 0
    return total


def _shapley_oracle(spec: CoalitionSpec) -> list[int]:
    """Average marginal contribution over all n! orderings, as exact
    fractions, then floor-and-largest-remainder to integer cents."""
    n = spec.n_members
    totals = [Fraction(0)] * n
    count = 0
    for order in itertools.permutations(range(n)):
        count += 1
        seen: frozenset = frozenset()
        for member in order:
            before = _value_cents_oracle(spec, seen)
            seen = seen | {member}
            after = _value_cents_oracle(spec, seen)
            totals[member] += after - before
    shares = [t / count for t in totals]
    floors = [int(s // 1) for s in shares]
    remainders = [s - f for s, f in zip(shares, floors)]
    leftover = _value_cents_oracle(spec, frozenset(range(n))) - sum(floors)
    order = sorted(range(n), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        floors[i] += 1
    return floors


def _enumeration_shapley(spec: CoalitionSpec) -> tuple[Money, ...]:
    """The subset-enumeration Shapley split that the closed form replaced,
    frozen as a differential oracle: marginal contributions over all 2^n
    coalitions with factorial weights, in integer cents scaled by n!,
    with the same errors in the same order."""
    n = spec.n_members
    values = [
        _value_cents_oracle(spec, frozenset(i for i in range(n) if mask >> i & 1))
        for mask in range(1 << n)
    ]
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
    return tuple(Money(c) for c in shares)


def _random_spec(rng: random.Random, n: int, with_overrides: bool = False) -> CoalitionSpec:
    # incomes sit well above the cost scale so no fair share goes negative
    incomes = tuple(Money.of(rng.randrange(100000, 900000) / 100) for _ in range(n))
    benefit = {
        size: Money.of(rng.randrange(0, 50000) / 100)
        for size in range(2, n + 1)
        if rng.random() < 0.8
    }
    cost = {
        size: Money.of(rng.randrange(0, 30000) / 100)
        for size in range(2, n + 1)
        if rng.random() < 0.8
    }
    overrides = None
    if with_overrides and n >= 2:
        members = frozenset(rng.sample(range(n), 2))
        overrides = {members: Money.of(rng.randrange(0, 20000) / 100)}
    return CoalitionSpec(
        member_incomes=incomes,
        scale_benefit=benefit,
        coordination_cost=cost,
        subset_costs=overrides,
    )


class TestCoalitionValue:
    def test_incomes_only(self):
        spec = CoalitionSpec(member_incomes=(Money.of("100"), Money.of("200")))
        assert coalition_value(spec, [0]) == Money.of("100")
        assert coalition_value(spec, [0, 1]) == Money.of("300")
        assert coalition_value(spec, []) == Money.zero()

    def test_benefit_and_cost_by_size(self):
        spec = CoalitionSpec(
            member_incomes=(Money.of("100"), Money.of("200")),
            scale_benefit={2: Money.of("50")},
            coordination_cost={2: Money.of("10")},
        )
        assert coalition_value(spec, [0, 1]) == Money.of("340")

    def test_negative_value_rejected_at_the_public_surface(self):
        spec = CoalitionSpec(
            member_incomes=(Money.of("1"), Money.of("1")),
            coordination_cost={2: Money.of("100")},
        )
        with pytest.raises(DomainError):
            coalition_value(spec, [0, 1])

    def test_member_index_validation(self):
        spec = CoalitionSpec(member_incomes=(Money.of("1"),))
        with pytest.raises(ValidationError):
            coalition_value(spec, [0, 0])
        with pytest.raises(ValidationError):
            coalition_value(spec, [1])


class TestShapley:
    def test_two_member_worked_example(self):
        spec = CoalitionSpec(
            member_incomes=(Money.of("40000"), Money.of("80000")),
            scale_benefit={2: Money.of("6000")},
        )
        result = shapley_values(spec)
        # each gains half the pooling benefit on top of their own income
        assert result.values == (Money.of("43000"), Money.of("83000"))
        assert result.total == Money.of("126000")

    def test_matches_permutation_oracle_exactly(self):
        rng = random.Random(404)
        for trial in range(50):
            n = rng.randrange(2, 7)
            spec = _random_spec(rng, n, with_overrides=trial % 5 == 0)
            got = shapley_values(spec)
            expected = _shapley_oracle(spec)
            assert [m.cents for m in got.values] == expected, f"spec #{trial}"

    def test_efficiency_exact(self):
        rng = random.Random(11)
        for _ in range(20):
            spec = _random_spec(rng, rng.randrange(2, 8))
            result = shapley_values(spec)
            grand = coalition_value(spec, range(spec.n_members))
            assert result.total == grand

    def test_symmetry_within_a_cent(self):
        spec = CoalitionSpec(
            member_incomes=(Money.of("50000"), Money.of("50000"), Money.of("50000")),
            scale_benefit={2: Money.of("1000"), 3: Money.of("2000.01")},
        )
        values = shapley_values(spec).values
        spread = max(v.cents for v in values) - min(v.cents for v in values)
        assert spread <= 1
        # leftover cents land on the lowest indices
        assert sorted(values, reverse=True) == list(values)

    def test_dummy_member_gets_own_income(self):
        # additive game: no benefits, no costs; each member's value is
        # exactly their own income
        spec = CoalitionSpec(
            member_incomes=(Money.of("12345.67"), Money.zero(), Money.of("0.03"))
        )
        values = shapley_values(spec).values
        assert values == (Money.of("12345.67"), Money.zero(), Money.of("0.03"))

    def test_additivity_of_two_income_games(self):
        # with no size effects the game is additive, so the Shapley split
        # of a summed game equals the sum of the splits
        a = CoalitionSpec(member_incomes=(Money.of("10"), Money.of("20")))
        b = CoalitionSpec(member_incomes=(Money.of("5"), Money.of("1")))
        combined = CoalitionSpec(member_incomes=(Money.of("15"), Money.of("21")))
        va = shapley_values(a).values
        vb = shapley_values(b).values
        vc = shapley_values(combined).values
        assert [x.cents + y.cents for x, y in zip(va, vb)] == [v.cents for v in vc]

    def test_forty_members_are_efficient_and_symmetric(self):
        # two income levels and a gain at every size: equal incomes get
        # equal exact shares, the leftover cents go to the lower indices
        incomes = tuple(Money(300_000 + 1_000 * (i % 2)) for i in range(40))
        spec = CoalitionSpec(
            member_incomes=incomes,
            scale_benefit={k: Money(700 * k) for k in range(2, 41)},
            coordination_cost={k: Money(13 * k * k) for k in range(2, 41)},
        )
        values = shapley_values(spec).values
        assert sum(v.cents for v in values) == coalition_value(spec, range(40)).cents
        gain_cents = 700 * 40 - 13 * 40 * 40
        for i, value in enumerate(values):
            assert value.cents - incomes[i].cents in (gain_cents // 40, gain_cents // 40 + 1)
        for parity in (0, 1):
            shares = [values[i].cents for i in range(parity, 40, 2)]
            assert max(shares) - min(shares) <= 1
            assert sorted(shares, reverse=True) == shares

    def test_ten_thousand_members_in_under_a_second(self):
        # guards against a quadratic or factorial slip in the closed form
        n = 10_000
        spec = CoalitionSpec(
            member_incomes=tuple(Money(100_000 + 7 * i) for i in range(n)),
            scale_benefit={n: Money(12_345)},
            coordination_cost={2: Money(5)},
        )
        start = time.perf_counter()
        result = shapley_values(spec)
        elapsed = time.perf_counter() - start
        assert result.total.cents == sum(100_000 + 7 * i for i in range(n)) + 12_345
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    def test_subset_costs_above_twelve_members_are_rejected(self):
        spec = CoalitionSpec(
            member_incomes=tuple(Money.of("1") for _ in range(13)),
            subset_costs={frozenset({0, 1}): Money.zero()},
        )
        with pytest.raises(ValidationError, match="at most 12 members"):
            shapley_values(spec)
        with pytest.raises(ValidationError, match="at most 12 members"):
            is_superadditive(spec)

    def test_negative_fair_share_rejected(self):
        # a near-penniless member joins an expensive pool: every coalition
        # value stays positive, but the member's average marginal
        # contribution is negative
        spec = CoalitionSpec(
            member_incomes=(Money.of("9000"), Money.of("0.01")),
            coordination_cost={2: Money.of("300")},
        )
        with pytest.raises(DomainError):
            shapley_values(spec)


# Incomes of at least 3000.00 against size tables of at most 1000.00 keep
# every coalition value and every fair share nonnegative.
_INCOME_CENTS = st.integers(min_value=300_000, max_value=10**9)
_TABLE_CENTS = st.integers(min_value=0, max_value=100_000)


@st.composite
def _games(draw, min_members=1):
    n = draw(st.integers(min_value=min_members, max_value=7))
    incomes = draw(st.lists(_INCOME_CENTS, min_size=n, max_size=n))
    sizes = st.dictionaries(st.integers(min_value=1, max_value=n), _TABLE_CENTS.map(Money))
    return CoalitionSpec(
        member_incomes=tuple(Money(c) for c in incomes),
        scale_benefit=draw(sizes),
        coordination_cost=draw(sizes),
    )


@settings(max_examples=200, deadline=None)
@given(_games())
def test_shapley_efficiency_in_exact_cents(spec):
    values = shapley_values(spec).values
    grand = coalition_value(spec, range(spec.n_members))
    assert sum(v.cents for v in values) == grand.cents


@settings(max_examples=200, deadline=None)
@given(_games(min_members=2), st.data())
def test_shapley_symmetry_for_equal_incomes(spec, data):
    # size-indexed tables treat members alike, so two equal incomes have
    # equal exact shares; the leftover cent may go only to the lower index
    i, j = sorted(
        data.draw(st.lists(st.integers(0, spec.n_members - 1), min_size=2, max_size=2, unique=True))
    )
    incomes = list(spec.member_incomes)
    incomes[j] = incomes[i]
    values = shapley_values(dataclasses.replace(spec, member_incomes=tuple(incomes))).values
    assert values[i].cents - values[j].cents in (0, 1)


def _outcome(split, spec):
    try:
        return [v.cents for v in split(spec)]
    except (DomainError, ValidationError) as exc:
        return type(exc), str(exc)


@st.composite
def _any_games(draw):
    """Games of up to 10 members with per-subset cost overrides on the
    empty set, singletons, any subset and all members.  Tables on the
    incomes' scale make many games insolvent or leave a member a negative
    share; smaller tables keep most of them solvent."""
    n = draw(st.integers(min_value=1, max_value=10))
    top = draw(st.sampled_from([100, 10_000, 10**6]))
    money = st.integers(min_value=0, max_value=top).map(Money)
    table_top = top // draw(st.sampled_from([1, 10, 100]))
    table = st.integers(min_value=0, max_value=table_top).map(Money)
    sizes = st.dictionaries(st.integers(min_value=1, max_value=n), table)
    members = st.one_of(
        st.just(frozenset()),
        st.integers(min_value=0, max_value=n - 1).map(lambda i: frozenset({i})),
        st.frozensets(st.integers(min_value=0, max_value=n - 1)),
        st.just(frozenset(range(n))),
    )
    return CoalitionSpec(
        member_incomes=tuple(draw(st.lists(money, min_size=n, max_size=n))),
        scale_benefit=draw(sizes),
        coordination_cost=draw(sizes),
        subset_costs=draw(st.none() | st.dictionaries(members, table, max_size=4)),
    )


@settings(max_examples=300, deadline=None)
@given(_any_games())
def test_shapley_matches_the_subset_enumeration(spec):
    # shares, exception types and messages all agree
    expected = _outcome(_enumeration_shapley, spec)
    assert _outcome(lambda s: shapley_values(s).values, spec) == expected


class TestSuperadditivity:
    def test_additive_game_is_superadditive(self):
        spec = CoalitionSpec(member_incomes=(Money.of("1"), Money.of("2"), Money.of("3")))
        assert is_superadditive(spec)

    def test_large_cost_breaks_it(self):
        spec = CoalitionSpec(
            member_incomes=(Money.of("100"), Money.of("200")),
            coordination_cost={2: Money.of("1000")},
        )
        assert not is_superadditive(spec)

    def test_benefits_make_it_hold(self):
        spec = CoalitionSpec(
            member_incomes=(Money.of("100"), Money.of("200"), Money.of("300")),
            scale_benefit={2: Money.of("10"), 3: Money.of("25")},
        )
        assert is_superadditive(spec)

    def test_non_monotone_benefit_fails(self):
        # a pair benefit that the triple loses again: merging a pair with
        # a singleton destroys value
        spec = CoalitionSpec(
            member_incomes=(Money.of("10"), Money.of("10"), Money.of("10")),
            scale_benefit={2: Money.of("500")},
        )
        assert not is_superadditive(spec)

    def test_reduction_agrees_with_brute_force(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randrange(2, 7)
            spec = _random_spec(rng, n)

            def brute(spec=spec, n=n):
                values = {}
                for mask in range(1 << n):
                    members = frozenset(i for i in range(n) if mask >> i & 1)
                    values[mask] = _value_cents_oracle(spec, members)
                for s in range(1 << n):
                    t = ((1 << n) - 1) ^ s
                    sub = t
                    while True:
                        if sub and s and values[s | sub] < values[s] + values[sub]:
                            return False
                        if sub == 0:
                            break
                        sub = (sub - 1) & t
                return True

            assert is_superadditive(spec) == brute()

    def test_subset_override_path(self):
        # an override that makes one particular pair expensive
        spec = CoalitionSpec(
            member_incomes=(Money.of("100"), Money.of("100"), Money.of("100")),
            subset_costs={frozenset({0, 1}): Money.of("150")},
        )
        assert not is_superadditive(spec)
        mild = CoalitionSpec(
            member_incomes=(Money.of("100"), Money.of("100"), Money.of("100")),
            subset_costs={frozenset({0, 1}): Money.zero()},
        )
        assert is_superadditive(mild)

    def test_caps(self):
        big = CoalitionSpec(member_incomes=tuple(Money.of("1") for _ in range(17)))
        with pytest.raises(ValidationError):
            is_superadditive(big)
        with_override = CoalitionSpec(
            member_incomes=tuple(Money.of("1") for _ in range(13)),
            subset_costs={frozenset({0, 1}): Money.zero()},
        )
        with pytest.raises(ValidationError):
            is_superadditive(with_override)


class TestNestedMultigen:
    def test_two_generation_worked_example(self):
        result = nested_multigen_allocation([Money.of("30000"), Money.of("60000")])
        assert [str(a.debt) for a in result.personal] == ["10000.00", "20000.00"]
        # the household contribution is each member's third bucket
        assert [str(a.expenses) for a in result.personal] == ["10000.00", "20000.00"]
        assert result.pooled == Money.of("30000")
        assert str(result.collective.debt) == "10000.00"
        assert str(result.collective.savings) == "10000.00"
        assert str(result.collective.expenses) == "10000.00"

    def test_pool_identity(self):
        result = nested_multigen_allocation(
            [Money.of("41000"), Money.of("0.01"), Money.of("777.77")]
        )
        assert result.pooled.cents == sum(a.expenses.cents for a in result.personal)
        c = result.collective
        assert c.debt.cents + c.savings.cents + c.expenses.cents == result.pooled.cents

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            nested_multigen_allocation([])


class TestBestResponse:
    def test_thirds_is_a_best_response_for_symmetric_preferences(self):
        income = Money.of("60000")
        thirds = make_allocation(income, (Fraction(1, 3),) * 3)
        assert best_response_check(
            UtilityParams.symmetric(), income, thirds, Money.of("100")
        )

    def test_skewed_split_is_not(self):
        income = Money.of("60000")
        skewed = make_allocation(
            income, (Fraction(1, 10), Fraction(1, 10), Fraction(4, 5))
        )
        assert not best_response_check(
            UtilityParams.symmetric(), income, skewed, Money.of("100")
        )

    def test_asymmetric_optimum(self):
        params = UtilityParams(alpha=0.5, beta=0.25, gamma=0.25)
        income = Money.of("1000")
        best = make_allocation(
            income, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        )
        assert best_response_check(params, income, best, Money.of("2.50"))
