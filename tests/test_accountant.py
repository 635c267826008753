"""Budget arithmetic: allocation, composition, and the spend ledger."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpsan as d


class TestAllocateEqual:
    def test_three_way_split_recomposes_exactly(self):
        shares = d.allocate_equal(1.0, 3)
        assert len(shares) == 3
        assert math.fsum(shares) == 1.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 10, 13, 100, 997])
    def test_recomposition_is_exact_for_any_count(self, k):
        rng = np.random.default_rng(k)
        for eps in rng.uniform(1e-6, 50.0, size=200):
            assert math.fsum(d.allocate_equal(float(eps), k)) == float(eps)

    def test_shares_are_near_equal(self):
        shares = d.allocate_equal(1.0, 7)
        assert max(shares) - min(shares) < 1e-15

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            d.allocate_equal(0.0, 3)
        with pytest.raises(ValueError):
            d.allocate_equal(-1.0, 3)
        with pytest.raises(ValueError):
            d.allocate_equal(math.inf, 3)
        with pytest.raises(ValueError):
            d.allocate_equal(1.0, 0)


class TestLedgerEntry:
    def test_fields(self):
        e = d.LedgerEntry("s11", 0.25)
        assert e.label == "s11" and e.epsilon == 0.25 and e.group is None

    def test_rejects_bad_labels_and_budgets(self):
        with pytest.raises(ValueError):
            d.LedgerEntry("", 0.1)
        with pytest.raises(ValueError):
            d.LedgerEntry("a\tb", 0.1)
        with pytest.raises(ValueError):
            d.LedgerEntry("a\nb", 0.1)
        with pytest.raises(ValueError):
            d.LedgerEntry("ok", 0.0)
        with pytest.raises(ValueError):
            d.LedgerEntry("ok", math.nan)
        with pytest.raises(ValueError):
            d.LedgerEntry("ok", 0.1, group="")


class TestCompose:
    def test_sequential_spends_add(self):
        entries = [d.LedgerEntry("a", 0.2), d.LedgerEntry("b", 0.3)]
        assert d.compose(entries) == 0.5

    def test_parallel_group_contributes_its_maximum(self):
        entries = [
            d.LedgerEntry("cat1", 0.5, group="categories"),
            d.LedgerEntry("cat2", 0.5, group="categories"),
            d.LedgerEntry("cat3", 0.5, group="categories"),
        ]
        assert d.compose(entries) == 0.5

    def test_mixed_sequential_and_parallel(self):
        entries = [
            d.LedgerEntry("seq", 0.25),
            d.LedgerEntry("g1a", 0.5, group="g1"),
            d.LedgerEntry("g1b", 0.75, group="g1"),
            d.LedgerEntry("g2a", 0.1, group="g2"),
        ]
        assert d.compose(entries) == 0.25 + 0.75 + 0.1

    def test_order_independent(self):
        rng = np.random.default_rng(8)
        entries = [d.LedgerEntry(f"e{i}", float(x)) for i, x in enumerate(rng.uniform(0.01, 1.0, 30))]
        forward = d.compose(entries)
        assert d.compose(entries[::-1]) == forward
        perm = [entries[i] for i in rng.permutation(30)]
        assert d.compose(perm) == forward

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            d.compose([])


class TestBudgetLedger:
    def test_spend_and_remaining(self):
        led = d.BudgetLedger(1.0)
        led.spend("first", 0.25)
        led.spend("second", 0.5)
        assert led.spent() == 0.75
        assert led.remaining() == 0.25
        assert [e.label for e in led.entries()] == ["first", "second"]

    def test_exact_exhaustion_allowed(self):
        led = d.BudgetLedger(1.0)
        for share in d.allocate_equal(1.0, 3):
            led.spend("part", share)
        assert led.spent() == 1.0
        assert led.remaining() == 0.0

    def test_overdraft_refused_without_tolerance(self):
        led = d.BudgetLedger(1.0)
        led.spend("most", 0.75)
        with pytest.raises(d.BudgetExceededError) as exc:
            led.spend("extra", 0.2500000000000002)  # a few ulps past the remainder
        assert exc.value.remaining == 0.25
        # the refused spend must leave the ledger untouched
        assert len(led.entries()) == 1
        assert led.spent() == 0.75
        led.spend("extra", 0.25)  # the exact remainder still fits

    def test_parallel_spends_share_budget(self):
        led = d.BudgetLedger(1.0)
        for i in range(4):
            led.spend(f"cat{i}", 1.0, group="categories")
        assert led.spent() == 1.0
        with pytest.raises(d.BudgetExceededError):
            led.spend("more", 0.5)

    def test_rejects_invalid_total(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                d.BudgetLedger(bad)

    def test_serialization_round_trip(self):
        led = d.BudgetLedger(2.0)
        led.spend("mean", 0.5)
        led.spend("cat1", 0.75, group="g")
        led.spend("cat2", 0.25, group="g")
        lines = led.to_lines()
        back = d.BudgetLedger.from_lines(lines)
        assert back.total == led.total
        assert back.entries() == led.entries()
        assert back.spent() == led.spent()
        assert back.to_lines() == lines

    def test_round_trip_preserves_floats_exactly(self):
        led = d.BudgetLedger(1.0)
        led.spend("odd", 0.1 + 0.2)  # 0.30000000000000004 must survive
        back = d.BudgetLedger.from_lines(led.to_lines())
        assert back.entries()[0].epsilon == 0.1 + 0.2

    def test_from_lines_rejects_garbage(self):
        with pytest.raises(ValueError):
            d.BudgetLedger.from_lines([])
        with pytest.raises(ValueError):
            d.BudgetLedger.from_lines(["not a header"])
        with pytest.raises(ValueError):
            d.BudgetLedger.from_lines(["total\t1.0", "label only"])


# spends drawn from exact shares of the total as well as arbitrary floats,
# so budgets are hit exactly as often as they are overdrawn
_spend = st.tuples(
    st.one_of(
        st.sampled_from([1, 2, 3, 5, 7]).flatmap(lambda k: st.sampled_from(d.allocate_equal(1.0, k))),
        st.floats(min_value=1e-3, max_value=1.5),
    ),
    st.sampled_from([None, None, "a", "b", "c"]),
)


class TestIncrementalLedger:
    """The running ledger state agrees with composing every entry afresh."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(total=st.sampled_from([1.0, 0.5, 2.0, 0.1 + 0.2]), spends=st.lists(_spend, max_size=25))
    def test_matches_compose(self, total, spends):
        led = d.BudgetLedger(total)
        for i, (eps, group) in enumerate(spends):
            entry = d.LedgerEntry(f"s{i}", eps, group)
            before_entries, before_spent = led.entries(), led.spent()
            refuse = d.compose(before_entries + (entry,)) > total
            try:
                led.spend(entry.label, eps, group)
            except d.BudgetExceededError:
                assert refuse
                assert led.entries() == before_entries
                assert led.spent() == before_spent
            else:
                assert not refuse
                assert led.entries() == before_entries + (entry,)
            if led.entries():
                assert led.spent() == d.compose(led.entries())
            else:
                assert led.spent() == 0.0
            back = d.BudgetLedger.from_lines(led.to_lines())
            assert back.spent() == led.spent()
            assert back.entries() == led.entries()
