"""Tests for the association-rule-mining substrate.

Apriori and FP-Growth are independent implementations of the same
contract; the cross-check property test is the main correctness oracle.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.mining.apriori import apriori
from repro.mining.association import AssociationRule, mine_association_rules
from repro.mining.entropy import (
    DEFAULT_ENTROPY_THRESHOLD,
    shannon_entropy,
    value_entropy,
)
from repro.mining.fpgrowth import FPTree, fpgrowth
from repro.mining.itemsets import (
    Itemset,
    ItemsetBudgetExceeded,
    TransactionTable,
    discretize_binomial,
)

CLASSIC = TransactionTable(
    [
        ["bread", "milk"],
        ["bread", "diapers", "beer", "eggs"],
        ["milk", "diapers", "beer", "cola"],
        ["bread", "milk", "diapers", "beer"],
        ["bread", "milk", "diapers", "cola"],
    ]
)


def as_set(itemsets):
    return {(iset.items, iset.support) for iset in itemsets}


class TestTransactionTable:
    def test_len_and_items(self):
        assert len(CLASSIC) == 5
        assert "beer" in CLASSIC.items()

    def test_support_counting(self):
        assert CLASSIC.support(["bread", "milk"]) == 3
        assert CLASSIC.support(["beer", "cola"]) == 1
        assert CLASSIC.support([]) == 5

    def test_item_counts(self):
        counts = CLASSIC.item_counts()
        assert counts["bread"] == 4
        assert counts["cola"] == 2

    def test_min_count_bounds(self):
        assert CLASSIC.min_count(0.0) == 1
        assert CLASSIC.min_count(1.0) == 5
        with pytest.raises(ValueError):
            CLASSIC.min_count(1.5)


class TestItemset:
    def test_negative_support_rejected(self):
        with pytest.raises(ValueError):
            Itemset(frozenset({"a"}), -1)

    def test_len_contains(self):
        iset = Itemset(frozenset({"a", "b"}), 2)
        assert len(iset) == 2 and "a" in iset


class TestApriori:
    def test_classic_dataset(self):
        itemsets = apriori(CLASSIC, min_support=0.6)
        found = as_set(itemsets)
        assert (frozenset({"bread"}), 4) in found
        assert (frozenset({"milk", "diapers"}), 3) in found
        assert (frozenset({"beer", "diapers"}), 3) in found
        # cola appears twice: below 60% support
        assert not any("cola" in items for items, _ in found)

    def test_empty_table(self):
        assert apriori(TransactionTable([]), 0.5) == []

    def test_max_len(self):
        itemsets = apriori(CLASSIC, 0.4, max_len=1)
        assert all(len(i) == 1 for i in itemsets)

    def test_budget_exceeded(self):
        with pytest.raises(ItemsetBudgetExceeded):
            apriori(CLASSIC, 0.1, max_itemsets=3)


class TestFPGrowth:
    def test_classic_dataset_matches_apriori(self):
        a = as_set(apriori(CLASSIC, 0.6))
        f = as_set(fpgrowth(CLASSIC, 0.6))
        assert a == f

    def test_single_transaction(self):
        table = TransactionTable([["a", "b", "c"]])
        itemsets = fpgrowth(table, 1.0)
        assert (frozenset({"a", "b", "c"}), 1) in as_set(itemsets)
        assert len(itemsets) == 7  # all non-empty subsets

    def test_empty_table(self):
        assert fpgrowth(TransactionTable([]), 0.5) == []

    def test_budget_exceeded(self):
        with pytest.raises(ItemsetBudgetExceeded):
            fpgrowth(CLASSIC, 0.1, max_itemsets=3)

    def test_max_len(self):
        itemsets = fpgrowth(CLASSIC, 0.4, max_len=2)
        assert all(len(i) <= 2 for i in itemsets)

    def test_tree_node_count(self):
        order = {"a": 0, "b": 1}
        tree = FPTree.build([(["a", "b"], 1), (["a"], 1)], order)
        assert tree.node_count() == 2

    def test_prefix_paths(self):
        order = {"a": 0, "b": 1, "c": 2}
        tree = FPTree.build([(["a", "b", "c"], 1), (["a", "c"], 1)], order)
        paths = tree.prefix_paths("c")
        assert sorted(tuple(p) for p, _ in paths) == [("a",), ("a", "b")]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), max_size=5),
        min_size=0,
        max_size=12,
    ),
    st.sampled_from([0.2, 0.4, 0.6, 0.9]),
)
def test_apriori_fpgrowth_agree(transactions, min_support):
    """The two miners are independent implementations of one contract."""
    table = TransactionTable(transactions)
    assert as_set(apriori(table, min_support)) == as_set(fpgrowth(table, min_support))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), max_size=4),
        min_size=1,
        max_size=10,
    )
)
def test_itemset_supports_are_exact(transactions):
    table = TransactionTable(transactions)
    for iset in fpgrowth(table, 0.3):
        assert table.support(iset.items) == iset.support


class TestAssociationRules:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            AssociationRule(frozenset(), frozenset({"a"}), 1, 0.5)
        with pytest.raises(ValueError):
            AssociationRule(frozenset({"a"}), frozenset({"a"}), 1, 0.5)
        with pytest.raises(ValueError):
            AssociationRule(frozenset({"a"}), frozenset({"b"}), 1, 1.5)

    def test_mined_rules_meet_confidence(self):
        itemsets = fpgrowth(CLASSIC, 0.4)
        rules = mine_association_rules(itemsets, CLASSIC, min_confidence=0.8)
        assert rules
        for rule in rules:
            ante = CLASSIC.support(rule.antecedent)
            joint = CLASSIC.support(rule.antecedent | rule.consequent)
            assert joint / ante >= 0.8
            assert math.isclose(rule.confidence, joint / ante)

    def test_str_rendering(self):
        rule = AssociationRule(frozenset({"a"}), frozenset({"b"}), 3, 0.75)
        assert "->" in str(rule) and "0.75" in str(rule)


class TestDiscretization:
    def test_items_are_attr_value_pairs(self):
        rows = [{"a": "1", "b": "x"}, {"a": "2"}]
        table, universe = discretize_binomial(rows)
        assert set(universe) == {"a=1", "a=2", "b=x"}
        assert len(table) == 2

    def test_none_skipped_by_default(self):
        table, universe = discretize_binomial([{"a": None}])
        assert universe == []

    def test_missing_marker(self):
        _, universe = discretize_binomial([{"a": None}], missing_marker="<absent>")
        assert universe == ["a=<absent>"]


class TestEntropy:
    def test_uniform_two_values(self):
        assert math.isclose(shannon_entropy([0.5, 0.5]), math.log(2))

    def test_paper_threshold_derivation(self):
        """Ht = 0.325 is the entropy of a 90/10 two-value split."""
        assert abs(shannon_entropy([0.9, 0.1]) - DEFAULT_ENTROPY_THRESHOLD) < 0.001

    def test_constant_is_zero(self):
        assert value_entropy(["x", "x", "x"]) == 0.0

    def test_none_excluded(self):
        assert value_entropy([None, "x", None]) == 0.0

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.2])
        with pytest.raises(ValueError):
            shannon_entropy([1.5, -0.5])

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=30))
    def test_entropy_bounds(self, values):
        h = value_entropy(values)
        assert 0.0 <= h <= math.log(3) + 1e-9

    def test_more_diversity_more_entropy(self):
        assert value_entropy(["a"] * 9 + ["b"]) < value_entropy(["a"] * 5 + ["b"] * 5)
