"""Tests for rule inference (paper §5.1) and rule filtering (§5.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assembler import DataAssembler
from repro.core.dataset import AssembledSystem, Dataset
from repro.core.filters import FilterDecision, RuleFilterPipeline
from repro.core.inference import RuleInferencer
from repro.core.pipeline import EnCore
from repro.core.rules import ConcreteRule
from repro.core.templates import template_by_name
from repro.core.types import ConfigType
from repro.corpus.generator import Ec2CorpusGenerator
from repro.sysmodel.image import ConfigFile, SystemImage


def make_mysql_image(index, owner="mysql", port="3306"):
    """A tiny coherent mysql image for controlled inference tests."""
    image = SystemImage(f"inf-{index:03d}")
    image.accounts.ensure_service_account("mysql", 27)
    datadir = f"/var/lib/mysql{index % 3}"
    image.fs.add_dir(datadir, owner=owner, group=owner, mode=0o700)
    image.add_config_file(
        ConfigFile(
            "mysql", "/etc/my.cnf",
            "[client]\n"
            f"port = {port}\n"
            "[mysqld]\n"
            f"datadir = {datadir}\n"
            "user = mysql\n"
            f"port = {port}\n",
        )
    )
    return image


@pytest.fixture()
def controlled_dataset():
    images = [make_mysql_image(i, port=("3306" if i % 2 else "3307")) for i in range(20)]
    return DataAssembler().assemble_corpus(images)


class TestFilterPipeline:
    def make_rule(self, support=20, valid=20, ha=1.0, hb=1.0):
        return ConcreteRule("less_number", "a", "b", "<", support, valid, ha, hb)

    def test_support_filter(self):
        pipeline = RuleFilterPipeline(training_size=100, min_support_fraction=0.1)
        template = template_by_name("less_number")
        assert pipeline.decide(self.make_rule(support=5, valid=5), template) is FilterDecision.LOW_SUPPORT
        assert pipeline.decide(self.make_rule(support=10, valid=10), template) is FilterDecision.KEPT

    def test_confidence_filter(self):
        pipeline = RuleFilterPipeline(training_size=100)
        template = template_by_name("less_number")
        assert pipeline.decide(self.make_rule(support=20, valid=17), template) is FilterDecision.LOW_CONFIDENCE

    def test_entropy_filter_on_numeric_template(self):
        pipeline = RuleFilterPipeline(training_size=100)
        template = template_by_name("less_number")
        decision = pipeline.decide(self.make_rule(ha=0.1), template)
        assert decision is FilterDecision.LOW_ENTROPY

    def test_entropy_exempt_templates(self):
        pipeline = RuleFilterPipeline(training_size=100)
        ownership = template_by_name("ownership")
        rule = ConcreteRule("ownership", "a", "b", "=>", 20, 20, 0.0, 0.0)
        assert pipeline.decide(rule, ownership) is FilterDecision.KEPT

    def test_entropy_filter_disabled(self):
        pipeline = RuleFilterPipeline(training_size=100, use_entropy=False)
        template = template_by_name("less_number")
        assert pipeline.decide(self.make_rule(ha=0.0), template) is FilterDecision.KEPT

    def test_stats_accounting(self):
        pipeline = RuleFilterPipeline(training_size=100)
        template = template_by_name("less_number")
        pipeline.decide(self.make_rule(), template)
        pipeline.decide(self.make_rule(support=1, valid=1), template)
        pipeline.decide(self.make_rule(ha=0.0), template)
        assert pipeline.stats.candidates == 3
        assert pipeline.stats.kept == 1
        assert pipeline.stats.dropped_support == 1
        assert pipeline.stats.dropped_entropy == 1
        assert len(pipeline.stats.entropy_filtered_rules) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RuleFilterPipeline(training_size=0)
        with pytest.raises(ValueError):
            RuleFilterPipeline(training_size=10, min_confidence=2.0)


class TestRuleInferencer:
    def test_learns_flagship_ownership_rule(self, controlled_dataset):
        """Figure 1(b): datadir => user, the paper's running example."""
        inferencer = RuleInferencer()
        result = inferencer.infer(controlled_dataset)
        keys = {r.key for r in result.rules}
        assert (
            "ownership", "mysql:mysqld/datadir", "mysql:mysqld/user"
        ) in keys

    def test_learns_port_equality(self, controlled_dataset):
        inferencer = RuleInferencer()
        result = inferencer.infer(controlled_dataset)
        keys = {r.key for r in result.rules}
        assert ("equal_same_type", "mysql:client/port", "mysql:mysqld/port") in keys

    def test_candidate_pairs_grow_without_type_restriction(self, controlled_dataset):
        restricted = RuleInferencer(restrict_types=True)
        unrestricted = RuleInferencer(restrict_types=False)
        assert unrestricted.candidate_pair_count(controlled_dataset) > \
            restricted.candidate_pair_count(controlled_dataset)

    def test_rules_meet_thresholds(self, controlled_dataset):
        inferencer = RuleInferencer()
        result = inferencer.infer(controlled_dataset)
        for rule in result.rules:
            assert rule.confidence >= 0.9
            assert rule.support >= 2  # 10% of 20

    def test_pre_entropy_superset(self, controlled_dataset):
        inferencer = RuleInferencer()
        result = inferencer.infer(controlled_dataset)
        kept = {r.key for r in result.rules}
        pre = {r.key for r in result.pre_entropy_rules}
        assert kept <= pre

    def test_symmetric_template_no_reversed_duplicates(self, controlled_dataset):
        result = RuleInferencer().infer(controlled_dataset)
        equal_pairs = {
            (r.attribute_a, r.attribute_b)
            for r in result.rules
            if r.template_name == "equal_same_type"
        }
        for a, b in equal_pairs:
            assert (b, a) not in equal_pairs

    def test_noisy_corpus_drops_confidence(self):
        """One image violating ownership drops, 5 of 20 kills the rule."""
        images = [make_mysql_image(i) for i in range(15)]
        images += [make_mysql_image(15 + i, owner="root") for i in range(5)]
        dataset = DataAssembler().assemble_corpus(images)
        result = RuleInferencer().infer(dataset)
        keys = {r.key for r in result.rules}
        assert ("ownership", "mysql:mysqld/datadir", "mysql:mysqld/user") not in keys

    def test_custom_template_list(self, controlled_dataset):
        only_ownership = [template_by_name("ownership")]
        result = RuleInferencer(templates=only_ownership).infer(controlled_dataset)
        assert all(r.template_name == "ownership" for r in result.rules)


# -- presence-mask evaluation against the per-system loop ----------------------


def oracle_pairs(inferencer, dataset, template):
    """Candidate enumeration as one plain pairwise filter."""
    string_slots = template.type_a is template.type_b is ConfigType.STRING
    for a in inferencer.eligible_attributes(dataset, template.type_a):
        for b in inferencer.eligible_attributes(dataset, template.type_b):
            aug_a, aug_b = dataset.is_augmented(a), dataset.is_augmented(b)
            multi = dataset.is_multi_valued(a) or dataset.is_multi_valued(b)
            type_a = dataset.type_of(a)
            if a == b or (template.symmetric and a > b):
                continue
            if inferencer.restrict_types and string_slots and (
                type_a is not dataset.type_of(b) or type_a.is_trivial
            ):
                continue
            if not template.allow_augmented and (aug_a or aug_b):
                continue
            if template.slot_b_augmented_only and not (aug_b and not aug_a):
                continue
            if template.multiplicity == "multi" and not multi:
                continue
            if template.multiplicity == "single" and multi:
                continue
            yield a, b


def oracle_evaluate(dataset, template, a, b):
    """The per-system loop: visit every row, skip those missing a slot."""
    valid, contributors = 0, []
    for system in dataset:
        verdicts = [
            template.validate(x, y, system)
            for x in system.values_of(a)
            for y in system.values_of(b)
        ]
        applicable = [v for v in verdicts if v is not None]
        if applicable:
            contributors.append(system.image_id)
            valid += any(applicable)
    return len(contributors), valid, tuple(contributors)


def permissive(restrict_types=True):
    """An inferencer whose filters keep every candidate with support, so
    the audit records the contributors of all of them."""
    return RuleInferencer(
        min_support_fraction=0.0, min_confidence=0.0, use_entropy=False,
        restrict_types=restrict_types,
    )


def expected_evidence(inferencer, dataset):
    out = []
    for template in inferencer.templates:
        for a, b in oracle_pairs(inferencer, dataset, template):
            support, valid, contributors = oracle_evaluate(dataset, template, a, b)
            if support:
                out.append(((template.name, a, b), support, valid, contributors))
    return out


def evidence(result):
    """(key, support, valid_count, contributors) per candidate, in order."""
    return [
        (key, p.support, p.valid_count, p.contributing_images)
        for key, p in result.audit.items()
    ]


#: Synthetic columns: name → (type, augmented, value pool).  Pools mix
#: values that validate, violate and make a template inapplicable.
COLUMNS = {
    "app:datadir": (ConfigType.FILE_PATH, False, ("/srv/a", "/srv/b", "/srv/none")),
    "app:logdir": (ConfigType.FILE_PATH, False, ("/srv/a", "/srv/a/log", "/srv/b")),
    "app:subdir": (ConfigType.PARTIAL_FILE_PATH, False, ("a/log", "srv/b")),
    "app:user": (ConfigType.USER_NAME, False, ("mysql", "root", "ghost")),
    "app:group": (ConfigType.GROUP_NAME, False, ("mysql", "root")),
    "app:port": (ConfigType.PORT_NUMBER, False, ("80", "8080")),
    "app:alt_port": (ConfigType.PORT_NUMBER, False, ("80", "8080")),
    "app:low": (ConfigType.NUMBER, False, ("1", "5", "x")),
    "app:high": (ConfigType.NUMBER, False, ("2", "5")),
    "app:buffer": (ConfigType.SIZE, False, ("64M", "1G", "12")),
    "app:cache": (ConfigType.SIZE, False, ("1G", "2K")),
    "app:bind": (ConfigType.IP_ADDRESS, False, ("10.0.0.5", "10.0.0.0", "192.168.1.0")),
    "app:net": (ConfigType.IP_ADDRESS, False, ("10.0.0.0", "192.168.0.0")),
    "app:enabled": (ConfigType.BOOLEAN, False, ("on", "off")),
    "app:datadir.exists": (ConfigType.BOOLEAN, True, ("true", "false")),
    "env:Feature": (ConfigType.BOOLEAN, False, ("yes", "no")),
}

#: A row present in every generated dataset, so each one has an
#: environment-less system, absent cells and repeated attributes.
FIXED_ROW = (False, "root", {
    name: [pool[0], pool[-1]] if index % 2 else []
    for index, (name, (_, _, pool)) in enumerate(COLUMNS.items())
})

row_strategy = st.tuples(
    st.booleans(),
    st.sampled_from(("mysql", "root")),
    st.fixed_dictionaries({
        name: st.lists(st.sampled_from(pool), max_size=2)
        for name, (_, _, pool) in COLUMNS.items()
    }),
)


@st.composite
def small_datasets(draw):
    rows = draw(st.lists(row_strategy, min_size=1, max_size=6))
    rows.insert(draw(st.integers(0, len(rows))), FIXED_ROW)
    systems = []
    for index, (environment, owner, cells) in enumerate(rows):
        image = SystemImage(f"h-{index:02d}")
        image.accounts.ensure_service_account("mysql", 27)
        image.fs.add_dir("/srv/a", owner=owner, group=owner, mode=0o700)
        image.fs.add_dir("/srv/a/log", owner="root", group="root", mode=0o755)
        image.fs.add_dir("/srv/b", owner="mysql", group="mysql", mode=0o750)
        system = AssembledSystem(image, environment_available=environment)
        for name, values in cells.items():
            config_type, augmented, _ = COLUMNS[name]
            for value in values:
                system.set(name, value, config_type, augmented=augmented)
        systems.append(system)
    return Dataset(systems)


class TestPresenceMaskEvaluation:
    """The presence-mask evaluator gives the per-system loop's evidence."""

    @pytest.mark.parametrize("restrict_types", [True, False])
    def test_controlled_dataset_matches_oracle(self, controlled_dataset, restrict_types):
        inferencer = permissive(restrict_types)
        result = inferencer.infer(controlled_dataset)
        assert evidence(result) == expected_evidence(inferencer, controlled_dataset)
        assert set(result.decisions.values()) == {FilterDecision.KEPT}

    @pytest.mark.parametrize("restrict_types", [True, False])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dataset=small_datasets())
    def test_generated_datasets_match_oracle(self, dataset, restrict_types):
        assert any(not s.environment_available for s in dataset)
        assert any(dataset.is_multi_valued(name) for name in COLUMNS)
        assert any(len(s) < len(COLUMNS) for s in dataset)
        inferencer = permissive(restrict_types)
        result = inferencer.infer(dataset)
        assert evidence(result) == expected_evidence(inferencer, dataset)
        assert result.candidate_pairs == sum(
            len(list(oracle_pairs(inferencer, dataset, template)))
            for template in inferencer.templates
        )

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(dataset=small_datasets())
    def test_presence_mask_bits_follow_row_order(self, dataset):
        for attribute in dataset.attributes():
            assert dataset.presence(attribute) == sum(
                1 << i for i, s in enumerate(dataset) if attribute in s
            )
        assert dataset.presence("missing:attr") == 0


class TestImageOrderInvariance:
    """Rules are invariant under image-order permutation (metamorphic)."""

    @staticmethod
    def assert_permutation_invariant(dataset, order):
        permuted = Dataset([dataset.systems[i] for i in order])
        position = {s.image_id: i for i, s in enumerate(permuted)}
        for inferencer in (RuleInferencer(), permissive()):
            base, moved = inferencer.infer(dataset), inferencer.infer(permuted)
            assert [r.key for r in moved.rules] == [r.key for r in base.rules]
            assert [
                (key, p.support, p.valid_count, p.decision)
                for key, p in moved.audit.items()
            ] == [
                (key, p.support, p.valid_count, p.decision)
                for key, p in base.audit.items()
            ]
            for key, p in moved.audit.items():
                assert p.contributing_images == tuple(sorted(
                    base.audit[key].contributing_images, key=position.get
                ))

    def test_reversed_controlled_dataset(self, controlled_dataset):
        self.assert_permutation_invariant(
            controlled_dataset, range(len(controlled_dataset) - 1, -1, -1)
        )

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_permutation(self, data):
        dataset = data.draw(small_datasets())
        order = data.draw(st.permutations(range(len(dataset))))
        self.assert_permutation_invariant(dataset, order)


class TestAttributeRenamingInvariance:
    """Rules are invariant under consistent attribute renaming (metamorphic).

    Every non-``env:`` entry gets a new base name under its own app
    prefix; augmented columns keep their suffix and augmented flag.  The
    new names sort in the reverse order of the old ones, so the pair
    order and the (A, B) orientation of symmetric templates both change.
    """

    @staticmethod
    def renamed(dataset):
        """(renamed dataset, new attribute name → old name)."""
        def base(system, name):
            return name.rsplit(".", 1)[0] if system.is_augmented(name) else name

        bases = sorted({
            base(system, name) for system in dataset for name in system.cells
            if not name.startswith("env:")
        })
        new_base = {
            old: f"{old.split(':', 1)[0]}:renamed{len(bases) - i:05d}"
            for i, old in enumerate(bases)
        }
        original = {}
        systems = []
        for system in dataset:
            copy = AssembledSystem(system.image, system.environment_available)
            for name in system.cells:
                new = name
                if not name.startswith("env:"):
                    old_base = base(system, name)
                    new = new_base[old_base] + name[len(old_base):]
                original[new] = name
                augmented = system.is_augmented(name)
                for typed in system.values_of(name):
                    copy.set(new, typed.value, typed.type, augmented=augmented)
            systems.append(copy)
        return Dataset(systems), original

    @staticmethod
    def rule_set(rules, original):
        out = set()
        for rule in rules:
            a, b = original[rule.attribute_a], original[rule.attribute_b]
            if template_by_name(rule.template_name).symmetric:
                a, b = sorted((a, b))
            out.add((rule.template_name, a, b, rule.relation,
                     rule.support, rule.valid_count))
        return out

    def assert_renaming_invariant(self, dataset):
        renamed, original = self.renamed(dataset)
        assert set(renamed.attributes()).isdisjoint(
            name for name in dataset.attributes() if not name.startswith("env:")
        )
        identity = {name: name for name in dataset.attributes()}
        for inferencer in (RuleInferencer(), permissive()):
            base, moved = inferencer.infer(dataset).rules, inferencer.infer(renamed).rules
            assert len(moved) == len(base)
            assert self.rule_set(moved, original) == self.rule_set(base, identity)

    def test_generated_corpus(self):
        images = Ec2CorpusGenerator(seed=3).generate(40)
        self.assert_renaming_invariant(DataAssembler().assemble_corpus(images))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(dataset=small_datasets())
    def test_generated_datasets(self, dataset):
        self.assert_renaming_invariant(dataset)


class TestMergedDatasetInference:
    """Merged datasets carry presence masks for the merged row order."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_merge_equals_concatenation(self, data):
        systems = data.draw(small_datasets()).systems
        cut = data.draw(st.integers(1, len(systems) - 1))
        a, b = Dataset(systems[:cut]), Dataset(systems[cut:])
        merged, whole = a.merge(b), Dataset(a.systems + b.systems)
        for attribute in whole.attributes():
            assert merged.presence(attribute) == whole.presence(attribute)
        inferencer = permissive()
        assert evidence(inferencer.infer(merged)) == evidence(inferencer.infer(whole))

    def test_train_more_equals_full_train(self):
        images = [
            make_mysql_image(i, port=("3306" if i % 3 else "3307")) for i in range(16)
        ]
        encore = EnCore()
        encore.train(images[:5])
        incremental = encore.train_more(images[5:])
        full = EnCore().train(images)
        assert evidence(incremental.inference) == evidence(full.inference)
        assert incremental.rules.to_json() == full.rules.to_json()
