"""Cross-module property-based tests on pipeline invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.assembler import DataAssembler
from repro.core.filters import FilterDecision, RuleFilterPipeline
from repro.core.inference import RuleInferencer
from repro.core.rules import ConcreteRule
from repro.core.templates import default_templates, template_by_name
from repro.corpus.generator import Ec2CorpusGenerator
from repro.parsers.registry import default_registry


# -- filter monotonicity -------------------------------------------------------

rule_strategy = st.builds(
    ConcreteRule,
    template_name=st.just("less_number"),
    attribute_a=st.just("a"),
    attribute_b=st.just("b"),
    relation=st.just("<"),
    support=st.integers(min_value=0, max_value=100),
    valid_count=st.just(0),
    entropy_a=st.floats(min_value=0, max_value=3),
    entropy_b=st.floats(min_value=0, max_value=3),
).map(
    lambda r: ConcreteRule(
        r.template_name, r.attribute_a, r.attribute_b, r.relation,
        r.support, r.support, r.entropy_a, r.entropy_b,
    )
)


@given(rule_strategy)
def test_entropy_filter_only_shrinks(rule):
    """Disabling the entropy filter can only keep more rules."""
    template = template_by_name("less_number")
    with_filter = RuleFilterPipeline(training_size=50, use_entropy=True)
    without_filter = RuleFilterPipeline(training_size=50, use_entropy=False)
    kept_with = with_filter.decide(rule, template) is FilterDecision.KEPT
    kept_without = without_filter.decide(rule, template) is FilterDecision.KEPT
    assert not (kept_with and not kept_without)


# -- corpus / parser round-trips ----------------------------------------------

@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=9))
def test_render_parse_render_stable(index, seed):
    """Parsing a rendered config and re-rendering is a fixed point at the
    entry level: names/values survive a parse round trip."""
    image = Ec2CorpusGenerator(seed=seed).generate_one(index)
    registry = default_registry()
    for config in image.config_files():
        entries = registry.parse(config.app, config.text)
        reparsed = registry.parse(config.app, config.text)
        assert [(e.name, e.value) for e in entries] == [
            (e.name, e.value) for e in reparsed
        ]
        assert all(e.app == config.app for e in entries)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_assembly_deterministic(index):
    image = Ec2CorpusGenerator(seed=4).generate_one(index)
    assembler = DataAssembler()
    first = assembler.assemble(image).as_row()
    second = assembler.assemble(image).as_row()
    assert first == second


# -- inference invariants --------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_dataset():
    images = Ec2CorpusGenerator(seed=77, apps=("mysql",)).generate(20)
    return DataAssembler().assemble_corpus(images)


def test_rules_never_reference_unknown_attributes(tiny_dataset):
    result = RuleInferencer().infer(tiny_dataset)
    universe = set(tiny_dataset.attributes())
    for rule in result.rules:
        assert rule.attribute_a in universe
        assert rule.attribute_b in universe


def test_rules_respect_template_types(tiny_dataset):
    from repro.core.types import ConfigType

    templates = {t.name: t for t in default_templates()}
    result = RuleInferencer().infer(tiny_dataset)
    for rule in result.rules:
        template = templates[rule.template_name]
        if template.type_a is not ConfigType.STRING:
            assert tiny_dataset.type_of(rule.attribute_a) is template.type_a
        if template.type_b is not ConfigType.STRING:
            assert tiny_dataset.type_of(rule.attribute_b) is template.type_b


def test_tighter_confidence_yields_subset(tiny_dataset):
    loose = RuleInferencer(min_confidence=0.8).infer(tiny_dataset)
    strict = RuleInferencer(min_confidence=0.95).infer(tiny_dataset)
    loose_keys = {r.key for r in loose.rules}
    strict_keys = {r.key for r in strict.rules}
    assert strict_keys <= loose_keys


def test_higher_support_yields_subset(tiny_dataset):
    low = RuleInferencer(min_support_fraction=0.05).infer(tiny_dataset)
    high = RuleInferencer(min_support_fraction=0.5).infer(tiny_dataset)
    assert {r.key for r in high.rules} <= {r.key for r in low.rules}


def test_inference_deterministic(tiny_dataset):
    first = RuleInferencer().infer(tiny_dataset)
    second = RuleInferencer().infer(tiny_dataset)
    assert [r.key for r in first.rules] == [r.key for r in second.rules]


# -- detection invariants ----------------------------------------------------------

def test_training_members_self_check_consistent(trained_encore, small_corpus):
    """Checking a training member reports only warnings the training data
    itself can support: rule violations below full confidence, and
    value/type deviations on columns where training genuinely disagreed
    (a noisy member is anomalous against its own cohort — the
    PeerPressure premise).  Never entry-name violations."""
    from repro.core.detector import WarningKind

    dataset = trained_encore.model.dataset
    for image in small_corpus[:5]:
        report = trained_encore.check(image)
        for warning in report.warnings:
            assert warning.kind is not WarningKind.ENTRY_NAME
            if warning.kind is WarningKind.CORRELATION:
                assert warning.rule.confidence < 1.0
            elif warning.kind is WarningKind.DATA_TYPE:
                stats = dataset.stats(warning.attribute)
                assert stats is not None and stats.type_agreement < 1.0
            elif warning.kind is WarningKind.SUSPICIOUS_VALUE:
                # its own value is in training, so it can never be unseen
                stats = dataset.stats(warning.attribute)
                assert stats is not None and stats.seen(warning.value) is False


def test_check_does_not_mutate_target(trained_encore, held_out_image):
    before = held_out_image.fs.file_list()
    text_before = held_out_image.config_file("mysql").text
    trained_encore.check(held_out_image)
    assert held_out_image.fs.file_list() == before
    assert held_out_image.config_file("mysql").text == text_before


def test_report_deterministic(trained_encore, held_out_image):
    first = trained_encore.check(held_out_image)
    second = trained_encore.check(held_out_image)
    assert [str(w) for w in first.warnings] == [str(w) for w in second.warnings]
