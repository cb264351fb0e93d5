"""The per-template table: completeness, and pinned mutants and repairs.

The digests below were recorded on 200-image models of seeds 3 and 11,
with the 201st image of each corpus as the seed.  Each mutant
contributes its rule key, mutation kind, description and the sha256 of
its snapshot.  The suggestion digest covers every suggestion for every
mutant's report, then a correlation repair for every learned rule's
attribute pair under every template name (the 11 predefined ones and a
custom one) against the seed's own row, so templates the models never
learn are pinned too.  Each suggestion contributes its action,
attribute, proposal, confidence and rationale.  A change to any break or repair, or to the config-text edit
beneath them, moves a digest.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.detector import Warning, WarningKind
from repro.core.pipeline import EnCore
from repro.core.repair import TEMPLATE_TABLE, RepairAdvisor
from repro.core.templates import default_templates
from repro.corpus.generator import Ec2CorpusGenerator
from repro.sysmodel.snapshot import image_to_dict
from repro.testing.rulegen import RuleGuidedTestGenerator

PINNED = {
    3: ("5b2d74e8fa06385fa7486735a79d9358d88830c3e3fd83c9e234ca7c96da129d",
        "694d31ad71ca4a72b0441339bfa9487ea7678d12a405fdcd52cba3d1a776e006"),
    11: ("6b2d22046cb27dd9295829fb7f1c661da1ff1c852cd066841a7e52ed38e88360",
         "877b7f93c243d1b97c18d3a038b3c5523818c81d911c728768a95dd76a5bd014"),
}


def _digests(seed):
    images = Ec2CorpusGenerator(seed=seed).generate(201)
    encore = EnCore()
    encore.train(images[:200])
    seed_image = images[200]
    target = encore.assembler.assemble(seed_image)
    tests = RuleGuidedTestGenerator(encore.model).generate(seed_image, target)
    mutants = hashlib.sha256()
    suggestions = hashlib.sha256()
    for test in tests:
        snapshot = json.dumps(image_to_dict(test.image), sort_keys=True)
        mutants.update(json.dumps([
            list(test.rule.key), test.mutation_kind, test.description,
            hashlib.sha256(snapshot.encode()).hexdigest(),
        ]).encode() + b"\n")
    proposed = [s for test in tests for s in encore.suggest(test.image)[1]]
    advisor = RepairAdvisor(encore.model.dataset)
    names = [t.name for t in default_templates()] + ["custom_relation"]
    for rule in encore.model.rules:
        for name in names:
            relabelled = dataclasses.replace(rule, template_name=name)
            warning = Warning(WarningKind.CORRELATION, rule.attribute_a, "",
                              0.0, rule=relabelled)
            proposed.append(advisor.suggest_one(warning, target))
    for s in filter(None, proposed):
        suggestions.update(json.dumps([
            s.action.value, s.attribute, s.proposal, s.confidence,
            s.rationale,
        ]).encode() + b"\n")
    return len(tests), mutants.hexdigest(), suggestions.hexdigest()


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_mutants_and_suggestions_are_pinned(seed):
    count, mutants, suggestions = _digests(seed)
    assert count > 100
    assert (mutants, suggestions) == PINNED[seed]


def test_every_predefined_template_has_an_entry():
    assert set(TEMPLATE_TABLE) == {t.name for t in default_templates()}


def test_every_entry_breaks_and_repairs_or_says_why_not():
    for name, entry in TEMPLATE_TABLE.items():
        complete = entry.break_ is not None and entry.repair is not None
        assert complete != bool(entry.manual), name
