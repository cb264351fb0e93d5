"""EnCore core: the paper's primary contribution.

The pipeline follows Figure 2 of the paper:

1. :mod:`~repro.core.collector` — gather raw data from a training set of
   configured systems;
2. :mod:`~repro.core.assembler` — parse configuration files to uniform
   key-value pairs, infer a semantic type for every entry
   (:mod:`~repro.core.types`, Table 4) and augment each entry with
   environment attributes (:mod:`~repro.core.augment`, Table 5);
3. :mod:`~repro.core.inference` — template-guided rule learning
   (:mod:`~repro.core.templates`, Table 6) with support / confidence /
   entropy filtering (:mod:`~repro.core.filters`, §5.2);
4. :mod:`~repro.core.detector` — check target systems against the learned
   model: entry-name violations, correlation violations, data-type
   violations and suspicious values, ranked by Inverse Change Frequency
   (§6).

:class:`~repro.core.pipeline.EnCore` is the user-facing facade tying the
steps together; :mod:`~repro.core.customization` implements the
``$$``-section customization file of Figure 6.
"""

from repro.core.types import (
    ConfigType,
    TypeDefinition,
    TypeInferencer,
    TypeRegistry,
    TypedValue,
    default_type_registry,
)
from repro.core.dataset import AssembledSystem, Dataset, PartialDataset
from repro.core.collector import DataCollector, RawCollection
from repro.core.augment import Augmenter
from repro.core.assembler import DataAssembler
from repro.core.templates import RelationKind, RuleTemplate, default_templates
from repro.core.rules import ConcreteRule, RuleSet
from repro.core.filters import FilterDecision, RuleFilterPipeline
from repro.core.inference import RuleInferencer
from repro.core.detector import AnomalyDetector, Warning, WarningKind
from repro.core.report import Report
from repro.core.customization import Customization, parse_customization
from repro.core.pipeline import EnCore, EnCoreConfig, TrainedModel
from repro.core.repair import RepairAction, RepairAdvisor, Suggestion

__all__ = [
    "AnomalyDetector",
    "AssembledSystem",
    "Augmenter",
    "ConcreteRule",
    "ConfigType",
    "Customization",
    "DataAssembler",
    "DataCollector",
    "Dataset",
    "EnCore",
    "EnCoreConfig",
    "FilterDecision",
    "PartialDataset",
    "RawCollection",
    "RepairAction",
    "RepairAdvisor",
    "Suggestion",
    "RelationKind",
    "Report",
    "RuleFilterPipeline",
    "RuleInferencer",
    "RuleSet",
    "RuleTemplate",
    "TrainedModel",
    "TypeDefinition",
    "TypeInferencer",
    "TypeRegistry",
    "TypedValue",
    "Warning",
    "WarningKind",
    "default_templates",
    "default_type_registry",
    "parse_customization",
]
