"""Rule templates (paper §5.1, Table 6, Figure 4).

A template captures a *pattern* of correlation among configuration entry
types — not a concrete correlation.  It has:

* two typed slots ``A`` and ``B`` ("the capitalized letter and the type in
  square brackets");
* a relation (equality, ordering, ownership, concatenation, ...);
* a validation method that decides, for one assembled system, whether a
  concrete instantiation holds (``True``), is violated (``False``), or is
  not applicable in that system (``None`` — e.g. an entry is absent).

The 11 predefined templates of Table 6 are provided by
:func:`default_templates`; users add more via the customization file or by
constructing :class:`RuleTemplate` directly.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from repro.core.dataset import AssembledSystem
from repro.core.types import ConfigType, TypedValue

#: Validator signature: (value_a, value_b, system) -> holds / violated / n.a.
Validator = Callable[[TypedValue, TypedValue, AssembledSystem], Optional[bool]]


class RelationKind(str, Enum):
    """The relation operators appearing in Table 6."""

    EQUAL = "=="
    ONE_INSTANCE_EQUAL = "="
    IMPLIES = "->"
    SUBNET = "<subnet"
    CONCAT_EXISTS = "+=>"
    SUBSTRING = "<substr"
    MEMBER_OF = "<member"
    NOT_ACCESSIBLE = "!="
    OWNS = "=>"
    LESS_NUMBER = "<num"
    LESS_SIZE = "<size"


@dataclass(frozen=True)
class RuleTemplate:
    """One correlation pattern over two typed slots.

    ``symmetric`` templates (plain equality) should not generate both
    (A,B) and (B,A) instantiations; asymmetric ones must try both orders.
    ``entropy_filtered`` marks templates subject to the entropy filter —
    the paper found entropy "mostly effective against ... numeric rules, as
    well as binomial association rules" (§7.3), while environment-validated
    relations (ownership, accessibility) involve attributes that are
    legitimately stable.
    """

    name: str
    type_a: ConfigType
    type_b: ConfigType
    relation: RelationKind
    validator: Validator
    description: str = ""
    symmetric: bool = False
    entropy_filtered: bool = True
    #: When True, slot B may also bind augmented/env attributes; when
    #: False, both slots bind only original config entries.
    allow_augmented: bool = True
    #: Occurrence constraint: ``"single"`` binds only attributes that are
    #: single-occurrence everywhere, ``"multi"`` requires at least one slot
    #: bound to a repeating attribute (the ``[A] = [B]`` template of
    #: Table 6), ``"any"`` imposes nothing.
    multiplicity: str = "any"
    #: When True, slot B binds only augmented attributes — the "extended
    #: boolean" template correlates a boolean *entry* with a boolean
    #: *extended attribute* (Table 6 row 3), never two plain entries.
    slot_b_augmented_only: bool = False

    def spec(self) -> str:
        """Human-readable template spec, e.g. ``[A:FilePath] => [B:UserName]``."""
        return (
            f"[A:{self.type_a.value}] {self.relation.value} [B:{self.type_b.value}]"
        )

    def validate(
        self, a: TypedValue, b: TypedValue, system: AssembledSystem
    ) -> Optional[bool]:
        """Run the validation method on one pair of values in one system."""
        return self.validator(a, b, system)


# --------------------------------------------------------------------------
# Validation methods for the predefined templates.
# --------------------------------------------------------------------------

def _v_equal(a: TypedValue, b: TypedValue, system: AssembledSystem) -> Optional[bool]:
    return a.value == b.value


def _v_one_instance_equal(
    a: TypedValue, b: TypedValue, system: AssembledSystem
) -> Optional[bool]:
    # "One instance of an entry should equal at least one instance of
    # another" — the per-occurrence comparison happens at the attribute
    # level in the inferencer; at the value level this degenerates to
    # equality, kept separate so multi-occurrence attributes bind here.
    return a.value == b.value


def _v_implies(a: TypedValue, b: TypedValue, system: AssembledSystem) -> Optional[bool]:
    truthy = {"on", "true", "yes", "1", "enabled"}
    a_on = a.value.strip().lower() in truthy
    if not a_on:
        return None  # antecedent false: rule not exercised in this system
    return b.value.strip().lower() in truthy


def _v_subnet(a: TypedValue, b: TypedValue, system: AssembledSystem) -> Optional[bool]:
    # "An entry of IPAddress is a subnet of another entry": interpret
    # B as a network prefix that A must fall under (dotted-prefix check;
    # full CIDR arithmetic is overkill for config strings like 10.0.0.0).
    if ":" in a.value or ":" in b.value:
        return None
    b_octets = b.value.split(".")
    while b_octets and b_octets[-1] in ("0", ""):
        b_octets.pop()
    a_octets = a.value.split(".")
    if not b_octets or len(b_octets) >= 4:
        return None  # no prefix, or a full host address: not a subnet
    return a_octets[: len(b_octets)] == b_octets


def _v_concat_exists(
    a: TypedValue, b: TypedValue, system: AssembledSystem
) -> Optional[bool]:
    if not system.environment_available:
        return None
    joined = posixpath.normpath(posixpath.join(a.value, b.value))
    return system.image.fs.exists(joined)


def _v_substring(a: TypedValue, b: TypedValue, system: AssembledSystem) -> Optional[bool]:
    if a.value == b.value:
        return None  # identity is the equality template's business
    return a.value in b.value


def _v_member_of(a: TypedValue, b: TypedValue, system: AssembledSystem) -> Optional[bool]:
    if not system.environment_available:
        return None
    accounts = system.image.accounts
    if not accounts.has_user(a.value) or not accounts.has_group(b.value):
        return False
    return accounts.is_member(a.value, b.value)


def _v_not_accessible(
    a: TypedValue, b: TypedValue, system: AssembledSystem
) -> Optional[bool]:
    if not system.environment_available:
        return None
    meta = system.image.fs.get(a.value)
    if meta is None:
        return None
    groups = system.image.accounts.groups_of(b.value)
    return not meta.readable_by(b.value, groups)


def _v_owns(a: TypedValue, b: TypedValue, system: AssembledSystem) -> Optional[bool]:
    if not system.environment_available:
        return None
    meta = system.image.fs.get(a.value)
    if meta is None:
        return None
    return meta.owner == b.value


def _v_less_number(
    a: TypedValue, b: TypedValue, system: AssembledSystem
) -> Optional[bool]:
    left, right = a.number, b.number
    if left is None or right is None:
        return None
    return left < right


def _v_less_size(a: TypedValue, b: TypedValue, system: AssembledSystem) -> Optional[bool]:
    left, right = a.size_bytes, b.size_bytes
    if left is None or right is None:
        return None
    return left <= right


# --------------------------------------------------------------------------
# The 11 predefined templates (Table 6, top to bottom).
# --------------------------------------------------------------------------

def default_templates() -> Sequence[RuleTemplate]:
    """The predefined templates the paper's evaluation is based on."""
    return (
        RuleTemplate(
            "equal_same_type", ConfigType.STRING, ConfigType.STRING,
            RelationKind.EQUAL, _v_equal,
            "An entry should be equal to another entry of the same type",
            symmetric=True, multiplicity="single", allow_augmented=False,
        ),
        RuleTemplate(
            "one_instance_equal", ConfigType.STRING, ConfigType.STRING,
            RelationKind.ONE_INSTANCE_EQUAL, _v_one_instance_equal,
            "One instance of an entry should equal at least one instance "
            "of another entry of the same type",
            symmetric=True, multiplicity="multi", allow_augmented=False,
        ),
        RuleTemplate(
            "extended_boolean", ConfigType.BOOLEAN, ConfigType.BOOLEAN,
            RelationKind.IMPLIES, _v_implies,
            "A boolean entry implies a boolean-valued extended attribute",
            slot_b_augmented_only=True,
        ),
        RuleTemplate(
            "ip_subnet", ConfigType.IP_ADDRESS, ConfigType.IP_ADDRESS,
            RelationKind.SUBNET, _v_subnet,
            "An IPAddress entry is within the subnet of another entry",
            allow_augmented=False,
        ),
        RuleTemplate(
            "concat_path", ConfigType.FILE_PATH, ConfigType.PARTIAL_FILE_PATH,
            RelationKind.CONCAT_EXISTS, _v_concat_exists,
            "Concatenating a file path entry with a partial file path "
            "entry forms an existing full file path",
            entropy_filtered=False, allow_augmented=False,
        ),
        RuleTemplate(
            "substring", ConfigType.FILE_PATH, ConfigType.FILE_PATH,
            RelationKind.SUBSTRING, _v_substring,
            "An entry is a substring (path prefix) of another entry",
            entropy_filtered=False, allow_augmented=False,
        ),
        RuleTemplate(
            "user_in_group", ConfigType.USER_NAME, ConfigType.GROUP_NAME,
            RelationKind.MEMBER_OF, _v_member_of,
            "The user name belongs to the group name",
            entropy_filtered=False, allow_augmented=False,
        ),
        RuleTemplate(
            "not_accessible", ConfigType.FILE_PATH, ConfigType.USER_NAME,
            RelationKind.NOT_ACCESSIBLE, _v_not_accessible,
            "The file path is not accessible by the user in the entry",
            entropy_filtered=False, allow_augmented=False,
        ),
        RuleTemplate(
            "ownership", ConfigType.FILE_PATH, ConfigType.USER_NAME,
            RelationKind.OWNS, _v_owns,
            "The UserName entry is the owner of the FilePath entry",
            entropy_filtered=False, allow_augmented=False,
        ),
        RuleTemplate(
            "less_number", ConfigType.NUMBER, ConfigType.NUMBER,
            RelationKind.LESS_NUMBER, _v_less_number,
            "The number in one entry is less than that of the other",
            allow_augmented=False,
        ),
        RuleTemplate(
            "less_size", ConfigType.SIZE, ConfigType.SIZE,
            RelationKind.LESS_SIZE, _v_less_size,
            "The size in one entry is smaller than that of the other",
            allow_augmented=False,
        ),
    )


def template_by_name(name: str, templates: Optional[Sequence[RuleTemplate]] = None) -> RuleTemplate:
    """Look up a template by name (raises :class:`KeyError` when unknown)."""
    pool = templates if templates is not None else default_templates()
    for template in pool:
        if template.name == name:
            return template
    raise KeyError(f"unknown template {name!r}")
