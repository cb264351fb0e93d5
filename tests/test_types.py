"""Tests for the semantic type system (paper Table 4, §4.2)."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.core.assembler import DataAssembler
from repro.core.detector import AnomalyDetector
from repro.core.rules import RuleSet
from repro.core.types import (
    ConfigType,
    TypeDefinition,
    TypeInferencer,
    TypeRegistry,
    parse_number,
    parse_size_bytes,
)
from repro.corpus.generator import Ec2CorpusGenerator
from repro.parsers.registry import default_registry
from repro.sysmodel.image import SystemImage


@pytest.fixture()
def env_image():
    image = SystemImage("types-img")
    image.accounts.ensure_service_account("mysql", 27)
    image.fs.add_dir("/var/lib/mysql", owner="mysql")
    image.fs.add_file("/etc/php.ini")
    image.fs.add_file("/etc/httpd/modules/mod_ssl.so")
    return image


@pytest.fixture()
def inferencer():
    return TypeInferencer()


class TestParsers:
    @pytest.mark.parametrize(
        "literal,expected",
        [
            ("0", 0),
            ("1024", 1024),
            ("8K", 8 << 10),
            ("64M", 64 << 20),
            ("2G", 2 << 30),
            ("1T", 1 << 40),
            ("64m", 64 << 20),
            ("16MB", 16 << 20),
        ],
    )
    def test_parse_size(self, literal, expected):
        assert parse_size_bytes(literal) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "12X", "-5M", "1.5G"])
    def test_parse_size_rejects(self, bad):
        assert parse_size_bytes(bad) is None

    def test_parse_size_kelvin_sign(self):
        # The case-blind [KMGT] admits U+212A KELVIN SIGN; it used to
        # raise KeyError out of type inference.
        assert parse_size_bytes("1\u212a") == 1 << 10
        assert TypeInferencer().infer("1\u212a") is ConfigType.SIZE

    def test_parse_number(self):
        assert parse_number("12") == 12.0
        assert parse_number("-3.5") == -3.5
        assert parse_number("x") is None


class TestSyntacticInference:
    """Step 1 only — no environment."""

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("http://example.com/x", ConfigType.URL),
            ("10.0.0.1", ConfigType.IP_ADDRESS),
            ("::1", ConfigType.IP_ADDRESS),
            ("text/html", ConfigType.MIME_TYPE),
            ("64M", ConfigType.SIZE),
            ("on", ConfigType.BOOLEAN),
            ("Off", ConfigType.BOOLEAN),
            ("0", ConfigType.BOOLEAN),  # the deliberate Table 11 confusion
            ("12345678", ConfigType.NUMBER),
            ("", ConfigType.STRING),
        ],
    )
    def test_no_environment(self, inferencer, value, expected):
        assert inferencer.infer(value, None) is expected

    def test_syntactic_only_path(self, inferencer):
        assert inferencer.infer_syntactic_only("/no/such/path") is ConfigType.FILE_PATH


class TestSemanticVerification:
    """Step 2 — environment-checked."""

    def test_existing_path_is_filepath(self, inferencer, env_image):
        assert inferencer.infer("/var/lib/mysql", env_image) is ConfigType.FILE_PATH

    def test_missing_path_demoted(self, inferencer, env_image):
        # Syntactically a path, but absent from the filesystem.
        assert inferencer.infer("/does/not/exist", env_image) is ConfigType.STRING

    def test_glob_is_not_a_path(self, inferencer, env_image):
        assert inferencer.infer("/var/lib/*", env_image) is ConfigType.STRING

    def test_known_user(self, inferencer, env_image):
        assert inferencer.infer("mysql", env_image) is ConfigType.USER_NAME

    def test_unknown_user_demoted(self, inferencer, env_image):
        assert inferencer.infer("ghostuser", env_image) is ConfigType.STRING

    def test_registered_port(self, inferencer, env_image):
        assert inferencer.infer("3306", env_image) is ConfigType.PORT_NUMBER

    def test_out_of_range_port(self, inferencer, env_image):
        assert inferencer.infer("99999", env_image) is ConfigType.NUMBER

    def test_partial_path_verified_against_fs(self, inferencer, env_image):
        assert inferencer.infer("modules/mod_ssl.so", env_image) is ConfigType.PARTIAL_FILE_PATH

    def test_partial_path_unverified(self, inferencer, env_image):
        assert inferencer.infer("modules/none.so", env_image) is not ConfigType.PARTIAL_FILE_PATH

    def test_filename_verified(self, inferencer, env_image):
        assert inferencer.infer("php.ini", env_image) is ConfigType.FILE_NAME

    def test_charset(self, inferencer, env_image):
        assert inferencer.infer("utf8", env_image) is ConfigType.CHARSET

    def test_language(self, inferencer, env_image):
        assert inferencer.infer("de", env_image) is ConfigType.LANGUAGE

    def test_bad_ipv4_octets(self, inferencer, env_image):
        assert inferencer.infer("999.1.1.1", env_image) is not ConfigType.IP_ADDRESS


class TestVerify:
    def test_verify_respects_environment(self, inferencer, env_image):
        assert inferencer.verify("/var/lib/mysql", ConfigType.FILE_PATH, env_image)
        assert not inferencer.verify("/missing", ConfigType.FILE_PATH, env_image)

    def test_trivial_types_always_pass(self, inferencer, env_image):
        assert inferencer.verify("anything", ConfigType.STRING, env_image)
        assert inferencer.verify("anything", ConfigType.NUMBER, env_image)

    def test_permission_type(self, inferencer):
        assert inferencer.verify("644", ConfigType.PERMISSION, None)
        assert inferencer.verify("0750", ConfigType.PERMISSION, None)
        assert not inferencer.verify("999", ConfigType.PERMISSION, None)

    def test_enum_always_passes(self, inferencer):
        assert inferencer.verify("dir", ConfigType.ENUM, None)


class TestCustomTypes:
    def test_custom_registered_first(self, env_image):
        registry = TypeRegistry()
        registry.register(
            TypeDefinition(
                ConfigType.URL,  # reuse the carrier, custom matcher
                syntactic=lambda v: v.startswith("custom:"),
                description="custom scheme",
            )
        )
        inferencer = TypeInferencer(registry)
        assert inferencer.infer("custom:abc", env_image) is ConfigType.URL

    def test_definition_for(self):
        registry = TypeRegistry()
        assert registry.definition_for(ConfigType.FILE_PATH) is not None
        assert registry.definition_for(ConfigType.ENUM) is None


@given(st.text(max_size=30))
def test_inference_total_function(value):
    """Inference never raises, whatever the value looks like."""
    inferencer = TypeInferencer()
    result = inferencer.infer(value, None)
    assert isinstance(result, ConfigType)


@given(st.integers(min_value=0, max_value=10**7), st.sampled_from(["K", "M", "G", "T"]))
def test_size_parse_format_consistency(number, unit):
    from repro.corpus.generator import format_size

    literal = f"{number}{unit}"
    parsed = parse_size_bytes(literal)
    assert parsed is not None
    # format_size returns the shortest exact representation; reparsing it
    # must give the same byte count.
    assert parse_size_bytes(format_size(parsed)) == parsed


# --------------------------------------------------------------------------
# Oracles: the first-character dispatch against the per-definition loop.
# --------------------------------------------------------------------------

def _reference_infer(registry, value, image):
    """Inference as one loop over every definition, in priority order."""
    value = value.strip()
    if not value:
        return ConfigType.STRING
    for definition in registry.definitions():
        if definition.syntactic(value) and definition.semantic(value, image):
            return definition.type
    if re.match(r"^-?\d+(\.\d+)?$", value):
        return ConfigType.NUMBER
    return ConfigType.STRING


def _reference_syntactic(registry, value):
    value = value.strip()
    if not value:
        return ConfigType.STRING
    for definition in registry.definitions():
        if definition.syntactic(value):
            return definition.type
    return ConfigType.STRING


ADVERSARIAL = [
    "", " /etc ", "0", "1", "-1", "64M", "::1", "a/b", "text/html",
    "ftp://x", "_x", "١٢", "é.conf", "fe80::1", "a b", "/a b", "/", "Off\t1",
    "2x/y", "1.conf", "x-y.z", "1\u212a",
]


def _corpus_values(seed):
    """(value, image) for every parsed config entry of a seed's training
    corpus and of its wild targets (the layer benchmark's pairing)."""
    parsers = default_registry()
    images = Ec2CorpusGenerator(seed).generate(100)
    images += Ec2CorpusGenerator(seed + 1).generate_wild(100)[0]
    out = []
    for image in images:
        for config in image.config_files():
            for entry in parsers.parse(config.app, config.text, config.path):
                out.append((entry.value, image))
    return out


def _assert_agrees(inferencer, pairs):
    registry = inferencer.registry
    for value, image in pairs:
        expected = _reference_infer(registry, value, image)
        assert inferencer.infer(value, image) is expected, (value, image)
    for value in {value for value, _ in pairs}:
        assert inferencer.infer(value, None) is _reference_infer(registry, value, None), value
        expected = _reference_syntactic(registry, value)
        assert inferencer.infer_syntactic_only(value) is expected, value
        if expected is ConfigType.FILE_PATH:
            assert inferencer.may_be_file_path(value), value


class TestDispatchOracle:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_corpus_values(self, seed):
        inferencer = TypeInferencer()
        assert inferencer.registry.predefined_only
        pairs = _corpus_values(seed)
        assert len(pairs) > 10000
        _assert_agrees(inferencer, pairs)

    def test_adversarial_values(self, env_image):
        pairs = [(value, image) for value in ADVERSARIAL
                 for image in (env_image, None)]
        _assert_agrees(TypeInferencer(), pairs)

    def test_custom_type_shadowing_a_predefined_one(self, env_image):
        registry = TypeRegistry()
        registry.register(
            TypeDefinition(
                ConfigType.USER_NAME,
                syntactic=lambda v: v.strip().startswith(("svc_", "/")),
                description="service accounts and paths, as users",
            )
        )
        inferencer = TypeInferencer(registry)
        assert not registry.predefined_only
        assert registry.definition_for(ConfigType.USER_NAME).description.startswith(
            "service")
        values = ADVERSARIAL + ["svc_web", "/var/lib/mysql", "mysql", "3306"]
        pairs = [(value, image) for value in values for image in (env_image, None)]
        _assert_agrees(inferencer, pairs + _corpus_values(3)[:3000])
        assert inferencer.infer("/var/lib/mysql", env_image) is ConfigType.USER_NAME
        assert inferencer.may_be_file_path("not/a/path")

    def test_registry_from_other_definitions_falls_back(self):
        registry = TypeRegistry([d for d in TypeRegistry().definitions()
                                 if d.type is not ConfigType.BOOLEAN])
        assert not registry.predefined_only
        assert TypeInferencer(registry).infer("0") is ConfigType.NUMBER


class TestCheckThreeOracle:
    """Check 3 skips ``verify`` only where it would have passed."""

    @pytest.fixture(scope="class")
    def checked(self, trained_encore):
        targets = Ec2CorpusGenerator(seed=101).generate_wild(40)[0]
        rows = [trained_encore.assembler.assemble(t) for t in targets]
        model = trained_encore.model
        detector = AnomalyDetector(
            model.dataset, model.rules,
            inferencer=trained_encore.assembler.inferencer,
        )
        return detector, rows

    def test_skipped_cells_verify(self, checked):
        detector, rows = checked
        inferencer = detector.inferencer
        assert inferencer.registry.predefined_only
        skipped = 0
        for row in rows:
            context = row.image if row.environment_available else None
            for attribute in row.attributes():
                stats = detector.dataset.stats(attribute)
                if (stats is None or stats.type.is_trivial
                        or stats.type_agreement < 0.9
                        or row.is_augmented(attribute)):
                    continue
                typed = row.get(attribute)
                if typed.type is stats.type:
                    skipped += 1
                    assert inferencer.verify(typed.value, stats.type, context), (
                        row.image_id, attribute, typed.value)
        assert skipped > 1000

    def test_same_warnings_as_verifying_every_cell(self, checked):
        detector, rows = checked
        registry = TypeRegistry()
        registry.predefined_only = False  # the loop path: no trust, no dispatch
        verifying = AnomalyDetector(
            detector.dataset, detector.rules, inferencer=TypeInferencer(registry)
        )
        warned = 0
        for row in rows:
            expected = verifying.check_types(row)
            assert detector.check_types(row) == expected
            warned += len(expected)
        assert warned > 0

    def test_augmented_cells_still_verify(self, mysql_image):
        # The .owner column is typed by augmentation, never inferred: an
        # owner missing from /etc/passwd is check 3's to catch.
        assembler = DataAssembler()
        dataset = assembler.assemble_corpus(
            [mysql_image.copy(f"mysql-{index}") for index in range(3)]
        )
        detector = AnomalyDetector(dataset, RuleSet(), inferencer=assembler.inferencer)
        target = mysql_image.copy("ghost-owned")
        target.fs.chown("/var/lib/mysql", owner="ghost")
        row = assembler.assemble(target)
        assert row.get("mysql:mysqld/datadir.owner").type is ConfigType.USER_NAME
        flagged = [w.attribute for w in detector.check_types(row)]
        assert flagged == ["mysql:mysqld/datadir.owner"]

    def test_custom_type_shadowing_disables_the_shortcut(self, mysql_image):
        # A custom UserName matcher shadows the predefined one for verify,
        # while infer still reaches the predefined one for "mysql".
        registry = TypeRegistry()
        registry.register(
            TypeDefinition(ConfigType.USER_NAME,
                           syntactic=lambda v: v.strip().startswith("svc_"))
        )
        assembler = DataAssembler(type_registry=registry)
        dataset = assembler.assemble_corpus(
            [mysql_image.copy(f"mysql-{index}") for index in range(3)]
        )
        stats = dataset.stats("mysql:mysqld/user")
        assert stats.type is ConfigType.USER_NAME and stats.type_agreement == 1.0
        detector = AnomalyDetector(dataset, RuleSet(), inferencer=assembler.inferencer)
        target = assembler.assemble(mysql_image)
        assert target.get("mysql:mysqld/user").type is ConfigType.USER_NAME
        flagged = [w.attribute for w in detector.check_types(target)]
        assert "mysql:mysqld/user" in flagged
