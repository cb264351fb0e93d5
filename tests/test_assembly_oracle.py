"""One-pass assembly against a per-entry reference (paper §4.1).

``DataAssembler.assemble`` types and augments each distinct value of an
image once and lists directories from one per-call index.  These tests
hold it to the plain per-entry assembly it replaces: every entry typed
and augmented on its own, every listing a :meth:`FileSystem.children`
scan.  CI also runs this file under two hash seeds, so row order cannot
come to depend on the hash seed.
"""

import copy

import pytest

from repro.core.assembler import DataAssembler
from repro.core.augment import Augmenter
from repro.core.dataset import AssembledSystem
from repro.core.types import ConfigType, TypedValue
from repro.corpus.generator import Ec2CorpusGenerator
from repro.sysmodel.filesystem import DirectoryIndex


def _custom_augmenter() -> Augmenter:
    augmenter = Augmenter()
    augmenter.register(
        ConfigType.FILE_PATH, "depth", ConfigType.NUMBER,
        lambda value, image: str(value.rstrip("/").count("/")),
    )
    augmenter.register(
        ConfigType.USER_NAME, "home", ConfigType.FILE_PATH,
        lambda value, image: (
            image.accounts.user(value).home if image.accounts.has_user(value) else None
        ),
    )
    return augmenter


def reference_assembly(assembler: DataAssembler, image) -> AssembledSystem:
    """Type and augment every entry on its own, as assembly once did."""
    system = AssembledSystem(image, environment_available=assembler.augment_environment)
    inferencer = assembler.inferencer
    env = image if assembler.augment_environment else None
    for config in image.config_files():
        for entry in assembler.parsers.parse(config.app, config.text, config.path):
            config_type = inferencer.infer(entry.value, env)
            attribute = entry.qualified_name
            system.set(attribute, TypedValue(entry.value, config_type))
            if env is None:
                continue
            augment_type = config_type
            if (config_type.is_trivial
                    and inferencer.infer_syntactic_only(entry.value)
                    is ConfigType.FILE_PATH):
                augment_type = ConfigType.FILE_PATH
            for suffix, value, value_type in assembler.augmenter.augment(
                entry.value, augment_type, image
            ):
                system.set(
                    f"{attribute}.{suffix}", TypedValue(value, value_type),
                    augmented=True,
                )
    if env is not None:
        for name, attr in Augmenter.environment_attributes(image).items():
            system.set(f"env:{name}", TypedValue(attr.value, attr.type), augmented=True)
    return system


def row_shape(system: AssembledSystem):
    """Everything a row holds, in insertion order."""
    return (
        [
            (
                attribute,
                [(typed.value, typed.type) for typed in system.values_of(attribute)],
                system.is_augmented(attribute),
            )
            for attribute in system.cells
        ],
        system.occurrence_count(),
    )


def _images(seed: int):
    generator = Ec2CorpusGenerator(seed)
    wild, _ = Ec2CorpusGenerator(seed + 1).generate_wild(20)
    return generator.generate(40) + wild


@pytest.mark.parametrize("seed", [3, 11])
def test_rows_equal_per_entry_reference(seed):
    assembler = DataAssembler(augmenter=_custom_augmenter())
    custom_cells = 0
    for image in _images(seed):
        expected = reference_assembly(assembler, image)
        actual = assembler.assemble(image)
        assert row_shape(actual) == row_shape(expected), image.image_id
        custom_cells += sum(a.endswith((".depth", ".home")) for a in actual.cells)
    assert custom_cells > 0  # the custom augmenter really ran


def test_rows_equal_reference_without_environment():
    assembler = DataAssembler(augment_environment=False)
    for image in _images(3)[:10]:
        expected = reference_assembly(assembler, image)
        assert row_shape(assembler.assemble(image)) == row_shape(expected)


def test_repeated_values_share_one_cell():
    """A value typed once backs every cell that holds it."""
    image = Ec2CorpusGenerator(3).generate_one(0)
    system = DataAssembler().assemble(image)
    by_value = {}
    for attribute in system.cells:
        if system.is_augmented(attribute):
            continue
        for typed in system.values_of(attribute):
            by_value.setdefault(typed.value, set()).add(id(typed))
    assert any(len(by_value[value]) == 1 for value in by_value)
    assert all(len(ids) == 1 for ids in by_value.values())


def test_assemble_keeps_nothing_on_the_image():
    for image in _images(3)[:5] + _images(11)[-5:]:
        fs_before = copy.copy(vars(image.fs))
        entries_before = dict(image.fs._entries)
        accounts_before = copy.copy(vars(image.accounts))
        image_before = set(vars(image))
        DataAssembler(augmenter=_custom_augmenter()).assemble(image)
        assert vars(image.fs) == fs_before
        assert image.fs._entries == entries_before
        assert vars(image.accounts) == accounts_before
        assert set(vars(image)) == image_before


class TestDirectoryIndex:
    """Listings from the index equal :meth:`FileSystem.children`."""

    @staticmethod
    def assert_listings_match(fs):
        index = DirectoryIndex(fs)
        directories = [meta.path for meta in fs if meta.is_dir]
        assert directories
        for path in directories:
            assert index.children(path) == fs.children(path), path
            assert index.children(path + "/") == fs.children(path + "/")
        for meta in fs:
            if not meta.is_dir:
                assert index.children(meta.path) == [] == fs.children(meta.path)
        assert index.children("/no/such/dir") == []

    @pytest.mark.parametrize("index", range(6))
    def test_generated_images(self, index):
        self.assert_listings_match(Ec2CorpusGenerator(11).generate_one(index).fs)

    def test_after_chown_chmod_and_remove(self):
        fs = Ec2CorpusGenerator(3).generate_one(1).fs.copy()
        fs.add_symlink("/var/www/html/latest", "/var/www/html/index.html")
        fs.add_dir("/srv/data/nested/deeper", owner="mysql")
        directories = sorted(meta.path for meta in fs if meta.is_dir and meta.path != "/")
        fs.chown(directories[0], owner="nobody", group="nobody")
        fs.chmod(directories[-1], 0o700)
        fs.remove("/srv/data/nested")
        fs.remove(directories[len(directories) // 2])
        self.assert_listings_match(fs)

    def test_snapshot_of_first_use(self):
        """The index reflects the filesystem when first listed; a later
        mutation needs a new index."""
        fs = Ec2CorpusGenerator(3).generate_one(2).fs.copy()
        index = DirectoryIndex(fs)
        before = index.children("/etc")
        fs.add_file("/etc/zz-new.conf")
        assert index.children("/etc") == before
        assert DirectoryIndex(fs).children("/etc") == fs.children("/etc")
