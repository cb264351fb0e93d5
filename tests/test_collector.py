"""Tests for the data collector (paper §3)."""

from repro.core.assembler import DataAssembler
from repro.core.collector import DataCollector


class TestCollect:
    def test_collects_config_texts(self, mysql_image):
        collection = DataCollector().collect(mysql_image)
        assert collection.image_id == mysql_image.image_id
        apps = [app for app, _, _ in collection.config_files]
        assert apps == ["mysql"]
        _, path, text = collection.config_files[0]
        assert path == "/etc/my.cnf"
        assert "datadir" in text

    def test_environment_dump_excludes_configs(self, mysql_image):
        collection = DataCollector().collect(mysql_image)
        assert "config_files" not in collection.environment

    def test_restore_image_roundtrip(self, mysql_image):
        collection = DataCollector().collect(mysql_image)
        restored = collection.restore_image()
        assert restored.fs.file_list() == mysql_image.fs.file_list()
        assert restored.config_file("mysql").text == \
            mysql_image.config_file("mysql").text

    def test_scrub_env_vars(self):
        from repro.sysmodel.image import SystemImage

        image = SystemImage("r", env_vars={"SECRET": "x"}, running=True)
        collection = DataCollector(scrub_env_vars=True).collect(image)
        assert collection.environment["env_vars"] == {}

    def test_dormant_hardware_collection(self, mysql_image):
        """collect_hardware=False models crawling dormant AMIs (§7.1.2)."""
        collection = DataCollector(collect_hardware=False).collect(mysql_image)
        assert collection.environment["hardware"]["available"] is False
        restored = collection.restore_image()
        assert not restored.hardware.available

    def test_collect_many(self, small_corpus):
        collector = DataCollector()
        collections = [collector.collect(image) for image in small_corpus[:3]]
        assert [c.image_id for c in collections] == \
            [i.image_id for i in small_corpus[:3]]

    def test_assembly_from_collection_equals_direct(self, small_corpus):
        """Learning must work from the text-format dump alone (§3)."""
        assembler = DataAssembler()
        image = small_corpus[0]
        collection = DataCollector().collect(image)
        via_dump = assembler.assemble(collection.restore_image())
        direct = assembler.assemble(image)
        assert via_dump.as_row() == direct.as_row()
