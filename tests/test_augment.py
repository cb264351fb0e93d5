"""Tests for environment augmentation (paper Table 5)."""

import pytest

from repro.core.augment import Augmenter, _contents_digest
from repro.core.types import ConfigType
from repro.sysmodel.hardware import HardwareSpec
from repro.sysmodel.image import SystemImage


@pytest.fixture()
def image():
    img = SystemImage("aug-img")
    img.accounts.ensure_service_account("mysql", 27)
    img.fs.add_dir("/var/lib/mysql", owner="mysql", group="mysql", mode=0o700)
    img.fs.add_file("/var/lib/mysql/ibdata1", owner="mysql", group="mysql")
    img.fs.add_dir("/var/lib/mysql/db", owner="mysql")
    img.fs.add_symlink("/var/lib/mysql/link", "/var/lib/mysql/ibdata1")
    img.fs.add_file("/etc/php.ini", mode=0o644)
    return img


def suffixes(attrs):
    return {a.suffix: a for a in attrs}


class TestFilePathAugmentation:
    def test_directory_gets_seven_attributes(self, image):
        attrs = suffixes(
            Augmenter().augment("/var/lib/mysql", ConfigType.FILE_PATH, image)
        )
        # Table 5a: owner, group, type, permission, contents, hasDir, hasSymLink
        assert set(attrs) == {
            "owner", "group", "type", "permission", "contents", "hasDir", "hasSymLink"
        }
        assert attrs["owner"].value == "mysql"
        assert attrs["owner"].type is ConfigType.USER_NAME
        assert attrs["group"].value == "mysql"
        assert attrs["type"].value == "dir"
        assert attrs["permission"].value == "700"
        assert attrs["permission"].type is ConfigType.PERMISSION
        assert attrs["hasDir"].value == "True"
        assert attrs["hasSymLink"].value == "True"

    def test_regular_file_has_no_dir_attributes(self, image):
        attrs = suffixes(Augmenter().augment("/etc/php.ini", ConfigType.FILE_PATH, image))
        assert set(attrs) == {"owner", "group", "type", "permission"}
        assert attrs["type"].value == "file"

    def test_missing_path_reports_type_missing(self, image):
        attrs = suffixes(Augmenter().augment("/nowhere", ConfigType.FILE_PATH, image))
        assert set(attrs) == {"type"}
        assert attrs["type"].value == "missing"

    def test_contents_digest_stable(self, image):
        first = suffixes(Augmenter().augment("/var/lib/mysql", ConfigType.FILE_PATH, image))
        second = suffixes(Augmenter().augment("/var/lib/mysql", ConfigType.FILE_PATH, image))
        assert first["contents"].value == second["contents"].value

    def test_contents_digest_changes_with_listing(self, image):
        before = suffixes(Augmenter().augment("/var/lib/mysql", ConfigType.FILE_PATH, image))
        image.fs.add_file("/var/lib/mysql/new-table")
        after = suffixes(Augmenter().augment("/var/lib/mysql", ConfigType.FILE_PATH, image))
        assert before["contents"].value != after["contents"].value

    @pytest.mark.parametrize("path", [
        "/srv/empty", "/srv/nested", "/srv/nested/inner", "/srv/links", "/srv",
    ])
    def test_listing_columns_match_filesystem_queries(self, path):
        """One directory scan yields what three separate queries did."""
        img = SystemImage("listing-img")
        img.fs.add_dir("/srv/empty")
        img.fs.add_dir("/srv/nested/inner")
        img.fs.add_file("/srv/nested/inner/data")
        img.fs.add_file("/srv/links/target")
        img.fs.add_symlink("/srv/links/alias", "/srv/links/target")
        attrs = suffixes(Augmenter().augment(path, ConfigType.FILE_PATH, img))
        assert attrs["contents"].value == _contents_digest(img.fs.children(path))
        assert attrs["hasDir"].value == str(img.fs.has_subdirectories(path))
        assert attrs["hasSymLink"].value == str(img.fs.has_symlinks(path))


class TestIPAugmentation:
    @pytest.mark.parametrize(
        "ip,local,v6,anyaddr",
        [
            ("10.0.1.1", "True", "False", "False"),
            ("192.168.1.5", "True", "False", "False"),
            ("172.16.0.1", "True", "False", "False"),
            ("172.32.0.1", "False", "False", "False"),
            ("8.8.8.8", "False", "False", "False"),
            ("0.0.0.0", "False", "False", "True"),
            ("::", "False", "True", "True"),
            ("fd00::1", "True", "True", "False"),
        ],
    )
    def test_rfc1918_and_friends(self, image, ip, local, v6, anyaddr):
        attrs = suffixes(Augmenter().augment(ip, ConfigType.IP_ADDRESS, image))
        assert attrs["Local"].value == local
        assert attrs["IPv6"].value == v6
        assert attrs["AnyAddr"].value == anyaddr


class TestUserAugmentation:
    def test_service_user(self, image):
        attrs = suffixes(Augmenter().augment("mysql", ConfigType.USER_NAME, image))
        assert attrs["isRootGroup"].value == "False"
        assert attrs["isAdmin"].value == "False"
        assert attrs["isGroup"].value == "mysql"
        assert attrs["isGroup"].type is ConfigType.GROUP_NAME

    def test_root_user(self, image):
        attrs = suffixes(Augmenter().augment("root", ConfigType.USER_NAME, image))
        assert attrs["isRootGroup"].value == "True"
        assert attrs["isAdmin"].value == "True"

    def test_unknown_user_has_no_group(self, image):
        attrs = suffixes(Augmenter().augment("ghost", ConfigType.USER_NAME, image))
        assert "isGroup" not in attrs


class TestSizeAugmentation:
    def test_bytes_column(self, image):
        attrs = suffixes(Augmenter().augment("64M", ConfigType.SIZE, image))
        assert attrs["bytes"].value == str(64 << 20)
        assert attrs["bytes"].type is ConfigType.NUMBER

    def test_unparseable_size_skipped(self, image):
        assert Augmenter().augment("lots", ConfigType.SIZE, image) == []


class TestEnvironmentAttributes:
    def test_dormant_image_has_no_hardware(self, image):
        env = Augmenter.environment_attributes(image)
        assert "OS.DistName" in env
        assert "Sys.IPAddress" in env
        assert "MemSize" not in env  # HardwareSpec.unavailable() by default

    def test_running_image_exposes_hardware(self):
        img = SystemImage("hw-img", hardware=HardwareSpec(cpu_threads=4, memory_bytes=2 << 30))
        env = Augmenter.environment_attributes(img)
        assert env["CPU.Threads"].value == "4"
        assert env["MemSize"].value == str(2 << 30)
        assert env["HDD.AvailSpace"].type is ConfigType.NUMBER

    def test_sys_users_lists_accounts(self, image):
        env = Augmenter.environment_attributes(image)
        assert "mysql" in env["Sys.Users"].value


class TestCustomAugmentation:
    def test_registered_attribute_invoked(self, image):
        augmenter = Augmenter()
        augmenter.register(
            ConfigType.PORT_NUMBER, "privileged", ConfigType.BOOLEAN,
            lambda value, img: str(int(value) < 1024),
        )
        attrs = suffixes(augmenter.augment("80", ConfigType.PORT_NUMBER, image))
        assert attrs["privileged"].value == "True"

    def test_none_result_skipped(self, image):
        augmenter = Augmenter()
        augmenter.register(
            ConfigType.CHARSET, "noop", ConfigType.STRING, lambda value, img: None
        )
        assert augmenter.augment("utf8", ConfigType.CHARSET, image) == []
