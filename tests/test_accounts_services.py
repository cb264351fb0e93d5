"""Unit tests for account databases, service registries, hardware, OS info."""

import pytest

from repro.sysmodel.accounts import AccountDatabase, Group, User
from repro.sysmodel.hardware import HardwareSpec
from repro.sysmodel.osinfo import OSInfo, SELinuxStatus
from repro.sysmodel.services import Service, ServiceRegistry


class TestUserGroup:
    def test_user_validation(self):
        with pytest.raises(ValueError):
            User("", 1, 1)
        with pytest.raises(ValueError):
            User("x", -1, 0)

    def test_group_validation(self):
        with pytest.raises(ValueError):
            Group("", 1)
        with pytest.raises(ValueError):
            Group("g", -2)


class TestAccountDatabase:
    def test_defaults_have_root_and_nobody(self):
        db = AccountDatabase.with_defaults()
        assert db.has_user("root")
        assert db.has_user("nobody")
        assert db.has_group("root")

    def test_ensure_service_account_idempotent(self):
        db = AccountDatabase.with_defaults()
        first = db.ensure_service_account("mysql", 27)
        second = db.ensure_service_account("mysql", 99)
        assert first == second
        assert db.user("mysql").uid == 27

    def test_primary_group(self):
        db = AccountDatabase.with_defaults()
        db.ensure_service_account("mysql", 27)
        assert db.primary_group("mysql") == "mysql"

    def test_primary_group_missing_user(self):
        assert AccountDatabase.with_defaults().primary_group("ghost") is None

    def test_groups_of_includes_supplementary(self):
        db = AccountDatabase.with_defaults()
        db.add_user(User("alice", 1000, 1000))
        db.add_group(Group("alice", 1000))
        db.add_group(Group("wheel", 10, members=("alice",)))
        assert db.groups_of("alice") == ["alice", "wheel"]

    def test_is_member(self):
        db = AccountDatabase.with_defaults()
        db.ensure_service_account("mysql", 27)
        assert db.is_member("mysql", "mysql")
        assert not db.is_member("mysql", "root")

    def test_is_admin_for_root(self):
        db = AccountDatabase.with_defaults()
        assert db.is_admin("root")
        assert not db.is_admin("nobody")
        assert not db.is_admin("ghost")

    def test_is_admin_for_wheel_member(self):
        db = AccountDatabase.with_defaults()
        db.add_user(User("ops", 1000, 1000))
        db.add_group(Group("ops", 1000))
        db.add_group(Group("wheel", 10, members=("ops",)))
        assert db.is_admin("ops")

    def test_is_in_root_group(self):
        db = AccountDatabase.with_defaults()
        db.add_user(User("r2", 1001, 0))
        assert db.is_in_root_group("r2")
        assert not db.is_in_root_group("nobody")

    def test_user_group_map_covers_all_users(self):
        db = AccountDatabase.with_defaults()
        assert set(db.user_group_map()) == set(db.user_list())

    def test_copy_is_independent(self):
        db = AccountDatabase.with_defaults()
        clone = db.copy()
        clone.add_user(User("extra", 4242, 4242))
        assert clone.has_user("extra")
        assert not db.has_user("extra")


class TestServiceRegistry:
    def test_defaults_include_mysql_http(self):
        registry = ServiceRegistry()
        assert registry.is_registered(3306)
        assert registry.is_registered(80)
        assert not registry.is_registered(12345)

    def test_port_range_validation(self):
        with pytest.raises(ValueError):
            Service("bad", 0)
        with pytest.raises(ValueError):
            Service("bad", 70000)

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            Service("x", 53, "icmp")

    def test_lookup(self):
        registry = ServiceRegistry()
        assert registry.lookup(22) == "ssh"
        assert registry.lookup(4) is None

    def test_port_service_map_merges_protocols(self):
        registry = ServiceRegistry()
        assert registry.port_service_map()[53] == ["domain"]

    def test_ports_sorted_distinct(self):
        ports = ServiceRegistry().ports()
        assert ports == sorted(set(ports))

    def test_add_and_copy(self):
        registry = ServiceRegistry()
        clone = registry.copy()
        clone.add(Service("custom", 9999))
        assert clone.is_registered(9999)
        assert not registry.is_registered(9999)


class TestHardwareSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareSpec(cpu_threads=0)
        with pytest.raises(ValueError):
            HardwareSpec(memory_bytes=-1)

    def test_unavailable(self):
        spec = HardwareSpec.unavailable()
        assert not spec.available


class TestOSInfo:
    def test_empty_dist_rejected(self):
        with pytest.raises(ValueError):
            OSInfo(dist_name="")

    def test_selinux_enum_values(self):
        assert SELinuxStatus("enforcing") is SELinuxStatus.ENFORCING
