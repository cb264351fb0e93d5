"""User and group databases (``/etc/passwd`` and ``/etc/group``).

EnCore's type inference verifies ``UserName``/``GroupName`` candidates
against these databases (paper Table 4), and several augmented attributes
(``user.isAdmin``, ``user.isGroup``, …, paper Table 5a) are computed from
them.  Table 7 exposes them as ``Acct.UserList``, ``Acct.GroupList`` and
``Acct.UserGroupMap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

ROOT_GROUP = "root"
#: Groups conventionally granting administrative privileges.
ADMIN_GROUPS = frozenset({"root", "wheel", "sudo", "admin"})
#: Home and shell of an account that has neither.
NO_HOME = "/nonexistent"
NO_SHELL = "/usr/sbin/nologin"


@dataclass(frozen=True, slots=True)
class User:
    """One ``/etc/passwd`` row (the fields EnCore uses)."""

    name: str
    uid: int
    gid: int
    home: str = NO_HOME
    shell: str = NO_SHELL

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("user name must be non-empty")
        if self.uid < 0 or self.gid < 0:
            raise ValueError(f"uid/gid must be non-negative for {self.name}")


@dataclass(frozen=True, slots=True)
class Group:
    """One ``/etc/group`` row."""

    name: str
    gid: int
    members: tuple = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("group name must be non-empty")
        if self.gid < 0:
            raise ValueError(f"gid must be non-negative for {self.name}")


class AccountDatabase:
    """Queryable view over users and groups of a system image."""

    def __init__(self, users: Iterable[User] = (), groups: Iterable[Group] = ()) -> None:
        self._users: Dict[str, User] = {}
        self._groups: Dict[str, Group] = {}
        for group in groups:
            self.add_group(group)
        for user in users:
            self.add_user(user)

    @classmethod
    def with_defaults(cls) -> "AccountDatabase":
        """A minimal Unix baseline every generated image starts from."""
        db = cls()
        db.add_group(Group("root", 0))
        db.add_group(Group("daemon", 1))
        db.add_group(Group("adm", 4))
        db.add_group(Group("nogroup", 65534))
        db.add_user(User("root", 0, 0, home="/root", shell="/bin/bash"))
        db.add_user(User("daemon", 1, 1))
        db.add_user(User("nobody", 65534, 65534))
        return db

    def add_user(self, user: User) -> User:
        self._users[user.name] = user
        return user

    def add_group(self, group: Group) -> Group:
        self._groups[group.name] = group
        return group

    def ensure_service_account(self, name: str, uid: int, home: str = "/nonexistent") -> User:
        """Create the user+group pair typical for a daemon (e.g. ``mysql``)."""
        if name not in self._groups:
            self.add_group(Group(name, uid))
        if name not in self._users:
            self.add_user(User(name, uid, self._groups[name].gid, home=home))
        return self._users[name]

    def user(self, name: str) -> Optional[User]:
        return self._users.get(name)

    def group(self, name: str) -> Optional[Group]:
        return self._groups.get(name)

    def has_user(self, name: str) -> bool:
        return name in self._users

    def has_group(self, name: str) -> bool:
        return name in self._groups

    def user_list(self) -> List[str]:
        """The paper's ``Acct.UserList``."""
        return sorted(self._users)

    def group_list(self) -> List[str]:
        """The paper's ``Acct.GroupList``."""
        return sorted(self._groups)

    def primary_group(self, user_name: str) -> Optional[str]:
        """Name of the user's primary group, if both sides resolve."""
        user = self._users.get(user_name)
        if user is None:
            return None
        for group in self._groups.values():
            if group.gid == user.gid:
                return group.name
        return None

    def groups_of(self, user_name: str) -> List[str]:
        """All groups of a user: primary plus supplementary memberships."""
        out = []
        primary = self.primary_group(user_name)
        if primary is not None:
            out.append(primary)
        for group in self._groups.values():
            if user_name in group.members and group.name not in out:
                out.append(group.name)
        return sorted(out)

    def user_group_map(self) -> Dict[str, List[str]]:
        """The paper's ``Acct.UserGroupMap``."""
        return {name: self.groups_of(name) for name in self._users}

    def is_member(self, user_name: str, group_name: str) -> bool:
        """Does *user_name* belong to *group_name* (template ``[A] < [B]``)?"""
        return group_name in self.groups_of(user_name)

    def is_admin(self, user_name: str) -> bool:
        """``user.isAdmin`` of Table 5a: uid 0 or member of an admin group."""
        user = self._users.get(user_name)
        if user is None:
            return False
        if user.uid == 0:
            return True
        return any(g in ADMIN_GROUPS for g in self.groups_of(user_name))

    def is_in_root_group(self, user_name: str) -> bool:
        """``user.isRootGroup`` of Table 5a."""
        return ROOT_GROUP in self.groups_of(user_name)

    def copy(self) -> "AccountDatabase":
        clone = AccountDatabase.__new__(AccountDatabase)
        clone._users = dict(self._users)
        clone._groups = dict(self._groups)
        return clone
