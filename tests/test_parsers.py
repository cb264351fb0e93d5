"""Tests for the configuration-file parsers."""

import shlex

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import ConfigType, TypedValue
from repro.parsers.apache import ApacheParser
from repro.parsers.base import (
    ConfigEntry, ConfigParseError, ConfigParser, _comment_scan, dedupe_occurrences,
)
from repro.parsers.keyvalue import KeyValueParser
from repro.parsers.mysql import MySQLParser
from repro.parsers.php import PHPIniParser
from repro.parsers.registry import ParserRegistry, default_registry
from repro.parsers.sshd import SSHDParser


def by_name(entries, name):
    return [e for e in entries if e.name == name]


class TestConfigEntry:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            ConfigEntry("a", "", "v")

    def test_qualified_name(self):
        assert ConfigEntry("mysql", "mysqld/port", "3306").qualified_name == "mysql:mysqld/port"

    def test_with_value(self):
        entry = ConfigEntry("php", "engine", "On", "/etc/php.ini", 3)
        copy = entry.with_value("Off")
        assert copy.value == "Off" and copy.line == 3 and copy.name == "engine"

    def test_dedupe_occurrences(self):
        entries = [
            ConfigEntry("a", "X", "1"),
            ConfigEntry("a", "X", "2"),
            ConfigEntry("a", "Y", "3"),
        ]
        deduped = dedupe_occurrences(entries)
        assert [e.occurrence for e in deduped] == [0, 1, 0]

    def test_dedupe_reuses_entries_already_right(self):
        entries = [ConfigEntry("a", "X", "1"), ConfigEntry("a", "X", "2")]
        deduped = dedupe_occurrences(entries)
        assert deduped[0] is entries[0]
        assert deduped[1] is not entries[1] and deduped[1].occurrence == 1

    def test_dedupe_keeps_provenance(self):
        entries = [
            ConfigEntry("a", "X", "1", "/etc/a.conf", 4, "s"),
            ConfigEntry("a", "X", "2", "/etc/a.conf", 5),
        ]
        deduped = dedupe_occurrences(entries)
        assert deduped == [
            ConfigEntry("a", "X", "1", "/etc/a.conf", 4, "s", 0),
            ConfigEntry("a", "X", "2", "/etc/a.conf", 5, None, 1),
        ]

    @pytest.mark.parametrize("app", ["apache", "mysql", "php", "sshd"])
    def test_parse_equals_parse_text_plus_path(self, app):
        """``parse`` differs from ``parse_text`` only by the stamped path."""
        from repro.testing.faults import valid_config_samples

        parser = default_registry().get(app)
        text = valid_config_samples()[app]
        plain = parser.parse_text(text)
        stamped = parser.parse(text, "/etc/x.conf")
        assert plain and all(e.source_path == "" for e in plain)
        assert stamped == [
            ConfigEntry(e.app, e.name, e.value, "/etc/x.conf", e.line, e.section,
                        e.occurrence)
            for e in plain
        ]


class TestApacheParser:
    def test_simple_directives(self):
        entries = ApacheParser().parse_text("ServerRoot /etc/httpd\nTimeout 60\n")
        assert by_name(entries, "ServerRoot")[0].value == "/etc/httpd"
        assert by_name(entries, "Timeout")[0].value == "60"

    def test_comments_and_blanks_skipped(self):
        entries = ApacheParser().parse_text("# comment\n\nKeepAlive On # tail\n")
        assert len(entries) == 1
        assert entries[0].value == "On"

    def test_nested_sections(self):
        text = (
            "<VirtualHost *:80>\n"
            "  DocumentRoot /srv/www\n"
            "  <Directory /srv/www>\n"
            "    Options None\n"
            "  </Directory>\n"
            "</VirtualHost>\n"
        )
        entries = ApacheParser().parse_text(text)
        names = {e.name for e in entries}
        assert "VirtualHost/DocumentRoot" in names
        assert "VirtualHost/Directory/Options" in names
        assert "VirtualHost/VirtualHost.arg" in names

    def test_section_argument_recorded(self):
        entries = ApacheParser().parse_text("<Directory /var/www>\n</Directory>\n")
        args = by_name(entries, "Directory/Directory.arg")
        assert args and args[0].value == "/var/www"

    def test_unbalanced_section_raises(self):
        with pytest.raises(ConfigParseError):
            ApacheParser().parse_text("<Directory /x>\n")
        with pytest.raises(ConfigParseError):
            ApacheParser().parse_text("</Directory>\n")

    def test_mismatched_close_raises(self):
        with pytest.raises(ConfigParseError):
            ApacheParser().parse_text("<Directory /x>\n</VirtualHost>\n")

    def test_multiarg_directive_gets_arg_columns(self):
        entries = ApacheParser().parse_text(
            "LoadModule ssl_module modules/mod_ssl.so\n"
        )
        assert by_name(entries, "LoadModule/arg1")[0].value == "ssl_module"
        assert by_name(entries, "LoadModule/arg2")[0].value == "modules/mod_ssl.so"

    def test_repeated_directives_numbered(self):
        text = "LoadModule a_module m/a.so\nLoadModule b_module m/b.so\n"
        entries = ApacheParser().parse_text(text)
        loads = by_name(entries, "LoadModule")
        assert [e.occurrence for e in loads] == [0, 1]

    def test_quoted_values_unquoted(self):
        entries = ApacheParser().parse_text('ServerAdmin "admin@example.com"\n')
        assert entries[0].value == "admin@example.com"

    def test_line_numbers(self):
        entries = ApacheParser().parse_text("# c\nTimeout 5\n")
        assert by_name(entries, "Timeout")[0].line == 2


class TestMySQLParser:
    def test_sections_prefix_names(self):
        entries = MySQLParser().parse_text("[mysqld]\ndatadir = /var/lib/mysql\n")
        assert entries[0].name == "mysqld/datadir"
        assert entries[0].section == "mysqld"

    def test_dash_normalisation(self):
        entries = MySQLParser().parse_text("[mysqld]\nskip-networking\n")
        assert entries[0].name == "mysqld/skip_networking"
        assert entries[0].value == "ON"

    def test_bare_flag_value(self):
        entries = MySQLParser().parse_text("[mysqldump]\nquick\n")
        assert entries[0].value == "ON"

    def test_comments_both_styles(self):
        entries = MySQLParser().parse_text("# a\n; b\n[mysqld]\nport = 3306 # inline\n")
        assert len(entries) == 1
        assert entries[0].value == "3306"

    def test_empty_key_raises(self):
        with pytest.raises(ConfigParseError):
            MySQLParser().parse_text("[mysqld]\n= value\n")

    def test_no_section_entries(self):
        entries = MySQLParser().parse_text("user = mysql\n")
        assert entries[0].name == "user"
        assert entries[0].section is None

    def test_case_normalisation(self):
        entries = MySQLParser().parse_text("[MYSQLD]\nPort = 3306\n")
        assert entries[0].name == "mysqld/port"

    def test_include_directives_carry_their_path(self):
        entries = MySQLParser().parse_text(
            "!include /etc/mysql/common.cnf\n"
            "[mysqld]\n"
            "port = 3306\n"
            "!includedir /etc/mysql/conf.d/\n"
            "!includedir\t/etc/mysql/mysql.conf.d/  # distro files\n",
            "/etc/my.cnf",
        )
        assert [(e.name, e.value, e.section, e.occurrence) for e in entries] == [
            ("!include", "/etc/mysql/common.cnf", None, 0),
            ("mysqld/port", "3306", "mysqld", 0),
            ("!includedir", "/etc/mysql/conf.d/", "mysqld", 0),
            ("!includedir", "/etc/mysql/mysql.conf.d/", "mysqld", 1),
        ]
        assert all(e.source_path == "/etc/my.cnf" for e in entries)

    def test_include_without_path_raises(self):
        with pytest.raises(ConfigParseError):
            MySQLParser().parse_text("[mysqld]\n!includedir\n")

    def test_included_directory_is_typed_and_augmented(self, mysql_image):
        from repro.core.assembler import DataAssembler

        image = mysql_image.copy()
        image.fs.add_dir("/etc/mysql/conf.d", owner="root", group="mysql")
        image.fs.add_file("/etc/mysql/conf.d/tuning.cnf")
        image.replace_config_text(
            "mysql", "[mysqld]\ndatadir = /var/lib/mysql\n!includedir /etc/mysql/conf.d/\n"
        )
        system = DataAssembler().assemble(image)
        assert system.get("mysql:!includedir") == (
            TypedValue("/etc/mysql/conf.d/", ConfigType.FILE_PATH)
        )
        assert system.value("mysql:!includedir.type") == "dir"
        assert system.value("mysql:!includedir.group") == "mysql"
        assert system.value("mysql:!includedir.hasDir") == "False"


class TestPHPIniParser:
    def test_directive_parsing(self):
        entries = PHPIniParser().parse_text("[PHP]\nmemory_limit = 128M\n")
        assert entries[0].name == "memory_limit"
        assert entries[0].value == "128M"
        assert entries[0].section == "PHP"

    def test_section_not_in_name(self):
        entries = PHPIniParser().parse_text("[Session]\nsession.save_path = /tmp\n")
        assert entries[0].name == "session.save_path"

    def test_semicolon_comments(self):
        entries = PHPIniParser().parse_text("; note\nengine = On ; tail\n")
        assert len(entries) == 1 and entries[0].value == "On"

    def test_missing_equals_raises(self):
        with pytest.raises(ConfigParseError):
            PHPIniParser().parse_text("engine On\n")

    def test_empty_value_allowed(self):
        entries = PHPIniParser().parse_text("error_log =\n")
        assert entries[0].value == ""

    def test_lowercase_names(self):
        entries = PHPIniParser().parse_text("Memory_Limit = 1M\n")
        assert entries[0].name == "memory_limit"


class TestSSHDParser:
    def test_keyword_lines(self):
        entries = SSHDParser().parse_text("Port 22\nPermitRootLogin no\n")
        assert entries[0].name == "Port" and entries[0].value == "22"

    def test_keyword_case_canonicalised(self):
        entries = SSHDParser().parse_text("port 2222\n")
        assert entries[0].name == "Port"

    def test_match_block_scoping(self):
        text = "PasswordAuthentication no\nMatch User deploy\nPasswordAuthentication yes\n"
        entries = SSHDParser().parse_text(text)
        names = [e.name for e in entries]
        assert "PasswordAuthentication" in names
        assert "Match/PasswordAuthentication" in names

    def test_repeated_hostkeys(self):
        text = "HostKey /etc/ssh/a\nHostKey /etc/ssh/b\n"
        entries = SSHDParser().parse_text(text)
        assert [e.occurrence for e in entries] == [0, 1]

    def test_keyword_without_value(self):
        entries = SSHDParser().parse_text("UsePAM\n")
        assert entries[0].value == ""


class TestKeyValueParser:
    def test_equals_colon_space(self):
        parser = KeyValueParser(app="custom")
        for text in ("a = 1\n", "a: 1\n", "a 1\n"):
            entries = parser.parse_text(text)
            assert entries[0].name == "a" and entries[0].value == "1"
            assert entries[0].app == "custom"

    def test_value_free_line(self):
        entries = KeyValueParser().parse_text("flag\n")
        assert entries[0].name == "flag" and entries[0].value == ""


class TestParserRegistry:
    def test_default_registry_covers_studied_apps(self):
        registry = default_registry()
        assert set(registry.known_apps()) == {"apache", "mysql", "php", "sshd"}

    def test_fallback_to_generic(self):
        registry = default_registry()
        entries = registry.parse("redis", "maxmemory 1gb\n")
        assert entries[0].app == "redis"

    def test_strict_registry_raises(self):
        registry = ParserRegistry(fallback_to_generic=False)
        with pytest.raises(KeyError):
            registry.get("unknown")

    def test_register_without_name_raises(self):
        registry = ParserRegistry()
        with pytest.raises(ValueError):
            registry.register(KeyValueParser(app=""))

    def test_source_path_stamped(self):
        registry = default_registry()
        entries = registry.parse("php", "engine = On\n", source_path="/etc/php.ini")
        assert entries[0].source_path == "/etc/php.ini"


class TestStripComment:
    """Quote-aware comment stripping (regression: quoted '#' kept)."""

    from repro.parsers.base import ConfigParser
    strip = staticmethod(ConfigParser.strip_comment)

    def test_plain_comment_stripped(self):
        assert self.strip("Listen 80  # default port") == "Listen 80"

    def test_full_line_comment(self):
        assert self.strip("# nothing here") == ""

    def test_marker_inside_double_quotes_kept(self):
        line = 'CustomLog "/var/log/a#b.log" combined'
        assert self.strip(line) == line

    def test_marker_inside_single_quotes_kept(self):
        line = "ErrorLog '/var/log/err#or.log'"
        assert self.strip(line) == line

    def test_comment_after_closing_quote_stripped(self):
        assert (
            self.strip('CustomLog "/var/log/a#b.log" combined # comment')
            == 'CustomLog "/var/log/a#b.log" combined'
        )

    def test_unterminated_quote_disarms_markers(self):
        line = 'DocumentRoot "/var/www # half-open'
        assert self.strip(line) == line

    def test_alternate_markers(self):
        assert self.strip("key = value ; note", markers=("#", ";")) == "key = value"
        assert (
            self.strip('path = "a;b" ; note', markers=("#", ";")) == 'path = "a;b"'
        )

    def test_no_comment_trailing_space_trimmed(self):
        assert self.strip("Listen 80   ") == "Listen 80"

    def test_apache_parser_keeps_quoted_hash(self):
        entries = ApacheParser().parse_text(
            'CustomLog "/var/log/httpd/access#main.log" combined\n'
        )
        values = [e.value for e in by_name(entries, "CustomLog")]
        assert values == ["/var/log/httpd/access#main.log combined"]

    def test_mysql_parser_keeps_quoted_semicolon(self):
        entries = MySQLParser().parse_text(
            '[mysqld]\ninit_connect = "SET NAMES utf8; SET autocommit=0"\n'
        )
        values = [e.value for e in by_name(entries, "mysqld/init_connect")]
        assert values == ["SET NAMES utf8; SET autocommit=0"]


def _strip_comment_oracle(line, markers=("#",)):
    """The original per-character scan, kept as the regex's oracle."""
    quote = ""
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if quote:
            if ch == quote:
                quote = ""
        elif ch in "\"'":
            quote = ch
        elif any(line.startswith(marker, i) for marker in markers):
            return line[:i].rstrip()
        i += 1
    return line.rstrip()


class TestStripCommentOracle:
    """The compiled-regex scan agrees with the per-character loop."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(
        line=st.text(alphabet="#;\"'/\t abxy", max_size=40),
        markers=st.sampled_from([("#",), (";",), ("#", ";"), ("//", "#")]),
    )
    def test_matches_oracle(self, line, markers):
        assert ConfigParser.strip_comment(line, markers) == _strip_comment_oracle(
            line, markers
        )

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(
        line=st.text(alphabet="#;\"'/\t abxy", max_size=40),
        markers=st.sampled_from([("#",), (";",), ("#", ";"), ("//", "#")]),
    )
    def test_fast_path_matches_regex(self, line, markers):
        """Skipping the regex on a marker-free line changes nothing."""
        end = _comment_scan(markers).match(line).end()
        assert ConfigParser.strip_comment(line, markers) == line[:end].rstrip()

    @pytest.mark.parametrize("line,markers,expected", [
        ("a // b # c", ("//", "#"), "a"),
        ("a / b # c", ("//", "#"), "a / b"),
        ('x "//" // y', ("//", "#"), 'x "//"'),
        ("x 'half // open", ("//", "#"), "x 'half // open"),
        ("", ("#",), ""),
    ])
    def test_multi_character_markers(self, line, markers, expected):
        assert ConfigParser.strip_comment(line, markers) == expected
        assert _strip_comment_oracle(line, markers) == expected


class TestApacheTokenising:
    """Lines without quotes or backslashes skip shlex; the split agrees."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.text(alphabet="ab/.*:-_\t\r\n 09", max_size=40))
    def test_fast_split_matches_shlex(self, line):
        parser = ApacheParser()
        expected = shlex.split(line, comments=False, posix=True)
        entries = parser._directive([], line, 1)
        if not expected:
            assert entries == []
            return
        assert entries[0].name == expected[0]
        assert entries[0].value == " ".join(expected[1:])

    def test_multiarg_columns_from_fast_split(self):
        entries = ApacheParser().parse_text(
            "LoadModule\tssl_module \t modules/mod_ssl.so\r\n"
        )
        assert [(e.name, e.value) for e in entries] == [
            ("LoadModule", "ssl_module modules/mod_ssl.so"),
            ("LoadModule/arg1", "ssl_module"),
            ("LoadModule/arg2", "modules/mod_ssl.so"),
        ]

    def test_quoted_line_takes_shlex_path(self, monkeypatch):
        import repro.parsers.apache as apache

        calls = []
        real_split = apache.shlex.split

        def spy(line, **kwargs):
            calls.append(line)
            return real_split(line, **kwargs)

        monkeypatch.setattr(apache.shlex, "split", spy)
        entries = ApacheParser().parse_text('CustomLog "/a b#c.log" combined\nTimeout 60\n')
        assert calls == ['CustomLog "/a b#c.log" combined']
        assert [(e.name, e.value) for e in entries] == [
            ("CustomLog", "/a b#c.log combined"),
            ("Timeout", "60"),
        ]
