"""README.md states the command line, the INI settings, the error codes and
the engine's op kinds in tables and blocks that are checked here against the
code: the argparse parser, ``cli._SCHEMA``, ``errors.DOMAINS``, the
``SpatialCausalError`` subclasses and ``engine.op_kinds()``."""

import argparse
import re
from pathlib import Path

import pytest

from spatialcausal import cli
from spatialcausal import engine as E
from spatialcausal.errors import DOMAINS, UNSET, SpatialCausalError

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
SETTINGS_HEADER = "| Key | Type | Default | Domain | Notes |"
ERRORS_HEADER = "| Code | Class | Raised for |"


def _chapter(heading):
    """The text from markdown heading line ``heading`` to the next heading."""
    match = re.search(rf"(?m)^{re.escape(heading)}\n(.*?)(?=^#)", README + "\n#", re.DOTALL)
    assert match, f"README has no {heading!r}"
    return match.group(1)


def _rows(text, header):
    """The cells of each row of the table under ``header`` in ``text``."""
    lines = text.splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def _settings_tables():
    """section -> rows of its table, in README order."""
    tables = {}
    for match in re.finditer(r"(?m)^`\[(\w+)\]`:\n\n", _chapter("### Settings")):
        tables[match.group(1)] = _rows(_chapter("### Settings")[match.end():],
                                       SETTINGS_HEADER)
    return tables


def _unquote(cell):
    return cell[1:-1] if len(cell) > 1 and cell[0] == cell[-1] == "`" else cell


def _domain_cell(section, key):
    """The Domain cell that the code implies for INI key ``section.key``."""
    kind, _, *choices = cli._SCHEMA[section][key]
    if choices:
        return ", ".join(f"`{choice}`" for choice in choices[0])
    name = cli._domain_field(key, kind)
    if name not in DOMAINS:
        return ""
    bound = DOMAINS[name][1] + (", or 0 for none" if name in UNSET else "")
    return "each " + bound if kind.endswith("list") else bound


def _schema_rows():
    return [(section, key) for section, schema in cli._SCHEMA.items() for key in schema]


def _error_classes(cls=SpatialCausalError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


class TestSettingsTables:
    def test_one_table_per_section_with_every_key_in_schema_order(self):
        tables = _settings_tables()
        assert list(tables) == list(cli._SCHEMA)
        for section, rows in tables.items():
            assert [_unquote(row[0]) for row in rows] == list(cli._SCHEMA[section]), section
            assert all(len(row) == 5 for row in rows), section

    @pytest.mark.parametrize("section,key", _schema_rows(),
                             ids=[f"{s}.{k}" for s, k in _schema_rows()])
    def test_row_states_the_type_default_and_domain(self, section, key):
        row = next(row for row in _settings_tables()[section] if _unquote(row[0]) == key)
        kind, default = cli._SCHEMA[section][key][:2]
        assert row[1] == kind
        assert cli._parse_value(kind, _unquote(row[2]), f"{section}.{key}") == default
        assert row[3] == _domain_cell(section, key)


class TestErrorTable:
    def test_every_code_and_class(self):
        rows = _rows(_chapter("### Errors"), ERRORS_HEADER)
        stated = {_unquote(code): _unquote(name) for code, name, _ in rows}
        assert len(stated) == len(rows)
        assert stated == {cls.code: cls.__name__ for cls in _error_classes()}
        assert all(cause for _, _, cause in rows)


class TestUsageBlock:
    def test_every_subcommand_and_flag(self):
        block = re.search(r"(?ms)\A\n```\n(.*?)^```", _chapter("## Command line"))
        assert block, "no usage block opens ## Command line"
        stated = {}
        for line in block.group(1).splitlines():
            prog, command, *_ = line.split()
            assert prog == "spatialcausal"
            optional = " ".join(re.findall(r"\[[^\]]*\]", line))
            flags = set(re.findall(r"--[a-z]+", line))
            stated[command] = (flags, flags - set(re.findall(r"--[a-z]+", optional)))
        sub = next(action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        parsed = {}
        for command, parser in sub.choices.items():
            flags = [action for action in parser._actions
                     if not isinstance(action, argparse._HelpAction)]
            parsed[command] = ({a.option_strings[0] for a in flags},
                               {a.option_strings[0] for a in flags if a.required})
        assert list(stated) == list(parsed)
        assert stated == parsed


def test_op_kinds_listed():
    listing = re.search(r"Engine op kinds \(`engine\.op_kinds\(\)`\):(.*?)\.\s", README,
                        re.DOTALL)
    assert listing, "README lists no engine op kinds"
    assert tuple(re.findall(r"`(\w+)`", listing.group(1))) == E.op_kinds()
