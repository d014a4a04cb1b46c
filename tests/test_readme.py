"""README.md states the command line, the INI settings, the error codes, the
engine's op kinds and the file formats' fixed parts in tables, blocks and
sentences that are checked here against the code: the argparse parser,
``cli._SCHEMA``, ``errors.DOMAINS``, the ``SpatialCausalError`` subclasses,
``engine.op_kinds()``, and the files that ``save_grid``, ``save_manifest``
and ``save_model`` write."""

import argparse
import configparser
import re
from pathlib import Path

import numpy as np
import pytest

from spatialcausal import cli
from spatialcausal import engine as E
from spatialcausal import model as M
from spatialcausal import raster as R
from spatialcausal.errors import DOMAINS, SpatialCausalError, parse_value

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
    bound = DOMAINS[name][1]
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
        assert parse_value(kind, _unquote(row[2]), f"{section}.{key}") == default
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


def _format_bullet(name):
    """The File formats bullet ``* <name>: ...``, its lines joined by spaces."""
    match = re.search(rf"(?ms)^\* {re.escape(name)}: (.*?)(?=^\* |\Z)",
                      _chapter("### File formats"))
    assert match, f"File formats has no {name!r} bullet"
    return " ".join(match.group(1).split())


def _named(pattern, text):
    """The groups of ``pattern``'s first match in ``text``."""
    match = re.search(pattern, text)
    assert match, f"no {pattern!r} in {text!r}"
    return match.groups()


class TestFileFormats:
    def test_checkpoint_magic_version_and_header_keys(self, tmp_path):
        text = _format_bullet("Checkpoints")
        version, magic = _named(r"^format version (\d+)\. A 4-byte magic `(\w+)`", text)
        (keys,) = _named(r"JSON header with the keys (.*?): ", text)
        path = tmp_path / "model.ckpt"
        M.save_model(M.build_model(M.ModelConfig(m=1, patch_shape=(3,), x_dim=2)), str(path))
        blob = path.read_bytes()
        assert blob[:4] == magic.encode() == M._CKPT_MAGIC
        assert int(version) == M._CKPT_VERSION
        model = M.load_model(str(path))
        assert re.findall(r"`(\w+)`", keys) == list(M._model_header(model))

    def test_grid_magic_and_header_fields(self, tmp_path):
        text = _format_bullet("Grids")
        (magic,) = _named(r"A 4-byte magic `(\w+)`", text)
        (header,) = _named(r"little-endian header of fields (.*?), then", text)
        groups = re.findall(r"((?:`\w+`(?:,| and)? )+)\((u32|float64) each\)", header)
        names = [(name, {"u32": "I", "float64": "d"}[kind])
                 for names, kind in groups for name in re.findall(r"`(\w+)`", names)]
        assert R._HEADER.format == "<4s" + "".join(code for _, code in names)
        assert magic.encode() == R._MAGIC
        grid = R.Grid(data=np.zeros((2, 3, 5)), origin_x=0.25, origin_y=0.5, resolution=0.75)
        R.save_grid(grid, str(tmp_path / "g.grd"))
        written = R._HEADER.unpack_from((tmp_path / "g.grd").read_bytes())
        assert written == (R._MAGIC, *(getattr(grid, name) for name, _ in names))

    def test_manifest_keys(self, tmp_path):
        text = _format_bullet("Manifest")
        section, keys = _named(r"one `\[(\w+)\]` section with the keys (.*?): ", text)
        path = tmp_path / "run.manifest"
        R.save_manifest(R.Manifest(treatments=("t1.grd", "t2.grd"), confounder="x.grd",
                                   outcome="y.grd", d_s=3), str(path))
        written = configparser.ConfigParser(interpolation=None)
        written.read(path, encoding="utf-8")
        assert written.sections() == [section]
        assert re.findall(r"`([\w.]+)`", keys) == list(written[section])
