"""The README describes the commands, the configuration and the artifact version
the code has."""

import argparse
import importlib
import json
import re
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import careercast
from careercast import artifacts
from careercast.cli import build_parser
from careercast.config import TRAIN_KEYS, PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_matches_config_fields_and_artifact_version():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1]
    block = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert list(block) == [f.name for f in fields(PipelineConfig)]
    assert tuple(block["autoencoder"]) == TRAIN_KEYS
    assert f"`version` ({artifacts.VERSION})" in text
    assert f"not a careercast-artifact v{artifacts.VERSION}" in text


def test_readme_commands_table_matches_the_parser():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Commands\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = [row.split("`")[1] for row in rows]
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert sorted(named) == sorted(subparsers.choices)


def test_readme_flag_list_names_every_config_flag():
    """The Commands section lists, as the flags that override the config, exactly
    the parser options that set a ``PipelineConfig`` field."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Commands\n", 1)[1].split("\n## ", 1)[0]
    listed = " ".join(section.split("then the flags (", 1)[1].split(")", 1)[0].split())
    named = listed.split("`")[1::2]
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    config = {f.name for f in fields(PipelineConfig)}
    flags = {
        flag
        for p in (parser, *subparsers.choices.values())
        for action in p._actions
        if action.dest in config
        for flag in action.option_strings
    }
    assert len(named) == len(set(named)) and set(named) == flags


def test_readme_artifacts_tree_names_every_chained_file():
    text = README.read_text(encoding="utf-8")
    tree = text.split("\n## Artifacts\n", 1)[1].split("```\n", 2)[1]
    listed = {line.split()[0] for line in tree.splitlines() if line.strip()}
    assert set(artifacts.CHAIN) <= listed


def test_readme_configuration_constants_match_the_code():
    """Each "value (`module.NAME`)" in the Configuration section names the
    constant's value in the code."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    stated = re.findall(r"(\S+)\s+\(`((?:\w+\.)+[A-Z][A-Z0-9_]*)`\)", section)
    named = {name.rsplit(".", 1)[1] for _, name in stated}
    assert {"BATCH_SIZE", "VALIDATION_FRACTION", "MIN_TRAIN_SAMPLES", "TEST_FRACTION",
            "LINEAR_LAMBDA", "RIDGE_LAMBDA"} <= named
    for value, name in stated:
        module, constant = name.rsplit(".", 1)
        actual = getattr(importlib.import_module(f"careercast.{module}"), constant)
        assert float(Fraction(value)) == actual, f"README says {name} is {value}, code {actual}"


def test_readme_layout_names_every_module():
    """Every module file of the package, by its path under ``src/careercast/``, has
    a line in the Layout block (a package's ``__init__.py`` is its directory's line)."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Layout\n", 1)[1].split("```\n", 2)[1]
    listed, path = set(), []
    for line in block.splitlines()[1:]:
        depth = (len(line) - len(line.lstrip())) // 2
        path[depth - 1 :] = [line.split()[0]]
        listed.add("".join(path))
    package = Path(careercast.__file__).parent
    modules = {p.relative_to(package).as_posix() for p in package.rglob("*.py")}
    assert {m for m in modules if not m.endswith("__init__.py")} <= listed
