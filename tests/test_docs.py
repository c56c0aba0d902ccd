"""The README describes the configuration and the artifact version the code has."""

import json
from dataclasses import fields
from pathlib import Path

from careercast import artifacts
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
