"""Pipeline configuration: defaults shared with the modules that own them, and
training blocks parsed once, when the file is loaded."""

import json

from careercast import clustering
from careercast.config import PipelineConfig, load_config
from careercast.nn import TrainConfig


def test_defaults_name_the_owning_modules_constants():
    cfg = PipelineConfig()
    assert range(cfg.k_range[0], cfg.k_range[1] + 1) == clustering.DEFAULT_K_RANGE
    assert cfg.kmeans_restarts == clustering.DEFAULT_RESTARTS
    assert cfg.autoencoder == TrainConfig() and cfg.forecaster == TrainConfig()
    assert cfg.autoencoder is not cfg.forecaster


def test_loaded_training_blocks_are_train_configs(tmp_path):
    path = tmp_path / "config.json"
    doc = {"autoencoder": {"max_epochs": 7, "patience": 2}, "forecaster": {"patience": 3}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_config(path).validate()
    assert cfg.autoencoder == TrainConfig(max_epochs=7, patience=2)
    assert cfg.forecaster == TrainConfig(patience=3)
    path.write_text(json.dumps({"seed": 4}), encoding="utf-8")
    assert load_config(path).forecaster == TrainConfig()
