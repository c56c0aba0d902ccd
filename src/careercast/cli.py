"""Command-line pipeline: ingest, embed and cluster, forecast, evaluate.

``main`` frames every command but ``gradcheck``. Before anything is read, it
checks the flags and validates one ``PipelineConfig`` (the defaults, then
``--config``, then the flags, whose ``dest`` is the field they set). It loads
the artifacts the command declares as its ``reads`` with one ``load_chain``
call, runs ``cmd_<name>(cfg, args, chain)``, which returns the SHA-256 of each
file it wrote by its path relative to the output directory, and records that
map in ``run_info.json``. A directory is made only right before a file is
written into it, so a refused command creates nothing.

Artifacts live under the output directory with fixed names. Each is one
``artifacts.envelope`` carrying the SHA-256 of the artifacts it was built
from, which are the ones its command read. ``load_chain`` builds only the
declared artifacts and refuses them unless every file they were built from,
hash-checked but not decoded, is from the same run.
Exit codes: 0 success, 1 usage or configuration error (a ``--config`` that
cannot be read included), 2 data or artifact error (any other file that
cannot be read or written included), 3 numeric failure. Warnings from the
package's loggers go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import artifacts
from .artifacts import AUTOENCODER, CLUSTERS, DATASET, FORECASTER, FORECASTER_STANDARD
from .autoencoder import ae_train, flatten_batch
from .baselines import LINEAR_LAMBDA, RIDGE_LAMBDA, last_value_predict, linear_fit
from .baselines import linear_predict, mlp_baseline_train
from .clustering import select_k
from .config import MODEL_NAMES, PipelineConfig, load_config
from .errors import ArtifactError, CareerCastError, ConfigError, IngestError, NumericError
from .forecaster import forecaster_train
from .ingest import TARGET_AGES, ingest_csv, read_rows_block
from .nn.serialize import layer_to_doc
from .schema import default_schema, load_schema

# synth, evaluation and checks are imported by the one command that runs each,
# so every other command starts without loading them.

REPORTS = "reports"
PREDICTIONS = "predictions.csv"
# the artifacts each stored forecaster reads besides dataset.json
READS = {"proposed": (AUTOENCODER, CLUSTERS, FORECASTER), "standard_lstm": (FORECASTER_STANDARD,)}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _out_path(cfg: PipelineConfig, *names: str) -> str:
    """``names`` joined under the output directory, whose folders are made here."""
    path = os.path.join(cfg.out_dir, *names)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _config(args) -> PipelineConfig:
    """The config file, or the defaults, with the flags given on top; validated."""
    cfg = load_config(args.config) if args.config else PipelineConfig()
    flags = {f.name: getattr(args, f.name, None) for f in fields(cfg)}
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None}).validate()


def _schema_for(cfg: PipelineConfig):
    if cfg.schema_json:
        return load_schema(cfg.schema_json)
    return default_schema()


def _proposed(chain):
    """The conditioned forecast of (n, steps, features) blocks, from ``READS["proposed"]``.

    Each block is embedded, assigned its nearest career type, and fed with
    that type to the forecaster; ``evaluate`` and ``predict`` both use it.
    """
    ae, clusters, model = (chain[n].value for n in READS["proposed"])

    def forecast(blocks):
        return model.predict_batch(blocks, clusters.assign(ae.encode(flatten_batch(blocks))))

    return forecast


def _write_report(cfg: PipelineConfig, name: str, columns, rows) -> dict:
    """Write the table ``reports/<name>``; returns its SHA-256 by that path."""
    path = _out_path(cfg, REPORTS, name)
    return {f"{REPORTS}/{name}": artifacts.write_csv_table(path, columns, rows)}


def cmd_synth(cfg: PipelineConfig, args, chain) -> dict:
    if args.stars < 1 or args.regulars < 1:
        raise ConfigError("player counts must be at least 1")
    if not math.isfinite(args.noise):
        raise ConfigError(f"noise must be finite, got {args.noise}")
    if args.noise < 0:
        raise ConfigError(f"noise must be non-negative, got {args.noise}")
    from .synth import default_specs, write_csv as write_synth_csv
    specs = default_specs(args.stars, args.regulars, args.noise)
    schema = _schema_for(cfg)
    path = args.csv or _out_path(cfg, "synthetic.csv")
    n_rows = write_synth_csv(path, specs, seed=cfg.seed, schema=schema)
    n_players = sum(s.count for s in specs)
    print(f"wrote {n_rows} season rows for {n_players} players to {path}")
    return {os.path.relpath(path, cfg.out_dir): artifacts.file_hash(path)}


def cmd_ingest(cfg: PipelineConfig, args, chain) -> dict:
    if not cfg.input_csv:
        raise ConfigError("no input CSV; pass --input or set input_csv in the config")
    schema = _schema_for(cfg)
    try:
        dataset, summary = ingest_csv(cfg.input_csv, schema, cfg.seed)
    except FileNotFoundError:
        raise IngestError(f"input CSV not found: {cfg.input_csv}") from None
    digest = artifacts.write_artifact(
        cfg.out_dir, DATASET, artifacts.dataset_to_doc(dataset, summary)
    )
    print(f"parsed {summary['rows_parsed']} season rows")
    print(
        f"kept {summary['players_kept']} of {summary['players_total']} players "
        f"({summary['train_players']} train / {summary['test_players']} test)"
    )
    print(
        f"dropped: {summary['dropped_too_few_seasons']} with too few seasons, "
        f"{summary['dropped_unobserved_targets']} without observed targets"
    )
    if summary["dropped_constant_features"]:
        print(
            "constant features dropped from inputs: "
            + ", ".join(summary["dropped_constant_features"])
        )
    return {DATASET: digest}


def cmd_stage1(cfg: PipelineConfig, args, chain) -> dict:
    dataset = artifacts.normalize(chain[DATASET].value)
    flat = flatten_batch(dataset.train.input)
    ae, result = ae_train(flat, seed=cfg.seed, config=cfg.autoencoder)
    embeddings = ae.encode(flat)
    lo, hi = cfg.k_range
    clusters = select_k(
        embeddings, k_range=range(lo, hi + 1), restarts=cfg.kmeans_restarts, seed=cfg.seed
    )
    inputs = {name: a.sha256 for name, a in chain.items()}
    ae_hash = artifacts.write_artifact(
        cfg.out_dir,
        AUTOENCODER,
        {"model": layer_to_doc(ae), "seed": cfg.seed, "train": asdict(result)},
        inputs,
    )
    cl_hash = artifacts.write_artifact(
        cfg.out_dir,
        CLUSTERS,
        {"clusters": clusters.to_doc(), "seed": cfg.seed},
        {**inputs, AUTOENCODER: ae_hash},
    )
    silhouette = _write_report(
        cfg,
        "silhouette.csv",
        ("k", "silhouette", "selected"),
        [
            (k, score, 1 if k == clusters.k else 0)
            for k, score in sorted(clusters.silhouette_by_k.items())
        ],
    )
    print(
        f"autoencoder stopped at epoch {result.stopped_epoch} "
        f"(best {result.best_epoch}, val loss {result.best_val_loss:.6f})"
    )
    print(
        f"selected K={clusters.k} "
        f"(silhouette {clusters.silhouette_by_k[clusters.k]:.4f})"
    )
    sizes = np.bincount(clusters.train_assignments, minlength=clusters.k)
    print(f"cluster sizes: {' '.join(str(int(c)) for c in sizes)}")
    return {AUTOENCODER: ae_hash, CLUSTERS: cl_hash, **silhouette}


def cmd_stage2(cfg: PipelineConfig, args, chain) -> dict:
    dataset = artifacts.normalize(chain[DATASET].value)
    if args.standard:
        assignments, k, out_name = None, 0, FORECASTER_STANDARD
    else:
        # load_chain has matched clusters.json to this dataset.json, so the
        # stored assignments are in train-player order
        clusters = chain[CLUSTERS].value
        assignments, k, out_name = clusters.train_assignments, clusters.k, FORECASTER
    model, result = forecaster_train(
        dataset.train.input,
        dataset.train.target,
        assignments=assignments,
        k=k,
        seed=cfg.seed,
        config=cfg.forecaster,
    )
    digest = artifacts.write_artifact(
        cfg.out_dir,
        out_name,
        {"model": layer_to_doc(model), "seed": cfg.seed, "train": asdict(result)},
        {name: a.sha256 for name, a in chain.items()},
    )
    label = "standard" if args.standard else "cluster-conditioned"
    print(
        f"trained {label} forecaster: stopped at epoch {result.stopped_epoch} "
        f"(best {result.best_epoch}, val loss {result.best_val_loss:.6f})"
    )
    return {out_name: digest}


def _predict_fns(cfg: PipelineConfig, dataset, chain, models):
    """One prediction closure per model name; ``PipelineConfig.validate`` vets the names."""
    target_index = dataset.schema.target_index
    targets = dataset.train.target
    flat_train = flatten_batch(dataset.train.input)
    fns = {}
    for name in models:
        if name == "proposed":
            forecast = _proposed(chain)
            fns[name] = lambda split, forecast=forecast: forecast(split.input)
        elif name == "standard_lstm":
            model = chain[FORECASTER_STANDARD].value
            fns[name] = lambda split, model=model: model.predict_batch(split.input)
        elif name == "last_value":
            fns[name] = lambda split: last_value_predict(split.raw, target_index)
        elif name in ("linear", "ridge"):
            lam = LINEAR_LAMBDA if name == "linear" else RIDGE_LAMBDA
            model = linear_fit(flat_train, targets, lam)
            fns[name] = lambda split, model=model: linear_predict(
                model, flatten_batch(split.input)
            )
        elif name == "mlp":
            model, _ = mlp_baseline_train(flat_train, targets, seed=cfg.seed, config=cfg.forecaster)
            fns[name] = lambda split, model=model: model.forward(
                flatten_batch(split.input), train=False
            )
    return fns


def _fmt_r2(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def cmd_evaluate(cfg: PipelineConfig, args, chain) -> dict:
    from .evaluation import evaluate, export_curves, export_scatter
    models = cfg.models
    dataset = artifacts.normalize(chain[DATASET].value)
    fns = _predict_fns(cfg, dataset, chain, models)

    comparison_rows = []
    category_rows = []
    summary = {}
    written = {}
    for name in models:
        train_report = evaluate(name, fns[name], dataset.train)
        test_report = evaluate(name, fns[name], dataset.test)
        comparison_rows.append(
            (
                name,
                train_report.overall.mae,
                train_report.overall.r2,
                test_report.overall.mae,
                test_report.overall.r2,
                train_report.overall.n,
                test_report.overall.n,
            )
        )
        for split, report in (("train", train_report), ("test", test_report)):
            for cat, block in sorted(report.per_category.items()):
                category_rows.append((name, split, cat, block.mae, block.r2, block.n))
        for by in ("player", "category"):
            written |= _write_report(
                cfg, f"{name}_curves_{by}.csv", *export_curves(test_report, by=by)
            )
        written |= _write_report(cfg, f"{name}_scatter.csv", *export_scatter(test_report))
        summary[name] = {"train": train_report.to_doc(), "test": test_report.to_doc()}
        print(
            f"{name:<14} train MAE {train_report.overall.mae:6.3f} "
            f"R2 {_fmt_r2(train_report.overall.r2):>7}   "
            f"test MAE {test_report.overall.mae:6.3f} "
            f"R2 {_fmt_r2(test_report.overall.r2):>7}"
        )

    written |= _write_report(
        cfg,
        "comparison.csv",
        ("model", "train_mae", "train_r2", "test_mae", "test_r2", "n_train", "n_test"),
        comparison_rows,
    )
    written |= _write_report(
        cfg,
        "per_category.csv",
        ("model", "split", "category", "mae", "r2", "n"),
        category_rows,
    )
    written[f"{REPORTS}/evaluation.json"] = artifacts.write_json(
        _out_path(cfg, REPORTS, "evaluation.json"), {"models": summary}
    )
    return written


def _upsert_predictions(path, series: str, predicted) -> str:
    """Rewrite the predictions table with this series' rows replaced; returns
    its SHA-256."""
    table = {}
    if os.path.exists(path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header != ["series", "age", "predicted"]:
                    raise ArtifactError(f"{path}: unexpected predictions file format")
                for line_no, row in enumerate(reader, start=2):
                    try:
                        series_id, age, value = row
                        age, value = int(age), float(value)
                        if age not in TARGET_AGES or not math.isfinite(value):
                            raise ValueError
                    except ValueError:
                        raise ArtifactError(
                            f"{path}:{line_no}: expected series, integer age in "
                            f"{TARGET_AGES[0]}-{TARGET_AGES[-1]} and finite predicted value, "
                            f"got {row}"
                        ) from None
                    table[(series_id, age)] = repr(value)
            except csv.Error as exc:
                raise ArtifactError(
                    f"{path}:{reader.line_num}: unreadable CSV line: {exc}"
                ) from None
    for age, value in zip(TARGET_AGES, predicted):
        table[(series, age)] = repr(float(value))
    rows = [(s, a, v) for (s, a), v in sorted(table.items())]
    return artifacts.write_csv_table(path, ("series", "age", "predicted"), rows)


def cmd_predict(cfg: PipelineConfig, args, chain) -> dict:
    dataset = chain[DATASET].value
    if args.player:
        split = next(
            (s for s in (dataset.train, dataset.test) if args.player in s.player_ids), None
        )
        if split is None:
            raise ArtifactError(
                f"player {args.player!r} not found in the dataset artifact"
            )
        raw = split.raw[split.player_ids.index(args.player)]
        series = args.player
    else:
        raw = read_rows_block(args.rows, dataset.schema)
        series = f"file:{os.path.basename(args.rows)}"
    block = dataset.norm_stats.apply(raw, dataset.schema.names)  # only the scored block
    predicted = _proposed(chain)(block[None])[0]
    digest = _upsert_predictions(_out_path(cfg, REPORTS, PREDICTIONS), series, predicted)
    for age, value in zip(TARGET_AGES, predicted):  # a refused write prints no forecast
        print(f"age {age}: {value:+.2f} {dataset.schema.target_name}")
    return {f"{REPORTS}/{PREDICTIONS}": digest}


def cmd_gradcheck(args) -> int:
    # the audit draws from fixed seeds and writes nothing, so it runs outside the frame
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    from .checks import gradcheck_suite
    rows = gradcheck_suite(n_seeds=args.seeds)
    failed = [r for r in rows if not r["ok"]]
    for r in rows:
        status = "ok" if r["ok"] else "FAIL"
        print(
            f"{r['name']:<12} max_rel_err {r['max_error']:.3e} "
            f"(threshold {r['threshold']:.0e}) {status}"
        )
    if failed:
        print(
            f"gradient check failed for: {', '.join(r['name'] for r in failed)}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def _nonempty(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("expected a non-empty value")
    return value


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="root random seed")
    common.add_argument("--out", dest="out_dir", metavar="OUT", help="artifact output directory")

    parser = _Parser(
        prog="careercast",
        description="Career-trend forecasting pipeline over player season data.",
    )
    # each command's reads(cfg, args): the artifacts main loads for it, dataset first
    parser.set_defaults(reads=lambda cfg, args: ())
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic season CSV")
    p.add_argument("--stars", type=int, default=30, help="players in the high archetype")
    p.add_argument("--regulars", type=int, default=170, help="players in the low archetype")
    p.add_argument("--noise", type=float, default=1.0, help="season noise level")
    p.add_argument("--csv", help="output CSV path (default <out>/synthetic.csv)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", parents=[common], help="build the train/test dataset")
    p.add_argument("--input", dest="input_csv", metavar="INPUT", help="season CSV to ingest")
    p.add_argument(
        "--schema", dest="schema_json", metavar="SCHEMA",
        help="feature schema JSON (default: built-in)",
    )
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "stage1", parents=[common], help="train the embedder and cluster careers"
    )
    p.set_defaults(func=cmd_stage1, reads=lambda cfg, args: (DATASET,))

    p = sub.add_parser("stage2", parents=[common], help="train the forecaster")
    p.add_argument("--standard", action="store_true", help="train the cluster-free variant instead")
    p.set_defaults(
        func=cmd_stage2,
        reads=lambda cfg, args: (DATASET,) if args.standard else (DATASET, CLUSTERS),
    )

    p = sub.add_parser("evaluate", parents=[common], help="score models on the split")
    p.add_argument(
        "--models",
        nargs="+",
        metavar="NAME",
        help=f"subset of {', '.join(MODEL_NAMES)}",
    )
    p.set_defaults(
        func=cmd_evaluate,
        reads=lambda cfg, args: (DATASET, *(n for m in cfg.models for n in READS.get(m, ()))),
    )

    p = sub.add_parser("predict", parents=[common], help="three-season outlook")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--player", type=_nonempty, help="player_id in the dataset artifact")
    source.add_argument(
        "--rows",
        type=_nonempty,
        help="season CSV in ingest's format holding one player's rows at ages 22-28",
    )
    p.set_defaults(func=cmd_predict, reads=lambda cfg, args: (DATASET, *READS["proposed"]))

    # No common flags: the audit's seeds are fixed and it writes nothing. Without
    # abbreviations, ``--seed`` after the command is refused, not read as ``--seeds``.
    p = sub.add_parser("gradcheck", allow_abbrev=False, help="audit backward passes")
    p.add_argument("--seeds", type=int, default=20, help="seeded draws per config")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # Package warnings go to this command's stderr, once, for its duration.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    logger = logging.getLogger("careercast")
    logger.addHandler(handler)
    try:
        args = parser.parse_args(argv)
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
        cfg = _config(args)
        # passed, not held here, so the chain is freed before run_info.json is written
        produced = args.func(cfg, args, artifacts.load_chain(cfg.out_dir, args.reads(cfg, args)))
        artifacts.write_run_info(cfg.out_dir, args.command, cfg.seed, produced)
        return EXIT_OK
    except (_UsageError, ConfigError) as exc:
        kind = "usage" if isinstance(exc, _UsageError) else "config"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CareerCastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
