"""In-process tracing of careercast's layers, done only by monkeypatching.

``Tracer`` keeps spans (trace id, span id, parent id, name, start, end) in
memory. ``instrument`` wraps the public functions and methods of each layer
under ``careercast`` with span-recording wrappers, patched into every module
that holds a reference to the original (so ``careercast.cli.select_k`` is
wrapped as well as ``careercast.clustering.select_k``), and undoes it all on
exit. Nothing under ``src/`` is edited. ``layer_metrics`` turns the spans and
the counters recorded at the same boundaries into per-layer metrics, with
self time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

LAYER_MODULES = (
    "careercast.ingest",
    "careercast.artifacts",
    "careercast.nn.layers",
    "careercast.nn.optim",
    "careercast.nn.training",
    "careercast.nn.serialize",
    "careercast.autoencoder",
    "careercast.clustering",
    "careercast.forecaster",
    "careercast.baselines",
    "careercast.evaluation",
    "careercast.synth",
    "careercast.cli",
)

# (module, function) -> span name; patched wherever the function is referenced
FUNCTIONS = {
    ("careercast.ingest", "ingest_csv"): "ingest.ingest_csv",
    ("careercast.ingest", "parse_season_csv"): "ingest.parse_season_csv",
    ("careercast.ingest", "select_eligible_players"): "ingest.select_eligible_players",
    ("careercast.ingest", "impute_missing"): "ingest.impute_missing",
    ("careercast.ingest", "build_sequences"): "ingest.build_sequences",
    ("careercast.ingest", "split_and_normalize"): "ingest.split_and_normalize",
    ("careercast.artifacts", "write_json"): "artifacts.write_json",
    ("careercast.artifacts", "read_json"): "artifacts.read_json",
    ("careercast.artifacts", "file_hash"): "artifacts.file_hash",
    ("careercast.artifacts", "dataset_to_doc"): "artifacts.dataset_to_doc",
    ("careercast.artifacts", "dataset_from_doc"): "artifacts.dataset_from_doc",
    ("careercast.artifacts", "write_csv_table"): "artifacts.write_csv_table",
    ("careercast.artifacts", "write_run_info"): "artifacts.write_run_info",
    ("careercast.nn.serialize", "layer_to_doc"): "nn.serialize.layer_to_doc",
    ("careercast.nn.serialize", "layer_from_doc"): "nn.serialize.layer_from_doc",
    ("careercast.autoencoder", "ae_train"): "autoencoder.ae_train",
    ("careercast.clustering", "select_k"): "clustering.select_k",
    ("careercast.clustering", "kmeans_fit"): "clustering.kmeans_fit",
    ("careercast.clustering", "assign"): "clustering.assign",
    ("careercast.clustering", "silhouette_score"): "clustering.silhouette_score",
    ("careercast.forecaster", "forecaster_train"): "forecaster.forecaster_train",
    ("careercast.baselines", "last_value_predict"): "baselines.last_value_predict",
    ("careercast.baselines", "linear_fit"): "baselines.linear_fit",
    ("careercast.baselines", "linear_predict"): "baselines.linear_predict",
    ("careercast.baselines", "mlp_baseline_train"): "baselines.mlp_baseline_train",
    ("careercast.evaluation", "evaluate"): "evaluation.evaluate",
    ("careercast.evaluation", "export_curves"): "evaluation.export_curves",
    ("careercast.evaluation", "export_scatter"): "evaluation.export_scatter",
    ("careercast.synth", "write_csv"): "synth.write_csv",
}

# (module, class, method) -> span name; patched once on the class
METHODS = {
    ("careercast.nn.layers", "Dense", "forward"): "nn.Dense.forward",
    ("careercast.nn.layers", "Dense", "backward"): "nn.Dense.backward",
    ("careercast.nn.layers", "BatchNorm", "forward"): "nn.BatchNorm.forward",
    ("careercast.nn.layers", "BatchNorm", "backward"): "nn.BatchNorm.backward",
    ("careercast.nn.layers", "LSTM", "forward"): "nn.LSTM.forward",
    ("careercast.nn.layers", "LSTM", "backward"): "nn.LSTM.backward",
    ("careercast.nn.layers", "ReLU", "forward"): "nn.ReLU",
    ("careercast.nn.layers", "ReLU", "backward"): "nn.ReLU",
    ("careercast.nn.layers", "Dropout", "forward"): "nn.Dropout",
    ("careercast.nn.layers", "Dropout", "backward"): "nn.Dropout",
    ("careercast.nn.optim", "Adam", "step"): "nn.Adam.step",
    ("careercast.autoencoder", "Autoencoder", "encode"): "autoencoder.encode",
    ("careercast.forecaster", "Forecaster", "predict_batch"): "forecaster.predict_batch",
}

# train_loop is patched per caller, so each span knows which model it trains
TRAIN_LOOP_CALLERS = ("careercast.autoencoder", "careercast.forecaster", "careercast.baselines")
TRAINED_MODELS = ("autoencoder", "forecaster", "forecaster_standard", "mlp")


class Tracer:
    """Span and counter store for one traced pass; one trace id per command."""

    def __init__(self):
        self.spans = []  # (trace_id, span_id, parent_id, name, start_ns, end_ns)
        self.counts = defaultdict(float)  # (command, key) -> value
        self.hashed = set()  # (trace_id, path) pairs seen by artifacts.file_hash
        self.trace_id = 0
        self.current = None  # name of the command being traced
        self._stack = []

    def open(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.trace_id, span_id, parent, name, time.perf_counter_ns(), None])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id):
        self.spans[span_id][5] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span_id = self.open(name)
        try:
            yield
        finally:
            self.close(span_id)

    @contextlib.contextmanager
    def command(self, command):
        """Root span ``cli.<command>`` under a fresh trace id."""
        self.trace_id += 1
        self.current = command
        try:
            with self.span(f"cli.{command}"):
                yield
        finally:
            self.current = None

    def count(self, key, value=1):
        self.counts[(self.current, key)] += value

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans):
    """name -> (self seconds summed, calls), from the recorded spans alone."""
    child_ns = defaultdict(int)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    totals = defaultdict(lambda: [0.0, 0])
    for _, span_id, _, name, start, end in spans:
        entry = totals[name]
        entry[0] += (end - start - child_ns[span_id]) / 1e9
        entry[1] += 1
    return {name: tuple(v) for name, v in totals.items()}


def _dense_gflop(layer, batch, factor):
    return factor * 2.0 * batch * layer.n_in * layer.n_out / 1e9


def _lstm_gflop(layer, batch, steps, factor):
    return factor * 2.0 * batch * steps * (layer.n_in + layer.n_hidden) * 4 * layer.n_hidden / 1e9


def _hooks(tracer, originals):
    """Counters recorded after a wrapped call returns, keyed by span name."""

    def dense_fwd(args, kwargs, result):
        tracer.count("nn.Dense.gflop", _dense_gflop(args[0], args[1].shape[0], 1))

    def dense_bwd(args, kwargs, result):
        # weight gradient plus input gradient: two matmuls of the forward size
        tracer.count("nn.Dense.gflop", _dense_gflop(args[0], args[1].shape[0], 2))

    def lstm_fwd(args, kwargs, result):
        x = args[1]
        tracer.count("nn.LSTM.gflop", _lstm_gflop(args[0], x.shape[0], x.shape[1], 1))

    def lstm_bwd(args, kwargs, result):
        x = args[0]._x
        tracer.count("nn.LSTM.gflop", _lstm_gflop(args[0], x.shape[0], x.shape[1], 2))

    def adam_step(args, kwargs, result):
        tracer.count("nn.Adam.step.elements", sum(p.size for p in args[1]))

    def imputed(args, kwargs, result):
        tracer.count("ingest.imputed_cells", sum(len(rec.imputed) for rec in result))

    def file_bytes(key):
        def hook(args, kwargs, result):
            tracer.count(key, os.path.getsize(args[0]))

        return hook

    def file_hash(args, kwargs, result):
        tracer.hashed.add((tracer.trace_id, os.path.realpath(args[0])))

    replayed = set()  # trace ids whose first silhouette call was replayed

    def silhouette(args, kwargs, result):
        # Peak allocation, from a replay of the first call per command under
        # tracemalloc, so the timed call itself carries no tracing cost.
        if tracer.trace_id in replayed:
            return
        replayed.add(tracer.trace_id)
        with tracer.span("bench.silhouette_alloc_replay"):
            tracemalloc.start()
            try:
                originals["clustering.silhouette_score"](*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        key = "clustering.silhouette_score.alloc_peak_mb"
        tracer.counts[(None, key)] = max(tracer.counts[(None, key)], peak / 2**20)

    return {
        "nn.Dense.forward": dense_fwd,
        "nn.Dense.backward": dense_bwd,
        "nn.LSTM.forward": lstm_fwd,
        "nn.LSTM.backward": lstm_bwd,
        "nn.Adam.step": adam_step,
        "ingest.impute_missing": imputed,
        "artifacts.write_json": file_bytes("artifacts.write_json.bytes"),
        "artifacts.read_json": file_bytes("artifacts.read_json.bytes"),
        "artifacts.file_hash": file_hash,
        "clustering.silhouette_score": silhouette,
    }


def _wrap(tracer, name, fn, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span_id)
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return wrapper


def _epochs_hook(tracer, caller):
    """Counts epochs per trained model; the caller module tells which model it is."""

    def hook(args, kwargs, result):
        model = args[0]
        if caller == "careercast.forecaster":
            name = "forecaster" if model.k > 0 else "forecaster_standard"
        else:
            name = "autoencoder" if caller == "careercast.autoencoder" else "mlp"
        tracer.count(f"nn.train_loop.{name}.epochs", result.stopped_epoch)
        tracer.count(f"nn.train_loop.{name}.best_epochs", result.best_epoch)

    return hook


@contextlib.contextmanager
def instrument(tracer):
    """Patch every layer's functions and methods; restore them on exit."""
    for name in LAYER_MODULES:
        importlib.import_module(name)
    loaded = [m for n, m in list(sys.modules.items()) if n.startswith("careercast")]
    originals = {}
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    hooks = _hooks(tracer, originals)
    for (module, attr), span in FUNCTIONS.items():
        fn = getattr(sys.modules[module], attr)
        originals[span] = fn
        wrapped = _wrap(tracer, span, fn, hooks.get(span))
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    patch(mod, key, wrapped)
    for (module, cls_name, attr), span in METHODS.items():
        cls = getattr(sys.modules[module], cls_name)
        patch(cls, attr, _wrap(tracer, span, vars(cls)[attr], hooks.get(span)))
    for module in TRAIN_LOOP_CALLERS:
        mod = sys.modules[module]
        wrapped = _wrap(tracer, "nn.train_loop", mod.train_loop, _epochs_hook(tracer, module))
        patch(mod, "train_loop", wrapped)
    try:
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def layer_metrics(tracer):
    """Self time and call count per span, plus the counters, as a flat dict."""
    out = {}
    for name, (seconds, calls) in self_times(tracer.spans).items():
        if name.startswith("bench."):
            continue
        out[f"{name}.s"] = seconds
        out[f"{name}.calls"] = calls
    totals = defaultdict(float)
    for (_, key), value in tracer.counts.items():
        totals[key] += value
    out.update(totals)

    for model in TRAINED_MODELS:
        epochs = totals.get(f"nn.train_loop.{model}.epochs", 0.0)
        best = out.pop(f"nn.train_loop.{model}.best_epochs", 0.0)
        out[f"nn.train_loop.{model}.useful_epoch_ratio"] = best / epochs if epochs else 0.0
    calls = out.get("artifacts.file_hash.calls", 0)
    out["artifacts.file_hash.useful_ratio"] = len(tracer.hashed) / calls if calls else 0.0
    select_calls = out.get("clustering.select_k.calls", 0)
    out["clustering.silhouette_score.calls_per_select_k"] = (
        out.get("clustering.silhouette_score.calls", 0) / select_calls if select_calls else 0.0
    )
    predicts = out.get("cli.predict.calls", 0)
    read_in_predict = tracer.counts.get(("predict", "artifacts.read_json.bytes"), 0.0)
    out["artifacts.read_json.bytes_per_predict"] = read_in_predict / predicts if predicts else 0.0
    return out
