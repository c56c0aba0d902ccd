"""careercast benchmark: drives the ``careercast`` CLI from outside.

    python3 benchmarks/run.py --workload pipeline-1000 --seed 1 --seconds 10 --trace 0

Every workload's inputs come from ``--seed``; the program receives only the
generated CSV and the CLI's ``--seed``; ``stage1`` and ``stage2`` also get
``bench_config.json``, which fixes their epoch counts (see README.md). Each
CLI command runs as its own child process, timed from launch to exit, with
its peak RSS taken from that child's own rusage. Set-up is repeated five
times and reported as a median; measured passes repeat until ``--seconds``
have elapsed (at least one pass) and the fastest is reported. With ``--trace 1`` the run then repeats one
pass in-process through ``careercast.cli.main`` with every layer wrapped by
``spans.instrument`` and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``. The lines before it list every figure
measured, by name and unit. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CONFIG = BENCH_DIR / "bench_config.json"
# the commands that get CONFIG: their models train for a fixed number of epochs
CONFIG_COMMANDS = ("stage1", "stage2")

BLAS_THREADS = 1  # fixed, and never more than nproc
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
PREDICT_TOLERANCE = 1e-9
# the forecasters whose test MAE must stay below every baseline's on pipeline-1000
LSTM_MODELS = ("proposed", "standard_lstm")
TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile

# measured commands of one pipeline pass, in order: (name, argv after the program)
PIPELINE = (
    ("ingest", ["ingest"]),
    ("stage1", ["stage1"]),
    ("stage2", ["stage2"]),
    ("stage2_standard", ["stage2", "--standard"]),
    ("evaluate", ["evaluate"]),
)
# which command writes each artifact, to charge a determinism failure to it
PRODUCER = {
    "dataset.json": "ingest",
    "autoencoder.json": "stage1",
    "clusters.json": "stage1",
    "reports/silhouette.csv": "stage1",
    "forecaster.json": "stage2",
    "forecaster_standard.json": "stage2_standard",
    "reports/predictions.csv": "predict",
}


class SetupError(Exception):
    """Set-up could not produce the workload's inputs; no result is printed."""


@dataclasses.dataclass
class Op:
    """One measured CLI call."""

    command: str
    seconds: float
    peak_rss_mb: float
    pass_index: int
    ok: bool
    traced: bool = False


@dataclasses.dataclass
class Workload:
    name: str
    body: object  # callable(Run)
    stars: int
    regulars: int
    predict_players: int = 0  # per split, predict workload only


def pin_threads(env):
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


class Spawner:
    """Runs children one at a time through ``spawner.py``, a process kept small."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, env, log_dir):
        """One child; returns (returncode, seconds, peak RSS MB, stdout, stderr)."""
        out_path, err_path = log_dir / "child.out", log_dir / "child.err"
        request = {"argv": argv, "env": env, "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        # ru_maxrss is in KiB on Linux
        return reply["code"], reply["seconds"], reply["maxrss_kb"] / 1024.0, stdout, stderr

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def tree_digest(directory, skip=("run_info.json",)):
    """relative path -> SHA-256 for every file under ``directory``."""
    out = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file() and path.name not in skip:
            out[path.relative_to(directory).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def code_hash():
    """Digest of the program and benchmark sources, to key stored digests."""
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(path.relative_to(ROOT).as_posix().encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        return None, None
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Run:
    """State of one benchmark invocation: measured calls, checks, figures."""

    def __init__(self, workload, seed, seconds, trace, work, spawner):
        self.workload = workload
        self.spawner = spawner
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.env = pin_threads(dict(os.environ))
        self.env["PYTHONPATH"] = str(SRC)
        self.ops = []
        self.problems = []
        self.setup_times = []
        self.figures = {}  # name -> (value, unit), reported beside the metrics
        self.layer = {}  # per-layer metrics of the traced pass
        self.reference = None  # artifact digests of the first measured pass
        self.traced_calls = {}  # command -> traced call seconds in the traced pass
        self.stored_path = WORK / "digests" / f"{workload.name}-s{seed}-{code_hash()}.json"
        self.stored = json.loads(self.stored_path.read_text()) if self.stored_path.exists() else None

    # -- child processes -------------------------------------------------
    def argv(self, args, out):
        config = ["--config", str(CONFIG)] if args[0] in CONFIG_COMMANDS else []
        return [*args, "--out", str(out), "--seed", str(self.seed), *config]

    def child(self, args, out):
        Path(out).mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, "-m", "careercast.cli", *self.argv(args, out)]
        return self.spawner.run(cmd, self.env, self.logs)

    def setup_cli(self, args, out):
        code, _, _, _, stderr = self.child(args, out)
        if code != 0:
            raise SetupError(f"set-up command {args[0]} exited {code}: {stderr.strip()[-500:]}")

    def measure(self, command, args, out, pass_index):
        code, seconds, rss, stdout, stderr = self.child(args, out)
        op = Op(command, seconds, rss, pass_index, ok=True)
        self.ops.append(op)
        if code != 0:
            self.fail(op, f"exit {code}: {stderr.strip()[-300:]}")
        return op, stdout

    def fail(self, op, why):
        op.ok = False
        self.problems.append(f"{op.command} (pass {op.pass_index}): {why}")

    # -- structure of a run ------------------------------------------------
    def setup(self, build):
        """Build the inputs SETUP_REPEATS times; returns the first copy's directory."""
        dirs = []
        for i in range(SETUP_REPEATS):
            d = self.work / f"setup{i}"
            d.mkdir(parents=True)
            start = time.perf_counter()
            build(d)
            self.setup_times.append(time.perf_counter() - start)
            dirs.append(d)
        first = tree_digest(dirs[0])
        for d in dirs[1:]:
            if tree_digest(d) != first:
                raise SetupError(f"repeated set-ups differ: {dirs[0].name} vs {d.name}")
        return dirs[0]

    def passes(self, one_pass):
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < self.seconds:
            one_pass(index)
            index += 1

    def check_digests(self, out, ops, source):
        """Artifacts must match the first pass and any earlier run of this seed."""
        digests = tree_digest(out)
        if self.reference is None:
            self.reference = digests
        for label, expect in (("the first pass", self.reference), ("an earlier run", self.stored)):
            if expect is None:
                continue
            for name in sorted(set(digests) | set(expect)):
                if digests.get(name) != expect.get(name):
                    op = ops.get(PRODUCER.get(name, "evaluate")) or next(iter(ops.values()))
                    self.fail(op, f"{source}: {name} differs from {label}")

    # -- traced pass ---------------------------------------------------------
    def traced(self, tracer, command, args, out, pass_index=None):
        """One in-process CLI call under ``tracer``; measured when pass_index is set."""
        from careercast import cli

        Path(out).mkdir(parents=True, exist_ok=True)
        with tracer.command(command), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(self.argv(args, out))
            seconds = time.perf_counter() - start
        self.traced_calls.setdefault(command, []).append(seconds)
        if pass_index is None:
            if code != 0:
                raise SetupError(f"traced set-up command {args[0]} exited {code}")
            return None
        op = Op(command, seconds, 0.0, pass_index, ok=True, traced=True)
        self.ops.append(op)
        if code != 0:
            self.fail(op, f"traced call exited {code}")
        return op

    def traced_pass(self, body):
        """Run ``body(tracer)`` with every layer instrumented; keep per-layer metrics."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import spans

        tracer = spans.Tracer()
        with spans.instrument(tracer):
            body(tracer)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{self.workload.name}-s{self.seed}.spans.jsonl")
        self.layer = spans.layer_metrics(tracer)
        startup = self.layer["cli.startup_s"] = self.startup_seconds()
        untraced = self.command_seconds()
        for command, seconds in self.traced_calls.items():
            if command in untraced:
                # the traced call runs in this process, so it skips start-up
                in_process = untraced[command] - startup
                self.layer[f"cli.{command}.overhead_s"] = statistics.mean(seconds) - in_process

    def startup_seconds(self):
        """Median child wall time of ``import careercast.cli`` alone."""
        times = []
        for _ in range(STARTUP_REPEATS):
            code, seconds, _, _, stderr = self.spawner.run(
                [sys.executable, "-c", "import careercast.cli"], self.env, self.logs
            )
            if code != 0:
                raise SetupError(f"import careercast.cli failed: {stderr.strip()[-300:]}")
            times.append(seconds)
        return statistics.median(times)

    # -- figures -------------------------------------------------------------
    def command_seconds(self):
        """command -> median wall time of one untraced call of it."""
        by_command = {}
        for op in self.ops:
            if not op.traced:
                by_command.setdefault(op.command, []).append(op.seconds)
        return {c: statistics.median(v) for c, v in by_command.items()}

    def end_to_end(self):
        untraced = [op for op in self.ops if not op.traced]
        by_pass = {}
        for op in untraced:
            by_pass[op.pass_index] = by_pass.get(op.pass_index, 0.0) + op.seconds
        return {
            "setup_s": statistics.median(self.setup_times),
            # the fastest pass: other tenants of a shared machine only add time
            "pass_s": min(by_pass.values()),
            "peak_rss_mb": max(op.peak_rss_mb for op in untraced),
        }

    def stage_figures(self):
        for command, seconds in self.command_seconds().items():
            self.figures[f"{command}_s"] = (seconds, "s")


# -- workloads -----------------------------------------------------------------
def synth_args(workload):
    return ["synth", "--stars", str(workload.stars), "--regulars", str(workload.regulars)]


def check_kept(run, op, stdout, n_players):
    match = re.search(r"kept (\d+) of (\d+) players", stdout)
    if op.ok and (match is None or int(match.group(1)) != n_players):
        run.fail(op, f"ingest kept {match.group(1) if match else '?'} of {n_players} players")


def check_comparison(run, op, path):
    """comparison.csv must hold six rows of finite numbers, and both LSTM
    forecasters must beat every baseline on test MAE; returns test MAE by model."""
    if not op.ok:
        return {}
    try:
        rows = read_csv_rows(path)
    except FileNotFoundError:
        run.fail(op, "comparison.csv missing")
        return {}
    numeric = ("train_mae", "test_mae", "train_r2", "test_r2")
    bad = [
        r.get("model") for r in rows
        if not all((k.endswith("r2") and r.get(k) == "") or _finite(r.get(k)) for k in numeric)
    ]
    if len(rows) != 6 or bad:
        run.fail(op, f"comparison.csv has {len(rows)} rows, non-finite: {bad}")
        return {}
    mae = {r["model"]: float(r["test_mae"]) for r in rows}
    best_baseline = min(v for m, v in mae.items() if m not in LSTM_MODELS)
    worse = {m: mae.get(m) for m in LSTM_MODELS if not mae.get(m, math.inf) < best_baseline}
    if worse:
        run.fail(op, f"test MAE {worse} not below the best baseline's {best_baseline}")
    return mae


def _finite(text):
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def pipeline_commands(csv_path):
    for name, args in PIPELINE:
        yield name, args + (["--input", str(csv_path)] if name == "ingest" else [])


def run_pipeline(run):
    w = run.workload
    base = run.setup(lambda d: run.setup_cli(synth_args(w), d))
    n_players = w.stars + w.regulars
    maes = []

    def one_pass(i):
        out = run.work / f"pass{i}"
        ops = {}
        for name, args in pipeline_commands(base / "synthetic.csv"):
            ops[name], stdout = run.measure(name, args, out, i)
            if name == "ingest":
                check_kept(run, ops[name], stdout, n_players)
        maes.append(check_comparison(run, ops["evaluate"], out / "reports" / "comparison.csv"))
        run.check_digests(out, ops, f"pass {i}")

    run.passes(one_pass)
    run.stage_figures()
    run.figures["pipeline_s"] = (run.end_to_end()["pass_s"], "s")
    maes = [m for m in maes if m]
    if maes:
        run.figures["proposed_test_mae"] = (statistics.median(m["proposed"] for m in maes), "BPM")
        run.figures["standard_test_mae"] = (statistics.median(m["standard_lstm"] for m in maes), "BPM")
        best_baseline = [min(v for k, v in m.items() if k not in LSTM_MODELS) for m in maes]
        run.figures["best_baseline_test_mae"] = (statistics.median(best_baseline), "BPM")

    if run.trace:
        def body(tracer):
            setup, out = run.work / "trace_setup", run.work / "trace"
            run.traced(tracer, "synth", synth_args(w), setup)
            ops = {
                name: run.traced(tracer, name, args, out, pass_index=-1)
                for name, args in pipeline_commands(setup / "synthetic.csv")
            }
            run.check_digests(out, ops, "traced pass")

        run.traced_pass(body)


def run_ingest_gappy(run):
    from gaps import make_gaps

    w = run.workload
    gaps = {}

    def build(d):
        run.setup_cli(synth_args(w), d)
        gaps.update(make_gaps(d / "synthetic.csv", d / "gappy.csv", run.seed))

    base = run.setup(build)
    run.figures["blanked_cells"] = (gaps["blanked_cells"], "count")
    run.figures["deleted_rows"] = (gaps["deleted_rows"], "count")
    n_players = w.stars + w.regulars
    ingest = ["ingest", "--input", str(base / "gappy.csv")]

    def one_pass(i):
        out = run.work / f"pass{i}"
        op, stdout = run.measure("ingest", ingest, out, i)
        check_kept(run, op, stdout, n_players)
        run.check_digests(out, {"ingest": op}, f"pass {i}")

    run.passes(one_pass)
    run.stage_figures()

    if run.trace:
        def body(tracer):
            setup, out = run.work / "trace_setup", run.work / "trace"
            run.traced(tracer, "synth", synth_args(w), setup)
            make_gaps(setup / "synthetic.csv", setup / "gappy.csv", run.seed)
            args = ["ingest", "--input", str(setup / "gappy.csv")]
            op = run.traced(tracer, "ingest", args, out, pass_index=-1)
            run.check_digests(out, {"ingest": op}, "traced pass")

        run.traced_pass(body)


def run_predict(run):
    w = run.workload

    def build(d):
        run.setup_cli(synth_args(w), d)
        run.setup_cli(["ingest", "--input", str(d / "synthetic.csv")], d)
        run.setup_cli(["stage1"], d)
        run.setup_cli(["stage2"], d)
        run.setup_cli(["evaluate", "--models", "proposed"], d)

    base = run.setup(build)
    with open(base / "dataset.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    rng = random.Random(f"predict.{run.seed}")
    test_ids = sorted(s["player_id"] for s in doc["test"])
    train_ids = sorted(s["player_id"] for s in doc["train"])
    players = rng.sample(test_ids, w.predict_players) + rng.sample(train_ids, w.predict_players)
    rng.shuffle(players)
    expected = {}
    for row in read_csv_rows(base / "reports" / "proposed_curves_player.csv"):
        expected.setdefault(row["series"], []).append(float(row["predicted"]))
    for row in read_csv_rows(base / "reports" / "comparison.csv"):
        run.figures["proposed_test_mae"] = (float(row["test_mae"]), "BPM")

    def check_prediction(op, out, pid):
        if not op.ok:
            return
        got = [
            float(r["predicted"])
            for r in read_csv_rows(out / "reports" / "predictions.csv")
            if r["series"] == pid
        ]
        want = expected.get(pid)
        if len(got) != 3 or not all(math.isfinite(v) for v in got):
            run.fail(op, f"{pid}: predictions.csv holds {got}")
        elif want is not None and max(abs(a - b) for a, b in zip(got, want)) > PREDICT_TOLERANCE:
            run.fail(op, f"{pid}: predicted {got}, evaluate wrote {want}")

    def one_sweep(i):
        ops = {}
        for j, pid in enumerate(players):
            # each call is a pass of its own, so pass_s is the fastest call
            index = i * len(players) + j
            ops["predict"], _ = run.measure("predict", ["predict", "--player", pid], base, index)
            check_prediction(ops["predict"], base, pid)
        run.check_digests(base, ops, f"sweep {i}")

    run.passes(one_sweep)
    calls = [op.seconds for op in run.ops if op.command == "predict" and not op.traced]
    run.figures["predict_p50_s"] = (statistics.median(calls), "s")
    value, percentile = tail(calls)
    if value is not None:
        run.figures["predict_tail_s"] = (value, "s")
        run.figures["predict_tail_percentile"] = (percentile, "%")
    run.figures["predict_calls"] = (len(calls), "count")

    if run.trace:
        def body(tracer):
            out = run.work / "trace"
            shutil.copytree(base, out)
            run.traced(tracer, "synth", synth_args(w), run.work / "trace_setup")
            ops = {}
            for pid in players:
                ops["predict"] = run.traced(
                    tracer, "predict", ["predict", "--player", pid], out, pass_index=-1
                )
                check_prediction(ops["predict"], out, pid)
            run.check_digests(out, ops, "traced pass")

        run.traced_pass(body)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline-1000", run_pipeline, stars=150, regulars=850),
        Workload("ingest-gappy-1000", run_ingest_gappy, stars=150, regulars=850),
        Workload("predict-200", run_predict, stars=30, regulars=170, predict_players=10),
    )
}


def environment():
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
    }


def execute(workload, seed, seconds, trace, spec):
    """Run one workload; returns (result line dict, full record dict)."""
    work = WORK / f"run-{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spawner = Spawner()
    run = Run(workload, seed, seconds, trace, work, spawner)
    try:
        workload.body(run)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in run.ops if not op.ok)
    attempted = len(run.ops)
    if failed == 0 and run.stored is None and run.reference is not None:
        run.stored_path.parent.mkdir(parents=True, exist_ok=True)
        run.stored_path.write_text(json.dumps(run.reference, indent=1, sort_keys=True))

    e2e = run.end_to_end()
    section = "per_layer" if trace else "end_to_end"
    values = run.layer if trace else e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec[section]}
    run.figures.update({k: (v, u) for k, v, u in (
        ("setup_s", e2e["setup_s"], "s"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("failed_share", failed / attempted, "ratio"),
    )})
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "result": line,
        "end_to_end": e2e,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in sorted(run.figures.items())},
        "per_layer": dict(sorted(run.layer.items())),
        "calls": [dataclasses.asdict(op) for op in run.ops],
        "problems": run.problems,
    }
    return line, record


def print_report(record):
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    env = record["environment"]
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, fig in record["figures"].items():
        print(f"{name} {fig['value']:.6g} {fig['unit']}")
    for name, value in record["per_layer"].items():
        print(f"{name} {value:.6g}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "careercast" / "cli.py").is_file():
        print(f"error: no careercast sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pin_threads(os.environ)  # before numpy loads in this process
    try:
        line, record = execute(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, spec)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print_report(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
