"""speechrag benchmark: closed-loop CLI workloads, timed from outside the package.

    python3 bench/run.py --workload train-cycle --seed 7 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload, each in a fresh process

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a separate
traced run that wraps the package's functions and reports the per-layer
metrics. Every run checks its outputs, and the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Working files live under ``.bench_work/`` at the checkout root and each run
deletes its own; the results and span files stay there.
"""

from __future__ import annotations

import os
import sys

# The BLAS thread count is pinned before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3
# The traced run repeats its unit untraced for the byte comparison and the
# overhead, so it searches less; no latency percentile comes from it.
TRACE_SEARCH_CALLS = 20


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics a run prints, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _import_program():
    """Import speechrag from this checkout's sources, and only from there."""
    if not (SRC / "speechrag").is_dir():
        raise SystemExit(f"bench: no speechrag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import speechrag

    if Path(speechrag.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: speechrag imported from {speechrag.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def import_seconds(session) -> float:
    """Wall time of a cold ``import speechrag.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import speechrag.cli"], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    session.check(proc.returncode == 0, f"import speechrag.cli: {proc.stderr.decode()[-200:]}")
    return elapsed


def _program_key(workload: str, seed: int) -> str:
    import numpy as np

    digest = hashlib.sha256(f"{workload}:{seed}:{np.__version__}".encode())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:24]


def _compare(session, reference: dict, outputs: dict, what: str) -> None:
    changed = sorted(k for k in set(reference) | set(outputs) if reference.get(k) != outputs.get(k))
    session.check(not changed, f"{what}: outputs differ in {changed[:5]}")


def check_across_runs(session, workload: str, seed: int, outputs: dict) -> None:
    """Every run of one program version and seed must leave the same bytes."""
    store = WORK / "digests" / f"{_program_key(workload, seed)}.json"
    if store.exists():
        _compare(session, json.loads(store.read_text()), outputs, "an earlier run")
        return
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(outputs, indent=1, sort_keys=True))
    os.replace(tmp, store)


def measure(wl, seed: int, seconds: float, session, run_dir: Path) -> tuple[dict, dict]:
    """Untraced run: SETUPS set-ups and units until `seconds` of units have
    passed. The set-ups are spread over the run (the first before any unit,
    the others at a unit's pauses once a half and all of `seconds` have
    passed), because the host's CPU speed drifts over tens of seconds and a
    median of samples taken together would follow that drift."""
    import stats
    import workloads

    setup_s, setup_times, setup_outputs = [], [], []

    def set_up() -> Path:
        i = len(setup_s)
        target = run_dir / f"setup{i}"
        target.mkdir()
        cold_import = import_seconds(session)
        start = time.perf_counter()
        with workloads.chdir(target):
            setup_times.append(workloads.setup(wl, seed, session))
        setup_s.append(cold_import + time.perf_counter() - start)
        setup_outputs.append(workloads.digests(target))
        if i:
            _compare(session, setup_outputs[0], setup_outputs[i], f"set-up {i}")
            shutil.rmtree(target)
        return target

    work_dir = set_up()
    units, unit_outputs = [], None
    started, paused = time.perf_counter(), 0.0

    def unit_seconds() -> float:
        return time.perf_counter() - started - paused

    def pause() -> None:
        nonlocal paused
        if len(setup_s) < SETUPS and unit_seconds() >= seconds * len(setup_s) / (SETUPS - 1):
            start = time.perf_counter()
            set_up()
            paused += time.perf_counter() - start

    with workloads.chdir(work_dir):
        while not units or unit_seconds() < seconds:
            units.append(workloads.unit(wl, session, len(units) * workloads.SEARCH_CALLS,
                                        workloads.SEARCH_CALLS, pause))
            outputs = workloads.digests(work_dir)
            if unit_outputs is None:
                unit_outputs = outputs
            else:
                _compare(session, unit_outputs, outputs, f"unit {len(units)}")
        while len(setup_s) < SETUPS:
            set_up()
        for u in units:
            workloads.check_rankings(wl, session, u["rankings"])
        quality = workloads.check_reports(wl, session)
        audio_s = workloads.audio_seconds(wl)
    check_across_runs(session, wl.name, seed, unit_outputs)

    def unit_median(command):
        return stats.median(u["times"][command] for u in units)

    train_times = setup_times if wl.train_in_setup else [u["times"] for u in units]
    search_s = [s for u in units for s in u["search_s"]]
    metrics = {
        "setup_s": stats.median(setup_s),
        "cycle_s": stats.median(sum(u["times"].values()) for u in units),
        "search_mean_ms": 1000.0 * sum(search_s) / len(search_s),
        "search_p95_ms": 1000.0 * stats.tail_percentile(search_s, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Figures reported but not bounded. On train-cycle each eval stage lasts
    # under 0.4 s and their ten-seed spread reached the 0.25 bound limit.
    # train_s is a median of three set-up trainings on retrieval-2k, whose
    # ten-seed spread reached 0.30; cycle_s on train-cycle and setup_s on
    # retrieval-2k bound the training time. The host runs at two CPU speeds
    # about 1.45x apart, so search latency is bimodal and its median jumps
    # between the modes (ten-seed spread up to 0.26); the mean is bounded.
    stages = {
        "train_s": (stats.median(t["train"] for t in train_times), "s"),
        "search_p50_ms": (1000.0 * stats.median(search_s), "ms"),
        "embed_audio_s_per_s": (audio_s / unit_median("embed"), "s/s"),
        "eval_retrieval_s": (unit_median("eval-retrieval"), "s"),
        "noise_sweep_s": (unit_median("noise-sweep"), "s"),
        "eval_generation_s": (unit_median("eval-generation"), "s"),
    }
    detail = {"units": len(units), "search_samples": len(search_s), "setup_s": setup_s,
              "stages": stages, "unit_times": [u["times"] for u in units], "quality": quality}
    return metrics, detail


def measure_traced(wl, seed: int, session, run_dir: Path, spans_path: Path) -> tuple[dict, dict]:
    """Traced run: one set-up and unit untraced, then the same traced; the
    outputs must match byte for byte and every call count must be exact."""
    import layers
    import workloads
    from speechrag import cli
    from tracer import Tracer

    def set_up_and_run(target: Path) -> dict:
        target.mkdir()
        with workloads.chdir(target):
            workloads.setup(wl, seed, session)
            return workloads.unit(wl, session, 0, TRACE_SEARCH_CALLS)

    plain = set_up_and_run(run_dir / "untraced")
    tracer = Tracer("speechrag")
    tracer.install(layers.TARGETS + layers.command_targets(cli))
    try:
        missed = tracer.unwrapped_bindings()
        session.check(not missed, f"tracer missed bindings: {missed}")
        traced = set_up_and_run(run_dir / "traced")
    finally:
        tracer.restore()
    plain_outputs = workloads.digests(run_dir / "untraced")
    _compare(session, plain_outputs, workloads.digests(run_dir / "traced"), "traced run")
    check_across_runs(session, wl.name, seed, plain_outputs)

    aggregate = tracer.aggregate()
    with workloads.chdir(run_dir / "traced"):
        for name, calls in workloads.expected_calls(wl, TRACE_SEARCH_CALLS).items():
            got = aggregate.get(name, {"calls": 0})["calls"]
            session.check(got == calls, f"{name}: {got} calls traced, {calls} expected")
        workloads.check_rankings(wl, session, traced["rankings"])
        quality = workloads.check_reports(wl, session)
    tracer.write(spans_path)

    metrics = layers.span_metrics(tracer)
    metrics.update({
        "ragpipe.recall5_speech": quality["recall5_speech"],
        "ragpipe.recall5_cascaded": quality["recall5_cascaded"],
        "ragpipe.recall5_speech_noisy": quality["recall5_speech_noisy"],
        "training.best_val_loss": quality["best_val_loss"],
        "trace.overhead_s": sum(traced["times"].values()) - sum(plain["times"].values()),
    })
    redone = 1.0 - 1.0 / metrics["dsp.logmel.calls_per_passage"]
    return metrics, {"spans": len(tracer.spans), "logmel_redone_share": redone, "quality": quality}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name]
    session = workloads.Session()
    runs = WORK / "runs"
    # A run stopped from outside cannot clean up after itself; the next does.
    shutil.rmtree(runs, ignore_errors=True)
    run_dir = runs / f"{name}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        if trace:
            metrics, detail = measure_traced(wl, seed, session, run_dir, results / f"{stem}.spans.jsonl")
        else:
            metrics, detail = measure(wl, seed, seconds, session, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "detail": detail, "failures": session.failures,
        "result": {
            "correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in metric_units(trace).items()},
        },
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def print_record(record: dict) -> None:
    result = record["result"]
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    detail = record["detail"]
    if not record["trace"]:
        for name, (value, unit) in detail["stages"].items():
            print(f"  {name:48s} {value:14.6g} {unit} (reported, not bounded)")
        print(f"  search samples: {detail['search_samples']}")
    print(f"  quality: {json.dumps(detail['quality'], sort_keys=True)}")
    for failure in record["failures"][:20]:
        print(f"  FAILED: {failure}")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS and import state
    do not carry over; the last line merges their results."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps(record["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
