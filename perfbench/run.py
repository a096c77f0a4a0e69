"""The neqtemp benchmark: four report workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload bipartite-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one fresh process each

Each workload is a closed loop with one caller in one process: a report
starts only after the previous one returned, as when a script or the CLI
waits for each report. Inputs come from ``--seed`` (see ``inputs.py``) and
every report is checked against an independent reference (``reports.py``).

``--trace 0`` measures the end-to-end metrics with tracing off, with times
normalised to a reference host's speed (``hostspeed.py``). ``--trace 1``
alternates untraced and traced passes over the input pool and reports the
per-layer metrics of ``tracing.py`` plus the tracing overhead. Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and the run's metadata. Results and spans also go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1
#: A seed kept out of tuning, for confirming a claim on unseen inputs.
HELDOUT_SEED = 2
DEFAULT_SECONDS = 30
WORKLOAD_NAMES = ("bipartite-small", "bipartite-large", "thermo-batch", "basis-gibbs")

#: Fresh processes whose median gives setup_s. They run with one BLAS thread:
#: with two, OpenBLAS's worker thread spins during the import and competes
#: with the main thread, and set-up swings by a third with where the
#: scheduler happens to put the two.
SETUP_PROCESSES = 12
#: Seconds of reports between two host-speed samples in a timed run.
WINDOW_S = 0.5
#: Least report time in one block of whole rotations; reports_per_s is the
#: median rate over the blocks of a run, so that a stall of a second or two
#: does not move it.
BLOCK_S = 1.0
#: BLAS threads, fixed so that runs on machines with more cores compare.
#: numpy, and every benchmark module that imports it, is imported only after
#: main() has set this in the environment, hence the function-level imports.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("reports_per_s", "1/s"),
    ("report_p50_ms", "ms"),
    ("report_p90_ms", "ms"),
    ("correct_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("accuracy_headroom_dec", "dec"),
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- metadata -------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one (no parent lookup)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


# --- the loop -----------------------------------------------------------------


class Tally:
    """Failures and accuracy headroom over every checked report.

    ``headroom`` maps each pool input that has a numeric check to
    log10(bound / error) of its worst check. Errors are a fixed function of
    the input, so the median over the pool is deterministic at a seed. The
    median is the reported metric because the single worst input is
    heavy-tailed across seeds, and the mean is pulled about by the inputs
    whose error is exactly 0 (capped). The worst goes into the metadata.
    """

    def __init__(self, workload):
        from reports import HEADROOM_CAP, judge

        self.workload = workload
        self._judge = judge
        self._floor = -HEADROOM_CAP
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.headroom: dict[int, float] = {}

    def check(self, idx: int, item: dict, out, exc: Exception | None) -> None:
        if exc is None:
            try:
                fails, headroom = self._judge(*self.workload.check(item, out))
            except Exception as err:  # a malformed output is a failed report
                fails, headroom = [f"check raised {err!r}"], self._floor
        else:
            fails, headroom = [f"report raised {exc!r}"], self._floor
        if headroom is not None:
            self.headroom[idx] = min(headroom, self.headroom.get(idx, headroom))
        self.attempted += 1
        if fails:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"input": idx, "kind": str(item.get("kind")), "failures": fails})


def run_pass(workload, pool, tally: Tally, tracer=None, first_id: int = 0) -> float:
    """Run the pool once in order; returns the loop time without the checks."""
    perf = time.perf_counter
    start = perf()
    check_s = 0.0
    for idx, item in enumerate(pool):
        t0 = perf()
        try:
            if tracer is None:
                out = workload.report(item)
            else:
                out = tracer.run(first_id + idx, workload.report, item)
            exc = None
        except Exception as err:  # counted as a failed report, never hidden
            out, exc = None, err
        t1 = perf()
        tally.check(idx, item, out, exc)
        check_s += perf() - t1
    return perf() - start - check_s


def setup_once(workload: str, item_path: Path) -> float:
    """Seconds from the start of a fresh process to the end of its first report,
    with one BLAS thread."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), workload, str(item_path)],
        capture_output=True, text=True, timeout=150, cwd=ROOT, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["end"] - t0 - rec["load_s"]


def timed_run(workload, pool, tally: Tally, seconds: float, cycle: int, setup) -> dict:
    """Cycle the pool for ``seconds``, with set-up probes and host samples in between.

    The run stops at the first end of a ``cycle``-report rotation after
    ``seconds``, so that every run holds the same mix of inputs. Between
    reports, about every ``WINDOW_S``, ``hostspeed.sample()`` times a fixed
    piece of work, and ``SETUP_PROCESSES`` calls of ``setup()`` are spread
    evenly over the run, so that set-up is measured on the same host as the
    reports.

    Returns the report latencies, the set-up times and the host slowness
    samples.
    """
    import hostspeed

    perf = time.perf_counter
    latencies, setups = [], []
    slowness = [hostspeed.sample()]
    start = last = perf()
    i = 0
    while True:
        idx = i % len(pool)
        item = pool[idx]
        t0 = perf()
        try:
            out = workload.report(item)
            exc = None
        except Exception as err:  # counted as a failed report, never hidden
            out, exc = None, err
        t1 = perf()
        latencies.append(t1 - t0)
        tally.check(idx, item, out, exc)
        i += 1
        if t1 - last >= WINDOW_S:
            if len(setups) < SETUP_PROCESSES and t1 - start >= len(setups) * seconds / SETUP_PROCESSES:
                setups.append(setup())
            slowness.append(hostspeed.sample())
            last = perf()
        if perf() - start >= seconds and i % cycle == 0:
            break
    slowness.append(hostspeed.sample())
    while len(setups) < SETUP_PROCESSES:
        setups.append(setup())
    return {"latencies": latencies, "setup_s": setups, "slowness": slowness}


def block_rates(latencies: list[float], cycle: int) -> list[float]:
    """Reports per second of report time, in consecutive blocks of whole
    ``cycle``-report rotations lasting at least ``BLOCK_S`` each."""
    rates = []
    n, busy = 0, 0.0
    for i, x in enumerate(latencies, 1):
        n += 1
        busy += x
        if i % cycle == 0 and busy >= BLOCK_S:
            rates.append(n / busy)
            n, busy = 0, 0.0
    return rates or [n / busy]


def end_to_end(args, workload, pool, tally: Tally, workdir: Path, meta: dict) -> dict:
    """The end-to-end metrics, with tracing off.

    Times are divided by the host's median slowness over the run (see
    ``hostspeed``), so that they read as times on the reference host. The raw
    wall times go into the metadata and are printed, but not gated.
    """
    import inputs

    item_path = workdir / "setup-item.npz"
    inputs.save_item(pool[0], str(item_path))
    run_pass(workload, pool[:1], tally)  # the warm-up report, checked
    warm_failed = tally.failed
    cycle = inputs.CYCLE[args.workload]
    run = timed_run(workload, pool, tally, args.seconds, cycle,
                    lambda: setup_once(args.workload, item_path))
    lat = run["latencies"]
    correct = len(lat) - (tally.failed - warm_failed)
    rates = block_rates(lat, cycle)
    raw = {
        "setup_s": statistics.median(run["setup_s"]),
        "reports_per_s": statistics.median(rates) * correct / len(lat),
        "report_p50_ms": 1e3 * statistics.median(lat),
        "report_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
    }
    slowness = run["slowness"]
    factor = statistics.median(slowness)
    meta.update(
        raw=raw, setup_samples_s=run["setup_s"], samples=len(lat), rate_blocks=len(rates),
        inputs_checked=len(tally.headroom), accuracy_headroom_worst_dec=min(tally.headroom.values()),
        host_slowness=factor, host_slowness_range=[min(slowness), max(slowness)],
        host_samples=len(slowness),
    )
    return {
        "setup_s": raw["setup_s"] / factor,
        "reports_per_s": raw["reports_per_s"] * factor,
        "report_p50_ms": raw["report_p50_ms"] / factor,
        "report_p90_ms": raw["report_p90_ms"] / factor,
        "correct_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_headroom_dec": statistics.median(tally.headroom.values()),
    }


def traced(args, workload, pool, tally: Tally, meta: dict) -> dict:
    """The per-layer metrics: pairs of untraced and traced pool passes."""
    import tracing

    tracer = tracing.Tracer()
    run_pass(workload, pool[:1], tally)
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain_s += run_pass(workload, pool, tally)
        tracer.install()
        try:
            traced_s += run_pass(workload, pool, tally, tracer, passes * len(pool))
        finally:
            tracer.uninstall()
        tracer.fold()
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pair_start) > args.seconds:
            break
    metrics = tracer.layer_metrics(passes * len(pool))
    metrics["trace.overhead_frac"] = 1.0 - plain_s / traced_s
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(str(spans))
    meta.update(traced_reports=passes * len(pool), spans=str(spans.relative_to(ROOT)))
    return metrics


def run_workload(args) -> int:
    import numpy as np

    import inputs
    import reports
    import tracing

    workload = reports.WORKLOADS[args.workload]
    units = dict(END_TO_END) if args.trace == 0 else {n: u for n, u, _b in tracing.PER_LAYER}
    tally = Tally(workload)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        pool = inputs.make_pool(args.workload, args.seed)
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "load": "closed loop, 1 caller, 1 process",
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(np), "blas_threads": BLAS_THREADS, "setup_blas_threads": 1,
            "input_digest": inputs.digest(pool), "pool_size": len(pool), "git_commit": git_commit(),
        }
        if args.workload == "bipartite-small":
            inputs.write_documents(pool, str(workdir))
        if args.trace == 0:
            metrics = end_to_end(args, workload, pool, tally, workdir, meta)
        else:
            metrics = traced(args, workload, pool, tally, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta.update(failed_frac=tally.failed / tally.attempted, failures=tally.failures)
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:52s} {value:14.6g} {units[name]}")
    ungated = {"failed_frac": meta["failed_frac"]}
    if args.trace == 0:
        ungated.update({f"{k} (raw wall)": v for k, v in meta["raw"].items() if k in units})
        ungated.update(accuracy_headroom_worst_dec=meta["accuracy_headroom_worst_dec"],
                       host_slowness=meta["host_slowness"])
    for name, value in ungated.items():
        print(f"{args.workload:16s} {name:52s} {value:14.6g} (not gated)")
    print("meta " + json.dumps(meta))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"][name] = res["metrics"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "neqtemp" / "__init__.py").is_file():
        print(f"error: no neqtemp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import neqtemp

    if Path(neqtemp.__file__).resolve().parent != ROOT / "src" / "neqtemp":
        print(f"error: imported neqtemp from {neqtemp.__file__}, not this checkout", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
