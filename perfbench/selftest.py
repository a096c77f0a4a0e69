"""Self-test of the benchmark itself; run from the repository root::

    python3 perfbench/selftest.py

Checks that

* two traced runs at one seed give identical ``*.calls`` and ``*.useful_frac``
  on every workload;
* a deliberately wrong report (a perturbed beta) is counted as failed;
* every metric of BENCHMARK.json appears in the output with its unit;
* in a directory holding only BENCHMARK.json and the benchmark, the run exits
  non-zero without printing a result.

Exits 0 when every check holds and prints one line per check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                          timeout=600, cwd=cwd)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_trace_counts_repeat(workload: str) -> None:
    runs = [result(bench_run("--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", "1"))
            for _ in range(2)]
    counted = [k for k in runs[0]["metrics"] if k.endswith((".calls", ".useful_frac"))]
    differ = [k for k in counted if runs[0]["metrics"][k] != runs[1]["metrics"][k]]
    assert not differ, f"{workload}: counts differ between runs: {differ}"
    assert runs[0]["metrics"]["linalg.HermitianOperator.calls"]["value"] > 0


def check_perturbed_report_fails() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import inputs
    import reports
    from run import Tally, run_pass

    cases = (
        ("thermo-batch", reports.report_thermo, lambda out: (out[0] * (1 + 1e-6), *out[1:]),
         [p for p in inputs.make_pool("thermo-batch", 7) if p["kind"] == "gibbs"][:3]),
        ("bipartite-large", reports.report_large, lambda out: {**out, "beta_SB": out["beta_SB"] + 1e-6},
         [inputs.two_qubit_point(inputs.rng_for("bipartite-small", 7)) for _ in range(3)]),
    )
    for name, report, perturb, pool in cases:
        check = reports.WORKLOADS[name].check
        wrong_once = reports.Workload(
            name, lambda item, report=report, perturb=perturb: perturb(report(item))
            if item is pool[1] else report(item), check)
        tally = Tally(wrong_once)
        run_pass(wrong_once, pool, tally)
        assert (tally.attempted, tally.failed) == (3, 1), f"{name}: {tally.attempted} attempted, {tally.failed} failed"
        assert tally.failures[0]["input"] == 1, tally.failures


def check_metrics_and_units() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        res = result(bench_run("--workload", "thermo-batch", "--seed", "7", "--seconds", "1", "--trace", trace))
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want, f"trace {trace}: metrics {sorted(set(got) ^ set(want))} or units differ"
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res


def check_bare_directory_fails() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "thermo-batch", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    checks = [(f"traced counts repeat on {w}", lambda w=w: check_trace_counts_repeat(w))
              for w in ("bipartite-small", "bipartite-large", "thermo-batch", "basis-gibbs")]
    checks += [
        ("a perturbed beta is a failed report", check_perturbed_report_fails),
        ("every metric appears with its unit", check_metrics_and_units),
        ("a directory without the package fails", check_bare_directory_fails),
    ]
    failed = 0
    for name, fn in checks:
        try:
            fn()
            print(f"ok    {name}", flush=True)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
