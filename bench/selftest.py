"""Fast self-test of the benchmark: every workload at a short horizon, in
both modes, with all its checks; then that the checks catch a corrupted
run.csv, and that the benchmark refuses to run without the sources.

    python3 bench/selftest.py

Exits 0 when everything holds; takes about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# live_riccati needs about 1.5k steps before its param_err halves
HORIZONS = {"live_riccati": 2000}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(proc, names, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}\n{proc.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert sorted(result["metrics"]) == sorted(names), f"{label}: {sorted(result['metrics'])}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (label, name)
        assert m["unit"] == names[name], (label, name)


def corrupted_csv_is_caught():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import checks

    out = BENCH / "out" / "opinion"
    cfg = json.loads((out / "config.json").read_text())
    lines = (out / "run.csv").read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    row = lines[10].split(",")
    j = header.index("w0")
    row[j] = repr(float(row[j]) + 1e-9)
    lines[10] = ",".join(row)
    bad = out / "corrupted.csv"
    bad.write_text("".join(lines))
    try:
        checks.check_run(bad, out / "run_manifest.json", cfg)
    except checks.CheckFailure as exc:
        assert "plant replay" in str(exc), exc
    else:
        raise AssertionError("a corrupted noise column passed the checks")


def refuses_without_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "opinion", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        name = w["name"]
        horizon = str(HORIZONS.get(name, 300))
        for trace, names in (("0", e2e), ("1", layers)):
            label = f"{name} --trace {trace}"
            proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", trace, "--horizon", horizon)
            check_result(proc, names, label)
            print(f"ok  {label}")
        if name == "opinion":
            corrupted_csv_is_caught()
            print("ok  a corrupted run.csv fails the checks")
    refuses_without_sources()
    print("ok  refuses to run without src/nadac")


if __name__ == "__main__":
    main()
