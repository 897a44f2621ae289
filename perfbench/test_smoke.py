"""Fast smoke check of the benchmark itself, at tiny sizes.

Every workload runs once untraced and once traced; each must print every
metric named in BENCHMARK.json with its unit, run its checks and pass
them.  Without the source tree the benchmark must refuse to run.

    python3 perfbench/test_smoke.py
    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_every_metric_reported_and_checks_pass():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", workload["name"], "--seed", "7",
                        "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
            assert proc.returncode == 0, proc.stderr[-2000:]
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == RESULT_KEYS
            assert res["correct"] and res["failed"] == 0, proc.stdout[-2000:]
            assert res["attempted"] > 1  # the workload's checks ran
            want = {m["name"]: m["unit"] for m in spec[kind]}
            assert {k: v["unit"] for k, v in res["metrics"].items()} == want
            assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_refuses_without_source_tree():
    (ROOT / ".perfbench_run").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_run"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "sampling", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    test_every_metric_reported_and_checks_pass()
    test_refuses_without_source_tree()
    print("benchmark smoke check passed")
