"""Self-test of the benchmark on a seconds-long scene.

Runs ``bench/run.py`` on the ``tiny`` workload, untraced and traced, and
checks that every metric BENCHMARK.json declares is printed with its unit,
that every round passes its output checks, and that the traced
re-enactment's outputs are byte-identical to ``run_teacher``'s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    assert {name: printed.get(name) for name in units} == units
    if trace:
        assert any(line.endswith("fidelity ok, traced outputs byte-identical to run_teacher's")
                   for line in lines)
