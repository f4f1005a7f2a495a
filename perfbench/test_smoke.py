"""Smoke test of the benchmark itself (not part of the chshlab test suite).

    python3 -m pytest perfbench -q

A tiny-size run of every workload must print every metric BENCHMARK.json
names, with its unit, and the oracle must accept the real outputs and
flag deliberately corrupted ones.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from worker import invoke  # importing worker also puts src/ on sys.path
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_run_fails_without_the_program():
    bare = ROOT / ".perfbench" / "without-program"  # inside the checkout, which .gitignore excludes
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "config_sweep", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


def test_inputs_follow_the_seed():
    for workload in WORKLOADS:
        a, b, c = (generate(workload, seed, tiny=True) for seed in (1, 1, 2))
        assert a == b
        assert [op.argv for op in a] != [op.argv for op in c]
        assert sorted(op.kind for op in a) == sorted(op.kind for op in c)
        assert sum(op.trials for op in a) == sum(op.trials for op in c)


# One corruption per op kind: a parsed field and a change the oracle must flag.
CORRUPTIONS = {
    "correlate": ("correlation_matrix", 1e-9),
    "chsh_same-lambda_sign": ("estimate", 1.0),
    "chsh_independent_sign": ("estimate", 1.0),
    "chsh_independent_quantum-mimic": ("estimate", 1.0),
    "chsh_quantum": ("estimate", 1.0),
    "simulate": ("empirical_mean", 0.5),
    "constrained_eval": ("eight_variable_sum", 1e-9),
    "spectrum": ("eigenvalue", 1e-6),
    "scan": ("max_value", -1e-6),
}


def test_oracle_accepts_real_output_and_flags_corrupted_values():
    from chshlab import cli

    seen = set()
    for workload in WORKLOADS:
        for op in generate(workload, 3, tiny=True):
            if op.kind in seen:
                continue
            seen.add(op.kind)
            code, stdout, _ = invoke(cli.main, op.argv)
            doc = oracle.parse(stdout, op.argv[op.argv.index("--format") + 1])
            assert oracle.check_parsed(op, code, doc) == [], op.argv

            field, delta = CORRUPTIONS[op.kind]
            bad = copy.deepcopy(doc)
            row = next(r for r in bad["rows"] if r.get(field) is not None)
            row[field] += delta
            assert oracle.check_parsed(op, code, bad), (op.kind, field)

            bad = copy.deepcopy(doc)
            bad["status"] = "bogus"
            assert oracle.check_parsed(op, code, bad), op.kind
            assert oracle.check_parsed(op, code + 1, doc), op.kind
    assert seen == set(CORRUPTIONS)


def test_parsing_rejects_non_finite_tokens():
    with pytest.raises(oracle.OracleError):
        oracle.parse('{"config": {}, "rows": [{"x": NaN}], "status": "ok"}', "json")
    with pytest.raises(oracle.OracleError):
        oracle.parse('# config: {}\n# status: ok\nx,y\n1,inf\n', "csv")
    assert oracle.check(generate("config_sweep", 1, tiny=True)[0], 0, "not output")
