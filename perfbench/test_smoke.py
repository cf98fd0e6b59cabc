"""Smoke test of the benchmark on reduced inputs (``--quick``).

    python3 -m pytest -q perfbench/test_smoke.py

It checks that each workload prints every metric of BENCHMARK.json by
name and unit, that a wrong answer fails the run, and that a hook whose
target is gone leaves its metrics unmeasured instead of failing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def quick_run(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--quick"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(capsys, workload, trace):
    code, result = quick_run(capsys, workload, trace)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, kind", [("anbncn-short", "word"), ("reduction", "instance"), ("prove", "sequent")]
)
def test_a_flipped_answer_fails_the_run(capsys, monkeypatch, workload, kind):
    real = W.RUNNERS[kind]
    flipped = []

    def flip_first_checkable(api, lib, state, q):
        ans = real(api, lib, state, q)
        if not flipped and ans.verdict is not None and (q.expect is not None or kind == "instance"):
            ans.verdict = not ans.verdict
            flipped.append(q)
        return ans

    monkeypatch.setitem(W.RUNNERS, kind, flip_first_checkable)
    code, result = quick_run(capsys, workload, 0)
    assert flipped
    assert code == 1 and result["correct"] is False


def test_a_missing_hook_leaves_its_layer_unmeasured():
    tracer = Tracer()
    tracer.install_hooks(SimpleNamespace(grammar=SimpleNamespace(), prover=SimpleNamespace()))
    assert set(tracer.unmeasured) == {
        "grammar.filter_s", "grammar.assignments_searched", "grammar.witness_ratio",
        "prover.search_s", "prover.nodes_per_s",
    }
    assert set(tracer.unmeasured) <= set(run.PER_LAYER_UNITS)
    tracer.remove_hooks()


def test_missing_package_is_an_error(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "prove", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
