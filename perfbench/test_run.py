"""Tests of the benchmark itself: python3 -m pytest -q perfbench (from the repository root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from workloads import SetupError, code_facts, reference_encode  # noqa: E402

# counts that must repeat exactly for a fixed seed
EXACT = {
    "repair": ("field.mul_per_encode", "field.mul_per_repair", "field.inv_per_repair"),
    "degraded": ("field.mul_per_encode", "field.mul_per_decode", "field.inv_per_decode"),
    "certify": ("field.mul_per_encode", "verify.words_enumerated", "verify.erasure_patterns"),
    "cli": ("cli.spec_bytes",),
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def traced_metrics(workload: str, seed: int) -> dict[str, float]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_exact_counts_repeat_for_a_seed(workload):
    first, second = traced_metrics(workload, 7), traced_metrics(workload, 7)
    for name in EXACT[workload]:
        assert first[name] > 0, name
        assert first[name] == second[name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = bench("--workload", "repair", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_refuses_codes_that_are_not_shortened():
    import lrcodes.bounds
    import lrcodes.construction
    import lrcodes.field
    import lrcodes.goodpoly
    from types import SimpleNamespace

    lr = SimpleNamespace(
        construction=lrcodes.construction, bounds=lrcodes.bounds,
        field=lrcodes.field, goodpoly=lrcodes.goodpoly,
    )
    assert code_facts(lr, (13, 10, 5, 3))["t"] == 2
    with pytest.raises(SetupError):
        code_facts(lr, (256, 100, 60, 4))


@pytest.mark.parametrize("code", [(13, 10, 5, 3), (16, 14, 5, 3), (1024, 8, 2, 2)])
def test_reference_encode_matches_the_library(code):
    import random

    import lrcodes

    spec = lrcodes.build_code(lrcodes.validate_params(*code))
    rng = random.Random(0)
    for _ in range(5):
        msg = [rng.randrange(code[0]) for _ in range(code[2])]
        assert reference_encode(code[0], msg, spec.G) == lrcodes.encode(msg, spec)
