"""The benchmark's output checker accepts real CLI output and rejects
corrupted plans, wrong costs, wrong Monge witnesses and forged certificates.

Run with: python -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from transopt.cli import main as cli_main  # noqa: E402

from check import check_output, first_monge_witness, reference  # noqa: E402
from workloads import WORKLOADS, Instance, make_pool  # noqa: E402

HUNGARIAN = ("solve", "--method", "hungarian", "--certificate")
HUNGARIAN_JSON = ("solve", "--method", "hungarian", "--trace", "--json", "--certificate")
MONGE = ("check-monge",)
NW = ("solve", "--method", "nw", "--certificate")


def run_cli(tmp_path: Path, inst: Instance, argv: tuple[str, ...]) -> tuple[int, str]:
    path = tmp_path / "instance.txt"
    path.write_text(inst.text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([argv[0], str(path), *argv[1:]])
    return code, out.getvalue()


@pytest.fixture
def small():
    cost = ((4, 1, 7, 3), (2, 6, 5, 8), (9, 3, 2, 4))
    return Instance(cost, (5, 4, 6), (3, 4, 5, 3), (("hungarian_text", HUNGARIAN),))


def monge(perturb: bool) -> Instance:
    x, y = [0, 2, 3, 7, 9], [1, 1, 4, 6, 10]
    cost = [[(a - b) ** 2 for b in y] for a in x]
    if perturb:
        cost[3][4] -= cost[4][3] + cost[3][4] - cost[3][3] - cost[4][4] + 1
    commands = (("check_monge", MONGE), ("nw_text", NW))
    return Instance(tuple(map(tuple, cost)), (3, 2, 4, 1, 2), (2, 2, 3, 3, 2), commands)


def verdict(inst, kind, code, text, ref=None):
    return check_output(inst, ref or reference(inst), kind, code, text)


def test_real_hungarian_output_passes(tmp_path, small):
    code, text = run_cli(tmp_path, small, HUNGARIAN)
    result = verdict(small, "hungarian_text", code, text)
    assert result.ok and result.certified is True, result.reason


def test_corrupted_plan_fails(tmp_path, small):
    code, text = run_cli(tmp_path, small, HUNGARIAN)
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("  ("))
    cell, _, quantity = lines[k].rpartition(" = ")
    lines[k] = f"{cell} = {int(quantity) + 1}"
    result = verdict(small, "hungarian_text", code, "\n".join(lines))
    assert not result.ok and "ships" in result.reason


def test_wrong_cost_fails(tmp_path, small):
    code, text = run_cli(tmp_path, small, HUNGARIAN)
    printed = next(line for line in text.splitlines() if line.startswith("total cost"))
    forged = text.replace(printed, f"total cost = {int(printed.split()[-1]) - 1}")
    assert not verdict(small, "hungarian_text", code, forged).ok
    # a self-consistent answer that misses the reference optimum also fails
    ref = reference(small)
    result = verdict(small, "hungarian_text", code, text, replace(ref, optimum=ref.optimum - 1))
    assert not result.ok and "optimum" in result.reason


def test_forged_certificate_fails(tmp_path, small):
    code, text = run_cli(tmp_path, small, HUNGARIAN)
    alpha = next(line for line in text.splitlines() if line.startswith("  alpha: "))
    values = alpha.split()[1:]
    values[0] = str(int(values[0]) + 100)
    forged = text.replace(alpha, "  alpha: " + " ".join(values))
    result = verdict(small, "hungarian_text", code, forged)
    assert not result.ok and "re-check" in result.reason


def test_forged_verdict_on_uncertified_plan_fails(tmp_path):
    inst = make_pool("monge_nw", 1, size=1)[0]
    code, text = run_cli(tmp_path, inst, NW)
    result = verdict(inst, "nw_text", code, text)
    # the known false "not certified": optimal degenerate plan, lexicographic hints
    assert result.ok and result.certified is False and result.false_uncertified
    forged = text.replace("verified optimal: no", "verified optimal: yes")
    assert not verdict(inst, "nw_text", code, forged).ok


def test_monge_outputs(tmp_path):
    for perturb in (False, True):
        inst = monge(perturb)
        code, text = run_cli(tmp_path, inst, MONGE)
        assert (code, perturb) in ((0, False), (1, True))
        assert verdict(inst, "check_monge", code, text).ok
        code, text = run_cli(tmp_path, inst, NW)
        assert verdict(inst, "nw_text", code, text).ok


def test_wrong_monge_witness_fails(tmp_path):
    inst = monge(True)
    code, text = run_cli(tmp_path, inst, MONGE)
    i, j, r, s, _, _ = first_monge_witness(inst.cost)
    head = f"({i + 1}, {j + 1}, {r + 1}, {s + 1})"
    assert head in text
    forged = text.replace(head, f"({i + 1}, {j + 2}, {r + 1}, {s + 1})", 1)
    assert not verdict(inst, "check_monge", code, forged).ok
    assert not verdict(monge(False), "check_monge", code, text).ok


def test_first_monge_witness_matches_a_plain_scan():
    cost = monge(True).cost
    m, n = len(cost), len(cost[0])
    expected = next(
        (i, j, r, s)
        for i in range(m)
        for j in range(n)
        for r in range(i + 1, m)
        for s in range(j + 1, n)
        if cost[i][j] + cost[r][s] > cost[r][j] + cost[i][s]
    )
    assert first_monge_witness(cost)[:4] == expected
    assert first_monge_witness(monge(False).cost) is None


def test_json_output_and_corrupted_trace(tmp_path, small):
    inst = replace(small, commands=(("hungarian_json", HUNGARIAN_JSON),))
    code, text = run_cli(tmp_path, inst, HUNGARIAN_JSON)
    assert verdict(inst, "hungarian_json", code, text).ok
    doc = json.loads(text)
    doc["trace"][-1]["matrix"][0][0] = "123"
    assert not verdict(inst, "hungarian_json", code, json.dumps(doc)).ok
    doc = json.loads(text)
    doc["plan"][0]["quantity"] = "0"
    assert not verdict(inst, "hungarian_json", code, json.dumps(doc)).ok


def test_unexpected_exit_code_fails(small):
    assert not verdict(small, "hungarian_text", 2, "").ok


def test_benchmark_json_matches_the_harness():
    from run import E2E_METRICS, TRACE_EXTRA_METRICS, unit_of
    from spans import layer_metrics

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert [m["name"] for m in doc["end_to_end"]] == list(E2E_METRICS)
    assert {m["name"] for m in doc["per_layer"]} == set(layer_metrics([])) | set(
        TRACE_EXTRA_METRICS
    )
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"]), metric
