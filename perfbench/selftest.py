"""Self-tests of the benchmark, on a tiny size of each workload.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every workload prints every metric of ``BENCHMARK.json`` with
its unit (and, in the table, its sample count); that a tampered front byte
and a wrong response body fail the output checks; that the traced layer
rows plus ``unattributed_s`` equal the traced wall clock; that the tracing
overhead is reported; and that a checkout without the program makes the
benchmark exit non-zero without a result. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_metric_printed() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(end_to_end) == set(run.END_TO_END), "BENCHMARK.json end_to_end drifted"
    assert per_layer == run.PER_LAYER, "BENCHMARK.json per_layer drifted"
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            done = _bench("--workload", workload, "--seed", "3", "--seconds", "2",
                          "--trace", trace)
            assert done.returncode == 0, f"{workload} trace={trace}:\n{done.stdout[-3000:]}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: {sorted(set(got) ^ set(expected))}"
            if trace == "0":
                rows = {line.split()[1]: line.split() for line in done.stdout.splitlines()
                        if line.startswith("#   ") and len(line.split()) == 5}
                for name, unit in expected.items():
                    assert rows[name][3] == unit and int(rows[name][4]) >= 1, rows.get(name)
            else:
                assert "tracing overhead:" in done.stdout
        print(f"ok   every metric printed: {workload}")


def test_tampered_front_fails() -> None:
    spec = workloads.campaign_spec(5, workloads.TINY, datasets=("seeds",))
    reference = workloads.build_reference(spec, WORK / "reference")
    tampered = dict(reference)
    name = next(n for n in tampered if n.startswith("jobs/"))
    data = bytearray(tampered[name])
    data[len(data) // 2] ^= 1
    tampered[name] = bytes(data)
    assert workloads.compare(reference, reference, "same") == []
    problems = workloads.compare(reference, tampered, "tampered")
    assert problems and name in problems[0], problems
    print("ok   a tampered front byte fails the output check")


def test_wrong_body_fails() -> None:
    campaign = WORK / "reference"
    fronts, mix = loadgen.build_requests([campaign], 5)
    wrong = [loadgen.Request(**{**vars(r), "expected": r.expected.replace(b"1", b"2", 1)})
             for r in mix if r.kind in ("cheapest", "nearest")][:3]
    outcome = workloads.Outcome()
    with harness.Fleet(WORK) as fleet:
        server = workloads.start_server(fleet, [campaign], "selftest")
        workloads.closed_loop(server, fronts, mix, outcome)
        assert not outcome.failures, outcome.failures
        phase = server.client.run(wrong, None)
        assert len(phase.failures) == len(wrong), phase.failures
        assert not workloads.stop_server(fleet, server)
    print("ok   a wrong response body fails the output check")


def test_rows_add_up() -> None:
    for workload in ("search-cold", "serve"):
        workdir = WORK / f"trace-{workload}"
        workdir.mkdir(parents=True)
        context = workloads.Context(workload, 4, 2.0, True, workloads.TINY, workdir)
        outcome = workloads.run(context)
        assert not outcome.failures, outcome.failures
        wall = outcome.layers["trace.wall_s"][0]
        rows = sum(share for _, share, _ in outcome.table)
        assert abs(rows - wall) < 1e-6 * max(1.0, wall), (rows, wall)
        assert "trace.overhead_s" in outcome.layers
        print(f"ok   traced rows + unattributed = traced wall_s ({workload}: {wall:.3f} s)")


def test_attribution_rules() -> None:
    def doc(pid, rows):
        return {"pid": pid, "spans": rows, "counters": {}}

    documents = [
        doc(1, [[1, "outer", 0.0, 4.0, 0, 1, ""], [2, "inner", 1.0, 2.0, 1, 1, ""]]),
        doc(2, [[1, "work", 1.5, 3.0, 0, 1, ""], [2, "fabric.idle", 3.0, 5.0, 0, 1, ""]]),
    ]
    shares = spans.attribute(spans.lanes(documents), 0.0, 6.0, frozenset({"fabric.idle"}))
    expected = {"outer": 2.5, "inner": 0.75, "work": 0.75, "fabric.idle": 1.0,
                spans.UNATTRIBUTED: 1.0}
    assert all(abs(shares[k] - v) < 1e-9 for k, v in expected.items()), shares
    assert abs(sum(shares.values()) - 6.0) < 1e-9
    print("ok   wall-clock sharing among busy, idle and absent lanes")


def test_missing_program_fails() -> None:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _bench("--workload", "search-cold", "--seed", "1", "--seconds", "1", cwd=bare)
    assert done.returncode != 0, done.stdout
    assert '"metrics"' not in done.stdout, done.stdout
    print("ok   a checkout without the program exits non-zero without a result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        test_attribution_rules()
        test_tampered_front_fails()
        test_wrong_body_fails()
        test_rows_add_up()
        test_missing_program_fails()
        test_every_metric_printed()
    except AssertionError as error:
        print(f"FAIL {error}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
