"""Quick self-check of the benchmark at its smallest sizes.

    python3 perfbench/selfcheck.py

For every workload it checks that
  * every metric BENCHMARK.json names is reported, with its unit, in both
    modes, and every output matched its oracle;
  * two traced runs with the same seed give identical counts;
  * the known defects show: regions retain freed cells, and the trace
    grows about fourfold from n to 2n.
Exits 0 when all hold, 1 otherwise, printing each problem found.
"""

from __future__ import annotations

import json
import sys

import run

SCALE = 0.05
SEED = 7
COUNT_UNITS = {"count", "B"}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        e2e = run.end_to_end(workload, SEED, 0, SCALE)["result"]
        first = run.per_layer(workload, SEED, 0, SCALE)["result"]
        second = run.per_layer(workload, SEED, 0, SCALE)["result"]
        for mode, result, wanted in (("end-to-end", e2e, spec["end_to_end"]),
                                     ("per-layer", first, spec["per_layer"])):
            if not result["correct"]:
                problems.append(f"{workload} {mode}: {result['failed']} runs failed their oracle")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted}
            if got != want:
                problems.append(f"{workload} {mode}: metrics {sorted(set(got.items()) ^ set(want.items()))} differ")
        for name, m in first["metrics"].items():
            again = second["metrics"][name]["value"]
            if m["unit"] in COUNT_UNITS and m["value"] != again:
                problems.append(f"{workload}: {name} is {m['value']}, then {again} with the same seed")
        values = {name: m["value"] for name, m in first["metrics"].items()}
        if workload == "regions" and not values["regions.retained_cells"]:
            problems.append("regions: no freed cells retained")
        if workload == "trace" and not 3.0 < values["printer.trace_bytes_growth"] < 5.0:
            problems.append(f"trace: bytes grow {values['printer.trace_bytes_growth']:.2f}x from n to 2n")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
