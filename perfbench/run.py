"""poisdef benchmark: one command for every workload and metric.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deform-families --seed 1 \
        --seconds 40 --trace 0

It starts the measured process (``worker.py``), which imports only
poisdef, waits for it, and then checks every output with the sympy oracle
(``oracle.py``) in this process, outside any timed span.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Spans of a
traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402  (sympy; never imported by the measured process)
import spec  # noqa: E402

WORKLOADS = ("verify-reference", "slices-cold", "deform-families")
WITNESS_CHECK = "ternary_bracket_closed_form_on_potential_volume"
TIME_LIMIT_S = 175


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def percentile_info(times: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples above
    it, with the sample count; the tail only from forty samples on."""
    ordered = sorted(times)
    info = {"samples": len(ordered), "op_s_p50": statistics.median(ordered)}
    if len(ordered) >= 40:
        pct = 100 * (len(ordered) - 10) // len(ordered)
        info[f"op_s_p{pct}"] = ordered[len(ordered) * pct // 100 - 1]
    return info


# -- oracle checks -------------------------------------------------------------


def check_verify(payload: dict) -> list[str]:
    errors = []
    for rep in payload["reports"]:
        name = rep["name"]
        report = json.loads(rep["text"])
        weights = spec.parse_weights(rep["weights"])
        if report["status"] != "pass":
            errors.append(f"{name}: status {report['status']}")
        pot = report["potential"]
        basis = [oracle.monomial_exponents(m) for m in pot["milnor_basis"]]
        errors += [f"{name}: {e}" for e in oracle.check_milnor(
            rep["phi"], weights, pot["mu"], pot["socle"], basis)]
        d = oracle.weighted_degree(oracle.parse_potential(rep["phi"]), weights)
        balanced = d == sum(weights)
        if pot["case"] != ("special" if balanced else "generic"):
            errors.append(f"{name}: case {pot['case']} for d={d}")
        config = report["config"]
        if (config["weight_cap"] != rep["cap"]
                or config["suites"] != list(spec.SUITES)):
            errors.append(f"{name}: config {config}")
        suites = {s["suite"]: s for s in report["suites"]}
        if sorted(suites) != sorted(spec.SUITES):
            errors.append(f"{name}: suites {sorted(suites)}")
        witness = [c for c in suites["transfer"]["checks"]
                   if c["name"] == WITNESS_CHECK]
        if balanced:
            if witness:
                errors.append(f"{name}: ternary witness in the balanced case")
        elif (len(witness) != 1 or oracle.parse_cas1_multiple(witness[0]["value"])
              != oracle.witness_scale(rep["phi"], weights)):
            errors.append(f"{name}: ternary witness {witness}")
    return errors


def check_slices(payload: dict, inputs: dict) -> list[str]:
    milnor = payload["milnor"]
    errors = oracle.check_milnor(milnor["phi"], milnor["weights"], milnor["mu"],
                                 milnor["socle"], milnor["basis"])
    phi = oracle.parse_potential(spec.STRESS_PHI)
    for row, entry in zip(payload["slices"], inputs["slices"]):
        where = f"slice ({row['degree']}, {row['weight']})"
        if not row["project_ok"]:
            errors.append(f"{where}: project(f1(c) + d y) != c")
        solution = row["solution"]
        image = oracle.differential(phi, solution["degree"],
                                    oracle.multivector_to_sympy(solution))
        target = oracle.multivector_to_sympy(entry["target_dy"])
        if image != target:
            errors.append(f"{where}: d(solve_coboundary(t)) != t")
    if len(payload["slices"]) != len(inputs["slices"]):
        errors.append("missing slice outputs")
    return errors


def check_deform(payloads: list[dict]) -> list[str]:
    errors = []
    for idx, fam in enumerate(payloads):
        for key in ("series", "gauged"):
            series = [oracle.multivector_to_sympy(mv) for mv in fam[key]]
            if not oracle.is_poisson_series(series):
                errors.append(f"family {idx}: {key} fails V . curl V = 0")
        for key in ("jacobi_zero", "mc_image_agrees", "first_order_ok"):
            if not fam[key]:
                errors.append(f"family {idx}: {key} is false")
    return errors


# -- main ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "poisdef" / "__init__.py").is_file():
        return fail(f"no poisdef sources under {ROOT / 'src'}")

    inputs: dict = {}
    if args.workload == "slices-cold" or args.trace:
        inputs["slices"] = oracle.slice_inputs(
            args.seed, spec.STRESS_PHI, spec.STRESS_WEIGHTS,
            spec.SLICE_DEGREES, spec.SLICE_WEIGHT_CAP)
    request = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "inputs": inputs}
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT,
            input=json.dumps(request), capture_output=True, text=True,
            timeout=TIME_LIMIT_S - (time.perf_counter() - started),
            check=False)
    except subprocess.TimeoutExpired:
        return fail("measured process exceeded the time limit")
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        return fail(f"measured process exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    times = result["op_times"]
    if not times:
        return fail("no operation completed")

    outputs = result["outputs"]
    if args.workload == "verify-reference":
        errors = check_verify(outputs[0])
    elif args.workload == "slices-cold":
        errors = check_slices(outputs[0], inputs)
    else:
        errors = check_deform(outputs)
    if result["repeat_mismatches"]:
        errors.append(f"{result['repeat_mismatches']} repeated operations "
                      "gave outputs different from the first round")
    for error in errors[:20]:
        sys.stderr.write(f"perfbench: check failed: {error}\n")

    if args.trace:
        units = spec.layer_metrics()
        layers = result["layers"]
        if sorted(layers) != sorted(units):
            return fail(f"per-layer metrics {sorted(set(layers) ^ set(units))} "
                        "are not the declared set")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items()}
        write_trace(args, result)
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    info = percentile_info(times)
    info["rounds"] = result["rounds"]
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def write_trace(args, result: dict) -> None:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    spans = [{"name": n, "op": op, "parent": parent, "start": t0, "end": t1}
             for n, op, parent, t0, t1 in result["spans"]]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "spans": spans}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
