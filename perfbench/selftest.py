"""Self-test of the benchmark's checks.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It shows that the sympy oracle agrees with the program where it must, and
that every check the benchmark applies rejects a corrupted value:

* the closed-form 3-D differential equals poisdef's ``coboundary`` on
  seeded random multivectors of degrees 0, 1 and 2;
* genuine slices-cold, deform-families and verify-reference outputs pass
  the checks in ``run.py``;
* each of them, with one value corrupted, fails those checks.

Exit code 0 when every case behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction

import oracle
import run
import spec
import worker
from poisdef import MultiVec, Poly, coboundary, parse_poly
from poisdef.multivec import SLOTS

FAILURES: list[str] = []


def case(name: str, errors: list[str], should_fail: bool) -> None:
    ok = bool(errors) == should_fail
    verdict = "rejected" if errors else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
          + (f" ({errors[0]})" if errors else ""))
    if not ok:
        FAILURES.append(name)


def random_multivector(rng: random.Random, degree: int) -> MultiVec:
    comps = []
    for _ in SLOTS[degree]:
        p = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            p = p + Poly.monomial(exps, spec.random_fraction(rng))
        comps.append(p)
    return MultiVec(degree, tuple(comps))


def differential_agrees() -> None:
    rng = random.Random(0)
    potentials = ((spec.STRESS_PHI, spec.STRESS_WEIGHTS),
                  (spec.DEFORM_PHI, spec.DEFORM_WEIGHTS),
                  ("x^3+y^3+z^3", (1, 1, 1)),
                  ("x^3+y^3+z^3+x*y*z", (1, 1, 1)))
    errors = []
    total = 0
    for phi_text, weights in potentials:
        phi = parse_poly(phi_text)
        sphi = oracle.parse_potential(phi_text)
        for degree in (0, 1, 2):
            for _ in range(5):
                mv = random_multivector(rng, degree)
                comps = oracle.multivector_to_sympy(worker.mv_payload(mv))
                mine = oracle.differential(sphi, degree, comps)
                theirs = oracle.multivector_to_sympy(
                    worker.mv_payload(coboundary(mv, phi)))
                total += 1
                if mine != theirs:
                    errors.append(f"{phi_text}, degree {degree}")
    print(f"closed-form differential vs coboundary: "
          f"{total - len(errors)} of {total} agree")
    case("closed-form differential matches coboundary", errors, False)


def slices_checks() -> None:
    inputs = {"slices": oracle.slice_inputs(
        0, spec.STRESS_PHI, spec.STRESS_WEIGHTS, spec.SLICE_DEGREES, 3)}
    work = worker.SlicesCold(0, inputs)
    state = work.setup()
    payload = work.payload(state["items"],
                           work.op(state, state["items"], worker.NULL))
    case("slices-cold genuine", run.check_slices(payload, inputs), False)

    bad = copy.deepcopy(payload)
    row = next(r for r in reversed(bad["slices"])
               if any(r["solution"]["comps"]))
    entry = next(c for c in row["solution"]["comps"] if c)[0]
    entry[3] = str(Fraction(entry[3]) + 1)
    case("slices-cold solve_coboundary coefficient +1",
         run.check_slices(bad, inputs), True)

    bad = copy.deepcopy(payload)
    bad["slices"][-1]["project_ok"] = False
    case("slices-cold project mismatch",
         run.check_slices(bad, inputs), True)

    bad = copy.deepcopy(payload)
    bad["milnor"]["mu"] += 1
    case("slices-cold Milnor number +1",
         run.check_slices(bad, inputs), True)

    bad = copy.deepcopy(payload)
    bad["milnor"]["basis"][-1] = [0, 0, 0]
    case("slices-cold basis monomial replaced",
         run.check_slices(bad, inputs), True)


def deform_checks() -> None:
    work = worker.DeformFamilies(0, {})
    state = work.setup()
    items = state["families"][:4]
    payloads = [work.payload(item, work.op(state, item, worker.NULL))
                for item in items]
    case("deform-families genuine", run.check_deform(payloads), False)

    bad = copy.deepcopy(payloads)
    bad[0]["series"][1]["comps"][2].append([1, 0, 0, "1"])  # + nu x dx^dy
    case("deform-families series + nu x dx^dy",
         run.check_deform(bad), True)

    bad = copy.deepcopy(payloads)
    bad[1]["gauged"][2]["comps"][0].append([0, 9, 0, "1"])  # + nu^2 y^9 dy^dz
    case("deform-families gauged series + nu^2 y^9 dy^dz",
         run.check_deform(bad), True)

    bad = copy.deepcopy(payloads)
    bad[2]["mc_image_agrees"] = False
    case("deform-families MC image differs",
         run.check_deform(bad), True)


def verify_checks() -> None:
    reports = []
    for name, phi, weights, cap in spec.REFERENCE[:2]:
        done = worker.run_cli(spec.verify_argv(phi, weights, cap))
        reports.append({"name": name, "phi": phi, "weights": weights,
                        "cap": cap, "text": done.stdout.decode("utf-8")})
    payload = {"reports": reports}
    case("verify-reference genuine", run.check_verify(payload), False)

    def corrupted(edit) -> dict:
        bad = copy.deepcopy(payload)
        report = json.loads(bad["reports"][1]["text"])
        edit(report)
        bad["reports"][1]["text"] = json.dumps(report)
        return bad

    def witness(report):
        transfer = next(s for s in report["suites"] if s["suite"] == "transfer")
        check = next(c for c in transfer["checks"]
                     if c["name"].startswith("ternary_bracket"))
        check["value"] = "61*Cas(1)"

    case("verify-reference ternary witness 61",
         run.check_verify(corrupted(witness)), True)
    case("verify-reference Milnor number +1", run.check_verify(corrupted(
        lambda r: r["potential"].update(mu=r["potential"]["mu"] + 1))), True)
    case("verify-reference socle +1", run.check_verify(corrupted(
        lambda r: r["potential"].update(socle=r["potential"]["socle"] + 1))),
        True)
    case("verify-reference status fail", run.check_verify(corrupted(
        lambda r: r.update(status="fail"))), True)


def main() -> int:
    differential_agrees()
    slices_checks()
    deform_checks()
    verify_checks()
    print(f"{len(FAILURES)} case(s) misbehaved" if FAILURES
          else "every check behaves")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
