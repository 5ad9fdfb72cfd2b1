"""Measured process of the poisdef benchmark.

Started by ``run.py`` with the checkout's ``src`` on the import path.  It
reads its inputs as one JSON object on stdin, times the workload's
operations in a closed loop (one client, whole rounds of the seeded
operation list, no threads) and writes one JSON object on stdout: timings,
failures, peak memory, and the outputs the oracle checks.  It never imports
sympy, so neither its times nor its memory include the oracle.

Usage (normally through run.py):
    python3 perfbench/worker.py < inputs.json
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import spec  # noqa: E402

perf = time.perf_counter


# -- tracing ---------------------------------------------------------------------


class Tracer:
    """In-memory spans: [name, op id, parent span index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.op, parent, perf(), None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][4] = perf()

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans called ``name`` recorded from index
        ``since`` on."""
        return [s[4] - s[3] for s in self.spans[since:] if s[0] == name]


class NullTracer:
    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL = NullTracer()


def median_ms(values) -> float:
    return statistics.median(values) * 1e3


# -- codecs --------------------------------------------------------------------


def poly_entries(p) -> list:
    return [[*exps, str(coeff)] for exps, coeff in p.items()]


def mv_payload(mv) -> dict:
    return {"degree": mv.degree, "comps": [poly_entries(c) for c in mv.comps]}


def mv_from(payload):
    from poisdef import MultiVec, Poly
    comps = tuple(
        Poly({(a, b, c): Fraction(v) for a, b, c, v in comp})
        for comp in payload["comps"])
    return MultiVec(payload["degree"], comps)


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=170, check=False)


def cli_startup_s() -> float:
    """Median wall time of ``spec.STARTUP_REPEATS`` minimal CLI calls: the
    start-up every invocation pays."""
    times = []
    for _ in range(spec.STARTUP_REPEATS):
        t0 = perf()
        done = run_cli(spec.startup_argv())
        times.append(perf() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"start-up call failed: {done.stderr[-400:]!r}")
    return statistics.median(times)


# -- workloads -----------------------------------------------------------------
#
# Each workload provides setup() -> state, setup_seconds(import_s, state,
# elapsed) (one set-up sample), round(state) (the fixed, seeded list of
# operation inputs), op(state, item, tracer) -> output, same(a, b) for the
# repeat check, payload(item, output) for the oracle and peak_rss_mb().


class VerifyReference:
    """One operation: a `poisdef verify` pass over the reference potentials,
    each call a fresh subprocess with cold caches."""

    name = "verify-reference"

    def __init__(self, seed: int, inputs: dict):
        # The reference pass is fixed: its suites always use the report
        # seed, so its reports are the ones report_hash.py prints and its
        # work does not change with the run's seed.
        del seed, inputs

    def setup(self):
        # Each invocation is its own process: set-up is the start-up a user
        # pays per call, measured with minimal CLI calls.
        return {"startup_s": cli_startup_s()}

    def setup_seconds(self, import_s: float, state, elapsed: float) -> float:
        return state["startup_s"]

    def round(self, state):
        return [spec.REFERENCE]

    def op(self, state, item, tr):
        out = []
        for name, phi, weights, cap in item:
            with tr.span(f"cli.verify.{name}"):
                done = run_cli(spec.verify_argv(phi, weights, cap))
            if done.returncode != 0:
                raise RuntimeError(
                    f"verify {name} exited {done.returncode}: "
                    f"{done.stderr[-400:]!r}")
            out.append(done.stdout)
        return tuple(out)

    def same(self, a, b) -> bool:
        return a == b  # byte-identical reports across passes

    def payload(self, item, output) -> dict:
        return {"reports": [
            {"name": name, "phi": phi, "weights": weights, "cap": cap,
             "text": text.decode("utf-8")}
            for (name, phi, weights, cap), text in zip(item, output)]}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class SlicesCold:
    """One operation: a fresh `milnor_basis` of the stress potential, then in
    every (degree, weight) slice one `project` and one `solve_coboundary`,
    so every slice solver is built once and read once or twice."""

    name = "slices-cold"

    def __init__(self, seed: int, inputs: dict):
        self.seed = seed
        self.slices = inputs["slices"]

    def setup(self):
        from poisdef import (CohClass, WeightSystem, f1, labels_of_weight,
                             milnor_basis, parse_poly)
        data = milnor_basis(parse_poly(spec.STRESS_PHI),
                            WeightSystem(spec.STRESS_WEIGHTS))
        rng = random.Random(self.seed)
        items = []
        for entry in self.slices:
            degree, weight = entry["degree"], entry["weight"]
            labels = labels_of_weight(data, degree - 1, weight)
            expected = CohClass.make(
                degree - 1,
                {lab: spec.random_fraction(rng) for lab in labels})
            cocycle = f1(expected, data) + mv_from(entry["cocycle_dy"])
            target = mv_from(entry["target_dy"])
            items.append((degree, weight, expected, cocycle, target))
        return {"data": data, "items": items}

    def setup_seconds(self, import_s: float, state, elapsed: float) -> float:
        return import_s + elapsed

    def round(self, state):
        return [state["items"]]

    def op(self, state, item, tr, warm_repeat=False):
        from poisdef import (WeightSystem, milnor_basis, parse_poly, project,
                             solve_coboundary)
        with tr.span("singularity.milnor_basis"):
            data = milnor_basis(parse_poly(spec.STRESS_PHI),
                                WeightSystem(spec.STRESS_WEIGHTS))
        out = []
        for degree, weight, _, cocycle, target in item:
            with tr.span("cohomology.project"):
                cls = project(cocycle, data)
            if warm_repeat:
                with tr.span("cohomology.project.warm"):
                    project(cocycle, data)
            with tr.span("cohomology.solve_coboundary"):
                pre = solve_coboundary(target, data)
            if warm_repeat:
                with tr.span("cohomology.solve_coboundary.warm"):
                    solve_coboundary(target, data)
            out.append((cls, pre))
        return data, out

    def same(self, a, b) -> bool:
        return a[1] == b[1]

    def payload(self, item, output) -> dict:
        data, out = output
        rows = []
        for (degree, weight, expected, _, _), (cls, pre) in zip(item, out):
            rows.append({"degree": degree, "weight": weight,
                         "project_ok": cls == expected,
                         "solution": mv_payload(pre)})
        return {"milnor": milnor_payload(data, spec.STRESS_PHI,
                                         spec.STRESS_WEIGHTS),
                "slices": rows}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def milnor_payload(data, phi: str, weights) -> dict:
    return {"phi": phi, "weights": list(weights), "mu": data.mu,
            "socle": data.socle, "basis": [list(m) for m in data.basis]}


def deform_inputs(seed: int, mu: int):
    """The seeded family list of deform-families.

    The shapes of the families (how many entries each order has, which
    A(l, i) and B(r) labels they name, which monomials the gauge fields
    carry) are drawn from the fixed ``spec.SHAPE_SEED``, as the deform
    suite draws its random families; ``seed`` draws only the rational
    coefficients.  So every run, whatever its seed, does the same multiset
    of work up to coefficient sizes, and operation times are spread
    smoothly rather than in a few clusters.
    """
    from poisdef import CoeffFamily, MultiVec, NuSeries, Poly
    shape = random.Random(spec.SHAPE_SEED)
    rng = random.Random(seed)
    m = spec.DEFORM_ORDER
    out = []
    for _ in range(spec.N_FAMILIES):
        c, cbar = {}, {}
        for n in range(1, m + 1):
            for _ in range(shape.randint(1, 3)):
                if shape.random() < 0.6:
                    key = (n, shape.randint(0, spec.PHI_POWER_CAP),
                           shape.randint(1, mu - 1))
                    c[key] = spec.random_fraction(rng)
                else:
                    key_b = (n, shape.randint(1, mu - 1))
                    cbar[key_b] = spec.random_fraction(rng)
        fields = []
        for _ in range(m):
            comps = []
            for _ in range(3):
                terms = {}
                for _ in range(shape.randint(1, 2)):
                    exps = tuple(shape.randint(0, 2) for _ in range(3))
                    terms[exps] = spec.random_fraction(rng)
                comps.append(Poly(terms))
            fields.append(MultiVec(1, tuple(comps)))
        out.append((CoeffFamily.make(c, cbar),
                    NuSeries(order_cap=m, coeffs=tuple(fields))))
    return out


class DeformFamilies:
    """One operation: one seeded coefficient family through build_deformation,
    jacobi_residual, mc_image on a fresh TransferState, first_order_class and
    gauge_apply with a Jacobi check.  Slices come from a warm cache."""

    name = "deform-families"

    def __init__(self, seed: int, inputs: dict):
        self.seed = seed

    def setup(self):
        from poisdef import (WeightSystem, build_deformation,
                             first_order_class, milnor_basis, parse_poly)
        data = milnor_basis(parse_poly(spec.DEFORM_PHI),
                            WeightSystem(spec.DEFORM_WEIGHTS))
        families = deform_inputs(self.seed, data.mu)
        for fam, _ in families:  # cache warm-up: every projection slice
            first_order_class(
                build_deformation(data, fam, spec.DEFORM_ORDER), data)
        return {"data": data, "families": families}

    def setup_seconds(self, import_s: float, state, elapsed: float) -> float:
        return import_s + elapsed

    def round(self, state):
        return state["families"]

    def op(self, state, item, tr):
        from poisdef import (TransferState, build_deformation,
                             first_order_class, gamma_classes, gauge_apply,
                             jacobi_residual, mc_image)
        data = state["data"]
        fam, xi = item
        m = spec.DEFORM_ORDER
        with tr.span("deform.build"):
            series = build_deformation(data, fam, m)
        with tr.span("deform.jacobi_residual"):
            residual = jacobi_residual(series)
        with tr.span("deform.mc_image"):
            gamma = gamma_classes(fam, data, m)
            image = mc_image(TransferState(data=data), gamma, m)
        with tr.span("deform.first_order_class"):
            first = first_order_class(series, data)
        with tr.span("deform.gauge_apply"):
            gauged = gauge_apply(series, xi)
        with tr.span("deform.gauge_jacobi"):
            gauged_residual = jacobi_residual(gauged)
        return series, residual, image, first, gauged, gauged_residual

    def same(self, a, b) -> bool:
        return (a[0].coeffs == b[0].coeffs and a[3] == b[3]
                and a[4].coeffs == b[4].coeffs)

    def payload(self, item, output) -> dict:
        from poisdef import BasisLabel, CohClass
        fam, _ = item
        series, residual, image, first, gauged, gauged_residual = output
        m = spec.DEFORM_ORDER
        expected_first = CohClass.make(1, {
            **{BasisLabel("A", (l, i)): v for (n, l, i), v in fam.c if n == 1},
            **{BasisLabel("B", (r,)): v for (n, r), v in fam.cbar if n == 1},
        })
        return {
            "series": [mv_payload(series.coefficient(n)) for n in range(m + 1)],
            "gauged": [mv_payload(gauged.coefficient(n)) for n in range(m + 1)],
            "jacobi_zero": residual.is_zero() and gauged_residual.is_zero(),
            "mc_image_agrees": all(image.coefficient(n) == series.coefficient(n)
                                   for n in range(1, m + 1)),
            "first_order_ok": first == expected_first,
        }

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {cls.name: cls for cls in (VerifyReference, SlicesCold,
                                       DeformFamilies)}


# -- timed loop ----------------------------------------------------------------


def timed_loop(work, state, seconds: float, tracers=(NULL,),
               between_rounds=None):
    """Closed loop over whole rounds until ``seconds`` have passed.

    Each item of a round runs once under each tracer, in reversed tracer
    order every other round, so traced and untraced runs of one item sit
    side by side.  Returns the op times per tracer (None where the
    operation failed), the round count, the attempted and failed counts,
    the first round's outputs and the number of repeats whose output
    differed from the first round's.  ``between_rounds`` runs after each
    round, outside every timed operation.
    """
    items = work.round(state)
    first: list = [None] * len(items)
    times: list[list] = [[] for _ in tracers]
    rounds = attempted = failed = mismatches = 0
    start = perf()
    while rounds == 0 or perf() - start < seconds:
        order = list(enumerate(tracers))
        if rounds % 2:
            order.reverse()
        for i, item in enumerate(items):
            for k, tr in order:
                attempted += 1
                tr.op = attempted
                t0 = perf()
                try:
                    out = work.op(state, item, tr)
                except Exception:  # one failed operation must not end the run
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                    times[k].append(None)
                    continue
                times[k].append(perf() - t0)
                if first[i] is None:
                    first[i] = out
                elif not work.same(first[i], out):
                    mismatches += 1
        rounds += 1
        if between_rounds is not None:
            between_rounds()
    return times, rounds, attempted, failed, first, mismatches


def timed_setup(work, import_s: float):
    """The workload's set-up state and one sample of its set-up time."""
    t0 = perf()
    state = work.setup()
    return state, work.setup_seconds(import_s, state, perf() - t0)


# -- per-layer probe -----------------------------------------------------------


def probe_layers(seed: int, inputs: dict, tr: Tracer) -> dict:
    """Every per-layer metric, on the workload each one belongs to."""
    from poisdef import (BasisLabel, CohClass, SuiteConfig, TransferState,
                         WeightSystem, coboundary, compute_T, labels_of_weight,
                         milnor_basis, monomials_of_weight, parse_poly,
                         run_suite, schouten)
    from poisdef.multivec import (SLOTS, multivec_weight_parts,
                                  slot_weight_offset)
    metrics: dict[str, float] = {}
    mark = 0

    def durations(name: str) -> list[float]:
        return tr.durations(name, mark)

    # singularity: Milnor data of the stress potential.
    stress = parse_poly(spec.STRESS_PHI), WeightSystem(spec.STRESS_WEIGHTS)
    mark = len(tr.spans)
    for _ in range(5):
        with tr.span("singularity.milnor_basis"):
            milnor_basis(*stress)
    metrics["singularity.milnor_basis_ms"] = median_ms(
        durations("singularity.milnor_basis"))

    # cohomology: one slices-cold operation, each call repeated warm.
    slices = SlicesCold(seed, inputs)
    state = slices.setup()
    mark = len(tr.spans)
    data, _ = slices.op(state, state["items"], tr, warm_repeat=True)
    cold_p = iter(durations("cohomology.project"))
    warm_p = iter(durations("cohomology.project.warm"))
    cold_s = iter(durations("cohomology.solve_coboundary"))
    warm_s = iter(durations("cohomology.solve_coboundary.warm"))
    delta = data.d - data.weights.total

    def slice_rows(degree, weight):
        return sum(len(monomials_of_weight(
            data.weights, weight + slot_weight_offset(data.weights, degree, s)))
            for s in range(len(SLOTS[degree])))

    builds, warm_proj, warm_solve, rows, cols = [], [], [], [], []
    for degree, weight, _, cocycle, target in state["items"]:
        cp, wp, cs, ws = next(cold_p), next(warm_p), next(cold_s), next(warm_s)
        n_rows = slice_rows(degree, weight)
        n_pre = slice_rows(degree - 1, weight - delta)
        if not cocycle.is_zero():
            builds.append(cp - wp)
            warm_proj.append(wp)
            rows.append(n_rows)
            cols.append(n_pre + len(labels_of_weight(data, degree - 1, weight)))
        if not target.is_zero():
            builds.append(cs - ws)
            warm_solve.append(ws)
            rows.append(n_rows)
            cols.append(n_pre)
    metrics["cohomology.slice_build_ms.sum"] = sum(builds) * 1e3
    metrics["cohomology.slice_build_ms.max"] = max(builds) * 1e3
    metrics["cohomology.project_warm_ms"] = median_ms(warm_proj)
    metrics["cohomology.solve_coboundary_warm_ms"] = median_ms(warm_solve)
    metrics["cohomology.slices_built"] = float(len(builds))
    metrics["cohomology.slice_rows_max"] = float(max(rows))
    metrics["cohomology.slice_cols_max"] = float(max(cols))

    # multivec: the differential on the seeded slice preimages, by degree.
    mark = len(tr.spans)
    for entry in inputs["slices"]:
        y = mv_from(entry["cocycle_pre"])
        if not y.is_zero():
            with tr.span(f"multivec.coboundary.d{y.degree}"):
                coboundary(y, data.phi)
    for k in range(3):
        metrics[f"multivec.coboundary_us.d{k}"] = median_ms(
            durations(f"multivec.coboundary.d{k}")) * 1e3

    # deform: one traced round of deform-families on a warm cache.
    deform = DeformFamilies(seed, inputs)
    dstate = deform.setup()
    ddata = dstate["data"]
    mark = len(tr.spans)
    solves = 0
    built_weights = set()
    for fam, xi in dstate["families"]:
        series, *_ = deform.op(dstate, (fam, xi), tr)
        parts = multivec_weight_parts(series.coefficient(1), ddata.weights)
        solves += len(parts)
        built_weights.update(parts)
    for name in ("build", "jacobi_residual", "mc_image", "first_order_class",
                 "gauge_apply", "gauge_jacobi"):
        metrics[f"deform.{name}_ms"] = median_ms(durations(f"deform.{name}"))
    metrics["cohomology.solves_per_build"] = solves / len(built_weights)

    # algebra and multivec: products, derivatives and brackets of the
    # deform-families bivectors and gauge fields.
    mark = len(tr.spans)
    for fam, xi in dstate["families"][:10]:
        series = deform.op(dstate, (fam, xi), NULL)[0]
        terms = [series.coefficient(n) for n in range(spec.DEFORM_ORDER + 1)]
        for a in terms:
            for b in terms:
                with tr.span("multivec.schouten.bb"):
                    schouten(a, b)
            with tr.span("multivec.schouten.vb"):
                schouten(xi.coefficient(1), a)
            for p in a.comps:
                for q in terms[1].comps:
                    with tr.span("algebra.poly_mul"):
                        p * q
                for v in range(3):
                    with tr.span("algebra.poly_diff"):
                        p.diff(v)
    for name, span in (("algebra.poly_mul_us", "algebra.poly_mul"),
                       ("algebra.poly_diff_us", "algebra.poly_diff"),
                       ("multivec.schouten_us.bb", "multivec.schouten.bb"),
                       ("multivec.schouten_us.vb", "multivec.schouten.vb")):
        metrics[name] = median_ms(durations(span)) * 1e3

    # suites: each suite on each reference potential, one shared state per
    # potential, as `poisdef verify` runs them.
    mark = len(tr.spans)
    suite_data = {}
    for name, phi, weights, cap in spec.REFERENCE:
        rdata = milnor_basis(parse_poly(phi),
                             WeightSystem(spec.parse_weights(weights)))
        config = SuiteConfig(order=spec.VERIFY_ORDER, weight_cap=cap,
                             arity_cap=spec.VERIFY_ARITY_CAP,
                             seed=spec.REPORT_SEED)
        rstate = TransferState(data=rdata, arity_cap=spec.VERIFY_ARITY_CAP)
        for suite in spec.SUITES:
            with tr.span(f"suites.{suite}.{name}"):
                report = run_suite(suite, rdata, config, rstate)
            if report["status"] != "pass":
                raise RuntimeError(f"suite {suite} failed on {name}")
            metrics[f"suites.{suite}_s.{name}"] = durations(
                f"suites.{suite}.{name}")[-1]
        suite_data[name] = rdata

    # linfty: first evaluation on a fresh state, slices already warm.
    bdata = suite_data["brieskorn"]
    cas1, top0 = BasisLabel("Cas", (1,)), BasisLabel("Top", (0, 0))
    b1 = BasisLabel("B", (1,))
    cases = {
        "linfty.ell_ms.n2": lambda s: s.ell_labels((cas1, top0)),
        "linfty.ell_ms.n3": lambda s: s.ell_labels((cas1, cas1, top0)),
        "linfty.ell_ms.n4": lambda s: s.ell_labels((cas1, cas1, b1, top0)),
        "linfty.f_ms.n3": lambda s: s.f_labels((cas1, cas1, top0)),
        "linfty.compute_T_ms.n3": lambda s: compute_T(
            s, 3, [CohClass.single(lab) for lab in (cas1, cas1, top0)]),
    }
    for metric, call in cases.items():
        call(TransferState(data=bdata))  # warms the slices it needs
        times = []
        for _ in range(3):
            fresh = TransferState(data=bdata)
            t0 = perf()
            call(fresh)
            times.append(perf() - t0)
        metrics[metric] = median_ms(times)

    # cli: start-up of a minimal call.
    metrics["cli.startup_s"] = cli_startup_s()
    return metrics


# -- main ----------------------------------------------------------------------


def main() -> int:
    request = json.load(sys.stdin)
    t0 = perf()
    import poisdef
    import_s = perf() - t0
    if not Path(poisdef.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"poisdef imported from {poisdef.__file__}, "
                           f"not from {SRC}")

    seed, seconds, trace = request["seed"], request["seconds"], request["trace"]
    work = WORKLOADS[request["workload"]](seed, request["inputs"])
    # Set-up is timed several times before the loop and once more after
    # each round, so that its median samples the whole run and not one
    # moment of a host whose speed drifts.  The previous state is dropped
    # before each set-up, so that only one warmed state is alive at a time.
    setup_times = []
    for _ in range(spec.SETUP_REPEATS):
        state = None
        state, sample = timed_setup(work, import_s)
        setup_times.append(sample)
    result = {}

    if not trace:
        def between_rounds():
            # Peak memory is read before the first set-up between rounds,
            # which builds a second state while the loop's is still held.
            result.setdefault("peak_rss_mb", work.peak_rss_mb())
            setup_times.append(timed_setup(work, import_s)[1])

        times, rounds, attempted, failed, first, mismatches = timed_loop(
            work, state, seconds, between_rounds=between_rounds)
        op_times = times[0]
        result["setup_s"] = statistics.median(setup_times)
    else:
        tracer = Tracer()
        times, rounds, attempted, failed, first, mismatches = timed_loop(
            work, state, seconds, (NULL, tracer))
        op_times = times[1]
        pairs = [(a, b) for a, b in zip(*times)
                 if a is not None and b is not None]
        layers = probe_layers(seed, request["inputs"], tracer)
        layers["trace.op_s_p50"] = statistics.median(b for _, b in pairs)
        layers["trace.overhead_pct"] = 100 * statistics.median(
            b / a - 1 for a, b in pairs)
        result["layers"] = layers
        result["spans"] = tracer.spans

    items = work.round(state)
    result.update({
        "op_times": [t for t in op_times if t is not None],
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "repeat_mismatches": mismatches,
        "outputs": [work.payload(item, out)
                    for item, out in zip(items, first) if out is not None],
    })
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
