"""Fixed workload parameters shared by the benchmark command, its worker,
the oracle and the report-hash command.

Nothing here imports poisdef or sympy, so every process may import it.
"""

import random
from fractions import Fraction

# verify-reference: (name, potential, weights, --weight-cap).  The caps are
# lowered from the CLI defaults so that one pass over the three potentials
# takes 16-22 s on a 2-core x86-64 virtual machine; at default caps the
# cubic's tables suite alone took 44.5 s in the ROADMAP baseline.
REFERENCE = (
    ("quadric", "x^2+y^2+z^2", "1,1,1", 2),
    ("brieskorn", "x^2+y^3+z^5", "15,10,6", 30),
    ("cubic", "x^3+y^3+z^3", "1,1,1", 2),
)
VERIFY_ORDER = 3
VERIFY_ARITY_CAP = 4
SUITES = ("schouten", "tables", "transfer", "deform", "gauge")
# verify-reference and the report-hash command always use this suite seed,
# so their reports are the reference reports and hashes from two commits
# are comparable.
REPORT_SEED = 0

# slices-cold: stress potential and the slices it sweeps.
STRESS_PHI = "x^4+y^4+z^4"
STRESS_WEIGHTS = (1, 1, 1)
SLICE_DEGREES = (1, 2, 3)
SLICE_WEIGHT_CAP = 7

# deform-families: Brieskorn potential, truncation order, family count.
DEFORM_PHI = "x^2+y^3+z^5"
DEFORM_WEIGHTS = (15, 10, 6)
DEFORM_ORDER = 3
N_FAMILIES = 30
PHI_POWER_CAP = 2
# Fixes the shapes of the families; the run's seed draws coefficients.
SHAPE_SEED = 2009

# Set-up is timed this many times before the loop and once after each round;
# the median is reported.
SETUP_REPEATS = 3
# The per-invocation start-up is the median wall time of this many minimal
# CLI calls (`cli.startup_s`, and each set-up sample of verify-reference).
STARTUP_REPEATS = 10


def startup_argv() -> list[str]:
    return ["-m", "poisdef.cli", "analyze", "--phi", "x^2+y^2+z^2",
            "--weights", "1,1,1", "--weight-cap", "0"]


def verify_argv(phi: str, weights: str, cap: int) -> list[str]:
    return ["-m", "poisdef.cli", "verify", "--phi", phi, "--weights", weights,
            "--weight-cap", str(cap), "--order", str(VERIFY_ORDER),
            "--arity-cap", str(VERIFY_ARITY_CAP), "--seed", str(REPORT_SEED)]


def random_fraction(rng: random.Random) -> Fraction:
    """Seeded non-zero rational: numerator +-1..9, denominator 1..4."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def parse_weights(text: str) -> tuple[int, int, int]:
    a, b, c = (int(part) for part in text.split(","))
    return a, b, c


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {
        "singularity.milnor_basis_ms": "ms",
        "algebra.poly_mul_us": "us",
        "algebra.poly_diff_us": "us",
        "multivec.schouten_us.bb": "us",
        "multivec.schouten_us.vb": "us",
        "multivec.coboundary_us.d0": "us",
        "multivec.coboundary_us.d1": "us",
        "multivec.coboundary_us.d2": "us",
        "cohomology.slice_build_ms.sum": "ms",
        "cohomology.slice_build_ms.max": "ms",
        "cohomology.project_warm_ms": "ms",
        "cohomology.solve_coboundary_warm_ms": "ms",
        "cohomology.slices_built": "count",
        "cohomology.solves_per_build": "count",
        "cohomology.slice_rows_max": "count",
        "cohomology.slice_cols_max": "count",
        "linfty.ell_ms.n2": "ms",
        "linfty.ell_ms.n3": "ms",
        "linfty.ell_ms.n4": "ms",
        "linfty.f_ms.n3": "ms",
        "linfty.compute_T_ms.n3": "ms",
        "deform.build_ms": "ms",
        "deform.jacobi_residual_ms": "ms",
        "deform.mc_image_ms": "ms",
        "deform.first_order_class_ms": "ms",
        "deform.gauge_apply_ms": "ms",
        "deform.gauge_jacobi_ms": "ms",
    }
    for suite in SUITES:
        for name, *_ in REFERENCE:
            units[f"suites.{suite}_s.{name}"] = "s"
    units["cli.startup_s"] = "s"
    units["trace.op_s_p50"] = "s"
    units["trace.overhead_pct"] = "%"
    return units
