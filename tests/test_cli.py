"""Command-line interface: reports, determinism, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisdef import (CoeffFamily, a_index_range, infer_weights, milnor_basis,
                     parse_poly)
from poisdef.algebra import MAX_COEFFICIENT_BITS, MAX_NESTING
from poisdef.cli import MAX_ORDER, _family_byte_limit, main
from poisdef.deform import MAX_PHI_POWER

# -- helpers --------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    payload = json.loads(out) if out.strip() else None
    error = json.loads(err) if err.strip() else None
    return code, payload, error


# -- analyze ----------------------------------------------------------------------


def test_analyze_generic_quadric(capsys):
    code, report, _ = run_json(
        capsys, "analyze", "--phi", "x^2 + y^2 + z^2")
    assert code == 0
    pot = report["potential"]
    assert pot["case"] == "generic"
    assert pot["mu"] == 1
    assert pot["weights"] == [1, 1, 1]
    assert pot["weights_inferred"] is True
    assert report["status"] == "pass"


def test_analyze_special_cubic(capsys):
    code, report, _ = run_json(
        capsys, "analyze", "--phi", "x^3 + y^3 + z^3", "--weights", "1,1,1")
    assert code == 0
    pot = report["potential"]
    assert pot["case"] == "special"
    assert pot["mu"] == 8
    assert pot["weights_inferred"] is False
    assert pot["milnor_basis"] == [
        "1", "x", "y", "z", "x*y", "x*z", "y*z", "x*y*z"]


def test_analyze_lists_cohomology_basis(capsys):
    code, report, _ = run_json(
        capsys, "analyze", "--phi", "x^2 + y^3 + z^5", "--weights", "15,10,6")
    assert code == 0
    basis = report["cohomology_basis"]
    assert basis["0"] == []  # generic: no degree-0 classes
    assert "A(0,1)" in basis["1"]
    assert "B(1)" in basis["1"]
    assert "Top(0,0)" in basis["2"]


def test_analyze_not_isolated_exits_1(capsys):
    code, report, error = run_json(
        capsys, "analyze", "--phi", "x*y*z", "--weights", "1,1,1")
    assert code == 1
    assert report is None
    assert error["error"]["type"] == "NotIsolatedError"


def test_analyze_parse_error_exits_1(capsys):
    code, _, error = run_json(capsys, "analyze", "--phi", "x +")
    assert code == 1
    assert error["error"]["type"] == "PolyParseError"


def test_analyze_ambiguous_weights_exit_1(capsys):
    code, _, error = run_json(capsys, "analyze", "--phi", "x*y*z")
    assert code == 1
    assert error["error"]["type"] == "WeightInferenceError"


def test_analyze_inhomogeneous_for_given_weights(capsys):
    code, _, error = run_json(
        capsys, "analyze", "--phi", "x^2 + y^3 + z^5", "--weights", "1,1,1")
    assert code == 1
    assert error["error"]["type"] == "CLIUsageError"


def test_analyze_large_weights_inferred(capsys):
    code, report, _ = run_json(capsys, "analyze", "--phi", "x^2 + y^5 + z^13")
    assert code == 0
    assert report["potential"]["weights"] == [65, 26, 10]


def test_analyze_above_milnor_budget_fails_fast(capsys):
    start = time.perf_counter()
    code, report, error = run_json(
        capsys, "analyze", "--phi", "x^40+y^40+z^40", "--weight-cap", "0")
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert report is None
    assert error["error"]["type"] == "SingularityError"
    assert "budget" in error["error"]["message"]


def test_phi_power_above_expansion_budget_fails_fast(capsys):
    start = time.perf_counter()
    code, report, error = run_json(
        capsys, "analyze", "--phi", "(x+y+z)^100000", "--weight-cap", "0")
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert report is None
    assert error["error"]["type"] == "PolyParseError"
    assert "2000-term limit" in error["error"]["message"]


def test_constant_power_above_coefficient_budget_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "analyze", "--phi", "9^100000000*x^2+y^3+z^5")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    error = json.loads(err)["error"]
    assert error["type"] == "PolyParseError"
    assert "1024-bit limit (at position 1)" in error["message"]


def test_phi_nesting_limit(capsys):
    def nested(depth):
        return "(" * depth + "x^2 + y^2 + z^2" + ")" * depth

    code, report, _ = run_json(capsys, "analyze", "--phi", nested(MAX_NESTING))
    assert code == 0
    assert report["potential"]["mu"] == 1
    for depth in (MAX_NESTING + 1, 250):
        code, out, err = run_cli(capsys, "analyze", "--phi", nested(depth))
        assert code == 1 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "PolyParseError"
        assert f"at position {MAX_NESTING}" in error["message"]


@pytest.mark.parametrize("phi,position", [("x^\u00b2+y^3+z^5", 2),
                                          ("x^2+y^3+z^\u0663", 10)],
                         ids=["superscript", "arabic-indic"])
def test_phi_non_ascii_digit_exit_1(capsys, phi, position):
    code, out, err = run_cli(capsys, "analyze", "--phi", phi,
                             "--weight-cap", "0")
    assert code == 1 and not out
    error = json.loads(err)["error"]
    assert error["type"] == "PolyParseError"
    assert "unexpected character" in error["message"]
    assert f"at position {position}" in error["message"]


def test_phi_sum_of_powers_above_expression_budget(capsys):
    # each (x+y+z)^40 is C(42, 2) = 861 terms, within budget; three are not
    code, out, err = run_cli(capsys, "analyze", "--phi",
                             "+".join(["(x+y+z)^40"] * 3))
    assert code == 1 and not out
    error = json.loads(err)["error"]
    assert error["type"] == "PolyParseError"
    assert "2583 terms in all" in error["message"]
    assert "at position 29" in error["message"]


def test_phi_power_within_expansion_budget_parses(capsys):
    # 1891 terms: parsed, then refused by the Milnor budget
    code, report, error = run_json(
        capsys, "analyze", "--phi", "(x+y+z)^60", "--weight-cap", "0")
    assert code == 1
    assert report is None
    assert error["error"]["type"] == "SingularityError"
    assert "Milnor number 205379" in error["error"]["message"]


def test_bad_weights_format_exit_1(capsys):
    code, _, error = run_json(
        capsys, "analyze", "--phi", "x^2 + y^2 + z^2", "--weights", "1,1")
    assert code == 1
    assert error["error"]["type"] == "CLIUsageError"


def test_unknown_flag_exit_1(capsys):
    code, _, error = run_json(capsys, "analyze", "--nope")
    assert code == 1
    assert error["error"]["type"] == "CLIUsageError"


# -- deform -----------------------------------------------------------------------


def test_deform_empty_family(capsys):
    code, report, _ = run_json(
        capsys, "deform", "--phi", "x^2 + y^3 + z^5", "--order", "3")
    assert code == 0
    assert report["status"] == "pass"
    rows = report["coefficients"]
    assert rows[0]["order"] == 0
    assert "dy^dz" in rows[0]["multivector"]
    assert all(row["multivector"] == "0" for row in rows[1:])
    assert report["first_order_class"] == "0"
    assert all(entry["zero"] for entry in report["jacobi_residual"])


def test_deform_family_cross_term(capsys, tmp_path):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(
        {"c": [[1, 0, 1, "1"]], "cbar": [[1, 1, "1"]]}))
    code, report, _ = run_json(
        capsys, "deform", "--phi", "x^2 + y^3 + z^5",
        "--order", "3", "--family", str(fam_path))
    assert code == 0
    assert report["status"] == "pass"
    order2 = next(r for r in report["coefficients"] if r["order"] == 2)
    assert order2["multivector"] == "(z) dx^dy"
    assert report["first_order_class"] == "A(0,1) + B(1)"


def test_deform_invalid_family_exit_1(capsys, tmp_path):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps({"c": [[1, 0, 99, "1"]], "cbar": []}))
    code, _, error = run_json(
        capsys, "deform", "--phi", "x^2 + y^3 + z^5",
        "--order", "2", "--family", str(fam_path))
    assert code == 1
    assert error["error"]["type"] == "InvalidFamilyError"


@pytest.mark.parametrize("payload", [
    {"c": ["1,0,1,1"]},                  # a row that is not a list
    {"c": [[1, 0, 1, 0.1]]},             # float value
    {"c": [[1.5, 0, 1, "1"]]},           # float order
    {"c": [[True, 0, 1, "1"]]},          # bool index
    {"c": [[1, 0, 1, "abc"]]},           # not a rational
    {"c": [[1, 0, 1, "1/0"]]},           # zero denominator
    {"cbar": [[1, 1, "0.5"]]},           # decimal string
    {"cbar": {"n": 1}},                  # table that is not a list
    {"c": [[1, 17, 1, "1"]]},            # phi power above MAX_PHI_POWER
    {"c": [[1, 0, 1, "3/2"], [1, 0, 1, "-3/2"]]},  # repeated c indices
    {"cbar": [[1, 2, "1"], [1, 2, "5"]]},          # repeated cbar indices
    {"cbar": [[0, 1, "1"]]},             # cbar order below 1
], ids=["row", "float", "order", "bool", "abc", "div0", "decimal", "table",
        "power", "repeat-c", "repeat-cbar", "cbar-order0"])
def test_deform_inexact_family_exit_1(capsys, tmp_path, payload):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(payload))
    code, report, error = run_json(
        capsys, "deform", "--phi", "x^2 + y^3 + z^5",
        "--order", "2", "--family", str(fam_path))
    assert code == 1
    assert report is None
    assert error["error"]["type"] == "InvalidFamilyError"


_HUGE = "7" * 5000


@pytest.mark.parametrize("text", [
    '{"c": [[1, 0, 1, "%s/3"]]}' % _HUGE,        # p/q numerator
    '{"c": [[1, 0, 1, "3/%s"]]}' % _HUGE,        # p/q denominator
    '{"c": [[1, 0, 1, %s]]}' % _HUGE,            # JSON integer value
    '{"c": [[1, %s, 1, "1"]]}' % _HUGE,          # JSON integer index
    '{"cbar": [[1, 1, %d]]}' % (2 ** 1024 + 1),  # a 1025-bit value
], ids=["numerator", "denominator", "value", "index", "1025-bit"])
def test_deform_family_number_above_bit_limit_exit_1(capsys, tmp_path, text):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(text)
    code, out, err = run_cli(
        capsys, "deform", "--phi", "x^2 + y^3 + z^5",
        "--order", "2", "--family", str(fam_path))
    assert code == 1 and not out
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidFamilyError"
    assert "1024-bit limit" in error["message"]


def test_deform_family_number_at_bit_limit_parses(capsys, tmp_path):
    fam_path = tmp_path / "family.json"
    value = f"-{2 ** 1024}/{2 ** 1024 - 1}"
    fam_path.write_text('{"cbar": [[1, 1, "%s"]]}' % value)
    code, report, _ = run_json(
        capsys, "deform", "--phi", "x^2 + y^3 + z^5",
        "--order", "1", "--family", str(fam_path))
    assert code == 0
    assert report["family"]["cbar"] == [[1, 1, value]]


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x7b",                                      # not UTF-8
    b'{"c": ' + b"[" * 1000 + b"]" * 1000 + b"}",          # nested 1000 deep
    b'{"C": [[1, 0, 1, "3/2"]], "cbar": []}',              # misspelled key
], ids=["not-utf8", "nested", "misspelled"])
def test_deform_unreadable_family_exit_1(capsys, tmp_path, content):
    fam_path = tmp_path / "family.json"
    fam_path.write_bytes(content)
    code, out, err = run_cli(
        capsys, "deform", "--phi", "x^2+y^3+z^5",
        "--order", "1", "--family", str(fam_path))
    assert code == 1 and not out
    assert json.loads(err)["error"]["type"] == "InvalidFamilyError"


@pytest.mark.parametrize("phi", ["x^2+y^2+z^2", "x^2+y^3+z^5",
                                 "x^3+y^3+z^3"])
def test_largest_family_fits_the_byte_limit(phi):
    """Every order up to MAX_ORDER, phi power up to MAX_PHI_POWER and index,
    each value a signed fraction of two MAX_COEFFICIENT_BITS-bit integers:
    its compact JSON, and its JSON indented by 2, fit the limit by size
    alone."""
    data = milnor_basis(parse_poly(phi), infer_weights(parse_poly(phi)))
    top = 1 << MAX_COEFFICIENT_BITS
    value = Fraction(-top, top - 1)
    orders = range(1, MAX_ORDER + 1)
    family = CoeffFamily.make(
        {(n, l, i): value for n in orders for l in range(MAX_PHI_POWER + 1)
         for i in a_index_range(data)},
        {(n, r): value for n in orders for r in range(1, data.mu)})
    family.validate(data)
    limit = _family_byte_limit(data)
    compact = json.dumps(family.to_json_dict(), separators=(",", ":"))
    assert len(compact.encode()) <= limit
    assert len(json.dumps(family.to_json_dict(), indent=2).encode()) <= limit


def test_deform_family_file_above_byte_limit_exit_1(capsys, tmp_path):
    """A valid empty family padded with spaces to the limit is read; one
    byte more is refused without being parsed."""
    phi = "x^2+y^3+z^5"
    limit = _family_byte_limit(
        milnor_basis(parse_poly(phi), infer_weights(parse_poly(phi))))
    fam_path = tmp_path / "family.json"
    fam_path.write_bytes(b"{}" + b" " * (limit - 2))
    code, report, _ = run_json(
        capsys, "deform", "--phi", phi, "--order", "1",
        "--family", str(fam_path))
    assert code == 0 and report["family"] == {"c": [], "cbar": []}
    fam_path.write_bytes(b"{}" + b" " * (limit - 1))
    code, out, err = run_cli(
        capsys, "deform", "--phi", phi, "--order", "1",
        "--family", str(fam_path))
    assert code == 1 and not out
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidFamilyError"
    assert f"larger than {limit} bytes" in error["message"]


def test_deform_missing_family_file_exit_1(capsys, tmp_path):
    code, _, error = run_json(
        capsys, "deform", "--phi", "x^2 + y^2 + z^2",
        "--family", str(tmp_path / "absent.json"))
    assert code == 1
    assert error["error"]["type"] == "FileNotFoundError"


def test_deform_bad_order_exit_1(capsys):
    code, _, error = run_json(
        capsys, "deform", "--phi", "x^2 + y^2 + z^2", "--order", "0")
    assert code == 1
    assert error["error"]["type"] == "CLIUsageError"


@pytest.mark.parametrize("command", ["deform", "verify"])
def test_order_above_cap_exit_1(capsys, command):
    code, report, error = run_json(
        capsys, command, "--phi", "x^2 + y^2 + z^2",
        "--order", str(MAX_ORDER + 1))
    assert code == 1
    assert report is None
    assert error["error"]["type"] == "CLIUsageError"


# -- verify -----------------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, report, _ = run_json(
        capsys, "verify", "schouten", "--phi", "x^2 + y^2 + z^2",
        "--order", "2", "--seed", "4")
    assert code == 0
    assert report["status"] == "pass"
    assert [s["suite"] for s in report["suites"]] == ["schouten"]
    assert report["config"]["seed"] == 4


def test_verify_unknown_suite_exit_1(capsys):
    code, _, error = run_json(
        capsys, "verify", "bogus", "--phi", "x^2 + y^2 + z^2")
    assert code == 1
    assert error["error"]["type"] == "CLIUsageError"


@pytest.mark.parametrize("flags, message", [
    (["--weights", "1,a,2"], "--weights expects integers"),
    (["--arity-cap", "1"], "--arity-cap must be at least 2"),
])
def test_verify_bad_flag_value_exit_1(capsys, flags, message):
    code, out, err = run_cli(
        capsys, "verify", "schouten", "--phi", "x^2 + y^2 + z^2", *flags)
    assert code == 1 and not out
    error = json.loads(err)["error"]
    assert error["type"] == "CLIUsageError"
    assert message in error["message"]


# each value but the last is one int() reads as a valid value of its flag
@pytest.mark.parametrize("flag, value", [
    ("--weights", "\u0661,\u0661,\u0661"), ("--weights", "0_1,1,1"),
    ("--order", "\u0662"), ("--order", "0_2"),
    ("--weight-cap", "\u0662"), ("--weight-cap", "0_2"),
    ("--arity-cap", "\u0663"), ("--arity-cap", "0_3"),
    ("--seed", "\u0661"), ("--seed", "1_000"),
    pytest.param("--seed", str(2 ** 1025), id="--seed-2^1025"),
])
def test_integer_flag_refuses_other_literals(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "verify", "schouten", "--phi", "x^2 + y^2 + z^2", flag, value)
    assert code == 1 and not out
    assert json.loads(err)["error"]["type"] == "CLIUsageError"


def test_integer_flag_takes_a_sign(capsys):
    code, report, _ = run_json(
        capsys, "verify", "schouten", "--phi", "x^2 + y^2 + z^2",
        "--order", "+2", "--seed", "-4")
    assert code == 0
    assert report["config"]["order"] == 2 and report["config"]["seed"] == -4


def test_verify_report_file_byte_identical(tmp_path, capsys):
    args = ["verify", "transfer", "deform", "--phi", "x^2 + y^2 + z^2",
            "--order", "2", "--seed", "12"]
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert main(args + ["--report", str(path_a)]) == 0
    assert main(args + ["--report", str(path_b)]) == 0
    capsys.readouterr()
    assert path_a.read_bytes() == path_b.read_bytes()
    report = json.loads(path_a.read_text())
    assert [s["suite"] for s in report["suites"]] == ["transfer", "deform"]


def test_verify_failure_maps_to_exit_2(capsys, monkeypatch):
    import poisdef.cli as cli_module

    def fake_run_suites(names, data, config):
        return [{"suite": names[0], "checks": [
            {"name": "synthetic", "pass": False, "cases": 1}],
            "counts": {"pass": 0, "fail": 1}, "status": "fail"}]

    monkeypatch.setattr(cli_module, "run_suites", fake_run_suites)
    code, report, _ = run_json(
        capsys, "verify", "schouten", "--phi", "x^2 + y^2 + z^2")
    assert code == 2
    assert report["status"] == "fail"


def test_broken_bracket_fails_the_schouten_suite(capsys, monkeypatch):
    """A bracket whose [V, B] has the wrong sign fails the antisymmetry
    samples with a detail naming the failing degree pair, and verify exits 2."""
    import poisdef.suites as suites

    real = suites.schouten

    def flipped(p, q):
        value = real(p, q)
        return -value if (p.degree, q.degree) == (1, 2) else value

    monkeypatch.setattr(suites, "schouten", flipped)
    code, report, _ = run_json(
        capsys, "verify", "schouten", "--phi", "x^2 + y^2 + z^2")
    assert code == 2
    assert report["status"] == "fail"
    (suite,) = report["suites"]
    assert suite["status"] == "fail"
    checks = {check["name"]: check for check in suite["checks"]}
    antisymmetry = checks["graded_antisymmetry_samples"]
    assert antisymmetry["pass"] is False and antisymmetry["cases"] == 10
    assert antisymmetry["detail"] == "failing cases: (1, 2); (1, 2)"
    failed = [check for check in suite["checks"] if not check["pass"]]
    assert all(check["detail"].startswith("failing cases: (")
               for check in failed)
    assert suite["counts"] == {"pass": len(checks) - len(failed),
                               "fail": len(failed)}


_ROOT = Path(__file__).resolve().parents[1]


def _benchmark_spec():
    """The benchmark's fixed parameters (perfbench/spec.py imports nothing
    from poisdef)."""
    loader = importlib.util.spec_from_file_location(
        "perfbench_spec", _ROOT / "perfbench" / "spec.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


# SHA-256 of the verify-reference reports, as perfbench/report_hash.py prints
# them: two generic potentials (Brieskorn with a nonzero ternary bracket) and
# the balanced one (Eul labels, gauge_special).
_REFERENCE_HASHES = {
    "quadric": "18689085d107620991412c0367ac36bc07695bc9586d9aa1b11d3c7b21d28a26",
    "brieskorn": "dc71325b5982253398cce1c3c35c05d07985b20b42355eb93b55c225a345f783",
    "cubic": "64528b3b274beedac0304699b96a69248244ac5d2a214a4583dc7159416e91d3",
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_HASHES))
def test_reference_report_is_byte_identical(capsys, name):
    spec = _benchmark_spec()
    phi, weights, cap = next(entry[1:] for entry in spec.REFERENCE
                             if entry[0] == name)
    argv = spec.verify_argv(phi, weights, cap)
    assert argv[:2] == ["-m", "poisdef.cli"]
    code, out, _ = run_cli(capsys, *argv[2:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _REFERENCE_HASHES[name]


# SHA-256 of `poisdef verify --phi "x^2+y^2+z^2"` with every default: the
# references above all pass an explicit --weight-cap.
_DEFAULT_CAPS_HASH = (
    "8dd719b0dc5b56080d3aec5062ba49f21f854f6d0e7ceb150d036a0881ecbd8f")


def test_default_caps_report_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "verify", "--phi", "x^2+y^2+z^2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DEFAULT_CAPS_HASH


# SHA-256 of `poisdef verify tables transfer --phi "x^3+y^3+z^3"` with
# default caps: a balanced tables suite above weight 2, whose order-2
# morphism check covers all 1540 basis pairs up to weight 2d, the Eul(1)
# pairs (weight 3) included.
_BALANCED_TABLES_HASH = (
    "15e057fdde3c17d92b18bb8bd1ba5865fe7ed60dfbcdcb9495d8fae1057351bc")


def test_balanced_tables_transfer_report_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "verify", "tables", "transfer",
                           "--phi", "x^3+y^3+z^3")
    assert code == 0
    report = json.loads(out)
    pairs = next(check for suite in report["suites"]
                 for check in suite["checks"]
                 if check["name"] == "order2_morphism_equation_on_basis_pairs")
    assert pairs["cases"] == 1540
    assert hashlib.sha256(out.encode()).hexdigest() == _BALANCED_TABLES_HASH


# SHA-256 of `poisdef verify gauge` reports: on the quadric at order 5,
# gauged series whose coefficients are almost all non-integral rationals;
# on the balanced cubic at order 6 with arity cap 6, the class-level gauge
# through transfer stages of arity 5 and 6.
_GAUGE_HASHES = {
    "quadric-order5": (
        ("x^2+y^2+z^2", "--order", "5"),
        "6394fa56bba7007a5630c3b5a884f353bd0745f5dc09870123784cfb0fa055e5"),
    "cubic-order6-arity6": (
        ("x^3+y^3+z^3", "--order", "6", "--arity-cap", "6"),
        "e9f598970b811c000fab3d73c59815d5b7bf7aa1da002485e1967796353b7648"),
}


@pytest.mark.parametrize("case", list(_GAUGE_HASHES))
def test_gauge_order5_report_is_byte_identical(capsys, case):
    args, expected = _GAUGE_HASHES[case]
    code, out, _ = run_cli(capsys, "verify", "gauge", "--phi", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# SHA-256 of `poisdef deform --order 3` on one family with integral and
# non-integral values, orders 1-3 and phi powers up to 2.
_DEFORM_FAMILY = {"c": [[1, 0, 1, "1"], [2, 1, 3, "-2/3"], [3, 2, 7, "5"]],
                  "cbar": [[1, 1, "1"], [2, 4, "3/2"], [1, 7, "-1"]]}
_DEFORM_HASHES = {
    "x^2+y^3+z^5":
        "d234ad332732cc58f29f05171a4b8d048bc44a8812c9d5b5e78a0ad93c8604c8",
    "x^3+y^3+z^3":
        "7b466009eb44cb14516f78d0c9cc9c4ab9a8af9616ab1920221bc4a522a5d493",
}


@pytest.mark.parametrize("phi", sorted(_DEFORM_HASHES))
def test_deform_order3_report_is_byte_identical(capsys, tmp_path, phi):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(_DEFORM_FAMILY))
    code, out, _ = run_cli(capsys, "deform", "--phi", phi, "--order", "3",
                           "--family", str(fam_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DEFORM_HASHES[phi]


def test_verify_arity_cap_flag(capsys):
    code, report, _ = run_json(
        capsys, "verify", "transfer", "--phi", "x^2 + y^2 + z^2",
        "--order", "2", "--arity-cap", "3")
    assert code == 0
    names = [c["name"] for s in report["suites"] for c in s["checks"]]
    assert not any("order4" in name for name in names)


def test_verify_arity_cap_2_skips_the_ternary_check(capsys):
    """The closed-form ternary bracket needs arity 3, so it runs only when
    the cap admits it, like the order-3/4 sweeps."""
    code, report, error = run_json(
        capsys, "verify", "--phi", "x^2+y^3+z^5", "--arity-cap", "2")
    assert code == 0, error
    names = [c["name"] for s in report["suites"] for c in s["checks"]]
    assert "ternary_bracket_closed_form_on_potential_volume" not in names
    code, report, _ = run_json(
        capsys, "verify", "transfer", "--phi", "x^2+y^3+z^5",
        "--arity-cap", "3")
    assert code == 0
    names = [c["name"] for s in report["suites"] for c in s["checks"]]
    assert "ternary_bracket_closed_form_on_potential_volume" in names


@pytest.mark.parametrize("suites", [[], ["gauge"]])
def test_verify_gauge_order_above_arity_cap_fails_fast(capsys, suites):
    """On a balanced potential the class-level gauge action needs ell_k up
    to k = --order, so an order above --arity-cap is refused up front."""
    start = time.perf_counter()
    code, report, error = run_json(
        capsys, "verify", *suites, "--phi", "x^3+y^3+z^3",
        "--weight-cap", "2", "--order", "5")
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert report is None
    assert error["error"]["type"] == "CLIUsageError"
    assert "--arity-cap 4" in error["error"]["message"]


def test_verify_order_above_arity_cap_without_gauge_runs(capsys):
    code, report, _ = run_json(
        capsys, "verify", "schouten", "--phi", "x^3+y^3+z^3",
        "--weight-cap", "2", "--order", "5", "--arity-cap", "2")
    assert code == 0
    assert report["status"] == "pass"


def test_verify_weight_cap_flag(capsys):
    code, report, _ = run_json(
        capsys, "verify", "tables", "--phi", "x^2 + y^2 + z^2",
        "--weight-cap", "2")
    assert code == 0
    assert report["config"]["weight_cap"] == 2


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_negative_weight_cap_exit_1(capsys, command):
    code, report, error = run_json(
        capsys, command, "--phi", "x^2 + y^2 + z^2", "--weight-cap", "-1")
    assert code == 1
    assert report is None
    assert error["error"]["type"] == "CLIUsageError"


def test_weight_cap_at_the_bound_is_accepted(capsys):
    """The bound is deform.MAX_PHI_POWER * d: 16 * 2 on the quadric."""
    code, report, _ = run_json(
        capsys, "analyze", "--phi", "x^2 + y^2 + z^2", "--weight-cap", "32")
    assert code == 0
    assert report["basis_weight_cap"] == 32
    assert report["cohomology_basis"]["-1"][-1] == "Cas(16)"


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("cap", ["33", "12345678901234567890123"])
def test_weight_cap_above_the_bound_exit_1(capsys, command, cap):
    start = time.perf_counter()
    code, report, error = run_json(
        capsys, command, "--phi", "x^2 + y^2 + z^2", "--weight-cap", cap)
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert report is None
    assert error["error"]["type"] == "CLIUsageError"
    assert "between 0 and 32" in error["error"]["message"]


def test_cohomology_errors_are_domain_errors(capsys, monkeypatch):
    import poisdef.cli as cli_module
    from poisdef.cohomology import CohomologyError

    def broken_run_suites(names, data, config):
        raise CohomologyError("synthetic")

    monkeypatch.setattr(cli_module, "run_suites", broken_run_suites)
    code, _, error = run_json(
        capsys, "verify", "schouten", "--phi", "x^2 + y^2 + z^2")
    assert code == 1
    assert error["error"]["type"] == "CohomologyError"


# -- determinism of stdout reports ---------------------------------------------------


def test_stdout_reports_deterministic(capsys):
    args = ("deform", "--phi", "x^2 + y^3 + z^5", "--order", "2")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


# -- fuzzed input -------------------------------------------------------------------

# Tokens of the --phi grammar; joining them with spaces keeps every integer
# literal a single digit, so no exponent exceeds 8.
_PHI_TOKENS = ["x", "y", "z", "+", "-", "*", "^", "/", "(", ")",
               *"012345678",
               # superscript and Arabic-Indic digits, not integer literals
               "\u00b2", "\u00b3", "\u0663", "\u0665"]


@st.composite
def _monomial_sums(draw):
    """Sums of monomials: well-formed text that often reaches the analysis."""
    terms = draw(st.lists(
        st.tuples(st.integers(-3, 3),
                  st.tuples(*[st.integers(0, 8)] * 3)),
        min_size=1, max_size=4))
    pieces = []
    for coeff, exps in terms:
        factors = [str(coeff)] + [f"{name}^{e}"
                                  for name, e in zip("xyz", exps) if e]
        pieces.append("*".join(factors))
    return " + ".join(pieces)


_phi_texts = st.one_of(
    st.lists(st.sampled_from(_PHI_TOKENS), max_size=12).map(" ".join),
    _monomial_sums(),
    st.sampled_from(["x^2 + y^2 + z^2", "x^3 + y^3 + z^3",
                     "x^2 + y^3 + z^5", "x^2 + y^2 + z^4", "x*y*z"]),
    # parentheses nested on both sides of the parser's MAX_NESTING
    st.builds(lambda depth, inner: "(" * depth + inner + ")" * depth,
              st.integers(1, 300), st.sampled_from(["x^2 + y^2 + z^2", "x"])),
    # constant powers on both sides of the parser's MAX_COEFFICIENT_BITS
    st.builds(lambda base, exponent: f"{base}^{exponent}*x^2 + y^3 + z^5",
              st.integers(0, 99), st.one_of(st.integers(0, 2000),
                                            st.integers(0, 10 ** 12))),
)
_weight_texts = st.one_of(
    st.none(),
    st.text(alphabet="0123456789,- ", max_size=10),
    st.tuples(*[st.integers(-1, 9)] * 3).map(
        lambda w: ",".join(map(str, w))),
)
_json_atoms = st.one_of(st.integers(-2, 3), st.floats(allow_nan=False),
                        st.text(alphabet="0123456789/-abc", max_size=4),
                        # around the 1024-bit limit on family numbers
                        st.integers(-10 ** 400, 10 ** 400),
                        st.builds(lambda digits, count: digits * count,
                                  st.sampled_from(["7", "-9", "1/", "12/3"]),
                                  st.integers(300, 5000)))
_json_values = st.recursive(_json_atoms, lambda inner: st.lists(inner, max_size=4),
                            max_leaves=12)
_families = st.one_of(
    _json_values,
    st.fixed_dictionaries({}, optional={
        "c": st.one_of(_json_values, st.lists(
            st.lists(_json_atoms, min_size=3, max_size=5), max_size=3)),
        "cbar": st.one_of(_json_values, st.lists(
            st.lists(_json_atoms, min_size=2, max_size=4), max_size=3)),
    }),
)


def _run_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_json_document(code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2)
    text = out if code in (0, 2) else err
    assert not (out if code == 1 else err)
    json.loads(text)  # exactly one document, no traceback


_FUZZ = settings(max_examples=50, deadline=None)


@_FUZZ
@given(phi=_phi_texts, weights=_weight_texts,
       cap=st.one_of(st.none(), st.integers(-2, 6)))
def test_fuzz_analyze_ends_in_json(phi, weights, cap):
    argv = ["analyze", "--phi", phi]
    if weights is not None:
        argv += ["--weights", weights]
    if cap is not None:
        argv += ["--weight-cap", str(cap)]
    _assert_one_json_document(*_run_in_process(argv))


@_FUZZ
@given(phi=_phi_texts, weights=_weight_texts, order=st.one_of(st.integers(1, 3), st.integers(-2, 40)),
       family=st.one_of(st.none(), _families))
def test_fuzz_deform_ends_in_json(tmp_path_factory, phi, weights, order,
                                  family):
    argv = ["deform", "--phi", phi, "--order", str(order)]
    if weights is not None:
        argv += ["--weights", weights]
    if family is not None:
        path = tmp_path_factory.mktemp("family") / "family.json"
        path.write_text(json.dumps(family))
        argv += ["--family", str(path)]
    _assert_one_json_document(*_run_in_process(argv))
