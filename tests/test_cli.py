import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from joinmeet.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"

PENTAGON_DOC = {
    "elements": ["e", "x", "y", "z", "f"],
    "covers": [["e", "y"], ["y", "x"], ["x", "f"], ["e", "z"], ["z", "f"]],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# check


def test_check_pentagon(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "pentagon")
    assert code == 0
    assert "is_modular: False" in out
    assert "pentagon sublattice: {e, x, y, z, f}" in out
    assert "is_pure: False" in out


def test_check_diamond(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "diamond")
    assert code == 0
    assert "is_modular: True" in out
    assert "is_distributive: False" in out
    assert "rank-2 diamond: {e, x, y, z, f}" in out


def test_check_chain(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "chain", "--n", "4")
    assert code == 0
    for line in ("is_modular: True", "is_distributive: True", "is_pure: True"):
        assert line in out


def test_check_lattice_file(tmp_path, capsys):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(PENTAGON_DOC))
    code, out, _ = run(capsys, "check", "--input", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["is_modular"] is False
    assert doc["config"]["command"] == "check"
    assert "timing_seconds" in doc


def test_check_rejects_non_lattice(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}))
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert "error" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "--input", "/nonexistent/lat.json")
    assert code == 2


def test_builtin_requires_n(capsys):
    code, _, err = run(capsys, "check", "--builtin", "boolean")
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize("name", ["pentagon", "diamond"])
def test_builtin_without_parameter_refuses_n(capsys, name):
    code, out, err = run(capsys, "check", "--builtin", name, "--n", "5")
    assert (code, out) == (2, "")
    assert err == f"error: builtin {name!r} takes no --n\n"


def test_builtin_and_input_together_are_an_input_error(tmp_path, capsys):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(PENTAGON_DOC))
    for given in (str(path), "/nonexistent/lat.json"):
        code, out, err = run(capsys, "check", "--builtin", "pentagon", "--input", given)
        assert (code, out) == (2, "")
        assert err == "error: give --builtin or --input, not both\n"


def test_input_refuses_n(tmp_path, capsys):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(PENTAGON_DOC))
    code, out, err = run(capsys, "check", "--input", str(path), "--n", "5")
    assert (code, out) == (2, "")
    assert err == "error: --input takes no --n\n"


# ---------------------------------------------------------------------------
# ideal / colon


def test_ideal_diamond(capsys):
    code, out, _ = run(capsys, "ideal", "--builtin", "diamond")
    assert code == 0
    assert "generators (3):" in out
    assert "x*y - e*f" in out


def test_colon_pentagon_example(capsys):
    code, out, _ = run(capsys, "colon", "--builtin", "pentagon", "--j", "x", "--by", "y")
    assert code == 0
    assert "degree-1 part: (x, z)" in out
    assert "generated by variables: yes {x, z}" in out


def test_colon_nonlinear_case(capsys):
    code, out, _ = run(capsys, "colon", "--builtin", "pentagon", "--j", "", "--by", "e")
    assert code == 0
    assert "NOT generated by linear forms" in out


def test_colon_json(capsys):
    code, out, _ = run(
        capsys, "colon", "--builtin", "diamond", "--j", "", "--by", "x",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["linear_generated"] is True
    assert doc["result"]["variable_generated"] is False
    assert doc["result"]["degree1"] == ["z - y"]  # monic form of y - z


def test_colon_bad_polynomial(capsys):
    code, _, err = run(capsys, "colon", "--builtin", "pentagon", "--j", "x", "--by", "q + 1")
    assert code == 2


# ---------------------------------------------------------------------------
# posetideals


def test_posetideals_boolean2_with_verify(capsys):
    code, out, _ = run(capsys, "posetideals", "--builtin", "boolean", "--n", "2", "--verify")
    assert code == 0
    assert "6 poset ideals:" in out
    assert "Koszul filtration: pass" in out


def test_posetideals_pentagon_verify_fails(capsys):
    code, out, _ = run(capsys, "posetideals", "--builtin", "pentagon", "--verify")
    assert code == 1
    assert "Koszul filtration: fail" in out


# ---------------------------------------------------------------------------
# filtration verify / search


def test_verify_shipped_pentagon_family(capsys):
    code, out, _ = run(
        capsys, "filtration", "verify", "--builtin", "pentagon", str(DATA / "pentagon.filt")
    )
    assert code == 0
    assert "verdict: pass" in out
    assert out.count("J:I = member") == 7


def test_verify_shipped_diamond_family(capsys):
    code, out, _ = run(
        capsys, "filtration", "verify", "--builtin", "diamond", str(DATA / "diamond.filt")
    )
    assert code == 0
    assert out.count("J:I = member") == 8


def test_verify_failing_family(tmp_path, capsys):
    path = tmp_path / "bad.filt"
    path.write_text(json.dumps({"ideals": [[], "m"]}))
    code, out, _ = run(
        capsys, "filtration", "verify", "--builtin", "pentagon", str(path)
    )
    assert code == 1
    assert "verdict: fail" in out


def test_verify_failure_lists_the_colon_forms(tmp_path, capsys):
    # (x, x + y, y) presents a generator more than its span needs; the colon
    # 0 : (x) is (y - z), which is no member, and its forms are listed as a
    # member's generators are
    path = tmp_path / "redundant.filt"
    path.write_text(json.dumps({"ideals": [[], ["x"], ["x", "x + y", "y"], ["x", "z"], "m"]}))
    argv = ["filtration", "verify", "--builtin", "diamond", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == """\
family of 5 ideals (combinatorial)
axiom 1 (linear generators): pass
axiom 2 (0 and m present): pass (zero: True, maximal: True)
axiom 3 (cyclic colon steps): FAIL
witnesses:
  (x, y + x, y): J = (x), cyclic via y + x, J:I = member 3 (x, z)
  (x, z): J = (x), cyclic via z, J:I = member 2 (x, y + x, y)
  no witness for (x):
    J = member 0: colon-not-member (z - y)
  no witness for (e, x, y, z, f):
    no member sits inside it with codimension one
verdict: fail
"""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    failure = json.loads(out)["result"]["failures"][0]
    assert failure["tried"] == [{"j": 0, "reason": "colon-not-member", "detail": "z - y"}]


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("lattice", ["e", "f"]),
        ("lattice", {"elements": ["e", "f"], "covers": [5]}),
        ("lattice", {"elements": [["e"], "f"], "covers": [["e", "f"]]}),
        ("filtration", ["m"]),
        ("filtration", {"ideals": [5]}),
        ("filtration", {"ideals": [["x"], [3]]}),
        ("filtration", {"ideals": "m"}),
    ],
)
def test_malformed_input_file_is_an_input_error(tmp_path, capsys, kind, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    if kind == "lattice":
        argv = ["check", "--input", str(path)]
    else:
        argv = ["filtration", "verify", "--builtin", "pentagon", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert str(path) in err and "Traceback" not in err


def test_runaway_exponent_is_an_input_error(capsys):
    code, out, err = run(capsys, "colon", "--builtin", "pentagon", "--j", "x", "--by", "y^99999999")
    assert code == 2
    assert out == ""
    assert "exponent" in err and "Traceback" not in err


def test_oversized_coefficient_is_an_input_error(capsys):
    # 99999^1000 prints to more digits than Python's int-to-string limit
    code, out, err = run(capsys, "colon", "--builtin", "pentagon",
                         "--j", "99999^1000*x + y", "--by", "z")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bits" in err and "Traceback" not in err


def test_closed_stdout_pipe_ends_quietly():
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "joinmeet.cli", "posetideals", "--builtin", "boolean", "--n", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"7581 poset ideals:\n"
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert code not in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err


def test_oversized_builtin_is_refused_at_once(capsys):
    for size in (["divisor", "--n", "963761198400"], ["boolean", "--n", "27"],
                 ["chain", "--n", "100000"], ["divisor", "--n", str(10**30)]):
        start = time.monotonic()
        code, out, err = run(capsys, "check", "--builtin", *size)
        assert time.monotonic() - start < 1.0, size
        assert code == 2, size
        assert out == "", size
        assert ("elements" in err or "above" in err) and "Traceback" not in err, size


def test_search_diamond_none(capsys):
    code, out, _ = run(capsys, "filtration", "search", "--builtin", "diamond")
    assert code == 1
    assert "none (certified, 32 subsets examined)" in out


def test_search_round_trip(tmp_path, capsys):
    out_path = tmp_path / "found.filt"
    code, out, _ = run(
        capsys, "filtration", "search", "--builtin", "pentagon",
        "--out", str(out_path),
    )
    assert code == 0
    assert "replay verification: pass" in out
    code, out, _ = run(
        capsys, "filtration", "verify", "--builtin", "pentagon", str(out_path)
    )
    assert code == 0
    assert "verdict: pass" in out


def test_search_json_carries_filtration_document(capsys):
    code, out, _ = run(
        capsys, "filtration", "search", "--builtin", "pentagon", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["found"] is True
    assert doc["result"]["subsets_examined"] == 32
    assert isinstance(doc["result"]["filtration"]["ideals"], list)


def test_search_cap_option(capsys):
    code, out, err = run(capsys, "filtration", "search", "--builtin", "pentagon", "--cap", "3")
    assert (code, out) == (2, "")
    assert err == "error: |L| = 5 exceeds the search cap 3\n"
    code, out, _ = run(capsys, "filtration", "search", "--builtin", "pentagon",
                       "--cap", "5", "--format", "json")
    assert code == 0 and json.loads(out)["config"]["cap"] == 5
    code, out, _ = run(capsys, "check", "--builtin", "pentagon", "--format", "json")
    assert json.loads(out)["config"]["cap"] is None


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_search_cap_below_one_is_an_input_error(capsys, cap):
    code, out, err = run(capsys, "filtration", "search", "--builtin", "pentagon", "--cap", cap)
    assert (code, out) == (2, "")
    assert err == f"error: the search cap must be at least 1, not {cap}\n"
    code, out, err = run(capsys, "filtration", "search", "--builtin", "pentagon",
                         "--cap", cap, "--format", "json")
    assert (code, err) == (2, "")
    assert json.loads(out)["kind"] == "input"


# ---------------------------------------------------------------------------
# one arithmetic: exact rationals


@pytest.mark.parametrize("removed", [["--field", "prime"], ["--field", "rational"],
                                     ["--prime", "7"]], ids=" ".join)
def test_field_options_are_unrecognized(capsys, removed):
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["colon", "--builtin", "pentagon", "--j", "x", "--by", "y", *removed])
    assert time.perf_counter() - started < 1
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(removed)}" in err
    assert "Traceback" not in err


def test_json_arithmetic_is_rational(capsys):
    code, out, _ = run(capsys, "colon", "--builtin", "pentagon", "--j", "x", "--by", "y",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["arithmetic"] == "rational (exact)"
    assert "field" not in doc["config"] and "prime" not in doc["config"]


# ---------------------------------------------------------------------------
# the whole text report, line for line, and the keys of each JSON result


PINNED_TEXT = [
    (["check", "--builtin", "pentagon"], 0, """\
lattice: 5 elements: e x y z f
is_modular: False
is_distributive: False
is_pure: False
pentagon sublattice: {e, x, y, z, f}
diamond sublattice: none
rank-2 diamond: n/a (lattice is not modular)
"""),
    (["colon", "--builtin", "pentagon", "--j", "", "--by", "e"], 0, """\
colon () : (e) in H[L]
lifted colon reduced GB: (y*z - e*f, x*z - e*f, x*f - y*f)
degree-1 part: ()
NOT generated by linear forms (witness: x*f - y*f)
generated by variables: no
"""),
    (["filtration", "verify", "--builtin", "pentagon", str(DATA / "pentagon.filt")], 0, """\
family of 8 ideals (combinatorial)
axiom 1 (linear generators): pass
axiom 2 (0 and m present): pass (zero: True, maximal: True)
axiom 3 (cyclic colon steps): pass
witnesses:
  (x): J = (), cyclic via x, J:I = member 0 ()
  (x, y): J = (x), cyclic via y, J:I = member 3 (x, z)
  (x, z): J = (x), cyclic via z, J:I = member 2 (x, y)
  (x, y, z): J = (x, y), cyclic via z, J:I = member 2 (x, y)
  (x, y, z, e): J = (x, y, z), cyclic via e, J:I = member 6 (x, y, z, f)
  (x, y, z, f): J = (x, y, z), cyclic via f, J:I = member 5 (x, y, z, e)
  (e, x, y, z, f): J = (x, y, z, e), cyclic via f, J:I = member 5 (x, y, z, e)
verdict: pass
"""),
    (["filtration", "verify", "--builtin", "diamond", str(DATA / "diamond.filt")], 0, """\
family of 9 ideals (general linear forms)
axiom 1 (linear generators): pass
axiom 2 (0 and m present): pass (zero: True, maximal: True)
axiom 3 (cyclic colon steps): pass
witnesses:
  (x): J = (), cyclic via x, J:I = member 2 (-z + y)
  (-z + y): J = (), cyclic via -z + y, J:I = member 1 (x)
  (x, y): J = (x), cyclic via y, J:I = member 4 (x, z)
  (x, z): J = (x), cyclic via z, J:I = member 3 (x, y)
  (x, y, z): J = (x, y), cyclic via z, J:I = member 3 (x, y)
  (x, y, z, e): J = (x, y, z), cyclic via e, J:I = member 7 (x, y, z, f)
  (x, y, z, f): J = (x, y, z), cyclic via f, J:I = member 6 (x, y, z, e)
  (e, x, y, z, f): J = (x, y, z, e), cyclic via f, J:I = member 6 (x, y, z, e)
verdict: pass
"""),
    (["filtration", "search", "--builtin", "pentagon"], 0, """\
combinatorial Koszul filtration found (8 members, 32 subsets examined):
  ()
  (y)
  (e, y)
  (y, f)
  (x, y, f)
  (y, z, f)
  (x, y, z, f)
  (e, x, y, z, f)
replay verification: pass
"""),
    (["posetideals", "--builtin", "boolean", "--n", "2", "--verify"], 0, """\
6 poset ideals:
  {}
  {o}
  {a, o}
  {b, o}
  {a, b, o}
  {a, ab, b, o}
Koszul filtration: pass
"""),
]


PINNED_IDS = ["check", "colon", "verify-pentagon", "verify-diamond", "search", "posetideals"]


@pytest.mark.parametrize("argv, want_code, want_out", PINNED_TEXT, ids=PINNED_IDS)
def test_text_report_is_pinned(capsys, argv, want_code, want_out):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (want_code, want_out, "")


RESULT_KEYS = {
    "check": {"elements", "is_modular", "is_distributive", "is_pure",
              "pentagon", "diamond", "rank2_diamond"},
    "colon": {"j", "by", "lift_groebner_basis", "degree1", "linear_generated",
              "variable_generated", "variables", "nonlinear_witness"},
    "filtration verify": {"members", "passed", "axiom1", "axiom2", "axiom3",
                          "witnesses", "failures"},
    "filtration search": {"found", "subsets_examined", "members", "replay_passed", "filtration"},
    "posetideals": {"count", "ideals", "koszul_filtration"},
}


@pytest.mark.parametrize("argv, want_code, want_out", PINNED_TEXT, ids=PINNED_IDS)
def test_json_result_keeps_its_keys(capsys, argv, want_code, want_out):
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert code == want_code
    assert set(doc) >= {"config", "arithmetic", "result", "timing_seconds"}
    assert set(doc["config"]) == {"command", "builtin", "n", "input", "format", "cap"}
    assert set(doc["result"]) >= RESULT_KEYS[doc["config"]["command"]]
    for w in doc["result"].get("witnesses", []):
        assert set(w) >= {"member", "j", "cyclic_generator", "colon_member"}


def test_json_result_keys_of_ideal_and_failures(tmp_path, capsys):
    _, out, _ = run(capsys, "ideal", "--builtin", "diamond", "--format", "json")
    assert set(json.loads(out)["result"]) >= {"generators", "reduced_groebner_basis"}
    path = tmp_path / "bad.filt"
    path.write_text(json.dumps({"ideals": [[], "m"]}))
    code, out, _ = run(capsys, "filtration", "verify", "--builtin", "pentagon", str(path),
                       "--format", "json")
    assert code == 1
    (failure,) = json.loads(out)["result"]["failures"]
    assert set(failure) >= {"member", "no_candidates", "tried"}


# ---------------------------------------------------------------------------
# internal errors and JSON error documents


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(*_):
        raise ArithmeticError("inexact polynomial division")

    monkeypatch.setattr("joinmeet.cli.verify_filtration", broken)
    argv = ["filtration", "verify", "--builtin", "pentagon", str(DATA / "pentagon.filt")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: inexact polynomial division\n")
    assert "Traceback" in err and "ArithmeticError" in err
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert (doc["kind"], doc["error"]) == ("internal", "inexact polynomial division")
    assert doc["config"]["command"] == "filtration verify"
    assert "Traceback" in err


def test_engine_value_error_is_internal(monkeypatch, capsys):
    # a ValueError that is not an InputError is an engine fault, not bad input
    def broken(*_):
        raise ValueError("mixed rings")

    monkeypatch.setattr("joinmeet.cli.colon_in_H", broken)
    argv = ["colon", "--builtin", "pentagon", "--j", "x", "--by", "y"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: mixed rings\n") and "Traceback" in err
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert (doc["kind"], doc["error"]) == ("internal", "mixed rings")


def test_bad_files_and_negative_n_are_input_errors(tmp_path, capsys):
    not_json = tmp_path / "not.json"
    not_json.write_text("{elements: [")
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes('{"elements": ["é"], "covers": []}'.encode("latin-1"))
    huge_number = tmp_path / "huge.json"
    huge_number.write_text('{"elements": [' + "7" * 5000 + '], "covers": []}')
    for argv in (["check", "--builtin", "boolean", "--n", "-1"],
                 ["check", "--input", str(not_json)],
                 ["check", "--input", str(not_utf8)],
                 ["check", "--input", str(huge_number)],
                 ["filtration", "verify", "--builtin", "pentagon", str(not_json)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "Traceback" not in err, argv
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (2, ""), argv
        assert json.loads(out)["kind"] == "input", argv
    code, _, err = run(capsys, "check", "--builtin", "boolean", "--n", "-1")
    assert err == "error: n must not be negative\n"


def test_input_errors_are_json_documents(tmp_path, capsys):
    path = tmp_path / "bad.filt"
    path.write_text(json.dumps({"ideals": [5]}))
    for argv in (["filtration", "verify", "--builtin", "pentagon", str(path)],
                 ["colon", "--builtin", "pentagon", "--j", "x", "--by", "y^99999999"]):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 2, argv
        assert err == "", argv
        doc = json.loads(out)
        assert set(doc) == {"config", "error", "kind"}, argv
        assert doc["kind"] == "input" and doc["error"], argv
        assert doc["config"]["format"] == "json", argv
