import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einext.algebra import DEFAULT_TOL, algebra_from_json, jacobi_residual
from einext import cli
from einext.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_dim3(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dim", "3")
    assert code == 0
    assert json.loads(out) == [[1, 1, 1], [1, 1, 2]]


def test_enumerate_report_both(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dim", "4", "--report-both")
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert payload["cone_rejected"] == []
    assert len(payload["unfiltered"]) == 9


def test_enumerate_cone_filter_is_the_report_s_filtered_list(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dim", "5", "--cone-filter")
    assert code == 0
    _, both, _ = run_cli(capsys, "enumerate", "--dim", "5", "--report-both")
    assert json.loads(out) == json.loads(both)["cone_filtered"]


def test_enumerate_explicit_cap(capsys):
    assert run_cli(capsys, "enumerate", "--dim", "3", "--cap", "3")[0] == 0
    code, out, err = run_cli(capsys, "enumerate", "--dim", "3", "--cap", "2")
    assert code == 2 and out == ""
    assert "exceeds the enumeration cap 2" in err


def test_enumerate_over_cap_is_input_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--dim", "9")
    assert code == 2
    assert "cap=9" in err and "--cap 9" in err


def test_verify_catalog_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--catalog", "table1:3")
    assert code == 0
    payload = json.loads(out)
    assert payload["einstein"] is True
    assert payload["einstein_constant"] == pytest.approx(-6.0)
    assert payload["is_derivation"] is True


def test_verify_inline_failure_exit_code(capsys):
    spec = {
        "dim": 3,
        "mu": [{"i": 1, "j": 2, "k": 3, "v": 1.0}],
        "spectral": [1, 1, 2],
    }
    code, out, _ = run_cli(capsys, "verify", "--input", json.dumps(spec))
    assert code == 3
    payload = json.loads(out)
    assert payload["einstein"] is False
    assert payload["violated_conditions"]


def test_verify_e2_not_derivation(capsys):
    code, out, _ = run_cli(capsys, "verify", "--catalog", "e2")
    assert code == 0
    payload = json.loads(out)
    assert payload["einstein"] is True
    assert payload["is_derivation"] is False
    # The derivation verdict is judged at the given tolerance too.
    code, out, _ = run_cli(capsys, "verify", "--catalog", "e2", "--tol", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_derivation"] is True and payload["derivation_violation"] == 1.0


def test_verify_reports_the_twist_of_a_decomposition(capsys):
    # The 0001 frame of hyperbolic 3-space with e_4 rotating (e_1, e_2):
    # the twist takes the rotation away and keeps the verdict.
    r = 2 ** -0.5
    data = {
        "dim": 4,
        "mu": [{"i": 1, "j": 3, "k": 1, "v": -r}, {"i": 2, "j": 3, "k": 2, "v": -r},
               {"i": 1, "j": 4, "k": 2, "v": -0.4}, {"i": 2, "j": 4, "k": 1, "v": 0.4}],
        "spectral": [0, 0, 0, 1],
        "decomposition": {"h": [4], "m": [1, 2, 3]},
    }
    code, out, _ = run_cli(capsys, "verify", "--input", json.dumps(data))
    assert code == 0
    payload = json.loads(out)
    twist = payload["twist"]
    assert twist["mu"] == data["mu"][:2]
    assert twist["einstein"] is True and twist["einstein_constant"] == payload["einstein_constant"]
    # A refused twist is reported; the exit code is the input's own verdict.
    decomposition = ', "decomposition": {"h": [3], "m": [1, 2]}}'
    for top, verdict in (("2", 0), ("1", 3)):
        heisenberg = HEISENBERG_JSON % ("2", top)
        code, out, _ = run_cli(capsys, "verify", "--input", heisenberg[:-1] + decomposition)
        assert code == verdict
        assert json.loads(out)["twist"] == {"refused": "ideal not closed: mu[1,2|3] = 2"}
        # Without a decomposition there is no twist.
        code, out, _ = run_cli(capsys, "verify", "--input", heisenberg)
        assert code == verdict and "twist" not in json.loads(out)


def test_malformed_json_is_annotated_input_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--input", '{"dim": 3,,}')
    assert code == 2
    assert "line 1" in err and "column" in err


def test_missing_spectral_is_input_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--input", '{"dim": 2, "mu": []}')
    assert code == 2
    assert "spectral" in err


def strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


HEISENBERG_JSON = '{"dim": 3, "mu": [{"i": 1, "j": 2, "k": 3, "v": %s}], "spectral": [1, 1, %s]}'


def test_nan_structure_constant_is_input_error(capsys, monkeypatch):
    import io

    for command in (["verify"], ["classify", "--type", "1112"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(HEISENBERG_JSON % ("NaN", "2")))
        code, out, err = run_cli(capsys, *command, "--input", "-")
        assert code == 2
        assert out == ""
        assert "finite" in err


def test_infinite_eigenvalue_is_input_error(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(HEISENBERG_JSON % ("2.0", "Infinity")))
    code, out, err = run_cli(capsys, "verify", "--input", "-")
    assert code == 2
    assert out == ""
    assert "finite" in err


SRC = Path(__file__).resolve().parents[1] / "src"

# A fresh interpreter runs the command line and then writes the names of
# the modules it loaded as the last line of stderr.
CHILD = (
    "import json, sys\n"
    "from einext.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "sys.stderr.write('\\n' + json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)


def run_child(code, argv=(), stdin=""):
    """Exit code, stdout, stderr and the loaded modules of ``python -c code argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], input=stdin, capture_output=True, text=True, env=env, timeout=300
    )
    err, _, modules = proc.stderr.rpartition("\n")
    return proc.returncode, proc.stdout, err, set(json.loads(modules))


def test_import_einext_loads_neither_numpy_nor_a_submodule():
    code, _, _, modules = run_child("import json, sys, einext; sys.stderr.write(json.dumps(sorted(sys.modules)))")
    assert code == 0
    assert "numpy" not in modules
    assert [name for name in modules if name.startswith("einext.")] == []


SPEC_MODULES = {"algebra", "curvature", "verifier", "solver", "catalog"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["enumerate", "--dim", "4"], SPEC_MODULES),
        (["cone", "--spectral=-3,-2,-1,1,2,3"], SPEC_MODULES),
        (["verify", "--catalog", "table1:3"], {"spectral", "solver", "exactlp", "ratlinalg"}),
        (["classify", "--type", "1112", "--catalog", "heisenberg:2"], {"spectral", "solver"}),
        (["curvature", "--catalog", "table1:3"], {"spectral", "solver"}),
        (["catalog", "--name", "heisenberg:2"], {"spectral", "solver"}),
        (["search", "--spectral", "1,1,2", "--restarts", "1"], {"spectral", "catalog"}),
    ],
    ids=["enumerate", "cone", "verify", "classify", "curvature", "catalog", "search"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, unused):
    code, out, err, modules = run_child(CHILD, argv)
    assert code in (0, 3), err
    strict_json(out)
    assert "numpy" in modules
    assert sorted(modules & {f"einext.{name}" for name in unused}) == []
    # search draws its start points itself: numpy.random would pull in
    # secrets and, through hashlib, OpenSSL.
    assert sorted(modules & {"numpy.random", "secrets", "_hashlib"}) == []


@pytest.mark.parametrize(
    "text",
    [
        HEISENBERG_JSON % ("NaN", "2"),
        HEISENBERG_JSON % ("2.0", "Infinity"),
        HEISENBERG_JSON % ("-Infinity", "2"),
        HEISENBERG_JSON % ("1e999", "2"),
        HEISENBERG_JSON % ("2.0", "-1e999"),
    ],
    ids=["nan", "infinity", "minus-infinity", "1e999", "minus-1e999"],
)
def test_non_finite_json_is_refused_before_numpy_loads(text):
    code, out, err, modules = run_child(CHILD, ["verify", "--input", "-"], stdin=text)
    assert (code, out) == (2, "")
    assert "finite" in err and "Traceback" not in err
    assert "numpy" not in modules


def test_unused_param_is_input_error(capsys):
    data = json.loads(HEISENBERG_JSON % ("2.0", "2"))
    data["param"] = 5
    code, out, err = run_cli(capsys, "verify", "--input", json.dumps(data))
    assert code == 2
    assert out == ""
    assert "param" in err
    # a parametric eigenvalue does use it
    row4 = {
        "dim": 3,
        "mu": [{"i": 3, "j": 1, "k": 1, "v": 2.0}, {"i": 3, "j": 2, "k": 2, "v": -1.0}],
        "spectral": [1, "t", 0],
        "param": 2,
    }
    code, out, _ = run_cli(capsys, "verify", "--input", json.dumps(row4))
    assert code == 0
    assert strict_json(out)["einstein"] is True


def test_parametric_input_is_substituted_before_grouping(capsys):
    # At t = 1 the exponentials of the classes t and 1 coincide, so the
    # verdict must be that of the substituted eigenvalues.
    mu = [{"i": 3, "j": 1, "k": 2, "v": 1.0}, {"i": 3, "j": 2, "k": 1, "v": 1.0}]
    outputs = []
    for extra in ({"spectral": [1, "t", 0], "param": 1}, {"spectral": [1, 1, 0]}):
        code, out, err = run_cli(capsys, "verify", "--input", json.dumps({"dim": 3, "mu": mu, **extra}))
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_param_takes_rational_strings(capsys):
    row4 = {
        "dim": 3,
        "mu": [{"i": 3, "j": 1, "k": 1, "v": 0.5}, {"i": 3, "j": 2, "k": 2, "v": -1.0}],
        "spectral": [1, "t", 0],
    }
    outputs = []
    for param in (0.5, "1/2", "0.5"):
        code, out, err = run_cli(capsys, "verify", "--input", json.dumps({**row4, "param": param}))
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert strict_json(outputs[0])["einstein_constant"] == pytest.approx(-1.25)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"dim": 3, "mu": [], "spectral": 5}, "'spectral'"),
        ({"dim": [3], "mu": []}, "'dim'"),
        ({"dim": 3, "mu": [], "spectral": [1, "t", 0], "param": [2]}, "'param'"),
        # int() truncation and bool-as-int would pass these off as dim 3 and 1
        ({"dim": 3.7, "mu": [{"i": 1, "j": 2, "k": 3, "v": 2.0}], "spectral": [1, 1, 2]}, "'dim'"),
        ({"dim": True, "mu": []}, "'dim'"),
        # ... and these as index 1 or 3
        ({"dim": 3, "mu": [{"i": 1.7, "j": 2, "k": 3, "v": 2.0}], "spectral": [1, 1, 2]}, "'i'"),
        ({"dim": 3, "mu": [{"i": True, "j": 2, "k": 3, "v": 2.0}], "spectral": [1, 1, 2]}, "'i'"),
        ({"dim": 3, "mu": [{"i": 1, "j": 2, "k": 3.0, "v": 2.0}], "spectral": [1, 1, 2]}, "'k'"),
        (
            {"dim": 3, "mu": [], "spectral": [1, 1, 2], "decomposition": {"h": [3.9], "m": [1, 2]}},
            "'h'",
        ),
        (
            {"dim": 3, "mu": [], "spectral": [1, 1, 2], "decomposition": {"h": [3], "m": [1, False]}},
            "'m'",
        ),
        # only homogeneous data is supported; bool("no") would pass as true
        ({"dim": 3, "mu": [], "spectral": [1, 1, 2], "constant_structure": False}, "'constant_structure'"),
        ({"dim": 3, "mu": [], "spectral": [1, 1, 2], "constant_structure": "no"}, "'constant_structure'"),
        ({"dim": 3, "mu": [], "spectral": [1, 1, 2], "constant_structure": 0}, "'constant_structure'"),
        # float(true) would read these as 1
        ({"dim": 3, "mu": [], "spectral": [1, "t", 0], "param": True}, "'param'"),
        ({"dim": 3, "mu": [{"i": 1, "j": 2, "k": 3, "v": True}], "spectral": [1, 1, 2]}, "bad mu entry"),
        # bool is a numbers.Rational, so true would read as eigenvalue 1
        ({"dim": 3, "mu": [{"i": 1, "j": 2, "k": 3, "v": 2.0}], "spectral": [True, 1, 2]}, "'spectral'"),
        ({"dim": 3, "mu": [], "spectral": [1, "t", 0]}, "'param'"),
        # h and m must partition 1..dim
        ({"dim": 3, "mu": [], "spectral": [1, 1, 2], "decomposition": {"h": [3], "m": [1, 2, 2]}}, "decomposition"),
        ({"dim": 3, "mu": [], "spectral": [1, 1, 2], "decomposition": {"h": [9], "m": [1, 2]}}, "decomposition"),
    ],
)
def test_malformed_shape_is_input_error(capsys, data, field):
    code, out, err = run_cli(capsys, "verify", "--input", json.dumps(data))
    assert code == 2
    assert out == ""
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cone", "--spectral=1/0,1"],
        ["search", "--spectral", "1/0,1,2"],
        ["verify", "--input", HEISENBERG_JSON % ('"1/0"', "2")],
        ["verify", "--input", json.dumps({"dim": 3, "mu": [], "spectral": ["1/0", 1, 2]})],
        ["verify", "--input", json.dumps({"dim": 3, "mu": [], "spectral": [1, "t", 2], "param": "1/0"})],
        ["verify", "--input", json.dumps({"dim": 3, "mu": [], "spectral": [1, "1/0*t", 2], "param": 1})],
    ],
)
def test_zero_denominator_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "'1/0'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cone", "--spectral=1e-99999999,1,2"],
        ["search", "--spectral=1,1e99999999,2"],
        ["verify", "--input", HEISENBERG_JSON % ('"1e-99999999"', "2")],
        ["verify", "--input", HEISENBERG_JSON % ("1.0", '"2E+99_999_999"')],
        ["verify", "--input", json.dumps({"dim": 3, "mu": [], "spectral": [1, "1e-99999999*t", 2], "param": 1})],
    ],
)
def test_huge_decimal_exponent_is_input_error(argv):
    # Fraction would expand 10**exponent exactly and never finish: a child
    # process, so that a hang fails on the timeout instead of stalling the suite.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import sys\nfrom einext.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "decimal exponent past +-5000" in proc.stderr and "Traceback" not in proc.stderr


def test_overflowing_curvature_is_input_error(capsys):
    for command in (["verify"], ["classify", "--type", "1112"]):
        code, out, err = run_cli(capsys, *command, "--input", HEISENBERG_JSON % ("1e200", "2"))
        assert code == 2
        assert out == ""
        assert "overflows float64" in err and "not finite" in err


def test_overflowing_eigenvalue_is_input_error(capsys):
    # tr(D^2) overflows float64, or a product of two rescaled constants
    # overflows in the Ricci form: an error exit, not a numpy warning.
    texts = [
        json.dumps({"dim": 1, "mu": [], "spectral": [1.3407807929942597e154]}),
        json.dumps(
            {
                "dim": 3,
                "mu": [{"i": 3, "j": 1, "k": 1, "v": 1e160}, {"i": 3, "j": 2, "k": 2, "v": -1.0}],
                "spectral": [1, 1e160, 0],
            }
        ),
    ]
    for text in texts:
        for command in (["verify"], ["curvature"]):
            code, out, err = run_cli(capsys, *command, "--input", text)
            assert code == 2
            assert out == ""
            assert "overflows float64" in err


def test_overflowing_repeated_entry_is_input_error(capsys):
    # Neither value is infinite; their sum is, and the message says so.
    entry = {"i": 1, "j": 2, "k": 3, "v": 1e308}
    text = json.dumps({"dim": 3, "mu": [entry, entry], "spectral": [1, 1, 2]})
    code, out, err = run_cli(capsys, "verify", "--input", text)
    assert (code, out) == (2, "")
    assert "mu[1,2|3] given more than once adds up past float64" in err


def test_dimension_too_large_for_memory_is_input_error(capsys):
    # The constants are stored by their nonzero entries, so nothing of size
    # n^3 is allocated: the missing eigenvalues are refused first.
    code, out, err = run_cli(capsys, "verify", "--input", '{"dim": 100000, "spectral": []}')
    assert (code, out) == (2, "")
    assert err == "error: 0 eigenvalues for dimension 100000\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (HEISENBERG_JSON % (str(10**400), "1"), "mu[1,2|3] does not fit in float64"),
        (HEISENBERG_JSON % ("1.0", str(10**400)), "eigenvalue p_3 does not fit in float64"),
    ],
)
def test_value_past_float64_is_named(capsys, text, message):
    code, out, err = run_cli(capsys, "verify", "--input", text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_overflowing_time_names_u(capsys):
    code, out, err = run_cli(
        capsys, "curvature", "--input", HEISENBERG_JSON % ("1.0", "1"), "--u", "-1000"
    )
    assert code == 2
    assert out == ""
    assert "--u" in err and "structure constants" not in err


def test_unknown_flag_rejected(capsys):
    code = main(["verify", "--catalog", "table1:3", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_unknown_catalog_reference(capsys):
    code, _, err = run_cli(capsys, "verify", "--catalog", "nonsense")
    assert code == 2
    assert "nonsense" in err


@pytest.mark.parametrize(
    "argv, start",
    [
        (["verify", "--catalog", "nope"], "error: unknown catalog entry 'nope'"),
        (["catalog", "--name", "heisenberg:x"], "error: bad catalog reference 'heisenberg:x'"),
        (["catalog", "--name", "table1:4:-1e-330"], "error: bad catalog reference 'table1:4:-1e-330'"),
        (
            ["classify", "--type", "0001", "--catalog", "table1:4:1e-400"],
            "error: bad catalog reference 'table1:4:1e-400'",
        ),
    ],
)
def test_catalog_errors_print_the_message(capsys, argv, start):
    # A KeyError's str is the repr of its message, quotes and all.
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith(start)


def test_tolerance_is_not_read_from_the_environment(monkeypatch, capsys):
    spec = {
        "dim": 3,
        "mu": [{"i": 1, "j": 2, "k": 3, "v": 1.0}],
        "spectral": [1, 1, 2],
    }
    monkeypatch.setenv("EINEXT_TOL", "100")
    code, out, _ = run_cli(capsys, "verify", "--input", json.dumps(spec))
    assert code == 3
    assert json.loads(out)["tolerance"] == DEFAULT_TOL


@pytest.mark.parametrize(
    "argv, env",
    [
        (["verify", "--catalog", "table1:3"], "nan"),
        (["verify", "--catalog", "table1:3"], "-1e-9"),
        (["classify", "--type", "1112", "--catalog", "heisenberg:2"], "nan"),
        (["verify", "--catalog", "table1:3", "--tol", "1e-9"], "nan"),
    ],
)
def test_bad_tolerance_in_the_environment_is_ignored(capsys, monkeypatch, argv, env):
    # A value that --tol would refuse changes nothing when it is only in the
    # environment: the run is the same as without it.
    monkeypatch.delenv("EINEXT_TOL", raising=False)
    clean = run_cli(capsys, *argv)
    monkeypatch.setenv("EINEXT_TOL", env)
    assert run_cli(capsys, *argv) == clean
    assert clean[0] in (0, 3) and clean[2] == ""
    assert json.loads(clean[1])


def test_classify_cli(capsys):
    code, out, _ = run_cli(capsys, "classify", "--type", "1112", "--catalog", "heisenberg:2")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run_cli(capsys, "classify", "--type", "0001", "--catalog", "heisenberg:2")
    assert code == 2  # wrong type is an input error, not a failed check


def test_curvature_cli(capsys):
    code, out, _ = run_cli(capsys, "curvature", "--catalog", "table1:3", "--u", "0.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["extension"]["ric_00"] == pytest.approx(-6.0)
    grid = payload["evaluated_at"]["extension_ricci"]
    assert grid[0][0] == pytest.approx(-6.0)
    assert grid[3][3] == pytest.approx(-6.0)


def test_catalog_list_round_trips(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--list")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) >= 6
    for item in payload:
        mu, spec, _ = algebra_from_json(item["algebra"])
        assert spec is not None
        assert mu.dim == item["algebra"]["dim"]


def test_catalog_name_parametric(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--name", "table1:4:0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_constant"] == pytest.approx(-1.25)
    assert "param" not in payload["algebra"]
    assert payload["algebra"]["spectral"] == [1, "1/2", 0]
    mu, spec, _ = algebra_from_json(payload["algebra"])
    assert spec.spectral == (1, Fraction(1, 2), 0)


def test_catalog_name_decimal_parameter_is_exact(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--name", "table1:4:0.1")
    assert code == 0
    assert json.loads(out)["algebra"]["spectral"] == [1, "1/10", 0]


def filiform(spectral):
    """Filiform spec of type (1,2,3,4), scaled by 1/10, with the given eigenvalues."""
    v = math.sqrt(20) / 10
    mu = [{"i": 1, "j": 2, "k": 3, "v": v}, {"i": 1, "j": 3, "k": 4, "v": -v}]
    return json.dumps({"dim": 4, "mu": mu, "spectral": spectral})


def test_decimal_eigenvalues_verify_as_written(capsys):
    # As dyadic rationals 0.1 + 0.2 != 0.3, which split off two spurious
    # exponent classes of +-1/36028797018963968 and failed the spec.
    decimal = run_cli(capsys, "verify", "--input", filiform([0.1, 0.2, 0.3, 0.4]))
    exact = run_cli(capsys, "verify", "--input", filiform(["1/10", "2/10", "3/10", "4/10"]))
    assert decimal == exact
    code, out, _ = decimal
    assert code == 0
    assert json.loads(out)["einstein_constant"] == pytest.approx(-0.3)


_HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 7),
    st.floats(),
    st.sampled_from(["1/2", "1/0", "x", "", "t", "1+t", "2/0*t", "1e400", 10**400, [], {}]),
)


_VALUE = st.one_of(st.sampled_from([1, -2, 0.5, "1/2", "-3/4", 0.1]), st.floats(-100, 100))
_EIGENVALUE = st.sampled_from([0, 1, 2, -1, "1/2", 0.5, 0.1, "1/2*t"])


def _well_formed(n):
    """The entries (i < j) and the eigenvalues of a well-formed spec of dimension n."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    entries = st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, n), _VALUE), max_size=4)
    return st.tuples(entries if pairs else st.just([]), st.lists(_EIGENVALUE, min_size=n, max_size=n))


# Built once: a strategy built inside the draw costs more than the CLI call.
_WELL_FORMED = {n: _well_formed(n) for n in range(1, 6)}
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["dim", "mu", "spectral", "param", "decomposition", "constant_structure",
                         "entry", "eigenvalue"]),
        _HOSTILE,
        st.integers(0, 4),
        st.booleans(),
    ),
    max_size=2,
)


@st.composite
def hostile_algebras(draw):
    """Algebra JSON text with dim <= 5: a well-formed spec with up to two
    fields, entries or eigenvalues replaced by hostile values, or dropped,
    and one time in ten truncated."""
    n = draw(st.integers(1, 5))
    entries, spectral = draw(_WELL_FORMED[n])
    data = {"dim": n, "mu": [{"i": i, "j": j, "k": k, "v": v} for (i, j), k, v in entries], "spectral": spectral}
    if "1/2*t" in spectral:
        data["param"] = 0.25
    for target, bad, pick, replace in draw(_EDITS):
        mu, spectral = data.get("mu"), data.get("spectral")
        if target == "entry":
            if isinstance(mu, list) and mu:
                item, key = mu[pick % len(mu)], "ijkv"[pick % 4]
                if replace:
                    item[key] = bad
                else:
                    item.pop(key, None)
        elif target == "eigenvalue":
            if isinstance(spectral, list):
                spectral[pick % n] = bad
        elif target == "decomposition":
            data[target] = {"h": [bad], "m": list(range(1, n + 1))}
        elif replace:
            data[target] = bad
        else:
            data.pop(target, None)
    text = json.dumps(data)
    truncate, cut = draw(st.tuples(st.integers(0, 9), st.integers(0, len(text))))
    return text[:cut] if truncate == 9 else text


@settings(max_examples=80, deadline=None)
@given(
    hostile_algebras(),
    st.sampled_from(
        [["verify"], ["classify", "--type", "0001"], ["classify", "--type", "1110"],
         ["classify", "--type", "1112"], ["curvature"], ["curvature", "--u", "0.5"]]
    ),
)
def test_hostile_algebra_json_exits_cleanly(text, command):
    # A documented exit code, and stdout is either empty or strict JSON.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--input", text])
    assert code in (0, 2, 3)
    if out.getvalue():
        strict_json(out.getvalue())


def test_cone_cli(capsys):
    # leading-dash values go through the --flag=value form
    code, out, _ = run_cli(capsys, "cone", "--spectral=-3,-2,-1,1,2,3")
    assert code == 0
    assert json.loads(out)["feasible"] is True
    code, out, _ = run_cli(capsys, "cone", "--spectral=-1,1,2")
    assert code == 3
    assert json.loads(out)["feasible"] is False
    code, _, err = run_cli(capsys, "cone", "--spectral", "0,1,1")
    assert code == 2
    code, out, err = run_cli(capsys, "cone", "--spectral=1")
    assert (code, out) == (2, "")
    assert "Traceback" not in err


@pytest.mark.parametrize("spectral", ["1e-2200,1,2", "1e-5000,1,2"])
def test_cone_certificate_past_the_digit_limit_is_input_error(capsys, spectral):
    # The certificate is found, but it has a number Python will not print
    # under its int-to-str digit limit, which stays as it is.
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "cone", f"--spectral={spectral}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --spectral '{spectral}': ")
    assert f"{limit:,}-digit limit" in err and "Traceback" not in err
    assert sys.get_int_max_str_digits() == limit


TINY_INPUT = '{"dim":3,"mu":[{"i":1,"j":2,"k":3,"v":1.0}],"spectral":["1e-4999",1,2]}'


@pytest.mark.parametrize(
    "argv, source",
    [
        (["verify", "--input", TINY_INPUT], "--input"),
        (["curvature", "--input", TINY_INPUT], "--input"),
        # The limit stops the type-mismatch message of the classifier.
        (["classify", "--type", "1112", "--input", TINY_INPUT], "--input"),
        (["search", "--spectral=1e-4999,1,2", "--restarts", "1"], "--spectral '1e-4999,1,2'"),
    ],
)
def test_a_number_past_the_digit_limit_names_the_input(capsys, argv, source):
    # 10^4999 is the denominator of an exact eigenvalue; Python will not print
    # it under its int-to-str digit limit, which stays as it is.
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {source}: a number past Python's {limit:,}-digit limit for integer string conversion\n"
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "--name", "table1:4:1e200"],
        ["verify", "--catalog", "table1:4:1e200"],
        ["curvature", "--catalog", "table1:4:1e200"],
        ["classify", "--type", "0001", "--catalog", "table1:4:1e200"],
    ],
)
def test_catalog_parameter_whose_constant_overflows_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad catalog reference 'table1:4:1e200': ")
    assert "-(1 + p^2) overflows float64" in err and "curvature" not in err


@pytest.mark.parametrize("pretty", [[], ["--pretty"]])
def test_a_non_finite_result_is_refused_before_stdout(capsys, monkeypatch, pretty):
    # The emitter's guard is the last check before stdout: a compute step
    # that returns inf exits 2 rather than print the non-standard Infinity.
    monkeypatch.setattr(cli, "_cmd_catalog", lambda args, data: ({"value": [1.0, math.inf]}, True))
    code, out, err = run_cli(capsys, "catalog", "--list", *pretty)
    assert (code, out, err) == (2, "", f"error: {cli.OVERFLOW_MESSAGE}\n")


def test_search_cli_deterministic(capsys):
    args = ("search", "--spectral", "1,1,2", "--restarts", "4", "--seed", "9")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["converged"] is True


def test_search_cli_pattern_full(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--spectral", "1,1,2", "--pattern", "full", "--seed", "42"
    )
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_search_without_jacobi_weight_is_not_converged(capsys):
    # The model then drops the Jacobi rows, so its best point is Einstein
    # data far from a Lie algebra, which the Jacobi clause refuses.
    code, out, _ = run_cli(capsys, "search", "--spectral", "1,1,1,1,2", "--jacobi-weight", "0", "--seed", "0")
    payload = json.loads(out)
    assert (code, payload["converged"]) == (3, False)
    assert jacobi_residual(algebra_from_json({"dim": 5, "mu": payload["mu"]})[0]) > 1.0


@pytest.mark.parametrize(
    "setting, field",
    [
        ("--tol=nan", "tolerance"),
        ("--tol=-1e-10", "tolerance"),
        ("--jacobi-weight=nan", "jacobi_weight"),
        ("--jacobi-weight=inf", "jacobi_weight"),
        ("--seed=-1", "seed"),
    ],
)
def test_search_non_finite_setting_is_input_error(capsys, setting, field):
    code, out, err = run_cli(capsys, "search", "--spectral", "1,1,2", setting)
    assert code == 2
    assert out == ""
    assert field in err and "structure constants" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--catalog", "table1:3", "--tol", "nan"], "--tol"),
        (["verify", "--catalog", "table1:3", "--tol=-1"], "--tol"),
        (["classify", "--type", "1112", "--catalog", "heisenberg:2", "--tol=-1"], "--tol"),
        (["classify", "--type", "1112", "--catalog", "heisenberg:2", "--tol", "inf"], "--tol"),
        (["curvature", "--catalog", "table1:3", "--u", "nan"], "--u"),
        (["curvature", "--catalog", "table1:3", "--u", "-inf"], "--u"),
    ],
)
def test_bad_tolerance_or_time_is_input_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err and "structure constants" not in err


def test_verify_stdin(capsys, monkeypatch):
    import io

    spec = {
        "dim": 3,
        "mu": [{"i": 1, "j": 2, "k": 3, "v": 2.0}],
        "spectral": [1, 1, 2],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, _ = run_cli(capsys, "verify", "--input", "-")
    assert code == 0
    assert json.loads(out)["einstein"] is True


def test_verify_reads_an_input_file(capsys, tmp_path):
    _, algebra, _ = run_cli(capsys, "catalog", "--name", "table1:3")
    path = tmp_path / "table1_3.json"
    path.write_text(json.dumps(json.loads(algebra)["algebra"]), encoding="utf-8")
    from_file = run_cli(capsys, "verify", "--input", str(path))
    assert from_file == run_cli(capsys, "verify", "--catalog", "table1:3")
    assert from_file[0] == 0


def test_unreadable_input_path_is_input_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "--input", str(tmp_path / "missing.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read ")


def test_json_array_on_stdin_is_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[1,2]"))
    code, out, err = run_cli(capsys, "verify", "--input", "-")
    assert (code, out, err) == (2, "", "error: expected a JSON object in <stdin>\n")


@pytest.mark.parametrize("argv", [["verify"], ["classify", "--type", "1112"], ["curvature"]])
def test_no_input_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: provide --input or --catalog\n")


def test_pretty_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--catalog", "table1:2", "--pretty")
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["einstein_constant"] == pytest.approx(-3.0)
