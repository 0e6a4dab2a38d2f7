"""Golden outputs of the command line: the exit code and stdout of `verify`,
`curvature --u 0.5` and `classify` for the matching type, on every catalog
entry and on hand-built algebras; of `cone` on the types below; and of
`enumerate --report-both` in dimensions 3-5; and of `search` at seed 0 on
the types below; compared exactly, key order included, as the JSON text of
the parsed output and of the file.

The hand-built algebras are the two of ROADMAP item 1, on which the
classifiers and `verify` disagree: real hyperbolic 3-space with e_4 rotating
(e_1, e_2) at 0.4 (type 0001), and R^3 x_A R with A = diag(s, s, -2s),
s = 1/sqrt(2), plus a (1,2)-plane rotation at 0.3 (type 1110); the latter
also with the frame reversed, so the distinguished direction comes first.
Three more carry a decomposition, so `verify` reports the standard
modification: the first, e_4 rotating (e_1, e_2) with eigenvalue 1 over
hyperbolic 3-space, is twisted away; the second, with that action made
symmetric, is refused as not skew; and R x| R^3 with m-eigenvalues
(1, 1, 2), e_4 rotating the (1, 1) block and shifting e_1 into the
eigenvalue-2 line, is refused because Q_4 and N_4 do not commute.

The `cone` types are the paper's Remark 3.3 instance, the three types the
cone condition rejects up to dimension 6, two with entries too large for
int64 arithmetic (no orthogonal root, so the target is the witness), and
the scalar type (zero target).

The `search` types are (1,1,2) and (1,2,3,4) on their sparsity patterns and
(1,1,1,1,2) on the full pattern: they pin the solver's model, its start
points and the Levenberg-Marquardt trajectory, each restart's objective
trace included.

After a change meant to alter these outputs, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from einext.catalog import entries
from einext.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

R = 2**-0.5
HAND_BUILT = {
    "0001-rotated": {
        "dim": 4,
        "mu": [{"i": 1, "j": 3, "k": 1, "v": -R}, {"i": 2, "j": 3, "k": 2, "v": -R},
               {"i": 1, "j": 4, "k": 2, "v": -0.4}, {"i": 2, "j": 4, "k": 1, "v": 0.4}],
        "spectral": [0, 0, 0, 1],
    },
    "1110-skew": {
        "dim": 4,
        "mu": [{"i": 1, "j": 4, "k": 1, "v": -R}, {"i": 2, "j": 4, "k": 2, "v": -R},
               {"i": 3, "j": 4, "k": 3, "v": 2 * R},
               {"i": 1, "j": 4, "k": 2, "v": -0.3}, {"i": 2, "j": 4, "k": 1, "v": 0.3}],
        "spectral": [1, 1, 1, 0],
    },
    "1110-skew-reversed": {
        "dim": 4,
        "mu": [{"i": 1, "j": 4, "k": 4, "v": R}, {"i": 1, "j": 3, "k": 3, "v": R},
               {"i": 1, "j": 2, "k": 2, "v": -2 * R},
               {"i": 1, "j": 4, "k": 3, "v": 0.3}, {"i": 1, "j": 3, "k": 4, "v": -0.3}],
        "spectral": [0, 1, 1, 1],
    },
    "twist-accepted": {
        "dim": 4,
        "mu": [{"i": 1, "j": 3, "k": 1, "v": -R}, {"i": 2, "j": 3, "k": 2, "v": -R},
               {"i": 1, "j": 4, "k": 2, "v": -0.4}, {"i": 2, "j": 4, "k": 1, "v": 0.4}],
        "spectral": [0, 0, 0, 1],
        "decomposition": {"h": [4], "m": [1, 2, 3]},
    },
    "twist-not-skew": {
        "dim": 4,
        "mu": [{"i": 1, "j": 3, "k": 1, "v": -R}, {"i": 2, "j": 3, "k": 2, "v": -R},
               {"i": 1, "j": 4, "k": 2, "v": -0.4}, {"i": 2, "j": 4, "k": 1, "v": -0.4}],
        "spectral": [0, 0, 0, 1],
        "decomposition": {"h": [4], "m": [1, 2, 3]},
    },
    "twist-not-commuting": {
        "dim": 4,
        "mu": [{"i": 1, "j": 4, "k": 2, "v": -0.5}, {"i": 2, "j": 4, "k": 1, "v": 0.5},
               {"i": 1, "j": 4, "k": 3, "v": -1.0}],
        "spectral": [1, 1, 2, 1],
        "decomposition": {"h": [4], "m": [1, 2, 3]},
    },
}

CONE_TYPES = (
    "-3,-2,-1,1,2,3",
    "-4,-1,2,3,4,5",
    "-3,-2,-1,2,3,4",
    "-2,-1,2,3,4,6",
    "1e300,1,2",
    "3000000000,1,2",
    "1,1,1",
)

SEARCH_ARGS = (
    ["--spectral", "1,1,2"],
    ["--spectral", "1,1,1,1,2", "--pattern", "full"],
    ["--spectral", "1,2,3,4"],
)


def matching_type(spectral) -> str | None:
    """The classifier whose type is the eigenvalues up to order, if any."""
    values = sorted(Fraction(x) for x in spectral)
    for code, lam, nu in (("0001", 0, 1), ("1110", 1, 0), ("1112", 1, 2)):
        if values == sorted([Fraction(lam)] * (len(values) - 1) + [Fraction(nu)]):
            return code
    return None


def cases() -> dict[str, list[list[str]]]:
    """Golden file stem -> the command lines it holds."""
    sources = {e.name: (["--catalog", e.name], e.spec.spectral) for e in entries()}
    sources.update(
        (name, (["--input", json.dumps(data)], data["spectral"])) for name, data in HAND_BUILT.items()
    )
    out = {}
    for name, (source, spectral) in sources.items():
        commands = [["verify", *source], ["curvature", *source, "--u", "0.5"]]
        code = matching_type(spectral)
        if code:
            commands.append(["classify", "--type", code, *source])
        out[name.replace(":", "_")] = commands
    out["cone"] = [["cone", f"--spectral={p}"] for p in CONE_TYPES]
    out["search"] = [["search", *args, "--seed", "0"] for args in SEARCH_ARGS]
    out["enumerate"] = [["enumerate", "--dim", str(d), "--report-both"] for d in (3, 4, 5)]
    return out


def run(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": json.loads(stdout.getvalue())}


@pytest.mark.parametrize("stem", sorted(cases()))
def test_output_matches_golden(stem):
    golden = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
    assert json.dumps([run(argv) for argv in cases()[stem]]) == json.dumps(golden)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, commands in cases().items():
        text = json.dumps([run(argv) for argv in commands], indent=1)
        (GOLDEN / f"{stem}.json").write_text(text + "\n", encoding="utf-8")
