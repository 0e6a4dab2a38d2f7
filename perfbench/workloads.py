"""The four workloads: their inputs, their operations and the checks of each output.

A workload is built from the seed (this is the set-up a cold start pays),
then ``prepare`` computes the independent references its checks compare
against.  ``run`` performs one operation through einext's public API or its
command line; ``judge`` returns None for a correct output, FAILED for an
operation that failed, or a message saying what is wrong.

Operations call einext through module attributes looked up at call time,
so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref

FAILED = "failed"
DIM5_FILE = Path(__file__).resolve().parent / "types_dim5.json"


PIN_ENV = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env(root: Path) -> dict:
    """Environment for every child process: einext from this checkout, pinned threads, no bytecode."""
    env = {k: v for k, v in os.environ.items() if k != "EINEXT_TOL"}
    env.update(PIN_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _matrix_gap(a, b) -> float:
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _einstein_verdict(n, mu, p, label: str) -> bool:
    """Koszul verdict with a gap: residuals between 1e-8 and 1e-5 are refused as undecided."""
    residual = ref.einstein_residual(n, mu, p)
    if 1e-8 <= residual <= 1e-5:
        raise ValueError(f"reference cannot decide {label}: residual {residual:.3e}")
    return residual < 1e-8


def classifier_for(exact) -> str | None:
    """The structural classifier of an exact eigenvalue tuple, if it has one."""
    values = sorted(exact)
    n = len(values)
    for code, lam, nu in (("0001", 0, 1), ("1110", 1, 0), ("1112", 1, 2)):
        if values == sorted([Fraction(lam)] * (n - 1) + [Fraction(nu)]):
            return code
    return None


def _found_solution_defect(n: int, entries, spectral) -> str | None:
    """Checks on a converged search result: pattern, Einstein by Koszul, Jacobi."""
    allowed = {Fraction(0), *spectral}
    for (i, j, k) in entries:
        if spectral[i - 1] + spectral[j - 1] - spectral[k - 1] not in allowed:
            return f"entry ({i},{j}|{k}) outside the admissible pattern"
    mu = ref.antisymmetric(entries)
    p = [float(x) for x in spectral]
    residual = ref.einstein_residual(n, mu, p, us=(-0.3, 0.0, 0.3))
    if residual > 1e-3:
        return f"converged result is not Einstein (Koszul residual {residual:.3e})"
    jac = ref.jacobi_defect(n, mu)
    if jac > 1e-5:
        return f"converged result violates the Jacobi identity ({jac:.3e})"
    return None


# ---------------------------------------------------------------------------


class Enumerate:
    """One op: ``enumeration_report(5)``, the unfiltered walk plus 51 cone certificates."""

    name = "enumerate"

    def __init__(self, seed: int, root: Path):
        from einext import spectral

        self.spectral = spectral
        self.ops = [5]

    def prepare(self) -> list[str]:
        """Brute-force types (dims 3-4 live, dim 5 stored), their properties and
        verified cone certificates; then the program's dims 3-4 against them."""
        stored = json.loads(DIM5_FILE.read_text())
        truth = {3: ref.brute_force_types(3), 4: ref.brute_force_types(4),
                 5: {tuple(t) for t in stored["types"]}}
        problems = []
        self.expected = {}
        for dim, types in truth.items():
            feasible = set()
            for t in sorted(types):
                problems.extend(f"type {t}: {bad}" for bad in ref.type_defects(t))
                cert = self.spectral.cone_membership([Fraction(x) for x in t])
                if not ref.cone_certificate_holds(t, cert.feasible, cert.generators,
                                                  cert.coefficients or {}, cert.witness):
                    problems.append(f"cone certificate of {t} does not hold")
                if cert.feasible:
                    feasible.add(t)
            self.expected[dim] = (types, feasible)
        problems.extend(filter(None, (self.judge(dim, self.run(dim)) for dim in (3, 4))))
        return problems

    def warm_up(self) -> None:
        self.run(3)

    def run(self, dim: int):
        return self.spectral.enumeration_report(dim)

    def judge(self, dim: int, report) -> str | None:
        types, feasible = self.expected[dim]
        got = {ref.canonical(p.entries) for p in report.unfiltered}
        if got != types:
            return f"dim {dim}: types differ from brute force ({len(got)} vs {len(types)})"
        if {ref.canonical(p.entries) for p in report.cone_filtered} != feasible:
            return f"dim {dim}: cone-filtered set differs from the verified certificates"
        return None


# ---------------------------------------------------------------------------


@dataclass
class VerifyCase:
    label: str
    data: dict
    closed_constant: float | None = None
    classifier: str | None = None
    expected: dict = field(default_factory=dict)


class Verify:
    """One op: one spec through ``algebra_from_json``, ``verify_extension``,
    ``extension_ricci`` and the classifier for its type, if it has one."""

    name = "verify"
    U_CHECK = 0.3

    def __init__(self, seed: int, root: Path):
        from einext import algebra, catalog, curvature, verifier

        self.algebra, self.curvature, self.verifier = algebra, curvature, verifier
        rng = random.Random(seed)

        def case(label, spec, closed=None):
            return VerifyCase(label, algebra.algebra_to_json(spec.algebra, spec), closed)

        cases = [case(f"table1:{row}", catalog.table1(row).spec) for row in (1, 2, 3)]
        for t in (Fraction(rng.randint(-8, 10), 4) for _ in range(2)):
            cases.append(case(f"table1:4:{t}", catalog.table1(4, float(t)).spec, -(1 + float(t) ** 2)))
        base = catalog.e2().spec
        cases.append(case("e2", base))
        cases.append(case("identity(e2)", catalog.identity_extension(base.algebra).spec))
        for k in range(1, 9):
            cases.append(case(f"heisenberg:{k}", catalog.heisenberg(k).spec, -(2.0 * k + 4.0)))
        cases.append(case("e2 x e2", catalog.product(base, base)))
        h1 = catalog.heisenberg(1).spec
        cases.append(case("heisenberg:1 x heisenberg:1", catalog.product(h1, h1)))
        for k in (2, 3, 4):
            item = case(f"heisenberg:{k} perturbed", catalog.heisenberg(k).spec)
            entry = rng.choice(item.data["mu"])
            entry["v"] += rng.choice((-1, 1)) * rng.uniform(0.1, 0.5)
            cases.append(item)
        self.ops = cases

    def prepare(self) -> list[str]:
        for item in self.ops:
            n, mu, p, exact = ref.spec_from_json(item.data)
            item.classifier = classifier_for(exact)
            item.expected = {
                "einstein": _einstein_verdict(n, mu, p, item.label),
                "constant": float(-sum(x * x for x in exact)),
                "extension": ref.extension_ricci_at(n, mu, p, self.U_CHECK),
            }
        return []

    def warm_up(self) -> None:
        self.run(self.ops[0])

    def run(self, item: VerifyCase):
        _, spec, _ = self.algebra.algebra_from_json(item.data)
        report = self.verifier.verify_extension(spec)
        curv = self.curvature.extension_ricci(spec)
        cls = None
        if item.classifier:
            cls = getattr(self.verifier, f"classify_type_{item.classifier}")(spec)
        return report, curv, cls

    def judge(self, item: VerifyCase, out) -> str | None:
        report, curv, cls = out
        exp = item.expected
        if report.einstein != exp["einstein"]:
            return f"{item.label}: verdict {report.einstein}, Koszul says {exp['einstein']}"
        if report.einstein:
            constant = report.einstein_constant
            if not _close(constant, exp["constant"]):
                return f"{item.label}: constant {constant} is not -tr(D^2) = {exp['constant']}"
            if item.closed_constant is not None and not _close(constant, item.closed_constant):
                return f"{item.label}: constant {constant}, closed form {item.closed_constant}"
        ext = curv.evaluate_extension(self.U_CHECK).tolist()
        scale = 1.0 + max(abs(x) for row in exp["extension"] for x in row)
        if _matrix_gap(ext, exp["extension"]) > 1e-9 * scale:
            return f"{item.label}: extension Ricci differs from the Koszul computation"
        if cls is not None and cls.passed != exp["einstein"]:
            return f"{item.label}: classifier {item.classifier} says {cls.passed}"
        return None


# ---------------------------------------------------------------------------


class Search:
    """One op: ``search(SearchProblem(type, restarts=8, seed=0))``.

    The problem seed is fixed, so the input set does not depend on the
    workload seed: the Levenberg-Marquardt work of one problem seed on
    (1,1,1,1,2) varies by about 30 % from seed to seed, and with two seeds
    per type drawn from the workload seed that alone spread ops_per_s over
    five runs by as much as its bound.
    """

    name = "search"
    TYPES = ((1, 1, 2), (1, 1, 1), (0, 0, 1), (1, 1, 0),
             (1, 1, 1, 1), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1, 2))

    def __init__(self, seed: int, root: Path):
        from einext import solver

        self.solver = solver
        self.ops = [solver.SearchProblem(spectral=tuple(Fraction(x) for x in t), restarts=8, seed=0)
                    for t in self.TYPES]

    def prepare(self) -> list[str]:
        return []

    def warm_up(self) -> None:
        self.run(self.ops[0])

    def run(self, problem):
        return self.solver.search(problem)

    def judge(self, problem, result) -> str | None:
        if not result.converged:
            return None
        entries = {(e["i"], e["j"], e["k"]): e["v"] for e in result.to_json()["mu"]}
        problem_text = f"type {tuple(int(x) for x in problem.spectral)} seed {problem.seed}"
        defect = _found_solution_defect(problem.dim, entries, problem.spectral)
        return f"{problem_text}: {defect}" if defect else None


# ---------------------------------------------------------------------------


BOOTSTRAP = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import einext.cli\n"
    "t1 = time.perf_counter()\n"
    "try:\n"
    "    code = einext.cli.main(sys.argv[1:])\n"
    "finally:\n"
    "    t2 = time.perf_counter()\n"
    "    sys.stdout.flush()\n"
    "    sys.stderr.write('\\n@perfbench %r %r %r\\n' % (t0, t1, t2))\n"
    "sys.exit(code)\n"
)


@dataclass
class CliOp:
    label: str
    args: list
    stdin: str = ""
    hostile: bool = False
    expected: object = None


@dataclass
class CliOut:
    code: int
    stdout: str
    stderr: str
    start: float
    end: float
    maxrss_kb: int
    marks: tuple | None = None


def strict_json(text: str):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def run_child(argv, stdin: str, env: dict, cwd: Path) -> CliOut:
    """Run one child to its end, feeding it ``stdin``; waits with wait4 to get its peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        try:
            proc.stdin.write(stdin.encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
    finally:
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return CliOut(proc.returncode, out.decode(), b"".join(err).decode(), start, end, usage.ru_maxrss)


TABLE1_3 = {"dim": 3, "mu": [{"i": 1, "j": 2, "k": 3, "v": 2.0}], "spectral": [1, 1, 2]}
HEISENBERG_2 = {"dim": 5, "mu": [{"i": 1, "j": 2, "k": 5, "v": 2.0}, {"i": 3, "j": 4, "k": 5, "v": 2.0}],
                "spectral": [1, 1, 1, 1, 2]}
TABLE1_4_HALF = {"dim": 3, "mu": [{"i": 3, "j": 1, "k": 1, "v": 0.5}, {"i": 3, "j": 2, "k": 2, "v": -1.0}],
                 "spectral": [1, "1/2", 0]}
CATALOG_NAMES = ["table1:1", "table1:2", "table1:3", "table1:4:1", "heisenberg:1",
                 "heisenberg:2", "heisenberg:3", "heisenberg:4", "e2"]
HOSTILE_NAN = '{"dim": 3, "mu": [{"i": 1, "j": 2, "k": 3, "v": NaN}], "spectral": [1, 1, 2]}'
HOSTILE_INF = '{"dim": 3, "mu": [{"i": 1, "j": 2, "k": 3, "v": 2.0}], "spectral": [1, 1, Infinity]}'


class Cli:
    """One op: one fresh ``python -m einext.cli`` process on a small input."""

    name = "cli"

    def __init__(self, seed: int, root: Path):
        from einext import algebra, catalog

        rng = random.Random(seed)
        self.root = root
        self.env = child_env(root)
        self.traced = False
        self.peak_child_kb = 0
        t = Fraction(rng.randint(-8, 10), 4)
        row4 = catalog.table1(4, float(t)).spec
        self.stdin_verify = CliOp(f"verify stdin table1:4:{t}", ["verify", "--input", "-"],
                                  json.dumps(algebra.algebra_to_json(row4.algebra, row4)))
        self.ops = [
            CliOp("verify table1:3", ["verify", "--catalog", "table1:3"]),
            CliOp("classify 1112 heisenberg:2", ["classify", "--type", "1112", "--catalog", "heisenberg:2"]),
            CliOp("curvature table1:4:0.5", ["curvature", "--catalog", "table1:4:0.5", "--u", "0.5"]),
            CliOp("catalog --list", ["catalog", "--list"]),
            CliOp("cone p6", ["cone", "--spectral=-3,-2,-1,1,2,3"]),
            CliOp("enumerate 4", ["enumerate", "--dim", "4"]),
            CliOp("search 1,1,2", ["search", "--spectral", "1,1,2", "--seed", str(rng.randrange(2**31))]),
            self.stdin_verify,
            CliOp("verify stdin NaN", ["verify", "--input", "-"], HOSTILE_NAN, hostile=True),
            CliOp("verify stdin Infinity", ["verify", "--input", "-"], HOSTILE_INF, hostile=True),
        ]

    def prepare(self) -> list[str]:
        def verdict(data, label):
            n, mu, p, exact = ref.spec_from_json(data)
            return _einstein_verdict(n, mu, p, label), float(-sum(x * x for x in exact))

        by_label = {op.label: op for op in self.ops}
        by_label["verify table1:3"].expected = verdict(TABLE1_3, "table1:3")
        by_label["classify 1112 heisenberg:2"].expected = verdict(HEISENBERG_2, "heisenberg:2")
        n, mu, p, _ = ref.spec_from_json(TABLE1_4_HALF)
        by_label["curvature table1:4:0.5"].expected = ref.extension_ricci_at(n, mu, p, 0.5)
        by_label["enumerate 4"].expected = ref.brute_force_types(4)
        op = self.stdin_verify
        op.expected = verdict(json.loads(op.stdin), op.label)
        return []

    def warm_up(self) -> None:
        self.run(self.ops[0])

    def run(self, op: CliOp) -> CliOut:
        if self.traced:
            argv = [sys.executable, "-c", BOOTSTRAP, *op.args]
        else:
            argv = [sys.executable, "-m", "einext.cli", *op.args]
        out = run_child(argv, op.stdin, self.env, self.root)
        self.peak_child_kb = max(self.peak_child_kb, out.maxrss_kb)
        if self.traced:
            tail = [line for line in out.stderr.splitlines() if line.startswith("@perfbench ")]
            out.marks = tuple(float(x) for x in tail[-1].split()[1:]) if tail else None
        return out

    def judge(self, op: CliOp, out: CliOut) -> str | None:
        if op.hostile:
            # Correct handling: exit 2 with nothing on stdout but strict JSON.
            if out.code != 2:
                return FAILED
            try:
                if out.stdout.strip():
                    strict_json(out.stdout)
            except ValueError:
                return FAILED
            return None
        try:
            payload = strict_json(out.stdout)
        except ValueError as exc:
            return f"{op.label}: stdout is not strict JSON ({exc}); exit {out.code}"
        problem = self._judge_payload(op, out.code, payload)
        return f"{op.label}: {problem}" if problem else None

    def _judge_payload(self, op: CliOp, code: int, payload) -> str | None:
        label = op.label
        if label.startswith("verify"):
            einstein, constant = op.expected
            if code != (0 if einstein else 3) or payload["einstein"] != einstein:
                return f"exit {code}, einstein {payload['einstein']}; Koszul says {einstein}"
            if einstein and not _close(payload["einstein_constant"], constant):
                return f"constant {payload['einstein_constant']} is not -tr(D^2) = {constant}"
        elif label.startswith("classify"):
            einstein, _ = op.expected
            if code != (0 if einstein else 3) or payload["passed"] != einstein:
                return f"exit {code}, passed {payload['passed']}; Koszul says {einstein}"
        elif label.startswith("curvature"):
            got = payload["evaluated_at"]["extension_ricci"]
            if code != 0 or _matrix_gap(got, op.expected) > 1e-9:
                return "extension Ricci differs from the Koszul computation"
        elif label.startswith("catalog"):
            if code != 0 or [e["name"] for e in payload] != CATALOG_NAMES:
                return f"exit {code}, entries {[e['name'] for e in payload]}"
            for entry in payload:
                n, mu, p, exact = ref.spec_from_json(entry["algebra"])
                if _einstein_verdict(n, mu, p, entry["name"]) != entry["expected_pass"]:
                    return f"{entry['name']}: expected_pass disagrees with Koszul"
                if not _close(entry["expected_constant"], float(-sum(x * x for x in exact))):
                    return f"{entry['name']}: expected constant is not -tr(D^2)"
        elif label.startswith("cone"):
            p = [-3, -2, -1, 1, 2, 3]
            feasible = payload["feasible"]
            gens = ref.perp_roots(p)
            if code != (0 if feasible else 3) or not ref.cone_certificate_holds(
                p, feasible, gens, payload.get("coefficients", {}), payload.get("witness")
            ):
                return "cone certificate does not hold"
        elif label.startswith("enumerate"):
            if code != 0 or {ref.canonical(t) for t in payload} != op.expected:
                return "types differ from brute force"
        elif label.startswith("search"):
            if code != (0 if payload["converged"] else 3):
                return f"exit {code} with converged {payload['converged']}"
            if payload["converged"]:
                entries = {(e["i"], e["j"], e["k"]): e["v"] for e in payload["mu"]}
                return _found_solution_defect(3, entries, [Fraction(1), Fraction(1), Fraction(2)])
        return None


WORKLOADS = {cls.name: cls for cls in (Enumerate, Verify, Search, Cli)}


def build(name: str, seed: int, root: Path):
    return WORKLOADS[name](seed, root)
