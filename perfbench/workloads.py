"""The four workloads: seeded inputs, the program calls, and their checks.

Every workload is a sequence of rounds.  A round is a fixed list of
operation slots; the seed (with the round number) draws the values in each
slot, never the slot list itself, so every round of every seed asks for the
same kinds and sizes of work.  That keeps throughput comparable across
seeds while the inputs still change.

An operation has four parts:

* ``run`` makes the program calls and nothing else; the caller times it;
* ``collect`` reads what a command-line run wrote (untimed);
* ``verify`` raises :class:`Mismatch` unless the output agrees with an
  oracle that does not share the code path under test;
* ``corrupt`` returns a copy of a correct output with one value wrong, and
  the caller asserts that ``verify`` rejects it.

Program objects (``ConvexPL``, ``LocalModel``, tables, ...) are built inside
``run``: they cache state, and a traced rerun of the same operation must do
the same work as the untraced run.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import types
from fractions import Fraction as F

import numpy as np

from nama import cli, comparison, forms, hybrid, potential, realma


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


def q(value):
    """A rational as the ``p/q`` string the config files use."""
    return str(F(value))


def exact_det(matrix):
    """Determinant by Gaussian elimination over the rationals."""
    rows = [[F(v) for v in r] for r in matrix]
    k = len(rows)
    det = F(1)
    for c in range(k):
        pivot = next((r for r in range(c, k) if rows[r][c] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, k):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


def num(cell):
    """A CSV cell (integer, decimal or ``p/q``) as a float."""
    return float(F(cell))


def rand_frac(rng, lo, hi, denominators=(1, 2, 3, 4)):
    den = int(rng.choice(denominators))
    return F(int(rng.integers(lo * den, hi * den + 1)), den)


class Op:
    kind = "op"

    def run(self):
        raise NotImplementedError

    def collect(self, raw):
        return raw

    def verify(self, out):
        raise NotImplementedError

    def corrupt(self, out):
        raise NotImplementedError

    def updates(self, out):
        """Solver updates reported by the output (0 when not a solve)."""
        return 0


class CliOp(Op):
    """An operation that runs ``nama.cli.main`` on a generated config."""

    files = ()

    def __init__(self, workdir, name, config=None):
        self.dir = os.path.join(workdir, name)
        self.out_dir = os.path.join(self.dir, "out")
        os.makedirs(self.dir, exist_ok=True)
        self.config = None
        if config is not None:
            self.config = os.path.join(self.dir, "config.json")
            with open(self.config, "w") as fh:
                json.dump(config, fh)

    def argv(self):
        raise NotImplementedError

    def run(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            return cli.main(self.argv() + ["--out", self.out_dir])

    def collect(self, code):
        out = {"code": code, "tables": {}, "manifest": None}
        path = os.path.join(self.out_dir, "manifest.json")
        if os.path.exists(path):
            with open(path) as fh:
                out["manifest"] = json.load(fh)
        for name in self.files:
            path = os.path.join(self.out_dir, name)
            if os.path.exists(path):
                with open(path, newline="") as fh:
                    out["tables"][name] = list(csv.DictReader(fh))
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return out

    def passed(self, out, table):
        expect(out["code"] == 0, f"exit status {out['code']}")
        expect(out["manifest"] is not None and out["manifest"]["passed"],
               "manifest missing or not passed")
        rows = out["tables"].get(table)
        expect(rows, f"{table} missing or empty")
        return rows, out["manifest"]["summary"]

    @staticmethod
    def corrupt_cell(out, table, row, column, change):
        bad = json.loads(json.dumps(out))
        cell = bad["tables"][table][row][column]
        bad["tables"][table][row][column] = str(change(F(cell)))
        return bad


# ---------------------------------------------------------------------------
# grid-solve: 2D Dirichlet solves on uniform rational box grids


@dataclasses.dataclass(frozen=True)
class Boundary:
    """Convex Dirichlet data ``w^2 f((x - c) / w)`` on a box of width w.

    Writing the data in box-relative coordinates makes every seed pose the
    same problem up to scale.  ``quadratic`` is the exact solution itself.
    """

    kind: str
    cx: float
    cy: float
    w: float = 1.0

    def __call__(self, p):
        x = (float(p[0]) - self.cx) / self.w
        y = (float(p[1]) - self.cy) / self.w
        if self.kind == "quadratic":
            f = 0.5 * (x * x + y * y)
        elif self.kind == "cosh":
            f = math.cosh(x) + math.cosh(y) + 0.25 * x * y
        else:
            f = 2.0 * math.sqrt(1.0 + x * x + y * y)
        return self.w * self.w * f


def grid_nodes(x0, y0, h, n):
    return [(x0 + h * i, y0 + h * j) for i in range(n) for j in range(n)]


def check_grid_solution(h, n, x0, y0, rows, boundary):
    """Rows are (x, y, value, mass or None) for every node of the grid.

    Density 1 gives every interior node the mass h^2; boundary values must
    be the Dirichlet data; a quadratic boundary is the solution itself.
    """
    expect(len(rows) == n * n, f"{len(rows)} nodes, expected {n * n}")
    area = float(h * h)
    lo0, lo1 = float(x0), float(y0)
    hi0, hi1 = float(x0 + h * (n - 1)), float(y0 + h * (n - 1))
    for x, y, value, mass in rows:
        on_edge = x in (lo0, hi0) or y in (lo1, hi1)
        want = boundary((x, y))
        if on_edge:
            expect(abs(value - want) <= 1e-12 * max(1.0, abs(want)),
                   f"boundary value at {(x, y)}")
        elif mass is not None:
            expect(abs(mass - area) <= 2e-8 * area,
                   f"mass {mass!r} at {(x, y)} != h^2 = {area!r}")
        if boundary.kind == "quadratic":
            expect(abs(value - want) <= 1e-9,
                   f"value at {(x, y)} is off the exact quadratic")


class GridSolve(Op):
    kind = "grid-solve/api"

    def __init__(self, n, h, x0, y0, boundary):
        self.n, self.h, self.x0, self.y0 = n, h, x0, y0
        self.boundary = boundary
        self.nodes = grid_nodes(x0, y0, h, n)

    def run(self):
        box = (self.x0, self.x0 + self.h * (self.n - 1),
               self.y0, self.y0 + self.h * (self.n - 1))
        target = realma.TargetMeasure.from_density(
            realma.box_polygon(*box), self.nodes, 1)
        # the solver works in floats; handed the exact box, a non-dyadic
        # grid fails inside solve (boundary nodes lose their exact position)
        result = realma.solve(realma.box_polygon(*map(float, box)), target,
                              self.boundary, nodes=self.nodes, tol=1e-8)
        return target, result

    def verify(self, out):
        target, result = out
        h, n = self.h, self.n
        last = n - 1
        for i in range(n):
            for j in range(n):
                share = F(1, 2 ** ((i in (0, last)) + (j in (0, last))))
                got = target.masses[(self.x0 + h * i, self.y0 + h * j)]
                expect(got == share * h * h,
                       f"target mass {got} at ({i}, {j}) != {share * h * h}")
        expect(result.converged and result.residual <= 1e-8,
               f"not converged, residual {result.residual!r}")
        sol = result.solution
        measure = realma.ma_measure(sol)
        rows = [(float(nd[0]), float(nd[1]), float(v),
                 float(m) if inside else None)
                for nd, v, m, inside in zip(sol.nodes, sol.values,
                                            measure.masses, measure.interior)]
        check_grid_solution(h, n, self.x0, self.y0, rows, self.boundary)

    def corrupt(self, out):
        target, result = out
        sol = result.solution
        values = list(sol.values)
        k = len(values) // 2          # the centre node is interior
        values[k] -= 1e-4
        bad = realma.ConvexPL(sol.domain, sol.nodes, values)
        return target, dataclasses.replace(result, solution=bad)

    def updates(self, out):
        return out[1].iterations


class CliSolve(CliOp):
    """``nama realma solve`` on a box with a quadratic boundary."""

    kind = "grid-solve/cli"
    files = ("solution.csv",)

    def __init__(self, workdir, name, n, h, x0, y0, a, b):
        self.n, self.h, self.x0, self.y0 = n, h, x0, y0
        self.boundary = Boundary("quadratic", float(a), float(b))
        w = h * (n - 1)
        # 1/2 |x - c|^2 = 1/2 |x|^2 - c.x + |c|^2 / 2
        config = {
            "domain": {"box": [[q(x0), q(x0 + w)], [q(y0), q(y0 + w)]]},
            "density": 1,
            "boundary": {"quadratic": [[1, 0], [0, 1]],
                         "linear": [q(-a), q(-b)],
                         "constant": q((a * a + b * b) / 2)},
        }
        super().__init__(workdir, name, config)

    def argv(self):
        return ["realma", "solve", self.config, "--grid", str(self.n)]

    def verify(self, out):
        rows, _ = self.passed(out, "solution.csv")
        parsed = []
        for r in rows:
            x, y = num(r["node_x0"]), num(r["node_x1"])
            parsed.append((x, y, num(r["value"]), num(r["mass"])))
        check_grid_solution(self.h, self.n, self.x0, self.y0, parsed,
                            self.boundary)

    def corrupt(self, out):
        centre = (self.n * self.n) // 2
        return self.corrupt_cell(out, "solution.csv", centre, "mass",
                                 lambda m: m * (1 + F(1, 10 ** 6)))

    def updates(self, out):
        manifest = out["manifest"]
        return int(manifest["summary"]["iterations"]) if manifest else 0


ORIGINS = (F(-1, 2), F(-1, 4), F(0))
# (nodes per side, step, boundary kind); 1/8 is dyadic, 1/10 and 1/12 not
API_SLOTS = ((9, F(1, 10), "sqrt"), (11, F(1, 8), "cosh"),
             (13, F(1, 12), "quadratic"))
CLI_SLOTS = ((9, F(1, 8)), (11, F(1, 10)))


def centre(rng, x0, y0, w):
    """A point near the middle of the box, on a 1/64 grid of its width."""
    return tuple(o + w * (F(1, 2) + F(int(rng.integers(-16, 17)), 64))
                 for o in (x0, y0))


def grid_solve_round(rng, workdir, api_slots=API_SLOTS, cli_slots=CLI_SLOTS):
    """API solves plus two CLI solves, the second on a non-dyadic grid.

    The slots are fixed; the seed draws each box's origin and the centre of
    its boundary data.  The non-dyadic CLI solve hits the boundary lookup
    defect of ``realma solve`` (Fraction-keyed boundary, float-keyed
    lookup) and is expected to fail until that is fixed; it stays in the mix.
    """
    ops = []
    for n, h, kind in api_slots:
        x0, y0 = (ORIGINS[int(rng.integers(3))] for _ in range(2))
        w = h * (n - 1)
        cx, cy = centre(rng, x0, y0, w)
        ops.append(GridSolve(n, h, x0, y0,
                             Boundary(kind, float(cx), float(cy), float(w))))
    for k, (n, h) in enumerate(cli_slots):
        x0, y0 = (ORIGINS[int(rng.integers(3))] for _ in range(2))
        ops.append(CliSolve(workdir, f"solve{k}", n, h, x0, y0,
                            *centre(rng, x0, y0, h * (n - 1))))
    return ops


# ---------------------------------------------------------------------------
# measure-audit: float measures against the oracle, exact lattice measures


SQUARE = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
ORACLE_RESOLUTION = 2000
ORACLE_TOL = 5e-3


def perturbed_interpolant(rng, k):
    """A strictly convex function sampled on a jittered k x k grid."""
    base = np.linspace(-1.0, 1.0, k)
    jitter = 0.3 * (base[1] - base[0])
    nodes = []
    for i, x in enumerate(base):
        for j, y in enumerate(base):
            p = np.array([x, y])
            if 0 < i < k - 1 and 0 < j < k - 1:
                p = p + rng.uniform(-jitter, jitter, 2)
            nodes.append(tuple(float(c) for c in np.round(p, 6)))
    eigs = rng.uniform(0.3, 2.0, 2)
    theta = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    A = rot @ np.diag(eigs) @ rot.T
    b = rng.uniform(-0.5, 0.5, 2)
    gamma = rng.uniform(0.0, 0.3)
    d = rng.uniform(-1.0, 1.0, 2)
    values = [float(0.5 * np.dot(p, A @ p) + b @ p + gamma * math.exp(d @ p))
              for p in map(np.array, nodes)]
    return nodes, values


def check_against_oracle(masses, oracle, interior):
    worst = 0.0
    for m, o, inside in zip(masses, oracle, interior):
        if inside:
            expect(m > 0, "interior mass not positive")
            worst = max(worst, abs(float(m) - float(o)))
        else:
            expect(m == 0 and o == 0, "boundary node carries mass")
    expect(worst <= ORACLE_TOL, f"oracle deviation {worst:.3e}")


class FloatAudit(Op):
    kind = "measure-audit/float"

    def __init__(self, nodes, values, resolution=ORACLE_RESOLUTION):
        self.nodes, self.values, self.resolution = nodes, values, resolution

    def run(self):
        pl = realma.ConvexPL(realma.Polygon(SQUARE), self.nodes, self.values)
        measure = realma.ma_measure(pl)
        return measure, realma.ma_measure_oracle(pl,
                                                 resolution=self.resolution)

    def verify(self, out):
        measure, oracle = out
        check_against_oracle(measure.masses, oracle, measure.interior)

    def corrupt(self, out):
        measure, oracle = out
        masses = list(measure.masses)
        k = measure.interior.index(True)
        masses[k] += 2 * ORACLE_TOL
        return dataclasses.replace(measure, masses=tuple(masses)), oracle


class CliFloatAudit(CliOp):
    """``nama realma measure --tol``: the command runs the oracle itself."""

    kind = "measure-audit/cli-float"
    files = ("measure.csv",)

    def __init__(self, workdir, name, nodes, values,
                 resolution=ORACLE_RESOLUTION):
        self.nodes, self.values, self.resolution = nodes, values, resolution
        super().__init__(workdir, name, {
            "domain": {"box": [[-1, 1], [-1, 1]]},
            "nodes": [list(p) for p in nodes], "values": values})

    def argv(self):
        return ["realma", "measure", self.config, "--tol", str(ORACLE_TOL),
                "--grid", str(self.resolution)]

    def verify(self, out):
        rows, summary = self.passed(out, "measure.csv")
        expect(float(summary["oracle_deviation"]) <= ORACLE_TOL,
               "oracle deviation above tolerance")
        pl = realma.ConvexPL(realma.Polygon(SQUARE), self.nodes, self.values)
        measure = realma.ma_measure(pl)
        mine = {nd: (m if inside else 0) for nd, m, inside in
                zip(measure.nodes, measure.masses, measure.interior)}
        expect(len(rows) == len(mine), "row count")
        for r in rows:
            nd = (num(r["node_x0"]), num(r["node_x1"]))
            expect(num(r["mass"]) == float(mine[nd]),
                   f"mass at {nd} differs from the library measure")

    def corrupt(self, out):
        return self.corrupt_cell(out, "measure.csv", len(self.nodes) // 2,
                                 "mass", lambda m: m + F(1, 10 ** 9))


def lattice_quadratic(rng, n):
    """A rational quadratic on an n x n lattice whose reduced Gram matrix
    makes every interior dual cell the image of one lattice Voronoi cell."""
    h0, h1 = (F(1, int(rng.choice((8, 10, 12)))) for _ in range(2))
    a11 = rand_frac(rng, 1, 2, (2, 3, 4))
    a22 = rand_frac(rng, 1, 2, (2, 3, 4))
    bound = min(a11 * h0 * h0, a22 * h1 * h1) / (2 * h0 * h1)
    a12 = bound * F(int(rng.integers(-9, 10)), 10)
    b = (rand_frac(rng, -1, 1), rand_frac(rng, -1, 1))
    x0, y0 = ORIGINS[int(rng.integers(3))], ORIGINS[int(rng.integers(3))]
    nodes = [(x0 + h0 * i, y0 + h1 * j) for i in range(n) for j in range(n)]
    values = [(a11 * x * x + 2 * a12 * x * y + a22 * y * y) / 2
              + b[0] * x + b[1] * y for x, y in nodes]
    box = (x0, x0 + h0 * (n - 1), y0, y0 + h1 * (n - 1))
    return box, nodes, values, (a11 * a22 - a12 * a12) * h0 * h1


def check_lattice_masses(rows, box, cell_mass):
    """Rows are (x, y, mass); interior masses are det(A) h0 h1 exactly."""
    lo0, hi0, lo1, hi1 = box
    for x, y, m in rows:
        expect(isinstance(m, F), f"mass {m!r} is not exact")
        inside = lo0 < x < hi0 and lo1 < y < hi1
        want = cell_mass if inside else 0
        expect(m == want, f"mass {m} at {(x, y)} != {want}")


class ExactAudit(Op):
    kind = "measure-audit/exact"

    def __init__(self, box, nodes, values, cell_mass):
        self.box, self.nodes, self.values = box, nodes, values
        self.cell_mass = cell_mass

    def run(self):
        pl = realma.ConvexPL(realma.box_polygon(*self.box), self.nodes,
                             self.values)
        return realma.ma_measure(pl)

    def verify(self, out):
        expect(len(out.masses) == len(self.nodes), "node count")
        check_lattice_masses(
            [(nd[0], nd[1], m) for nd, m in zip(out.nodes, out.masses)],
            self.box, self.cell_mass)

    def corrupt(self, out):
        masses = list(out.masses)
        masses[len(masses) // 2] += F(1, 10 ** 9)
        return dataclasses.replace(out, masses=tuple(masses))


class CliExactAudit(CliOp):
    kind = "measure-audit/cli-exact"
    files = ("measure.csv",)

    def __init__(self, workdir, name, box, nodes, values, cell_mass):
        self.box, self.n_nodes, self.cell_mass = box, len(nodes), cell_mass
        lo0, hi0, lo1, hi1 = box
        super().__init__(workdir, name, {
            "domain": {"box": [[q(lo0), q(hi0)], [q(lo1), q(hi1)]]},
            "nodes": [[q(x), q(y)] for x, y in nodes],
            "values": [q(v) for v in values]})

    def argv(self):
        return ["realma", "measure", self.config]

    def verify(self, out):
        rows, _ = self.passed(out, "measure.csv")
        expect(len(rows) == self.n_nodes, "row count")
        check_lattice_masses([(F(r["node_x0"]), F(r["node_x1"]), F(r["mass"]))
                              for r in rows], self.box, self.cell_mass)

    def corrupt(self, out):
        return self.corrupt_cell(out, "measure.csv", self.n_nodes // 2,
                                 "mass", lambda m: m + F(1, 10 ** 9))


def measure_audit_round(rng, workdir, float_sizes=(6,), cli_float=5,
                        exact_sizes=(9, 11, 13), cli_exact=9,
                        resolution=ORACLE_RESOLUTION):
    ops = [FloatAudit(*perturbed_interpolant(rng, k), resolution=resolution)
           for k in float_sizes]
    ops.append(CliFloatAudit(workdir, "float", *perturbed_interpolant(
        rng, cli_float), resolution=resolution))
    ops += [ExactAudit(*lattice_quadratic(rng, n)) for n in exact_sizes]
    ops.append(CliExactAudit(workdir, "exact",
                             *lattice_quadratic(rng, cli_exact)))
    return ops


# ---------------------------------------------------------------------------
# exact-cycles: rational intersection combinatorics, no geometry


def cycle_masses(degrees, coeffs):
    """Closed form on a cycle: d_i - 2 c_i + c_{i-1} + c_{i+1}."""
    N = len(degrees)
    return [degrees[i] - 2 * coeffs[i] + coeffs[i - 1] + coeffs[(i + 1) % N]
            for i in range(N)]


def random_cycle(rng, N):
    degrees = [int(d) for d in rng.integers(1, 8, size=N)]
    coeffs = [rand_frac(rng, -5, 5) for _ in range(N)]
    return degrees, coeffs


class Cycle(Op):
    kind = "exact-cycles/cycle"

    def __init__(self, degrees, coeffs):
        self.degrees, self.coeffs = degrees, coeffs
        self.expected = cycle_masses(degrees, coeffs)

    def run(self):
        model = comparison.cycle_model(self.degrees)
        table = comparison.cycle_table(self.degrees)
        coeffs = dict(enumerate(self.coeffs))
        measure = potential.na_ma_model_metric(model, table, coeffs)
        return measure, comparison.vilsmeier_check_1d(model, table, coeffs)

    def verify(self, out):
        measure, rep = out
        total = sum(self.degrees)
        got = dict(zip(measure.support, measure.masses))
        expect(got == dict(enumerate(self.expected)),
               "atomic masses differ from the closed form")
        expect(measure.total() == total == measure.expected_total,
               "total mass is not the sum of degrees")
        expect(rep.holds and rep.max_discrepancy == 0,
               f"identity fails by {rep.max_discrepancy}")
        expect(list(rep.na_masses) == self.expected
               and list(rep.real_masses) == self.expected,
               "comparison sides differ from the closed form")
        expect(rep.total_na == total == rep.total_real, "comparison totals")

    def corrupt(self, out):
        measure, rep = out
        masses = list(measure.masses)
        masses[0] += F(1, 10 ** 9)
        return dataclasses.replace(measure, masses=tuple(masses)), rep


class CliNamma(CliOp):
    """``nama namma`` on a cycle written out as a full model config."""

    kind = "exact-cycles/cli-namma"
    files = ("namma.csv",)

    def __init__(self, workdir, name, degrees, coeffs):
        N = len(degrees)
        self.expected = cycle_masses(degrees, coeffs)
        self.total = sum(degrees)
        table = [{"L_power": 1, "stratum": [], "value": q(self.total)}]
        for i in range(N):
            table.append({"L_power": 1, "stratum": [i],
                          "value": q(degrees[i])})
            for j in range(N):
                pairing = -2 if i == j else \
                    1 if j in ((i + 1) % N, (i - 1) % N) else 0
                table.append({"L_power": 0, "divisor_powers": {str(j): 1},
                              "stratum": [i], "value": q(pairing)})
        super().__init__(workdir, name, {
            "n": 1, "semistable": True,
            "divisors": [{"id": i, "degrees": q(d)}
                         for i, d in enumerate(degrees)],
            "faces": [[i] for i in range(N)]
            + [sorted((i, (i + 1) % N)) for i in range(N)],
            "intersection_table": table,
            "coefficients": {str(i): q(c) for i, c in enumerate(coeffs)}})

    def argv(self):
        return ["namma", self.config]

    def verify(self, out):
        rows, summary = self.passed(out, "namma.csv")
        got = [F(r["mass"]) for r in sorted(rows,
                                            key=lambda r: int(r["divisor"]))]
        expect(got == self.expected, "masses differ from the closed form")
        expect(F(summary["total"]) == self.total == F(summary["expected"]),
               "total is not the sum of degrees")

    def corrupt(self, out):
        return self.corrupt_cell(out, "namma.csv", 0, "mass",
                                 lambda m: m + F(1, 10 ** 9))


class CliVilsmeier(CliOp):
    kind = "exact-cycles/cli-vilsmeier"
    files = ("compare_vilsmeier.csv",)

    def __init__(self, workdir, name, degrees, coeffs):
        self.expected = cycle_masses(degrees, coeffs)
        super().__init__(workdir, name, {"cycle": {
            "degrees": degrees, "coefficients": [q(c) for c in coeffs]}})

    def argv(self):
        return ["compare", "vilsmeier", self.config]

    def verify(self, out):
        rows, _ = self.passed(out, "compare_vilsmeier.csv")
        expect(len(rows) == len(self.expected), "row count")
        for r in rows:
            i = int(r["face"])
            expect(F(r["lhs"]) == F(r["rhs"]) == self.expected[i],
                   f"vertex {i} differs from the closed form")
            expect(F(r["residual"]) == 0, f"residual at vertex {i}")

    def corrupt(self, out):
        return self.corrupt_cell(out, "compare_vilsmeier.csv", 0, "residual",
                                 lambda r: r + F(1, 10 ** 9))


class OneDimSolve(Op):
    """Exact 1D density target and direct solve; the solution is the
    quadratic x^2 + alpha x + beta itself at every node."""

    kind = "exact-cycles/solve-1d"

    def __init__(self, N, lo, hi, alpha, beta):
        self.lo, self.hi, self.alpha, self.beta = lo, hi, alpha, beta
        self.nodes = [(lo + (hi - lo) * F(k, N - 1),) for k in range(N)]

    def quad(self, x):
        return x * x + self.alpha * x + self.beta

    def run(self):
        dom = realma.Interval(self.lo, self.hi)
        target = realma.TargetMeasure.from_density(dom, self.nodes, 2)
        ends = {(x,): self.quad(x) for x in (self.lo, self.hi)}
        return realma.solve(dom, target, ends, nodes=self.nodes)

    def verify(self, out):
        expect(out.converged, "1D solve did not converge")
        sol = out.solution
        expect(len(sol.nodes) == len(self.nodes), "node count")
        for (x,), v in zip(sol.nodes, sol.values):
            expect(isinstance(v, F) and v == self.quad(x),
                   f"value {v} at {x} is not exact")

    def corrupt(self, out):
        values = list(out.solution.values)
        values[len(values) // 2] += F(1, 10 ** 9)
        return types.SimpleNamespace(
            converged=out.converged,
            solution=types.SimpleNamespace(nodes=out.solution.nodes,
                                           values=values))

    def updates(self, out):
        return out.iterations


class Determinant(Op):
    kind = "exact-cycles/determinant"

    def __init__(self, matrix):
        self.matrix = matrix
        self.expected = exact_det(matrix)

    def run(self):
        return comparison.determinant(self.matrix)

    def verify(self, out):
        expect(out == self.expected, f"determinant {out} != {self.expected}")

    def corrupt(self, out):
        return out + F(1, 10 ** 9)


class Pfaffian(Op):
    """Float Pfaffian of an integer antisymmetric matrix; pf^2 = det."""

    kind = "exact-cycles/pfaffian"

    def __init__(self, matrix):
        self.matrix = matrix
        self.det = exact_det(matrix)

    def run(self):
        return forms.pfaffian(self.matrix)

    def verify(self, out):
        expect(abs(out * out - self.det) <= 1e-9 * abs(self.det),
               f"pf^2 = {out * out!r} != det = {self.det}")

    def corrupt(self, out):
        return out + 1e-3 * max(1.0, abs(out))


def rational_matrix(rng, k):
    while True:
        m = [[rand_frac(rng, -5, 5, (1, 2, 3, 5)) for _ in range(k)]
             for _ in range(k)]
        if exact_det(m) != 0:
            return m


def antisymmetric_matrix(rng, k):
    while True:
        a = rng.integers(-5, 6, size=(k, k))
        m = (np.triu(a, 1) - np.triu(a, 1).T).astype(float).tolist()
        if exact_det(m) != 0:
            return m


def exact_cycles_round(rng, workdir, cycle_sizes=(50, 90, 130), cli_size=60,
                       one_dim=300, det_sizes=(7, 8), pf_sizes=(10, 12)):
    ops = [Cycle(*random_cycle(rng, N)) for N in cycle_sizes]
    ops.append(CliNamma(workdir, "namma", *random_cycle(rng, cli_size)))
    ops.append(CliVilsmeier(workdir, "vilsmeier",
                            *random_cycle(rng, cli_size)))
    lo = rand_frac(rng, -2, 0)
    ops.append(OneDimSolve(one_dim, lo, lo + rand_frac(rng, 1, 3),
                           rand_frac(rng, -2, 2), rand_frac(rng, -2, 2)))
    ops += [Determinant(rational_matrix(rng, k)) for k in det_sizes]
    ops += [Pfaffian(antisymmetric_matrix(rng, k)) for k in pf_sizes]
    return ops


# ---------------------------------------------------------------------------
# mc-pushforward: vectorised Monte Carlo on local models


GROWTH_EXPONENTS = (20.0, 40.0, 80.0)
DYADIC_ONE = 1 << 40


class Pushforward(Op):
    """Sample, push to the simplex, and fit the volume growth exponent.

    ``repeat`` redraws the batch with the same seed in ``verify`` and
    requires it to be bit-identical.
    """

    kind = "mc-pushforward/api"

    def __init__(self, depth, t_exp, u, seed, count=10 ** 6, level=3,
                 growth_count=10 ** 5, repeat=False):
        self.depth, self.t_exp, self.u, self.seed = depth, t_exp, u, seed
        self.count, self.level, self.repeat = count, level, repeat
        self.growth_count = growth_count
        self.dim = depth + 1

    def model(self):
        u = hybrid.parse_poly(self.u, self.dim + 1) if self.u else None
        return hybrid.LocalModel((1,) * (self.depth + 1),
                                 math.exp(-self.t_exp), self.dim, u)

    def run(self):
        model = self.model()
        batch = hybrid.sample_cy_measure(model, self.count, self.seed)
        rep = hybrid.pushforward_distance(batch, level=self.level)
        growth = hybrid.volume_growth_exponent(
            model, [math.exp(-e) for e in GROWTH_EXPONENTS],
            count=self.growth_count, seed=self.seed)
        return batch, rep, growth

    def verify(self, out):
        batch, rep, growth = out
        p = self.depth
        nums = batch.numerators
        expect(nums.shape == (self.count, p + 1), "batch shape")
        expect(bool((nums.sum(axis=1) == DYADIC_ONE).all())
               and batch.chart_sums_exact(), "chart sums are not exact")
        expect(float(np.abs(batch.xs.sum(axis=1) - 1.0).max()) <= 1e-12,
               "simplex relation")
        expect(bool(np.isfinite(batch.weights).all()
                    and (batch.weights >= 0).all()), "weights")
        if p == 1:
            expect(rep.statistic == "ks", rep.statistic)
            if not self.u:
                expect(rep.distance <= 3 * rep.standard_error,
                       f"flat KS {rep.distance:.3e} > 3 SE")
        else:
            expect(rep.statistic == "dyadic-cells", rep.statistic)
            k = 1 << self.level
            emp, exact = (np.array(c).reshape((k,) * p)
                          for c in zip(*rep.cells))
            expect(abs(exact.sum() - 1.0) <= 1e-12
                   and abs(emp.sum() - 1.0) <= 1e-9, "cell masses")
            expect(np.array_equal(exact, exact.swapaxes(0, 1)),
                   "exact cell volumes are not symmetric")
        tol = 0.1 if self.u else 1e-9
        expect(growth.expected == p and abs(growth.exponent - p) <= tol,
               f"growth exponent {growth.exponent!r}, expected {p}")
        if self.repeat:
            again = hybrid.sample_cy_measure(self.model(), self.count,
                                             self.seed)
            for field in ("numerators", "xs", "thetas", "fiber", "weights"):
                expect(np.array_equal(getattr(again, field),
                                      getattr(batch, field)),
                       f"repeated seed changed {field}")

    def corrupt(self, out):
        batch, rep, growth = out
        nums = batch.numerators.copy()
        nums[0, 0] += 1
        return dataclasses.replace(batch, numerators=nums), rep, growth


class CliPushforward(CliOp):
    kind = "mc-pushforward/cli-pushforward"
    files = ("histogram.csv",)

    def __init__(self, workdir, name, t_exp, u, seed, samples=200000,
                 level=3):
        super().__init__(workdir, name)
        self.args = ["--n", "2", "--t-exp", repr(t_exp), "--samples",
                     str(samples), "--uJ", u, "--level", str(level),
                     "--seed", str(seed)]
        self.samples, self.cells = samples, (1 << level) ** 2

    def argv(self):
        return ["hybrid", "pushforward"] + self.args

    def verify(self, out):
        rows, summary = self.passed(out, "histogram.csv")
        expect(len(rows) == self.cells, "cell count")
        expect(sum(int(F(r["count"])) for r in rows) == self.samples,
               "counts do not add up to the samples")
        expect(all(num(r["weight_sum"]) >= 0 for r in rows),
               "negative weight sum")
        expect(summary["statistic"] == "dyadic-cells"
               and 0 <= float(summary["distance"]) < 1, "distance")

    def corrupt(self, out):
        return self.corrupt_cell(out, "histogram.csv", 0, "count",
                                 lambda c: c + 1)


class CliGrowth(CliOp):
    kind = "mc-pushforward/cli-growth"
    files = ("growth.csv",)

    def __init__(self, workdir, name, u, seed, samples=100000):
        super().__init__(workdir, name)
        self.args = ["--n", "1", "--t-exp",
                     ",".join(repr(e) for e in GROWTH_EXPONENTS),
                     "--samples", str(samples), "--uJ", u,
                     "--seed", str(seed)]

    def argv(self):
        return ["hybrid", "growth"] + self.args

    def verify(self, out):
        rows, summary = self.passed(out, "growth.csv")
        expect(len(rows) == len(GROWTH_EXPONENTS), "row count")
        vols = [num(r["volume"]) for r in rows]
        expect(all(a < b for a, b in zip(vols, vols[1:])),
               "volume does not grow with T")
        expect(abs(float(summary["exponent"]) - 1) <= 0.1,
               f"growth exponent {summary['exponent']}")

    def corrupt(self, out):
        return self.corrupt_cell(out, "growth.csv", 0, "volume",
                                 lambda v: v * 1000)


def curved_u(rng, nvars):
    terms = ["1", f"{rng.uniform(0.2, 0.6):.3f}*z0"]
    terms.append(f"{rng.uniform(-0.3, 0.3):.3f}*z{nvars - 1}^2")
    return "+".join(terms).replace("+-", "-")


def mc_round(rng, workdir, count=10 ** 6, cli_samples=200000,
             growth_count=10 ** 5):
    seed = int(rng.integers(2 ** 31))
    t_exp = float(rng.uniform(25.0, 35.0))
    ops = [Pushforward(p, t_exp, curved_u(rng, p + 2), seed + p, count=count,
                       level=level, growth_count=growth_count)
           for p, level in ((1, 3), (2, 3), (3, 4))]
    ops.append(Pushforward(1, t_exp, None, seed, count=count,
                           growth_count=growth_count, repeat=True))
    ops.append(CliPushforward(workdir, "push", t_exp, curved_u(rng, 3),
                              seed, samples=cli_samples))
    ops.append(CliGrowth(workdir, "growth", curved_u(rng, 2), seed,
                         samples=growth_count))
    return ops


# ---------------------------------------------------------------------------
# registry


def warm(builder, **small):
    return lambda rng, workdir: builder(rng, workdir, **small)


WORKLOADS = {
    "grid-solve": (grid_solve_round,
                   warm(grid_solve_round,
                        api_slots=((5, F(1, 4), "quadratic"),),
                        cli_slots=((5, F(1, 4)),))),
    "measure-audit": (measure_audit_round,
                      warm(measure_audit_round, float_sizes=(4,),
                           cli_float=4, exact_sizes=(5,), cli_exact=5,
                           resolution=500)),
    "exact-cycles": (exact_cycles_round,
                     warm(exact_cycles_round, cycle_sizes=(5,), cli_size=5,
                          one_dim=10, det_sizes=(4,), pf_sizes=(4,))),
    "mc-pushforward": (mc_round,
                       warm(mc_round, count=20000, cli_samples=20000,
                            growth_count=20000)),
}
