"""Command line driver: deterministic CSV reports plus a config manifest.

Every run writes its tables into the output directory together with a
``manifest.json`` echoing the resolved options, which name a config file by
its path and the SHA-256 digest of its bytes.  Reruns with identical inputs
produce byte-identical files: floats are printed with shortest round-trip
precision, rationals as ``p/q``, row order is fixed, and no timestamps are
recorded.  Exit status 0 means the run's check passed, 2 means the
mathematics failed the check, 1 means the input was invalid.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import config as cfg
from .comparison import (gradient_matching_residual, lower_face_density,
                         na_pde_residual, total_mass_check,
                         vilsmeier_check_1d)
from .errors import CheckFailed, ConfigError, ToolkitError
from .forms import (calabi_ode_residual, fiber_lagrangian_residual,
                    fiber_phase_residual, power_law_potential, semiflat_form,
                    standard_torus_frame, volume_identity_check)
from .hybrid import (LocalModel, dyadic_cells, parse_poly,
                     pushforward_distance, sample_cy_measure,
                     volume_growth_exponent)
from .potential import na_ma_model_metric
from .realma import ma_measure, ma_measure_oracle, solve
from .skeleton import essential_skeleton, lebesgue_measure

# hybrid pushforward --level allows at most 2^16 dyadic cells, (2^level)^depth
MAX_DYADIC_BITS = 16
# hybrid --n: the dyadic cell grid takes one numpy axis per free coordinate,
# and np.ravel_multi_index accepts at most 63
MAX_HYBRID_N = 63
# hybrid --samples times the n + 1 coordinates of a sample: a run holds
# about 60 bytes per sample coordinate, so 2^22 takes about 265 MB peak
# end to end with the sampler on two threads (--n 1 with 2^21 samples;
# 2^23 would take 490 MB)
MAX_SAMPLE_COORDS = 1 << 22
# hybrid growth --t-exp: the fit draws once and re-weighs the batch for
# each exponent; 20 take about 5 s and 175 MB end to end at --n 1
# --samples 2097152 (100 take 19 s)
MAX_T_EXPONENTS = 20
# hybrid --uJ terms: each term is one complex pass over every chunk for
# each exponent; 32 terms take about 16 s and 175 MB end to end at --n 1
# --samples 2097152 with 20 --t-exp values, 23 s and 205 MB at --n 63
# --samples 65536 (64 terms take 51 s at --n 1)
MAX_POLY_TERMS = 32
# realma measure --grid: at 2^16 slopes per axis a 36-node measure and its
# oracle take about 1.2 s and 105 MB end to end on a jittered 6 x 6 grid,
# 2,500 nodes (50 x 50) 17 s
MAX_ORACLE_GRID = 1 << 16
# realma solve --grid by dimension: 100,000 nodes take about 30 s and
# 180 MB end to end in 1D, 65x65 about 3 s and 91 MB in 2D (129x129 takes
# 11-15 s but 175 MB, past that envelope, and 257x257 86 s and 700 MB)
MAX_SOLVE_GRID = {1: 100_000, 2: 65}
# geometry slag-check --n and the --hessian dimension: the pair loop of
# fiber_lagrangian_residual is quartic in it; 200 takes about 2 s and 35 MB
# end to end (400 takes 8 s)
MAX_FORM_DIM = 200
# geometry gcalabi --n: dense n x n forms; 500 takes about 0.4 s and 80 MB
# end to end (1,000 takes 1.5 s and 190 MB, 2,000 8 s and 560 MB)
MAX_GCALABI_DIM = 500
# geometry calabi --n: the exact constant is a big-integer power; 10^5
# takes about 0.5 s end to end (3 x 10^5 takes 1.8 s)
MAX_CALABI_N = 100_000
# compare lowerface/pde resolution: a face of dimension d walks
# (resolution + 1)^d grid points; 50,000 on the segment take about 2.7 s
# and 60 MB end to end (100,000 take 6 s and 90 MB)
MAX_FACE_GRID = 50_000


# ---------------------------------------------------------------------------
# formatting and output plumbing


def _true_false(value):
    return "true" if value else "false"


def _rational(value):
    """``str`` of an int or a Fraction, through :mod:`decimal` where ``str``
    refuses its digits (the interpreter's limit on int strings)."""
    try:
        return str(value)
    except ValueError:
        n, d = value.as_integer_ratio()
        return str(Decimal(n)) + ("" if d == 1 else f"/{Decimal(d)}")


# fmt's branch for a value of exactly these types, looked up by type: a
# large table's cells skip the abstract-base-class checks of the chain
_FMT_BY_TYPE = {Fraction: _rational, bool: _true_false,
                float: float.__repr__, int: _rational,
                type(None): lambda value: ""}


def fmt(value):
    f = _FMT_BY_TYPE.get(type(value))
    if f is not None:
        return f(value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def face_label(index_set):
    return ",".join(str(i) for i in index_set)


class Emitter:
    """Collects CSV tables and the manifest for one run."""

    def __init__(self, out_dir, command, options):
        self.out_dir = out_dir
        self.command = command
        self.options = options
        self.outputs = []
        self.summary = {}

    def write_table(self, name, header, rows):
        os.makedirs(self.out_dir, exist_ok=True)
        with open(os.path.join(self.out_dir, name), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([fmt(v) for v in row])
        self.outputs.append(name)

    def finish(self, passed):
        os.makedirs(self.out_dir, exist_ok=True)
        self._remove_stale_tables()
        # strict JSON: a float that is not finite is written as null
        manifest = {
            "command": self.command,
            "options": self.options,
            "outputs": sorted(self.outputs),
            "summary": {k: None if isinstance(v, float)
                        and not math.isfinite(v) else v
                        for k, v in self.summary.items()},
            "passed": bool(passed),
        }
        # one line: without indent, json.dumps runs the C encoder
        with open(os.path.join(self.out_dir, "manifest.json"), "w") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, default=fmt,
                                allow_nan=False) + "\n")
        for key in sorted(self.summary):
            print(f"{key}={fmt(self.summary[key])}")
        print("PASS" if passed else "FAIL")

    def _remove_stale_tables(self):
        """Delete the CSVs the previous manifest listed and this run did
        not write; nothing else in the directory is touched."""
        try:
            with open(os.path.join(self.out_dir, "manifest.json")) as fh:
                previous = json.load(fh)["outputs"]
        except (OSError, ValueError, TypeError, KeyError):
            return
        for name in previous if isinstance(previous, list) else ():
            if (isinstance(name, str) and name.endswith(".csv")
                    and os.path.basename(name) == name
                    and name not in self.outputs):
                path = os.path.join(self.out_dir, name)
                if os.path.isfile(path):
                    os.remove(path)


# ---------------------------------------------------------------------------
# model subcommands


def run_model_validate(args, doc, emitter):
    model, table, _ = cfg.model_bundle(doc)
    rows = [
        ("dimension", model.dimension),
        ("semistable", model.semistable),
        ("divisors", len(model.divisors)),
        ("faces", len(model.faces)),
        ("top_faces", sum(1 for f in model.faces
                          if f.dim == model.dimension)),
    ]
    if table is not None:
        checked, violations, unchecked = table.check_relations(model)
        if violations:
            raise ConfigError(
                f"intersection table violates {len(violations)} fibration "
                f"relations, first at {violations[0]}")
        rows.append(("table_entries", len(table)))
        rows.append(("relations_checked", checked))
        rows.append(("top_self_intersection",
                     table.top_self_intersection()))
    emitter.write_table("model_validate.csv", ("quantity", "value"), rows)
    emitter.summary["divisors"] = len(model.divisors)
    emitter.summary["faces"] = len(model.faces)


def run_model_skeleton(args, doc, emitter):
    model, _, _ = cfg.model_bundle(doc)
    sk = essential_skeleton(model)
    measure = None
    if model.semistable and sk.is_maximal:
        measure = lebesgue_measure(model)
    rows = []
    measured = set(f.index_set for f in measure.faces) if measure else set()
    for face in sorted(sk.faces, key=lambda f: (f.dim, f.index_set)):
        mass = measure.face_mass if face.index_set in measured else None
        dens = measure.density if face.index_set in measured else None
        rows.append((face_label(face.index_set), face.dim,
                     face.chart_volume(), mass, dens))
    emitter.write_table("skeleton.csv",
                        ("face", "dim", "chart_volume", "mass", "density"),
                        rows)
    emitter.summary["skeleton_dim"] = sk.dim
    emitter.summary["is_maximal"] = sk.is_maximal
    if measure:
        emitter.summary["total_mass"] = measure.total()


def run_namma(args, doc, emitter):
    model, table, coeffs = cfg.model_bundle(doc, need_table=True)
    if coeffs is None:
        raise ConfigError("namma needs coefficients")
    measure = na_ma_model_metric(model, table, coeffs)
    rows = [(i, coeffs[i], measure.mass_of(i))
            for i in sorted(measure.support)]
    emitter.write_table("namma.csv", ("divisor", "coefficient", "mass"),
                        rows)
    emitter.summary["total"] = measure.total()
    emitter.summary["expected"] = measure.expected_total
    measure.validate_total()


# ---------------------------------------------------------------------------
# real Monge-Ampere subcommands


def grid_nodes(domain, per_side):
    """Uniform grid over the domain's bounding box, per_side nodes a side."""
    axes = []
    for coords in zip(*domain.vertices):
        lo, hi = min(coords), max(coords)
        step = Fraction(hi - lo, per_side - 1)
        axes.append([lo + step * k for k in range(per_side)])
    return list(itertools.product(*axes))


def write_node_table(emitter, name, pl, masses):
    """Sorted rows of node coordinates, value and mass (0 off the interior)."""
    rows = [tuple(nd) + (val, mass if is_int else 0)
            for nd, val, mass, is_int in sorted(zip(
                pl.nodes, pl.values, masses, pl.interior_mask()))]
    header = tuple(f"node_x{i}" for i in range(pl.dim)) + ("value", "mass")
    emitter.write_table(name, header, rows)


def run_realma_solve(args, doc, emitter):
    domain = cfg.parse_domain(doc)
    # in 2D a grid of 2 nodes a side is the box's corners: no interior node
    lo, hi = (2, 3)[domain.dim - 1], MAX_SOLVE_GRID[domain.dim]
    if not lo <= args.grid <= hi:
        raise ConfigError(f"--grid must be in [{lo}, {hi}] on a "
                          f"{domain.dim}D domain, got {args.grid}")
    nodes = grid_nodes(domain, args.grid)
    target = cfg.target_from_config(doc, domain, nodes)
    boundary = cfg.boundary_values(doc, domain.dim)
    try:
        result = solve(domain, target, boundary, nodes=nodes, tol=args.tol)
    except ValueError as exc:
        raise ConfigError(f"invalid target: {exc}")
    write_node_table(emitter, "solution.csv", result.solution, result.masses)
    emitter.summary["residual"] = float(result.residual)
    emitter.summary["iterations"] = result.iterations
    emitter.summary["converged"] = bool(result.converged)
    emitter.summary["nodes"] = len(nodes)
    emitter.summary["interior_nodes"] = sum(result.solution.interior_mask())
    emitter.summary["cell_fallbacks"] = result.cell_fallbacks
    if not result.converged or float(result.residual) > args.tol:
        raise CheckFailed(
            f"mass residual {float(result.residual):.3e} exceeds {args.tol}")


def run_realma_measure(args, doc, emitter):
    if args.grid is not None and args.tol is None:
        raise ConfigError("--grid is the oracle's resolution and needs --tol")
    pl = cfg.convex_pl_from_config(doc, cfg.parse_domain(doc))
    measure = ma_measure(pl)
    write_node_table(emitter, "measure.csv", pl, measure.masses)
    emitter.summary["total_mass"] = measure.total()
    emitter.summary["degenerate"] = measure.degenerate
    emitter.summary["cell_fallbacks"] = measure.cell_fallbacks
    if args.tol is not None:
        oracle_masses = ma_measure_oracle(pl, resolution=args.grid or 1000)
        worst = max((abs(float(em) - float(om)) for em, om, is_int
                     in zip(measure.masses, oracle_masses, measure.interior)
                     if is_int), default=0.0)
        emitter.summary["oracle_deviation"] = worst
        if worst > args.tol:
            raise CheckFailed(
                f"oracle deviation {worst:.3e} exceeds {args.tol}")


# ---------------------------------------------------------------------------
# comparison subcommands: each mode returns (rows, summary, passed); a row
# is (face, coordinates.., lhs, rhs, residual)


def compare_vilsmeier(doc, tol):
    model, table, coeffs = cfg.model_bundle(doc)
    if table is None or coeffs is None:
        raise ConfigError("vilsmeier needs a table and coefficients")
    rep = vilsmeier_check_1d(model, table, coeffs)
    rows = []
    for ident, na, real in zip(rep.vertex_order, rep.na_masses,
                               rep.real_masses):
        x = model.face((ident,)).vertex_point(ident)[ident]
        rows.append((face_label((ident,)), x, na, real, na - real))
    summary = {"max_discrepancy": rep.max_discrepancy,
               "total": rep.total_na}
    return rows, summary, rep.holds


def face_grid_rows(doc, model, key, residual):
    """Rows on face ``key``'s grid, ``residual(pt)`` giving the last three
    entries, and the largest |residual|."""
    resolution = cfg.integer(doc.get("resolution", 2), "resolution",
                             minimum=1)
    walked = (min(resolution, MAX_FACE_GRID) + 1) ** max(len(key) - 1, 1)
    if walked > MAX_FACE_GRID:
        raise ConfigError(
            f"resolution {resolution} walks more than {MAX_FACE_GRID} grid "
            f"points of face {face_label(key)}")
    rows = [(face_label(key),) + tuple(pt[i] for i in key) + residual(pt)
            for pt in model.face(key).grid_points(resolution)]
    return rows, max([0] + [abs(r[-1]) for r in rows])


def compare_lowerface(doc, tol):
    model, table, _ = cfg.model_bundle(doc, need_table=True)
    key, potential = cfg.face_potential_from_config(doc, model)
    density = lower_face_density(model, table, key, potential)
    expected = doc.get("expected")
    if expected is not None:
        expected = cfg.rational(expected, "expected")

    def residual(pt):
        val = density(pt)
        rhs = expected if expected is not None else val
        return val, rhs, val - rhs

    rows, worst = face_grid_rows(doc, model, key, residual)
    return rows, {"max_residual": worst}, float(worst) <= tol


def compare_pde(doc, tol):
    model, table, _ = cfg.model_bundle(doc, need_table=True)
    key, potential = cfg.face_potential_from_config(doc, model)
    residual = na_pde_residual(model, table, key, potential,
                               cfg.residues_from_config(doc, model, key),
                               table.top_self_intersection())

    def row(pt):
        r = residual(pt)
        return r + residual.rhs, residual.rhs, r

    rows, worst = face_grid_rows(doc, model, key, row)
    summary = {"max_residual": worst, "rhs": residual.rhs}
    return rows, summary, float(worst) <= tol


def compare_matching(doc, tol):
    model, _, _ = cfg.model_bundle(doc)
    transition, ga, gb, pts = cfg.matching_from_config(doc, model)
    rep = gradient_matching_residual(ga, gb, transition, pts)
    rows = []
    for w, tang, normal in zip(rep.points, rep.tangential, rep.normal):
        gav = ga((0,) + w)
        gbv = gb(transition.apply((0,) + w))
        for i, tr in enumerate(tang):
            rows.append((f"tangential-{i + 1}",) + w
                        + (gbv[i + 1], gav[i + 1], tr))
        drift = sum(d * gav[i] for i, d in
                    zip(range(1, transition.dim), transition.degrees))
        rows.append(("normal",) + w + (gbv[0] + gav[0], drift, normal))
    summary = {"max_residual": rep.max_residual}
    return rows, summary, float(rep.max_residual) <= tol


def compare_mass(doc, tol):
    model, table, _ = cfg.model_bundle(doc)
    terms, atomic, expected = cfg.mass_audit_from_config(doc, model, table)
    rep = total_mass_check(terms, atomic, expected, tol=tol)
    rows = [(face_label(t.face_key), "", t.integral, "", "") for t in terms]
    rows.append(("total", "", rep.total, rep.expected, rep.discrepancy))
    summary = {"total": rep.total, "expected": rep.expected,
               "discrepancy": rep.discrepancy}
    return rows, summary, rep.passed


COMPARE_MODES = {"vilsmeier": compare_vilsmeier,
                 "lowerface": compare_lowerface,
                 "pde": compare_pde,
                 "matching": compare_matching,
                 "mass": compare_mass}


def run_compare(args, doc, emitter):
    try:
        rows, summary, passed = COMPARE_MODES[args.mode](doc, args.tol)
    except ValueError as exc:       # data the mode's check cannot take
        raise ConfigError(str(exc))
    emitter.summary.update(summary)
    width = max((len(r) for r in rows), default=4) - 4
    header = ("face",) + tuple(f"x{i}" for i in range(max(width, 1))) \
        + ("lhs", "rhs", "residual")
    rows = [r[:-3] + ("",) * (len(header) - len(r)) + r[-3:] for r in rows]
    emitter.write_table(f"compare_{args.mode}.csv", header, rows)
    if not passed:
        raise CheckFailed(f"compare {args.mode} residuals exceed tolerance")


# ---------------------------------------------------------------------------
# hybrid subcommands


def parse_list(text, kind, context):
    try:
        return [kind(p) for p in str(text).split(",") if p != ""]
    except ValueError:
        raise ConfigError(f"{context} must be a comma-separated list")


def build_local_model(args):
    n = args.n
    if args.samples * (n + 1) > MAX_SAMPLE_COORDS:
        raise ConfigError(
            f"--samples {args.samples} at --n {n} gives "
            f"{args.samples * (n + 1)} sample coordinates, more than "
            f"{MAX_SAMPLE_COORDS}")
    bs = parse_list(args.b, int, "--b") if args.b else [1] * (n + 1)
    weights = parse_list(args.weights, float, "--weights") \
        if args.weights else None
    t_exps = parse_list(args.t_exp, float, "--t-exp")
    if len(t_exps) > MAX_T_EXPONENTS:
        raise ConfigError(f"--t-exp has {len(t_exps)} exponents; at most "
                          f"{MAX_T_EXPONENTS} are allowed")
    if not t_exps or not all(0 < e < math.inf for e in t_exps):
        raise ConfigError("--t-exp needs positive exponents e (|t| = e^-e)")
    try:
        u = parse_poly(args.uJ, n + 1) if args.uJ else None
        if u is not None and len(u.terms) > MAX_POLY_TERMS:
            raise ConfigError(f"--uJ has {len(u.terms)} terms; at most "
                              f"{MAX_POLY_TERMS} are allowed")
        models = [LocalModel(tuple(bs), math.exp(-e), n, u, weights)
                  for e in t_exps]
    except ValueError as exc:
        raise ConfigError(str(exc))
    return models


def run_hybrid_pushforward(args, doc, emitter):
    model, *others = build_local_model(args)
    if others:
        raise ConfigError("pushforward takes one --t-exp exponent")
    p = model.depth
    if args.level * p > MAX_DYADIC_BITS:
        raise ConfigError(
            f"--level {args.level} gives 2^{args.level * p} dyadic cells, "
            f"more than 2^{MAX_DYADIC_BITS}")
    batch = sample_cy_measure(model, args.samples, args.seed)
    rep = pushforward_distance(batch, level=args.level)
    if p >= 1:
        k = 1 << args.level
        cells = dyadic_cells(batch, args.level)
        counts = np.bincount(cells, minlength=k ** p)
        wsum = np.bincount(cells, weights=batch.weights, minlength=k ** p)
        rows = [cell + (int(c), float(w))
                for cell, c, w in zip(np.ndindex((k,) * p), counts, wsum)]
        header = tuple(f"cell_{i}" for i in range(p)) \
            + ("count", "weight_sum")
        emitter.write_table("histogram.csv", header, rows)
    emitter.summary["distance"] = rep.distance
    emitter.summary["standard_error"] = rep.standard_error
    emitter.summary["statistic"] = rep.statistic
    emitter.summary["mean_weight"] = batch.mean_weight()
    if args.tol is not None and rep.distance > args.tol:
        raise CheckFailed(
            f"pushforward distance {rep.distance:.3e} exceeds {args.tol}")


def run_hybrid_growth(args, doc, emitter):
    models = build_local_model(args)
    if len({m.t for m in models}) < 2:
        raise ConfigError("growth needs at least two distinct --t-exp values")
    rep = volume_growth_exponent(models[0], [m.t for m in models],
                                 count=args.samples, seed=args.seed)
    rows = [(T, v) for T, v in zip(rep.log_scales, rep.volumes)]
    emitter.write_table("growth.csv", ("log_scale", "volume"), rows)
    emitter.summary["exponent"] = rep.exponent
    emitter.summary["expected"] = rep.expected
    if not rep.within(args.tol):
        raise CheckFailed(
            f"growth exponent {rep.exponent:.4f} not within {args.tol} "
            f"of {rep.expected}")


# ---------------------------------------------------------------------------
# geometry subcommands


def run_geometry_slag(args, doc, emitter):
    H = cfg.symmetric_matrix(args.hessian) if args.hessian \
        else np.eye(args.n)
    n = H.shape[0]
    if n > MAX_FORM_DIM:
        raise ConfigError(f"--hessian must be at most {MAX_FORM_DIM}x"
                          f"{MAX_FORM_DIM}, got {n}x{n}")
    check_form_scale(H, args.L)
    form = semiflat_form(H, args.L)
    frame = standard_torus_frame(n)
    lag = fiber_lagrangian_residual(form, frame)
    phase = fiber_phase_residual(n, frame)
    rows = [
        ("dimension", n),
        ("scale", args.L),
        ("lagrangian_residual", lag),
        ("phase", phase.phase),
        ("phase_residual", phase.residual),
        ("smallest_eigenvalue", form.smallest_eigenvalue()),
    ]
    emitter.write_table("slag_check.csv", ("quantity", "value"), rows)
    emitter.summary["lagrangian_residual"] = lag
    emitter.summary["phase_residual"] = phase.residual
    if lag > args.tol or phase.residual > args.tol:
        raise CheckFailed("fiber residuals exceed tolerance")


def run_geometry_calabi(args, doc, emitter):
    n = args.n
    triple, constant = power_law_potential(n)
    xs = np.logspace(-2, 2, 41)
    rep = calabi_ode_residual(n, triple, xs)
    rows = [(float(x), v) for x, v in zip(xs, rep.values)]
    emitter.write_table("calabi.csv", ("x", "invariant"), rows)
    emitter.summary["constant"] = rep.constant
    emitter.summary["expected_constant"] = constant
    emitter.summary["residual"] = rep.residual
    scale = max(1.0, abs(constant))
    if rep.residual > args.tol * scale \
            or abs(rep.constant - constant) > args.tol * scale:
        raise CheckFailed("Calabi invariant is not constant to tolerance")


def random_block_instance(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    P = a @ a.T + 0.5 * np.eye(m)
    f = n - m
    c = rng.normal(size=(f, f)) + 1j * rng.normal(size=(f, f))
    Q = c @ c.conj().T + 0.5 * np.eye(f)
    B = rng.normal(size=(m, f)) + 1j * rng.normal(size=(m, f))
    return P, Q, B


def run_geometry_gcalabi(args, doc, emitter):
    if args.m < 0 or args.n <= args.m:
        raise ConfigError("need 0 <= m < n")
    P, Q, B = random_block_instance(args.m, args.n, args.seed)
    # first-order relative error (4 pi / L) tr(P^-1 B Q^-1 B*): from ~10^-2
    first = 4 * math.pi * abs(np.trace(
        np.linalg.solve(P, B) @ np.linalg.solve(Q, B.conj().T)))
    scales = args.L or [max(1, first) * 10.0 ** k for k in range(2, 7)]
    if len(scales) < 2:
        raise ConfigError("need at least two --L scales for the slope fit")
    rep = volume_identity_check(P, Q, B, scales)
    rows = [(L, e) for L, e in zip(rep.scales, rep.relative_errors)]
    emitter.write_table("gcalabi.csv", ("scale", "relative_error"), rows)
    emitter.summary["slope"] = rep.slope
    emitter.summary["exact"] = rep.exact
    emitter.summary["limit"] = rep.limit
    if not rep.slope_within(-1.0, args.tol):
        raise CheckFailed(
            f"error slope {rep.slope} not within {args.tol} of -1")


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _checked(kind, rule, ok):
    """argparse type: a ``kind`` value for which ``ok`` holds."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__   # argparse: "invalid int value: 'x'"
    return parse


NATURAL = _checked(int, ">= 0", lambda v: v >= 0)
POSITIVE = _checked(int, ">= 1", lambda v: v >= 1)
GRID = _checked(int, ">= 2", lambda v: v >= 2)
# 4 pi L^2 divides the Hessian in semiflat_form
SCALE = _checked(float, "positive with 4 pi L^2 a normal float",
                 lambda v: v > 0 and sys.float_info.min
                 <= 4.0 * math.pi * v * v < math.inf)


def check_form_scale(hessian, scale):
    """The entries of ``hessian / (4 pi L^2)``, the form's matrix, must be
    finite and at most float max / (2 n^2), so that no sum of its n^2
    products with the unit frame vectors overflows."""
    n = hessian.shape[0]
    bound = sys.float_info.max / (2 * n * n)
    entry, area = float(np.abs(hessian).max()), 4.0 * math.pi * scale * scale
    # a Python float product rounds to inf where a numpy one warns
    if not (math.isfinite(entry) and entry <= bound * area):
        raise ConfigError(
            f"--hessian entry {entry:.3g} over 4 pi L^2 = {area:.3g} leaves "
            f"the float range: the form's entries must be at most "
            f"{bound:.3g} at n = {n}")


TOLERANCE = _checked(float, "finite and >= 0", lambda v: 0 <= v < math.inf)
ORACLE_GRID = _checked(int, f"in [1, {MAX_ORACLE_GRID}]",
                       lambda v: 1 <= v <= MAX_ORACLE_GRID)
SEED = _checked(int, "in [0, 2^64)", lambda v: 0 <= v < 1 << 64)
HYBRID_DIM = _checked(int, f"in [0, {MAX_HYBRID_N}]",
                      lambda v: 0 <= v <= MAX_HYBRID_N)
FORM_DIM = _checked(int, f"in [1, {MAX_FORM_DIM}]",
                    lambda v: 1 <= v <= MAX_FORM_DIM)
GCALABI_DIM = _checked(int, f"at most {MAX_GCALABI_DIM}",
                       lambda v: v <= MAX_GCALABI_DIM)
CALABI_N = _checked(int, f"in [1, {MAX_CALABI_N}]",
                    lambda v: 1 <= v <= MAX_CALABI_N)
CONFIG = (("config",), {"help": "config JSON"})


def _command(subs, name, handler, *positionals, help=None, **defaults):
    """A subcommand: its positionals, in order, and ``--out``; a ``seed``
    or ``tol`` default also declares ``--seed`` or ``--tol``."""
    sp = subs.add_parser(name, help=help)
    for args, kwargs in positionals:
        sp.add_argument(*args, **kwargs)
    sp.add_argument("--out", default="out", help="output directory")
    if "seed" in defaults:
        sp.add_argument("--seed", type=SEED, help="random seed")
    if "tol" in defaults:
        sp.add_argument("--tol", type=TOLERANCE,
                        help="tolerance of the run's check")
    sp.set_defaults(handler=handler, **defaults)
    return sp


def build_parser():
    parser = _Parser(prog="nama", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    msub = top.add_parser("model", help="model ingestion and skeletons") \
        .add_subparsers(dest="subcommand", required=True)
    _command(msub, "validate", run_model_validate, CONFIG)
    _command(msub, "skeleton", run_model_skeleton, CONFIG)
    _command(top, "namma", run_namma, CONFIG, subcommand=None,
             help="atomic measure of a model metric")

    rsub = top.add_parser("realma", help="real Monge-Ampere solver") \
        .add_subparsers(dest="subcommand", required=True)
    _command(rsub, "solve", run_realma_solve, CONFIG, tol=1e-8).add_argument(
        "--grid", type=GRID, default=9, help="nodes per side")
    _command(rsub, "measure", run_realma_measure, CONFIG, tol=None) \
        .add_argument("--grid", type=ORACLE_GRID, default=None,
                      help="oracle resolution of the --tol check")

    mode = (("mode",), {"choices": COMPARE_MODES})
    _command(top, "compare", run_compare, mode, CONFIG, subcommand=None,
             tol=1e-8, help="intersection vs convex analysis")

    hsub = top.add_parser("hybrid", help="Monte Carlo on local models") \
        .add_subparsers(dest="subcommand", required=True)
    push = _command(hsub, "pushforward", run_hybrid_pushforward, seed=0,
                    tol=None)
    grow = _command(hsub, "growth", run_hybrid_growth, seed=0, tol=0.1)
    for sp in (push, grow):
        sp.add_argument("--n", type=HYBRID_DIM, required=True,
                        help="complex dimension")
        sp.add_argument("--t-exp", dest="t_exp", required=True,
                        help="positive exponents e with |t| = exp(-e)")
        sp.add_argument("--samples", type=POSITIVE, default=100000)
        sp.add_argument("--uJ", default=None,
                        help="holomorphic factor, e.g. '1+z0'")
        sp.add_argument("--b", default=None,
                        help="comma-separated multiplicities")
        sp.add_argument("--weights", default=None,
                        help="comma-separated damping exponents")
    push.add_argument("--level", type=NATURAL, default=2,
                      help="dyadic partition level")

    gsub = top.add_parser("geometry", help="Hermitian form identities") \
        .add_subparsers(dest="subcommand", required=True)
    slag = _command(gsub, "slag-check", run_geometry_slag, tol=1e-12)
    hessian = slag.add_mutually_exclusive_group()
    # the string default is parsed only when --n is absent: --n 2 conflicts
    hessian.add_argument("--n", type=FORM_DIM, default="2")
    hessian.add_argument("--hessian", default=None,
                         help="CSV file with a symmetric matrix")
    slag.add_argument("--L", type=SCALE, default=1.0)
    _command(gsub, "calabi", run_geometry_calabi, tol=1e-12).add_argument(
        "--n", type=CALABI_N, required=True)
    gcal = _command(gsub, "gcalabi", run_geometry_gcalabi, seed=0, tol=0.05)
    gcal.add_argument("--m", type=int, required=True,
                      help="base block size")
    gcal.add_argument("--n", type=GCALABI_DIM, required=True,
                      help="total dimension")
    gcal.add_argument("--L", type=SCALE, nargs="+", default=None)
    return parser


def run(args):
    """Execute one parsed command; returns the process exit status."""
    command = args.command + (f" {args.subcommand}" if args.subcommand
                              else "")
    options = {k: v for k, v in sorted(vars(args).items())
               if k != "handler" and v is not None}
    doc = None
    if hasattr(args, "config"):
        doc, options["config_sha256"] = cfg.load_document(args.config)
        cfg.validate_toplevel(doc)
    emitter = Emitter(args.out, command, options)
    try:
        args.handler(args, doc, emitter)
    except ConfigError:
        raise
    except ToolkitError as exc:
        emitter.summary["failure"] = str(exc)
        emitter.finish(False)
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    emitter.finish(True)
    return 0


# one parser per process: parsing leaves it as it was (no handler or type
# changes a default), and building it costs milliseconds a run
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
