"""Command line driver: deterministic CSV reports plus a config manifest.

Every run writes its tables into the output directory together with a
``manifest.json`` echoing the fully resolved configuration.  Reruns with
identical inputs produce byte-identical files: floats are printed with
shortest round-trip precision, rationals as ``p/q``, row order is fixed,
and no timestamps are recorded.  Exit status 0 means the run's check
passed, 2 means the mathematics failed the check, 1 means the input was
invalid.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import config as cfg
from .comparison import (FaceMassTerm, FacePotential, ResidueData,
                         cycle_model, cycle_table, gradient_matching_residual,
                         lower_face_density, na_pde_residual, total_mass_check,
                         transition_between, vilsmeier_check_1d)
from .errors import CheckFailed, ConfigError, ToolkitError
from .forms import (calabi_ode_residual, fiber_lagrangian_residual,
                    fiber_phase_residual, generalized_calabi_form,
                    power_law_potential, semiflat_form, standard_torus_frame,
                    volume_identity_check)
from .hybrid import (LocalModel, parse_poly, pushforward_distance,
                     sample_cy_measure, volume_growth_exponent)
from .potential import na_ma_model_metric
from .realma import (ConvexPL, Interval, TargetMeasure, box_polygon,
                     ma_measure, ma_measure_oracle, solve)
from .skeleton import essential_skeleton, lebesgue_measure

COMPARE_MODES = ("vilsmeier", "lowerface", "pde", "matching", "mass")


# ---------------------------------------------------------------------------
# formatting and output plumbing


def fmt(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
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
        path = os.path.join(self.out_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([fmt(v) for v in row])
        self.outputs.append(name)
        return path

    def finish(self, passed):
        os.makedirs(self.out_dir, exist_ok=True)
        manifest = {
            "command": self.command,
            "options": self.options,
            "outputs": sorted(self.outputs),
            "summary": self.summary,
            "passed": bool(passed),
        }
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=fmt)
            fh.write("\n")
        for key in sorted(self.summary):
            print(f"{key}={fmt(self.summary[key])}")
        print("PASS" if passed else "FAIL")


def jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ---------------------------------------------------------------------------
# shared config assembly


def load_model_bundle(path, need_table=False):
    doc = cfg.load_document(path)
    cfg.validate_toplevel(doc)
    model = cfg.build_model_from_config(doc)
    table = None
    if "intersection_table" in doc:
        table = cfg.build_table_from_config(doc["intersection_table"],
                                            model.dimension)
    if need_table and table is None:
        raise ConfigError("this command needs an intersection_table block")
    return doc, model, table


def quadratic_gradient(block, context, dim):
    """Gradient function of 1/2 x^T A x + b.x from a config block."""
    cfg.check_keys(block, {"quadratic", "linear"}, context)
    rows = block.get("quadratic")
    if rows is None:
        A = [[Fraction(0)] * dim for _ in range(dim)]
    else:
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ConfigError(f"{context}.quadratic must be {dim}x{dim}")
        A = [[cfg.rational(v, f"{context}.quadratic") for v in r]
             for r in rows]
        for i in range(dim):
            for j in range(dim):
                if A[i][j] != A[j][i]:
                    raise ConfigError(f"{context}.quadratic must be "
                                      "symmetric")
    lin = block.get("linear", [0] * dim)
    if len(lin) != dim:
        raise ConfigError(f"{context}.linear needs {dim} entries")
    b = [cfg.rational(v, f"{context}.linear") for v in lin]

    def grad(x):
        x = list(x)
        return tuple(sum(A[i][j] * x[j] for j in range(dim)) + b[i]
                     for i in range(dim))

    return grad


# ---------------------------------------------------------------------------
# model subcommands


def run_model_validate(args, emitter):
    doc, model, table = load_model_bundle(args.config)
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
    return True


def run_model_skeleton(args, emitter):
    doc, model, _ = load_model_bundle(args.config)
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
    return True


def run_namma(args, emitter):
    doc, model, table = load_model_bundle(args.config, need_table=True)
    coeffs = cfg.coefficients_from_config(
        cfg.require(doc, "coefficients", "config"), model)
    measure = na_ma_model_metric(model, table, coeffs)
    rows = [(i, coeffs[i], measure.mass_of(i))
            for i in sorted(measure.support)]
    emitter.write_table("namma.csv", ("divisor", "coefficient", "mass"),
                        rows)
    emitter.summary["total"] = measure.total()
    emitter.summary["expected"] = measure.expected_total
    measure.validate_total()
    return measure.total() == measure.expected_total


# ---------------------------------------------------------------------------
# real Monge-Ampere subcommands


def parse_domain(doc):
    block = cfg.require(doc, "domain", "config")
    cfg.check_keys(block, {"interval", "box"}, "domain")
    if "interval" in block:
        lo, hi = block["interval"]
        return Interval(cfg.rational(lo, "interval"),
                        cfg.rational(hi, "interval"))
    if "box" in block:
        (lo0, hi0), (lo1, hi1) = block["box"]
        return box_polygon(cfg.rational(lo0, "box"), cfg.rational(hi0, "box"),
                           cfg.rational(lo1, "box"), cfg.rational(hi1, "box"))
    raise ConfigError("domain needs an interval or a box")


def grid_nodes(domain, per_side):
    if per_side < 2:
        raise ConfigError("--grid must be at least 2 nodes per side")
    if domain.dim == 1:
        lo, hi = domain.lo, domain.hi
        step = Fraction(hi - lo, per_side - 1)
        return [(lo + step * k,) for k in range(per_side)]
    xs = sorted({v[0] for v in domain.vertices})
    ys = sorted({v[1] for v in domain.vertices})
    lo0, hi0, lo1, hi1 = xs[0], xs[-1], ys[0], ys[-1]
    s0 = Fraction(hi0 - lo0, per_side - 1)
    s1 = Fraction(hi1 - lo1, per_side - 1)
    return [(lo0 + s0 * i, lo1 + s1 * j)
            for i in range(per_side) for j in range(per_side)]


def boundary_values(doc, domain, nodes):
    block = cfg.require(doc, "boundary", "config")
    cfg.check_keys(block, {"quadratic", "linear", "constant"}, "boundary")
    dim = domain.dim
    grad = quadratic_gradient(
        {k: v for k, v in block.items() if k != "constant"},
        "boundary", dim)
    rows = block.get("quadratic")
    A = None
    if rows is not None:
        A = [[cfg.rational(v, "boundary.quadratic") for v in r]
             for r in rows]
    lin = [cfg.rational(v, "boundary.linear")
           for v in block.get("linear", [0] * dim)]
    const = cfg.rational(block.get("constant", 0), "boundary.constant")

    def value(pt):
        x = list(pt)
        out = const + sum(l * c for l, c in zip(lin, x))
        if A is not None:
            out += sum(A[i][j] * x[i] * x[j] for i in range(dim)
                       for j in range(dim)) / 2
        return out

    return {nd: value(nd) for nd in nodes if domain.on_boundary(nd)}


def run_realma_solve(args, emitter):
    doc = cfg.load_document(args.config)
    cfg.validate_toplevel(doc)
    domain = parse_domain(doc)
    nodes = grid_nodes(domain, args.grid)
    interior = [nd for nd in nodes if not domain.on_boundary(nd)]
    if "density" in doc:
        density = cfg.rational(doc["density"], "density")
        target = TargetMeasure.from_density(domain, nodes, density)
    elif "masses" in doc:
        entries = doc["masses"]
        masses = {}
        for k, entry in enumerate(entries):
            cfg.check_keys(entry, {"node", "mass"}, f"masses[{k}]")
            nd = tuple(cfg.rational(c, "node") for c in entry["node"])
            masses[nd] = cfg.rational(entry["mass"], "mass")
        target = TargetMeasure(masses)
    else:
        raise ConfigError("config needs a density or masses block")
    bnd = boundary_values(doc, domain, nodes)
    tol = args.tol if args.tol is not None else 1e-8
    result = solve(domain, target, bnd, nodes=nodes, tol=tol)
    sol = result.solution
    node_masses = {}
    measure = ma_measure(sol)
    for nd, mass, is_int in zip(measure.nodes, measure.masses,
                                measure.interior):
        node_masses[tuple(float(c) for c in nd)] = mass if is_int else 0
    rows = []
    for nd, val in sorted(zip(sol.nodes, sol.values)):
        key = tuple(float(c) for c in nd)
        rows.append(tuple(nd) + (val, node_masses.get(key, 0)))
    header = tuple(f"node_x{i}" for i in range(domain.dim)) \
        + ("value", "mass")
    emitter.write_table("solution.csv", header, rows)
    emitter.summary["residual"] = float(result.residual)
    emitter.summary["iterations"] = result.iterations
    emitter.summary["converged"] = bool(result.converged)
    emitter.summary["nodes"] = len(nodes)
    emitter.summary["interior_nodes"] = len(interior)
    emitter.summary["cell_fallbacks"] = (result.cell_fallbacks
                                         + measure.cell_fallbacks)
    if not result.converged or float(result.residual) > tol:
        raise CheckFailed(
            f"mass residual {float(result.residual):.3e} exceeds {tol}")
    return True


def run_realma_measure(args, emitter):
    doc = cfg.load_document(args.config)
    cfg.validate_toplevel(doc)
    domain = parse_domain(doc)
    raw_nodes = cfg.require(doc, "nodes", "config")
    raw_values = cfg.require(doc, "values", "config")
    if len(raw_nodes) != len(raw_values):
        raise ConfigError("nodes and values must have equal length")

    def coord(v, ctx):
        if isinstance(v, float):
            return v
        return cfg.rational(v, ctx)

    nodes = [tuple(coord(c, "nodes") for c in nd) for nd in raw_nodes]
    values = [coord(v, "values") for v in raw_values]
    pl = ConvexPL(domain, nodes, values)
    measure = ma_measure(pl)
    rows = []
    for nd, val, mass, is_int in sorted(
            zip(measure.nodes, pl.values, measure.masses, measure.interior)):
        rows.append(tuple(nd) + (val, mass if is_int else 0))
    header = tuple(f"node_x{i}" for i in range(domain.dim)) \
        + ("value", "mass")
    emitter.write_table("measure.csv", header, rows)
    emitter.summary["total_mass"] = measure.total()
    emitter.summary["degenerate"] = measure.degenerate
    emitter.summary["cell_fallbacks"] = measure.cell_fallbacks
    if args.tol is not None:
        oracle_masses = ma_measure_oracle(pl, resolution=args.grid or 1000)
        worst = 0.0
        for nd, em, om, is_int in zip(measure.nodes, measure.masses,
                                      oracle_masses, measure.interior):
            if is_int:
                worst = max(worst, abs(float(em) - float(om)))
        emitter.summary["oracle_deviation"] = worst
        if worst > args.tol:
            raise CheckFailed(
                f"oracle deviation {worst:.3e} exceeds {args.tol}")
    return True


# ---------------------------------------------------------------------------
# comparison subcommands


def comparison_model(doc):
    if "cycle" in doc:
        block = doc["cycle"]
        cfg.check_keys(block, {"degrees", "coefficients"}, "cycle")
        degrees = [cfg.rational(d, "cycle.degrees")
                   for d in cfg.require(block, "degrees", "cycle")]
        model = cycle_model(degrees)
        table = cycle_table(degrees)
        raw = cfg.require(block, "coefficients", "cycle")
        if isinstance(raw, list):
            coeffs = {i: cfg.rational(c, "cycle.coefficients")
                      for i, c in enumerate(raw)}
        else:
            coeffs = cfg.coefficients_from_config(raw, model)
        return model, table, coeffs
    model = cfg.build_model_from_config(doc)
    table = None
    if "intersection_table" in doc:
        table = cfg.build_table_from_config(doc["intersection_table"],
                                            model.dimension)
    coeffs = None
    if "coefficients" in doc:
        coeffs = cfg.coefficients_from_config(doc["coefficients"], model)
    return model, table, coeffs


def face_potential_from_config(doc, model, face_key):
    block = cfg.require(doc, "potential", "config")
    cfg.check_keys(block, {"face", "gradients", "hessian"}, "potential")
    grads_raw = cfg.require(block, "gradients", "potential")
    grads = {int(k): cfg.rational(v, "potential.gradients")
             for k, v in grads_raw.items()}
    face = model.face(face_key)
    p = face.dim
    rows = block.get("hessian", [])
    if len(rows) != p or any(len(r) != p for r in rows):
        raise ConfigError(f"potential.hessian must be {p}x{p}")
    hess = [[cfg.rational(v, "potential.hessian") for v in r] for r in rows]
    return FacePotential(gradient=lambda x: grads,
                         hessian=lambda x: hess)


def potential_face_key(doc, model):
    block = cfg.require(doc, "potential", "config")
    return cfg.face_key_from_string(
        cfg.require(block, "face", "potential"), "potential.face")


def run_compare(args, emitter):
    mode = args.mode_positional or args.mode
    if mode is None:
        raise ConfigError(
            f"compare needs a mode: one of {', '.join(COMPARE_MODES)}")
    if args.mode_positional and args.mode and \
            args.mode_positional != args.mode:
        raise ConfigError("conflicting compare modes given")
    doc = cfg.load_document(args.config)
    cfg.validate_toplevel(doc)
    emitter.options["mode"] = mode
    header = None
    rows = []
    tol = args.tol if args.tol is not None else 1e-8

    if mode == "vilsmeier":
        model, table, coeffs = comparison_model(doc)
        if table is None or coeffs is None:
            raise ConfigError("vilsmeier needs a table and coefficients")
        rep = vilsmeier_check_1d(model, table, coeffs)
        for ident, na, real in zip(rep.vertex_order, rep.na_masses,
                                   rep.real_masses):
            face = model.face((ident,))
            x = face.vertex_point(ident)[ident]
            rows.append((face_label((ident,)), x, na, real, na - real))
        emitter.summary["max_discrepancy"] = rep.max_discrepancy
        emitter.summary["total"] = rep.total_na
        passed = rep.holds

    elif mode == "lowerface":
        model, table, _ = comparison_model(doc)
        if table is None:
            raise ConfigError("lowerface needs an intersection_table")
        key = potential_face_key(doc, model)
        potential = face_potential_from_config(doc, model, key)
        density = lower_face_density(model, table, key, potential)
        face = model.face(key)
        res = doc.get("resolution", 2)
        expected = doc.get("expected")
        expected = cfg.rational(expected, "expected") \
            if expected is not None else None
        worst = 0
        for pt in face.grid_points(res):
            val = density(pt)
            coords = [pt[i] for i in key]
            rhs = expected if expected is not None else val
            rows.append((face_label(key),) + tuple(coords)
                        + (val, rhs, val - rhs))
            worst = max(worst, abs(val - rhs))
        emitter.summary["max_residual"] = worst
        passed = float(worst) <= tol

    elif mode == "pde":
        model, table, _ = comparison_model(doc)
        if table is None:
            raise ConfigError("pde needs an intersection_table")
        key = potential_face_key(doc, model)
        potential = face_potential_from_config(doc, model, key)
        res_block = cfg.require(doc, "residues", "config")
        entries = {cfg.face_key_from_string(k, "residues"):
                   cfg.rational(v, "residues") for k, v in res_block.items()}
        residues = ResidueData(entries)
        residual = na_pde_residual(model, table, key, potential, residues,
                                   table.top_self_intersection())
        face = model.face(key)
        resn = doc.get("resolution", 2)
        worst = 0
        for pt in face.grid_points(resn):
            r = residual(pt)
            coords = [pt[i] for i in key]
            lhs = r + residual.rhs
            rows.append((face_label(key),) + tuple(coords)
                        + (lhs, residual.rhs, r))
            worst = max(worst, abs(r))
        emitter.summary["max_residual"] = worst
        emitter.summary["rhs"] = residual.rhs
        passed = float(worst) <= tol

    elif mode == "matching":
        model, _, _ = comparison_model(doc)
        block = cfg.require(doc, "matching", "config")
        cfg.check_keys(block, {"face_a", "face_b", "degrees", "a", "b",
                               "wall_points"}, "matching")
        fa = cfg.face_key_from_string(
            cfg.require(block, "face_a", "matching"), "matching.face_a")
        fb = cfg.face_key_from_string(
            cfg.require(block, "face_b", "matching"), "matching.face_b")
        degs = {int(k): cfg.integer(v, "matching.degrees")
                for k, v in cfg.require(block, "degrees", "matching").items()}
        transition = transition_between(model, fa, fb, degs)
        n = transition.dim
        ga = quadratic_gradient(cfg.require(block, "a", "matching"),
                                "matching.a", n)
        gb = quadratic_gradient(cfg.require(block, "b", "matching"),
                                "matching.b", n)
        pts = [tuple(cfg.rational(c, "wall_points") for c in w)
               for w in cfg.require(block, "wall_points", "matching")]
        rep = gradient_matching_residual(ga, gb, transition, pts)
        for w, tang, normal in zip(rep.points, rep.tangential, rep.normal):
            gav = ga((0,) + w)
            gbv = gb(transition.apply((0,) + w))
            for i, tr in enumerate(tang):
                rows.append((f"tangential-{i + 1}",) + w
                            + (gbv[i + 1], gav[i + 1], tr))
            drift = sum(d * gav[i] for i, d in
                        zip(range(1, n), transition.degrees))
            rows.append(("normal",) + w + (gbv[0] + gav[0], drift, normal))
        emitter.summary["max_residual"] = rep.max_residual
        passed = float(rep.max_residual) <= tol

    elif mode == "mass":
        model, table, _ = comparison_model(doc)
        terms_raw = cfg.require(doc, "mass_terms", "config")
        terms = []
        for k, entry in enumerate(terms_raw):
            ctx = f"mass_terms[{k}]"
            cfg.check_keys(entry, {"face", "density"}, ctx)
            key = cfg.face_key_from_string(cfg.require(entry, "face", ctx),
                                           ctx)
            dens = cfg.rational(cfg.require(entry, "density", ctx), ctx)
            terms.append(FaceMassTerm.from_constant(model, key, dens))
        atomic = [cfg.rational(v, "atomic") for v in doc.get("atomic", [])]
        if "expected" in doc:
            expected = cfg.rational(doc["expected"], "expected")
        elif table is not None:
            expected = table.top_self_intersection()
        else:
            raise ConfigError("mass needs expected or an intersection_table")
        rep = total_mass_check(terms, atomic, expected, tol=tol)
        for term in terms:
            rows.append((face_label(term.face_key), "", term.integral,
                         "", ""))
        rows.append(("total", "", rep.total, rep.expected, rep.discrepancy))
        emitter.summary["total"] = rep.total
        emitter.summary["expected"] = rep.expected
        emitter.summary["discrepancy"] = rep.discrepancy
        passed = rep.passed
    else:
        raise ConfigError(f"unknown compare mode {mode!r}")

    width = max((len(r) for r in rows), default=4) - 4
    header = ("face",) + tuple(f"x{i}" for i in range(max(width, 1))) \
        + ("lhs", "rhs", "residual")
    rows = [r[:1] + r[1:-3] + ("",) * (len(header) - len(r)) + r[-3:]
            for r in rows]
    emitter.write_table(f"compare_{mode}.csv", header, rows)
    if not passed:
        raise CheckFailed(f"compare {mode} residuals exceed tolerance")
    return True


# ---------------------------------------------------------------------------
# hybrid subcommands


def parse_int_list(text, context):
    try:
        return [int(p) for p in str(text).split(",") if p != ""]
    except ValueError:
        raise ConfigError(f"{context} must be a comma-separated integer list")


def parse_float_list(text, context):
    try:
        return [float(p) for p in str(text).split(",") if p != ""]
    except ValueError:
        raise ConfigError(f"{context} must be a comma-separated number list")


def build_local_model(args):
    n = args.n
    bs = parse_int_list(args.b, "--b") if args.b else [1] * (n + 1)
    weights = parse_float_list(args.weights, "--weights") \
        if args.weights else None
    u = parse_poly(args.uJ, n + 1) if args.uJ else None
    t_exps = parse_float_list(args.t_exp, "--t-exp")
    if not t_exps or any(e <= 0 for e in t_exps):
        raise ConfigError("--t-exp needs positive exponents e (|t| = e^-e)")
    try:
        models = [LocalModel(tuple(bs), math.exp(-e), n, u, weights)
                  for e in t_exps]
    except ValueError as exc:
        raise ConfigError(str(exc))
    return models


def run_hybrid_pushforward(args, emitter):
    models = build_local_model(args)
    model = models[0]
    batch = sample_cy_measure(model, args.samples, args.seed)
    rep = pushforward_distance(batch, level=args.level)
    p = model.depth
    k = 1 << args.level
    if p >= 1:
        from .hybrid import _DYADIC_BITS
        idx = np.minimum(batch.numerators[:, 1:] >> (_DYADIC_BITS
                                                     - args.level), k - 1)
        flat = np.ravel_multi_index(tuple(idx.T), (k,) * p)
        counts = np.bincount(flat, minlength=k ** p)
        wsum = np.bincount(flat, weights=batch.weights, minlength=k ** p)
        rows = []
        for j in range(k ** p):
            cell = np.unravel_index(j, (k,) * p)
            rows.append(tuple(int(c) for c in cell)
                        + (int(counts[j]), float(wsum[j])))
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
    return True


def run_hybrid_growth(args, emitter):
    models = build_local_model(args)
    if len(models) < 2:
        raise ConfigError("growth needs at least two --t-exp values")
    base = models[0]
    rep = volume_growth_exponent(base, [m.t for m in models],
                                 count=args.samples, seed=args.seed)
    rows = [(T, v) for T, v in zip(rep.log_scales, rep.volumes)]
    emitter.write_table("growth.csv", ("log_scale", "volume"), rows)
    emitter.summary["exponent"] = rep.exponent
    emitter.summary["expected"] = rep.expected
    tol = args.tol if args.tol is not None else 0.1
    if not rep.within(tol):
        raise CheckFailed(
            f"growth exponent {rep.exponent:.4f} not within {tol} "
            f"of {rep.expected}")
    return True


# ---------------------------------------------------------------------------
# geometry subcommands


def load_matrix(path):
    try:
        with open(path) as fh:
            rows = [[float(v) for v in line] for line in csv.reader(fh)
                    if line]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read matrix from {path}: {exc}")
    return np.array(rows)


def run_geometry_slag(args, emitter):
    if args.hessian:
        H = load_matrix(args.hessian)
        n = H.shape[0]
    else:
        n = args.n
        H = np.eye(n)
    L = args.L[0] if args.L else 1.0
    form = semiflat_form(H, L)
    frame = standard_torus_frame(n)
    lag = fiber_lagrangian_residual(form, frame)
    phase = fiber_phase_residual(n, frame)
    rows = [
        ("dimension", n),
        ("scale", L),
        ("lagrangian_residual", lag),
        ("phase", phase.phase),
        ("phase_residual", phase.residual),
        ("smallest_eigenvalue", form.smallest_eigenvalue()),
    ]
    emitter.write_table("slag_check.csv", ("quantity", "value"), rows)
    tol = args.tol if args.tol is not None else 1e-12
    emitter.summary["lagrangian_residual"] = lag
    emitter.summary["phase_residual"] = phase.residual
    if lag > tol or phase.residual > tol:
        raise CheckFailed("fiber residuals exceed tolerance")
    return True


def run_geometry_calabi(args, emitter):
    n = args.n
    triple, constant = power_law_potential(n)
    xs = np.logspace(-2, 2, 41)
    rep = calabi_ode_residual(n, triple, xs)
    rows = [(float(x), v) for x, v in zip(xs, rep.values)]
    emitter.write_table("calabi.csv", ("x", "invariant"), rows)
    emitter.summary["constant"] = rep.constant
    emitter.summary["expected_constant"] = constant
    emitter.summary["residual"] = rep.residual
    tol = args.tol if args.tol is not None else 1e-12
    scale = max(1.0, abs(constant))
    if rep.residual > tol * scale \
            or abs(rep.constant - constant) > tol * scale:
        raise CheckFailed("Calabi invariant is not constant to tolerance")
    return True


def random_block_instance(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    P = a @ a.T + 0.5 * np.eye(m)
    f = n - m
    c = rng.normal(size=(f, f)) + 1j * rng.normal(size=(f, f))
    Q = c @ c.conj().T + 0.5 * np.eye(f)
    B = rng.normal(size=(m, f)) + 1j * rng.normal(size=(m, f))
    return P, Q, B


def run_geometry_gcalabi(args, emitter):
    if args.m < 0 or args.n <= args.m:
        raise ConfigError("need 0 <= m < n")
    scales = args.L or [10.0 ** k for k in range(2, 7)]
    if len(scales) < 2:
        raise ConfigError("need at least two --L scales for the slope fit")
    P, Q, B = random_block_instance(args.m, args.n, args.seed)
    rep = volume_identity_check(P, Q, B, scales)
    rows = [(L, e) for L, e in zip(rep.scales, rep.relative_errors)]
    emitter.write_table("gcalabi.csv", ("scale", "relative_error"), rows)
    emitter.summary["slope"] = rep.slope
    emitter.summary["exact"] = rep.exact
    emitter.summary["limit"] = rep.limit
    tol = args.tol if args.tol is not None else 0.05
    if not rep.slope_within(-1.0, tol):
        raise CheckFailed(f"error slope {rep.slope} not within {tol} of -1")
    return True


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_common(sub):
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument("--tol", type=float, default=None,
                     help="tolerance override for the run's check")


def build_parser():
    parser = _Parser(prog="nama", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    model = top.add_parser("model", help="model ingestion and skeletons")
    msub = model.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("validate", run_model_validate),
                     ("skeleton", run_model_skeleton)):
        sp = msub.add_parser(name)
        sp.add_argument("config", help="model config JSON")
        _add_common(sp)
        sp.set_defaults(handler=fn)

    namma = top.add_parser("namma",
                           help="atomic measure of a model metric")
    namma.add_argument("config")
    _add_common(namma)
    namma.set_defaults(handler=run_namma, subcommand=None)

    realma = top.add_parser("realma", help="real Monge-Ampere solver")
    rsub = realma.add_subparsers(dest="subcommand", required=True)
    solve_p = rsub.add_parser("solve")
    solve_p.add_argument("config")
    solve_p.add_argument("--grid", type=int, default=9,
                         help="nodes per side")
    _add_common(solve_p)
    solve_p.set_defaults(handler=run_realma_solve)
    meas_p = rsub.add_parser("measure")
    meas_p.add_argument("config")
    meas_p.add_argument("--grid", type=int, default=None,
                        help="oracle resolution when --tol is set")
    _add_common(meas_p)
    meas_p.set_defaults(handler=run_realma_measure)

    comp = top.add_parser("compare", help="intersection vs convex analysis")
    comp.add_argument("mode_positional", nargs="?", choices=COMPARE_MODES,
                      metavar="mode")
    comp.add_argument("--mode", choices=COMPARE_MODES)
    comp.add_argument("config")
    _add_common(comp)
    comp.set_defaults(handler=run_compare, subcommand=None)

    hybrid = top.add_parser("hybrid", help="Monte Carlo on local models")
    hsub = hybrid.add_subparsers(dest="subcommand", required=True)
    push = hsub.add_parser("pushforward")
    grow = hsub.add_parser("growth")
    for sp in (push, grow):
        sp.add_argument("--n", type=int, required=True,
                        help="complex dimension")
        sp.add_argument("--t-exp", dest="t_exp", required=True,
                        help="positive exponents e with |t| = exp(-e)")
        sp.add_argument("--samples", type=int, default=100000)
        sp.add_argument("--uJ", default=None,
                        help="holomorphic factor, e.g. '1+z0'")
        sp.add_argument("--b", default=None,
                        help="comma-separated multiplicities")
        sp.add_argument("--weights", default=None,
                        help="comma-separated damping exponents")
        _add_common(sp)
    push.add_argument("--level", type=int, default=2,
                      help="dyadic partition level")
    push.set_defaults(handler=run_hybrid_pushforward)
    grow.set_defaults(handler=run_hybrid_growth)

    geom = top.add_parser("geometry", help="Hermitian form identities")
    gsub = geom.add_subparsers(dest="subcommand", required=True)
    slag = gsub.add_parser("slag-check")
    slag.add_argument("--n", type=int, default=2)
    slag.add_argument("--hessian", default=None,
                      help="CSV file with a symmetric matrix")
    slag.add_argument("--L", type=float, nargs="*", default=None)
    _add_common(slag)
    slag.set_defaults(handler=run_geometry_slag)
    calabi = gsub.add_parser("calabi")
    calabi.add_argument("--n", type=int, required=True)
    _add_common(calabi)
    calabi.set_defaults(handler=run_geometry_calabi)
    gcal = gsub.add_parser("gcalabi")
    gcal.add_argument("--m", type=int, required=True,
                      help="base block size")
    gcal.add_argument("--n", type=int, required=True,
                      help="total dimension")
    gcal.add_argument("--L", type=float, nargs="*", default=None)
    _add_common(gcal)
    gcal.set_defaults(handler=run_geometry_gcalabi)

    return parser


def run(args):
    """Execute one parsed command; returns the process exit status."""
    command = args.command + (f" {args.subcommand}" if args.subcommand
                              else "")
    options = {k: jsonable(v) for k, v in sorted(vars(args).items())
               if k not in ("handler", "mode_positional") and v is not None}
    if getattr(args, "config", None):
        options["config_document"] = jsonable(
            cfg.load_document(args.config))
    emitter = Emitter(args.out, command, options)
    try:
        passed = args.handler(args, emitter)
    except CheckFailed as exc:
        emitter.summary["failure"] = str(exc)
        emitter.finish(False)
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except ConfigError:
        raise
    except ToolkitError as exc:
        emitter.summary["failure"] = str(exc)
        emitter.finish(False)
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    emitter.finish(passed)
    if not passed:
        print("check failed", file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
