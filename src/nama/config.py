"""Strict configuration parsing for the command line layer.

Documents are JSON with a rigid schema: unknown keys are rejected at every
level, duplicate keys are rejected at parse time, and all rational numbers
are serialized as ``"p/q"`` strings (plain integers are also accepted).
Floats are only allowed where a quantity is genuinely numerical (never for
multiplicities, masses, or intersection numbers).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .comparison import (FaceMassTerm, FacePotential, ResidueData,
                         cycle_model, cycle_table, transition_between)
from .errors import ConfigError, ToolkitError
from .potential import IntersectionTable, Section
from .realma import ConvexPL, Interval, TargetMeasure, box_polygon
from .skeleton import Divisor, build_model

MODEL_KEYS = {"n", "semistable", "divisors", "faces", "intersection_table",
              "sections", "coefficients"}
COMMAND_KEYS = {"cycle", "residues", "potential", "matching", "mass_terms",
                "atomic", "domain", "density", "masses", "boundary",
                "expected", "resolution", "nodes", "values"}
TABLE_ENTRY_KEYS = {"L_power", "divisor_powers", "stratum", "value"}
# cycle.degrees: a cycle costs about 3.5 KB of memory per component;
# compare vilsmeier at 20,000 takes about 5 s and 100 MB end to end
# (30,000 takes 7 s and 140 MB)
MAX_CYCLE_LENGTH = 20_000
# intersection_table: about 1.2 KB per entry; model validate on 50,000
# entries takes about 2-3 s and 100 MB end to end (100,000 take 3 s and
# 150 MB)
MAX_TABLE_ENTRIES = 50_000
# realma measure nodes and values: 50,000 float nodes take about 3 s and
# 140 MB end to end in 2D (7 s with --tol's oracle at 1,000 slopes a side)
# and 1.3 s and 60 MB in 1D
MAX_MEASURE_NODES = 50_000
# realma solve masses: one per node of the largest solve (cli.MAX_SOLVE_GRID);
# reading and checking 100,000 takes about 1.5 s and 115 MB end to end
MAX_SOLVE_NODES = 100_000


def _no_duplicates(pairs):
    mapping = dict(pairs)
    if len(mapping) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(f"duplicate key {key!r} in configuration")
            seen.add(key)
    return mapping


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON value")


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_document(path):
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_no_duplicates,
                             parse_constant=_no_constant,
                             parse_float=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except ValueError as exc:       # json.JSONDecodeError, NaN, 1e400
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def check_keys(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown keys {unknown} in {context}; allowed: {sorted(allowed)}")


def require(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return mapping[key]


def bounded_list(value, cap, context):
    """``value``, which must be a list of at most ``cap`` entries."""
    if not isinstance(value, list):
        raise ConfigError(f"{context} must be a list")
    if len(value) > cap:
        raise ConfigError(f"{context} has {len(value)} entries; at most "
                          f"{cap} are allowed")
    return value


def rational(value, context):
    """Parse an exact rational: an int or a ``"p/q"`` string."""
    if isinstance(value, bool):
        raise ConfigError(f"{context} must be a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{context} is not a valid rational: {value!r}")
    if isinstance(value, float):
        raise ConfigError(
            f"{context} must be exact; write floats as \"p/q\" strings")
    raise ConfigError(f"{context} is not a rational: {value!r}")


def integer(value, context, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context} must be >= {minimum}, got {value}")
    return value


def divisor_id(key, context):
    try:
        return int(key)
    except ValueError:
        raise ConfigError(f"{context} key {key!r} is not a divisor id")


def id_list(value, context):
    if not isinstance(value, list):
        raise ConfigError(f"{context} must be a list of divisor ids")
    return [integer(v, f"{context} entry") for v in value]


def build_model_from_config(doc):
    """Assemble the divisor model from the parsed document."""
    n = integer(require(doc, "n", "model config"), "n", minimum=1)
    semistable = doc.get("semistable", False)
    if not isinstance(semistable, bool):
        raise ConfigError("semistable must be a boolean")
    raw_divisors = require(doc, "divisors", "model config")
    if not isinstance(raw_divisors, list) or not raw_divisors:
        raise ConfigError("divisors must be a nonempty list")
    divisors = []
    for k, entry in enumerate(raw_divisors):
        ctx = f"divisors[{k}]"
        check_keys(entry, {"id", "b", "a", "degrees"}, ctx)
        ident = integer(require(entry, "id", ctx), f"{ctx}.id")
        b = integer(entry.get("b", 1), f"{ctx}.b", minimum=1)
        a = rational(entry.get("a", 0), f"{ctx}.a")
        deg = entry.get("degrees")
        degree = rational(deg, f"{ctx}.degrees") if deg is not None else None
        divisors.append(Divisor(ident, b, a, degree=degree))
    raw_faces = require(doc, "faces", "model config")
    if not isinstance(raw_faces, list) or not raw_faces:
        raise ConfigError("faces must be a nonempty list")
    faces = [id_list(f, f"faces[{k}]") for k, f in enumerate(raw_faces)]
    return build_model(divisors, faces, n, semistable)


def build_table_from_config(entries, n):
    bounded_list(entries, MAX_TABLE_ENTRIES, "intersection_table")
    table = IntersectionTable(n)
    parsed = {}     # value string -> Fraction: tables repeat a few strings
    for k, entry in enumerate(entries):
        ctx = f"intersection_table[{k}]"
        check_keys(entry, TABLE_ENTRY_KEYS, ctx)
        lp = integer(require(entry, "L_power", ctx), f"{ctx}.L_power",
                     minimum=0)
        powers_raw = entry.get("divisor_powers", {})
        if not isinstance(powers_raw, dict):
            raise ConfigError(f"{ctx}.divisor_powers must be an object")
        powers = {}
        for key, val in powers_raw.items():
            ident = divisor_id(key, f"{ctx}.divisor_powers")
            powers[ident] = integer(val, f"{ctx}.divisor_powers[{key}]",
                                    minimum=1)
        stratum = id_list(entry.get("stratum", []), f"{ctx}.stratum")
        raw = require(entry, "value", ctx)
        if isinstance(raw, str):
            value = parsed.get(raw)
            if value is None:
                value = parsed[raw] = rational(raw, f"{ctx}.value")
        else:
            value = rational(raw, f"{ctx}.value")
        table.add(lp, powers, stratum, value)
    return table


def build_sections_from_config(entries, model):
    """Sections given by global exponent vectors over the sorted divisors.

    Each exponent vector is projected onto every face: coordinates of
    divisors absent from the face carry no valuation there.
    """
    if not isinstance(entries, list) or not entries:
        raise ConfigError("sections must be a nonempty list")
    order = [d.id for d in sorted(model.divisors, key=lambda d: d.id)]
    sections = []
    for k, entry in enumerate(entries):
        ctx = f"sections[{k}]"
        check_keys(entry, {"support", "norm_exp"}, ctx)
        raw = require(entry, "support", ctx)
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{ctx}.support must be a nonempty list")
        vectors = []
        for j, vec in enumerate(raw):
            if not isinstance(vec, list) or len(vec) != len(order):
                raise ConfigError(
                    f"{ctx}.support[{j}] needs one exponent per divisor "
                    f"({len(order)})")
            vectors.append([rational(e, f"{ctx}.support[{j}]") for e in vec])
        norm = rational(require(entry, "norm_exp", ctx), f"{ctx}.norm_exp")
        support = {}
        for face in model.faces:
            key = face.index_set
            pos = {i: order.index(i) for i in key}
            support[key] = tuple(tuple(vec[pos[i]] for i in key)
                                 for vec in vectors)
        sections.append(Section(support, norm))
    return sections


def coefficients_from_config(mapping, model):
    if not isinstance(mapping, dict):
        raise ConfigError("coefficients must map divisor ids to rationals")
    known = {d.id for d in model.divisors}
    out = {}
    for key, val in mapping.items():
        ident = divisor_id(key, "coefficients")
        if ident not in known:
            raise ConfigError(f"coefficients key {ident} is not a divisor")
        out[ident] = rational(val, f"coefficients[{key}]")
    missing = sorted(known - set(out))
    if missing:
        raise ConfigError(f"coefficients missing for divisors {missing}")
    return out


def face_key_from_string(text, context):
    """Parse face keys written ``"0,1"`` or as an id list."""
    if isinstance(text, list):
        return tuple(sorted(id_list(text, context)))
    if isinstance(text, str):
        try:
            return tuple(sorted(int(p) for p in text.split(",") if p != ""))
        except ValueError:
            raise ConfigError(f"{context} is not a face key: {text!r}")
    raise ConfigError(f"{context} is not a face key: {text!r}")


def model_face(model, key, context):
    """``model.face(key)``; a key that is not a face is an input error."""
    if not model.has_face(key):
        raise ConfigError(f"{context} {','.join(map(str, key))} is not a "
                          "face of the model")
    return model.face(key)


def validate_toplevel(doc):
    check_keys(doc, MODEL_KEYS | COMMAND_KEYS, "config document")


# ---------------------------------------------------------------------------
# command blocks


def model_bundle(doc, need_table=False):
    """Model, intersection table and coefficients (None when absent),
    from a ``cycle`` block or the model keys; a model or table the
    toolkit rejects is an input error, raised as :class:`ConfigError`."""
    table = coeffs = None
    try:
        if "cycle" in doc:
            block = doc["cycle"]
            check_keys(block, {"degrees", "coefficients"}, "cycle")
            raw = bounded_list(require(block, "degrees", "cycle"),
                               MAX_CYCLE_LENGTH, "cycle.degrees")
            degrees = [rational(d, "cycle.degrees") for d in raw]
            model = cycle_model(degrees)
            table = cycle_table(degrees)
            raw = require(block, "coefficients", "cycle")
            if isinstance(raw, list):
                raw = {str(i): c for i, c in enumerate(raw)}
            coeffs = coefficients_from_config(raw, model)
        else:
            model = build_model_from_config(doc)
            if "intersection_table" in doc:
                table = build_table_from_config(doc["intersection_table"],
                                                model.dimension)
            if "coefficients" in doc:
                coeffs = coefficients_from_config(doc["coefficients"], model)
        if table is not None:
            table.check_faces(model)
        if "sections" in doc:
            build_sections_from_config(doc["sections"], model)
    except (ToolkitError, ValueError) as exc:
        raise ConfigError(str(exc))
    if need_table and table is None:
        raise ConfigError("this command needs an intersection_table block")
    return model, table, coeffs


def parse_domain(doc):
    block = require(doc, "domain", "config")
    check_keys(block, {"interval", "box"}, "domain")
    try:
        if "interval" in block:
            lo, hi = block["interval"]
            return Interval(rational(lo, "interval"), rational(hi, "interval"))
        if "box" in block:
            (lo0, hi0), (lo1, hi1) = block["box"]
            return box_polygon(rational(lo0, "box"), rational(hi0, "box"),
                               rational(lo1, "box"), rational(hi1, "box"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid domain: {exc}")
    raise ConfigError("domain needs an interval or a box")


def target_from_config(doc, domain, nodes):
    """Target measure of a solve on ``nodes``: a constant ``density`` or
    node ``masses``, which :func:`~nama.realma.solve` checks."""
    if "density" in doc:
        density = rational(doc["density"], "density")
        target = TargetMeasure.from_density(domain, nodes, density)
    elif "masses" in doc:
        masses = {}
        raw = bounded_list(doc["masses"], MAX_SOLVE_NODES, "masses")
        for k, entry in enumerate(raw):
            ctx = f"masses[{k}]"
            check_keys(entry, {"node", "mass"}, ctx)
            nd = tuple(rational(c, "node")
                       for c in require(entry, "node", ctx))
            masses[nd] = rational(require(entry, "mass", ctx), "mass")
        try:
            target = TargetMeasure(masses)
        except ValueError as exc:
            raise ConfigError(f"invalid masses: {exc}")
    else:
        raise ConfigError("config needs a density or masses block")
    return target


def _quadratic(block, context, dim):
    """Symmetric A (zero when absent) and b of 1/2 x^T A x + b.x."""
    rows = block.get("quadratic")
    if rows is None:
        rows = [[0] * dim for _ in range(dim)]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ConfigError(f"{context}.quadratic must be {dim}x{dim}")
    A = [[rational(v, f"{context}.quadratic") for v in r] for r in rows]
    if any(A[i][j] != A[j][i] for i in range(dim) for j in range(dim)):
        raise ConfigError(f"{context}.quadratic must be symmetric")
    lin = block.get("linear", [0] * dim)
    if len(lin) != dim:
        raise ConfigError(f"{context}.linear needs {dim} entries")
    return A, [rational(v, f"{context}.linear") for v in lin]


def quadratic_gradient(block, context, dim):
    """Gradient function of 1/2 x^T A x + b.x from a config block."""
    check_keys(block, {"quadratic", "linear"}, context)
    A, b = _quadratic(block, context, dim)

    def grad(x):
        x = list(x)
        return tuple(sum(A[i][j] * x[j] for j in range(dim)) + b[i]
                     for i in range(dim))

    return grad


def boundary_values(doc, dim):
    """Dirichlet data c + b.x + x.Ax/2 as a function of a node, which
    :func:`~nama.realma.solve` calls at the boundary nodes it finds."""
    block = require(doc, "boundary", "config")
    check_keys(block, {"quadratic", "linear", "constant"}, "boundary")
    A, b = _quadratic(block, "boundary", dim)
    const = rational(block.get("constant", 0), "boundary.constant")

    def value(x):
        quad = sum(A[i][j] * x[i] * x[j] for i in range(dim)
                   for j in range(dim))
        return const + sum(l * c for l, c in zip(b, x)) + quad / 2

    return value


def convex_pl_from_config(doc, domain):
    """The function given by ``nodes`` and ``values``; floats stay floats."""
    raw_nodes = bounded_list(require(doc, "nodes", "config"),
                             MAX_MEASURE_NODES, "nodes")
    raw_values = bounded_list(require(doc, "values", "config"),
                              MAX_MEASURE_NODES, "values")
    if len(raw_nodes) != len(raw_values):
        raise ConfigError("nodes and values must have equal length")

    def coord(v, ctx):
        if isinstance(v, float):
            if not math.isfinite(v):
                raise ConfigError(f"{ctx} must be finite, got {v}")
            return v
        return rational(v, ctx)

    nodes = [tuple(coord(c, "nodes") for c in nd) for nd in raw_nodes]
    values = [coord(v, "values") for v in raw_values]
    try:
        return ConvexPL(domain, nodes, values)
    except ValueError as exc:
        raise ConfigError(f"invalid nodes or values: {exc}")


def face_potential_from_config(doc, model):
    """Face key and constant-data potential of the ``potential`` block."""
    block = require(doc, "potential", "config")
    check_keys(block, {"face", "gradients", "hessian"}, "potential")
    key = face_key_from_string(require(block, "face", "potential"),
                               "potential.face")
    grads = {divisor_id(k, "potential.gradients"):
             rational(v, "potential.gradients")
             for k, v in require(block, "gradients", "potential").items()}
    p = model_face(model, key, "potential.face").dim
    rows = block.get("hessian", [])
    if len(rows) != p or any(len(r) != p for r in rows):
        raise ConfigError(f"potential.hessian must be {p}x{p}")
    hess = [[rational(v, "potential.hessian") for v in r] for r in rows]
    return key, FacePotential(gradient=lambda x: grads,
                              hessian=lambda x: hess)


def residues_from_config(doc, model, key):
    """Residue weights on faces of ``model``, one of them on face ``key``."""
    block = require(doc, "residues", "config")
    if not isinstance(block, dict):
        raise ConfigError("residues must map face keys to weights")
    weights = {}
    for k, v in block.items():
        face = face_key_from_string(k, "residues")
        model_face(model, face, "residues face")
        weights[face] = rational(v, f"residues[{k}]")
    if key not in weights:
        raise ConfigError(f"residues has no weight for the potential's face "
                          f"{','.join(map(str, key))}")
    try:
        residues = ResidueData(weights)
        residues.validate_uniform(model)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return residues


def matching_from_config(doc, model):
    """Transition map, both gradients and the wall points of a matching."""
    block = require(doc, "matching", "config")
    check_keys(block, {"face_a", "face_b", "degrees", "a", "b",
                       "wall_points"}, "matching")
    fa = face_key_from_string(require(block, "face_a", "matching"),
                              "matching.face_a")
    fb = face_key_from_string(require(block, "face_b", "matching"),
                              "matching.face_b")
    degs = {divisor_id(k, "matching.degrees"):
            integer(v, "matching.degrees")
            for k, v in require(block, "degrees", "matching").items()}
    transition = transition_between(model, fa, fb, degs)
    n = transition.dim
    ga = quadratic_gradient(require(block, "a", "matching"), "matching.a", n)
    gb = quadratic_gradient(require(block, "b", "matching"), "matching.b", n)
    pts = [tuple(rational(c, "wall_points") for c in w)
           for w in require(block, "wall_points", "matching")]
    return transition, ga, gb, pts


def mass_audit_from_config(doc, model, table):
    """Face terms, atomic masses and expected total of a mass audit."""
    terms = []
    for k, entry in enumerate(require(doc, "mass_terms", "config")):
        ctx = f"mass_terms[{k}]"
        check_keys(entry, {"face", "density"}, ctx)
        key = face_key_from_string(require(entry, "face", ctx), ctx)
        model_face(model, key, f"{ctx}.face")
        dens = rational(require(entry, "density", ctx), ctx)
        terms.append(FaceMassTerm.from_constant(model, key, dens))
    atomic = [rational(v, "atomic") for v in doc.get("atomic", [])]
    if "expected" in doc:
        expected = rational(doc["expected"], "expected")
    elif table is not None:
        expected = table.top_self_intersection()
    else:
        raise ConfigError("mass needs expected or an intersection_table")
    return terms, atomic, expected


def symmetric_matrix(path):
    """A square symmetric matrix from a CSV file (``--hessian``)."""
    try:
        h = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read matrix from {path}: {exc}")
    if h.shape[0] != h.shape[1]:
        raise ConfigError(f"matrix in {path} is {h.shape[0]}x{h.shape[1]}, "
                          "not square")
    if not np.array_equal(h, h.T):
        raise ConfigError(f"matrix in {path} is not symmetric")
    return h
