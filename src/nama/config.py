"""Strict configuration parsing for the command line layer.

Documents are JSON with a rigid schema: unknown keys are rejected at every
level, duplicate keys are rejected at parse time, and all rational numbers
are serialized as ``"p/q"`` strings (plain integers are also accepted).
Floats are only allowed where a quantity is genuinely numerical (never for
multiplicities, masses, or intersection numbers).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np

from .comparison import (FaceMassTerm, FacePotential, ResidueData,
                         cycle_model, cycle_table, transition_between)
from .errors import ConfigError, ToolkitError
from .potential import IntersectionTable
from .realma import ConvexPL, Interval, TargetMeasure, box_polygon
from .skeleton import Divisor, build_model

# the keys of a model document, which a cycle block builds instead
MODEL_KEYS = frozenset({"n", "semistable", "divisors", "faces",
                        "intersection_table", "coefficients"})
TABLE_ENTRY_KEYS = {"L_power", "divisor_powers", "stratum", "value"}
# cycle.degrees: a cycle costs about 3.5 KB of memory per component;
# compare vilsmeier at 20,000 takes about 5 s and 100 MB end to end
# (30,000 takes 7 s and 140 MB)
MAX_CYCLE_LENGTH = 20_000
# a model's degrees, table values and coefficients: the bits of their
# denominators in all, which bound the bits of the lcm that the exact sums
# over the components carry.  On cycles of random odd p/q in degrees and
# coefficients, at 256,000 to 260,000 such bits, compare vilsmeier takes
# 1.3-3.4 s end to end on a 2-core host (250 components of 512 bits 2.4 s,
# 6,500 of 20 bits 3.4 s, 13,000 of 10 bits 1.3 s) and namma 3.0 s;
# 400,000 bits take 8.4 s (10,000 of 20 bits), 512,000 7.6 s (250 of
# 1,024), and namma on a model document with 1,000 coefficients of 1,024
# bits 34 s
MAX_DENOMINATOR_BITS = 1 << 18
# intersection_table: about 1.2 KB per entry; model validate on 50,000
# entries takes about 2-3 s and 100 MB end to end (100,000 take 3 s and
# 150 MB)
MAX_TABLE_ENTRIES = 50_000
# model divisors and faces: 20,000 divisors and 50,000 faces (a triangle
# strip at n = 2) take about 1.2 s and 70 MB end to end in model validate
# and 1.4 s in model skeleton (40,000 and 100,000 take 1.5 s and 2.7 s,
# 107 MB; a 100,000-divisor chain 3-5 s and 190 MB)
MAX_MODEL_DIVISORS = 20_000
MAX_MODEL_FACES = 50_000
# realma measure nodes and values: 50,000 float nodes take about 3 s and
# 140 MB end to end in 2D (22 s with --tol's oracle at 1,000 slopes a side
# on a jittered 223 x 223 grid) and 1.3 s and 60 MB in 1D
MAX_MEASURE_NODES = 50_000
# realma solve --grid by dimension: 100,000 nodes take about 30 s and
# 180 MB end to end in 1D, 65x65 about 3 s and 91 MB in 2D (129x129 takes
# 11-15 s but 175 MB, past that envelope, and 257x257 86 s and 700 MB)
MAX_SOLVE_GRID = {1: 100_000, 2: 65}
# realma solve masses: one per node of the largest solve; reading and
# checking 100,000 takes about 1.5 s and 115 MB end to end
MAX_SOLVE_NODES = max(MAX_SOLVE_GRID[1], MAX_SOLVE_GRID[2] ** 2)
# compare lowerface/pde resolution: a face of dimension d walks
# (resolution + 1)^d grid points; 50,000 on the segment take about 2.7 s
# and 60 MB end to end (100,000 take 6 s and 90 MB)
MAX_FACE_GRID = 50_000
# numerator and denominator bits of a config rational: realma measure on a
# 9 x 9 lattice with values i^2/64 + j^2/64 + 1/d, d an odd 1,024-bit int
# per node, takes 1.9-2.9 s and 70 MB end to end (2,048 bits 5.5-7.3 s;
# 17 x 17 at 1,024 bits 18-19 s)
MAX_RATIONAL_BITS = 1024


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
    """The parsed UTF-8 JSON document at ``path`` and the SHA-256 digest
    of its bytes, which the manifest names it by; the file is read once."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data.decode("utf-8"),
                         object_pairs_hook=_no_duplicates,
                         parse_constant=_no_constant, parse_float=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except ValueError as exc:   # UnicodeDecodeError, JSONDecodeError, 1e400
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return doc, hashlib.sha256(data).hexdigest()


def json_object(value, context):
    """``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be an object")
    return value


def check_keys(mapping, allowed, context):
    unknown = sorted(set(json_object(mapping, context)) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown keys {unknown} in {context}; allowed: {sorted(allowed)}")


def require(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return mapping[key]


def json_list(value, context):
    """``value``, which must be a JSON list."""
    if not isinstance(value, list):
        raise ConfigError(f"{context} must be a list")
    return value


def bounded_list(value, cap, context):
    """``value``, which must be a list of at most ``cap`` entries."""
    if len(json_list(value, context)) > cap:
        raise ConfigError(f"{context} has {len(value)} entries; at most "
                          f"{cap} are allowed")
    return value


# "p/q" or an int in ASCII digits after an optional sign, the groups without
# leading zeros; Fraction() also reads "1e9999999", which costs 10^9999999
RATIONAL = re.compile(r"([-+]?)0*([0-9]+)(?:/0*([1-9][0-9]*))?")


def rational(value, context):
    """Parse an exact rational: an int or a ``"p/q"`` string, whose
    numerator and denominator have at most MAX_RATIONAL_BITS bits."""
    if isinstance(value, bool):
        raise ConfigError(f"{context} must be a rational, got a boolean")
    if isinstance(value, float):
        raise ConfigError(
            f"{context} must be exact; write floats as \"p/q\" strings")
    if isinstance(value, str):
        match = RATIONAL.fullmatch(value)
        if not match:
            raise ConfigError(f"{context} is not a valid rational: {value!r}")
        sign, num, den = match.groups("1")
        for part, digits in (("numerator", num), ("denominator", den)):
            # d digits make at least d bits: a longer part is past the cap
            # before int() reads it (int() refuses more than 4,300 digits)
            if len(digits) > MAX_RATIONAL_BITS:
                raise ConfigError(
                    f"{context} has a {len(digits)}-digit {part}; at most "
                    f"{MAX_RATIONAL_BITS} bits are allowed")
        value = Fraction(int(sign + num), int(den))
    elif not isinstance(value, int):
        raise ConfigError(f"{context} is not a rational: {value!r}")
    for part, n in (("numerator", value.numerator),
                    ("denominator", value.denominator)):
        if n.bit_length() > MAX_RATIONAL_BITS:
            raise ConfigError(
                f"{context} has a {n.bit_length()}-bit {part}; at most "
                f"{MAX_RATIONAL_BITS} bits are allowed")
    return Fraction(value)


def bounded_denominators(values, context):
    """The rationals ``values``, whose denominators have at most
    MAX_DENOMINATOR_BITS bits in all."""
    bits = sum(v.denominator.bit_length() for v in values)
    if bits > MAX_DENOMINATOR_BITS:
        raise ConfigError(
            f"{context} have {bits} bits of denominators; at most "
            f"{MAX_DENOMINATOR_BITS} are allowed")
    return values


def integer(value, context, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context} must be >= {minimum}, got {value}")
    return value


# a divisor id is ASCII digits after an optional minus sign; int() also
# reads "+1", " 1", "1_0" and other scripts' digits
DIVISOR_ID = re.compile(r"-?[0-9]+")


def divisor_id(key, context):
    try:
        if DIVISOR_ID.fullmatch(key):
            return int(key)
    except ValueError:      # past int()'s digit limit
        pass
    raise ConfigError(f"{context} key {key!r} is not a divisor id")


def divisor_keys(mapping, context):
    """The JSON object ``mapping`` keyed by divisor id; two keys that name
    one id, as ``"1"`` and ``"01"`` do, are an input error."""
    named = {}
    for key in json_object(mapping, context):
        first = named.setdefault(divisor_id(key, context), key)
        if first != key:
            raise ConfigError(f"{context} keys {first!r} and {key!r} both "
                              f"name divisor {int(key)}")
    return {ident: mapping[key] for ident, key in named.items()}


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
    raw_divisors = bounded_list(require(doc, "divisors", "model config"),
                                MAX_MODEL_DIVISORS, "divisors")
    if not raw_divisors:
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
    raw_faces = bounded_list(require(doc, "faces", "model config"),
                             MAX_MODEL_FACES, "faces")
    if not raw_faces:
        raise ConfigError("faces must be a nonempty list")
    faces = [id_list(f, f"faces[{k}]") for k, f in enumerate(raw_faces)]
    return build_model(divisors, faces, n, semistable)


def build_table_from_config(entries, n):
    """The intersection table of a config's entries, each parsed straight
    to its canonical key (int ids, pairs and stratum sorted by id, no id
    twice) for ``IntersectionTable.insert``.  Each check tests the plain
    JSON types first and calls its helper only when the test fails, so a
    valid entry builds no context string and an invalid one gets the
    helper's message; each distinct power key is read once."""
    bounded_list(entries, MAX_TABLE_ENTRIES, "intersection_table")
    table = IntersectionTable(n)
    parsed = {}     # value string or int -> Fraction: tables repeat a few
    ids = {}        # divisor_powers key -> divisor id, likewise
    for k, entry in enumerate(entries):
        if type(entry) is not dict or not entry.keys() <= TABLE_ENTRY_KEYS:
            check_keys(entry, TABLE_ENTRY_KEYS, f"intersection_table[{k}]")
        lp = entry.get("L_power")
        if type(lp) is not int or lp < 0:
            ctx = f"intersection_table[{k}]"
            lp = integer(require(entry, "L_power", ctx), f"{ctx}.L_power",
                         minimum=0)
        raw = entry.get("divisor_powers", {})
        if type(raw) is not dict:
            raw = json_object(raw, f"intersection_table[{k}].divisor_powers")
        powers = []
        for key, val in raw.items():
            ident = ids.get(key)
            if ident is None:
                ident = ids[key] = divisor_id(
                    key, f"intersection_table[{k}].divisor_powers")
            if type(val) is not int or val < 1:
                val = integer(val, f"intersection_table[{k}].divisor_powers"
                              f"[{key}]", minimum=1)
            powers.append((ident, val))
        if len(powers) > 1:
            powers.sort()
            if len({i for i, _ in powers}) < len(powers):   # raises
                divisor_keys(raw, f"intersection_table[{k}].divisor_powers")
        stratum = entry.get("stratum", [])
        for i in stratum if type(stratum) is list else (None,):
            if type(i) is not int:      # id_list raises its message
                id_list(stratum, f"intersection_table[{k}].stratum")
        if len(stratum) > 1:
            stratum = sorted(stratum)
            if len(set(stratum)) < len(stratum):
                raise ConfigError(f"intersection_table[{k}].stratum repeats "
                                  f"a divisor id: {entry['stratum']}")
        raw = entry.get("value")
        value = parsed.get(raw) if type(raw) in (str, int) else None
        if value is None:   # rational takes only a str or an int
            ctx = f"intersection_table[{k}]"
            value = parsed[raw] = rational(require(entry, "value", ctx),
                                           f"{ctx}.value")
        table.insert((lp, tuple(powers), tuple(stratum)), value)
    return table


def coefficients_from_config(mapping, model):
    if not isinstance(mapping, dict):
        raise ConfigError("coefficients must map divisor ids to rationals")
    known = {d.id for d in model.divisors}
    out = {}
    for ident, val in divisor_keys(mapping, "coefficients").items():
        if ident not in known:
            raise ConfigError(f"coefficients key {ident} is not a divisor")
        out[ident] = rational(val, f"coefficients[{ident}]")
    missing = sorted(known - set(out))
    if missing:
        raise ConfigError(f"coefficients missing for divisors {missing}")
    return out


def face_key_from_string(text, context):
    """Parse face keys written ``"0,1"``, each part a divisor id (``""``
    is the empty face), or as an id list."""
    if isinstance(text, list):
        return tuple(sorted(id_list(text, context)))
    try:        # AttributeError: not a string; ValueError: past int()'s limit
        if text == "" or all(DIVISOR_ID.fullmatch(p)
                             for p in text.split(",")):
            return tuple(sorted(int(p) for p in text.split(",") if p))
    except (AttributeError, ValueError):
        pass
    raise ConfigError(f"{context} is not a face key: {text!r}")


def model_face(model, key, context):
    """``model.face(key)``; a key that is not a face is an input error."""
    if not model.has_face(key):
        raise ConfigError(f"{context} {','.join(map(str, key))} is not a "
                          "face of the model")
    return model.face(key)


# ---------------------------------------------------------------------------
# command blocks


def model_bundle(doc, need_table=False):
    """Model, intersection table and coefficients (None when absent),
    from a ``cycle`` block or the model keys, not both; a model or table the
    toolkit rejects is an input error, raised as :class:`ConfigError`."""
    table = coeffs = None
    given = ()          # the table's values, when the document gives them
    overridden = sorted(doc.keys() & MODEL_KEYS)
    if "cycle" in doc and overridden:
        raise ConfigError(f"cycle builds the model and its table; drop the "
                          f"model keys {overridden}")
    try:
        if "cycle" in doc:
            block = doc["cycle"]
            check_keys(block, {"degrees", "coefficients"}, "cycle")
            raw = bounded_list(require(block, "degrees", "cycle"),
                               MAX_CYCLE_LENGTH, "cycle.degrees")
            degrees = bounded_denominators(
                [rational(d, "cycle.degrees") for d in raw], "cycle.degrees")
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
                given = table.values()
            if "coefficients" in doc:
                coeffs = coefficients_from_config(doc["coefficients"], model)
        bounded_denominators([*(d.degree for d in model.divisors
                                if d.degree is not None), *given,
                              *(coeffs or {}).values()],
                             "the degrees, table values and coefficients")
        if table is not None:
            table.check_faces(model)
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
    if "density" in doc and "masses" in doc:
        raise ConfigError("the target is a density or masses, not both")
    if "density" in doc:
        density = rational(doc["density"], "density")
        return TargetMeasure.from_density(domain, nodes, density)
    if "masses" not in doc:
        raise ConfigError("config needs a density or masses block")
    masses = {}
    for k, entry in enumerate(bounded_list(doc["masses"], MAX_SOLVE_NODES,
                                           "masses")):
        ctx = f"masses[{k}]"
        check_keys(entry, {"node", "mass"}, ctx)
        nd = tuple(rational(c, "node")
                   for c in json_list(require(entry, "node", ctx),
                                      f"{ctx}.node"))
        masses[nd] = rational(require(entry, "mass", ctx), "mass")
    try:
        return TargetMeasure(masses)
    except ValueError as exc:
        raise ConfigError(f"invalid masses: {exc}")


def square_matrix(rows, dim, context):
    """The rational ``dim`` x ``dim`` matrix given by a list of rows."""
    if not isinstance(rows, list) or len(rows) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in rows):
        raise ConfigError(f"{context} must be {dim}x{dim}")
    return [[rational(v, context) for v in r] for r in rows]


def _quadratic(block, context, dim):
    """Symmetric A (zero when absent) and b of 1/2 x^T A x + b.x."""
    rows = block.get("quadratic")
    if rows is None:
        rows = [[0] * dim for _ in range(dim)]
    A = square_matrix(rows, dim, f"{context}.quadratic")
    if any(A[i][j] != A[j][i] for i in range(dim) for j in range(dim)):
        raise ConfigError(f"{context}.quadratic must be symmetric")
    lin = block.get("linear", [0] * dim)
    if not isinstance(lin, list) or len(lin) != dim:
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

    nodes = [tuple(coord(c, "nodes") for c in json_list(nd, "nodes entry"))
             for nd in raw_nodes]
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
    grads = {i: rational(v, "potential.gradients")
             for i, v in divisor_keys(require(block, "gradients", "potential"),
                                      "potential.gradients").items()}
    p = model_face(model, key, "potential.face").dim
    hess = square_matrix(block.get("hessian", []), p, "potential.hessian")
    return key, FacePotential(gradient=lambda x: grads,
                              hessian=lambda x: hess)


def face_resolution(doc, key):
    """The ``resolution`` of face ``key``'s grid (2 when absent): a face of
    dimension d walks (resolution + 1)^d points, at most MAX_FACE_GRID."""
    resolution = integer(doc.get("resolution", 2), "resolution", minimum=1)
    walked = (min(resolution, MAX_FACE_GRID) + 1) ** max(len(key) - 1, 1)
    if walked > MAX_FACE_GRID:
        raise ConfigError(
            f"resolution {resolution} walks more than {MAX_FACE_GRID} grid "
            f"points of face {','.join(map(str, key))}")
    return resolution


def expected_value(doc):
    """The rational that ``expected`` pins, or None when it is absent."""
    return rational(doc["expected"], "expected") if "expected" in doc \
        else None


def residues_from_config(doc, model, key):
    """Residue weights on faces of ``model``, one of them on face ``key``."""
    block = require(doc, "residues", "config")
    if not isinstance(block, dict):
        raise ConfigError("residues must map face keys to weights")
    weights, named = {}, {}
    for k, v in block.items():
        face = face_key_from_string(k, "residues")
        first = named.setdefault(face, k)
        if first != k:
            raise ConfigError(f"residues keys {first!r} and {k!r} both name "
                              f"face {','.join(map(str, face))}")
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
    degs = {i: integer(v, "matching.degrees")
            for i, v in divisor_keys(require(block, "degrees", "matching"),
                                     "matching.degrees").items()}
    transition = transition_between(model, fa, fb, degs)
    n = transition.dim
    ga = quadratic_gradient(require(block, "a", "matching"), "matching.a", n)
    gb = quadratic_gradient(require(block, "b", "matching"), "matching.b", n)
    pts = [tuple(rational(c, "wall_points")
                 for c in json_list(w, "wall_points entry"))
           for w in json_list(require(block, "wall_points", "matching"),
                              "matching.wall_points")]
    return transition, ga, gb, pts


def mass_audit_from_config(doc, model, table):
    """Face terms, atomic masses and expected total of a mass audit."""
    terms = []
    for k, entry in enumerate(json_list(require(doc, "mass_terms", "config"),
                                        "mass_terms")):
        ctx = f"mass_terms[{k}]"
        check_keys(entry, {"face", "density"}, ctx)
        key = face_key_from_string(require(entry, "face", ctx), ctx)
        model_face(model, key, f"{ctx}.face")
        dens = rational(require(entry, "density", ctx), ctx)
        terms.append(FaceMassTerm.from_constant(model, key, dens))
    atomic = [rational(v, "atomic")
              for v in json_list(doc.get("atomic", []), "atomic")]
    expected = expected_value(doc)
    if expected is None:
        if table is None:
            raise ConfigError("mass needs expected or an intersection_table")
        expected = table.top_self_intersection()
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
