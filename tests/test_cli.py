"""End-to-end tests of the command line interface, run in process."""

import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import random
import warnings
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nama import ConvexPL, box_polygon, cli, config, ma_measure, solve
from nama import skeleton
from nama.cli import (MAX_CALABI_N, MAX_FORM_DIM, MAX_GCALABI_DIM,
                      MAX_HYBRID_N, MAX_ORACLE_GRID, MAX_POLY_TERMS,
                      MAX_SAMPLE_COORDS, MAX_T_EXPONENTS, build_parser, main)
from nama.config import MAX_FACE_GRID, MAX_SOLVE_GRID
from nama.errors import ConfigError

SEGMENT_TABLE = [
    {"L_power": 1, "divisor_powers": {}, "stratum": [], "value": "2"},
    {"L_power": 1, "divisor_powers": {}, "stratum": [0], "value": "1"},
    {"L_power": 1, "divisor_powers": {}, "stratum": [1], "value": "1"},
    {"L_power": 0, "divisor_powers": {}, "stratum": [0, 1], "value": "1"},
    {"L_power": 0, "divisor_powers": {"0": 1}, "stratum": [0],
     "value": "-1"},
    {"L_power": 0, "divisor_powers": {"1": 1}, "stratum": [0], "value": "1"},
    {"L_power": 0, "divisor_powers": {"0": 1}, "stratum": [1], "value": "1"},
    {"L_power": 0, "divisor_powers": {"1": 1}, "stratum": [1],
     "value": "-1"},
]

SEGMENT_MODEL = {
    "n": 1,
    "semistable": True,
    "divisors": [{"id": 0}, {"id": 1}],
    "faces": [[0], [1], [0, 1]],
    "intersection_table": SEGMENT_TABLE,
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_manifest(out_dir):
    """The manifest, read with NaN and Infinity refused."""
    def refuse(name):
        raise ValueError(f"{name} in a manifest")

    with open(out_dir / "manifest.json") as fh:
        return json.load(fh, parse_constant=refuse)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_model_validate_reports_relations(tmp_path):
    cfg = write_config(tmp_path, SEGMENT_MODEL)
    out = tmp_path / "out"
    assert main(["model", "validate", cfg, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["command"] == "model validate"
    assert manifest["passed"] is True
    assert manifest["outputs"] == ["model_validate.csv"]
    assert manifest["summary"]["divisors"] == 2
    assert manifest["options"]["config_sha256"] == hashlib.sha256(
        open(cfg, "rb").read()).hexdigest()


def test_model_skeleton_emits_the_flat_measure(tmp_path):
    cfg = write_config(tmp_path, SEGMENT_MODEL)
    out = tmp_path / "out"
    assert main(["model", "skeleton", cfg, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["summary"]["skeleton_dim"] == 1
    assert manifest["summary"]["is_maximal"] is True
    assert manifest["summary"]["total_mass"] == "1"
    assert (out / "skeleton.csv").exists()


def test_namma_writes_exact_masses(tmp_path):
    doc = dict(SEGMENT_MODEL, coefficients={"0": "0", "1": "1/4"})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["namma", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "namma.csv")
    assert rows[0] == ["divisor", "coefficient", "mass"]
    masses = {row[0]: row[2] for row in rows[1:]}
    assert masses == {"0": "5/4", "1": "3/4"}
    manifest = read_manifest(out)
    assert manifest["summary"]["total"] == "2"
    assert manifest["summary"]["expected"] == "2"


def test_realma_solve_converges_on_the_unit_square(tmp_path):
    doc = {"domain": {"box": [[0, 1], [0, 1]]},
           "density": 1,
           "boundary": {"quadratic": [[1, 0], [0, 1]]}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["realma", "solve", cfg, "--grid", "5",
                 "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["summary"]["converged"] is True
    assert manifest["summary"]["residual"] < 1e-8
    assert (out / "solution.csv").exists()


def test_a_failed_solve_writes_its_convergence_history(tmp_path):
    # no iterate reaches residual 0: the run exits 2, and its --out shows
    # every evaluation, one row per history entry
    doc = {"domain": {"box": [[0, 1], [0, 1]]}, "density": 1,
           "boundary": {"quadratic": [[4, 1], [1, "1/4"]]}}
    argv = ["realma", "solve", write_config(tmp_path, doc), "--grid", "5",
            "--tol", "0", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    first = (tmp_path / "out" / "convergence.csv").read_bytes()
    assert main(argv) == 2
    assert (tmp_path / "out" / "convergence.csv").read_bytes() == first
    domain = config.parse_domain(doc)
    nodes = cli.grid_nodes(domain, 5)
    result = solve(domain, config.target_from_config(doc, domain, nodes),
                   config.boundary_values(doc, 2), nodes=nodes, tol=0.0)
    assert not result.converged
    assert read_csv(tmp_path / "out" / "convergence.csv") == [
        ["evaluation", "verdict", "tau", "residual", "min_mass"]] + [
        [str(k), e.verdict, cli.fmt(e.tau), repr(e.residual),
         repr(e.min_mass)] for k, e in enumerate(result.history, 1)]
    manifest = read_manifest(tmp_path / "out")
    assert manifest["outputs"] == ["convergence.csv", "solution.csv"]
    assert manifest["summary"]["iterations"] == len(result.history)


def test_realma_solve_on_a_non_dyadic_grid(tmp_path):
    # step 1/10: the boundary nodes are not floats, the solve must still
    # find and keep them
    doc = {"domain": {"box": [[0, 1], [0, 1]]},
           "density": 1,
           "boundary": {"quadratic": [[1, 0], [0, 1]]}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["realma", "solve", cfg, "--grid", "11",
                 "--out", str(out)]) == 0
    summary = read_manifest(out)["summary"]
    assert summary["converged"] is True and summary["interior_nodes"] == 81
    assert isinstance(summary["cell_fallbacks"], int)
    with open(out / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 121
    for row in rows:
        x, y = float(row["node_x0"]), float(row["node_x1"])
        assert abs(float(row["value"]) - (x * x + y * y) / 2) < 1e-9


def test_realma_measure_locates_the_kink_mass(tmp_path):
    doc = {"domain": {"interval": [0, 1]},
           "nodes": [[0], ["1/2"], [1]],
           "values": [0, "-1/8", 0]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["realma", "measure", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "measure.csv")
    assert rows[0] == ["node_x0", "value", "mass"]
    masses = {row[0]: row[-1] for row in rows[1:]}
    assert masses["1/2"] == "1/2"
    manifest = read_manifest(out)
    assert manifest["summary"]["total_mass"] == "1/2"
    assert manifest["summary"]["degenerate"] is False


def test_realma_measure_writes_rationals_past_the_int_digit_limit(tmp_path):
    # x^2 + y^2 + 1/d, d an odd 1,021-bit integer per node, at the centre
    # of [-1, 1]^2 and at 16 nodes on its boundary: the centre's mass has a
    # numerator and a denominator of about 8,000 digits each, past the
    # 4,300 that str writes of an int
    rnd = random.Random(0)
    side = [F(k, 2) for k in range(-2, 3)]
    nodes = [(F(0), F(0))] + [(x, y) for x in side for y in side
                              if abs(x) == 1 or abs(y) == 1]
    values = [x * x + y * y + F(1, rnd.getrandbits(1021) | 1 | 1 << 1020)
              for x, y in nodes]
    doc = {"domain": {"box": [[-1, 1], [-1, 1]]},
           "nodes": [[str(x), str(y)] for x, y in nodes],
           "values": [str(v) for v in values]}
    out = tmp_path / "out"
    assert main(["realma", "measure", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    row, = (r for r in read_csv(out / "measure.csv") if r[:2] == ["0", "0"])
    num, den = row[-1].split("/")
    assert len(num) > 4300 and len(den) > 4300
    assert F(int(Decimal(num)), int(Decimal(den))) == ma_measure(
        ConvexPL(box_polygon(-1, 1, -1, 1), nodes, values)).masses[0]
    assert read_manifest(out)["passed"] is True


def test_realma_measure_takes_a_float_node_on_a_rational_edge(tmp_path):
    # 0.3333333333333333 is below 1/3, and within rounding of the edge
    doc = {"domain": {"box": [["1/3", 1], [0, 1]]},
           "nodes": [["1/3", 0], [1, 0], [1, 1], ["1/3", 1],
                     [1 / 3, 0.5], [0.75, 0.5]],
           "values": [0, 0, 0, 0, -0.5, -1]}
    out = tmp_path / "out"
    assert main(["realma", "measure", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    masses = {tuple(row[:2]): row[-1] for row in read_csv(
        out / "measure.csv")[1:]}
    assert masses[("0.3333333333333333", "0.5")] == "0"
    assert float(masses[("0.75", "0.5")]) > 0
    assert read_manifest(out)["summary"]["total_mass"] == float(
        masses[("0.75", "0.5")])


def test_compare_vilsmeier_masses_on_a_cycle(tmp_path):
    doc = {"cycle": {"degrees": [1, 2, 1],
                     "coefficients": [0, "1/2", "1/3"]}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", "vilsmeier", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "compare_vilsmeier.csv")
    masses = [row[2] for row in rows[1:]]
    assert masses[:3] == ["11/6", "4/3", "5/6"]


def test_compare_mode_flag_and_positional_must_agree(tmp_path):
    # the mode is the positional alone: no mode is an input error
    doc = {"cycle": {"degrees": [1, 1, 1], "coefficients": [0, 0, 0]}}
    cfg = write_config(tmp_path, doc)
    assert main(["compare", cfg, "--out", str(tmp_path / "out")]) == 1


def test_compare_lowerface_checks_the_expected_density(tmp_path):
    doc = dict(SEGMENT_MODEL,
               potential={"face": "0", "gradients": {"0": 0, "1": 0},
                          "hessian": []},
               expected=1)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", "lowerface", cfg, "--out", str(out)]) == 0

    doc["expected"] = 2
    cfg2 = write_config(tmp_path, doc, "bad.json")
    out2 = tmp_path / "out2"
    assert main(["compare", "lowerface", cfg2, "--out", str(out2)]) == 2
    manifest = read_manifest(out2)
    assert manifest["passed"] is False
    assert "failure" in manifest["summary"]


def test_compare_pde_residual_on_the_segment(tmp_path):
    doc = dict(SEGMENT_MODEL,
               potential={"face": "0,1", "gradients": {"0": 0, "1": 0},
                          "hessian": [[2]]},
               residues={"0,1": 1})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", "pde", cfg, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["summary"]["rhs"] == "2"
    assert manifest["summary"]["max_residual"] == pytest.approx(0.0)


def test_compare_matching_accepts_a_transported_potential(tmp_path):
    doc = {
        "n": 2,
        "semistable": True,
        "divisors": [{"id": k} for k in range(4)],
        "faces": [[0], [1], [2], [3],
                  [0, 1], [0, 2], [1, 2], [1, 3], [2, 3],
                  [0, 1, 2], [1, 2, 3]],
        "matching": {
            "face_a": "0,1,2",
            "face_b": "1,2,3",
            "degrees": {"1": 2},
            "a": {"quadratic": [[1, 0], [0, 2]], "linear": [0, "1/3"]},
            "b": {"quadratic": [[9, 4], [4, 2]],
                  "linear": ["2/3", "1/3"]},
            "wall_points": [[0], ["1/4"], ["1/2"]],
        },
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", "matching", cfg, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["summary"]["max_residual"] == pytest.approx(0.0)

    doc["matching"]["b"]["linear"] = ["2/3", "2/3"]
    cfg2 = write_config(tmp_path, doc, "bad.json")
    assert main(["compare", "matching", cfg2,
                 "--out", str(tmp_path / "out2")]) == 2


def test_compare_mass_balances_the_segment(tmp_path):
    doc = {
        "n": 1,
        "semistable": True,
        "divisors": [{"id": 0}, {"id": 1}],
        "faces": [[0], [1], [0, 1]],
        "mass_terms": [{"face": "0,1", "density": 2}],
        "expected": 2,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", "mass", cfg, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["summary"]["discrepancy"] == "0"


def test_hybrid_pushforward_runs_a_small_batch(tmp_path):
    out = tmp_path / "out"
    code = main(["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
                 "--samples", "4000", "--out", str(out)])
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["summary"]["statistic"] == "dyadic-cells"
    assert manifest["summary"]["distance"] >= 0.0
    assert (out / "histogram.csv").exists()


def test_hybrid_pushforward_reaches_the_cell_cap_at_depth_16(tmp_path):
    # 2^16 cells, each volume read off its index sum: no 2^16-corner sum
    out = tmp_path / "out"
    assert main(["hybrid", "pushforward", "--n", "16", "--level", "1",
                 "--t-exp", "20", "--samples", "1000",
                 "--out", str(out)]) == 0
    header, *rows = read_csv(out / "histogram.csv")
    assert len(rows) == 1 << 16
    assert sum(int(r[header.index("count")]) for r in rows) == 1000


def test_hybrid_growth_recovers_the_expected_exponent(tmp_path):
    out = tmp_path / "out"
    code = main(["hybrid", "growth", "--n", "2",
                 "--t-exp", "20,40,80", "--samples", "20000",
                 "--out", str(out)])
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["summary"]["expected"] == 2
    assert abs(manifest["summary"]["exponent"] - 2.0) < 0.2
    assert len(read_csv(out / "growth.csv")) == 4


def test_geometry_subcommands_pass_their_checks(tmp_path):
    out1 = tmp_path / "slag"
    assert main(["geometry", "slag-check", "--n", "2",
                 "--out", str(out1)]) == 0
    m1 = read_manifest(out1)
    assert m1["summary"]["lagrangian_residual"] == 0.0
    assert m1["summary"]["phase_residual"] < 1e-12

    out2 = tmp_path / "calabi"
    assert main(["geometry", "calabi", "--n", "3", "--out", str(out2)]) == 0
    m2 = read_manifest(out2)
    assert m2["summary"]["constant"] == pytest.approx(64 / 81)
    assert m2["summary"]["residual"] < 1e-12

    out3 = tmp_path / "gcal"
    assert main(["geometry", "gcalabi", "--m", "1", "--n", "2",
                 "--out", str(out3)]) == 0
    m3 = read_manifest(out3)
    assert m3["summary"]["slope"] == pytest.approx(-1.0, abs=0.05)


def test_config_errors_exit_with_status_one(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["model", "validate", missing]) == 1

    bad = write_config(tmp_path, dict(SEGMENT_MODEL, plot=True))
    assert main(["model", "validate", bad]) == 1

    cfg = write_config(tmp_path, SEGMENT_MODEL, "ok.json")
    assert main(["compare", "sideways", cfg]) == 1


def test_reruns_are_byte_identical(tmp_path):
    doc = dict(SEGMENT_MODEL, coefficients={"0": "0", "1": "1/4"})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["namma", cfg, "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["namma", cfg, "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


# ---------------------------------------------------------------------------
# every subcommand, the parse layer and invalid input

SQUARE_BOUNDARY = {"domain": {"box": [[0, 1], [0, 1]]},
                   "boundary": {"quadratic": [[1, 0], [0, 1]]}}
SQUARE = dict(SQUARE_BOUNDARY, density=1)
KINK = {"domain": {"interval": [0, 1]}, "nodes": [[0], ["1/2"], [1]],
        "values": [0, "-1/8", 0]}
CYCLE = {"cycle": {"degrees": [1, 2, 1], "coefficients": [0, "1/2", "1/3"]}}
COEFFS = {"0": "0", "1": "1/4"}
SQUARE_COMPLEX = {
    "n": 2, "semistable": True,
    "divisors": [{"id": k} for k in range(4)],
    "faces": [[0], [1], [2], [3], [0, 1], [0, 2], [1, 2], [1, 3], [2, 3],
              [0, 1, 2], [1, 2, 3]],
}
MATCHING = dict(SQUARE_COMPLEX, matching={
    "face_a": "0,1,2", "face_b": "1,2,3", "degrees": {"1": 2},
    "a": {"quadratic": [[1, 0], [0, 2]], "linear": [0, "1/3"]},
    "b": {"quadratic": [[9, 4], [4, 2]], "linear": ["2/3", "1/3"]},
    "wall_points": [[0], ["1/4"], ["1/2"]]})
POTENTIAL = {"face": "0,1", "gradients": {"0": 0, "1": 0}, "hessian": [[2]]}

# (argv before the config path, config document or None)
SUBCOMMANDS = [
    (["model", "validate"], SEGMENT_MODEL),
    (["model", "skeleton"], SEGMENT_MODEL),
    (["namma"], dict(SEGMENT_MODEL, coefficients=COEFFS)),
    (["realma", "solve", "--grid", "3"], SQUARE),
    (["realma", "measure", "--tol", "0.01", "--grid", "400"], KINK),
    (["compare", "vilsmeier"], CYCLE),
    (["compare", "lowerface"],
     dict(SEGMENT_MODEL, potential=dict(POTENTIAL, face="0", hessian=[]),
          expected=1)),
    (["compare", "pde"],
     dict(SEGMENT_MODEL, potential=POTENTIAL, residues={"0,1": 1})),
    (["compare", "matching"], MATCHING),
    (["compare", "mass"],
     dict(SEGMENT_MODEL, mass_terms=[{"face": "0,1", "density": 2}])),
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--samples", "2000", "--level", "3"], None),
    (["hybrid", "growth", "--n", "1", "--t-exp", "20,40",
      "--samples", "2000"], None),
    (["geometry", "slag-check", "--n", "3", "--L", "2.5"], None),
    (["geometry", "calabi", "--n", "2"], None),
    (["geometry", "gcalabi", "--m", "1", "--n", "2", "--seed", "3"], None),
]


def argv_for(tmp_path, argv, doc):
    return argv + ([write_config(tmp_path, doc)] if doc is not None else [])


def declared_keys(argv):
    """The config keys that the command of ``argv`` reads."""
    args = build_parser().parse_args(argv + ["cfg.json"])
    return (cli.COMPARE_MODES[args.mode][1] if args.command == "compare"
            else args.keys)


# each config command of SUBCOMMANDS: its argv, config and declared keys
DECLARED = {" ".join(argv[:2]): (argv, doc, declared_keys(argv))
            for argv, doc in SUBCOMMANDS if doc}


@pytest.mark.parametrize("argv,doc", SUBCOMMANDS,
                         ids=[" ".join(a[:2]) for a, _ in SUBCOMMANDS])
def test_every_subcommand_reruns_byte_identical(tmp_path, argv, doc):
    argv = argv_for(tmp_path, argv, doc) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert main(argv) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert first == second
    # realma solve also writes its convergence history
    assert len(first) == 2 + (argv[:2] == ["realma", "solve"])
    assert "manifest.json" in first
    # one line of strict JSON
    manifest = first["manifest.json"]
    assert manifest.endswith(b"\n") and manifest.count(b"\n") == 1
    assert read_manifest(tmp_path / "out")["passed"] is True


@pytest.mark.parametrize("argv,doc", [s for s in SUBCOMMANDS if s[1]],
                         ids=[" ".join(a[:2]) for a, d in SUBCOMMANDS if d])
def test_each_run_loads_its_config_once(tmp_path, count_calls, argv, doc):
    calls = count_calls(config, "load_document")
    argv = argv_for(tmp_path, argv, doc)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_one_parser_serves_every_run_of_a_process(tmp_path, capsys):
    # main builds its parser once: runs of different subcommands, a rejected
    # --n/--hessian pair and slag-check's string default for --n among them,
    # write the same files in any order as runs with a parser each
    runs = [(["geometry", "slag-check"], None),
            *SUBCOMMANDS[:4],
            (["geometry", "slag-check", "--n", "2", "--hessian", "h.csv"],
             None),
            *SUBCOMMANDS[10:]]

    def outputs(order, fresh):
        got = {}
        for k in order:
            if fresh:
                cli._parser.cache_clear()
            out = tmp_path / f"out{k}"
            status = main(argv_for(tmp_path, *runs[k]) + ["--out", str(out)])
            got[k] = status, capsys.readouterr().err, {
                p.name: p.read_bytes() for p in out.glob("*")}
        return got

    fresh = outputs(range(len(runs)), True)
    cli._parser.cache_clear()
    assert outputs(range(len(runs)), False) == fresh
    assert outputs(reversed(range(len(runs))), False) == fresh
    assert cli._parser.cache_info().misses == 1
    assert [status for status, _, _ in fresh.values()].count(1) == 1
    assert read_manifest(tmp_path / "out0")["options"]["n"] == 2


INVALID = [
    (["model", "validate"],
     {"n": 1, "divisors": [{"id": 0}, {"id": 1}], "faces": [[1], [0, 1]]}),
    (["model", "validate"], dict(SEGMENT_MODEL, grid=5)),
    (["model", "validate"], dict(SEGMENT_MODEL, power=2)),
    (["model", "skeleton"],
     dict(SEGMENT_MODEL, sections=[{"support": [[1]], "norm_exp": 0}])),
    (["compare", "vilsmeier"],
     {"cycle": {"degrees": [1, 1], "coefficients": [0, 0]}}),
    (["realma", "measure"], dict(KINK, nodes=[[0], [2], [1]])),
    (["realma", "measure"], dict(KINK, domain={"interval": [1, 0]})),
    (["realma", "solve", "--grid", "1"], SQUARE),
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--samples", "0"], None),
    (["hybrid", "growth", "--n", "2", "--t-exp", "30,40",
      "--samples", "0"], None),
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--level", "-1"], None),
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--level", "9"], None),
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--seed", "-1"], None),
    (["geometry", "calabi", "--n", "0"], None),
    (["geometry", "slag-check", "--L", "0"], None),
    (["geometry", "slag-check", "--n", "0"], None),
    (["geometry", "gcalabi", "--m", "0", "--n", "1", "--L", "0", "1"], None),
    (["compare", "lowerface"],
     dict(SEGMENT_MODEL, potential=dict(POTENTIAL, face="5", hessian=[]),
          expected=1)),
    (["compare", "pde"],
     dict(SEGMENT_MODEL, potential=dict(POTENTIAL, face="5", hessian=[]),
          residues={"0,1": 1})),
    (["compare", "mass"],
     dict(SEGMENT_MODEL, mass_terms=[{"face": "5", "density": 2}])),
    (["compare", "pde"],
     dict(SEGMENT_MODEL, potential=POTENTIAL, residues={"0": 1})),
    (["compare", "pde"],
     dict(SEGMENT_MODEL, potential=POTENTIAL, residues={"0,1": 1, "7": 1})),
    (["namma"], dict(SEGMENT_MODEL, coefficients={"0": "0", "1": "1/4"},
                     intersection_table=SEGMENT_TABLE + [
                         {"L_power": 0, "divisor_powers": {"2": 1},
                          "stratum": [0], "value": "1"}])),
    (["hybrid", "pushforward", "--n", "600", "--t-exp", "30",
      "--samples", "70000", "--level", "0"], None),
    (["hybrid", "growth", "--n", "600", "--t-exp", "30,40",
      "--samples", "70000"], None),
    (["realma", "measure", "--tol", "nan", "--grid", "7"], KINK),
    (["realma", "measure", "--tol", "inf", "--grid", "7"], KINK),
    (["realma", "measure", "--tol", "-0.01", "--grid", "7"], KINK),
    (["realma", "solve", "--grid", "3", "--tol", "nan"], SQUARE),
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--samples", "2000", "--tol", "nan"], None),
    (["geometry", "calabi", "--n", "2", "--tol", "-0.5"], None),
    (["realma", "measure", "--tol", "0.01", "--grid", "65537"], KINK),
    (["realma", "measure", "--tol", "0.01"],
     dict(KINK, values=[0, float("nan"), 0])),
    (["realma", "measure"], dict(KINK, nodes=[[0], [float("inf")], [1]])),
    (["realma", "solve", "--grid", "3"],
     dict(SQUARE_BOUNDARY, masses=[{"node": ["1/2", "1/2"],
                                    "mass": "-1/4"}])),
    (["realma", "solve", "--grid", "5"],      # zero at the other 8 nodes
     dict(SQUARE_BOUNDARY, masses=[{"node": ["1/2", "1/2"],
                                    "mass": "1/4"}])),
    (["realma", "solve", "--grid", "3"], dict(SQUARE, density=0)),
    (["realma", "solve", "--grid", "3"],      # 1/3 is not a grid node
     {"domain": {"interval": [0, 1]}, "boundary": {"quadratic": [[0]]},
      "masses": [{"node": ["1/3"], "mass": 1}]}),
    (["model", "validate"], {"cycle": {"degrees": 5, "coefficients": [0]}}),
    (["realma", "solve", "--grid", "2"], SQUARE),   # corners only
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--uJ", "1+z3"], None),                         # z3 past z0..z2
    (["hybrid", "growth", "--n", "1", "--t-exp", "30,40",
      "--uJ", "1+*z0"], None),
    # a value no run reads: --seed where nothing is drawn, --tol where
    # nothing is checked, the old --mode flag
    (["model", "validate", "--seed", "5"], SEGMENT_MODEL),
    (["model", "skeleton", "--seed", "5"], SEGMENT_MODEL),
    (["namma", "--seed", "5"], dict(SEGMENT_MODEL, coefficients=COEFFS)),
    (["realma", "solve", "--grid", "3", "--seed", "5"], SQUARE),
    (["realma", "measure", "--seed", "5"], KINK),
    (["compare", "--seed", "5", "vilsmeier"], CYCLE),
    (["geometry", "slag-check", "--seed", "5"], None),
    (["geometry", "calabi", "--n", "2", "--seed", "5"], None),
    (["model", "validate", "--tol", "0.5"], SEGMENT_MODEL),
    (["model", "skeleton", "--tol", "0.5"], SEGMENT_MODEL),
    (["namma", "--tol", "0.5"], dict(SEGMENT_MODEL, coefficients=COEFFS)),
    (["compare", "--mode", "vilsmeier", "vilsmeier"], CYCLE),
    # a value a run would read only in part
    (["realma", "measure", "--grid", "400"], KINK),
    (["geometry", "slag-check", "--L", "2", "3"], None),
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30,40",
      "--samples", "2000"], None),
    # a config entry another key would override
    (["model", "validate"], dict(CYCLE, divisors="garbage", faces=3)),
    (["realma", "solve", "--grid", "3"],
     dict(SQUARE, masses=[{"node": [5, 5], "mass": -3}])),
    # config entries of the wrong JSON type
    (["compare", "mass"], dict(SEGMENT_MODEL, mass_terms=3)),
    (["compare", "mass"], dict(SEGMENT_MODEL, mass_terms=[], atomic=5)),
    (["compare", "matching"], dict(MATCHING, matching=dict(
        MATCHING["matching"], degrees=3))),
    (["compare", "matching"], dict(MATCHING, matching=dict(
        MATCHING["matching"], wall_points=3))),
    (["compare", "matching"], dict(MATCHING, matching=dict(
        MATCHING["matching"], wall_points=[3]))),
    (["compare", "lowerface"], dict(SEGMENT_MODEL, expected=1, potential=dict(
        POTENTIAL, face="0", hessian=[], gradients="x"))),
    (["compare", "lowerface"], dict(SEGMENT_MODEL, expected=1, potential=dict(
        POTENTIAL, face="0", hessian=3))),
    (["realma", "solve", "--grid", "3"],
     dict(SQUARE, boundary={"quadratic": 2})),
    (["realma", "solve", "--grid", "3"], dict(SQUARE, boundary={"linear": 2})),
    # non-finite polynomial coefficients and damping weights
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--samples", "2000", "--uJ", "nan"], None),
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--samples", "2000", "--uJ", "1e400"], None),
    (["hybrid", "growth", "--n", "1", "--t-exp", "20,40",
      "--samples", "2000", "--uJ", "inf"], None),
    (["hybrid", "growth", "--n", "1", "--t-exp", "20,40",
      "--samples", "2000", "--weights", "inf,0"], None),
    (["hybrid", "growth", "--n", "1", "--t-exp", "20,40",
      "--samples", "2000", "--weights", "nan,0"], None),
    (["hybrid", "pushforward", "--n", "1", "--t-exp", "30",
      "--samples", "2000", "--weights", "nan,0"], None),
    # |u(0)|^2 overflows or underflows, or a weight bound is not finite
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--samples", "2000", "--uJ", "1e300"], None),
    (["hybrid", "growth", "--n", "1", "--t-exp", "20,40",
      "--samples", "2000", "--uJ", "1e300"], None),
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--samples", "2000", "--uJ", "1+1e200*z0"], None),
    (["hybrid", "pushforward", "--n", "2", "--t-exp", "30",
      "--samples", "2000", "--uJ", "0." + "0" * 170 + "1"], None),
    # 4 pi L^2 underflows
    (["geometry", "slag-check", "--L", "1e-300"], None),
    (["geometry", "gcalabi", "--m", "0", "--n", "1", "--L", "1", "1e200"],
     None),
    # face grids past the cap
    (["compare", "pde"], dict(SEGMENT_MODEL, potential=POTENTIAL,
                              residues={"0,1": 1}, resolution=10 ** 400)),
    (["compare", "lowerface"], dict(
        SEGMENT_MODEL, potential=dict(POTENTIAL, face="0", hessian=[]),
        expected=1, resolution=MAX_FACE_GRID)),
    # a float literal cut at its exponent sign, and --uJ terms past the cap
    (["hybrid", "pushforward", "--n", "1", "--t-exp", "20",
      "--samples", "1000", "--uJ", "1+1e*z0"], None),
    (["hybrid", "pushforward", "--n", "1", "--t-exp", "20",
      "--samples", "1000", "--uJ", "1+1e-*z0"], None),
    (["hybrid", "growth", "--n", "1", "--t-exp", "20,40",
      "--samples", "1000", "--uJ",
      "+".join(f"z0^{k}" for k in range(MAX_POLY_TERMS + 1))], None),
    # a null expected value
    (["compare", "lowerface"],
     dict(SEGMENT_MODEL, potential=POTENTIAL, expected=None)),
]


@pytest.mark.parametrize("argv,doc", INVALID,
                         ids=[f"{k}-{' '.join(a[:2])}"
                              for k, (a, _) in enumerate(INVALID)])
def test_invalid_input_exits_one_with_one_line(tmp_path, capsys, argv, doc):
    argv = argv_for(tmp_path, argv, doc)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


# every top-level key that some command reads, and the model block that
# none reads
CONFIG_KEYS = set().union(*(k for _, _, k in DECLARED.values())) \
    | {"sections"}


def config_error(tmp_path, capsys, argv, doc):
    """The one stderr line of a run that exits 1 and writes nothing."""
    assert main(argv_for(tmp_path, argv, doc)
                + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize("command,key", [
    (command, key) for command, (_, doc, keys) in DECLARED.items()
    for key in sorted(CONFIG_KEYS - keys - set(doc))])
def test_a_key_the_command_does_not_read_exits_one(tmp_path, capsys,
                                                   command, key):
    argv, doc, keys = DECLARED[command]
    err = config_error(tmp_path, capsys, argv, dict(doc, **{key: "malformed"}))
    assert err == (f"config error: unknown keys [{key!r}] in config "
                   f"document; allowed: {sorted(keys)}\n")


@pytest.mark.parametrize("command,key", [
    (command, key) for command, (_, doc, keys) in DECLARED.items()
    for key in sorted(keys - set(doc))])
def test_every_declared_key_is_read(tmp_path, capsys, command, key):
    # a declared key that no parser read would take any value
    argv, doc, _ = DECLARED[command]
    err = config_error(tmp_path, capsys, argv, dict(doc, **{key: "malformed"}))
    assert "unknown keys" not in err


@pytest.mark.parametrize("argv,doc,unknown", [
    (["realma", "measure"], dict(KINK, density=1, masses=[]),
     ["density", "masses"]),
    (["realma", "measure"], dict(KINK, density="oops", boundary=3,
                                 resolution=-9, n="x", faces=0, atomic={}),
     ["atomic", "boundary", "density", "faces", "n", "resolution"]),
    (["compare", "vilsmeier"], dict(CYCLE, domain={"box": 5}, potential=7,
                                    expected="x", sections=[]),
     ["domain", "expected", "potential", "sections"])])
def test_keys_of_other_commands_are_unknown(tmp_path, capsys, argv, doc,
                                            unknown):
    # measure reads no target, so both target keys are unknown to it
    err = config_error(tmp_path, capsys, argv, doc)
    assert err.startswith(f"config error: unknown keys {unknown} in config "
                          "document; allowed: ")


# (argv before the config path, config document, the error after
# "config error: "): "1", "01" and "001" all read as divisor 1
NAMED_TWICE = [
    (["model", "validate"], dict(SEGMENT_MODEL, intersection_table=[
        *SEGMENT_TABLE, {"L_power": 0, "divisor_powers": {"1": 1, "01": 1},
                         "stratum": [], "value": "1"}]),
     "intersection_table[8].divisor_powers keys '1' and '01' both name "
     "divisor 1"),
    (["namma"], dict(SEGMENT_MODEL,
                     coefficients={"0": "0", "1": "1/4", "01": "5"}),
     "coefficients keys '1' and '01' both name divisor 1"),
    (["model", "validate"], dict(SEGMENT_MODEL, intersection_table=[
        *SEGMENT_TABLE, {"L_power": 0, "stratum": [1, 1], "value": "1"}]),
     "intersection_table[8].stratum repeats a divisor id: [1, 1]"),
    (["compare", "pde"], dict(SEGMENT_MODEL, residues={"0,1": 1},
                              potential=dict(POTENTIAL, gradients={
                                  "0": 0, "1": 0, "001": 5})),
     "potential.gradients keys '1' and '001' both name divisor 1"),
    (["compare", "matching"], dict(MATCHING, matching=dict(
        MATCHING["matching"], degrees={"01": 2, "1": 3})),
     "matching.degrees keys '01' and '1' both name divisor 1"),
    (["compare", "pde"], dict(SEGMENT_MODEL, potential=POTENTIAL,
                              residues={"0,1": 1, "1,0": 5}),
     "residues keys '0,1' and '1,0' both name face 0,1"),
]


@pytest.mark.parametrize("argv,doc,message", NAMED_TWICE,
                         ids=[m.split()[0] for _, _, m in NAMED_TWICE])
def test_a_divisor_named_twice_is_an_input_error(tmp_path, capsys, argv, doc,
                                                 message):
    argv = argv_for(tmp_path, argv, doc)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", [" 1", "1 ", "+1", "1_0", "\u0663", "--1",
                                 "0x1", ""],
                         ids=["leading space", "trailing space", "plus",
                              "underscore", "arabic-indic", "minus twice",
                              "hex", "empty"])
def test_a_divisor_id_is_ascii_digits(tmp_path, capsys, key):
    # int() reads all but the last three; a divisor id is -?[0-9]+ only
    doc = dict(SEGMENT_MODEL, intersection_table=[
        *SEGMENT_TABLE, {"L_power": 0, "divisor_powers": {key: 1},
                         "stratum": [], "value": "1"}])
    argv = argv_for(tmp_path, ["model", "validate"], doc)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"config error: intersection_table[8].divisor_powers key {key!r} "
        "is not a divisor id\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["0, 1", "+1,0", " 0 ,1 ", "1_0", "0,,1",
                                 "0,1,", ","],
                         ids=["space after comma", "plus", "spaces around",
                              "underscore", "empty part", "trailing comma",
                              "comma only"])
def test_a_face_key_is_divisor_ids(tmp_path, capsys, key):
    # int() reads each of the first four's parts; "1_0" read as face (10,)
    doc = dict(SEGMENT_MODEL, potential=POTENTIAL, residues={key: 1})
    argv = argv_for(tmp_path, ["compare", "pde"], doc)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"config error: residues is not a face key: {key!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rows", ["1,2\n3,4\n", "1,2,3\n2,4,5\n"],
                         ids=["non-symmetric", "non-square"])
def test_slag_check_rejects_an_invalid_hessian(tmp_path, capsys, rows):
    path = tmp_path / "hessian.csv"
    path.write_text(rows)
    assert main(["geometry", "slag-check", "--hessian", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


@pytest.mark.parametrize("rows, L", [("1e300,0\n0,1e300\n", "1e-150"),
                                     ("inf,0\n0,1\n", "1")],
                         ids=["overflowing", "infinite"])
def test_slag_check_rejects_a_form_past_the_float_range(tmp_path, capsys,
                                                       rows, L):
    path = tmp_path / "hessian.csv"
    path.write_text(rows)
    argv = ["geometry", "slag-check", "--hessian", str(path),
            "--out", str(tmp_path / "out")]
    assert main(argv + ["--L", L]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(
        "config error: --hessian entry ")
    assert not (tmp_path / "out").exists()
    if L != "1":        # the same entries over 4 pi: no product overflows
        assert main(argv + ["--L", "1"]) == 0


@pytest.mark.parametrize("n", ["2", "3"])
def test_slag_check_takes_n_or_hessian(tmp_path, capsys, n):
    # --n 2 equals the default, and still conflicts
    path = tmp_path / "hessian.csv"
    path.write_text("1,0\n0,1\n")
    argv = ["geometry", "slag-check", "--hessian", str(path),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert main(argv + ["--n", n]) == 1
    assert capsys.readouterr().err.endswith(
        "config error: argument --n: not allowed with argument --hessian\n")


def test_oracle_grid_cap_is_accepted_without_running(tmp_path):
    argv = ["realma", "measure", write_config(tmp_path, KINK), "--tol",
            "0.01", "--grid", str(MAX_ORACLE_GRID)]
    assert build_parser().parse_args(argv).grid == MAX_ORACLE_GRID
    with pytest.raises(ConfigError, match="--grid"):
        build_parser().parse_args(argv[:-1] + [str(MAX_ORACLE_GRID + 1)])


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_grid_cap_is_accepted_without_running(tmp_path, monkeypatch,
                                                    capsys, dim):
    class Reached(Exception):
        pass

    def stop(domain, per_side):
        raise Reached(per_side)

    monkeypatch.setattr(cli, "grid_nodes", stop)
    doc = SQUARE if dim == 2 else dict(SQUARE, domain={"interval": [0, 1]},
                                       boundary={"quadratic": [[1]]})
    argv = ["realma", "solve", write_config(tmp_path, doc), "--out",
            str(tmp_path / "out"), "--grid"]
    with pytest.raises(Reached):
        main(argv + [str(MAX_SOLVE_GRID[dim])])
    assert main(argv + [str(MAX_SOLVE_GRID[dim] + 1)]) == 1
    assert capsys.readouterr().err.startswith("config error: --grid")


class Reached(Exception):
    pass


def stop(*args):
    raise Reached(args)


@pytest.mark.parametrize("argv, cap, stage", [
    (["slag-check", "--n"], MAX_FORM_DIM, "semiflat_form"),
    (["calabi", "--n"], MAX_CALABI_N, "power_law_potential"),
    (["gcalabi", "--m", "0", "--n"], MAX_GCALABI_DIM,
     "random_block_instance"),
])
def test_geometry_size_caps_are_accepted_without_running(
        tmp_path, monkeypatch, capsys, argv, cap, stage):
    monkeypatch.setattr(cli, stage, stop)
    argv = ["geometry"] + argv
    out = ["--out", str(tmp_path / "out")]
    with pytest.raises(Reached):
        main(argv + [str(cap)] + out)
    assert main(argv + [str(cap + 1)] + out) == 1
    assert capsys.readouterr().err.startswith("config error: argument --n")


def test_hessian_dimension_cap_is_accepted_without_running(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "semiflat_form", stop)
    argv = ["geometry", "slag-check", "--out", str(tmp_path / "out"),
            "--hessian", str(tmp_path / "h.csv")]
    for n in (MAX_FORM_DIM, MAX_FORM_DIM + 1):
        (tmp_path / "h.csv").write_text("\n".join(
            ",".join("1" if i == j else "0" for j in range(n))
            for i in range(n)))
        if n == MAX_FORM_DIM:
            with pytest.raises(Reached):
                main(argv)
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"config error: --hessian must be at most {MAX_FORM_DIM}x"
        f"{MAX_FORM_DIM}, got {n}x{n}\n")


def test_poly_term_cap_is_accepted_without_running(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(cli, "volume_growth_exponent",
                        lambda *args, **kwargs: stop())
    argv = ["hybrid", "growth", "--n", "1", "--t-exp", "20,40", "--out",
            str(tmp_path / "out"), "--uJ"]
    terms = [f"{k + 1}e-3*z0^{k}" for k in range(MAX_POLY_TERMS + 1)]
    with pytest.raises(Reached):
        main(argv + ["+".join(terms[:-1])])
    assert main(argv + ["+".join(terms)]) == 1
    assert capsys.readouterr().err == (
        f"config error: --uJ has {MAX_POLY_TERMS + 1} terms; at most "
        f"{MAX_POLY_TERMS} are allowed\n")


@pytest.mark.parametrize("literal, plain", [
    ("1+1e-3*z0", "1+0.001*z0"), ("2.5E+2-1E2*z0^2", "250-100*z0^2"),
    ("1e0+1e1*z0*z1", "1+10*z0*z1")])
def test_uj_float_literals_keep_their_exponent_sign(tmp_path, literal,
                                                    plain):
    written = []
    for k, u in enumerate((literal, plain)):
        out = tmp_path / str(k)
        assert main(["hybrid", "pushforward", "--n", "1", "--t-exp", "20",
                     "--samples", "1000", "--uJ", u, "--out", str(out)]) == 0
        manifest = read_manifest(out)
        for option in ("uJ", "out"):
            del manifest["options"][option]
        written.append((manifest, (out / "histogram.csv").read_bytes()))
    assert written[0] == written[1]


@pytest.mark.parametrize("argv, stage", [
    (["pushforward", "--level", "0", "--t-exp", "20"], "sample_cy_measure"),
    (["growth", "--t-exp", "20,40"], "volume_growth_exponent"),
])
def test_hybrid_size_caps_are_accepted_without_running(
        tmp_path, monkeypatch, capsys, argv, stage):
    monkeypatch.setattr(cli, stage, lambda *args, **kwargs: stop())
    argv = ["hybrid"] + argv + ["--out", str(tmp_path / "out")]
    widest = MAX_SAMPLE_COORDS // (MAX_HYBRID_N + 1)
    for n, samples in ((MAX_HYBRID_N, widest), (1, MAX_SAMPLE_COORDS // 2)):
        with pytest.raises(Reached):
            main(argv + ["--n", str(n), "--samples", str(samples)])
    assert main(argv + ["--n", "1", "--samples",
                        str(MAX_SAMPLE_COORDS // 2 + 1)]) == 1
    assert capsys.readouterr().err.startswith("config error: --samples")
    assert main(argv + ["--n", str(MAX_HYBRID_N + 1),
                        "--samples", "1"]) == 1
    assert capsys.readouterr().err.startswith("config error: argument --n")


def test_t_exp_cap_is_accepted_without_running(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setattr(cli, "volume_growth_exponent",
                        lambda *args, **kwargs: stop())
    argv = ["hybrid", "growth", "--n", "1", "--out", str(tmp_path / "out"),
            "--t-exp"]
    exps = [str(20 + k) for k in range(MAX_T_EXPONENTS + 1)]
    with pytest.raises(Reached):
        main(argv + [",".join(exps[:-1])])
    assert main(argv + [",".join(exps)]) == 1
    assert capsys.readouterr().err == (
        f"config error: --t-exp has {MAX_T_EXPONENTS + 1} exponents; at "
        f"most {MAX_T_EXPONENTS} are allowed\n")


@pytest.mark.parametrize("mode, doc", [
    ("lowerface", dict(SEGMENT_MODEL, expected=1, potential=dict(
        POTENTIAL, gradients={"0": 0, "1": 0}))),
    ("pde", dict(SEGMENT_MODEL, potential=POTENTIAL, residues={"0,1": 1})),
])
def test_face_grid_cap_is_accepted_without_running(tmp_path, monkeypatch,
                                                   capsys, mode, doc):
    monkeypatch.setattr(skeleton.Face, "grid_points", stop)
    out = ["--out", str(tmp_path / "out")]
    # the segment walks resolution + 1 grid points
    at_cap = write_config(tmp_path, dict(doc, resolution=MAX_FACE_GRID - 1))
    with pytest.raises(Reached):
        main(["compare", mode, at_cap] + out)
    past = write_config(tmp_path, dict(doc, resolution=MAX_FACE_GRID))
    assert main(["compare", mode, past] + out) == 1
    assert capsys.readouterr().err == (
        f"config error: resolution {MAX_FACE_GRID} walks more than "
        f"{MAX_FACE_GRID} grid points of face 0,1\n")


VALIDATE, MEASURE = ["model", "validate"], ["realma", "measure"]


@pytest.mark.parametrize("stage, key, cap, doc", [
    ("cycle_model", "cycle.degrees", config.MAX_CYCLE_LENGTH,
     lambda n: (VALIDATE,
                {"cycle": {"degrees": [1] * n, "coefficients": [0] * n}})),
    ("build_model", "divisors", config.MAX_MODEL_DIVISORS,
     lambda n: (VALIDATE, dict(SEGMENT_MODEL, divisors=[{"id": 0}] * n))),
    ("build_model", "faces", config.MAX_MODEL_FACES,
     lambda n: (VALIDATE, dict(SEGMENT_MODEL, faces=[[0]] * n))),
    ("IntersectionTable", "intersection_table", config.MAX_TABLE_ENTRIES,
     lambda n: (VALIDATE, dict(SEGMENT_MODEL,
                               intersection_table=SEGMENT_TABLE[:1] * n))),
    ("ConvexPL", "nodes", config.MAX_MEASURE_NODES,
     lambda n: (MEASURE, dict(KINK, nodes=[[0]] * n, values=[0] * n))),
    ("ConvexPL", "values", config.MAX_MEASURE_NODES,
     lambda n: (MEASURE, dict(KINK, nodes=[[0]] * config.MAX_MEASURE_NODES,
                              values=[0] * n))),
    ("TargetMeasure", "masses", config.MAX_SOLVE_NODES,
     lambda n: (["realma", "solve", "--grid", "3"], dict(
         SQUARE_BOUNDARY, masses=[{"node": [0, 0], "mass": 0}] * n))),
])
def test_config_list_caps_are_accepted_without_building(
        tmp_path, monkeypatch, capsys, stage, key, cap, doc):
    monkeypatch.setattr(config, stage, stop)
    out = ["--out", str(tmp_path / "out")]
    argv, document = doc(cap)
    with pytest.raises(Reached):
        main(argv + [write_config(tmp_path, document)] + out)
    argv, document = doc(cap + 1)
    assert main(argv + [write_config(tmp_path, document)] + out) == 1
    assert capsys.readouterr().err == (
        f"config error: {key} has {cap + 1} entries; at most {cap} are "
        "allowed\n")
    assert not (tmp_path / "out").exists()


CAP = config.MAX_RATIONAL_BITS


@pytest.mark.parametrize("value", [
    2 ** CAP - 1, -(2 ** CAP - 1), f"-{2 ** CAP - 1}/{2 ** CAP - 3}",
    "0" * 5000 + "1/3"], ids=["int", "negative int", "p/q", "zeros"])
def test_config_rationals_at_the_bit_cap_are_read(tmp_path, value):
    doc = dict(SEGMENT_MODEL, divisors=[{"id": 0, "degrees": value},
                                        {"id": 1}])
    assert main(["model", "validate", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("value, size", [
    (2 ** CAP, f"{CAP + 1}-bit numerator"),
    (-2 ** CAP, f"{CAP + 1}-bit numerator"),
    (f"{2 ** CAP}/3", f"{CAP + 1}-bit numerator"),
    (f"-1/{2 ** CAP}", f"{CAP + 1}-bit denominator"),
    ("9" * 5000, "5000-digit numerator"),
    ("1/" + "9" * 5000, "5000-digit denominator")],
    ids=["int", "negative int", "p", "q", "digits p", "digits q"])
def test_config_rationals_past_the_bit_cap_exit_one(tmp_path, capsys, value,
                                                     size):
    doc = dict(SEGMENT_MODEL, divisors=[{"id": 0, "degrees": value},
                                        {"id": 1}])
    assert config_error(tmp_path, capsys, ["model", "validate"], doc) == (
        f"config error: divisors[0].degrees has a {size}; at most {CAP} "
        "bits are allowed\n")


BITS = config.MAX_DENOMINATOR_BITS


def unit_fractions(n, bits):
    """n rationals 1/2^k whose denominators have ``bits`` bits in all, each
    at most CAP (n <= bits <= n CAP)."""
    return [f"1/{2 ** min(CAP - 1, max(0, bits - n - (CAP - 1) * i))}"
            for i in range(n)]


def chain_model(n, coefficients, table=SEGMENT_TABLE):
    """A model document: a chain of n divisors with no degrees."""
    return dict(SEGMENT_MODEL, divisors=[{"id": i} for i in range(n)],
                faces=[[i] for i in range(n)]
                + [[i, i + 1] for i in range(n - 1)],
                intersection_table=table,
                coefficients={str(i): c for i, c in enumerate(coefficients)})


def chain_table(values):
    """The table entries (L . E_i) = values[i] of a chain."""
    return [{"L_power": 1, "stratum": [i], "value": v}
            for i, v in enumerate(values)]


# a document of 300 components at a total of denominator bits (each value of
# SEGMENT_TABLE has 1), the stage that it reaches within the cap and the
# context of the message past it
@pytest.mark.parametrize("argv, stage, doc, context", [
    (["compare", "vilsmeier"], (config, "cycle_model"),
     lambda bits: {"cycle": {"degrees": unit_fractions(300, bits),
                             "coefficients": []}}, "cycle.degrees"),
    (["compare", "vilsmeier"], (cli, "vilsmeier_check_1d"),
     lambda bits: {"cycle": {"degrees": [1] * 300, "coefficients":
                             unit_fractions(300, bits - 300)}},
     "the degrees, table values and coefficients"),
    (["namma"], (cli, "na_ma_model_metric"),
     lambda bits: chain_model(300, unit_fractions(300, bits - 8)),
     "the degrees, table values and coefficients"),
    (["namma"], (cli, "na_ma_model_metric"),
     lambda bits: chain_model(300, ["0"] * 300, chain_table(
         unit_fractions(300, bits - 300))),
     "the degrees, table values and coefficients")],
    ids=["cycle degrees", "cycle coefficients", "model coefficients",
         "model table"])
def test_denominator_bits_are_capped_in_all(tmp_path, monkeypatch, capsys,
                                            argv, stage, doc, context):
    monkeypatch.setattr(*stage, stop)
    out = ["--out", str(tmp_path / "out")]
    with pytest.raises(Reached):
        main(argv + [write_config(tmp_path, doc(BITS))] + out)
    assert main(argv + [write_config(tmp_path, doc(BITS + 1))] + out) == 1
    assert capsys.readouterr().err == (
        f"config error: {context} have {BITS + 1} bits of denominators; at "
        f"most {BITS} are allowed\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, n", [(44, 45), (1, 150)])
def test_gcalabi_checks_blocks_past_the_float_range(tmp_path, capsys, m, n):
    # (4 pi L)^44 at L = 10^6, and det Q at n = 150, overflow a float
    assert main(["geometry", "gcalabi", "--m", str(m), "--n", str(n),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert read_manifest(tmp_path / "out")["summary"]["slope"] \
        == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("m, n, seed, first", [
    (32, 64, 0, 114087.46465136338), (250, 500, 0, 805666.2048116775),
    (1, 2, 3, 100.0)])       # 4 pi |tr| = 0.197 < 1: the fixed scales
def test_gcalabi_default_scales_start_in_the_first_order_regime(
        tmp_path, m, n, seed, first):
    # 10^2..10^6 fitted slopes -0.79 and -0.51 on the first two
    out = tmp_path / "out"
    assert main(["geometry", "gcalabi", "--m", str(m), "--n", str(n),
                 "--seed", str(seed), "--out", str(out)]) == 0
    rows = read_csv(out / "gcalabi.csv")[1:]
    assert [float(r[0]) for r in rows] == pytest.approx(
        [first * 10.0 ** k for k in range(5)], rel=1e-15)
    assert float(rows[0][1]) < 0.011
    assert read_manifest(out)["summary"]["slope"] == pytest.approx(
        -1.0, abs=1e-3)


def test_manifests_are_strict_json(tmp_path, capsys):
    # det P * det Q overflows a float at n = 150: its limit is null
    out = tmp_path / "out"
    assert main(["geometry", "gcalabi", "--m", "1", "--n", "150",
                 "--out", str(out)]) == 0
    summary = read_manifest(out)["summary"]
    assert summary["limit"] is None and summary["slope"] is not None
    assert "limit=inf" in capsys.readouterr().out


@pytest.mark.parametrize("extra, why", [
    (', "values": [0, NaN]', "NaN is not a JSON value"),
    # a key measure never reads, which would reach the manifest's options
    (', "values": [0, 0], "expected": 1e400', "1e400 is not a finite number"),
])
def test_a_config_with_nan_is_not_json(tmp_path, capsys, extra, why):
    path = tmp_path / "cfg.json"
    path.write_text('{"domain": {"interval": [0, 1]}, "nodes": [[0], [1]]'
                    + extra + '}')
    assert main(["realma", "measure", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"config error: config file {path} is not valid JSON: {why}\n")
    assert not (tmp_path / "out").exists()


def chain_fmt(value):
    """fmt without its lookup by exact type."""
    if isinstance(value, F):
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


def test_tables_are_written_as_fmt_writes_each_cell(tmp_path):
    # exact types take fmt's lookup, subclasses (bool of int, np.float64 of
    # float) and numpy scalars its chain of checks
    rows = [(F(1, 3), 0.1, True, 3, None, np.int64(7), np.float64(2.5), "a",
             None, 1),
            (None, 2.0, False, np.int32(-4), F(2), True, 1, None, None, 2),
            (F(-5, 2), None, 1, False, 0.5, np.int64(0), None, F(1), None, 3),
            (2, float("inf"), None, F(7, 9), "x", 3.25, np.float32(1.5), 0,
             None, 10 ** 30),
            (F(0), -0.0, np.bool_(True), 10 ** 30, None, None, 2.0, "b,c",
             None, -4)]
    emitter = cli.Emitter(str(tmp_path), "test", {})
    emitter.write_table("t.csv", tuple("abcdefghij"), iter(rows))
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow("abcdefghij")
    writer.writerows([chain_fmt(v) for v in row] for row in rows)
    assert (tmp_path / "t.csv").read_bytes() == want.getvalue().encode()


def test_rerun_into_a_used_directory_removes_only_stale_tables(tmp_path):
    out = tmp_path / "out"
    measure = argv_for(tmp_path, ["realma", "measure"], KINK)
    assert main(measure + ["--out", str(out)]) == 0
    (out / "notes.csv").write_text("kept: no manifest lists it\n")
    (out / "notes.txt").write_text("kept\n")
    validate = [write_config(tmp_path, SEGMENT_MODEL, "model.json")]
    assert main(["model", "validate"] + validate + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "model_validate.csv", "notes.csv", "notes.txt"]
    assert main(measure + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "measure.csv", "notes.csv", "notes.txt"]


# ---------------------------------------------------------------------------
# each subcommand's options, and a fuzz of argv and config mutations


def subcommand_parsers(parser=None, path=()):
    """(name, parser) of every runnable subcommand."""
    parser = parser or build_parser()
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from subcommand_parsers(sub, path + (name,))


def option_strings(parser):
    return {s for a in parser._actions for s in a.option_strings} \
        - {"-h", "--help"}


HYBRID_OPTIONS = {"--out", "--seed", "--tol", "--n", "--t-exp", "--samples",
                  "--uJ", "--b", "--weights"}
OPTIONS = {
    "model validate": {"--out"},
    "model skeleton": {"--out"},
    "namma": {"--out"},
    "realma solve": {"--out", "--tol", "--grid"},
    "realma measure": {"--out", "--tol", "--grid"},
    "compare": {"--out", "--tol"},
    "hybrid pushforward": HYBRID_OPTIONS | {"--level"},
    "hybrid growth": HYBRID_OPTIONS,
    "geometry slag-check": {"--out", "--tol", "--n", "--hessian", "--L"},
    "geometry calabi": {"--out", "--tol", "--n"},
    "geometry gcalabi": {"--out", "--seed", "--tol", "--m", "--n", "--L"},
}


def test_each_subcommand_declares_only_the_options_it_reads():
    # --seed where a run draws random numbers, --tol where it checks one
    assert {name: option_strings(sp)
            for name, sp in subcommand_parsers()} == OPTIONS


def test_a_growth_volume_that_underflows_fails_the_check(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["hybrid", "growth", "--n", "1", "--t-exp", "20,40",
                 "--samples", "2000", "--weights", "20,40",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("check failed: the volume estimate at T = 20.0 "
                   "underflows to 0\n")
    manifest = read_manifest(out)
    assert manifest["passed"] is False and "failure" in manifest["summary"]


# 1e-12 (x^2 + y^2) + 0.5 on a 65 x 65 float grid: Qhull leaves zero-det
# facets there (tests/test_hullstar.py)
_BASE = np.linspace(-1, 1, 65)
NEAR_FLAT = {"domain": {"box": [[-1, 1], [-1, 1]]},
             "nodes": [[float(x), float(y)] for x in _BASE for y in _BASE],
             "values": [1e-12 * (x * x + y * y) + 0.5
                        for x in _BASE for y in _BASE]}
FUZZ_CORPUS = SUBCOMMANDS + [(["realma", "measure"], NEAR_FLAT)]
# --out would write outside the run's directory (-h/--help, which exits
# through argparse's SystemExit(0), is in no OPTIONS entry)
FUZZ_OPTIONS = sorted(set().union(*OPTIONS.values()) - {"--out"})
FUZZ_VALUES = ["0", "1", "-1", "2", "nan", "inf", "1e400", "abc", "20,40",
               "3/2"]
FUZZ_JSON = [0, 1, -1, 2, "abc", "1/2", None, True, [], {}, [3], [[0]], 0.5]


def entries(node, path=()):
    """Path of every entry below ``node``, dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from entries(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def containers(doc):
    """Path of ``doc`` and of every dict or list below it."""
    return [()] + [path for path in entries(doc)
                   if isinstance(_at(doc, path), (dict, list))]


# every key of a config block, and one that none has
FUZZ_KEYS = sorted(set().union(*(k for _, _, k in DECLARED.values()))
                   | {"x"} | {
    path[-1] for _, doc in SUBCOMMANDS if doc for path in entries(doc)
    if isinstance(path[-1], str)})


@st.composite
def mutated(draw, argv, doc):
    """``argv`` and ``doc`` with one token dropped, one option appended, or
    one config entry dropped, added or replaced."""
    kinds = ["drop-token", "append-option"] + (["config"] * 2 if doc else [])
    kind = draw(st.sampled_from(kinds))
    argv = list(argv)
    if kind == "drop-token":
        del argv[draw(st.integers(0, len(argv) - 1))]
        return argv, doc
    if kind == "append-option":
        return argv + [draw(st.sampled_from(FUZZ_OPTIONS)),
                       draw(st.sampled_from(FUZZ_VALUES))], doc
    doc = copy.deepcopy(doc)
    op = draw(st.sampled_from(["drop", "add", "replace"]))
    value = draw(st.sampled_from(FUZZ_JSON))
    if op == "add":
        path = draw(st.sampled_from(containers(doc)))
        node = _at(doc, path)
        if isinstance(node, dict):
            node[draw(st.sampled_from(FUZZ_KEYS))] = value
        else:
            node.append(value)
        return argv, doc
    path = draw(st.sampled_from(list(entries(doc))))
    parent = _at(doc, path[:-1])
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return argv, doc


def run_fuzzed(directory, argv, doc):
    """Exit status and stderr lines of one in-process run; every warning
    is an error."""
    argv = argv + ([write_config(directory, doc)] if doc is not None else [])
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(directory / "out")])
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("argv,doc", FUZZ_CORPUS,
                         ids=[" ".join(a[:2]) for a, _ in FUZZ_CORPUS])
def test_mutated_inputs_exit_with_one_line(tmp_path_factory, argv, doc):
    @settings(max_examples=40 if doc is not NEAR_FLAT else 6)
    @given(mutated(argv, doc))
    def check(case):
        directory = tmp_path_factory.mktemp("fuzz")
        code, lines = run_fuzzed(directory, *case)
        manifest = directory / "out" / "manifest.json"
        assert code in (0, 1, 2)
        if code == 0:
            assert lines == []
        else:
            prefix = {1: "config error: ", 2: "check failed: "}[code]
            assert len(lines) == 1 and lines[0].startswith(prefix), lines
        if code == 1:
            assert not manifest.exists()
        else:
            assert read_manifest(directory / "out")["passed"] is (code == 0)

    check()
