"""End-to-end tests of the command line interface, run in process."""

import csv
import io
import json
from fractions import Fraction as F

import numpy as np
import pytest

from nama import cli, config
from nama.cli import (MAX_CALABI_N, MAX_FORM_DIM, MAX_GCALABI_DIM,
                      MAX_HYBRID_N, MAX_ORACLE_GRID, MAX_SAMPLE_COORDS,
                      MAX_SOLVE_GRID, build_parser, main)
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
    assert manifest["options"]["config_document"]["n"] == 1


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
    doc = {"cycle": {"degrees": [1, 1, 1], "coefficients": [0, 0, 0]}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", "--mode", "vilsmeier", cfg,
                 "--out", str(out)]) == 0
    assert main(["compare", "vilsmeier", "--mode", "pde", cfg,
                 "--out", str(out)]) == 1
    assert main(["compare", cfg, "--out", str(out)]) == 1


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
    (["namma"], dict(SEGMENT_MODEL, coefficients={"0": "0", "1": "1/4"})),
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


@pytest.mark.parametrize("argv,doc", SUBCOMMANDS,
                         ids=[" ".join(a[:2]) for a, _ in SUBCOMMANDS])
def test_every_subcommand_reruns_byte_identical(tmp_path, argv, doc):
    argv = argv_for(tmp_path, argv, doc) + ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert main(argv) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert first == second
    assert len(first) == 2 and "manifest.json" in first
    # one line of strict JSON
    manifest = first["manifest.json"]
    assert manifest.endswith(b"\n") and manifest.count(b"\n") == 1
    assert read_manifest(tmp_path / "out")["passed"] is True


@pytest.mark.parametrize("argv,doc", [s for s in SUBCOMMANDS if s[1]],
                         ids=[" ".join(a[:2]) for a, d in SUBCOMMANDS if d])
def test_each_run_loads_its_config_once(tmp_path, monkeypatch, argv, doc):
    calls = []
    load = config.load_document

    def counting(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(config, "load_document", counting)
    argv = argv_for(tmp_path, argv, doc)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("rows", ["1,2\n3,4\n", "1,2,3\n2,4,5\n"],
                         ids=["non-symmetric", "non-square"])
def test_slag_check_rejects_an_invalid_hessian(tmp_path, capsys, rows):
    path = tmp_path / "hessian.csv"
    path.write_text(rows)
    assert main(["geometry", "slag-check", "--hessian", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


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


@pytest.mark.parametrize("argv, stage", [
    (["pushforward", "--level", "0"], "sample_cy_measure"),
    (["growth"], "volume_growth_exponent"),
])
def test_hybrid_size_caps_are_accepted_without_running(
        tmp_path, monkeypatch, capsys, argv, stage):
    monkeypatch.setattr(cli, stage, lambda *args, **kwargs: stop())
    argv = ["hybrid"] + argv + ["--t-exp", "20,40",
                                "--out", str(tmp_path / "out")]
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


VALIDATE, MEASURE = ["model", "validate"], ["realma", "measure"]


@pytest.mark.parametrize("stage, key, cap, doc", [
    ("cycle_model", "cycle.degrees", config.MAX_CYCLE_LENGTH,
     lambda n: (VALIDATE,
                {"cycle": {"degrees": [1] * n, "coefficients": [0] * n}})),
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, n", [(44, 45), (1, 150)])
def test_gcalabi_checks_blocks_past_the_float_range(tmp_path, capsys, m, n):
    # (4 pi L)^44 at L = 10^6, and det Q at n = 150, overflow a float
    assert main(["geometry", "gcalabi", "--m", str(m), "--n", str(n),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert read_manifest(tmp_path / "out")["summary"]["slope"] \
        == pytest.approx(-1.0, abs=1e-6)


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
