# %% [markdown]
"""
# Driving the toolkit from configuration files

Every capability is also reachable through the ``nama`` console command:
strict JSON configs in, CSV tables plus a manifest out.  Runs are
deterministic, so the same invocation always produces byte-identical
files.  This script exercises the command line in process.
"""

# %%
import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

from nama.cli import main

workdir = pathlib.Path(tempfile.mkdtemp(prefix="nama-demo-"))
print("writing into", workdir)

# %% [markdown]
"""
## 1. A model config

The model section carries the combinatorial data; rational numbers are
written as "p/q" strings because floats are rejected wherever exactness
matters.
"""

# %%
model_doc = {
    "n": 1,
    "semistable": True,
    "divisors": [{"id": 0}, {"id": 1}],
    "faces": [[0], [1], [0, 1]],
    "intersection_table": [
        {"L_power": 1, "stratum": [], "value": "2"},
        {"L_power": 1, "stratum": [0], "value": "1"},
        {"L_power": 1, "stratum": [1], "value": "1"},
        {"L_power": 0, "stratum": [0, 1], "value": "1"},
        {"L_power": 0, "divisor_powers": {"0": 1}, "stratum": [0],
         "value": "-1"},
        {"L_power": 0, "divisor_powers": {"1": 1}, "stratum": [0],
         "value": "1"},
        {"L_power": 0, "divisor_powers": {"0": 1}, "stratum": [1],
         "value": "1"},
        {"L_power": 0, "divisor_powers": {"1": 1}, "stratum": [1],
         "value": "-1"},
    ],
    "coefficients": {"0": "0", "1": "1/4"},
}
cfg = workdir / "segment.json"
cfg.write_text(json.dumps(model_doc, indent=2))

code = main(["namma", str(cfg), "--out", str(workdir / "run1")])
print("exit status:", code)

# %% [markdown]
"""
## 2. What a run leaves behind

A CSV table per result plus ``manifest.json`` echoing the resolved
options, the output list, and a machine-readable summary.  The manifest
is one line of strict JSON.  It names the config by its path and the
SHA-256 digest of its bytes rather than copying it.
"""

# %%
text = (workdir / "run1" / "manifest.json").read_text()
manifest = json.loads(text)
print("lines:     ", text.count("\n"))
print("outputs:   ", manifest["outputs"])
print("digest of the config file:", manifest["options"]["config_sha256"]
      == hashlib.sha256(cfg.read_bytes()).hexdigest())
print("summary:   ", manifest["summary"])
print((workdir / "run1" / "namma.csv").read_text())

# %% [markdown]
"""
## 3. Failure statuses are part of the contract

Exit 0 is a passing check, exit 2 a failing one, exit 1 a configuration
problem.  A lower-face density check against a wrong expected value
demonstrates the failing path; its one-line message, which the command
prints on stderr, is caught here to show it.
"""

# %%
bad_doc = dict(model_doc)
bad_doc.pop("coefficients")
bad_doc["potential"] = {"face": "0", "gradients": {"0": 0, "1": 0},
                        "hessian": []}
bad_doc["expected"] = 2
bad_cfg = workdir / "bad.json"
bad_cfg.write_text(json.dumps(bad_doc))
stderr = io.StringIO()
with contextlib.redirect_stderr(stderr):
    code = main(["compare", "lowerface", str(bad_cfg),
                 "--out", str(workdir / "run2")])
print("exit status:", code)
print("stderr:", stderr.getvalue().strip())
print("recorded failure:",
      json.loads((workdir / "run2" / "manifest.json")
                 .read_text())["summary"]["failure"])

# %% [markdown]
"""
## 4. Determinism

Repeating a seeded Monte Carlo run reproduces every output byte.
"""

# %%
args = ["hybrid", "growth", "--n", "2", "--t-exp", "20,40,80",
        "--samples", "20000", "--seed", "3",
        "--out", str(workdir / "run3")]
assert main(args) == 0
first = (workdir / "run3" / "growth.csv").read_bytes()
assert main(args) == 0
second = (workdir / "run3" / "growth.csv").read_bytes()
print("byte-identical rerun:", first == second)
