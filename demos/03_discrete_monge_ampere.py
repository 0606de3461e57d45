# %% [markdown]
"""
# The subgradient measure and the discrete Dirichlet problem

A convex piecewise linear function spreads its curvature over finitely
many points: each node carries the volume of its subgradient cell.  This
script computes that measure exactly, cross-checks it against a
brute-force rasterization, and then runs the inverse direction: solving
for the convex function with prescribed masses.
"""

# %%
from fractions import Fraction as F

import numpy as np

from nama import (ConvexPL, Interval, Polygon, TargetMeasure, ma_measure,
                  ma_measure_oracle, solve, strict_convexity_report)

# %% [markdown]
"""
## 1. A square pyramid

Values 1 at the corners of [-1, 1]^2 and 0 at the center.  The only
interior node is the apex; its subgradient cell is the convex hull of
the four facet gradients (0, +-1) and (+-1, 0), a diamond of area 2.
"""

# %%
dom = Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
nodes = [(-1, -1), (1, -1), (1, 1), (-1, 1), (0, 0)]
pyramid = ConvexPL(dom, nodes, [1, 1, 1, 1, 0])
measure = ma_measure(pyramid)
for nd, mass in zip(measure.nodes, measure.masses):
    if mass:
        print(f"node ({float(nd[0]):g}, {float(nd[1]):g}) carries mass "
              f"{mass}")
print("total:", measure.total())

# %% [markdown]
"""
The independent check rasterizes the gradient image on a fine grid and
counts cells; it converges to the exact masses as the resolution grows.
"""

# %%
oracle = ma_measure_oracle(pyramid, resolution=800)
print("oracle apex mass:", oracle[-1], " (exact: 2)")
print("strictly convex nodes:", strict_convexity_report(pyramid).strict)

# %% [markdown]
"""
## 2. One dimension is exactly solvable

A uniform target of density 2 on [0, 1] with zero boundary values is the
discrete second-derivative problem; the solver runs a direct tridiagonal
pass in rational arithmetic and lands on x^2 - x with no error at all.
"""

# %%
N = 11
interval = Interval(0, 1)
grid = [(F(k, N - 1),) for k in range(N)]
target = TargetMeasure.from_density(interval, grid, 2)
result = solve(interval, target, {(F(0),): F(0), (F(1),): F(0)},
               nodes=grid)
worst = max(abs(v - (x * x - x))
            for (x,), v in zip(result.solution.nodes,
                               result.solution.values))
print("method:", result.method, " worst deviation from x^2 - x:", worst)

# %% [markdown]
"""
## 3. Two dimensions: damped Newton

On the unit square with the boundary trace of |x|^2/2 and the matching
uniform target, the damped Newton iteration, started from the boundary
envelope minus a strictly convex bump, reproduces the quadratic at every
node; the printed residual is the max-norm error of the cell volumes
against their targets, and each cell evaluation computes every interior
cell once.
"""

# %%
square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
per = 9
grid2 = [(F(i, per - 1), F(j, per - 1))
         for i in range(per) for j in range(per)]
target2 = TargetMeasure.from_density(square, grid2, 1)
result2 = solve(square, target2, lambda nd: (nd[0] ** 2 + nd[1] ** 2) / 2,
                nodes=grid2, tol=1e-8)
sup = max(abs(float(v) - (float(x) ** 2 + float(y) ** 2) / 2)
          for (x, y), v in zip(result2.solution.nodes,
                               result2.solution.values))
print(f"converged: {bool(result2.converged)} in {result2.iterations} "
      f"cell evaluations, mass residual {float(result2.residual):.2e}")
print(f"sup distance to the quadratic: {sup:.2e}")

# %% [markdown]
"""
## 4. A random function against the oracle

The cells read off the lifted hull's facet gradients and the rasterized
oracle are written independently; agreement on a random convex lift is a
strong consistency check of both.
"""

# %%
rng = np.random.default_rng(1)
pts = sorted({(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)}
             | {tuple(np.round(rng.uniform(-1, 1, 2), 6))
                for _ in range(12)})
A = np.array([[1.3, 0.2], [0.2, 0.8]])
vals = [float(0.5 * np.array(p) @ A @ np.array(p)) for p in pts]
cpl = ConvexPL(dom, pts, vals)
exact = ma_measure(cpl)
approx = ma_measure_oracle(cpl, resolution=1200)
dev = max(abs(float(m) - o) for m, o in zip(exact.masses, approx))
print(f"worst node deviation at resolution 1200: {dev:.2e}")
print(f"totals: exact {float(exact.total()):.6f}, "
      f"oracle {approx.sum():.6f}")
