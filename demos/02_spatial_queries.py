"""Spatial index queries: nearest neighbors and radius search.

The index answers the two queries planeops makes: the k nearest other
points of cloud points (normal estimation) and the points in a sphere
around each of many centres (local sampling). Shows that both return what
a brute-force scan does (neighbours at exactly equal distance come in
cKDTree's order, not by index), and how the index pays off once the cloud
is large, most of all when many queries go in one batched call.
"""

import time

import numpy as np

from planeops import KdTree

rng = np.random.default_rng(1)
points = rng.uniform(0, 2, size=(50000, 3))

t0 = time.perf_counter()
tree = KdTree(points)
print(f"built index over {len(tree)} points in {1000 * (time.perf_counter() - t0):.0f} ms")

dists, idx = tree.knn([0], k=5)
print(f"5 nearest other points to point 0 at {np.round(points[0], 3)}:")
for d, i in zip(dists[0], idx[0]):
    print(f"  index {i:5d} at {d:.4f} m")

centres = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
balls = tree.radius_search(centres, 0.1)
for centre, row in zip(centres, balls):
    print(f"points within 0.10 m of {centre}: {int((row >= 0).sum())}")
print(f"the rows are padded with -1 to the larger ball: shape {balls.shape}")

# tree vs full scan, the neighbours of 200 cloud points
own = rng.choice(points.shape[0], size=200, replace=False)
t0 = time.perf_counter()
for i in own:
    tree.knn([i], k=10)
tree_ms = 1000 * (time.perf_counter() - t0)

t0 = time.perf_counter()
tree.knn(own, k=10)
batch_ms = 1000 * (time.perf_counter() - t0)

t0 = time.perf_counter()
for i in own:
    d = ((points - points[i]) ** 2).sum(axis=1)
    np.argsort(d)[1:11]
scan_ms = 1000 * (time.perf_counter() - t0)
print(f"200 x knn(10): one at a time {tree_ms:.0f} ms, batched {batch_ms:.1f} ms, full scan {scan_ms:.0f} ms")

# agreement with the scan on one cloud point, which is not its own neighbour
i = own[0]
d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
d[i] = np.inf
tree_d, tree_idx = tree.knn([i], k=10)
print("same distances as brute force:", np.array_equal(tree_d[0], np.sort(d)[:10]),
      "and the same neighbours:", np.array_equal(np.sort(tree_idx[0]), np.sort(np.argsort(d)[:10])))
