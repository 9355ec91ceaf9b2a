"""Spatial index queries: nearest neighbors and radius search.

Shows that index queries return the same distances as a brute-force scan
(neighbours at exactly equal distance come in cKDTree's order, not by
index), and how the index pays off once the cloud is large, most of all
when many queries go in one batched call.
"""

import time

import numpy as np

from planeops import KdTree

rng = np.random.default_rng(1)
points = rng.uniform(0, 2, size=(50000, 3))

t0 = time.perf_counter()
tree = KdTree(points)
print(f"built index over {len(tree)} points in {1000 * (time.perf_counter() - t0):.0f} ms")

query = np.array([1.0, 1.0, 1.0])
dists, idx = tree.knn(query, k=5)
print("5 nearest to the center:")
for d, i in zip(dists, idx):
    print(f"  index {i:5d} at {d:.4f} m")

ball = tree.radius_search(query, 0.1)
print(f"points within 0.10 m: {ball.size}")

# tree vs full scan, 200 queries
queries = rng.uniform(0, 2, size=(200, 3))
t0 = time.perf_counter()
for q in queries:
    tree.knn(q, k=10)
tree_ms = 1000 * (time.perf_counter() - t0)

t0 = time.perf_counter()
tree.knn(queries, k=10)
batch_ms = 1000 * (time.perf_counter() - t0)

t0 = time.perf_counter()
for q in queries:
    d = ((points - q) ** 2).sum(axis=1)
    np.argsort(d)[:10]
scan_ms = 1000 * (time.perf_counter() - t0)
print(f"200 x knn(10): one at a time {tree_ms:.0f} ms, batched {batch_ms:.1f} ms, full scan {scan_ms:.0f} ms")

# agreement with the scan on a random query
q = queries[0]
d = np.sqrt(((points - q) ** 2).sum(axis=1))
tree_d, tree_idx = tree.knn(q, k=10)
print("same distances as brute force:", np.array_equal(tree_d, np.sort(d)[:10]),
      "and the same neighbours:", np.array_equal(np.sort(tree_idx), np.sort(np.argsort(d)[:10])))
