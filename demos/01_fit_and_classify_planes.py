"""Fitting planes to points and classifying their orientation.

Walks through the core primitives: least-squares plane fits, point-to-plane
distances, and the horizontal/vertical/other classification used everywhere
else in the package.
"""

import numpy as np

from planeops import Orientation, classify_orientations, fit_plane, plane_distances

rng = np.random.default_rng(0)

# A noisy tilted plane: z = 0.2x - 0.1y + 0.5
xy = rng.uniform(-1, 1, size=(500, 2))
points = np.column_stack([xy, 0.2 * xy[:, 0] - 0.1 * xy[:, 1] + 0.5])
points += rng.normal(scale=0.002, size=points.shape)

model = fit_plane(points)
print("fitted centroid:", np.round(model.centroid, 4))
print("fitted normal:  ", np.round(model.normal, 4))

expected = np.array([0.2, -0.1, -1.0])
expected /= np.linalg.norm(expected)
angle = np.degrees(np.arccos(abs(model.normal @ expected)))
print(f"angle to analytic normal: {angle:.4f} deg")

residuals = np.abs((points - model.centroid) @ model.normal)
print(f"max residual: {residuals.max() * 1000:.2f} mm (noise sigma was 2 mm)")

# Distances from arbitrary points
probes = [(0, 0, 0.5), (0, 0, 1.5)]
for p, d in zip(probes, plane_distances(np.array(probes), model.centroid, model.normal)):
    print(f"distance from {p}: {d:.4f} m")

# Orientation classes, 7 degree tolerance around the up axis, for a stack of normals
normals, labels = zip(
    ((0, 0, 1), "straight up"),
    ((np.sin(np.radians(5)), 0, np.cos(np.radians(5))), "5 deg off vertical axis"),
    ((1, 0, 0), "sideways"),
    ((np.sin(np.radians(45)), 0, np.cos(np.radians(45))), "45 deg slope"),
)
for label, code in zip(labels, classify_orientations(normals, up=(0, 0, 1), tol_degrees=7.0)):
    print(f"normal {label:>24}: {Orientation(code).name}")
