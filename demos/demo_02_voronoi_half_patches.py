"""Voronoi partitioning of face parameter domains and half-patch sampling.

Each face is split into cells owned by its bounding half-edges; every
half-edge then samples its own cell: 6 on-curve points, each extended by
3 surface points marching into the face.  `extract_vhp` returns one
descriptor row per half-edge; `unpack_descriptor` splits a row into its
half-patch, successor samples and inner/outer label.

Run:  python demos/demo_02_voronoi_half_patches.py
"""
import numpy as np

from brepcodec import SamplingConfig, extract_vhp, normalize, voronoi_assign
from brepcodec.primitives import seam_cylinder, through_hole_box
from brepcodec.sampler import unpack_descriptor

cfg = SamplingConfig()
model, _ = normalize(through_hole_box())

print("=== Voronoi cells on the plate with the hole ===")
face = next(f for f in range(len(model.faces)) if model.faces[f].inners)
labels = voronoi_assign(model, face)
ids, counts = np.unique(labels[labels >= 0], return_counts=True)
print(f"face {face}: {len(ids)} half-edges own "
      f"{(labels >= 0).sum()} of {labels.size} grid samples")
for he, n in zip(ids, counts):
    kind = model.loops[model.halfedges[he].loop].kind
    print(f"  half-edge {he:3d} ({kind:5s} loop): {n:5d} cells")

print()
print(f"=== one record per half-edge: (6 x 4 + 4) x 3 + 1 = {cfg.descriptor_length} scalars ===")
descs = extract_vhp(model, cfg)
half_patch, next_samples, label = unpack_descriptor(descs[0], cfg)
print(f"descriptor matrix: {descs.shape} (= 2 x {len(model.edges)} edges)")
print(f"half-patch shape: {half_patch.shape}, "
      f"next samples: {next_samples.shape}, label: {label}")
inner = int((descs[:, -1] == 0).sum())
print(f"inner-labeled records: {inner} (the two hole rims, 4 half-edges each)")

print()
print("=== on a cylinder wall the walk climbs isoparametric lines ===")
cyl, _ = normalize(seam_cylinder())
row = unpack_descriptor(extract_vhp(cyl, cfg)[0], cfg)[0][2]  # one curve sample's column
print("sample column (x, y, z):")
print(np.round(row, 4))
radii = np.hypot(row[:, 0] - 0.498, row[:, 1] - 0.498)
print(f"all on the wall: radial spread = {np.ptp(radii):.2e}")
