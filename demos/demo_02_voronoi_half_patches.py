"""Voronoi partitioning of face parameter domains and half-patch sampling.

Each face is split into cells owned by its bounding half-edges; every
half-edge then samples its own cell: 6 on-curve points, each extended by
3 surface points marching into the face.

Run:  python demos/demo_02_voronoi_half_patches.py
"""
import numpy as np

from brepcodec import SamplingConfig, extract_vhp, normalize, voronoi_assign
from brepcodec.primitives import seam_cylinder, through_hole_box

cfg = SamplingConfig()
model, _ = normalize(through_hole_box())

print("=== Voronoi cells on the plate with the hole ===")
face = next(f for f in range(len(model.faces)) if model.faces[f].inners)
cells = voronoi_assign(model, face)
ids, counts = np.unique(cells.labels[cells.labels >= 0], return_counts=True)
print(f"face {face}: {len(ids)} half-edges own "
      f"{(cells.labels >= 0).sum()} of {cells.labels.size} grid samples")
for he, n in zip(ids, counts):
    kind = model.loops[model.halfedges[he].loop].kind
    print(f"  half-edge {he:3d} ({kind:5s} loop): {n:5d} cells")

print()
print(f"=== one record per half-edge: (6 x 4 + 4) x 3 + 1 = {cfg.descriptor_length} scalars ===")
records = extract_vhp(model, cfg)
r = records[0]
print(f"records: {len(records)} (= 2 x {len(model.edges)} edges)")
print(f"half-patch shape: {r.half_patch.samples.shape}, "
      f"next samples: {r.next_samples.shape}, label: {r.label}")
inner = sum(1 for rec in records if rec.label == 0)
print(f"inner-labeled records: {inner} (the two hole rims, 4 half-edges each)")

print()
print("=== on a cylinder wall the walk climbs isoparametric lines ===")
cyl, _ = normalize(seam_cylinder())
wall_records = extract_vhp(cyl, cfg)
row = wall_records[0].half_patch.samples[2]  # one curve sample's column
print("sample column (x, y, z):")
print(np.round(row, 4))
radii = np.hypot(row[:, 0] - 0.498, row[:, 1] - 0.498)
print(f"all on the wall: radial spread = {np.ptp(radii):.2e}")
