"""Build solid primitives, inspect their topology, and validate them.

Run:  python demos/demo_01_build_and_validate.py
"""
import numpy as np

from brepcodec import euler_report, normalize, validate
from brepcodec.primitives import box, merge_models, ngon_prism, seam_cylinder, through_hole_box

print("=== primitives and their per-shell (V, E, F, H, genus) ===")
for name, model in [
    ("box", box(size=(1.0, 0.8, 0.6))),
    ("hex prism", ngon_prism(n=6, radius=0.5, height=1.2)),
    ("seam-cut cylinder", seam_cylinder(radius=0.4, height=1.0)),
    ("box with through-hole", through_hole_box()),
]:
    report = validate(model)
    shells = euler_report(model)
    stats = ", ".join(
        f"V={s.vertices} E={s.edges} F={s.faces} H={s.inner_loops} g={int(s.genus)}"
        for s in shells)
    print(f"{name:24s} watertight={report.watertight}  {stats}")

print()
print("=== the through-hole box satisfies the loop-corrected Euler formula ===")
s = euler_report(through_hole_box())[0]
print(f"V - E + F - H = {s.vertices} - {s.edges} + {s.faces} - {s.inner_loops} "
      f"= {s.vertices - s.edges + s.faces - s.inner_loops} = 2(1 - {int(s.genus)})")

print()
print("=== a two-body assembly normalizes into the unit box ===")
assembly = merge_models([box(), seam_cylinder(at=(2.0, 0.5, 0.0))])
normed, record = normalize(assembly)
print(f"shells: {len(euler_report(normed))}")
print(f"scale: {record.scale:.6f}, offset: {np.round(record.offset, 4)}")
print(f"vertex range after normalization: "
      f"[{normed.vertices.min():.4f}, {normed.vertices.max():.4f}]")
print(f"inverse transform recovers the original vertices exactly: "
      f"{np.allclose(record.invert(normed.vertices), assembly.vertices)}")
