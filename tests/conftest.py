import os

# One BLAS/OpenMP thread, set before numpy is first imported: unpinned
# OpenBLAS threads slow the small matrix products of `rq` by an order of
# magnitude when another process holds the second core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from brepcodec.model import BrepModel, Edge, normalize
from brepcodec.primitives import box, l_bracket, merge_models, ngon_prism, seam_cylinder, through_hole_box


@pytest.fixture(scope="session")
def unit_cube():
    return box()


@pytest.fixture(scope="session")
def cube_normed():
    return normalize(box())[0]


@pytest.fixture(scope="session")
def cylinder_normed():
    return normalize(seam_cylinder())[0]


@pytest.fixture(scope="session")
def hole_box_normed():
    return normalize(through_hole_box())[0]


@pytest.fixture(scope="session")
def all_primitives():
    return {
        "box": box(),
        "prism": ngon_prism(),
        "cylinder": seam_cylinder(),
        "hole_box": through_hole_box(),
        "l_bracket": l_bracket(),
        "two_cubes": merge_models([box(), box(at=(2.0, 0.0, 0.0))]),
    }


def as_polyline_model(model: BrepModel) -> BrepModel:
    """Replace every straight edge curve with its 2-point polyline."""
    from brepcodec.geometry import LineSegment, PolylineCurve

    edges = []
    for e in model.edges:
        assert isinstance(e.curve, LineSegment)
        curve = PolylineCurve(np.stack([e.curve.p0, e.curve.p1]))
        edges.append(Edge(curve=curve, v0=e.v0, v1=e.v1, halfedges=e.halfedges))
    return BrepModel(vertices=model.vertices, edges=edges,
                     halfedges=model.halfedges, loops=model.loops,
                     faces=model.faces)
