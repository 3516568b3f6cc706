"""Exact computational tools for dihedral covers of surfaces.

The package is organised bottom up:

* :mod:`dihedralcovers.fields`, :mod:`~dihedralcovers.poly`,
  :mod:`~dihedralcovers.homog`, :mod:`~dihedralcovers.linalg` -- exact
  arithmetic over Q and GF(p) (:mod:`~dihedralcovers.graded`: the
  graded kernels of the tests' oracle of tensor);
* :mod:`~dihedralcovers.double_cover` -- rank-two bundle pairs on a
  hyperelliptic double cover of the line, with tensor, inverse and
  isomorphism testing;
* :mod:`~dihedralcovers.hyperelliptic` -- Mumford arithmetic on the
  Jacobian, Riemann-Roch spaces, and the dictionary between line
  bundles and bundle pairs (tensor is one Cantor addition in it),
  including torsion certificates;
* :mod:`~dihedralcovers.dihedral` and
  :mod:`~dihedralcovers.cover_algebra` -- dihedral character theory and
  the coordinate algebra of a simple dihedral cover;
* :mod:`~dihedralcovers.cover_geometry` -- numerical invariants and
  smoothness checks for simple and almost-simple covers of the plane;
* :mod:`~dihedralcovers.deformations` -- cohomology of twisted forms on
  projective space and deformation dimension counts;
* :mod:`~dihedralcovers.cli` -- a small command line front end.

All computations are exact; no floating point is used anywhere.
"""

__version__ = "0.1.0"
