"""Brieskorn spheres are locally equivalent to the complexes of their classes.

The pipeline reads a Y-basis class off the graded root of a Brieskorn
sphere.  Here the exact local-map search checks that step on the complexes
themselves: the standard complex of the graded root (a tensor product with
a dual for a difference of spheres) admits local maps both ways to
``report.class_complex`` of its class, and two spheres of different classes
do not.
"""

from hfi.brieskorn import BrieskornParams, brieskorn_class
from hfi.complexes import dual, locally_equivalent, tensor
from hfi.report import class_complex
from hfi.roots import standard_complex


def sphere(a1, a2, a3):
    """(standard complex of the graded root, class) of Sigma(a1, a2, a3)."""
    profile, cls = brieskorn_class(BrieskornParams(a1, a2, a3))
    return standard_complex(profile), cls


def check(name, x, y, want):
    got = locally_equivalent(x, y)
    print(f"{name}: {x.n} and {y.n} generators, locally equivalent: {got}")
    assert got == want, name


s237, c237 = sphere(2, 3, 7)
s5813, c5813 = sphere(5, 8, 13)
s2715, c2715 = sphere(2, 7, 15)
s2311, c2311 = sphere(2, 3, 11)

print(f"Sigma(2,3,7) = {c237}, Sigma(5,8,13) = {c5813}, "
      f"Sigma(2,7,15) = {c2715}, Sigma(2,3,11) = {c2311}")

# each root complex against the complex of its class
check("Sigma(2,3,7) vs its class", s237, class_complex(c237), True)
check("Sigma(5,8,13) vs its class", s5813, class_complex(c5813), True)
# a difference of spheres: the tensor product with the dual
check("Sigma(5,8,13) - Sigma(2,7,15) vs its class",
      tensor(s5813, dual(s2715)), class_complex(c5813 - c2715), True)
# the same Y-basis element with shifts 2 and 0: not locally equivalent
check("Sigma(2,3,7) vs Sigma(2,3,11)", s237, s2311, False)
