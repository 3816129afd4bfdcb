"""Two independent roads to (d, d_bar, d_under), forced to agree.

The closed-form engine computes correction terms from partial-sum sequences
of the Y-basis coefficients; the exact oracle builds an explicit GF(2)[U]
iota-complex (a tensor product of standard complexes) and reads off its towers.
Neither knows about the other, which is what makes the agreement a check.
"""

import itertools

from hfi.complexes import correction_terms as oracle_terms
from hfi.cterms import correction_terms as engine_terms
from hfi.localclass import LocalClass, Y
from hfi.report import class_complex

print(f"{'class':<28} {'engine':<18} oracle")
for i, j in itertools.combinations_with_replacement(range(1, 4), 2):
    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        cls = si * Y(i) + sj * Y(j)
        engine = engine_terms(cls)
        oracle = oracle_terms(class_complex(cls))
        mark = "ok" if engine == oracle else "MISMATCH"
        print(f"{str(cls):<28} {str(tuple(map(int, engine))):<18} "
              f"{tuple(map(int, oracle))}  {mark}")
        assert engine == oracle
