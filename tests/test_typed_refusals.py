"""Malformed calls into the library raise ValueError or TypeError.

One seeded table: fixed malformed arguments for each entry point below,
and more drawn from one seed.  Each must be refused with one of the two
typed errors, never an AttributeError, a KeyError, an IndexError or an
answer.
"""

import random
from fractions import Fraction

from hfi import complexes
from hfi.brieskorn import BrieskornParams, seifert_plumbing, tau_sequence
from hfi.localclass import LocalClass
from hfi.monotone import M
from hfi.plumbing import PlumbingGraph, chi
from hfi.roots import standard_complex

NOT_INTS = (0.5, 1.0, True, False, "1", None, Fraction(1, 2), Fraction(1))
NOT_COMPLEXES = (None, 0, "x", (), M(2, 0))


def _malformed_calls(rng):
    """(label, call) for each malformed call: the fixed ones, then 20 draws."""
    one = PlumbingGraph([("a", -2)], [])
    g, center = seifert_plumbing(BrieskornParams(2, 3, 7))
    calls = []
    for bad in NOT_COMPLEXES:
        calls += [(f"complex_to_json({bad!r})", lambda bad=bad: complexes.complex_to_json(bad)),
                  (f"standard_complex({bad!r})", lambda bad=bad: standard_complex(bad))]
    for obj in ({}, {"shift": "0"}, {"coeffs": {}}, "{}", [], None):
        calls.append((f"LocalClass.from_json({obj!r})", lambda obj=obj: LocalClass.from_json(obj)))
    for value in NOT_INTS:
        calls.append((f"chi(one vertex, [{value!r}])", lambda value=value: chi(one, [value])))
    for steps in (-5, -1) + NOT_INTS:
        calls.append((f"tau_sequence(steps={steps!r})",
                      lambda steps=steps: tau_sequence(g, center, steps)))
    for _ in range(20):
        x = [rng.randint(-3, 3) for _ in range(g.n)]
        x[rng.randrange(g.n)] = rng.choice(NOT_INTS)
        steps = rng.choice((rng.randint(-50, -1), rng.choice(NOT_INTS)))
        obj = {"coeffs": {str(rng.randint(1, 5)): rng.randint(-3, 3)},
               "shift": str(rng.randint(-4, 4))}
        del obj[rng.choice(("coeffs", "shift"))]
        calls += [(f"chi({x!r})", lambda x=x: chi(g, x)),
                  (f"tau_sequence(steps={steps!r})",
                   lambda steps=steps: tau_sequence(g, center, steps)),
                  (f"LocalClass.from_json({obj!r})", lambda obj=obj: LocalClass.from_json(obj))]
    return calls


def test_malformed_calls_raise_a_typed_error():
    untyped = []
    for label, call in _malformed_calls(random.Random(20170660)):
        try:
            call()
        except (ValueError, TypeError):
            continue
        except Exception as e:  # any other error is a finding
            untyped.append(f"{label}: {type(e).__name__}: {e}")
            continue
        untyped.append(f"{label}: answered")
    assert untyped == []
