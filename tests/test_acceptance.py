"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(written past pytest's capture so the lines always appear).  The tolerances
are exact; no criterion may be weakened.
"""

import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from dense_reference import (default_truncation, intersection_form,
                             truncated_correction_terms)
from hfi import complexes
from hfi.brieskorn import (BrieskornParams, brieskorn_class, brieskorn_root,
                           seifert_plumbing)
from hfi.cli import main
from hfi.complexes import (correction_terms as oracle_terms, dual,
                           find_local_map, locally_equivalent, tensor,
                           trivial_complex)
from hfi.cterms import (STProfile, asymptotic_check, correction_terms,
                        lemma_identity, realization_family)
from hfi.localclass import I, LocalClass, Y, d_invariant, mu_bar
from hfi.monotone import (M, WeaklyMonotoneRoot, decompose, monotone_subroot,
                          simplify_weak, swap, to_profile)
from hfi.plumbing import is_negative_definite
from hfi.report import class_complex, evaluate_text
from hfi.roots import SymmetricRootProfile, standard_complex


# one line per criterion; rendered in the terminal summary by conftest.py
RESULTS: list[str] = []


def _criterion(num, name, fn):
    t0 = time.monotonic()
    try:
        fn()
    except BaseException:
        line = f"criterion {num:2d} {name}: FAIL"
        RESULTS.append(line)
        print(line, flush=True)
        raise
    dt = time.monotonic() - t0
    line = f"criterion {num:2d} {name}: PASS ({dt:.2f}s)"
    RESULTS.append(line)
    print(line, flush=True)


def std(*pairs):
    return standard_complex(to_profile(M(*pairs)))


def test_criterion_01_sigma_5_8_13_end_to_end(capsys):
    def body():
        t0 = time.monotonic()
        r = evaluate_text("Sigma(5,8,13)")
        assert main(["eval", "Sigma(5,8,13)"]) == 0
        elapsed = time.monotonic() - t0
        capsys.readouterr()
        assert r.total == Y(2) - Y(1) + I(-2)
        assert r.mu_bar == -1
        assert r.d == 4
        assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"
    _criterion(1, "Sigma(5,8,13) end-to-end", body)


def test_criterion_02_sigma_13_21_34_end_to_end():
    def body():
        t0 = time.monotonic()
        _, cls = brieskorn_class(BrieskornParams(13, 21, 34))
        root = monotone_subroot(brieskorn_root(BrieskornParams(13, 21, 34)))
        elapsed = time.monotonic() - t0
        assert cls == Y(6) + Y(4) - Y(5) + I(-2)
        assert root == M(12, 0, 10, 2)
        assert elapsed < 5.0, f"took {elapsed:.2f}s, limit 5s"
    _criterion(2, "Sigma(13,21,34) end-to-end", body)


def test_criterion_03_good_family_anchors():
    def body():
        for p in (3, 5, 7, 9):
            _, cls = brieskorn_class(BrieskornParams(p, 2 * p - 1, 2 * p + 1))
            assert cls == Y((p - 1) // 2), (p, str(cls))
        # sources: hfi.brieskorn docstring; arXiv:1704.02020, arXiv:1710.08055
        b = BrieskornParams(2, 3, 5)
        g, _ = seifert_plumbing(b)
        form = intersection_form(g)
        assert is_negative_definite(g)
        assert all(form[i][i] % 2 == 0 for i in range(g.n))  # even: Wu class 0
        signature = -g.n
        _, cls = brieskorn_class(b)
        assert cls == I(-2), f"got {cls}"
        assert d_invariant(cls) == 2
        assert correction_terms(cls) == (2, 2, 2)
        assert mu_bar(cls) == Fraction(signature, 8) == -1
        neg = evaluate_text("-Sigma(2,3,5)").total
        assert neg == I(2), f"got {neg}"
        assert d_invariant(neg) == -2
    _criterion(3, "good-family anchors", body)


def test_criterion_04_fig2_regression():
    def body():
        profile = brieskorn_class(BrieskornParams(2, 7, 15))[0]
        hf_minus_leaves = tuple(g - 2 for g in profile.leaves)
        hf_minus_angles = tuple(g - 2 for g in profile.angles)
        assert hf_minus_leaves == (-8, -4, -2, -2, -4, -8)
        assert hf_minus_angles == (-10, -6, -6, -6, -10)
    _criterion(4, "Sigma(2,7,15) profile regression", body)


def test_criterion_05_formula_vs_oracle_sweep():
    def body():
        t0 = time.monotonic()
        indices = range(1, 5)
        signs = (1, -1)
        combos = set()
        for i, si, j, sj in itertools.product(indices, signs, indices, signs):
            combos.add((tuple(sorted([(i, si), (j, sj)])), ))
            for k, sk in itertools.product(indices, signs):
                combos.add((tuple(sorted([(i, si), (j, sj), (k, sk)])), ))
        for (terms,) in sorted(combos):
            cls = LocalClass()
            for i, s in terms:
                cls = cls + (s * Y(i))
            assert correction_terms(cls) == oracle_terms(class_complex(cls)), \
                terms
        elapsed = time.monotonic() - t0
        assert elapsed < 600, f"sweep took {elapsed:.1f}s, limit 600s"
    _criterion(5, "formula-vs-oracle sweep", body)


def test_criterion_06_maxmin_minmax_identity():
    def body():
        t0 = time.monotonic()
        rng = random.Random(20260824)
        for _ in range(1000):
            s = sorted((rng.randint(1, 20) for _ in range(rng.randint(0, 8))),
                       reverse=True)
            t = sorted((rng.randint(1, 20) for _ in range(rng.randint(0, 8))),
                       reverse=True)
            assert lemma_identity(STProfile(tuple(s), tuple(t)))
        elapsed = time.monotonic() - t0
        assert elapsed < 10, f"took {elapsed:.1f}s, limit 10s"
    _criterion(6, "max-min equals min-max on 1000 profiles", body)


def test_criterion_07_absorption_oracle():
    def body():
        for x, y in ((-4, -2), (-6, -2), (-6, -4)):
            t0 = time.monotonic()
            lhs = tensor(std(0, x, y, y), std(0, x - y))
            rhs = std(0, x)
            assert find_local_map(lhs, rhs) is not None, (x, y)
            assert find_local_map(rhs, lhs) is not None, (x, y)
            assert locally_equivalent(lhs, rhs), (x, y)
            elapsed = time.monotonic() - t0
            assert elapsed < 60, f"case {(x, y)} took {elapsed:.1f}s"
    _criterion(7, "absorption identities on the oracle", body)


def _random_weak_root(rng, max_type=3, lo=-8, hi=8):
    n = rng.randint(1, max_type)
    hs = sorted((2 * rng.randint(lo // 2, hi // 2) for _ in range(n)),
                reverse=True)
    rs = sorted(min(2 * rng.randint(lo // 2, hi // 2), hs[-1])
                for _ in range(n))
    return WeaklyMonotoneRoot(tuple(zip(hs, rs)))


def test_criterion_08_swap_invariance():
    def body():
        rng = random.Random(13)
        done = 0
        while done < 50:
            x = _random_weak_root(rng)
            y = _random_weak_root(rng)
            a = rng.randint(1, x.type)
            b = rng.randint(1, y.type)
            out = swap(x, y, a, b)
            if out is None:
                continue
            nx, ny = out
            before_cls = decompose(simplify_weak(x)) + decompose(simplify_weak(y))
            after_cls = decompose(simplify_weak(nx)) + decompose(simplify_weak(ny))
            assert before_cls == after_cls, (str(x), str(y), a, b)
            before = oracle_terms(tensor(
                standard_complex(to_profile(x)), standard_complex(to_profile(y))))
            after = oracle_terms(tensor(
                standard_complex(to_profile(nx)), standard_complex(to_profile(ny))))
            assert before == after, (str(x), str(y), a, b)
            done += 1
    _criterion(8, "swap invariance on 50 random swaps", body)


def _random_symmetric_profile(rng, max_half=4, lo=-12, hi=4):
    k = rng.randint(1, max_half)
    half = sorted((2 * rng.randint(lo // 2, hi // 2) for _ in range(k)),
                  reverse=False)
    half = list(reversed(sorted(
        2 * rng.randint(lo // 2, hi // 2) for _ in range(k))))
    # descending-ish left half; angles stay below adjacent leaves
    left_angles = [min(half[i], half[i + 1]) - 2 * rng.randint(1, 3)
                   for i in range(k - 1)]
    center = half[-1] - 2 * rng.randint(1, 3)
    leaves = tuple(half + half[::-1])
    angles = tuple(left_angles + [center] + left_angles[::-1])
    return SymmetricRootProfile(leaves, angles)


def test_criterion_09_extraction_soundness():
    def body():
        t0 = time.monotonic()
        rng = random.Random(9)
        for _ in range(50):
            p = _random_symmetric_profile(rng)
            m = monotone_subroot(p)
            assert locally_equivalent(
                standard_complex(p), standard_complex(to_profile(m))), \
                (p.leaves, p.angles, str(m))
        elapsed = time.monotonic() - t0
        assert elapsed < 120, f"took {elapsed:.1f}s, limit 120s"
    _criterion(9, "subroot extraction soundness on 50 profiles", body)


def test_criterion_10_stabilization():
    def body():
        a = Y(2) - Y(1) + I(-2)
        rep = asymptotic_check(a, persist=20)
        assert rep.regime == "s-dominant"
        d = d_invariant(a)
        for k in range(rep.threshold, rep.threshold + 21):
            _, db, du = correction_terms(k * a)
            assert db == k * d and du == k * d - 4, k
        rep_n = asymptotic_check(-a, persist=20)
        assert rep_n.regime == "t-dominant"
        for k in range(rep_n.threshold, rep_n.threshold + 21):
            _, db, du = correction_terms(k * (-a))
            assert db == -k * d + 4 and du == -k * d, k
    _criterion(10, "k-fold stabilization of (Y2 - Y1)[-2]", body)


def test_criterion_11_realization_families():
    def body():
        for Mv in range(0, 5):
            for Nv in range(0, 5 - Mv):
                if Mv == 0 and Nv == 0:
                    continue
                members = set()
                for k in (0, 1, 2):
                    cls = realization_family(Mv, Nv, 0, 0, k)
                    d, db, du = correction_terms(cls)
                    assert (db - d, d - du) == (2 * Mv, 2 * Nv), (Mv, Nv, k)
                    members.add(cls)
                assert len(members) == 3, (Mv, Nv)
    _criterion(11, "realization families with prescribed gaps", body)


def test_criterion_12_group_and_duality_axioms():
    def body():
        rng = random.Random(12)
        singles = []
        for _ in range(200):
            w = _random_weak_root(rng, max_type=2, lo=-6, hi=6)
            c = standard_complex(to_profile(simplify_weak(w)))
            singles.append(c)
            d, db, du = oracle_terms(c)
            assert du <= d <= db
            dd, ddb, ddu = oracle_terms(dual(c))
            assert (dd, ddb, ddu) == (-d, -du, -db)
            n = default_truncation(c.gradings)
            assert oracle_terms(c) == truncated_correction_terms(c, n + 2)
        for i in range(0, 20, 2):
            a, b = singles[i], singles[i + 1]
            assert oracle_terms(tensor(a, b)) == oracle_terms(tensor(b, a))
            assert oracle_terms(tensor(a, trivial_complex())) == oracle_terms(a)
            assert oracle_terms(tensor(a, dual(a))) == (0, 0, 0)
    _criterion(12, "group and duality axioms on 200 complexes", body)
