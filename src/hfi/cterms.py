"""Closed-form involutive correction terms of Y-basis classes.

Given a reduced class (Y_{s_1} + .. + Y_{s_m}) - (Y_{t_1} + .. + Y_{t_n})
(both lists weakly decreasing), the lower correction term is
d-under = d + max-min of the partial-sum sequences P and Q.  The upper one
follows by duality, d-bar(a) = -d-under(-a), and -a has the same s and t
lists swapped, so d-bar is read off the one expansion of a.  The dual min-max
bound T is implemented independently of the max-min bound S so that their
equality is a genuine cross-check rather than code reuse.

The class is expanded once into its s and t lists, one entry per unit of
|c_i|, by walking its sorted coefficients from the top (so no sort), and
each bound takes O(m + n) steps, each row keeping its own running minimum or
maximum.  The weight sum |c_i| is capped at MAX_CLASS_WEIGHT, which bounds
that expansion: ``hfi eval "6000*Y(1) - 6000*Y(2)"``, a balanced class at
the cap, took 0.02 s with CPython 3.11 on one core of a shared x86-64
server, and ``Y(1) + Y(2) + ... + Y(12000)``, 12,000 atoms at the cap,
0.27 s; ``report.evaluate`` builds the total in one ``LocalClass`` call,
where a running sum, re-sorting the growing class per atom, took 31 s
(``evaluate_text``, single runs).  A heavier class raises ClassWeightError,
a ValueError, before anything is expanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .localclass import LocalClass, Y, d_invariant, mu_bar, rational

MAX_CLASS_WEIGHT = 12_000


class ClassWeightError(ValueError):
    """The weight sum |c_i| of a class exceeds MAX_CLASS_WEIGHT."""


def _weight(a: LocalClass) -> int:
    return sum(abs(c) for _, c in a.coeffs)


@dataclass(frozen=True)
class STProfile:
    s: tuple[int, ...]  # weakly decreasing positive-part indices, with multiplicity
    t: tuple[int, ...]  # weakly decreasing negative-part indices

    def __post_init__(self):
        for name, seq in (("s", self.s), ("t", self.t)):
            for x in seq:
                if type(x) is not int or x <= 0:
                    raise ValueError(f"{name} indices must be positive ints, got {x!r}")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError(f"{name} must be weakly decreasing")

    @property
    def m(self) -> int:
        return len(self.s)

    @property
    def n(self) -> int:
        return len(self.t)

    @staticmethod
    def of_class(a: LocalClass) -> "STProfile":
        weight = _weight(a)
        if weight > MAX_CLASS_WEIGHT:
            raise ClassWeightError(
                f"class has weight sum |c_i| = {weight}, above the limit "
                f"MAX_CLASS_WEIGHT = {MAX_CLASS_WEIGHT}")
        s: list[int] = []
        t: list[int] = []
        for i, c in reversed(a.coeffs):
            (s if c > 0 else t).extend([i] * abs(c))
        return STProfile(tuple(s), tuple(t))


def p_q_sequences(st: STProfile) -> tuple[list[int], list[int]]:
    """P_i = 2(sum t_(<=i) - sum s_(<=i)) for 0 <= i <= min(m, n);
    Q_i = 2(sum t_(<=i) - sum s_(<=i+1)) for 0 <= i <= min(m - 1, n)."""
    m, n = st.m, st.n
    ssum = [0]
    for x in st.s:
        ssum.append(ssum[-1] + x)
    tsum = [0]
    for x in st.t:
        tsum.append(tsum[-1] + x)
    P = [2 * (tsum[i] - ssum[i]) for i in range(min(m, n) + 1)]
    Q = [2 * (tsum[i] - ssum[i + 1]) for i in range(min(m - 1, n) + 1)]
    return P, Q


def d_lower_offset(st: STProfile) -> int:
    """d-under minus d: max over k of min(P_0..P_k, Q_k).

    The Q_k entry is deleted in the last row when min(m, n) = m (where Q_m
    does not exist).
    """
    P, Q = p_q_sequences(st)
    K = min(st.m, st.n)
    best = None
    for k in range(K + 1):
        low = P[k] if k == 0 else min(low, P[k])  # min(P_0..P_k)
        row = low if k == K == st.m else min(low, Q[k])
        best = row if best is None else max(best, row)
    return best


def d_upper_offset_direct(st: STProfile) -> int:
    """The dual min-max bound T, implemented independently of d_lower_offset.

    T = min over k = 0..min(m, n+1) of max(Q_0..Q_{k-1}, P_k), with the P_k
    entry deleted in the last row when min(m, n+1) = n+1 (where P_{n+1} does
    not exist).
    """
    P, Q = p_q_sequences(st)
    K = min(st.m, st.n + 1)
    best = P[0]  # row 0: the Q prefix is empty, and P_0 stays as n + 1 > 0
    for k in range(1, K + 1):
        high = Q[0] if k == 1 else max(high, Q[k - 1])  # max(Q_0..Q_{k-1})
        row = high if k == K == st.n + 1 else max(high, P[k])
        best = min(best, row)
    return best


def lemma_identity(st: STProfile) -> bool:
    """The two bounds agree: S (max-min) equals T (min-max) on every profile."""
    return d_lower_offset(st) == d_upper_offset_direct(st)


def correction_terms(a: LocalClass) -> tuple[int | Fraction, ...]:
    """(d, d-bar, d-under) of a class, from one expansion: -a expands to the
    same lists with s and t swapped and d(-a) = -d, so d-bar = d - S(t, s).
    The terms have the type of the shift: ints when it is integral, and
    Fractions otherwise.
    """
    d = d_invariant(a)
    st = STProfile.of_class(a)
    d_under = d + d_lower_offset(st)
    d_bar = d - d_lower_offset(STProfile(st.t, st.s))
    if not (d_under <= d <= d_bar):
        raise AssertionError(f"correction-term sanity violated for {a}")
    return d, d_bar, d_under


def stabilized_terms(a: LocalClass, k: int) -> tuple[int | Fraction, ...]:
    """Correction terms of the k-fold sum of a.  A k that is not a positive
    int (a bool is not an int) raises ValueError naming it.  A k-fold sum
    heavier than MAX_CLASS_WEIGHT raises ClassWeightError naming k and the
    weight of a."""
    if type(k) is not int or k <= 0:
        raise ValueError(f"k must be a positive int, got {k!r}")
    weight = _weight(a)
    if k > 1 and k * weight > MAX_CLASS_WEIGHT:
        raise ClassWeightError(
            f"the k-fold sum at k = {k} has weight {k} * {weight} = {k * weight}, "
            f"above the limit MAX_CLASS_WEIGHT = {MAX_CLASS_WEIGHT}")
    return correction_terms(k * a)


@dataclass(frozen=True)
class AsymptoticReport:
    regime: str           # "s-dominant", "t-dominant", or "one-sided ..."
    threshold: int        # least k from which the closed forms hold (and persist)
    verified_up_to: int
    d_bar_formula: str
    d_under_formula: str


def asymptotic_check(a: LocalClass, persist: int = 20) -> AsymptoticReport:
    """Find the stabilization threshold of the k-fold correction terms.

    For s_1 > t_1 the stabilized forms are d-bar = k d and
    d-under = k d - 2 s_1; for t_1 > s_1 they are d-bar = k d + 2 t_1 and
    d-under = k d.  The least k where the forms hold is located and the forms
    are verified up to threshold + ``persist``; a ``persist`` that is not a
    non-negative int (a bool is not an int) raises ValueError naming it.
    The first k-fold sum it needs that is heavier than MAX_CLASS_WEIGHT
    raises ClassWeightError naming k (``stabilized_terms``).
    """
    if type(persist) is not int or persist < 0:
        raise ValueError(f"persist must be a non-negative int, got {persist!r}")
    st = STProfile.of_class(a)
    d = d_invariant(a)
    s1 = st.s[0] if st.s else None
    t1 = st.t[0] if st.t else None
    if t1 is None and s1 is None:
        raise ValueError("zero class has no stabilization regime")
    if s1 is not None and (t1 is None or s1 > t1):
        regime = "s-dominant" if t1 is not None else "one-sided (no negative part)"
        offsets = (0, -2 * s1)  # (d-bar - k d, d-under - k d)
    else:
        regime = "t-dominant" if s1 is not None else "one-sided (no positive part)"
        offsets = (2 * t1, 0)
    bar_s, under_s = ("k*d" if o == 0 else f"k*d {'+' if o > 0 else '-'} {abs(o)}"
                      for o in offsets)

    def holds(k: int) -> bool:
        _, db, du = stabilized_terms(a, k)
        return (db - k * d, du - k * d) == offsets

    threshold = None
    for k in range(1, 200):
        if holds(k):
            threshold = k
            break
    if threshold is None:
        raise RuntimeError("no stabilization threshold found below k = 200")
    for k in range(threshold, threshold + persist + 1):
        if not holds(k):
            raise RuntimeError(
                f"stabilized forms fail to persist at k = {k} (threshold {threshold})")
    return AsymptoticReport(regime, threshold, threshold + persist, bar_s, under_s)


def realization_family(M: int, N: int, d, mu_bar_target, k: int = 0) -> LocalClass:
    """A class with d-invariant d, mu-bar as requested, d-bar - d = 2M and
    d - d-under = 2N; distinct k give distinct classes with the same invariants.

    Built as Y_a - Y_b - Y_c - n Y_1 (a = M+2N+k, b = M+N+k, c = M+N) when the
    shift-adjusted d is at most -2M, and as the companion ansatz with +2 Y_1
    otherwise; the N = 0 case is realized by negating an (0, M) family.
    M, N and k must be non-negative ints (a bool is not an int); a ValueError
    names the first that is not.
    """
    for name, v in (("M", M), ("N", N)):
        if type(v) is not int or v < 0:
            raise ValueError(f"M and N must be non-negative ints, got {name} = {v!r}")
    if M == 0 and N == 0:
        raise ValueError("d-bar = d = d-under admits only the trivial class; "
                         "need M, N not both zero")
    d = rational(d)
    mu = rational(mu_bar_target)
    if (d / 2).denominator != 1 or mu.denominator != 1:
        raise ValueError("need an even integer d and an integer mu-bar")
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be non-negative and an int, got {k!r}")
    if N == 0:
        return -realization_family(0, M, -d, -mu, k)
    shift = 2 * mu
    d_prime = d + shift  # d-invariant the unshifted coefficients must carry
    if d_prime <= -2 * M:
        n_extra = int(-2 * M - d_prime) // 2
        cls = Y(M + 2 * N + k) - Y(M + N + k) - Y(M + N) + (-n_extra) * Y(1)
    else:
        n_extra = int(d_prime + 2 * M - 2) // 2
        cls = (Y(M + 2 * N + 1 + k) - Y(M + N + 1 + k) - Y(M + N + 1)
               + (2 + n_extra) * Y(1))
    cls = LocalClass(cls.coeffs, shift)
    got = correction_terms(cls)
    want = (d, d + 2 * M, d - 2 * N)
    if got != want or mu_bar(cls) != mu:
        raise AssertionError(f"realization family construction off: {got} != {want}")
    return cls
