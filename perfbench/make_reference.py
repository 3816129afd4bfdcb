"""Record the benchmark's input pools and the program's outputs on them.

    python3 perfbench/make_reference.py [workload ...]

writes ``perfbench/reference.json``, re-recording the named workloads' pools
(all of them by default) and keeping the others.  Each pool comes from its
own fixed generator seed, so rerunning this on the same code rewrites the
same file, apart from the informational ``cost_s`` fields.  Run it only on a
commit whose outputs are trusted: the benchmark checks every later commit
against these outputs.  ``workloads.ROUNDS`` sets how many entries each
stratum holds.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hfi import brieskorn, cterms, report  # noqa: E402
from hfi.brieskorn import BrieskornParams  # noqa: E402
from hfi.localclass import Y  # noqa: E402
from hfi.monotone import decompose, monotone_subroot, to_profile  # noqa: E402
from hfi.roots import SymmetricRootProfile  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 1710
ALPHA_LO, ALPHA_HI, BANDS = 300, 40000, 6
WINDOW = 1.08  # a band holds spheres within this factor of its centre alpha


def pool_size(workload: str, stratum: str) -> int:
    return workloads.ROUNDS[workload][stratum][1]


def timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, round(time.perf_counter() - t0, 4)


# --------------------------------------------------------------------------
# sigma_sweep: Brieskorn spheres by alpha band and plumbing shape


def band_centre(band: int) -> float:
    """Alpha centres log-spaced so that every band lies in [ALPHA_LO, ALPHA_HI]."""
    lo, hi = ALPHA_LO * WINDOW, ALPHA_HI / WINDOW
    return lo * (hi / lo) ** (band / (BANDS - 1))


def sphere_stratum(triple) -> str | None:
    """Narrow alpha bands keep the cost of a stratum's spheres alike."""
    alpha = math.prod(triple)
    band = min(range(BANDS), key=lambda b: abs(math.log(alpha / band_centre(b))))
    if abs(math.log(alpha / band_centre(band))) > math.log(WINDOW):
        return None
    n = brieskorn.seifert_plumbing(BrieskornParams(*triple))[0].n
    if 24 <= n <= 40:
        return f"V{band}"
    if n <= 12:
        return f"L{band}"
    return None  # neither shape; Sigma(3,4,3001) (73 vertices) takes 40 s


def sigma_pool(rng: random.Random) -> list[dict]:
    pool = []
    for p in range(3, 23, 2):
        triple = (p, 2 * p - 1, 2 * p + 1)
        pool.append({"stratum": "anchor", "triple": triple,
                     "class": Y((p - 1) // 2).to_json()})
    # one sphere of each shape whose cost is split across k_squared and tau
    # (55 vertices, 148 leaves) or falls on monotone_subroot (1277 leaves)
    pool += [{"stratum": "shape", "triple": t} for t in ((13, 21, 34), (19, 37, 55))]
    found: dict[str, list] = {}
    for _ in range(60000):
        target = band_centre(rng.randrange(BANDS)) * WINDOW ** rng.uniform(-1, 1)
        a1 = rng.randint(2, int(target ** (1 / 3)))
        a2 = rng.randint(a1 + 1, max(a1 + 1, int((target / a1) ** 0.5)))
        a3 = round(target / (a1 * a2))
        if a3 <= a2 or math.gcd(a1, a2) != 1 or math.gcd(a1, a3) != 1 \
                or math.gcd(a2, a3) != 1:
            continue
        stratum = sphere_stratum((a1, a2, a3))
        if stratum is None:
            continue
        members = found.setdefault(stratum, [])
        if (a1, a2, a3) not in members \
                and len(members) < pool_size("sigma_sweep", stratum):
            members.append((a1, a2, a3))
    for stratum, (_, size) in workloads.ROUNDS["sigma_sweep"].items():
        if stratum not in ("anchor", "shape"):
            if len(found[stratum]) < size:
                raise SystemExit(f"only {len(found[stratum])} spheres in {stratum}")
            pool += [{"stratum": stratum, "triple": t} for t in found[stratum]]
    for e in pool:
        b = BrieskornParams(*e["triple"])
        (profile, cls), cost = timed(brieskorn.brieskorn_class, b)
        if e["stratum"] == "anchor" and cls.to_json() != e["class"]:
            raise SystemExit(f"anchor {b} gives {cls}, want {e['class']}")
        e.update(alpha=math.prod(b.tuple),
                 vertices=brieskorn.seifert_plumbing(b)[0].n,
                 leaves=profile.n, cost_s=cost, **{"class": cls.to_json()})
        print("sigma", e["stratum"], e["triple"], cls, cost, flush=True)
    return pool


# --------------------------------------------------------------------------
# oracle_cross_check: Y-basis classes by generator count and index weight


def magnitudes(total: int, weight: int, smallest: int = 1):
    """Dicts {index: |c|} with sum |c| = total and sum |c| * index = weight."""
    if total == 0:
        if weight == 0:
            yield {}
        return
    for i in range(smallest, weight + 1):
        for m in range(1, total + 1):
            if m * i > weight:
                break
            for rest in magnitudes(total - m, weight - m * i, i + 1):
                yield {i: m, **rest}


def signed(mags: dict[int, int]):
    idx = sorted(mags)
    for bits in range(2 ** len(idx)):
        yield {i: mags[i] * (-1 if bits >> k & 1 else 1) for k, i in enumerate(idx)}


def oracle_pool(rng: random.Random) -> list[dict]:
    pool = []
    for stratum in workloads.ROUNDS["oracle_cross_check"]:
        g, w = (int(x) for x in stratum[1:].split("w"))
        size = round(math.log(g, 3))
        classes = [c for m in magnitudes(size, w) for c in signed(m)]
        cands = [(c, s) for c in classes for s in (-2, 0, 2)]
        for coeffs, shift in rng.sample(cands, pool_size("oracle_cross_check", stratum)):
            text = workloads.class_text(coeffs, shift)
            r, cost = timed(report.evaluate_text, text, oracle=True)
            pool.append({"stratum": stratum, "text": text, "cost_s": cost,
                         "want": workloads.oracle_summary(r)})
            print("oracle", stratum, text, cost, flush=True)
    return pool


# --------------------------------------------------------------------------
# local_equivalence: tensor products of random symmetric root profiles


def random_profile(rng: random.Random, n: int) -> SymmetricRootProfile:
    """A symmetric profile with n leaves at even gradings in [-6, 6]."""
    half = [2 * rng.randint(-3, 3) for _ in range((n + 1) // 2)]
    leaves = half + half[::-1][n % 2:]
    left = [min(leaves[i], leaves[i + 1]) - 2 * rng.randint(0, 3)
            for i in range(n // 2)]
    angles = left + left[:n - 1 - n // 2][::-1]
    return SymmetricRootProfile(tuple(leaves), tuple(angles))


def as_lists(p: SymmetricRootProfile) -> list:
    return [[int(g) for g in p.leaves], [int(g) for g in p.angles]]


def monotone_side(profiles):
    monos = [monotone_subroot(p) for p in profiles]
    cls = sum((decompose(m) for m in monos[1:]), decompose(monos[0]))
    return [as_lists(to_profile(m)) for m in monos], cterms.correction_terms(cls)


def generators(profiles) -> int:
    return math.prod(2 * len(leaves) - 1 for leaves, _ in profiles)


def local_pool(rng: random.Random) -> list[dict]:
    pool = []
    for stratum in workloads.ROUNDS["local_equivalence"]:
        shape, b_gens = stratum[1:].split(":")
        sizes = [int(x) for x in shape.split("x")]
        while len([e for e in pool if e["stratum"] == stratum]) \
                < pool_size("local_equivalence", stratum):
            ps = [random_profile(rng, n) for n in sizes]
            b, terms = monotone_side(ps)
            if stratum[0] == "F":
                b, other = monotone_side([random_profile(rng, n) for n in sizes])
                if other == terms:
                    continue
            if generators(b) != int(b_gens):
                continue
            e = {"stratum": stratum, "a": [as_lists(p) for p in ps], "b": b,
                 "equivalent": stratum[0] == "T"}
            op = workloads.local_op(e)
            _, e["cost_s"] = timed(op.run)
            pool.append(e)
            print("local", op.label, e["cost_s"], flush=True)
    return pool


POOLS = {"sigma_sweep": sigma_pool, "oracle_cross_check": oracle_pool,
         "local_equivalence": local_pool}


def main(names: list[str]) -> None:
    ref = workloads.load_reference() if workloads.REFERENCE.exists() else {}
    ref["pool_seed"] = POOL_SEED
    for name in names or POOLS:
        ref[name] = POOLS[name](random.Random(f"{POOL_SEED}/{name}"))
    workloads.REFERENCE.write_text(json.dumps(ref, indent=0) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
