"""Reference checker: expected answers from the realizing words alone.

No weldmag arithmetic is used here.  Every series comes from the naive dict
expander in ``tests/_oracle.py``, applied to the longitude words that the
realizer is documented to produce: component i of ``realize_sorted(W)`` has
longitude u_i = a_i^(-e_i) * w_i, with e_i the exponent sum of w_i at a_i.
Welded moves change no invariant, so a moved diagram is checked against
the words it was realized from; a stack and a self-tree insertion get
their longitude words by the formulas documented in ``inputs``.

Each ``check_*`` function returns None when the answer is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import _oracle as oracle  # noqa: E402


# -- words ---------------------------------------------------------------------------


def free_reduce(letters):
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return out


def inverse_word(letters):
    return [-l for l in reversed(letters)]


def commutator_word(x, y):
    """[x, y] = x y^-1 x^-1 y, the bracket convention of weldmag.words."""
    return free_reduce(x + inverse_word(y) + inverse_word(x) + y)


def tree_letters(t, i):
    """Word of a self-tree description (see ``inputs``): leaves spell the
    conjugate c^-1 a_i^twist c, nodes the commutator of their children."""
    if "leaf" in t:
        twist, conj = t["leaf"]
        return free_reduce(inverse_word(conj) + [twist * i] + conj)
    left, right, twist = t["node"]
    w = commutator_word(tree_letters(left, i), tree_letters(right, i))
    return w if twist > 0 else inverse_word(w)


def longitude_words(desc):
    """Preferred longitude words u_1..u_n of a diagram description."""
    if "stack" in desc:
        lower, upper = (longitude_words(d) for d in desc["stack"])
        # the top part reads each meridian a_j conjugated by the bottom's u_j
        out = []
        for u_low, u_up in zip(lower, upper):
            word = list(u_low)
            for l in u_up:
                c = lower[abs(l) - 1]
                word += inverse_word(c) + [l] + c
            out.append(free_reduce(word))
        return out
    words = [list(w) for w in desc["words"]]
    if "tree" in desc:
        i, t = desc["tree"]
        words[i - 1] = words[i - 1] + tree_letters(t, i)
    out = []
    for i, w in enumerate(words, start=1):
        e = sum(1 if l == i else -1 if l == -i else 0 for l in w)
        out.append(free_reduce([-i if e > 0 else i] * abs(e) + w))
    return out


# -- series ----------------------------------------------------------------------------


def uniform_caps(n, k):
    return n * k, (k + 1,) * n


def component_caps(n, k, i):
    caps = [k + 1] * n
    caps[i - 1] = k
    return n * k - 1, tuple(caps)


def expand(letters, qc):
    q, caps = qc
    return oracle.expand_letters(letters, q, caps)


def parse_series(pairs):
    """{monomial tuple: coefficient} from weldmag's [["X1.X2", c], ...]."""
    out = {}
    for mono, c in pairs:
        key = () if mono == "1" else tuple(int(t[1:]) for t in mono.split("."))
        out[key] = c
    return out


def from_items(items):
    return {tuple(m): c for m, c in items}


def r_index(I):
    return max(I.count(j) for j in set(I))


def table(desc, n, k):
    """Every nonzero mu(I) with r(I) <= k and |I| <= n*k.  Under caps k+1 and
    degree n*k - 1 every monomial such an I reads survives, so its
    coefficient is exact."""
    entries = {}
    for i, u in enumerate(longitude_words(desc), start=1):
        for m, c in expand(u, (n * k - 1, (k + 1,) * n)).items():
            I = m + (i,)
            if m and c and r_index(I) <= k:
                entries[I] = c
    return entries


def residues(us, n, k):
    return [expand(u, component_caps(n, k, i)) for i, u in enumerate(us, start=1)]


def images(us, n, k):
    return [expand(inverse_word(u) + [i] + u, uniform_caps(n, k))
            for i, u in enumerate(us, start=1)]


def mul(a, b, q, caps=None):
    """The oracle's product, skipping pairs that exceed degree q before
    forming them; caps are tested on per-letter counts packed into one int
    (5 bits a letter, a carry into the top bit marks a count >= cap)."""
    if caps is None:
        caps = (q + 1,) * max((v for m in list(a) + list(b) for v in m), default=0)
    bias = sum((16 - c) << (5 * v) for v, c in enumerate(caps))
    carry = sum(16 << (5 * v) for v in range(len(caps)))

    def packed(m):
        return sum(1 << (5 * (v - 1)) for v in m)

    by_degree: dict[int, list] = {}
    for m, c in b.items():
        by_degree.setdefault(len(m), []).append((m, c, packed(m)))
    degrees = sorted(by_degree)
    out: dict = {}
    for m1, c1 in a.items():
        p1 = packed(m1) + bias
        room = q - len(m1)
        for d in degrees:
            if d > room:
                break
            for m2, c2, p2 in by_degree[d]:
                if (p1 + p2) & carry:
                    continue
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def inverse(a, q, caps=None):
    """Geometric-series inverse of a unit series, as in the oracle."""
    c0 = a.get((), 0)
    u = {m: -c0 * c for m, c in a.items() if m}
    out, power = oracle.one(), oracle.one()
    for _ in range(q):
        power = mul(power, u, q, caps)
        if not power:
            break
        out = oracle.add(out, power)
    return oracle.neg(out) if c0 == -1 else out


def substitute_all(series, factors, q, caps):
    """The ring map X_v -> factors[v-1] applied to each series, one product
    per monomial prefix, shared between the series."""
    memo = {(): oracle.one()}

    def image(m):
        if m not in memo:
            memo[m] = mul(image(m[:-1]), factors[m[-1] - 1], q, caps)
        return memo[m]

    outs = []
    for s in series:
        out = {}
        for m, c in s.items():
            for mm, cc in image(m).items():
                out[mm] = out.get(mm, 0) + c * cc
        outs.append({m: c for m, c in out.items() if c})
    return outs


def compose_conjugators(c_phi, c_psi, n, k):
    """Conjugators of phi followed by psi: c_i(phi) * phi(c_i(psi))."""
    q, caps = uniform_caps(n, k)
    factors = [mul(mul(inverse(c, q, caps), {(v,): 1}, q, caps), c, q, caps)
               for v, c in enumerate(c_phi, start=1)]
    return [mul(a, b, q, caps) for a, b in zip(c_phi, substitute_all(c_psi, factors, q, caps))]


def restrict(s, qc):
    q, caps = qc
    return oracle.clean(s, q, caps)


# -- answer checks -------------------------------------------------------------------


def _diff(name, got, want):
    got = {m: c for m, c in got.items() if c}
    if got == want:
        return None
    keys = sorted(set(got) | set(want), key=lambda m: (len(m), m))
    bad = next(m for m in keys if got.get(m, 0) != want.get(m, 0))
    return f"{name}: {bad} is {got.get(bad, 0)}, expected {want.get(bad, 0)}"


def check_table(q, ans):
    if ans["rc"] != 0:
        return f"exit code {ans['rc']}"
    out = ans["out"]
    got = {tuple(e["I"]): e["mu"] for e in out["entries"]}
    return _diff("table", got, table(q["codes"][0], q["n"], q["k"]))


def check_compare(q, ans):
    n, k = q["n"], q["k"]
    left, right = (table(d, n, k) for d in q["codes"])
    out = ans["out"]
    equal = left == right
    if out["result"] != ("equal" if equal else "distinct"):
        return f"verdict {out['result']}, reference tables {'agree' if equal else 'differ'}"
    if ans["rc"] != (0 if equal else 1):
        return f"exit code {ans['rc']} for verdict {out['result']}"
    if equal:
        return None
    w = out.get("witness")
    if w is None:
        return "distinct verdict without a witness"
    I = tuple(w["I"])
    if not 2 <= len(I) <= n * k or r_index(I) > k:
        return f"witness {I} is outside r(I) <= {k}"
    a, b = left.get(I, 0), right.get(I, 0)
    if a == b:
        return f"witness {I} is no difference: both tables give {a}"
    if (w["left"], w["right"]) != (a, b):
        return f"witness {I} printed {w['left']} vs {w['right']}, reference {a} vs {b}"
    return None


def _check_action(name, n, k, res, imgs, us):
    if len(res) != n or (imgs is not None and len(imgs) != n):
        return f"{name}: expected {n} components"
    for i, (got, want) in enumerate(zip(res, residues(us, n, k)), start=1):
        bad = _diff(f"{name} residue {i}", got, want)
        if bad:
            return bad
    if imgs is not None:
        for i, (got, want) in enumerate(zip(imgs, images(us, n, k)), start=1):
            bad = _diff(f"{name} image {i}", got, want)
            if bad:
                return bad
    return None


def check_action(q, ans):
    if ans["rc"] != 0:
        return f"exit code {ans['rc']}"
    out = ans["out"]
    n, k = q["n"], q["k"]
    if (out["rank"], out["k"]) != (n, k):
        return f"action rank/k {out['rank']}/{out['k']}, expected {n}/{k}"
    res = [parse_series(c["series"]) for c in out["conjugators"]]
    imgs = [parse_series(c["series"]) for c in out["images"]]
    return _check_action("action", n, k, res, imgs,
                         longitude_words(q["codes"][0]))


def check_compose(q, ans):
    """The composite must be the action of the stacked diagram: its residues
    are those of the stack's longitude words."""
    n, k = q["n"], q["k"]
    res = [from_items(s) for s in ans["out"]["residues"]]
    us = longitude_words({"stack": q["codes"]})
    return _check_action("composite", n, k, res, None, us)


def check_invert(q, ans):
    """The inverse must compose to the identity on both sides: every
    composite conjugator is 1 in its component quotient."""
    n, k = q["n"], q["k"]
    qc = uniform_caps(n, k)
    c_phi = [expand(u, qc) for u in longitude_words(q["codes"][0])]
    c_psi = [from_items(s) for s in ans["out"]["conjugators"]]
    if len(c_psi) != n:
        return f"inverse: expected {n} conjugators"
    for side, (a, b) in (("phi.psi", (c_phi, c_psi)), ("psi.phi", (c_psi, c_phi))):
        for i, c in enumerate(compose_conjugators(a, b, n, k), start=1):
            bad = _diff(f"{side} residue {i}", restrict(c, component_caps(n, k, i)),
                        oracle.one())
            if bad:
                return bad
    return None


_BRACKET = re.compile(r"\[|\]|,|a[0-9]+")


def parse_bracket(text):
    """'[a1,[a2,a3]]' -> nested ('a', g) / ('[', left, right) tuples."""
    tokens = _BRACKET.findall(text)
    pos = 0

    def go():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "[":
            left = go()
            pos += 1  # ','
            right = go()
            pos += 1  # ']'
            return ("[", left, right)
        return ("a", int(tok[1:]))

    return go()


def bracket_length(t):
    return 1 if t[0] == "a" else bracket_length(t[1]) + bracket_length(t[2])


def bracket_series(t, q, memo):
    """Magnus series of a bracket through degree q, built from its
    children's series: S([x,y]) = S(x) S(y)^-1 S(x)^-1 S(y)."""
    if t not in memo:
        if t[0] == "a":
            memo[t] = {(): 1, (t[1],): 1}
        else:
            x, y = bracket_series(t[1], q, memo), bracket_series(t[2], q, memo)
            xi, yi = inverse(x, q), inverse(y, q)
            memo[t] = mul(mul(mul(x, yi, q), xi, q), y, q)
    return memo[t]


def series_power(s, e, q):
    """(1 + P)^e = sum_m binom(e, m) P^m for the nilpotent P = s - 1."""
    p = {m: c for m, c in s.items() if m}
    out, term, m = oracle.one(), oracle.one(), 0
    while True:
        m += 1
        term = mul(term, p, q)
        if not term:
            return out
        binom = math.prod(e - j for j in range(m)) // math.factorial(m)
        out = oracle.add(out, {mm: binom * c for mm, c in term.items()})


def check_hall(q, ans, basis):
    """Witt counts per length, the certificate, and the printed factor
    powers multiplying out to the word through degree max-len."""
    if ans["rc"] != 0:
        return f"exit code {ans['rc']}"
    rank, D = q["rank"], q["max_len"]
    counts = [0] * (D + 1)
    for b in basis:
        counts[bracket_length(parse_bracket(b))] += 1
    if counts[1:] != [oracle.witt(rank, d) for d in range(1, D + 1)]:
        return f"basis sizes per length {counts[1:]} differ from Witt's formula"
    if set(ans["out"]) - {"schema", "rank", "max_len", "certified", "factors"}:
        return "unexpected keys in the factorization"
    if ans["out"]["certified"] is not True:
        return "factorization not certified"
    memo = {}
    prod = oracle.one()
    order = {b: idx for idx, b in enumerate(basis)}
    last = -1
    for f in ans["out"]["factors"]:
        if order.get(f["bracket"], -1) <= last:
            return f"factor {f['bracket']} is not a basic commutator in basis order"
        last = order[f["bracket"]]
        s = bracket_series(parse_bracket(f["bracket"]), D, memo)
        prod = mul(prod, series_power(s, f["exp"], D), D)
    return _diff("factor product", prod, oracle.expand_letters(q["word"], D))


CHECKS = {
    "table": check_table,
    "compare": check_compare,
    "action": check_action,
    "compose": check_compose,
    "invert": check_invert,
}


def check(q, ans, bases=None):
    """None when the answer to question q is right, else the reason."""
    if ans.get("out") is None:
        return f"no JSON answer (exit code {ans.get('rc')}): {ans.get('err', '')[-200:]}"
    try:
        if q["op"] == "hall":
            return check_hall(q, ans, bases[f"{q['rank']},{q['max_len']}"])
        return CHECKS[q["op"]](q, ans)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
