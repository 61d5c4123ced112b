import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle as oracle
from weldmag import gauss, magnus
from weldmag.arrows import realize_sorted
from weldmag.gauss import (
    GaussCodeError,
    LinkCode,
    MOVE_KINDS,
    Passage,
    StringLinkCode,
    applicable_sites,
    apply_move,
    closure,
    cut,
    longitude_series,
    parse,
    serialize,
    stack,
    wirtinger,
)
from weldmag.magnus import TruncationPolicy, expand, series_inverse, series_mul
from weldmag.words import Word, generator, parse_word, word_from_letters

SINGLE = "1: U1+ / 2: O1+"
# surgery presentation of the commutator word a2 A3 A2 a3 on the first strand
COMM23 = "1: U1+ U2- U3- U4+ / 2: O1+ O3- / 3: O2- O4+"


def lam(text, q=3):
    code = parse(text)
    return longitude_series(code, TruncationPolicy.total_degree(code.n, q))


def test_parse_and_serialize_round_trip():
    text = "1: O1+ U2-\n2: U1+\n3: O2-"
    code = parse(text)
    assert isinstance(code, StringLinkCode)
    assert code.n == 3
    assert serialize(code) == text
    assert parse(serialize(code)) == code


def test_parse_inline_separators_and_empty_component():
    code = parse("1: O1+ U1+ U2+ / 2: O2+ / 3:")
    assert code.n == 3
    assert code.components[2] == ()
    assert serialize(code) == "1: O1+ U1+ U2+\n2: O2+\n3:"
    # whitespace inside tokens is tolerated
    assert parse("1 :  O 1 + /2: U1 +") == parse("1: O1+ / 2: U1+")


def test_parse_closed_flag_picks_the_cyclic_type():
    assert isinstance(parse(SINGLE, closed=True), LinkCode)
    assert isinstance(parse(SINGLE), StringLinkCode)


def test_string_link_and_closed_codes_stay_distinct():
    comps = parse(SINGLE).components
    assert StringLinkCode(comps) != LinkCode(comps)
    assert StringLinkCode(comps) == StringLinkCode(comps)
    assert repr(StringLinkCode(comps)).startswith("StringLinkCode(components=")
    assert repr(LinkCode(comps)).startswith("LinkCode(components=")


def test_parse_errors_name_the_problem():
    with pytest.raises(GaussCodeError, match="bad passage token 'U9&\\+'"):
        parse("1: U9&+ / 2: O9+")
    with pytest.raises(GaussCodeError, match="bad component line"):
        parse("one: O1+")
    with pytest.raises(GaussCodeError, match="listed twice"):
        parse("1: O1+ / 1: U1+")
    with pytest.raises(GaussCodeError, match="are not 1..2"):
        parse("1: O1+ / 3: U1+")
    with pytest.raises(GaussCodeError, match="empty Gauss code"):
        parse("   ")
    with pytest.raises(GaussCodeError, match="crossing 1 appears 1 times"):
        parse("1: O1+")
    with pytest.raises(GaussCodeError, match="crossing 1 needs one Over"):
        parse("1: O1+ O1+")
    with pytest.raises(GaussCodeError, match="crossing 1 has mismatched signs"):
        parse("1: O1+ U1-")


def test_wirtinger_by_hand():
    comps = wirtinger(parse("1: U1+ O2+ U3- / 2: O1+ U2+ O3-"))
    assert [len(rels) + 1 for rels in comps] == [3, 2]  # arcs per component
    rels = [[(r.over, r.sign) for r in rels] for rels in comps]
    assert rels == [
        [((2, 1), 1), ((2, 2), -1)],
        [((1, 2), 1)],
    ]


def test_longitudes_trivial_and_single_crossing():
    l1, l2 = lam("1: / 2:", q=2)
    assert l1.is_one and l2.is_one

    l1, l2 = lam(SINGLE, q=2)
    assert l1 == expand(parse_word("a2", 2), TruncationPolicy.total_degree(2, 2))
    assert l1.coefficient((2,)) == 1
    assert l2.is_one


def test_longitudes_cancel_kink_and_clasp():
    # a positive kink contributes (1+X1)^-1 * (1+X1)
    (l1,) = lam("1: O1+ U1+", q=4)
    assert l1.is_one
    # an R2 pair over the other strand cancels exactly
    l1, l2 = lam("1: O1+ O2- / 2: U1+ U2-", q=4)
    assert l1.is_one and l2.is_one


def test_longitude_of_commutator_presentation():
    pol = TruncationPolicy.total_degree(3, 3)
    l1, l2, l3 = longitude_series(parse(COMM23), policy=pol)
    assert l1 == expand(parse_word("a2 A3 A2 a3", 3), pol)
    assert l1.coefficient((3, 2)) == 1
    assert l1.coefficient((2, 3)) == -1
    assert l1.coefficient((2,)) == 0
    assert l2.is_one and l3.is_one


def test_longitude_argument_validation():
    code = parse(SINGLE)
    with pytest.raises(TypeError, match="policy"):
        longitude_series(code)
    with pytest.raises(GaussCodeError, match="does not match"):
        longitude_series(code, policy=TruncationPolicy.total_degree(3, 2))
    with pytest.raises(GaussCodeError, match="cut the closed link open"):
        longitude_series(parse(SINGLE, closed=True), TruncationPolicy.total_degree(2, 2))


def test_move_sites_shapes():
    code = parse(COMM23)
    assert applicable_sites(code, "R1delete") == []
    oc = applicable_sites(code, "OCswap")
    assert (2, 0) in oc and (3, 0) in oc
    r1 = applicable_sites(code, "R1insert")
    assert (1, 0, 1, "OU") in r1 and (2, 2, -1, "UO") in r1
    with pytest.raises(GaussCodeError, match="unknown move kind"):
        applicable_sites(code, "R3")


def test_r1_round_trip():
    code = parse(COMM23)
    bigger = apply_move(code, "R1insert", (1, 2, -1, "UO"))
    assert bigger.n == code.n
    assert crossing_writhe(bigger, 1) == -1
    assert (1, 2) in applicable_sites(bigger, "R1delete")
    assert apply_move(bigger, "R1delete", (1, 2)) == code
    with pytest.raises(GaussCodeError, match=r"R1delete does not apply at site \(1, 0\)"):
        apply_move(code, "R1delete", (1, 0))


def test_r2_round_trip():
    code = parse(COMM23)
    for site in [(1, 1, 2, 1, 1, False), (2, 0, 2, 2, -1, True), (3, 2, 1, 0, 1, False)]:
        bigger = apply_move(code, "R2insert", site)
        back = [
            s
            for s in applicable_sites(bigger, "R2delete")
            if apply_move(bigger, "R2delete", s) == code
        ]
        assert back, site
    with pytest.raises(GaussCodeError, match=r"R2delete does not apply at site \(1, 0, 2, 0\)"):
        apply_move(parse("1: O1+ O2+ / 2: U1+ U2+"), "R2delete", (1, 0, 2, 0))


def test_ocswap_is_an_involution():
    code = parse(COMM23)
    swapped = apply_move(code, "OCswap", (2, 0))
    assert swapped != code
    assert apply_move(swapped, "OCswap", (2, 0)) == code
    with pytest.raises(GaussCodeError, match=r"OCswap does not apply at site \(1, 0\)"):
        apply_move(code, "OCswap", (1, 0))


def test_longitudes_invariant_under_moves():
    rng = random.Random(11)
    base = parse(COMM23)
    pol = TruncationPolicy.total_degree(3, 3)
    before = longitude_series(base, pol)
    for kind in MOVE_KINDS:
        sites = applicable_sites(base, kind)
        for site in rng.sample(sites, min(4, len(sites))):
            after = longitude_series(apply_move(base, kind, site), pol)
            assert after == before, (kind, site)


def test_stack_shifts_crossings_and_adds_first_order_terms():
    one = parse(SINGLE)
    two = stack(one, one)
    assert serialize(two) == "1: U1+ U2+\n2: O1+ O2+"
    l1, _ = longitude_series(two, TruncationPolicy.total_degree(2, 2))
    assert l1.coefficient((2,)) == 2
    with pytest.raises(GaussCodeError, match="component counts differ"):
        stack(one, parse("1: O1+ U1+"))


def test_closure_and_cut():
    code = parse("1: U1+ U2+ / 2: O1+ O2+")
    link = closure(code)
    assert isinstance(link, LinkCode)
    assert cut(link) == code
    rotated = cut(link, [1, 0])
    assert serialize(rotated) == "1: U2+ U1+\n2: O1+ O2+"
    with pytest.raises(GaussCodeError, match="one basepoint per component"):
        cut(link, [0])
    with pytest.raises(GaussCodeError, match="out of range"):
        cut(link, [2, 0])
    for bad in (1.5, "1"):
        with pytest.raises(GaussCodeError, match=f"basepoints entry must be an integer, got {bad!r}"):
            cut(link, [bad, 0])
    with pytest.raises(GaussCodeError, match="basepoints must be a sequence of integers, got 3"):
        cut(link, 3)


def test_passage_tokens():
    assert Passage(3, "U", -1).token() == "U3-"
    assert Passage(12, "O", 1).token() == "O12+"


# -- the longitude solver against a plain Jacobi loop ------------------------------


def crossing_writhe(code, i):
    """The sum of the signs of the crossings whose two passages both lie on
    component i, counted from the passages alone."""
    on = {}
    for c, comp in enumerate(code.components, start=1):
        for p in comp:
            on.setdefault(p.cid, []).append((c, p.sign))
    return sum(ps[0][1] for ps in on.values() if [c for c, _ in ps] == [i, i])


def jacobi_longitudes(code, policy, mul=series_mul, inverse=series_inverse):
    """Longitudes by full Jacobi sweeps: every sweep evaluates every relation
    from the previous sweep's arcs and inverts each over-arc afresh, until a
    sweep changes nothing."""
    n = code.n
    comps = wirtinger(code)
    meridians = [expand(Word(n, ((i, 1),)), policy) for i in range(1, n + 1)]
    arcs = {
        (i, j): meridians[i - 1]
        for i, rels in enumerate(comps, start=1)
        for j in range(1, len(rels) + 2)
    }
    for _ in range(policy.max_total_degree + 1):
        new = {(i, 1): meridians[i - 1] for i in range(1, n + 1)}
        for i, rels in enumerate(comps, start=1):
            for j, rel in enumerate(rels, start=1):
                g, g_inv = arcs[rel.over], inverse(arcs[rel.over])
                if rel.sign < 0:
                    g, g_inv = g_inv, g
                new[(i, j + 1)] = mul(mul(g_inv, new[(i, j)]), g)
        if new == arcs:
            break
        arcs = new
    else:
        raise AssertionError("no fixed point")
    out = []
    for i in range(1, n + 1):
        f_i = crossing_writhe(code, i)
        out.append(expand(Word(n, ((i, -f_i),) if f_i else ()), policy))
    for i, rels in enumerate(comps):
        for rel in rels:
            g = arcs[rel.over] if rel.sign > 0 else inverse(arcs[rel.over])
            out[i] = mul(out[i], g)
    return tuple(out)


def sorted_code(rng, n, crossings):
    lens = [crossings // n + (i < crossings % n) for i in range(n)]
    return realize_sorted(
        [word_from_letters(n, oracle.random_reduced_letters(rng, n, m)) for m in lens]
    )


def moved(rng, code, count):
    for _ in range(count):
        kind = rng.choice(("R2insert", "OCswap", "R1insert"))
        sites = applicable_sites(code, kind)
        if sites:
            code = apply_move(code, kind, rng.choice(sites))
    return code


def kinked(code):
    """An R1 kink of order UO at the top end of component 1: its under
    passage has its own arc as over-arc, which keeps the iteration going
    to the degree bound."""
    return apply_move(code, "R1insert", (1, len(code.components[0]), 1, "UO"))


def solver_cases():
    rng = random.Random(2024)
    for n, k in ((2, 2), (3, 2), (3, 1)):
        for _ in range(2):
            base = sorted_code(rng, n, 4 * n)
            codes = {
                "sorted": base,
                "moved": moved(rng, base, 4),
                "kinked": kinked(moved(rng, base, 2)),
                "stacked": stack(sorted_code(rng, n, 2 * n), kinked(base)),
            }
            codes["mirrored"] = oracle.mirror(codes["moved"])
            codes["partly mirrored"] = stack(base, oracle.mirror(codes["kinked"]))
            policies = [
                TruncationPolicy.total_degree(n, n * k),
                TruncationPolicy.uniform_caps(n, k),
                TruncationPolicy.component_caps(n, k, rng.randint(1, n)),
            ]
            for name, code in codes.items():
                for pol in policies:
                    yield name, code, pol


def test_longitude_series_matches_full_jacobi_sweeps():
    kinds = set()
    for name, code, pol in solver_cases():
        assert longitude_series(code, policy=pol) == jacobi_longitudes(code, pol), (name, pol)
        kinds.add(name)
    assert kinds == {"sorted", "moved", "kinked", "stacked", "mirrored", "partly mirrored"}


def counting(monkeypatch):
    """Counts of every series_mul and series_inverse, each patched in every
    weldmag module that binds it, so that no import hides a call, with the
    counting wrappers to hand to jacobi_longitudes."""
    counts = {"mul": 0, "inverse": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    mul, inverse = counted("mul", series_mul), counted("inverse", series_inverse)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "weldmag"]
    for name, real, wrapper in (("series_mul", series_mul, mul),
                                ("series_inverse", series_inverse, inverse)):
        bound = [m for m in modules if getattr(m, name, None) is real]
        assert gauss in bound and magnus in bound, name
        for m in bound:
            monkeypatch.setattr(m, name, wrapper)
    return counts, mul, inverse


def test_sorted_code_costs_no_product_and_no_inverse(monkeypatch):
    counts, mul, inverse = counting(monkeypatch)
    rng = random.Random(7)
    for n, k in ((2, 2), (3, 2), (4, 1)):
        code = sorted_code(rng, n, 5 * n)
        rels = [rel for comp in wirtinger(code) for rel in comp]
        assert rels and all(rel.over[1] == 1 for rel in rels)  # over-arcs are meridians
        pol = TruncationPolicy.uniform_caps(n, k)
        counts.update(mul=0, inverse=0)
        lam = longitude_series(code, policy=pol)
        assert counts == {"mul": 0, "inverse": 0}, (n, k)
        # the plain loop's two full sweeps and the longitude products form
        # 5 products per relation, with an inverse per evaluated relation
        negative = sum(rel.sign < 0 for rel in rels)
        counts.update(mul=0, inverse=0)
        assert jacobi_longitudes(code, pol, mul, inverse) == lam
        assert counts == {"mul": 5 * len(rels), "inverse": 2 * len(rels) + negative}


def test_kink_costs_two_products_per_arc_power_per_sweep(monkeypatch):
    """A kink on a sorted code iterates one arc b, the kink's own over-arc,
    read in one power by one relation.  Each sweep applies b to the prefix
    P, one product, and forms b from P, one inverse and one product: two
    products and one inverse per sweep.  The sweeps are counted
    independently: b_t is the kink relation's conjugate b_(t-1)^-1 a b_(t-1)
    of the arc a below the kink, and the pass stops at the first sweep that
    leaves it unchanged."""
    counts, _, _ = counting(monkeypatch)
    rng = random.Random(11)
    seen = set()
    for n, k in ((2, 2), (3, 2), (3, 1)):
        code = sorted_code(rng, n, 3 * n)
        for pol in (TruncationPolicy.total_degree(n, n * k), TruncationPolicy.uniform_caps(n, k)):
            lam = jacobi_longitudes(code, pol)[0]  # the prefix below the kink
            a = series_mul(series_mul(series_inverse(lam), expand(generator(n, 1), pol)), lam)
            b, sweeps = expand(generator(n, 1), pol), 1
            while (c := series_mul(series_mul(series_inverse(b), a), b)) != b:
                b, sweeps = c, sweeps + 1
            counts.update(mul=0, inverse=0)
            assert longitude_series(kinked(code), policy=pol) == jacobi_longitudes(kinked(code), pol)
            assert counts == {"mul": 2 * sweeps, "inverse": sweeps}, (n, k, pol)
            seen.add(sweeps)
    assert max(seen) >= 5  # the kink keeps the iteration going


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(((2, 1), (2, 2), (3, 1), (3, 2))),
    st.sampled_from(("moved", "kinked", "stacked", "mirrored", "partly mirrored")),
    st.sampled_from(("total_degree", "uniform_caps", "component_caps")),
)
def test_prefix_pass_matches_jacobi_on_random_codes(seed, nk, kind, policy_kind):
    rng = random.Random(seed)
    n, k = nk
    base = sorted_code(rng, n, rng.randint(n, 3 * n))
    if kind == "moved":
        code = moved(rng, base, rng.randint(1, 4))
    elif kind == "kinked":
        code = kinked(moved(rng, base, rng.randint(0, 2)))
    elif kind == "stacked":
        code = stack(kinked(sorted_code(rng, n, n + 1)), moved(rng, base, rng.randint(0, 2)))
    elif kind == "mirrored":
        code = oracle.mirror(moved(rng, base, rng.randint(0, 2)))
    else:
        code = stack(moved(rng, base, rng.randint(0, 2)), oracle.mirror(sorted_code(rng, n, n + 1)))
    if policy_kind == "total_degree":
        pol = TruncationPolicy.total_degree(n, rng.randint(1, n * k))
    elif policy_kind == "uniform_caps":
        pol = TruncationPolicy.uniform_caps(n, k)
    else:
        pol = TruncationPolicy.component_caps(n, k, rng.randint(1, n))
    assert longitude_series(code, policy=pol) == jacobi_longitudes(code, pol)
