import hashlib

import pytest

from maxcyc import (
    ArityError,
    CapExceeded,
    NoSuchNormal,
    ParseError,
    named_normal,
    parse_spec,
    realize_text,
    render,
)
from maxcyc.constructors import (
    Cyclic,
    Dihedral,
    DirectProductSpec,
    ExplicitPerms,
    FrobeniusAGL1,
    Symmetric,
)
from maxcyc.core import center, exponent, is_normal, point_stabilizer
from maxcyc.corpus import parse_corpus
from maxcyc.cyclic import cyclic_subgroups, eta, maximal_cyclic_subgroups
from maxcyc.theorems import gk_graph

from oracles import is_abelian, perm_order


# --- parsing ----------------------------------------------------------------

def test_parse_direct_product():
    spec = parse_spec("S(3) x D(10)")
    assert spec == DirectProductSpec(Symmetric(3), Dihedral(10))


def test_parse_is_whitespace_insensitive():
    assert parse_spec("S(3)xD(10)") == parse_spec("  S( 3 )  x D(10) ")


def test_parse_left_associative():
    spec = parse_spec("C(2) x C(3) x C(5)")
    assert spec == DirectProductSpec(
        DirectProductSpec(Cyclic(2), Cyclic(3)), Cyclic(5)
    )


def test_parse_agl1():
    assert parse_spec("AGL1(9,2)") == FrobeniusAGL1(9, 2)


def test_parse_explicit_perms():
    spec = parse_spec("Perm(7; (0 1 2)(3 4), (5 6))")
    assert spec == ExplicitPerms(7, (((0, 1, 2), (3, 4)), ((5, 6),)))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_spec("C(6")
    assert info.value.position == 3
    with pytest.raises(ParseError) as info:
        parse_spec("C(6) y D(8)")
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse_spec("")
    # only ASCII digits: int() rejects '²' and would read '٣' as 3
    for text, position in (("C(²)", 2), ("C(٣)", 2), ("C(1²)", 3)):
        with pytest.raises(ParseError) as info:
            parse_spec(text)
        assert info.value.position == position


@pytest.mark.parametrize(
    "text",
    ["D(7)", "EA(4,2)", "EA(3,0)", "Heis(2)", "Q(12)", "Q(4)", "W(6)",
     "AGL1(10,3)", "AGL1(7,4)", "AGL1(9,4)", "AGL1(130,1)", "C(0)",
     "Perm(3; (0 5))", "EA(3)", "C(2,3)"],
)
def test_bad_parameters_raise_arity_error(text):
    with pytest.raises(ArityError):
        parse_spec(text)


@pytest.mark.parametrize(
    "text",
    ["C(6)", "D(30)", "S(4)", "A(5)", "EA(3,2)", "Heis(3)", "Q(16)", "W(3)",
     "AGL1(9,2)", "Dic12", "SG72_50", "M16", "S(3) x D(10)",
     "C(2) x C(3) x C(5)", "Perm(7; (0 1 2)(3 4), (5 6))"],
)
def test_render_parse_roundtrip(text):
    spec = parse_spec(text)
    assert parse_spec(render(spec)) == spec


def test_a_deep_product_is_walked_in_a_loop():
    # the parser nests a product to the left once per factor; degree,
    # generators and render walk the chain without recursion
    text = " x ".join(["C(1)"] * 1200)
    spec = parse_spec(text)
    assert render(spec) == text
    assert (spec.degree, spec.generators()) == (1200, [])


def test_specs_are_frozen_records():
    assert Cyclic(3) == Cyclic(3) and hash(Cyclic(3)) == hash(Cyclic(3))
    assert Cyclic(3) != Cyclic(4)
    assert Cyclic(6) != Dihedral(6)  # same parameter, another family
    assert {Cyclic(3), Cyclic(3), Cyclic(4)} == {Cyclic(4), Cyclic(3)}
    assert repr(Cyclic(3)) == "Cyclic(n=3)"
    assert repr(ExplicitPerms(3, (((0, 1),),))) == "ExplicitPerms(degree=3, gens=(((0, 1),),))"
    assert repr(parse_spec("C(2) x S(3)")) == (
        "DirectProductSpec(left=Cyclic(n=2), right=Symmetric(n=3))"
    )
    spec = parse_spec("AGL1(7,3) x C(2)")
    for node, field in ((spec, "left"), (spec.left, "q"), (spec.right, "n")):
        with pytest.raises(AttributeError):
            setattr(node, field, 5)
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert render(spec) == "AGL1(7,3) x C(2)"
    with pytest.raises(TypeError):
        Cyclic(3, 4)
    with pytest.raises(ArityError):
        Cyclic(0)  # the family's own check still runs


def test_records_are_read_only():
    G = realize_text("S(3)")
    for record, field in ((eta(G), "eta"), (gk_graph(G), "edges"),
                          (parse_corpus("S(3) ; eta=2")[0], "tag")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert repr(gk_graph(G)) == "GKGraph(vertices=(2, 3), edges=())"


# --- realization ------------------------------------------------------------

@pytest.mark.parametrize(
    "text, order, degree",
    [
        ("C(1)", 1, 1),
        ("C(6)", 6, 6),
        ("D(2)", 2, 2),
        ("D(4)", 4, 4),
        ("D(6)", 6, 3),
        ("D(30)", 30, 15),
        ("S(1)", 1, 1),
        ("S(2)", 2, 2),
        ("S(4)", 24, 4),
        ("A(3)", 3, 3),
        ("A(4)", 12, 4),
        ("A(5)", 60, 5),
        ("EA(2,3)", 8, 6),
        ("EA(5,2)", 25, 10),
        ("Heis(3)", 27, 9),
        ("Heis(5)", 125, 25),
        ("Q(8)", 8, 8),
        ("Q(16)", 16, 16),
        ("W(3)", 81, 9),
        ("AGL1(5,4)", 20, 5),
        ("AGL1(9,2)", 18, 9),
        ("AGL1(2,1)", 2, 2),
        ("Dic12", 12, 7),
        ("SG72_50", 72, 9),
        ("M16", 16, 8),
        ("Perm(5; (0 1 2 3 4), (1 4)(2 3))", 10, 5),
        ("S(3) x D(10)", 60, 8),
    ],
)
def test_realize_orders_and_degrees(text, order, degree):
    G = realize_text(text)
    assert (G.order, G.degree) == (order, degree)
    assert parse_spec(text).degree == degree
    if degree > 1:
        with pytest.raises(CapExceeded, match=f"^degree {degree} exceeds degree cap {degree - 1}$"):
            realize_text(text, degree_cap=degree - 1)


# The first 32 hex digits of the sha256 of repr([g.images for g in
# G.generators]) and of the same for the first 50 elements of G.element_list.
# Relabelled Perm specs, element_list order and every witness follow from
# these generators, so a family's construction must not drift.
GENERATOR_PINS = [
    ("C(1)", "4f53cda18c2baa0c0354bb5f9a3ecbe5", "78fce9491f4b0e3b895728f3c6efe71e"),
    ("C(6)", "c871395d113416430594e36e5acb1d00", "3c9401c1366fe0d2a5db40b4c5ab5729"),
    ("D(2)", "fcbd8f2ee97e86ea25ede7fbf892fa8f", "6df3ef58aaac2aff5d071b5f4bcbd92f"),
    ("D(4)", "211c65f5d74158db68ca11b7de2776a0", "f4a1820d94436372b086ed9e909f1b6f"),
    ("D(30)", "2d6db0342bfcb3b5bcca1729cb5c2089", "7ddc8d10d1eeaa6944282af84ab8b847"),
    ("S(1)", "4f53cda18c2baa0c0354bb5f9a3ecbe5", "78fce9491f4b0e3b895728f3c6efe71e"),
    ("S(2)", "fcbd8f2ee97e86ea25ede7fbf892fa8f", "6df3ef58aaac2aff5d071b5f4bcbd92f"),
    ("S(4)", "fbfe3d17af968fac3623290dbfb8bfe1", "b84c60f012a6f08ab84486789a8cf0e7"),
    ("A(4)", "7b50f7e4b94a15efdc2d8ba6b3063507", "7da206576da3eb5ffc7768d0e17d4cea"),
    ("A(5)", "11b8b6c13a3f69517e4e447c2a362bf7", "516161c80c12809d667e20a3bd3f52bb"),
    ("EA(3,2)", "11909757a4bb2e40f3dbb33ca87a273b", "37752ef928dd6913a450bc7839b17440"),
    ("Heis(3)", "cc5e8b261d45867dc22a029958b5e30b", "cebe61fd5198289db14f1d43b96e42dc"),
    ("Q(16)", "3fad289d7e657deb28ccf2371130af41", "5978bad1d4dfa0a24e4883f822950ad5"),
    ("W(3)", "140f5dfc7e0833748d17a509388d6cec", "5da4830ced332df36fd3f3cee76570ac"),
    ("W(5)", "6b94ab2856b0ef4de550b70323c0cae0", "5f46fee90992717902496b2086ac2e3e"),
    ("AGL1(2,1)", "6d44e6b042522da41ca61db369572977", "6df3ef58aaac2aff5d071b5f4bcbd92f"),
    ("AGL1(9,2)", "57ea27315e5d9c50cc66a5df62b1d33f", "f347511b1b16801e58784dc6c133ede6"),
    ("AGL1(127,126)", "cb65bea3f9beca00690a945259df76f1", "ba4018fc58ad2a045ea670c5960a5cc5"),
    ("Dic12", "b90a432d14a3221eba960f50aa8a314e", "0498da594a2b967ef50a0a3135a53481"),
    ("SG72_50", "bc1f7031c7d56a92af992f7eea740a7d", "9b2f62986d4afa898b681ac2293b843f"),
    ("M16", "f693f43aaa5e844f3bb11d88117cd19f", "ccb1912ab89c7f32e0f81d275f061931"),
    ("Perm(5; (0 1 2 3 4), (1 4)(2 3))",
     "de9649d25619a7bcfdf4e22569a98a82", "4c15b40c74ae40197d8d25dc76a6bdbc"),
    ("S(3) x D(10)", "b496de6cccfe62b55c14b834d44ca31c", "ebaf7cc5fb8ba3d759986b3bf22d6d9f"),
    ("C(2) x C(3) x C(5)",
     "ee1ba497a1bc2b093cb021b799ad8cac", "6bfd8d06ccc68169dc502d14dbd1322a"),
    ("Perm(4; (0 1 2 3)) x S(3)",
     "50c00e1a0f1a932b606784cc597e76f7", "4ae69d0038485186b734415f80b9b844"),
]


@pytest.mark.parametrize("text, generators_sha, elements_sha", GENERATOR_PINS)
def test_realized_generators_are_pinned(text, generators_sha, elements_sha):
    def digest(perms):
        return hashlib.sha256(repr([g.images for g in perms]).encode()).hexdigest()[:32]

    G = realize_text(text)
    assert digest(G.generators) == generators_sha
    assert digest(G.element_list[:50]) == elements_sha


def test_realize_respects_caps():
    with pytest.raises(CapExceeded):
        realize_text("S(4)", order_cap=10)
    with pytest.raises(CapExceeded):
        realize_text("W(5)", degree_cap=20)
    assert realize_text("W(5)").order == 5 ** 6


def test_explicit_perm_realization():
    G = realize_text("Perm(5; (0 1 2 3 4), (1 4)(2 3))")
    assert G.order == 10


def test_heisenberg_has_exponent_p():
    for p in (3, 5):
        G = realize_text(f"Heis({p})")
        assert exponent(G) == p
        assert not is_abelian(G)


def test_wreath_structure():
    G = realize_text("W(3)")
    assert G.order == 3 ** 4
    assert exponent(G) == 9


def test_agl1_frobenius_property():
    # the stabilizer of 0 meets each of its distinct conjugates trivially
    for text, stab_order in [("AGL1(5,4)", 4), ("AGL1(7,3)", 3), ("AGL1(9,2)", 2)]:
        G = realize_text(text)
        H = point_stabilizer(G, 0)
        assert H.order == stab_order
        for g in G:
            if g in H.elements:
                continue
            conj = {h.conjugate_by(g) for h in H.elements}
            assert len(conj & H.elements) == 1


def test_agl1_ring_kernel_is_cyclic_of_order_9():
    G = realize_text("AGL1(9,2)")
    translations = [x for x in G if all(x.images[i] == (i + x.images[0]) % 9 for i in range(9))]
    assert len(translations) == 9
    assert max(perm_order(t) for t in translations) == 9


def test_generalized_quaternion_structure():
    q16 = realize_text("Q(16)")
    assert center(q16).order == 2
    # unique involution forces generalized-quaternion type at order 16
    assert sum(1 for x in q16 if perm_order(x) == 2) == 1


def test_m16_has_normal_maximal_cyclic_of_order_8():
    G = realize_text("M16")
    eights = [s for s in maximal_cyclic_subgroups(G) if s.order == 8]
    assert eights
    normal_eights = [
        s for s in eights
        if all(y.conjugate_by(g) in s.elements for g in G.generators for y in s.elements)
    ]
    assert normal_eights


def test_sg72_50_fingerprint():
    G = realize_text("SG72_50")
    assert (G.order, G.degree) == (72, 9)
    from maxcyc.cyclic import eta

    rep = eta(G)
    assert rep.eta == 3
    assert sorted(o for o, _ in rep.class_reps) == [4, 6, 6]


def test_elem_abelian_counts():
    G = realize_text("EA(3,2)")
    assert len(cyclic_subgroups(G)) == 5
    assert is_abelian(G)


def test_named_normal():
    d30 = realize_text("D(30)")
    N = named_normal(d30, 5, 0)
    assert N.order == 5
    assert is_normal(d30, N)
    assert named_normal(d30, 30, 0).order == d30.order
    with pytest.raises(NoSuchNormal):
        named_normal(d30, 7, 0)
    with pytest.raises(NoSuchNormal):
        named_normal(d30, 5, 1)
