import pickle

import pytest

from maxcyc.perm import Permutation, word_conjugator

from oracles import perm_order


def test_identity_roundtrip():
    e = Permutation.identity(5)
    assert e.is_identity()
    assert e.images == (0, 1, 2, 3, 4)
    assert perm_order(e) == 1


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 3, 1))


def test_composition_applies_right_factor_first():
    a = Permutation.from_cycles(3, [(0, 1)])
    b = Permutation.from_cycles(3, [(1, 2)])
    # (a * b)(1) = a(b(1)) = a(2) = 2
    assert (a * b)(1) == 2
    assert (b * a)(1) == 0


def test_from_cycles_applies_left_to_right():
    p = Permutation.from_cycles(3, [(0, 1), (1, 2)])
    # 0 -> 1 by the first cycle, then 1 -> 2 by the second
    assert p(0) == 2


@pytest.mark.parametrize(
    "cycles, degree, order",
    [
        ([], 5, 1),
        ([(0, 1, 2, 3, 4)], 5, 5),
        ([(0, 1), (2, 3, 4)], 5, 6),
        ([(0, 1, 2), (3, 4, 5, 6)], 7, 12),
    ],
)
def test_perm_order_is_lcm_of_cycle_lengths(cycles, degree, order):
    assert perm_order(Permutation.from_cycles(degree, cycles)) == order


def test_inverse_and_pow():
    p = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
    assert (p * p.inverse()).is_identity()
    assert p ** 6 == Permutation.identity(6)
    assert p ** -1 == p.inverse()
    assert p ** 7 == p


def test_conjugate_matches_definition():
    p = Permutation.from_cycles(4, [(0, 1, 2)])
    g = Permutation.from_cycles(4, [(2, 3)])
    assert p.conjugate_by(g) == g * p * g.inverse()


def test_cycle_string_is_canonical():
    p = Permutation.from_cycles(5, [(3, 4), (0, 1, 2)])
    assert p.cycle_string() == "(0 1 2)(3 4)"
    assert Permutation.identity(3).cycle_string() == "()"


def test_identity_is_lexicographic_minimum():
    import itertools

    perms = [Permutation(p) for p in itertools.permutations(range(4))]
    assert min(perms) == Permutation.identity(4)


def _compose(a, b):
    """Reference product in function notation: i -> a(b(i))."""
    return tuple(a[b[i]] for i in range(len(b)))


def _power(a, n):
    """Reference power: walk each point's cycle n steps (mod its length)."""
    out = []
    for i in range(len(a)):
        cycle = [i]
        while a[cycle[-1]] != i:
            cycle.append(a[cycle[-1]])
        out.append(cycle[n % len(cycle)])
    return tuple(out)


@pytest.mark.parametrize("degree", [1, 2, 7, 127, 255, 256, 257, 300])
def test_kernels_match_reference_composition(degree):
    import random

    rng = random.Random(degree)
    perms = [Permutation.identity(degree)]
    for _ in range(4):
        imgs = list(range(degree))
        rng.shuffle(imgs)
        perms.append(Permutation(imgs))
    for a in perms:
        n = perm_order(a)
        for b in perms:
            conjugate = _compose(_compose(a.images, b.images), _power(a.images, -1))
            for got, want in (
                (a * b, _compose(a.images, b.images)),
                (b.conjugate_by(a), conjugate),
                (Permutation._unchecked(word_conjugator(a)(b.word)), conjugate),
            ):
                assert type(got.images) is tuple
                assert got.images == want
                assert got == Permutation(want) and hash(got) == hash(Permutation(want))
        for k in (0, 1, 2, 3, -1, -2, -3, n, n + 1, -n - 1, 2 * n + 3, 1000):
            got = a ** k
            assert type(got.images) is tuple
            assert got.images == _power(a.images, k)


def _inverse(a):
    """Reference inverse: i -> the point that a sends to i."""
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


# Up to 256 points the word is packed into bytes; above, it is the image tuple.
@pytest.mark.parametrize("degree", [1, 2, 7, 127, 255, 256, 257, 300])
def test_words_agree_with_image_tuples(degree):
    import random

    rng = random.Random(-degree)
    perms = [Permutation.identity(degree)]
    for _ in range(12):
        imgs = list(range(degree))
        rng.shuffle(imgs)
        perms.append(Permutation(imgs))
    # a transposition of the last two points differs from the identity
    # only at the end of the word
    if degree > 1:
        perms.append(Permutation.from_cycles(degree, [(degree - 2, degree - 1)]))
    for a in perms:
        inv = a.inverse()
        assert type(inv.images) is tuple and inv.images == _inverse(a.images)
        assert (a * inv).is_identity() and (inv * a).is_identity()
        assert a.is_identity() == (a.images == tuple(range(degree)))
        assert [a(i) for i in range(degree)] == list(a.images)
        twin = Permutation(a.images)
        assert twin == a and hash(twin) == hash(a) and len({twin, a}) == 1
        thawed = pickle.loads(pickle.dumps(a))
        assert thawed == a and hash(thawed) == hash(a)
        for b in perms:
            assert (a == b) == (a.images == b.images)
            assert (a < b) == (a.images < b.images) and (a <= b) == (a.images <= b.images)
    by_word = sorted(perms, key=lambda p: p.word)
    assert [p.images for p in by_word] == sorted(p.images for p in perms)
    assert by_word == sorted(perms)


def test_a_tuple_word_is_hashed_and_pickled_as_its_word():
    # a permutation holds its word alone: above 256 points a tuple, whose
    # hash is taken on each call
    a = Permutation.from_cycles(300, [(0, 299, 150), (1, 2)])
    twin = Permutation(a.images)
    assert Permutation.__slots__ == ("word",) and type(a.word) is tuple
    assert twin is not a and twin == a and hash(twin) == hash(a) == hash(a.word)
    assert twin in {a} and a in frozenset([twin]) and len({a, twin}) == 1
    thawed = pickle.loads(pickle.dumps(a))
    assert thawed == a and hash(thawed) == hash(a) and thawed in {a}
