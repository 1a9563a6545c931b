import random

import pytest
from hypothesis import given, settings, strategies as st

from relcr import fixtures, generate, rcr
from relcr.core import Signature, Structure
from relcr.game import (Configuration, GameError, default_round_bound,
                        is_distinguishing, spoiler_wins)
from relcr.rcr import rcr_distinguishes
from test_kernel import directed_path

SIG = Signature([("R", 3), ("E", 2)])


def renamed(A, seed):
    """A copy of A under a random permutation of its elements, with the rows
    of every relation shuffled."""
    rng = random.Random(seed)
    perm = list(range(A.n))
    rng.shuffle(perm)
    C = A.rename(perm)
    rels = {name: rng.sample(rows, len(rows))
            for name, rows in C.relations.items()}
    return Structure(A.signature, rels, element_names=C.element_names)


def test_empty_configuration_never_distinguishing():
    A, B = fixtures.a1(), fixtures.b1()
    assert not is_distinguishing(Configuration((), ()), A, B)


def test_distinguishing_detects_subvector_types():
    A, B = fixtures.a1(), fixtures.b1()
    # E(1,2) holds in both, E(2,3) only in A1: pin those two tuples flattened
    a = ("1", "2", "2", "3")
    b = ("1", "2", "2", "3")
    ids_a = [A.element_names.index(x) for x in a]
    ids_b = [B.element_names.index(x) for x in b]
    assert is_distinguishing(
        Configuration(tuple(ids_a), tuple(ids_b)), A, B)


def test_spoiler_wins_on_fixtures():
    for pa, pb in [(fixtures.a1(), fixtures.b1()),
                   (fixtures.a2(), fixtures.b2())]:
        won, trace = spoiler_wins(pa, pb)
        assert won
        assert trace, "a winning strategy names at least one relation pick"


def test_duplicator_survives_on_equal_structures():
    A = fixtures.a1()
    won, trace = spoiler_wins(A, A)
    assert not won and trace == []


def test_zero_rounds_never_win():
    won, _ = spoiler_wins(fixtures.a1(), fixtures.b1(), rounds=0)
    assert not won


def test_round_bound_is_tuple_counts_plus_two():
    A, B = fixtures.a1(), fixtures.b1()
    assert default_round_bound(A, B) == A.size() + B.size() + 2


def test_relation_size_guard():
    A = generate.random_graph_structure(8, 0.4, 0)
    B = generate.random_graph_structure(8, 0.4, 1)
    with pytest.raises(GameError):
        spoiler_wins(A, B, relation_limit=3)


def test_game_agrees_with_refinement():
    for seed in range(30):
        A = generate.random_structure(SIG, 4, {"R": 2, "E": 2}, seed)
        B = generate.random_structure_like(A, seed + 500)
        won, _ = spoiler_wins(A, B)
        assert won == (rcr_distinguishes(A, B) is not None)


def test_equal_pins_on_two_structures_are_told_apart():
    # a solve computes each pin's facts once, per structure
    sig = Signature([("E", 2)])
    A = Structure(sig, {"E": [(0, 1), (1, 0)]})
    B = Structure(sig, {"E": [(0, 1), (2, 3)]})
    cfg = Configuration((0, 1), (0, 1))
    assert is_distinguishing(cfg, A, B)
    assert spoiler_wins(A, B, rounds=0, cfg=cfg)[0]


def test_game_agrees_on_unequal_sizes():
    A = generate.random_structure(SIG, 4, {"R": 2, "E": 2}, 3)
    B = generate.random_structure(SIG, 4, {"R": 3, "E": 2}, 3)
    won, _ = spoiler_wins(A, B)
    assert won


def test_signature_mismatch_rejected():
    with pytest.raises((GameError, ValueError)):
        spoiler_wins(fixtures.a1(), fixtures.a2())


@pytest.mark.parametrize("sizes", [(8, 24), (12, 20), (16, 16), (20, 12),
                                   (24, 8), (24, 24)])
def test_game_agrees_beyond_six_tuples(sizes):
    n_r, n_e = sizes
    for seed in range(3):
        A = generate.random_structure(SIG, 12, {"R": n_r, "E": n_e}, seed)
        for B in (renamed(A, seed), generate.random_structure_like(A, seed + 500)):
            won, _ = spoiler_wins(A, B)
            assert won == (rcr_distinguishes(A, B) is not None)


@pytest.mark.parametrize("m,c", [(8, 3), (12, 3), (16, 4), (24, 6)])
def test_path_against_path_plus_cycle(m, c):
    # Spoiler spends one round pinning the first fact, so the smallest
    # winning budget is one more than the first round refinement splits at
    A, B = directed_path(m), directed_path(m, c)
    split, _ = rcr_distinguishes(A, B)
    assert spoiler_wins(A, B, rounds=split + 1) == (True, [(split + 1, "E")])
    assert spoiler_wins(A, B, rounds=split) == (False, [])


def test_game_reads_no_refinement(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the game ran refinement")

    monkeypatch.setattr(rcr, "rcr_compare", refuse)
    monkeypatch.setattr(rcr, "rcr_run", refuse)
    A1 = fixtures.a1()
    assert spoiler_wins(A1, fixtures.b1())[0]
    assert spoiler_wins(fixtures.a2(), fixtures.b2())[0]
    assert spoiler_wins(A1, renamed(A1, 0)) == (False, [])


@st.composite
def equal_size_pairs(draw):
    """Two R/3,E/2 structures on at most 4 elements with the same relation
    sizes; B is sometimes a renamed copy of A."""
    def rows(arity, k):
        return draw(st.lists(st.tuples(*[st.integers(0, 3)] * arity),
                             min_size=k, max_size=k, unique=True))

    def structure(n_r, n_e):
        facts = [("R", [str(x) for x in t]) for t in rows(3, n_r)]
        facts += [("E", [str(x) for x in t]) for t in rows(2, n_e)]
        return Structure.from_named(SIG, facts)

    n_r, n_e = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    A = structure(n_r, n_e)
    if draw(st.booleans()):
        return A, renamed(A, draw(st.integers(0, 2**16)))
    return A, structure(n_r, n_e)


@settings(max_examples=60, deadline=None)
@given(equal_size_pairs())
def test_game_verdict_is_refinement_and_monotone(pair):
    A, B = pair
    won, _ = spoiler_wins(A, B)
    assert won == (rcr_distinguishes(A, B) is not None)
    within = [spoiler_wins(A, B, rounds=r)[0] for r in range(6)]
    assert within == sorted(within)  # a win within r rounds is one within r + 1
    assert won or not within[-1]
