import pytest

from relcr import fixtures, generate
from relcr.core import Signature, Structure
from relcr.game import (Configuration, GameError, default_round_bound,
                        is_distinguishing, spoiler_wins)
from relcr.rcr import rcr_distinguishes

SIG = Signature([("R", 3), ("E", 2)])


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
