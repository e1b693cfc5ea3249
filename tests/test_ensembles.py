"""Seeded ensembles: draws first, then one stacked build per dimension."""

import numpy as np

from csokit import ensembles
from csokit.ensembles import random_complex, random_cso, random_nilpotent2, random_unitary, stream


def test_per_dimension_builds_equal_the_one_case_generators_byte_for_byte():
    # tobytes sees signed zeros, which == would not
    dims = [int(n) for n in stream(17, 0).integers(1, 13, size=60)]
    rng = stream(17, 1)
    nilpotents = [random_nilpotent2(rng, n) for n in dims]
    csos = [random_cso(rng, n) for n in dims]
    unitaries = [random_unitary(rng, n) for n in dims]

    rng = stream(17, 1)
    nilpotent_draws = [ensembles._nilpotent2_draw(rng, n) for n in dims]
    cso_draws = [ensembles._cso_draw(rng, n) for n in dims]
    gaussians = [random_complex(rng, n, n) for n in dims]
    for T, (built, _) in zip(nilpotents, ensembles._rotated(nilpotent_draws)):
        assert built.tobytes() == T.tobytes()
    for (T, C), (built, Q) in zip(csos, ensembles._rotated(cso_draws)):
        assert built.tobytes() == T.tobytes()
        assert (Q @ Q.T).tobytes() == C.matrix.tobytes()
    for n in dict.fromkeys(dims):
        members = [j for j, m in enumerate(dims) if m == n]
        built = ensembles._haar_unitaries(np.array([gaussians[j] for j in members]))
        for j, Q in zip(members, built):
            assert Q.tobytes() == unitaries[j].tobytes()


def test_a_nilpotent_draw_takes_the_rank_and_factor_draws_in_order():
    rng = stream(17, 2)
    T, Z = ensembles._nilpotent2_draw(rng, 7)
    rng = stream(17, 2)
    rank = int(rng.integers(1, 4))
    R = random_complex(rng, rank, rank)
    assert np.array_equal(T[rank : 2 * rank, :rank], R)
    assert np.count_nonzero(T) == np.count_nonzero(R)
    assert np.array_equal(Z, random_complex(rng, 7, 7))
