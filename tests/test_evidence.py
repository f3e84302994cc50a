import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from initrack.evidence import (
    MassFunction,
    Role,
    TotalConflictError,
    bayesian,
    combine,
    predicted_holder,
    vacuous,
)

from oracles import HEA, SPK, THETA, bf_combine, bf_mass


@st.composite
def masses(draw):
    speaker = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    hearer = draw(st.floats(min_value=0.0, max_value=1.0 - speaker, allow_nan=False))
    theta = 1.0 - speaker - hearer
    if theta < 0.0:
        theta = 0.0
    return MassFunction(speaker, hearer, theta)


def random_mass(rng: random.Random) -> MassFunction:
    speaker = rng.random()
    hearer = rng.uniform(0.0, 1.0 - speaker)
    return MassFunction(speaker, hearer, 1.0 - speaker - hearer)


def as_dict(m: MassFunction) -> dict:
    return bf_mass(m.speaker, m.hearer, m.theta)


class TestConstruction:
    def test_vacuous(self):
        assert vacuous() == MassFunction(0.0, 0.0, 1.0)

    def test_bayesian(self):
        assert bayesian(0.5) == MassFunction(0.5, 0.5, 0.0)
        assert bayesian(1.0) == MassFunction(1.0, 0.0, 0.0)
        assert bayesian(0.75) == MassFunction(0.75, 0.25, 0.0)

    @pytest.mark.parametrize("x", [-0.1, 1.1, float("nan")])
    def test_bayesian_domain(self, x):
        with pytest.raises(ValueError):
            bayesian(x)

    def test_invalid_masses(self):
        with pytest.raises(ValueError):
            MassFunction(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            MassFunction(-0.1, 0.6, 0.5)


class TestCombine:
    def test_derived_pair(self):
        # Oracle values: pooling an even split with (0, 0.35, 0.65) gives
        # exactly (13/33, 20/33, 0) with conflict 0.175.
        m = combine(bayesian(0.5), MassFunction(0.0, 0.35, 0.65))
        assert m.speaker == pytest.approx(float(Fraction(13, 33)), abs=1e-12)
        assert m.hearer == pytest.approx(float(Fraction(20, 33)), abs=1e-12)
        assert m.theta == 0.0

    def test_derived_self_pair(self):
        m = combine(MassFunction(0.0, 0.35, 0.65), MassFunction(0.0, 0.35, 0.65))
        assert m.speaker == 0.0
        assert m.hearer == pytest.approx(0.5775, abs=1e-12)
        assert m.theta == pytest.approx(0.4225, abs=1e-12)

    def test_identity(self):
        m = MassFunction(0.3, 0.45, 0.25)
        out = combine(m, vacuous())
        assert out.speaker == pytest.approx(m.speaker, abs=1e-12)
        assert out.hearer == pytest.approx(m.hearer, abs=1e-12)
        assert out.theta == pytest.approx(m.theta, abs=1e-12)
        assert combine(vacuous(), vacuous()) == vacuous()

    def test_total_conflict(self):
        with pytest.raises(TotalConflictError):
            combine(MassFunction(1.0, 0.0, 0.0), MassFunction(0.0, 1.0, 0.0))
        # The conflict rounds to just under 1, and every non-conflicting product is 0.
        with pytest.raises(TotalConflictError):
            combine(MassFunction(0.9999999999999993, 0, 0), MassFunction(0, 0.9999999999999999, 0))


class TestPredictedHolder:
    def test_tie_goes_to_speaker(self):
        assert predicted_holder(bayesian(0.5)) is Role.SPEAKER
        assert predicted_holder(vacuous()) is Role.SPEAKER

    def test_strict(self):
        assert predicted_holder(MassFunction(0.39, 0.61, 0.0)) is Role.HEARER
        assert predicted_holder(MassFunction(0.61, 0.39, 0.0)) is Role.SPEAKER


class TestProperties:
    @given(masses(), masses())
    def test_normalization(self, m1, m2):
        try:
            out = combine(m1, m2)
        except TotalConflictError:
            return
        assert abs(out.speaker + out.hearer + out.theta - 1.0) <= 1e-9
        assert out.speaker >= 0 and out.hearer >= 0 and out.theta >= 0

    @given(masses(), masses())
    def test_commutativity(self, m1, m2):
        try:
            a = combine(m1, m2)
        except TotalConflictError:
            return
        b = combine(m2, m1)
        assert a.speaker == pytest.approx(b.speaker, abs=1e-12)
        assert a.hearer == pytest.approx(b.hearer, abs=1e-12)
        assert a.theta == pytest.approx(b.theta, abs=1e-12)

    @given(masses(), masses(), masses())
    def test_associativity(self, m1, m2, m3):
        try:
            left = combine(combine(m1, m2), m3)
            right = combine(m1, combine(m2, m3))
        except TotalConflictError:
            return
        assert left.speaker == pytest.approx(right.speaker, abs=1e-9)
        assert left.hearer == pytest.approx(right.hearer, abs=1e-9)
        assert left.theta == pytest.approx(right.theta, abs=1e-9)

    @given(masses(), masses())
    def test_matches_brute_force_oracle(self, m1, m2):
        try:
            out = combine(m1, m2)
        except TotalConflictError:
            return
        expected = bf_combine(as_dict(m1), as_dict(m2))
        assert out.speaker == pytest.approx(expected[SPK], abs=1e-12)
        assert out.hearer == pytest.approx(expected[HEA], abs=1e-12)
        assert out.theta == pytest.approx(expected[THETA], abs=1e-12)

    def test_oracle_seeded_batch(self):
        rng = random.Random(1234)
        for _ in range(1000):
            m1, m2 = random_mass(rng), random_mass(rng)
            out = combine(m1, m2)
            expected = bf_combine(as_dict(m1), as_dict(m2))
            assert abs(out.speaker - expected[SPK]) <= 1e-12
            assert abs(out.hearer - expected[HEA]) <= 1e-12
            assert abs(out.theta - expected[THETA]) <= 1e-12

    @given(masses())
    def test_identity_element(self, m):
        out = combine(m, vacuous())
        assert out.speaker == pytest.approx(m.speaker, abs=1e-12)
        assert out.hearer == pytest.approx(m.hearer, abs=1e-12)
        assert out.theta == pytest.approx(m.theta, abs=1e-12)

    @given(masses())
    def test_argmax_tie_stability(self, m):
        if m.speaker == m.hearer:
            assert predicted_holder(m) is Role.SPEAKER

    def test_argmax_tie_constructed(self):
        for x in (0.0, 0.15, 0.3, 0.5):
            assert predicted_holder(MassFunction(x, x, 1.0 - 2 * x)) is Role.SPEAKER
