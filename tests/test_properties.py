"""Property tests over small random channels of every kind."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from randual.channels import (
    UnitaryChannel,
    apply_channel,
    load_channel,
    save_channel,
)
from randual.dual import duality_pairing, exact_dual
from randual.rng import SeedSpec, haar_unitary

from helpers import assert_same_stream, random_hermitian, random_kraus_channel, seedsequence_rng

# derandomized and without an example database: the same examples on every run
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@st.composite
def channels(draw):
    """A channel from d_a <= 6 to d_b <= 6 of a drawn kind."""
    kind = draw(st.sampled_from(["kraus", "unitary_induced", "dilated"]))
    seed = draw(st.integers(0, 2**32 - 1))
    d_a = draw(st.integers(1, 6))
    if kind == "unitary_induced":
        d_b = draw(st.sampled_from([d for d in range(1, d_a + 1) if d_a % d == 0]))
        return UnitaryChannel(haar_unitary(d_a, seed), d_b=d_b)
    d_b = draw(st.integers(1, 6))
    if kind == "dilated":
        d_u = math.lcm(d_a, d_b) * draw(st.integers(1, 2))
        return UnitaryChannel(haar_unitary(d_u, seed), d_a=d_a, d_b=d_b)
    # r Kraus operators need d_b * r >= d_a to form an isometry
    r = draw(st.integers(-(-d_a // d_b), 6))
    return random_kraus_channel(np.random.default_rng(seed), d_a, d_b, r)


def _matrices(ch):
    return ch.operators if hasattr(ch, "operators") else ch.unitary


@SETTINGS
@given(ch=channels())
def test_save_load_roundtrip_is_bitwise(ch, tmp_path_factory):
    path = tmp_path_factory.mktemp("roundtrip") / "channel.json"
    save_channel(ch, str(path))
    back = load_channel(str(path))
    assert type(back) is type(ch)
    assert (back.d_a, back.d_b) == (ch.d_a, ch.d_b)
    assert _matrices(back).tobytes() == _matrices(ch).tobytes()


@SETTINGS
@given(ch=channels(), seed=st.integers(0, 2**32 - 1))
def test_exact_dual_pairing_identity(ch, seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, ch.d_a)
    b = random_hermitian(rng, ch.d_b)
    want = np.trace(apply_channel(ch, a) @ b).real
    assert abs(duality_pairing(exact_dual(ch), a, b) - want) <= 1e-10


@settings(SETTINGS, max_examples=200)
@given(master=st.integers(0, 2**200 - 1), index=st.integers(0, 2**40 - 1))
def test_seedspec_stream_matches_seedsequence(master, index):
    assert_same_stream(SeedSpec(master, index).rng(), seedsequence_rng(master, index))
