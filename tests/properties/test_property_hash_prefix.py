"""Property-based tests (hypothesis) for prefix-state SHA-256 hashing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.utils import sha256, sha256_prefix

#: a message split into leading and trailing parts, empty parts included
parts = st.lists(st.binary(min_size=0, max_size=80), min_size=0, max_size=5)


@settings(max_examples=200, deadline=None)
@given(lead=parts, tail=parts)
def test_prefix_state_continues_the_framed_hash(lead, tail):
    assert sha256(*tail, prefix=sha256_prefix(*lead)) == sha256(*lead, *tail)


@settings(max_examples=100, deadline=None)
@given(lead=parts, first=parts, second=parts)
def test_a_prefix_state_is_reusable(lead, first, second):
    """Hashing from a prefix copies it: the state is never advanced."""
    prefix = sha256_prefix(*lead)
    once = sha256(*first, prefix=prefix)
    sha256(*second, prefix=prefix)
    assert sha256(*first, prefix=prefix) == once == sha256(*lead, *first)

