"""Property-based tests (hypothesis) for the shard-result wire dict.

A pool worker hands its shard back as :meth:`ShardSliceResult.to_wire_dict`
output, and the parent must treat that dict as untrusted input.  Two
properties:

* **round trip** -- a well-formed dict decodes to the result it came from;
* **strict rejection** -- a dict with a missing key, a vector of the wrong
  arity, a non-int scalar or a negative count raises
  :class:`WireFormatError` naming the offending field, and no other
  exception type ever escapes ``from_wire_dict``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.registry import get_group
from repro.crypto.utils import int_to_bytes
from repro.net.codec import MessageCodec, WireFormatError
from repro.shard import ShardRange, ShardRunner, ShardSliceResult

GROUP = get_group("schnorr")
CODEC = MessageCodec(group=GROUP)
SCHEME = OptionEncodingScheme(
    3, GROUP.power_g(GROUP.hash_to_scalar(b"shard-pk", int_to_bytes(3))), GROUP
)
RESULT = ShardRunner(
    ShardRange(0, 0, 40), scheme=SCHEME, seed=3, election_id="wire-fuzz"
).run()
WIRE = RESULT.to_wire_dict()
ARITY = len(RESULT.record.commitment)

VECTORS = ("opening_values", "opening_randomness", "counts")
COUNTS = ("messages_sent", "superblocks_fast", "superblocks_fallback")

non_ints = st.one_of(
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.none(),
    st.booleans(),
    st.binary(max_size=8),
)
junk = st.one_of(
    non_ints,
    st.integers(),
    st.lists(st.one_of(st.integers(), non_ints), max_size=6),
)


def decode(data):
    return ShardSliceResult.from_wire_dict(data, CODEC)


def rejects(data, field):
    try:
        decode(data)
    except WireFormatError as exc:
        assert field in str(exc), (field, str(exc))
    else:
        raise AssertionError(f"malformed {field!r} decoded")


def test_well_formed_dict_round_trips():
    rebuilt = decode(dict(WIRE))
    assert rebuilt.record == RESULT.record
    assert rebuilt.opening == RESULT.opening
    assert rebuilt.counts == RESULT.counts
    assert ARITY == 3


@given(field=st.sampled_from(sorted(WIRE)))
@settings(max_examples=30)
def test_missing_field_is_named(field):
    data = dict(WIRE)
    del data[field]
    rejects(data, field)


@given(
    field=st.sampled_from(VECTORS),
    length=st.integers(min_value=0, max_value=8).filter(lambda n: n != ARITY),
)
@settings(max_examples=60)
def test_wrong_arity_is_named(field, length):
    data = dict(WIRE)
    data[field] = tuple(range(length))
    rejects(data, field)


@given(
    field=st.sampled_from(VECTORS),
    index=st.integers(min_value=0, max_value=ARITY - 1),
    value=non_ints,
)
@settings(max_examples=60)
def test_non_int_vector_entry_is_named(field, index, value):
    data = dict(WIRE)
    entries = list(data[field])
    entries[index] = value
    data[field] = tuple(entries)
    rejects(data, field)


@given(
    field=st.sampled_from(COUNTS),
    value=st.one_of(non_ints, st.integers(max_value=-1)),
)
@settings(max_examples=60)
def test_bad_scalar_count_is_named(field, value):
    data = dict(WIRE)
    data[field] = value
    rejects(data, field)


@given(index=st.integers(min_value=0, max_value=ARITY - 1), value=st.integers(max_value=-1))
@settings(max_examples=30)
def test_negative_option_count_is_named(index, value):
    data = dict(WIRE)
    counts = list(data["counts"])
    counts[index] = value
    data["counts"] = tuple(counts)
    rejects(data, "counts")


@given(field=st.sampled_from(sorted(WIRE)), value=junk)
@settings(max_examples=200)
def test_only_wire_format_errors_escape(field, value):
    data = dict(WIRE)
    data[field] = value
    try:
        decode(data)
    except WireFormatError:
        pass
