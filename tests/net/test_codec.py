"""Tests for the canonical wire format (frame layout, registry, strictness)."""

import pytest

from repro.consensus.batching import (
    BatchEnvelope,
    SuperblockEcho,
    SuperblockReady,
    SuperblockSend,
)
from repro.consensus.interfaces import Aux, BVal, Finish
from repro.core.messages import (
    Announce,
    BallotStateEntry,
    Endorse,
    Endorsement,
    MskShareUpload,
    RecoverRequest,
    RecoverResponse,
    UniquenessCertificate,
    VcStateSnapshot,
    VotePending,
    VoteReceipt,
    VoteRejected,
    VoteRequest,
    VoteSetUpload,
    VscBatch,
    VscEnvelope,
)
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.registry import get_group
from repro.crypto.pedersen_vss import PedersenShare
from repro.shard.records import GlobalCommitRecord, ShardCommitRecord
from repro.crypto.shamir import Share, SignedShare, SigningDealer
from repro.crypto.signatures import SchnorrSignature, SignatureScheme
from repro.crypto.utils import RandomSource
from repro.net.codec import (
    FRAME_HEADER_LEN,
    FRAME_OVERHEAD,
    MAGIC,
    MessageCodec,
    WireFormatError,
    default_codec,
    signing_bytes,
)


@pytest.fixture(scope="module")
def codec():
    return MessageCodec()


@pytest.fixture(scope="module")
def signature():
    scheme = SignatureScheme()
    keys = scheme.keygen(RandomSource(3))
    return scheme.sign(keys, b"wire-test", RandomSource(4))


@pytest.fixture(scope="module")
def sample_messages(signature):
    """One instance of every registered protocol payload."""
    endorsement = Endorsement(7, b"code-bytes", "VC-1", signature)
    ucert = UniquenessCertificate(7, b"code-bytes", (endorsement,))
    signed_share = SignedShare(Share(2, (1 << 200) + 17), b"receipt|7|A|0", signature)
    group = get_group("ed25519")
    scheme = OptionEncodingScheme(2, group.power_g(5), group)
    commitment, _ = scheme.commit_option(1, RandomSource(9))
    shard_record = ShardCommitRecord(
        shard_id=0,
        serial_lo=0,
        serial_hi=100,
        ballots_registered=100,
        ballots_cast=73,
        commitment=commitment,
        vote_set_digest=b"\x11" * 32,
        sender="shard-0",
    )
    return [
        VoteRequest(7, b"code-bytes", "V-0"),
        VoteReceipt(7, b"code-bytes", b"\x00" * 8),
        VoteRejected(7, b"code-bytes", "outside voting hours"),
        Endorse(7, b"code-bytes"),
        endorsement,
        ucert,
        VotePending(7, b"code-bytes", signed_share, ucert, "VC-2"),
        Announce(7, b"code-bytes", ucert, "VC-0"),
        Announce(8, None, None, "VC-0"),
        RecoverRequest(7, "VC-3"),
        RecoverResponse(7, b"code-bytes", ucert, "VC-3"),
        VscEnvelope(BVal("7", 1, 0), "VC-0"),
        VscBatch(
            BatchEnvelope((BVal("7", 0, 1), Aux("7", 0, 1), Finish("7", 1))), "VC-1"
        ),
        VoteSetUpload(((7, b"code-bytes"), (9, b"other")), "VC-2"),
        MskShareUpload(signed_share, "VC-2"),
        BallotStateEntry(
            7, "voted", b"code-bytes", b"code-bytes", b"\x00" * 8, ucert,
            (("VC-1", signed_share),),
        ),
        VcStateSnapshot(
            "VC-0",
            True,
            (
                BallotStateEntry(7, "voted", b"code-bytes", None, None, None, ()),
                BallotStateEntry(9, "not-voted", None, b"other", None, None, ()),
            ),
        ),
        BVal("sb|0", 2, 1),
        Aux("12", 0, 0),
        Finish("12", 1),
        SuperblockSend("sb|0", "VC-0", (1, 0, 1, 1)),
        SuperblockEcho("sb|0", "VC-1", (1, 0, 1, 1)),
        SuperblockReady("sb|0", "VC-2", (1, 0, 1, 1)),
        BatchEnvelope((Aux("3", 1, 1), SuperblockSend("sb|1", "VC-0", (0, 1)))),
        signature,
        Share(1, 42),
        SignedShare(Share(1, 42), b"ctx", signature),
        PedersenShare(3, 11, 29),
        commitment.ciphertexts[0],
        commitment,
        shard_record,
        GlobalCommitRecord(
            election_id="codec-test",
            num_shards=1,
            total_cast=73,
            combined=commitment,
            shard_digests=(b"\x22" * 32,),
        ),
    ]


class TestRoundTrip:
    def test_every_registered_type_round_trips(self, codec, sample_messages):
        for message in sample_messages:
            frame = codec.encode(message)
            assert codec.decode(frame) == message

    def test_sample_covers_the_whole_registry(self, codec, sample_messages):
        sampled = {type(message) for message in sample_messages}
        assert sampled == set(codec.registered_types)

    def test_encoding_is_deterministic(self, codec, sample_messages):
        for message in sample_messages:
            assert codec.encode(message) == codec.encode(message)

    def test_signature_without_commitment_round_trips(self, codec):
        bare = SchnorrSignature(12345, 67890, None)
        assert codec.decode(codec.encode(bare)) == bare

    def test_ec_group_elements_round_trip(self):
        group = get_group("ed25519")
        scheme = SignatureScheme(group)
        keys = scheme.keygen(RandomSource(5))
        sig = scheme.sign(keys, b"ec", RandomSource(6))
        codec = MessageCodec(group=group)
        assert codec.decode(codec.encode(sig)) == sig
        # The group-less default codec infers the backend from the prefix.
        assert default_codec().decode(codec.encode(sig)) == sig


class TestStrictDecoding:
    def test_unknown_tag_rejected(self, codec):
        frame = bytearray(codec.encode(Endorse(1, b"x")))
        frame[3:5] = (0xFF, 0xFF)  # tag field
        with pytest.raises(WireFormatError):
            codec.decode(bytes(frame))

    def test_every_single_byte_flip_is_rejected(self, codec):
        frame = codec.encode(Endorse(1, b"x"))
        for index in range(len(frame)):
            corrupted = bytearray(frame)
            corrupted[index] ^= 0x01
            with pytest.raises(WireFormatError):
                codec.decode(bytes(corrupted))

    def test_truncation_rejected_at_every_length(self, codec):
        frame = codec.encode(VoteRequest(1, b"code", "V-0"))
        for length in range(len(frame)):
            with pytest.raises(WireFormatError):
                codec.decode(frame[:length])

    def test_trailing_garbage_rejected(self, codec):
        frame = codec.encode(Endorse(1, b"x"))
        with pytest.raises(WireFormatError):
            codec.decode(frame + b"\x00")

    def test_bad_magic_rejected(self, codec):
        frame = codec.encode(Endorse(1, b"x"))
        with pytest.raises(WireFormatError):
            codec.decode(b"XX" + frame[2:])

    def test_unsupported_version_rejected(self, codec):
        frame = bytearray(codec.encode(Endorse(1, b"x")))
        frame[2] = 99
        with pytest.raises(WireFormatError):
            codec.decode(bytes(frame))

    def test_unregistered_payload_rejected(self, codec):
        with pytest.raises(WireFormatError):
            codec.encode(object())

    def test_embedded_type_must_match_field(self, codec):
        # Hand-build a VscEnvelope frame whose consensus slot holds a
        # VoteRequest: the per-field type check must reject it even though
        # framing, lengths and checksum are all valid.
        import zlib

        body = bytearray()
        codec.encode_embedded(VoteRequest(1, b"x", "V-0"), body)
        body += len(b"VC-0").to_bytes(4, "big") + b"VC-0"  # sender vstr
        frame = bytearray(MAGIC)
        frame += bytes([1])  # version
        frame += codec.tag_of(VscEnvelope).to_bytes(2, "big")
        frame += len(body).to_bytes(4, "big")
        frame += body
        frame += zlib.crc32(bytes(frame)).to_bytes(4, "big")
        with pytest.raises(WireFormatError):
            codec.decode(bytes(frame))

    def test_frame_remainder_length(self, codec):
        frame = codec.encode(Endorse(1, b"x"))
        header = frame[:FRAME_HEADER_LEN]
        assert MessageCodec.frame_remainder_length(header) == len(frame) - FRAME_HEADER_LEN
        with pytest.raises(WireFormatError):
            MessageCodec.frame_remainder_length(b"XX" + header[2:])

    def test_frame_overhead_constant(self, codec):
        # magic + version + tag + length + crc32
        assert FRAME_OVERHEAD == 13
        assert codec.encode(Finish("1", 0)).startswith(MAGIC)


class TestRegistry:
    def test_duplicate_tag_rejected(self):
        codec = MessageCodec()
        with pytest.raises(ValueError):
            codec.register(codec.tag_of(Endorse), int, lambda c, o, b: None, lambda c, r: 0)

    def test_duplicate_type_rejected(self):
        codec = MessageCodec()
        with pytest.raises(ValueError):
            codec.register(0x1234, Endorse, lambda c, o, b: None, lambda c, r: 0)

    def test_custom_type_registration(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Ping:
            nonce: int

        codec = MessageCodec()
        codec.register(
            0x7000,
            Ping,
            lambda c, obj, out: out.extend(obj.nonce.to_bytes(4, "big")),
            lambda c, r: Ping(int.from_bytes(r.take(4), "big")),
        )
        assert codec.decode(codec.encode(Ping(77))) == Ping(77)


class TestSigningBytes:
    def test_deterministic(self):
        assert signing_bytes(b"d", 1, "x", b"y") == signing_bytes(b"d", 1, "x", b"y")

    def test_domain_separation(self):
        assert signing_bytes(b"endorse", 1) != signing_bytes(b"dealer-share", 1)

    def test_no_concatenation_ambiguity(self):
        # The old b"|"-joined format could not distinguish these splits.
        assert signing_bytes(b"d", b"a|b", b"c") != signing_bytes(b"d", b"a", b"b|c")
        assert signing_bytes(b"d", b"ab", b"c") != signing_bytes(b"d", b"a", b"bc")

    def test_typed_parts_do_not_collide(self):
        assert signing_bytes(b"d", 1) != signing_bytes(b"d", "1")
        assert signing_bytes(b"d", b"1") != signing_bytes(b"d", "1")

    def test_objects_use_registered_encodings(self, signature):
        share = Share(1, 5)
        one = signing_bytes(b"d", share)
        two = signing_bytes(b"d", Share(1, 6))
        assert one != two

    def test_dealer_share_signatures_use_canonical_encoding(self):
        dealer = SigningDealer(2, 3)
        (share, *_rest) = dealer.deal(999, b"ctx|with|pipes")
        assert SigningDealer.verify_share(dealer.scheme, dealer.public_key, share)
        # Moving a byte between context and share payload must not verify.
        tampered = SignedShare(share.share, b"ctx|with|pipes2", share.signature)
        assert not SigningDealer.verify_share(dealer.scheme, dealer.public_key, tampered)
