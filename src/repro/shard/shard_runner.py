"""One shard's election slice: admission, Vote Set Consensus, streaming tally.

A :class:`ShardRunner` executes everything the protocol needs for the ballots
in one contiguous serial range, holding only O(shard) state:

setup       One derivation pass over the range hashes each serial's
            digest (choice, turnout) and, for each cast ballot, its vote code
            and salt.  The EA's salted code commitments are built from it
            before any vote is accepted.

admission   The responsible collector re-hashes the *submitted* vote code
            with the EA's salt and compares it to the precomputed commitment
            -- the same check the full simulator's ``VoteCollectorNode``
            performs.

consensus   The shard's own collectors run superblock Vote Set Consensus
            (``consensus/batching.py`` via ``ConsensusCluster``) over the
            admitted-ballot opinion vector, so agreement messages are
            amortized across ``consensus_batch_size`` ballots.

tally       Cast ballots stream through :class:`StreamingTally`, reusing the
            digest for the choice and the code for the vote-set digest:
            per-ballot randomness is *derived*, never stored, and the shard
            flushes one combined commitment + opening at the end --
            O(num_options) exponentiations per shard regardless of shard size.

Every constant leading part of these hashes (tag, seed, election id) is
framed once per runner as a :func:`~repro.crypto.utils.sha256_prefix` state,
and each serial is derived once, so a shard costs
``registered + cast * (5 + num_options)`` SHA-256 calls: one digest per
serial, then code, salt, EA commitment, admission check and randomness base
plus one randomness hash per option for each cast ballot.

The result is a codec-framed :class:`ShardCommitRecord` (plus its opening)
ready for the cross-shard merge.  Because per-ballot choices and randomness
depend only on ``(seed, election_id, serial)``, the merged tally — counts
*and* combined commitment — is identical for every shard count.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.consensus.cluster import ConsensusCluster
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.utils import int_to_bytes, sha256, sha256_prefix
from repro.net.codec import MessageCodec, WireFormatError, default_codec
from repro.shard.partition import ShardRange
from repro.shard.records import ShardCommitRecord
from repro.shard.streaming import StreamingTally


class VoteCodeRejected(RuntimeError):
    """A submitted vote code does not open the EA's salted commitment."""

    def __init__(self, shard_id: int, serial: int):
        super().__init__(
            f"shard {shard_id}: vote code for serial {serial} does not match "
            f"the EA's salted commitment"
        )
        self.shard_id = shard_id
        self.serial = serial

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted message)
        # into ``__init__``, which takes (shard_id, serial) -- rebuild from
        # the attributes instead so the error survives the process boundary.
        return (VoteCodeRejected, (self.shard_id, self.serial))


#: every key :meth:`ShardSliceResult.to_wire_dict` writes
_WIRE_FIELDS = (
    "record_frame",
    "opening_values",
    "opening_randomness",
    "counts",
    "messages_sent",
    "superblocks_fast",
    "superblocks_fallback",
    "duration_s",
)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _wire_ints(data: Mapping, key: str, arity: int) -> Tuple[int, ...]:
    """A wire vector of exactly ``arity`` ints (one per option)."""
    values = data[key]
    if not isinstance(values, (tuple, list)) or len(values) != arity:
        raise WireFormatError(
            f"shard wire field {key!r} must hold {arity} ints (one per option), got {values!r}"
        )
    if not all(_is_int(value) for value in values):
        raise WireFormatError(f"shard wire field {key!r} holds a non-int: {values!r}")
    return tuple(values)


def _wire_count(data: Mapping, key: str) -> int:
    value = data[key]
    if not _is_int(value) or value < 0:
        raise WireFormatError(f"shard wire field {key!r} is not a count: {value!r}")
    return value


@dataclass(frozen=True)
class ShardSliceResult:
    """Everything a shard hands to the merge layer, plus its statistics."""

    record: ShardCommitRecord
    opening: CommitmentOpening
    record_frame: bytes
    counts: Tuple[int, ...]
    messages_sent: int
    superblocks_fast: int
    superblocks_fallback: int
    duration_s: float

    @property
    def shard_id(self) -> int:
        return self.record.shard_id

    @property
    def ballots_cast(self) -> int:
        return self.record.ballots_cast

    # -- process-boundary transfer ---------------------------------------------

    def to_wire_dict(self) -> dict:
        """Codec frame + plain scalars: the process-boundary form.

        Group elements must not cross a process boundary as pickles -- the
        gmpy2 backend's ``mpz`` values have no pickle-stable identity and the
        curve backends carry backend-specific element classes.  The record
        travels as its canonical codec frame (tag 0x60) and the opening as
        builtin ints, so the transfer works identically on every backend.
        """
        return {
            "record_frame": self.record_frame,
            "opening_values": tuple(int(v) for v in self.opening.values),
            "opening_randomness": tuple(int(r) for r in self.opening.randomness),
            "counts": tuple(int(count) for count in self.counts),
            "messages_sent": self.messages_sent,
            "superblocks_fast": self.superblocks_fast,
            "superblocks_fallback": self.superblocks_fallback,
            "duration_s": self.duration_s,
        }

    @classmethod
    def from_wire_dict(
        cls, data: Mapping, codec: Optional[MessageCodec] = None
    ) -> "ShardSliceResult":
        """Rebuild a result from :meth:`to_wire_dict` output.

        Pass a codec constructed with the election's group so the decoded
        commitment's elements live in the caller's backend.  A worker's dict
        is untrusted input: a missing key, a vector whose length is not the
        record's option count, a non-int scalar or a negative count raises
        :class:`WireFormatError` naming the field, before anything reaches
        the merge.
        """
        missing = [key for key in _WIRE_FIELDS if key not in data]
        if missing:
            raise WireFormatError(f"shard wire dict lacks field(s) {missing}")
        frame = data["record_frame"]
        if not isinstance(frame, bytes):
            raise WireFormatError("shard wire field 'record_frame' must be bytes")
        record = (codec or default_codec()).decode(frame)
        if not isinstance(record, ShardCommitRecord):
            raise WireFormatError(
                f"expected a ShardCommitRecord frame, decoded {type(record).__name__}"
            )
        arity = len(record.commitment)
        values, randomness, counts = (
            _wire_ints(data, key, arity)
            for key in ("opening_values", "opening_randomness", "counts")
        )
        if any(count < 0 for count in counts):
            raise WireFormatError(f"shard wire field 'counts' has a negative count: {counts}")
        duration = data["duration_s"]
        if not isinstance(duration, (int, float)) or isinstance(duration, bool):
            raise WireFormatError(f"shard wire field 'duration_s' is not a number: {duration!r}")
        return cls(
            record=record,
            opening=CommitmentOpening(values, randomness),
            record_frame=frame,
            counts=counts,
            messages_sent=_wire_count(data, "messages_sent"),
            superblocks_fast=_wire_count(data, "superblocks_fast"),
            superblocks_fallback=_wire_count(data, "superblocks_fallback"),
            duration_s=float(duration),
        )


#: what the derivation pass yields for one cast serial: (choice, vote code,
#: salt).  A plain tuple, not a NamedTuple: the cycle collector untracks
#: exact tuples of atomic values, while one tracked object per ballot delays
#: the full collections that free each slice's consensus-cluster cycles
#: (pool workers then hold ~50% more memory on a 100k-ballot run).
DerivedBallot = Tuple[int, bytes, bytes]


class ShardRunner:
    """Run the election slice for one contiguous ballot-serial range."""

    def __init__(
        self,
        shard: ShardRange,
        scheme: OptionEncodingScheme,
        seed: int,
        election_id: str,
        num_collectors: int = 4,
        consensus_batch_size: int = 1024,
        turnout: float = 1.0,
        silent_collectors: Sequence[int] = (),
        codec: Optional[MessageCodec] = None,
        tampered_codes: Optional[Mapping[int, bytes]] = None,
    ):
        if num_collectors < 1:
            raise ValueError("a shard needs at least one vote collector")
        if consensus_batch_size < 1:
            raise ValueError("consensus_batch_size must be at least 1")
        if not 0.0 < turnout <= 1.0:
            raise ValueError("turnout must be in (0, 1]")
        self.shard = shard
        self.scheme = scheme
        self.seed = seed
        self.election_id = election_id
        self.num_collectors = num_collectors
        self.consensus_batch_size = consensus_batch_size
        self.turnout = turnout
        self.silent_collectors = tuple(silent_collectors)
        self.codec = codec or default_codec()
        #: fault-injection hook: serial -> the (wrong) code that voter submits.
        self.tampered_codes = dict(tampered_codes or {})
        seed_bytes = int_to_bytes(seed)
        id_bytes = election_id.encode("utf-8")
        # Constant leading parts of every per-ballot hash, framed once.
        self._ballot_prefix = sha256_prefix(b"shard-ballot", seed_bytes, id_bytes)
        self._code_prefix = sha256_prefix(b"shard-vote-code")
        self._salt_prefix = sha256_prefix(b"shard-salt", seed_bytes)
        self._commit_prefix = sha256_prefix(b"shard-code-commit")
        self._rand_prefix = sha256_prefix(b"shard-rand", seed_bytes, id_bytes)
        self._coordinates = tuple(int_to_bytes(c) for c in range(scheme.num_options))
        # Turnout threshold on one derived byte: cast iff digest byte < cut.
        self._turnout_cut = int(round(turnout * 256))

    # -- deterministic per-ballot derivation -----------------------------------

    def _ballot_digest(self, serial: int) -> bytes:
        return sha256(int_to_bytes(serial), prefix=self._ballot_prefix)

    def choice_of(self, serial: int) -> int:
        return self._choice(self._ballot_digest(serial))

    def _choice(self, digest: bytes) -> int:
        return int.from_bytes(digest[:8], "big") % self.scheme.num_options

    def is_cast(self, digest: bytes) -> bool:
        return digest[9] < self._turnout_cut

    def _randomness(self, serial: int) -> Tuple[int, ...]:
        order = self.scheme.group.order
        base = sha256(int_to_bytes(serial), prefix=self._rand_prefix)
        return tuple(
            int.from_bytes(sha256(base, coordinate), "big") % order
            for coordinate in self._coordinates
        )

    def derive_ballots(self) -> List[Optional[DerivedBallot]]:
        """The single derivation pass that setup, admission and tally share.

        Indexed by ``serial - lo``; ``None`` marks serials whose derived
        voter abstains.
        """
        derived: List[Optional[DerivedBallot]] = []
        for serial in range(self.shard.lo, self.shard.hi):
            serial_bytes = int_to_bytes(serial)
            digest = sha256(serial_bytes, prefix=self._ballot_prefix)
            if self.is_cast(digest):
                derived.append((
                    self._choice(digest),
                    sha256(digest, prefix=self._code_prefix)[:16],
                    sha256(serial_bytes, prefix=self._salt_prefix),
                ))
            else:
                derived.append(None)
        return derived

    def ea_commitment_table(
        self, derived: Optional[Sequence[Optional[DerivedBallot]]] = None
    ) -> List[Optional[bytes]]:
        """EA setup: the salted commitment of every castable serial's code.

        Indexed by ``serial - lo``; ``None`` marks serials whose derived
        voter abstains.  ``derived`` is :meth:`derive_ballots` output (derived
        here when omitted).  This table is what admission checks submitted
        codes *against* -- it must exist before any vote is accepted, exactly
        like the EA's published election data in the full simulator.
        O(shard) 32-byte entries.
        """
        if derived is None:
            derived = self.derive_ballots()
        commit = self._commit_prefix
        return [
            None if ballot is None else sha256(ballot[2], ballot[1], prefix=commit)
            for ballot in derived
        ]

    # -- the slice -------------------------------------------------------------

    def run(self) -> ShardSliceResult:
        started = time.perf_counter()
        lo = self.shard.lo

        # Phase 0: EA setup.  One derivation pass, then the salted commitment
        # table for the whole range, fixed before admission starts: the check
        # below compares the *submitted* code against an independent,
        # precomputed commitment (not against a value re-derived from the
        # same code).
        derived = self.derive_ballots()
        committed = self.ea_commitment_table(derived)

        # Phase 1: admission.  The responsible collector hashes the submitted
        # code with the EA's salt and checks it against the EA table; every
        # collector records its opinion bit for Vote Set Consensus.
        commit = self._commit_prefix
        opinions = {}
        for offset, ballot in enumerate(derived):
            serial = lo + offset
            if ballot is None:
                opinions[serial] = 0
                continue
            _choice, code, salt = ballot
            submitted = self.tampered_codes.get(serial, code)
            if sha256(salt, submitted, prefix=commit) != committed[offset]:
                raise VoteCodeRejected(self.shard.shard_id, serial)
            opinions[serial] = 1
        del committed

        # Phase 2: superblock Vote Set Consensus among the shard's collectors.
        cluster = ConsensusCluster(
            num_nodes=self.num_collectors,
            batch_size=self.consensus_batch_size,
            silent=self.silent_collectors,
        )
        outcome = cluster.run(opinions)
        if not outcome.agreed:
            raise RuntimeError(f"shard {self.shard.shard_id}: collectors disagreed")
        decided = outcome.decided_serials()
        del opinions, cluster

        # Phase 3: streaming tally + vote-set digest over the decided set,
        # from the setup pass's choices and codes.
        tally = StreamingTally(self.scheme)
        vote_set_hash = hashlib.sha256(b"shard-vote-set")
        for serial in decided:
            choice, code, _salt = derived[serial - lo]
            tally.add_vote(choice, self._randomness(serial))
            vote_set_hash.update(int_to_bytes(serial))
            vote_set_hash.update(code)

        record = ShardCommitRecord(
            shard_id=self.shard.shard_id,
            serial_lo=self.shard.lo,
            serial_hi=self.shard.hi,
            ballots_registered=self.shard.span,
            ballots_cast=len(decided),
            commitment=tally.commit(),
            vote_set_digest=vote_set_hash.digest(),
            sender=f"shard-{self.shard.shard_id}",
        )
        return ShardSliceResult(
            record=record,
            opening=tally.opening(),
            record_frame=self.codec.encode(record),
            counts=tally.counts,
            messages_sent=outcome.messages_sent,
            superblocks_fast=outcome.superblocks_fast,
            superblocks_fallback=outcome.superblocks_fallback,
            duration_s=time.perf_counter() - started,
        )
