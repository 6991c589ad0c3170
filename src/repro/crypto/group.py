"""Prime-order group abstraction behind the pluggable backend registry.

The paper performs all homomorphic cryptography over an elliptic curve (via
the MIRACL library).  This module defines the abstract interface every
backend implements -- :class:`Group` / :class:`GroupElement` plus the
exponentiation accelerators (:class:`FixedBasePrecomputation`,
:meth:`Group.multi_power`, :meth:`Group.cached_power`) -- and the reference
backend, :class:`SchnorrGroup`: a multiplicative subgroup of prime order
``q`` of ``Z_p^*`` (registry name ``"schnorr"``), pure Python and fast enough
for full end-to-end election tests.

The other backends live in sibling modules: the gmpy2-accelerated Schnorr
group (:mod:`repro.crypto.gmpy2_backend`, ``"schnorr-gmpy2"``) and the
Ed25519 twisted Edwards group with 32-byte compressed elements
(:mod:`repro.crypto.ed25519`, ``"ed25519"``).

Construct groups through :func:`repro.crypto.get_group` -- the registry in
:mod:`repro.crypto.registry` -- so backend selection stays registry-driven
and parameterless calls share one warm instance per backend.  All
protocol code (ElGamal, commitments, zero-knowledge proofs, Pedersen VSS,
Schnorr signatures, batch verification) is written once against the abstract
interface and runs over any registered backend.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.crypto.utils import RandomSource, default_random, hash_to_scalar, sha256


class GroupElement:
    """Abstract element of a prime-order group (written multiplicatively)."""

    group: "Group"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        raise NotImplementedError

    def __pow__(self, exponent: int) -> "GroupElement":
        raise NotImplementedError

    def inverse(self) -> "GroupElement":
        raise NotImplementedError

    def serialize(self) -> bytes:
        raise NotImplementedError

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.serialize() == other.serialize()

    def __hash__(self) -> int:
        return hash(self.serialize())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.serialize().hex()[:16]}...>"


class FixedBasePrecomputation:
    """Windowed fixed-base exponentiation table for one group element.

    The exponent is split into ``window``-bit digits; ``table[i][d]`` holds
    ``base ** (d << (window * i))``, so :meth:`power` needs at most
    ``ceil(bits / window)`` multiplications and *no* squarings.  Building the
    table costs roughly ``(2 ** window) * bits / window`` multiplications, so
    precomputation pays off after a handful of exponentiations -- and the
    protocol reuses the same few bases (``g``, ``h``, the election public key)
    for every ballot, commitment and share, which is exactly the crypto hot
    path of EA setup and tally verification.
    """

    def __init__(self, base: GroupElement, window: int = 5):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.base = base
        self.group = base.group
        self.window = window
        self.mask = (1 << window) - 1
        bits = self.group.order.bit_length()
        self.num_digits = (bits + window - 1) // window
        #: ``table[i][d]`` is ``base ** (d << (window * i))``; backends may
        #: store rows in a cheaper representation (see :class:`SchnorrFixedBase`).
        self.table = self._build_table()

    def _build_table(self) -> list:
        table = []
        current = self.base
        for _ in range(self.num_digits):
            row = [self.group.identity()]
            for _ in range(self.mask):
                row.append(row[-1] * current)
            table.append(row)
            # current ** (2 ** window) for the next digit position.
            current = row[-1] * current
        return table

    def power(self, exponent: int) -> GroupElement:
        """Return ``base ** exponent`` using only table lookups and products."""
        e = exponent % self.group.order
        result = self.group.identity()
        index = 0
        while e:
            digit = e & self.mask
            if digit:
                result = result * self.table[index][digit]
            e >>= self.window
            index += 1
        return result


class Group:
    """Abstract prime-order group."""

    #: order of the group (a prime)
    order: int

    #: registry name of the backend (set by :func:`repro.crypto.get_group`;
    #: ``None`` for directly constructed instances)
    backend_name: Optional[str] = None

    #: serialized size of one element in bytes (Schnorr: modulus bytes plus
    #: the ``b"S"`` prefix; Ed25519: 32).  Every built-in backend has
    #: fixed-size elements; ``None`` marks a backend that declares no size.
    element_bytes: Optional[int] = None

    def __getstate__(self) -> dict:
        """Pickle without the precomputation caches.

        Group elements carry a ``group`` reference, so every chunk shipped to
        a worker process would otherwise re-serialize hundreds of kilobytes
        of fixed-base tables.  The caches are pure accelerators; workers
        rebuild them lazily on first use.
        """
        state = self.__dict__.copy()
        state.pop("_fixed_base_cache", None)
        state.pop("_base_use_counts", None)
        return state

    def generator(self) -> GroupElement:
        """Return the fixed generator ``g``."""
        raise NotImplementedError

    def second_generator(self) -> GroupElement:
        """Return an independent generator ``h`` (nothing-up-my-sleeve)."""
        raise NotImplementedError

    def identity(self) -> GroupElement:
        """Return the identity element."""
        raise NotImplementedError

    def random_scalar(self, rng: Optional[RandomSource] = None) -> int:
        """Return a uniformly random exponent in ``[1, order)``."""
        rng = rng or default_random()
        return rng.randint_range(1, self.order)

    def hash_to_scalar(self, *parts: bytes) -> int:
        """Hash arbitrary byte strings into an exponent."""
        return hash_to_scalar(self.order, *parts)

    def deserialize(self, data: bytes) -> GroupElement:
        """Inverse of :meth:`GroupElement.serialize`."""
        raise NotImplementedError

    # -- exponentiation accelerators -------------------------------------------

    #: bound on the number of fixed-base tables one group instance retains.
    #: The protocol's genuinely hot bases (generators, election key, VC/BB/EA
    #: signer keys) number a few dozen; beyond that, least-recently-used
    #: tables are evicted so a million-ballot run cannot accumulate O(bases)
    #: tables (each table is hundreds of kilobytes).
    MAX_FIXED_BASE_TABLES = 64

    #: bound on the promotion-counter map of :meth:`cached_power`; oldest
    #: counters are dropped first (a dropped base simply re-earns promotion).
    MAX_TRACKED_BASES = 4096

    def fixed_base(self, element: GroupElement) -> FixedBasePrecomputation:
        """Return a (cached) fixed-base precomputation for ``element``.

        The cache is keyed by the serialized element and bounded to
        :data:`MAX_FIXED_BASE_TABLES` entries with least-recently-used
        eviction, so long multi-election runs keep only the hot bases.
        """
        cache: OrderedDict = getattr(self, "_fixed_base_cache", None)
        if cache is None:
            cache = OrderedDict()
            self._fixed_base_cache = cache
        key = element.serialize()
        precomputed = cache.get(key)
        if precomputed is None:
            precomputed = self._build_fixed_base(element)
            cache[key] = precomputed
            while len(cache) > self.MAX_FIXED_BASE_TABLES:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return precomputed

    def _build_fixed_base(self, element: GroupElement) -> FixedBasePrecomputation:
        """Backend hook: build a precomputation table for ``element``."""
        return FixedBasePrecomputation(element)

    #: uses of a base before :meth:`cached_power` builds its table (building
    #: costs roughly eight plain exponentiations, so promoting too eagerly
    #: would slow one-shot bases down)
    PRECOMPUTE_AFTER_USES = 4

    def plain_power(self, base: GroupElement, exponent: int) -> GroupElement:
        """One plain exponentiation (backend hook for accelerated mod-exp)."""
        return base ** exponent

    def cached_power(self, base: GroupElement, exponent: int) -> GroupElement:
        """``base ** exponent``, precomputing a table only for reused bases.

        First uses of a base pay plain exponentiation; once a base has been
        seen :data:`PRECOMPUTE_AFTER_USES` times it is promoted to a windowed
        table (generators and long-lived election/signer keys cross the
        threshold immediately in practice, one-shot keys never do, and the
        cache only ever holds genuinely hot bases).
        """
        cache = getattr(self, "_fixed_base_cache", None)
        if cache is not None:
            precomputed = cache.get(base.serialize())
            if precomputed is not None:
                cache.move_to_end(base.serialize())
                return precomputed.power(exponent)
        counts = getattr(self, "_base_use_counts", None)
        if counts is None:
            counts = OrderedDict()
            self._base_use_counts = counts
        key = base.serialize()
        counts[key] = counts.get(key, 0) + 1
        if counts[key] >= self.PRECOMPUTE_AFTER_USES:
            del counts[key]
            return self.fixed_base(base).power(exponent)
        counts.move_to_end(key)
        while len(counts) > self.MAX_TRACKED_BASES:
            counts.popitem(last=False)
        return self.plain_power(base, exponent)

    def power_g(self, exponent: int) -> GroupElement:
        """``g ** exponent`` through the cached fixed-base table."""
        return self.fixed_base(self.generator()).power(exponent)

    def power_h(self, exponent: int) -> GroupElement:
        """``h ** exponent`` through the cached fixed-base table."""
        return self.fixed_base(self.second_generator()).power(exponent)

    def multi_power(self, pairs: Sequence[Tuple[GroupElement, int]]) -> GroupElement:
        """Simultaneous multi-exponentiation: ``prod(base ** exp)``.

        Shamir's trick: one shared square-and-multiply pass over all exponent
        bits, so ``k`` exponentiations cost one chain of squarings instead of
        ``k``.  Used for the variable-base products of Pedersen share
        verification, where the bases (polynomial commitments) change with
        every dealing and a fixed-base table would never amortize.
        """
        reduced = [(base, exponent % self.order) for base, exponent in pairs]
        reduced = [(base, exponent) for base, exponent in reduced if exponent]
        if not reduced:
            return self.identity()
        max_bits = max(exponent.bit_length() for _, exponent in reduced)
        result = self.identity()
        for bit in range(max_bits - 1, -1, -1):
            result = result * result
            for base, exponent in reduced:
                if (exponent >> bit) & 1:
                    result = result * base
        return result


# ---------------------------------------------------------------------------
# Multiplicative Schnorr group backend
# ---------------------------------------------------------------------------


#: RFC 3526 2048-bit MODP prime.  It is a safe prime (p = 2q + 1), so it
#: drops into :class:`SchnorrGroup` unchanged with ``g = 4`` generating the
#: order-q quadratic-residue subgroup.  This is the deployment-grade
#: parameterization; the 256-bit default below trades security margin for
#: test speed.  Used by the benchmark sweeps for security-equivalent
#: comparisons against the 32-byte Ed25519 backend.
RFC3526_MODP_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)


@dataclass(frozen=True)
class SchnorrElement(GroupElement):
    """Element of a Schnorr group: an integer modulo ``p``."""

    value: int
    group: "SchnorrGroup"

    def __mul__(self, other: GroupElement) -> "SchnorrElement":
        assert isinstance(other, SchnorrElement)
        return SchnorrElement((self.value * other.value) % self.group.p, self.group)

    def __pow__(self, exponent: int) -> "SchnorrElement":
        return SchnorrElement(
            pow(self.value, exponent % self.group.order, self.group.p), self.group
        )

    def inverse(self) -> "SchnorrElement":
        return SchnorrElement(pow(self.value, -1, self.group.p), self.group)

    def serialize(self) -> bytes:
        length = (self.group.p.bit_length() + 7) // 8
        return b"S" + self.value.to_bytes(length, "big")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SchnorrElement) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("schnorr", self.value))


class SchnorrGroup(Group):
    """Prime-order subgroup of ``Z_p^*`` with ``p = 2q + 1`` (safe prime).

    The default parameters use a 256-bit safe prime, which keeps pure-Python
    exponentiation fast enough for full end-to-end election tests while still
    being an actual DDH-hard group.
    """

    # 256-bit safe prime p = 2q + 1 (q prime), generated with a Miller-Rabin
    # search; see DESIGN.md.  g = 2^2 is a quadratic residue and therefore
    # generates the order-q subgroup.
    _DEFAULT_P = 0x9F9B41D4CD3CC3DB42914B1DF5F84DA30C82ED1E4728E754FDA103B8924619F3
    _DEFAULT_G = 4

    def __init__(self, p: Optional[int] = None, g: Optional[int] = None):
        self.p = p if p is not None else self._DEFAULT_P
        self.order = (self.p - 1) // 2
        self.element_bytes = (self.p.bit_length() + 7) // 8 + 1
        base = g if g is not None else self._DEFAULT_G
        self._g = self.element(base)
        self._h = self._derive_second_generator()

    def _derive_second_generator(self) -> "SchnorrElement":
        # Hash the generator to obtain an independent element of the subgroup.
        seed = sha256(b"d-demos-second-generator", self._g.serialize())
        candidate = int.from_bytes(seed, "big") % self.p
        # Square to force membership in the order-q subgroup of QRs.
        value = pow(candidate, 2, self.p)
        if value in (0, 1):
            value = pow(self._DEFAULT_G + 1, 2, self.p)
        return self.element(value)

    def generator(self) -> SchnorrElement:
        return self._g

    def second_generator(self) -> SchnorrElement:
        return self._h

    def identity(self) -> SchnorrElement:
        return self.element(1)

    def element(self, value: int) -> SchnorrElement:
        """Wrap an integer (assumed to be a subgroup member) as an element."""
        return SchnorrElement(value % self.p, self)

    def deserialize(self, data: bytes) -> SchnorrElement:
        if not data.startswith(b"S"):
            raise ValueError("not a Schnorr group element")
        return self.element(int.from_bytes(data[1:], "big"))

    def is_member(self, element: SchnorrElement) -> bool:
        """Check subgroup membership (value^q == 1 mod p)."""
        return pow(element.value, self.order, self.p) == 1

    def _build_fixed_base(self, element: SchnorrElement) -> "SchnorrFixedBase":
        return SchnorrFixedBase(element)

    def multi_power(self, pairs: Sequence[Tuple[GroupElement, int]]) -> SchnorrElement:
        """Integer-specialized Shamir multi-exponentiation (see :class:`Group`)."""
        reduced = [(base.value, exponent % self.order) for base, exponent in pairs]
        reduced = [(value, exponent) for value, exponent in reduced if exponent]
        if not reduced:
            return self.identity()
        p = self.p
        max_bits = max(exponent.bit_length() for _, exponent in reduced)
        accumulator = 1
        for bit in range(max_bits - 1, -1, -1):
            accumulator = accumulator * accumulator % p
            for value, exponent in reduced:
                if (exponent >> bit) & 1:
                    accumulator = accumulator * value % p
        return SchnorrElement(accumulator, self)


class SchnorrFixedBase(FixedBasePrecomputation):
    """Fixed-base table specialized to bare integers modulo ``p``.

    ``table`` rows hold plain residues instead of :class:`SchnorrElement`
    wrappers; dropping the wrapper (and the per-step ``% order`` reduction of
    ``__pow__``) from the inner loop makes :meth:`power` roughly 3-5x faster
    than the builtin ``pow`` on 256-bit exponents, which dominates EA setup
    (one commitment vector per ballot line) and audit verification.
    """

    def _build_table(self) -> list:
        p = self.group.p
        table = []
        current = self.base.value
        for _ in range(self.num_digits):
            row = [1]
            for _ in range(self.mask):
                row.append(row[-1] * current % p)
            table.append(row)
            current = row[-1] * current % p
        return table

    def power(self, exponent: int) -> SchnorrElement:
        e = exponent % self.group.order
        p = self.group.p
        accumulator = 1
        index = 0
        while e:
            digit = e & self.mask
            if digit:
                accumulator = accumulator * self.table[index][digit] % p
            e >>= self.window
            index += 1
        return SchnorrElement(accumulator, self.group)


_DEFAULT_GROUP: Optional[SchnorrGroup] = None


def default_group() -> SchnorrGroup:
    """Return the process-wide default group (pure-python Schnorr backend)."""
    global _DEFAULT_GROUP
    if _DEFAULT_GROUP is None:
        _DEFAULT_GROUP = SchnorrGroup()
        _DEFAULT_GROUP.backend_name = "schnorr"
    return _DEFAULT_GROUP
