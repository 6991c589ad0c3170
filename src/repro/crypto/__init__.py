"""Cryptographic substrates used by the D-DEMOS reproduction.

This package provides every cryptographic building block the paper relies on,
implemented from scratch on top of the Python standard library:

* :mod:`repro.crypto.group` -- prime-order group abstraction (abstract
  ``Group``/``GroupElement`` interface plus the pure-python Schnorr
  backend).
* :mod:`repro.crypto.registry` -- named backend registry behind
  :func:`get_group`; also home of the gmpy2-accelerated Schnorr backend
  (:mod:`repro.crypto.gmpy2_backend`) and the Ed25519 group with 32-byte
  elements (:mod:`repro.crypto.ed25519`).
* :mod:`repro.crypto.elgamal` -- lifted (additively homomorphic) ElGamal.
* :mod:`repro.crypto.commitments` -- option-encoding commitments (vectors of
  lifted ElGamal ciphertexts) with component-wise homomorphic addition.
* :mod:`repro.crypto.zkp` -- Chaum-Pedersen Sigma-OR proofs that a ciphertext
  encrypts 0 or 1 and that an encoded option vector sums to one.
* :mod:`repro.crypto.pedersen_vss` -- Pedersen verifiable secret sharing.
* :mod:`repro.crypto.shamir` -- Shamir secret sharing with a signing dealer
  ("VSS with honest dealer" of the paper).
* :mod:`repro.crypto.signatures` -- Schnorr digital signatures.
* :mod:`repro.crypto.symmetric` -- salted hash commitments and the symmetric
  vote-code encryption layer (SHA-256 CTR substitute for AES-128-CBC$).
"""

from repro.crypto.batch_verify import (
    BatchOutcome,
    BatchVerifier,
    OpeningItem,
    ProofItem,
    SignatureItem,
)
from repro.crypto.commitments import OptionCommitment, OptionEncodingScheme
from repro.crypto.elgamal import ElGamalCiphertext, ElGamalKeyPair, LiftedElGamal
from repro.crypto.ed25519 import Ed25519Group
from repro.crypto.gmpy2_backend import HAVE_GMPY2, Gmpy2SchnorrGroup
from repro.crypto.group import Group, GroupElement, SchnorrGroup, default_group
from repro.crypto.pedersen_vss import PedersenShare, PedersenVSS
from repro.crypto.registry import (
    BackendInfo,
    available_backends,
    backend_info,
    get_group,
    register_backend,
    resolve_backend_name,
)
from repro.crypto.shamir import ShamirSecretSharing, SignedShare
from repro.crypto.signatures import SchnorrKeyPair, SchnorrSignature
from repro.crypto.symmetric import (
    SaltedHashCommitment,
    VoteCodeCipher,
    commit_vote_code,
    verify_vote_code,
)
from repro.crypto.zkp import BallotCorrectnessProver, BallotCorrectnessVerifier

__all__ = [
    "Group",
    "GroupElement",
    "Ed25519Group",
    "Gmpy2SchnorrGroup",
    "HAVE_GMPY2",
    "SchnorrGroup",
    "default_group",
    "get_group",
    "register_backend",
    "resolve_backend_name",
    "available_backends",
    "backend_info",
    "BackendInfo",
    "BatchOutcome",
    "BatchVerifier",
    "OpeningItem",
    "ProofItem",
    "SignatureItem",
    "ElGamalKeyPair",
    "ElGamalCiphertext",
    "LiftedElGamal",
    "OptionCommitment",
    "OptionEncodingScheme",
    "BallotCorrectnessProver",
    "BallotCorrectnessVerifier",
    "PedersenVSS",
    "PedersenShare",
    "ShamirSecretSharing",
    "SignedShare",
    "SchnorrKeyPair",
    "SchnorrSignature",
    "SaltedHashCommitment",
    "VoteCodeCipher",
    "commit_vote_code",
    "verify_vote_code",
]
