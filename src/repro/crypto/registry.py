"""Named registry of crypto group backends.

Every group the reproduction can run on is registered here under a stable
name, and all construction flows through :func:`get_group`:

=================  ===========================================================
name               backend
=================  ===========================================================
``schnorr``        pure-python :class:`~repro.crypto.group.SchnorrGroup`
                   (reference fallback; always available)
``schnorr-gmpy2``  gmpy2-accelerated Schnorr group
                   (:mod:`repro.crypto.gmpy2_backend`); degrades to the
                   pure-python backend when ``gmpy2`` is not installed
``ed25519``        twisted Edwards curve with 32-byte compressed elements
                   (:mod:`repro.crypto.ed25519`); the elliptic-curve backend
=================  ===========================================================

``get_group(name)`` without parameters returns a cached, process-wide shared
instance (safe now that the fixed-base caches are LRU-bounded); passing
parameters always constructs a fresh group.  ``CryptoProfile.backend`` in
:mod:`repro.api.spec` validates against this registry, so scenario configs
and backend selection can never drift apart.

Third-party backends can be added with :func:`register_backend`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.crypto.group import Group, default_group


@dataclass(frozen=True)
class BackendInfo:
    """Public description of one registered backend."""

    #: canonical registry name
    name: str
    #: one-line human description
    description: str
    #: True when the backend uses an optional native dependency and falls
    #: back to a pure-python implementation when it is missing
    accelerated: bool


@dataclass(frozen=True)
class _BackendEntry:
    info: BackendInfo
    factory: Callable[..., Group]


_REGISTRY: Dict[str, _BackendEntry] = {}
#: shared instances for parameterless construction, keyed by canonical name
_INSTANCE_CACHE: Dict[str, Group] = {}
_LOCK = threading.Lock()


def register_backend(
    name: str,
    factory: Callable[..., Group],
    *,
    description: str = "",
    accelerated: bool = False,
    replace: bool = False,
) -> None:
    """Register a named group backend.

    ``factory(**params)`` must return a :class:`Group`.
    """
    key = name.lower()
    with _LOCK:
        if not replace and key in _REGISTRY:
            raise ValueError(f"crypto backend {name!r} is already registered")
        _REGISTRY[key] = _BackendEntry(
            info=BackendInfo(
                name=key,
                description=description,
                accelerated=accelerated,
            ),
            factory=factory,
        )
        _INSTANCE_CACHE.pop(key, None)


def resolve_backend_name(name: str) -> str:
    """Map a backend name (any case) to its canonical registry name.

    Raises :class:`ValueError` (listing the registered names) for unknown
    backends -- this is the single validation point `CryptoProfile` uses.
    """
    key = name.lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown crypto backend {name!r} (registered: {known})")
    return key


def available_backends() -> Tuple[str, ...]:
    """Canonical names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def backend_info(name: str) -> BackendInfo:
    """Return the :class:`BackendInfo` for a backend name."""
    return _REGISTRY[resolve_backend_name(name)].info


def get_group(name: str = "schnorr", **params: object) -> Group:
    """Construct (or fetch the shared instance of) a registered backend.

    Parameterless calls return one cached instance per backend name -- the
    groups are immutable apart from their LRU-bounded precomputation caches,
    so sharing is safe and keeps fixed-base tables warm across the stack.
    Calls with explicit ``params`` always build a fresh group.
    """
    canonical = resolve_backend_name(name)
    if not params:
        with _LOCK:
            cached = _INSTANCE_CACHE.get(canonical)
        if cached is not None:
            return cached
    entry = _REGISTRY[canonical]
    group = entry.factory(**params)
    if group.backend_name is None:
        group.backend_name = canonical
    if not params:
        with _LOCK:
            group = _INSTANCE_CACHE.setdefault(canonical, group)
    return group


# ---------------------------------------------------------------------------
# Built-in backends
# ---------------------------------------------------------------------------


def _make_schnorr(p: Optional[int] = None, g: Optional[int] = None) -> Group:
    from repro.crypto.group import SchnorrGroup

    if p is None and g is None:
        # Reuse the process-wide default so codec deserialization, fixtures
        # and engine runs all share one warm set of fixed-base tables.
        return default_group()
    return SchnorrGroup(p=p, g=g)


def _make_schnorr_gmpy2(p: Optional[int] = None, g: Optional[int] = None) -> Group:
    from repro.crypto.gmpy2_backend import make_gmpy2_group

    return make_gmpy2_group(p=p, g=g)


def _make_ed25519() -> Group:
    from repro.crypto.ed25519 import Ed25519Group

    return Ed25519Group()


register_backend(
    "schnorr",
    _make_schnorr,
    description="pure-python multiplicative Schnorr group (reference fallback)",
)
register_backend(
    "schnorr-gmpy2",
    _make_schnorr_gmpy2,
    description=(
        "gmpy2-accelerated Schnorr group (mpz powmod); degrades to the "
        "pure-python backend when gmpy2 is absent"
    ),
    accelerated=True,
)
register_backend(
    "ed25519",
    _make_ed25519,
    description="Ed25519 twisted Edwards curve, 32-byte compressed elements",
)
