"""The named crypto backend registry."""

import warnings

import pytest

from repro.crypto.ed25519 import Ed25519Group
from repro.crypto.gmpy2_backend import HAVE_GMPY2, Gmpy2SchnorrGroup
from repro.crypto.group import Group, SchnorrGroup, default_group
from repro.crypto.registry import (
    available_backends,
    backend_info,
    get_group,
    register_backend,
    resolve_backend_name,
)


class TestResolution:
    def test_all_builtin_backends_registered(self):
        assert set(available_backends()) >= {"schnorr", "schnorr-gmpy2", "ed25519"}

    @pytest.mark.parametrize("name", ["ec", "secp256k1"])
    def test_removed_curve_names_are_unknown(self, name):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            resolve_backend_name(name)

    def test_names_are_case_insensitive(self):
        assert resolve_backend_name("Ed25519") == "ed25519"

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown crypto backend 'rsa'"):
            resolve_backend_name("rsa")

    def test_backend_info(self):
        info = backend_info("Ed25519")
        assert info.name == "ed25519"
        assert not info.accelerated
        assert backend_info("schnorr-gmpy2").accelerated


class TestGetGroup:
    def test_parameterless_calls_share_one_instance(self):
        assert get_group("ed25519") is get_group("ed25519")
        assert get_group("Ed25519") is get_group("ed25519")

    def test_schnorr_shares_the_process_default(self):
        # Codec prefix-sniffing and legacy default_group() callers must end
        # up on the same instance (and its warm fixed-base tables).
        assert get_group("schnorr") is default_group()

    def test_parameterized_calls_build_fresh_groups(self):
        custom = get_group("schnorr", g=9)
        assert custom is not get_group("schnorr")
        assert custom.generator().value == 9

    def test_backend_name_is_stamped(self):
        assert get_group("schnorr").backend_name == "schnorr"
        assert get_group("ed25519").backend_name == "ed25519"
        assert get_group("ED25519").backend_name == "ed25519"

    def test_gmpy2_backend_selects_by_availability(self):
        group = get_group("schnorr-gmpy2")
        if HAVE_GMPY2:
            assert isinstance(group, Gmpy2SchnorrGroup)
        else:
            # Graceful degradation: the name stays usable without gmpy2.
            assert isinstance(group, SchnorrGroup)

    def test_factory_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            get_group("schnorr")
            get_group("ed25519")
            get_group("schnorr", g=16)


class TestDeprecationShim:
    """Backend classes also construct directly, without any warning."""

    def test_direct_construction_still_works(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            group = SchnorrGroup()
            curve = Ed25519Group()
        assert group.power_g(3) == group.generator() ** 3
        assert curve.power_g(3) == curve.generator() ** 3
        assert group.backend_name is None


class TestRegisterBackend:
    def test_custom_backend_round_trip(self):
        calls = []

        def factory(**params):
            calls.append(params)
            return SchnorrGroup(g=16)

        register_backend("test-custom", factory, description="test only")
        try:
            group = get_group("Test-Custom")
            assert isinstance(group, Group)
            assert group.backend_name == "test-custom"
            assert calls == [{}]
            # Cached after the first parameterless construction.
            assert get_group("test-custom") is group
            assert calls == [{}]
        finally:
            from repro.crypto import registry

            registry._REGISTRY.pop("test-custom", None)
            registry._INSTANCE_CACHE.pop("test-custom", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("schnorr", lambda: default_group())
