"""Unit tests for CIDR prefixes."""

import pytest

from repro.net.ipv4 import AddressError, parse_ipv4
from repro.net.prefix import DEFAULT_ROUTE, Prefix


class TestConstruction:
    def test_from_cidr(self):
        prefix = Prefix.from_cidr("12.65.128.0/19")
        assert prefix.network == parse_ipv4("12.65.128.0")
        assert prefix.length == 19

    def test_canonicalises_host_bits(self):
        sloppy = Prefix(parse_ipv4("12.65.147.94"), 19)
        assert sloppy.cidr == "12.65.128.0/19"

    def test_from_netmask(self):
        prefix = Prefix.from_netmask("24.48.2.0", "255.255.254.0")
        assert prefix.cidr == "24.48.2.0/23"

    def test_host_prefix(self):
        prefix = Prefix.host(parse_ipv4("1.2.3.4"))
        assert prefix.cidr == "1.2.3.4/32"
        assert prefix.num_addresses == 1

    def test_classful_constructor(self):
        assert Prefix.classful(parse_ipv4("151.198.194.17")).cidr == "151.198.0.0/16"

    @pytest.mark.parametrize(
        "text",
        [
            "1.2.3.4",
            "1.2.3.4/33",
            "1.2.3.4/x",
            "/24",
            "1.2.3.0/\u0661\u0669",  # non-ASCII digits (int() reads 19)
            "1.2.3.0/\u00b2",  # isdigit() but not int()-able
        ],
    )
    def test_rejects_bad_cidr(self, text):
        with pytest.raises(AddressError):
            Prefix.from_cidr(text)

    def test_rejects_bad_length(self):
        with pytest.raises(AddressError):
            Prefix(0, 40)


class TestRendering:
    def test_with_netmask_is_papers_standard_format(self):
        assert Prefix.from_cidr("12.65.128.0/19").with_netmask == (
            "12.65.128.0/255.255.224.0"
        )

    def test_str_and_repr(self):
        prefix = Prefix.from_cidr("10.0.0.0/8")
        assert str(prefix) == "10.0.0.0/8"
        assert "10.0.0.0/8" in repr(prefix)


class TestOrderingAndHashing:
    def test_equal_prefixes_hash_equal(self):
        a = Prefix.from_cidr("10.1.0.0/16")
        b = Prefix(parse_ipv4("10.1.2.3"), 16)
        assert a == b
        assert hash(a) == hash(b)

    def test_sorted_by_network_then_length(self):
        prefixes = [
            Prefix.from_cidr("10.0.0.0/16"),
            Prefix.from_cidr("10.0.0.0/8"),
            Prefix.from_cidr("9.0.0.0/8"),
        ]
        assert [p.cidr for p in sorted(prefixes)] == [
            "9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"
        ]


class TestContainment:
    def test_contains_address(self):
        prefix = Prefix.from_cidr("12.65.128.0/19")
        assert prefix.contains_address(parse_ipv4("12.65.147.94"))
        assert prefix.contains_address(parse_ipv4("12.65.128.0"))
        assert prefix.contains_address(parse_ipv4("12.65.159.255"))
        assert not prefix.contains_address(parse_ipv4("12.65.160.0"))

    def test_contains_prefix(self):
        outer = Prefix.from_cidr("10.0.0.0/8")
        inner = Prefix.from_cidr("10.1.0.0/16")
        assert outer.contains_prefix(inner)
        assert outer.contains_prefix(outer)
        assert not inner.contains_prefix(outer)

    def test_overlaps(self):
        a = Prefix.from_cidr("10.0.0.0/8")
        b = Prefix.from_cidr("10.1.0.0/16")
        c = Prefix.from_cidr("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_first_last_address(self):
        prefix = Prefix.from_cidr("24.48.2.0/23")
        assert prefix.first_address == parse_ipv4("24.48.2.0")
        assert prefix.last_address == parse_ipv4("24.48.3.255")
        assert prefix.num_addresses == 512


class TestStructure:
    def test_parent_child_round_trip(self):
        prefix = Prefix.from_cidr("10.128.0.0/9")
        left, right = prefix.children()
        assert left.parent() == prefix
        assert right.parent() == prefix
        assert left.cidr == "10.128.0.0/10"
        assert right.cidr == "10.192.0.0/10"

    def test_default_route_has_no_parent(self):
        with pytest.raises(AddressError):
            DEFAULT_ROUTE.parent()
        assert DEFAULT_ROUTE.sibling() is None

    def test_host_prefix_cannot_split(self):
        with pytest.raises(AddressError):
            Prefix.host(0).children()

    def test_sibling_is_other_half(self):
        left, right = Prefix.from_cidr("10.0.0.0/8").children()
        assert left.sibling() == right
        assert right.sibling() == left

    def test_subnets_enumeration(self):
        prefix = Prefix.from_cidr("192.168.0.0/22")
        subnets = list(prefix.subnets(24))
        assert [s.cidr for s in subnets] == [
            "192.168.0.0/24", "192.168.1.0/24",
            "192.168.2.0/24", "192.168.3.0/24",
        ]

    def test_subnets_same_length_is_identity(self):
        prefix = Prefix.from_cidr("10.0.0.0/8")
        assert list(prefix.subnets(8)) == [prefix]

    def test_subnets_rejects_shorter(self):
        with pytest.raises(AddressError):
            list(Prefix.from_cidr("10.0.0.0/16").subnets(8))

    def test_bit_walk_matches_network(self):
        prefix = Prefix.from_cidr("128.0.0.0/1")
        assert prefix.bit(0) == 1
        assert Prefix.from_cidr("0.0.0.0/1").bit(0) == 0
        with pytest.raises(AddressError):
            prefix.bit(32)


def test_default_route_covers_everything():
    assert DEFAULT_ROUTE.contains_address(0)
    assert DEFAULT_ROUTE.contains_address(parse_ipv4("255.255.255.255"))
    assert DEFAULT_ROUTE.num_addresses == 2 ** 32
