"""Unit tests for IPv4 address primitives."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ipv4 import (
    OCTET_PATTERN,
    _parse_ipv4_checked,
    AddressError,
    MAX_ADDRESS,
    address_class,
    classful_prefix_length,
    first_octet,
    format_ipv4,
    is_valid_ipv4,
    length_to_netmask,
    mask_bits,
    netmask_to_length,
    parse_ipv4,
    sort_addresses,
)


class TestParseIpv4:
    def test_parses_example_from_paper(self):
        assert parse_ipv4("12.65.147.94") == (12 << 24) | (65 << 16) | (147 << 8) | 94

    def test_zero_address(self):
        assert parse_ipv4("0.0.0.0") == 0

    def test_max_address(self):
        assert parse_ipv4("255.255.255.255") == MAX_ADDRESS

    @pytest.mark.parametrize(
        "text",
        [
            "1.2.3",            # too few octets
            "1.2.3.4.5",        # too many octets
            "1.2.3.256",        # octet out of range
            "1.2.3.-1",         # negative
            "1.2.3.a",          # non-numeric
            "1.2.3.",           # trailing dot
            ".1.2.3",           # leading dot
            "1..2.3",           # empty octet
            "01.2.3.4",         # leading zero (octal ambiguity)
            " 1.2.3.4",         # whitespace
            "1.2.3.4\n",        # trailing newline
            "",                 # empty
            "\u0661.2.3.4",     # ARABIC-INDIC DIGIT ONE: a digit, not ASCII
            "1.2.3.\u00b2",     # SUPERSCRIPT TWO: isdigit() but not int()-able
            "1.2.3.\uff14",     # FULLWIDTH DIGIT FOUR
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(AddressError):
            parse_ipv4(text)
        assert not is_valid_ipv4(text)

    def test_is_valid_mirrors_parse(self):
        assert is_valid_ipv4("10.0.0.1")
        assert not is_valid_ipv4("10.0.0.999")


OCTET_TEXT = st.one_of(
    st.integers(min_value=0, max_value=300).map(str),
    st.integers(min_value=0, max_value=99).map(lambda value: f"0{value}"),
    st.sampled_from(
        ["", "00", "-1", "+1", " 1", "1 ", "\u0661", "\u00b2", "1_0", "0x1"]
    ),
    st.text(max_size=4),
)


def fallback_or_error(text):
    try:
        return _parse_ipv4_checked(text)
    except AddressError:
        return AddressError


def fast_or_error(text):
    try:
        return parse_ipv4(text)
    except AddressError:
        return AddressError


class TestFastParse:
    @given(octets=st.lists(OCTET_TEXT, min_size=4, max_size=4))
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_fallback_on_four_octets(self, octets):
        text = ".".join(octets)
        assert fast_or_error(text) == fallback_or_error(text)

    @given(octets=st.lists(OCTET_TEXT, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_fallback_on_dotted_text(self, octets):
        text = ".".join(octets)
        assert fast_or_error(text) == fallback_or_error(text)

    @given(text=st.text(max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_fallback_on_arbitrary_text(self, text):
        assert fast_or_error(text) == fallback_or_error(text)

    @given(address=st.integers(min_value=0, max_value=MAX_ADDRESS))
    @settings(max_examples=300, deadline=None)
    def test_format_parse_round_trip(self, address):
        text = format_ipv4(address)
        assert text == ".".join(
            str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0)
        )
        assert parse_ipv4(text) == address

    @given(octet=OCTET_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_octet_pattern_is_the_strict_octet_language(self, octet):
        strict = fallback_or_error(f"0.0.0.{octet}") is not AddressError
        assert (re.fullmatch(OCTET_PATTERN, octet) is not None) == strict


class TestFormatIpv4:
    def test_round_trip(self):
        for text in ("0.0.0.0", "12.65.147.94", "255.255.255.255", "128.0.0.1"):
            assert format_ipv4(parse_ipv4(text)) == text

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            format_ipv4(-1)
        with pytest.raises(AddressError):
            format_ipv4(MAX_ADDRESS + 1)


class TestMasks:
    def test_mask_bits_boundaries(self):
        assert mask_bits(0) == 0
        assert mask_bits(32) == MAX_ADDRESS
        assert mask_bits(24) == parse_ipv4("255.255.255.0")
        assert mask_bits(19) == parse_ipv4("255.255.224.0")

    def test_mask_bits_rejects_bad_length(self):
        with pytest.raises(AddressError):
            mask_bits(33)
        with pytest.raises(AddressError):
            mask_bits(-1)

    def test_length_netmask_round_trip(self):
        for length in range(33):
            assert netmask_to_length(length_to_netmask(length)) == length

    def test_non_contiguous_netmask_rejected(self):
        with pytest.raises(AddressError):
            netmask_to_length("255.0.255.0")
        with pytest.raises(AddressError):
            netmask_to_length("0.255.0.0")


class TestClassful:
    @pytest.mark.parametrize(
        "text,cls,length",
        [
            ("9.1.2.3", "A", 8),
            ("127.0.0.1", "A", 8),
            ("128.0.0.1", "B", 16),
            ("151.198.194.17", "B", 16),
            ("191.255.0.1", "B", 16),
            ("192.0.0.1", "C", 24),
            ("223.255.255.1", "C", 24),
        ],
    )
    def test_class_and_length(self, text, cls, length):
        address = parse_ipv4(text)
        assert address_class(address) == cls
        assert classful_prefix_length(address) == length

    def test_multicast_has_no_classful_network(self):
        assert address_class(parse_ipv4("224.0.0.1")) == "D"
        assert address_class(parse_ipv4("240.0.0.1")) == "E"
        with pytest.raises(AddressError):
            classful_prefix_length(parse_ipv4("224.0.0.1"))

    def test_first_octet(self):
        assert first_octet(parse_ipv4("151.198.194.17")) == 151


def test_sort_addresses_numeric_not_lexicographic():
    addresses = [parse_ipv4(t) for t in ("100.0.0.0", "2.0.0.0", "20.0.0.0")]
    ordered = sort_addresses(addresses)
    assert [format_ipv4(a) for a in ordered] == [
        "2.0.0.0", "20.0.0.0", "100.0.0.0"
    ]
