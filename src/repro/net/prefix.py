"""Network prefixes (CIDR blocks).

A :class:`Prefix` is the unit of routing information the paper's
clustering consumes: a network address plus a mask length, e.g.
``12.65.128.0/19``.  Prefixes are immutable, hashable, totally ordered
(by network address then length), and canonical — constructing one
zeroes any host bits so that two textual spellings of the same block
compare equal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.net.ipv4 import (
    MAX_ADDRESS,
    AddressError,
    classful_prefix_length,
    format_ipv4,
    length_to_netmask,
    mask_bits,
    netmask_to_length,
    parse_ipv4,
)

__all__ = ["Prefix", "DEFAULT_ROUTE"]


@functools.total_ordering
@dataclass(frozen=True)
class Prefix:
    """An IPv4 CIDR block: ``network/length``.

    ``network`` is the integer network address with host bits zero;
    ``length`` is the mask length in ``[0, 32]``.  Use
    :meth:`from_cidr` / :meth:`from_netmask` to build from text.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length!r}")
        if not 0 <= self.network <= MAX_ADDRESS:
            raise AddressError(f"network address out of range: {self.network!r}")
        masked = self.network & mask_bits(self.length)
        if masked != self.network:
            # Canonicalise rather than reject: routing dumps routinely
            # print prefixes with host bits set (e.g. "12.65.147.0/19").
            object.__setattr__(self, "network", masked)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_cidr(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation.

        >>> Prefix.from_cidr("12.65.128.0/19")
        Prefix('12.65.128.0/19')
        """
        address_part, sep, length_part = text.partition("/")
        if not sep:
            raise AddressError(f"missing '/' in CIDR prefix: {text!r}")
        if not (length_part.isascii() and length_part.isdigit()):
            raise AddressError(f"non-numeric prefix length: {text!r}")
        return cls(parse_ipv4(address_part), int(length_part))

    @classmethod
    def from_netmask(cls, address: str, netmask: str) -> "Prefix":
        """Build from dotted-quad address and dotted-quad netmask."""
        return cls(parse_ipv4(address), netmask_to_length(netmask))

    @classmethod
    def host(cls, address: int) -> "Prefix":
        """Return the /32 prefix covering exactly ``address``."""
        return cls(address, 32)

    @classmethod
    def classful(cls, address: int) -> "Prefix":
        """Return the classful (A/B/C) network containing ``address``."""
        return cls(address, classful_prefix_length(address))

    # -- rendering ------------------------------------------------------

    @property
    def cidr(self) -> str:
        """CIDR text form, e.g. ``"12.65.128.0/19"``."""
        return f"{format_ipv4(self.network)}/{self.length}"

    @property
    def netmask(self) -> str:
        """Dotted-quad netmask, e.g. ``"255.255.224.0"``."""
        return length_to_netmask(self.length)

    @property
    def with_netmask(self) -> str:
        """Paper's standard format (i): ``prefix/dotted-netmask``."""
        return f"{format_ipv4(self.network)}/{self.netmask}"

    def __str__(self) -> str:
        return self.cidr

    def __repr__(self) -> str:
        return f"Prefix({self.cidr!r})"

    # -- ordering -------------------------------------------------------

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self.network, self.length) < (other.network, other.length)

    def sort_key(self) -> Tuple[int, int]:
        """Key for sorting prefixes in routing-table order."""
        return (self.network, self.length)

    # -- set-like relations --------------------------------------------

    @property
    def num_addresses(self) -> int:
        """Number of addresses the block spans (2**(32-length))."""
        return 1 << (32 - self.length)

    @property
    def first_address(self) -> int:
        """Lowest address in the block (the network address)."""
        return self.network

    @property
    def last_address(self) -> int:
        """Highest address in the block (the broadcast address)."""
        return self.network | (self.num_addresses - 1)

    def contains_address(self, address: int) -> bool:
        """True when ``address`` falls inside this block."""
        return (address & mask_bits(self.length)) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when ``other`` is equal to or nested inside this block."""
        return other.length >= self.length and self.contains_address(other.network)

    def overlaps(self, other: "Prefix") -> bool:
        """True when the two blocks share any address."""
        return self.contains_prefix(other) or other.contains_prefix(self)

    # -- structure ------------------------------------------------------

    def bit(self, index: int) -> int:
        """Return bit ``index`` of the network address (0 = MSB).

        Used by the radix trie to walk its branching structure.
        """
        if not 0 <= index < 32:
            raise AddressError(f"bit index out of range: {index!r}")
        return (self.network >> (31 - index)) & 1

    def parent(self) -> "Prefix":
        """Return the enclosing block one bit shorter.

        Raises :class:`AddressError` at /0, which has no parent.
        """
        if self.length == 0:
            raise AddressError("the default route has no parent")
        return Prefix(self.network & mask_bits(self.length - 1), self.length - 1)

    def children(self) -> Tuple["Prefix", "Prefix"]:
        """Split into the two halves one bit longer (left, right)."""
        if self.length == 32:
            raise AddressError("/32 prefixes cannot be split")
        left = Prefix(self.network, self.length + 1)
        right = Prefix(self.network | (1 << (31 - self.length)), self.length + 1)
        return left, right

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate the ``new_length`` subnets of this block in order.

        ``new_length`` must be ≥ this prefix's length.  Yields
        ``2**(new_length - length)`` prefixes.
        """
        if new_length < self.length:
            raise AddressError(
                f"cannot subnet /{self.length} into shorter /{new_length}"
            )
        if new_length > 32:
            raise AddressError(f"prefix length out of range: {new_length!r}")
        step = 1 << (32 - new_length)
        for network in range(self.network, self.last_address + 1, step):
            yield Prefix(network, new_length)

    def sibling(self) -> Optional["Prefix"]:
        """Return the other half of this block's parent, or None at /0."""
        if self.length == 0:
            return None
        return Prefix(self.network ^ (1 << (32 - self.length)), self.length)


#: The all-encompassing default route ``0.0.0.0/0``.
DEFAULT_ROUTE = Prefix(0, 0)
