"""Unit tests for the serve ndjson wire format."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.synth import RouteDelta
from repro.errors import (
    ReproError,
    ServeDisconnectError,
    ServeLineTooLongError,
    ServeProtocolError,
)
from repro.net.ipv4 import MAX_ADDRESS, format_ipv4, parse_ipv4
from repro.net.prefix import Prefix
from repro.serve.protocol import (
    LineSplitter,
    LogEvent,
    parse_event,
    parse_event_json,
)


class TestParseEvent:
    def test_blank_line_is_none(self):
        assert parse_event("") is None
        assert parse_event("   \n") is None

    def test_log_event_with_dotted_quad(self):
        event = parse_event(
            '{"type": "log", "client": "12.65.147.9", "url": "/a", "size": 512}'
        )
        assert isinstance(event, LogEvent)
        assert event.client == parse_ipv4("12.65.147.9")
        assert event.url == "/a"
        assert event.size == 512

    def test_log_event_with_integer_client(self):
        event = parse_event('{"type": "log", "client": 167772161}')
        assert isinstance(event, LogEvent)
        assert event.client == 167772161
        assert event.size == 0

    def test_route_events_decode_to_route_delta(self):
        for op in ("announce", "withdraw"):
            event = parse_event(
                json.dumps(
                    {
                        "type": op,
                        "prefix": "12.65.128.0/19",
                        "origin_asn": 7018,
                        "source": "AADS",
                        "reason": "churn",
                    }
                )
            )
            assert isinstance(event, RouteDelta)
            assert event.op == op
            assert event.prefix == Prefix.from_cidr("12.65.128.0/19")
            assert event.origin_asn == 7018

    def test_log_event_round_trip(self):
        event = LogEvent(client=parse_ipv4("10.1.2.3"), url="/x", size=9)
        assert parse_event(event.to_json()) == event

    def test_route_delta_round_trip(self):
        delta = RouteDelta(
            op=RouteDelta.OP_WITHDRAW,
            prefix=Prefix.from_cidr("10.0.0.0/8"),
            source="AADS",
        )
        assert parse_event(delta.to_json()) == delta

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            "[1, 2, 3]",
            '{"type": "teleport"}',
            '{"url": "/missing-type"}',
            '{"type": "log"}',
            '{"type": "log", "client": "999.1.2.3"}',
            '{"type": "announce", "prefix": "not-a-cidr"}',
            '{"type": "withdraw"}',
            # Clients the daemon cannot write back as a dotted quad.
            '{"type": "log", "client": 4294967296}',
            '{"type": "log", "client": -1}',
            '{"type": "log", "client": true}',
            '{"type": "log", "client": 16909060.7}',
            '{"type": "log", "client": 16909060.0}',
            '{"type": "log", "client": null}',
            '{"type": "log", "client": "\u0661.2.3.4"}',
            # Sizes that are not non-negative integers.
            '{"type": "log", "client": "1.2.3.4", "size": -7}',
            '{"type": "log", "client": "1.2.3.4", "size": 2.9}',
            '{"type": "log", "client": "1.2.3.4", "size": true}',
            '{"type": "log", "client": "1.2.3.4", "size": "12"}',
            '{"client": "1.2.3.4", "size": -7, "type": "log", "url": "/"}',
        ],
    )
    def test_malformed_lines_raise_protocol_error(self, line):
        with pytest.raises(ServeProtocolError):
            parse_event(line)
        with pytest.raises(ServeProtocolError):
            parse_event_json(line)

    def test_integer_client_bounds_are_inclusive(self):
        for client in (0, MAX_ADDRESS):
            event = parse_event(json.dumps({"type": "log", "client": client}))
            assert event == LogEvent(client=client)

    def test_protocol_error_is_repro_and_value_error(self):
        """Taxonomy contract: callers may catch either family."""
        assert issubclass(ServeProtocolError, ReproError)
        assert issubclass(ServeProtocolError, ValueError)


# -- the fast paths against their references ----------------------------------

CLIENTS = st.integers(min_value=0, max_value=MAX_ADDRESS)
SIZES = st.integers(min_value=0, max_value=1 << 70)
CANONICAL_ORDER = ["client", "size", "type", "url"]
URLS = st.text() | st.text(alphabet='/az09?&=%"\\\x00\x1f\x7f\u00e9\u2028 ')

# Values as they may arrive on the wire: valid, damaged, mistyped.
WIRE_CLIENTS = st.one_of(
    CLIENTS.map(format_ipv4),
    st.builds(
        ".".join,
        st.lists(
            st.sampled_from(
                ["0", "00", "01", "1", "9", "10", "099", "255", "256",
                 "999", "-1", "", " 1", "\u0661", "\u00b2"]
            ),
            min_size=3,
            max_size=5,
        ),
    ),
    st.integers(min_value=-5, max_value=MAX_ADDRESS + 5),
    st.sampled_from([True, False, None, 1.5, 16909060.0, [1]]),
    st.text(max_size=16),
)
WIRE_SIZES = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.sampled_from([True, None, 2.9, 0.0, "12", -0.0]),
)
WIRE_URLS = URLS | st.sampled_from([None, 7])


class TestFastPaths:
    @given(client=CLIENTS, size=SIZES, url=URLS)
    @settings(max_examples=300, deadline=None)
    def test_to_json_is_byte_identical_to_json_dumps(self, client, size, url):
        event = LogEvent(client=client, url=url, size=size)
        assert event.to_json() == json.dumps(event.to_dict(), sort_keys=True)

    @staticmethod
    def agree(line):
        """Both decoders give the same event, or both refuse the line."""
        try:
            expected = parse_event_json(line)
        except ServeProtocolError:
            with pytest.raises(ServeProtocolError):
                parse_event(line)
            return
        assert parse_event(line) == expected

    @given(client=CLIENTS, size=SIZES, url=URLS)
    @settings(max_examples=300, deadline=None)
    def test_canonical_lines_round_trip(self, client, size, url):
        event = LogEvent(client=client, url=url, size=size)
        assert parse_event(event.to_json()) == event
        self.agree(event.to_json())

    @given(
        client=WIRE_CLIENTS,
        size=WIRE_SIZES,
        url=WIRE_URLS,
        ensure_ascii=st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_parse_event_agrees_on_canonical_layout(
        self, client, size, url, ensure_ascii
    ):
        """The pattern's own layout, any values in it."""
        data = {"client": client, "size": size, "type": "log", "url": url}
        self.agree(json.dumps(data, sort_keys=True, ensure_ascii=ensure_ascii))

    @given(
        client=WIRE_CLIENTS,
        size=WIRE_SIZES,
        url=WIRE_URLS,
        order=st.permutations(CANONICAL_ORDER),
        separators=st.sampled_from([(", ", ": "), (",", ":"), (" ,", " : ")]),
        extra=st.booleans(),
        ensure_ascii=st.booleans(),
        padding=st.sampled_from(["", " ", "\t", "\n", "\u2028"]),
    )
    @settings(max_examples=500, deadline=None)
    def test_parse_event_agrees_on_any_layout(
        self, client, size, url, order, separators, extra, ensure_ascii, padding
    ):
        values = {"client": client, "size": size, "type": "log", "url": url}
        data = {key: values[key] for key in order}
        if extra:
            data["referrer"] = "/"
        line = json.dumps(data, separators=separators, ensure_ascii=ensure_ascii)
        self.agree(padding + line + padding)

    @given(line=st.text(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_parse_event_agrees_on_arbitrary_text(self, line):
        self.agree(line)

    @pytest.mark.parametrize(
        "line",
        [
            '{"client": "1.2.3.4", "size": 0, "type": "log", "url": ""}',
            '{"client": "1.2.3.4", "size": 00, "type": "log", "url": ""}',
            '{"client": "1.2.3.04", "size": 1, "type": "log", "url": ""}',
            '{"client": "1.2.3.4", "size": -0, "type": "log", "url": ""}',
            '{"client": "1.2.3.4", "size": 1e3, "type": "log", "url": ""}',
            '{"client": "1.2.3.4", "size": %s, "type": "log", "url": ""}'
            % ("9" * 19),
            '{"client": "1.2.3.4", "size": 1, "type": "log", "url": "a\tb"}',
            '{"client": "1.2.3.4", "size": 1, "type": "log", "url": "\u00e9"}',
            '{"client": "1.2.3.4", "size": 1, "type": "log", "url": "\x7f"}',
            '{"client": "1.2.3.4", "size": 1, "type": "log", "url": "/"}\n',
            '{"client": "1.2.3.4", "size": 1, "type": "log", "url": "/"} x',
            '{"client": "1.2.3.4", "size": 1, "type": "log", "url": "/", "x": 1}',
        ],
    )
    def test_edge_lines_agree(self, line):
        self.agree(line)



class TestLineSplitter:
    def drain(self, splitter):
        lines = []
        while True:
            line = splitter.next_line()
            if line is None:
                return lines
            lines.append(line)

    def test_reassembles_lines_across_arbitrary_chunks(self):
        splitter = LineSplitter()
        payload = b"alpha\nbravo\ncharlie\n"
        collected = []
        for cut in range(0, len(payload), 3):
            splitter.push(payload[cut : cut + 3])
            collected.extend(self.drain(splitter))
        assert collected == ["alpha", "bravo", "charlie"]
        assert splitter.pending == 0

    def test_partial_frame_stays_pending(self):
        splitter = LineSplitter()
        splitter.push(b'{"type": "log"')
        assert splitter.next_line() is None
        assert splitter.pending == 14
        splitter.push(b"}\n")
        assert splitter.next_line() == '{"type": "log"}'

    def test_flush_returns_unterminated_tail_at_clean_eof(self):
        splitter = LineSplitter()
        splitter.push(b"first\nlast-no-newline")
        assert splitter.next_line() == "first"
        assert splitter.flush() == "last-no-newline"
        assert splitter.flush() is None

    def test_oversized_terminated_line_raises_once_then_continues(self):
        splitter = LineSplitter(max_line_bytes=8)
        splitter.push(b"x" * 20 + b"\nok\n")
        with pytest.raises(ServeLineTooLongError):
            splitter.next_line()
        assert splitter.next_line() == "ok"

    def test_oversized_unterminated_line_raises_once_then_discards(self):
        splitter = LineSplitter(max_line_bytes=8)
        splitter.push(b"y" * 20)
        with pytest.raises(ServeLineTooLongError):
            splitter.next_line()
        # More of the same monster line: silently discarded, no second
        # error, bounded memory.
        splitter.push(b"y" * 50)
        assert splitter.next_line() is None
        assert splitter.pending == 0
        splitter.push(b"y\nafter\n")
        assert splitter.next_line() == "after"

    def test_abandon_with_partial_frame_raises_disconnect(self):
        splitter = LineSplitter()
        splitter.push(b"complete\ntorn-fragme")
        assert splitter.next_line() == "complete"
        with pytest.raises(ServeDisconnectError):
            splitter.abandon()
        # The splitter is clean for the next connection.
        splitter.push(b"fresh\n")
        assert splitter.next_line() == "fresh"

    def test_abandon_with_empty_buffer_is_silent(self):
        splitter = LineSplitter()
        splitter.push(b"done\n")
        assert splitter.next_line() == "done"
        splitter.abandon()

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            LineSplitter(max_line_bytes=0)
