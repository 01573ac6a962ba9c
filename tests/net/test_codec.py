"""The deterministic binary codec: round trips, sizes, rejection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import MAX_DEPTH, CodecError, decode, encode, encoded_size

ROUND_TRIP_CASES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    127,
    128,
    -128,
    2**128 - 1,
    -(2**128),
    0.0,
    1.5,
    -0.25,
    1e300,
    b"",
    b"\x00" * 16,
    b"\xff" * 64,
    "",
    "tables",
    "café",
    [],
    [1, 2, 3],
    (0, b"ab", "x"),
    {"a": 1, "b": [True, None]},
    [("pub", 1), ("lbl", b"\x01" * 16, 0)],
    ([3, 7, 11], b"\xab" * 96),
]


class TestRoundTrip:
    @pytest.mark.parametrize("value", ROUND_TRIP_CASES, ids=repr)
    def test_round_trip(self, value):
        blob = encode(value)
        assert decode(blob) == value

    def test_nested_structures(self):
        value = {"k": [(1, b"xy"), (2, b"zw")], "n": None}
        assert decode(encode(value)) == value


class TestDeterminism:
    def test_same_value_same_bytes(self):
        v = {"b": [1, b"\x00\x01"], "a": (7, "x")}
        assert encode(v) == encode(v)

    def test_encoded_size_matches_encode(self):
        for v in ROUND_TRIP_CASES:
            assert encoded_size(v) == len(encode(v))

    def test_fixed_width_bytes_cost_is_value_independent(self):
        """Label material crosses the wire as fixed-width bytes; its
        cost must not depend on the (random) value."""
        assert encoded_size(b"\x00" * 16) == encoded_size(b"\xff" * 16)

    def test_int_size_grows_with_magnitude(self):
        assert encoded_size(1) < encoded_size(2**64) < encoded_size(2**256)


class TestRejection:
    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            decode(encode(1) + b"\x00")

    def test_truncated_input_rejected(self):
        blob = encode([1, 2, b"abcdef"])
        with pytest.raises(CodecError):
            decode(blob[:-3])

    def test_unknown_type_byte_rejected(self):
        with pytest.raises(CodecError):
            decode(b"\xfe")

    def test_empty_input_rejected(self):
        with pytest.raises(CodecError):
            decode(b"")

    def test_unsupported_python_type_rejected(self):
        with pytest.raises(CodecError):
            encode(object())
        with pytest.raises(CodecError):
            encode({1, 2})
        with pytest.raises(CodecError):
            encode(complex(1, 2))

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(CodecError):
            encode({1: "x"})

    def test_deep_nesting_is_a_codec_error(self):
        """2,001 bytes nested 1,000 lists deep: a structured reject,
        not a RecursionError out of the parser."""
        with pytest.raises(CodecError, match="MAX_DEPTH"):
            decode(b"l\x01" * 1000 + b"N")

    def test_max_depth_is_inclusive_on_both_sides(self):
        value = _nest(None, "l" * MAX_DEPTH)
        assert decode(encode(value)) == value
        with pytest.raises(CodecError, match="MAX_DEPTH"):
            encode([value])
        with pytest.raises(CodecError, match="MAX_DEPTH"):
            decode(b"l\x01" + encode(value))


def _nest(value, kinds):
    """Wrap ``value`` in one list, tuple or dict per letter of ``kinds``."""
    for kind in kinds:
        value = {"l": [value], "t": (value,), "d": {"k": value}}[kind]
    return value


def _depth(value):
    if type(value) in (list, tuple):
        return 1 + max(map(_depth, value), default=0)
    if type(value) is dict:
        return 1 + max(map(_depth, value.values()), default=0)
    return 0


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.binary(max_size=16), st.text(max_size=8),
)
_values = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=3),
    ),
    max_leaves=8,
)
_kinds = st.text(alphabet="ltd", max_size=MAX_DEPTH + 2)


def _mutate(blob, at, to, cut):
    """One byte of ``blob`` overwritten, then the tail cut at ``cut``."""
    if blob:
        at %= len(blob)
        blob = blob[:at] + bytes([to]) + blob[at + 1:]
    return blob[:cut]


#: Inputs near valid payloads: a real encoding with one byte changed
#: and its tail cut, behind up to 2 x MAX_DEPTH one-item list headers.
#: Plain random bytes rarely get past the first type byte.
_near_payloads = st.builds(
    lambda depth, value, at, to, cut: b"l\x01" * depth + _mutate(
        encode(value), at, to, cut),
    st.integers(0, 2 * MAX_DEPTH), _values, st.integers(0, 255),
    st.integers(0, 255), st.integers(0, 80),
)


class TestFuzz:
    """Fixed-seed properties over arbitrary bytes and nested values;
    small budgets keep them well under a second."""

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(blob=st.one_of(_near_payloads, st.binary(max_size=64)))
    def test_any_bytes_decode_or_codec_error(self, blob):
        try:
            value = decode(blob)
        except CodecError:
            return
        assert _depth(value) <= MAX_DEPTH

    @settings(derandomize=True, max_examples=150, deadline=None,
              database=None)
    @given(value=_values, kinds=_kinds)
    def test_nested_values_round_trip_byte_exactly(self, value, kinds):
        value = _nest(value, kinds)
        if _depth(value) > MAX_DEPTH:
            with pytest.raises(CodecError, match="MAX_DEPTH"):
                encode(value)
            return
        blob = encode(value)
        assert decode(blob) == value
        assert encode(decode(blob)) == blob
