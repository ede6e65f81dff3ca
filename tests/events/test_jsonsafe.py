"""The nested-state codec: :func:`encode_state` / :func:`decode_state`.

The composition they replace — deep ``sanitize`` copy, strict encode,
parse, deep ``desanitize`` walk — is kept here as the reference: the
pair must decode to what it decoded to, while walking the state only
when a non-finite float makes the strict encoder refuse it.
"""

import json
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import jsonsafe
from repro.events.jsonsafe import decode_state, desanitize, encode_state, sanitize


def reference(obj, **json_kwargs):
    """The parent's composition: sanitize, strict encode, parse, desanitize."""
    return desanitize(json.loads(json.dumps(sanitize(obj), allow_nan=False, **json_kwargs)))


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
states = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


def has_nonfinite(obj):
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(map(has_nonfinite, obj.values()))
    if isinstance(obj, (list, tuple)):
        return any(map(has_nonfinite, obj))
    return False


class TestStateCodec:
    @given(states)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_equals_the_sanitize_composition(self, obj):
        # repr tells NaN apart from everything else, and -0.0 from 0.0
        assert repr(decode_state(encode_state(obj))) == repr(reference(obj))
        for kwargs in ({"sort_keys": True, "separators": (",", ":")},
                       {"ensure_ascii": False}):
            text = encode_state(obj, **kwargs)
            assert repr(decode_state(text)) == repr(reference(obj, **kwargs))

    @given(states)
    @settings(max_examples=200, deadline=None)
    def test_the_state_is_walked_only_when_it_holds_a_non_finite_float(self, obj):
        with (
            mock.patch.object(jsonsafe, "sanitize", wraps=jsonsafe.sanitize) as walk,
            mock.patch.object(jsonsafe, "desanitize", wraps=jsonsafe.desanitize) as unwalk,
        ):
            text = encode_state(obj)
            json.loads(text, parse_constant=lambda name: (_ for _ in ()).throw(
                AssertionError(f"non-strict JSON literal {name!r}")
            ))
            decode_state(text)
        nonfinite = has_nonfinite(obj)
        assert walk.called is nonfinite
        # a finite state walks back only if it spells the sentinel key itself
        assert unwalk.called is (nonfinite or '"~nf"' in text)

    def test_finite_state_is_the_plain_compact_encoding(self):
        state = {"b": [1, 2.5, (3, "x")], "a": None}
        assert encode_state(state) == json.dumps(state, separators=(",", ":"))
        assert decode_state(encode_state(state)) == {"b": [1, 2.5, [3, "x"]], "a": None}
