"""canonical_json against the per-item serializer it had before its fast
path for lists of finite floats, which converted the whole payload to plain
Python first and then wrote it: the one walk must write the same bytes."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from banachlab import reports
from banachlab.core_model import Enclosure, Measure, PLFunction, function_to_dict, measure_to_dict


def ref_convert(obj):
    if isinstance(obj, Enclosure):
        return {"lo": obj.lo, "hi": obj.hi}
    if isinstance(obj, PLFunction):
        return function_to_dict(obj)
    if isinstance(obj, Measure):
        return measure_to_dict(obj)
    if isinstance(obj, dict):
        return {str(k): ref_convert(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_convert(v) for v in obj]
    if isinstance(obj, np.ndarray):  # a 0-d array's tolist() is its scalar
        return ref_convert(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def ref_dump(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            out.append('"' + repr(obj) + '"')
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if i:
                out.append(",")
            ref_dump(k, out)
            out.append(":")
            ref_dump(obj[k], out)
        out.append("}")
    elif isinstance(obj, list):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            ref_dump(v, out)
        out.append("]")


def ref_canonical_json(obj):
    out = []
    ref_dump(ref_convert(obj), out)
    return "".join(out)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            math.nan, math.inf, -math.inf]
floats = st.one_of(st.floats(), st.sampled_from(EXTREMES))
scalars = st.one_of(floats, st.integers(-10**20, 10**20), st.booleans(), st.none(),
                    floats.map(np.float64), st.integers(-5, 5).map(np.int64))
leaves = st.one_of(
    st.lists(floats),
    st.lists(floats, min_size=1).map(tuple),
    st.lists(floats).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.integers(-9, 9)).map(np.array),
    st.lists(st.one_of(floats, st.integers(-10**6, 10**6))),
    st.lists(scalars),
    scalars,
)


class Opaque:
    """An object canonical_json knows nothing of: it writes its str()."""

    def __str__(self):
        return 'opaque "ß"'


pl_functions = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=5).map(
    lambda v: PLFunction(np.linspace(0.0, 1.0, len(v)), np.array(v)))
enclosures = st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2).map(
    lambda v: Enclosure(min(v), max(v)))
measures = st.builds(
    lambda atoms, rho: Measure(tuple(atoms.items()), rho),
    st.dictionaries(st.floats(0.0, 1.0), st.floats(-5.0, 5.0), max_size=3),
    st.none() | pl_functions,
)
non_finite = st.sampled_from([math.inf, -math.inf, math.nan]).map(np.float64)
objects = st.one_of(
    st.booleans().map(np.bool_),
    floats.map(np.array),  # 0-d arrays
    st.lists(floats.map(np.float64) | non_finite, min_size=1).map(tuple),
    enclosures,
    pl_functions,
    measures,
    st.just(Opaque()),
)
payloads = st.recursive(
    leaves | objects,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4) | st.integers(-3, 3), inner,
                                            max_size=4)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_same_text_as_per_item_serializer(obj):
    assert reports.canonical_json(obj) == ref_canonical_json(obj)


def test_witness_sized_payload():
    xs = np.linspace(0.0, 1.0, 4097)
    f = PLFunction(xs, np.sin(40.0 * xs) * 1e-3)
    obj = {"found": True, "witness": function_to_dict(f), "f": f, "raw": f.values}
    assert reports.canonical_json(obj) == ref_canonical_json(obj)
