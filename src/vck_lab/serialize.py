"""Canonical JSON interchange for every artifact the lab produces.

One emitter (:func:`dumps_canonical`, on the standard library JSON
encoder), one schema per artifact, loaders that reject unknown keys.  Floats
are written in their shortest round-trip form (``repr``), which parses back
to the same float64 bit for bit on every platform; files in the earlier
17-significant-digit spelling load to the same doubles.  Keys are sorted, so
re-serializing a loaded document reproduces it byte for byte; 0/1 vectors
(every relation's values) are written from a byte table, in the same bytes.

The module imports no numpy and no ``space`` at load time: instance
documents are read by one parse (:func:`parse_instance`) that the certificate
checker (``check``) and the library's loader each finish with their own
constructors, and only the loader imports numpy, when called.  Every field
the schema makes an integer must be a JSON integer (:func:`json_int`), every
weight and value a JSON number (:func:`json_numbers`), and ``signed`` a JSON
boolean (:func:`json_bool`).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
from fractions import Fraction

from .errors import InvalidArgumentError, VckLabError, indices, real_numbers


def format_float(x: float) -> str:
    """Shortest text that parses back to the same double (``repr``)."""
    if not math.isfinite(x):
        raise InvalidArgumentError(f"non-finite value {x} cannot be serialized")
    return repr(float(x))


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, no spaces, shortest round-trip floats.

    The encoder leaves a hole for each float64 vector, spliced in after it
    (:func:`_vector_texts`).  A document that raises, or whose own strings
    spell the hole, is written by the encoder alone, errors included."""
    vectors, ndarray = [], getattr(sys.modules.get("numpy"), "ndarray", None)

    def set_aside(value):
        if type(value) is not ndarray or value.ndim != 1 or value.dtype.char != "d":
            return _plain(value)
        vectors.append(value)
        return _HOLE

    with contextlib.suppress(TypeError, ValueError, VckLabError):
        parts = json.dumps(obj, default=set_aside, **_FORMAT).split(_HOLE_TEXT)
        if len(parts) == len(vectors) + 1:
            texts = _vector_texts(vectors) if vectors else []  # no numpy without arrays
            return "".join(itertools.chain(*zip(parts, texts + [""])))
    try:
        return json.dumps(obj, default=_plain, **_FORMAT)
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot serialize: {exc}") from exc


_FORMAT = {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False,
           "allow_nan": False}
_HOLE = "\0float64 vector\0"
_HOLE_TEXT = json.dumps(_HOLE)
_ONE_BITS, _CHUNK = 0x3FF0000000000000, 1 << 16


def _vector_texts(vectors) -> list:
    """Each vector's JSON text: by the encoder, or from a byte table, 4 bytes
    an element, when every element has the bits of +0.0 or 1.0 (-0.0 == 0.0,
    but it prints "-0.0").  Vectors are read in groups of about ``_CHUNK``
    elements (a longer one alone), and looked up ``_CHUNK`` at a time."""
    import numpy as np

    table, texts = np.frombuffer(b",0.0,1.0", dtype=np.uint32), []
    ends = itertools.accumulate(v.size for v in vectors)
    for _, group in itertools.groupby(zip(ends, vectors), lambda e: (e[0] - 1) // _CHUNK):
        group = [v for _, v in group]
        bits = np.concatenate(group, dtype=np.float64).view(np.uint64)
        one = bits == _ONE_BITS
        text = "".join(table[one[i:i + _CHUNK].view(np.uint8)].tobytes().decode()
                       for i in range(0, one.size, _CHUNK))
        starts = list(itertools.accumulate((v.size for v in group), initial=0))
        # per vector start, the elements before it other than +0.0 and 1.0
        other = np.searchsorted(np.flatnonzero(~one & (bits != 0)), starts).tolist()
        texts += ["[" + text[4 * s + 1:4 * e] + "]" if a == b
                  else json.dumps(v.tolist(), **_FORMAT)
                  for v, s, e, a, b in zip(group, starts, starts[1:], other, other[1:])]
    return texts


def _plain(obj):
    """The JSON-native form of the numpy and Fraction values reports carry:
    numpy arrays and scalars convert themselves with ``tolist``."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    tolist = getattr(obj, "tolist", None)
    if tolist is None:
        raise InvalidArgumentError(f"cannot serialize {type(obj).__name__}")
    return tolist()


def write_canonical(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def load_json(path):
    """Parse a UTF-8 JSON file, refusing the non-standard NaN and Infinity literals."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _reject_constant(name):
    raise InvalidArgumentError(f"non-finite JSON literal {name}")


def parse_fraction(text) -> Fraction:
    """A number, or "p/q" text; JSON ``true`` is refused, never read as 1."""
    if type(text) is bool:
        raise TypeError(f"expected a number or fraction, got {text!r}")
    if isinstance(text, str) and "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(text)


@contextlib.contextmanager
def reading(record: str):
    """Report the lookup and conversion errors that reading a structurally
    malformed document raises as InvalidArgumentError naming the record."""
    try:
        yield
    except KeyError as exc:
        raise InvalidArgumentError(f"{record}: missing key {exc}") from exc
    except (TypeError, ValueError, LookupError, ArithmeticError, AttributeError) as exc:
        raise InvalidArgumentError(f"{record}: {exc}") from exc


def check_keys(record, allowed, context):
    unknown = set(record) - set(allowed)
    if unknown:
        raise InvalidArgumentError(f"{context}: unknown keys {sorted(unknown)}")


def json_int(value, what: str) -> int:
    """An integer field of a document, which must be a JSON integer: a
    float or a bool is refused, never truncated.  The TypeError is reported
    with its record by :func:`reading`."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r:.40}")
    return value


def json_bool(value, what: str) -> bool:
    """A boolean field of a document, which must be JSON ``true`` or
    ``false``: a string such as ``"false"`` is refused, never read by truth."""
    if type(value) is not bool:
        raise TypeError(f"{what} must be true or false, got {value!r:.40}")
    return value


def json_numbers(values, what: str) -> list:
    """A list field of numbers, as floats: each must be a JSON number, so
    ``true`` or a numeric string such as ``"1"`` is refused, never read as
    1 (:func:`errors.real_numbers`).  The TypeError is reported with its
    record by :func:`reading`."""
    real_numbers(values, what, TypeError)
    return list(map(float, values))


# --------------------------------------------------------------------------
# PartiteSpace + functions document
#
# {"parts":    [{"name", "size", "weights": [...]}, ...],
#  "functions":[{"name", "signature": [part indices], "values": [row-major],
#                "signed": bool (optional, default false)}, ...]}


def space_to_doc(space: PartiteSpace) -> dict:
    return {"parts": [{"name": p.name, "size": p.size,
                       "weights": [float(w) for w in p.weights]}
                      for p in space.parts]}


def functions_to_doc(space: PartiteSpace, functions) -> dict:
    doc = space_to_doc(space)
    entries = []
    for f in functions:
        entry = {"name": f.name, "signature": list(f.signature),
                 "values": f.values.ravel()}
        if f.signed:
            entry["signed"] = True
        entries.append(entry)
    doc["functions"] = entries
    return doc


@reading("space document")
def parse_instance(doc, make_space, make_function) -> tuple:
    """(space, functions) of an instance document, after the format's checks:
    keys, JSON integers, numbers and booleans, signature range, value count.  The
    caller's ``make_space`` gets every part's (name, size, weights) before any
    function record is read; ``make_function(space, name, signature, shape,
    values, signed)`` builds each record, its errors reported with it."""
    check_keys(doc, {"parts", "functions"}, "space document")
    parts = []
    for i, rec in enumerate(doc["parts"]):
        with reading(f"part record {i}"):
            check_keys(rec, {"name", "size", "weights"}, "part record")
            parts.append((rec["name"], json_int(rec["size"], "size"),
                          tuple(json_numbers(rec["weights"], "weights"))))
    space = make_space(parts)
    functions = []
    for i, rec in enumerate(doc.get("functions", [])):
        with reading(f"function record {i}"):
            check_keys(rec, {"name", "signature", "values", "signed"}, "function record")
            signature = indices([json_int(p, "signature entry") for p in rec["signature"]],
                                "signature entries", 0, len(parts))
            shape = tuple(parts[p][1] for p in signature)
            values = json_numbers(rec["values"], "values")
            if len(values) != math.prod(shape):
                raise ValueError(f"{len(values)} values for shape {shape}")
            functions.append(make_function(space, rec["name"], signature, shape, values,
                                           json_bool(rec.get("signed", False), "signed")))
    return space, functions


def functions_from_doc(doc) -> tuple:
    """(PartiteSpace, functions) of a document; unsigned 0/1 ones are Relations."""
    import numpy as np

    from .space import MeasuredFunction, Part, PartiteSpace, Relation

    def function(space, name, signature, shape, values, signed):
        vals = np.array(values, dtype=np.float64).reshape(shape)
        boolean = not signed and np.all((vals == 0.0) | (vals == 1.0))
        cls = Relation if boolean else MeasuredFunction
        return cls(space, signature, vals, name=name, signed=signed)

    return parse_instance(doc, lambda parts: PartiteSpace(tuple(Part(*p) for p in parts)),
                          function)


def find_function(functions, name=None, signature=None):
    """Select a stored function by name and/or signature; default to the first."""
    candidates = list(functions)
    if name is not None:
        candidates = [f for f in candidates if f.name == name]
    if signature is not None:
        sig = indices(signature, "signature entries")
        candidates = [f for f in candidates if f.signature == sig]
    if not candidates:
        raise InvalidArgumentError(
            f"no stored function matches name={name!r} signature={signature!r}")
    return candidates[0]
