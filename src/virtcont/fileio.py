"""File formats: spaces/metrics/vectors as JSON, dense matrices as CSV.

Matrix files (functions, sets, plans) carry a one-line JSON header naming
both factor spaces, then one CSV row per X-atom with a Y-label header row.
Reports embed the same matrices as objects with the same cells.  Numbers
serialize as "p/q" strings in exact mode and as 17-significant-digit
decimals in float mode; parse(emit(x)) == x in both regimes.  Each
distinct number string of a file is parsed once, and each distinct number
object of a matrix is formatted once.  Set cells are written as the ints 0
and 1 and read, as a file's "0"/"1" or a report's 0/1, by one lookup each.
A malformed file raises a ValidationError that names its path.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import chain

from .model import (DiscreteSpace, MetricMatrix, Plan, ProductFunction,
                    ProductSet, ValidationError, is_exact, parse_number,
                    require_valid_space, validate_semimetric)


def format_number(x) -> str:
    if isinstance(x, bool):
        raise ValidationError("boolean is not a number")
    if is_exact(x):
        return str(x)       # an int or a Fraction prints as its lowest terms
    return format(x, ".17g")


def _cell_strings(rows, write=format_number) -> list:
    """write(cell) for each cell of the rows, once per distinct cell object.
    Keyed by id (the rows keep each cell alive), never by value: 0.0 == -0.0
    and 1 == 1.0 == Fraction(1) == True, but they print apart."""
    cells = list(chain.from_iterable(rows))
    text = {k: write(v) for k, v in dict(zip(map(id, cells), cells)).items()}
    return [list(map(text.__getitem__, map(id, row))) for row in rows]


def _parse_weight(text, exact: bool):
    try:
        return parse_number(text, exact)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise ValidationError(f"bad numeric literal {text!r}: {e}") from None


class _Reader:
    """Reads the numbers, spaces and metrics of one job: its input files and
    the report that its self-check reads back.  A matrix repeats a few number
    strings many times, and a report shares its spaces and metric with the
    job's inputs: each distinct string is parsed once, each distinct space
    object read (and validated) once, and each metric of distinct values
    validated once.
    """

    def __init__(self, exact: bool = True):
        self.exact = exact
        self._numbers = {}
        self._spaces = {}
        self._metrics = []

    def number(self, text):
        if type(text) is not str:
            return _parse_weight(text, self.exact)
        x = self._numbers.get(text)
        if x is None:
            x = self._numbers[text] = _parse_weight(text, self.exact)
        return x

    def numbers(self, row) -> list:
        """`number` of each cell, mapped at C speed once the strings not seen
        before are parsed.  A row with another cell or a malformed one is
        read cell by cell, so that the error names its first bad cell."""
        known = self._numbers
        try:
            for text in set(row).difference(known):
                if type(text) is not str:
                    raise TypeError
                known[text] = _parse_weight(text, self.exact)
        except (TypeError, ValidationError):
            return [self.number(v) for v in row]
        return list(map(known.__getitem__, row))

    def space(self, obj) -> DiscreteSpace:
        # keyed by its JSON text, which tells 1, 1.0 and true apart
        key = json.dumps(obj, sort_keys=True)
        space = self._spaces.get(key)
        if space is None:
            space = self._spaces[key] = space_from_obj(obj, self.exact, self)
        return space

    def metric(self, m: MetricMatrix) -> MetricMatrix:
        """m validated, or an equal metric on an equal space validated
        before.  Equal, not the same: a float report writes as doubles the
        weights that its inputs gave as "p/q" strings, so its space is read
        from other text."""
        for known in self._metrics:
            if known.space == m.space and known.dist == m.dist:
                return known
        kind, witness = validate_semimetric(m)
        if kind == "invalid":
            raise ValidationError(f"invalid semimetric: {witness}")
        self._metrics.append(m)
        return m


# ------------------------------------------------------------------ spaces

def space_to_obj(space: DiscreteSpace) -> dict:
    return {"labels": list(space.labels),
            "weights": _cell_strings([space.weights])[0]}


def space_from_obj(obj: dict, exact: bool = True, read=None) -> DiscreteSpace:
    """A validated space; `read`, if given, is the `_Reader` of its job."""
    if not isinstance(obj, dict) or "labels" not in obj or "weights" not in obj:
        raise ValidationError("space object needs 'labels' and 'weights'")
    _require_list(obj, "labels", "space")
    _require_list(obj, "weights", "space")
    space = DiscreteSpace(obj["labels"],
                          (read or _Reader(exact)).numbers(obj["weights"]))
    require_valid_space(space)
    return space


def load_space(path: str, exact: bool = True) -> DiscreteSpace:
    return _load(path, lambda text: space_from_obj(_loads_json(text), exact))


def save_space(space: DiscreteSpace, path: str) -> None:
    _dump_json(space_to_obj(space), path)


# ------------------------------------------------------------------ metrics

def metric_to_obj(m: MetricMatrix) -> dict:
    return {"kind": "metric", "space": space_to_obj(m.space),
            "dist": _cell_strings(m.dist)}


def metric_from_obj(obj: dict, exact: bool = True, read=None) -> MetricMatrix:
    """A validated semimetric; `read`, if given, is the `_Reader` of its job."""
    if "space" not in obj or "dist" not in obj:
        raise ValidationError("metric object needs 'space' and 'dist'")
    _require_list(obj, "dist", "metric", rows=True)
    read = read or _Reader(exact)
    return read.metric(MetricMatrix(read.space(obj["space"]),
                                    list(map(read.numbers, obj["dist"]))))


def load_metric(path: str, exact: bool = True, read=None) -> MetricMatrix:
    return _load(path, lambda t: metric_from_obj(_loads_json(t), exact, read))


def save_metric(m: MetricMatrix, path: str) -> None:
    _dump_json(metric_to_obj(m), path)


# ------------------------------------------------------------------ vectors

def vector_to_obj(values) -> dict:
    return {"kind": "vector", "values": [format_number(v) for v in values]}


def vector_from_obj(obj: dict, exact: bool = True, read=None) -> list:
    if "values" not in obj:
        raise ValidationError("vector object needs 'values'")
    _require_list(obj, "values", "vector")
    return list(map((read or _Reader(exact)).number, obj["values"]))


def load_vector(path: str, exact: bool = True, read=None) -> list:
    return _load(path, lambda t: vector_from_obj(_loads_json(t), exact, read))


def save_vector(values, path: str) -> None:
    _dump_json(vector_to_obj(values), path)


# ----------------------------------------------------------------- matrices
# One codec for functions, sets and plans: a report object carries the same
# cells as a CSV file, and `_build` reads them from either.

# kind: (class, cells attribute and key, writer of its rows)
_INTS = {False: 0, True: 1}.__getitem__     # a set cell as written
_KINDS = {"function": (ProductFunction, "values", _cell_strings),
          "set": (ProductSet, "membership",
                  lambda rows: [list(map(_INTS, row)) for row in rows]),
          "plan": (Plan, "mass", _cell_strings)}
_BITS = {"0": False, "1": True, 0: False, 1: True}   # the set cells


def _matrix_kind(m) -> str:
    for kind, (cls, *_) in _KINDS.items():
        if isinstance(m, cls):
            return kind
    raise ValidationError(f"not a matrix object: {type(m).__name__}")


def _build(kind, x_space, y_space, cells, read, signed):
    """The one reader of matrix cells, from CSV rows or a report object."""
    if not all(isinstance(row, (list, tuple)) for row in cells):
        raise ValidationError("matrix rows must be lists of cells")
    if kind == "set":
        # one lookup per cell; True == 1 == 1.0, so a cell of a type other
        # than str and int is looked up by its str
        if not set(map(type, chain.from_iterable(cells))) <= {str, int}:
            cells = [list(map(str, row)) for row in cells]
        try:
            bits = [list(map(_BITS.__getitem__, row)) for row in cells]
        except KeyError:
            raise ValidationError("set cells must be 0 or 1") from None
        return ProductSet.of_bools(x_space, y_space, bits)
    rows = list(map(read.numbers, cells))
    if kind == "plan":
        return Plan(x_space, y_space, rows, signed=bool(signed))
    return ProductFunction(x_space, y_space, rows)


def matrix_to_obj(m) -> dict:
    """Both factor spaces and the cells under the kind's key; a signed plan
    also carries `"signed": true`."""
    _, key, write = _KINDS[_matrix_kind(m)]
    obj = {"x_space": space_to_obj(m.x_space), "y_space": space_to_obj(m.y_space),
           key: write(getattr(m, key))}
    if getattr(m, "signed", False):
        obj["signed"] = True
    return obj


def matrices_to_obj(mats, k: int) -> list:
    """k x k matrices of numbers as rows of strings, as reports list them."""
    rows = _cell_strings([row for mat in mats for row in mat])
    return [rows[i:i + k] for i in range(0, len(rows), k)]


def matrix_from_obj(kind: str, obj: dict, exact: bool = True, read=None):
    """The `kind` ("function", "set" or "plan") that matrix_to_obj wrote;
    `read`, if given, is the `_Reader` of the report it sits in."""
    read = read or _Reader(exact)
    return _build(kind, read.space(obj["x_space"]), read.space(obj["y_space"]),
                  obj[_KINDS[kind][1]], read, obj.get("signed"))


def _csv_table(obj: dict, key: str) -> str:
    """The cells of a matrix object under `key`, as CSV rows with labels."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(obj["y_space"]["labels"]))
    for label, row in zip(obj["x_space"]["labels"], obj[key]):
        writer.writerow([label] + list(row))
    return buf.getvalue()


def dumps_matrix(m) -> str:
    kind = _matrix_kind(m)
    obj = matrix_to_obj(m)
    header = {"kind": kind, "x_space": obj["x_space"], "y_space": obj["y_space"]}
    if kind == "plan":
        header["signed"] = m.signed  # a CSV header names the sign either way
    table = _csv_table(obj, _KINDS[kind][1])
    return json.dumps(header, sort_keys=True) + "\n" + table


def loads_matrix(text: str, exact: bool = True, read=None):
    lines = text.splitlines()
    if not lines:
        raise ValidationError("empty matrix file")
    header = _loads_json(lines[0], "bad matrix header (line 1)")
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind not in _KINDS:
        raise ValidationError(f"unknown matrix kind {kind!r}")
    read = read or _Reader(exact)
    x_space = read.space(header.get("x_space", {}))
    y_space = read.space(header.get("y_space", {}))
    body = [row for row in csv.reader(lines[1:]) if row]
    if len(body) != x_space.size + 1:
        raise ValidationError(
            f"expected {x_space.size + 1} data rows, found {len(body)}")
    if body[0][1:] != list(y_space.labels):
        raise ValidationError("column header does not match Y labels")
    for i, row in enumerate(body[1:]):
        if row[0] != x_space.labels[i]:
            raise ValidationError(f"row {i + 2}: label {row[0]!r} out of order")
        if len(row) != y_space.size + 1:
            raise ValidationError(f"row {i + 2}: wrong cell count")
    return _build(kind, x_space, y_space, [row[1:] for row in body[1:]],
                  read, header.get("signed"))


def load_matrix(path: str, exact: bool = True, read=None):
    return _load(path, lambda text: loads_matrix(text, exact, read))


def save_matrix(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(obj))


# --------------------------------------------------------------- primitives

@contextmanager
def _malformed(what: str):
    """A structural error while reading `what` becomes a ValidationError."""
    try:
        yield
    except KeyError as e:
        raise ValidationError(f"malformed {what}: missing key {e}") from None
    except (TypeError, AttributeError, IndexError) as e:
        raise ValidationError(f"malformed {what}: {e}") from None


def _require_list(obj: dict, key: str, what: str, rows: bool = False) -> None:
    """A list given as a string or an object is not read element by element,
    nor, with rows, a list whose rows are given so."""
    value = obj[key]
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} {key!r} must be a list")
    if rows and not all(isinstance(row, (list, tuple)) for row in value):
        raise ValidationError(f"{what} {key!r} must be a list of lists")


def _load(path: str, parse):
    """parse(text of the file at path); every input error names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    try:
        with _malformed("file"):
            return parse(text)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def _loads_json(text: str, what: str = "bad JSON"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{what}: {e}") from None


def _dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj) + "\n")


_escape = json.encoder.encode_basestring_ascii   # json's own C escaper
_SCALARS = {str: _escape, int: int.__repr__}     # type -> its JSON writer
_INT_TEXT = {k: repr(k) for k in range(1024)}    # set cells, atom indices


def _int_texts(values) -> list:
    """repr of each int, by table if the table holds them all."""
    try:
        return list(map(_INT_TEXT.__getitem__, values))
    except KeyError:
        return list(map(int.__repr__, values))


# type -> the JSON text of each item of a list of that type only
_LISTS = {str: partial(map, _escape), int: _int_texts}


def dumps_json(obj, indent: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2) byte for byte, for what
    `jsonable` returns, with each list of strings or ints in one C-level
    join (json encodes in pure Python when given an indent).  `indent` is
    the line break and margin of obj's closing bracket."""
    write = _SCALARS.get(type(obj))
    if write is not None:
        return write(obj)
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = (_escape(k) + ": " + dumps_json(obj[k], inner) for k in sorted(obj))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        kinds = set(map(type, obj))
        write = _LISTS.get(kinds.pop()) if len(kinds) == 1 else None
        items = write(obj) if write else (dumps_json(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(obj)  # empty containers, bools, None, a float label


_PLAIN = frozenset([str, int, bool, type(None)])   # what jsonable keeps as is


def jsonable(x):
    """Recursively convert model numbers to their string form for reports."""
    if type(x) is str or x is None or isinstance(x, (str, int)):
        return x  # bare ints are indices and counts, not measured quantities
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        if _PLAIN.issuperset(map(type, x)):
            return list(x)      # such as the cells that matrix_to_obj wrote
        return [jsonable(v) for v in x]
    # last: a container tested against Fraction, an ABC, would run in Python
    if isinstance(x, (float, Fraction)):
        return format_number(x)
    raise ValidationError(f"cannot serialize {type(x).__name__}")
