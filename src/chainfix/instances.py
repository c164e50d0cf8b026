"""Problem instance schema: parsing, canonical serialization, generation.

An instance document is JSON with a pinned shape::

    {
      "schema_version": 1,
      "space": {"kind": "finite", "points": [...],
                "distance_matrix": [[...]], "order_pairs": [[i, j], ...]}
            or {"kind": "box", "dimension": k, "lower": [...],
                "upper": [...], "grid_step": h},
      "map": {"kind": "table", "table": [[...]]}
          or {"kind": "expression", "formula": "..." or ["...", ...]},
      "seeds": {"x0": ..., "y0": ...},
      "parameters": {"epsilon": e, "tolerance": t, "max_iterations": n,
                     "lambda_claimed": l?},
      "declared_flags": {"order_limit_closure": true}
    }

``order_pairs`` may list only covering relations; the reflexive-transitive
closure is taken before the order axioms are checked, so a cyclic input
fails antisymmetry rather than slipping through. Serialization is canonical
(sorted keys, two-space indent, trailing newline) so identical instances are
byte-identical on disk; ``canonical_json`` writes that layout for every
document chainfix emits.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import NamedTuple

from ._lazy import numpy as np
from .errors import DomainError, InvalidInstanceError, clipped, clipped_repr
from .mappings import CoupledMap, ExpressionMap, TableMap, expression_map
from .spaces import (
    BoxSpace,
    FiniteSpace,
    Point,
    Space,
    _composes,
    _covers,
    _min_plus_closure,
    is_finite_number,
    point_jsonable,
)

SCHEMA_VERSION = 1
MAX_POINTS = 64
# Cap on parameters.max_iterations and on verify-lemma's --horizon: each
# step applies the map and records a row, so the count bounds time and memory.
MAX_ITERATIONS = 100_000

# the keys each object of a document may hold; any other is refused
_KEYS = {
    "document": {"schema_version", "space", "map", "seeds", "parameters",
                 "declared_flags"},
    "finite space": {"kind", "points", "distance_matrix", "order_pairs"},
    "box space": {"kind", "dimension", "lower", "upper", "grid_step"},
    "table map": {"kind", "table"},
    "expression map": {"kind", "formula"},
    "seeds": {"x0", "y0"},
    "parameters": {"epsilon", "tolerance", "max_iterations", "lambda_claimed"},
    "declared_flags": {"order_limit_closure"},
}


class Parameters(NamedTuple):
    epsilon: float
    tolerance: float = 1e-10
    max_iterations: int = 200
    lambda_claimed: float | None = None


class Instance(NamedTuple):
    space: Space
    cmap: CoupledMap
    x0: Point
    y0: Point
    params: Parameters
    grid_step: float | None = None


def _require(data: dict, key: str, kind, where: str, test=None):
    """``data[key]`` read as ``kind``; ``test``, when given, returns why the
    read value is refused, or None."""
    field = key if where == "document" else f"{where}.{key}"
    if key not in data:
        raise InvalidInstanceError("required field is missing", field=field)
    value = data[key]
    if kind is float:
        if not is_finite_number(value):
            raise InvalidInstanceError(
                f"must be a finite number, got {clipped_repr(value)}",
                field=field,
            )
        value = float(value)
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidInstanceError(
                f"must be an integer, got {clipped_repr(value)}",
                field=field,
            )
    elif not isinstance(value, kind):
        raise InvalidInstanceError(
            f"must be {kind.__name__}, got {clipped_repr(value)}",
            field=field,
        )
    if test is not None and (reason := test(value)):
        raise InvalidInstanceError(reason, field=field)
    return value


def _optional(data: dict, key: str, kind, where: str, default, test=None):
    """``_require``'s value, or ``default`` when ``data`` has no ``key``."""
    return _require(data, key, kind, where, test) if key in data else default


def _positive(v):
    return None if v > 0 else f"must be positive, got {v}"


def _iterations(v):
    return None if 1 <= v <= MAX_ITERATIONS else (
        f"must lie in [1, {MAX_ITERATIONS}], got {v}")


def _in_unit_interval(v):
    return None if 0.0 < v < 1.0 else f"must lie in (0, 1), got {v}"


def _known_keys(data: dict, kind: str) -> None:
    """Refuse a key of ``data`` that a ``kind`` object does not hold, naming
    the first in sorted order as the field (under the object's own key, the
    last word of ``kind``)."""
    unknown = sorted(set(data) - _KEYS[kind])
    if unknown:
        top = kind == "document"
        key = clipped(unknown[0])
        raise InvalidInstanceError(
            f"unknown {'top-level' if top else kind} fields: {clipped_repr(unknown)}",
            field=key if top else f"{kind.split()[-1]}.{key}",
        )


def _closure(n: int, pairs) -> np.ndarray:
    shaped = set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}
    flat = list(itertools.chain.from_iterable(pairs)) if shaped else []
    if not (
        shaped
        and set(map(type, flat)) <= {int}
        and (not flat or 0 <= min(flat) and max(flat) < n)
    ):
        # the whole-list test failed: name the first bad pair
        for pair in pairs:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)
            ):
                raise InvalidInstanceError(
                    f"entries must be [i, j] index pairs, got {clipped_repr(pair)}",
                    field="space.order_pairs",
                )
            i, j = pair
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInstanceError(
                    f"order pair {clipped_repr(pair)} is out of range for {n} points",
                    field="space.order_pairs",
                    witness=pair,
                )
    P = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    L = np.eye(n, dtype=bool)
    L[P[:, 0], P[:, 1]] = True
    # squaring a reflexive relation doubles the path lengths it holds, so
    # ceil(log2 n) squarings close it
    while True:
        closed = _composes(L, L)
        if np.array_equal(closed, L):
            return L
        L = closed


def _build(where: str, make, *args):
    """``make(*args)``, with ``where`` prefixed to the field of its error."""
    try:
        return make(*args)
    except InvalidInstanceError as exc:
        exc.field = f"{where}.{exc.field}" if exc.field else where
        raise
    except Exception as exc:
        reason = str(exc) or type(exc).__name__
        raise InvalidInstanceError(reason, field=where) from None


def _require_rows(data: dict, key: str, where: str) -> list:
    rows = _require(data, key, list, where)
    if any(not isinstance(row, list) for row in rows):
        raise InvalidInstanceError("must be a list of rows",
                                   field=f"{where}.{key}")
    return rows


def _parse_finite_space(data: dict) -> FiniteSpace:
    _known_keys(data, "finite space")
    labels = _require(data, "points", list, "space")
    if len(labels) > MAX_POINTS:
        raise InvalidInstanceError(
            f"{len(labels)} points exceeds the limit of {MAX_POINTS}",
            field="space.points",
        )
    dist = _require_rows(data, "distance_matrix", "space")
    order = _closure(len(labels), _require(data, "order_pairs", list, "space"))
    return _build("space", FiniteSpace.from_lists, labels, dist, order)


def _parse_box_space(data: dict) -> tuple[BoxSpace, float | None]:
    _known_keys(data, "box space")
    dim = _require(data, "dimension", int, "space",
                   lambda v: None if v >= 1 else f"must be at least 1, got {v}")
    lower = _require(data, "lower", list, "space")
    upper = _require(data, "upper", list, "space")
    if len(lower) != dim or len(upper) != dim:
        raise InvalidInstanceError(
            "lower and upper must each list one value per dimension",
            field="space.lower" if len(lower) != dim else "space.upper",
        )
    space = _build("space", BoxSpace, tuple(lower), tuple(upper))
    step = _optional(data, "grid_step", float, "space", None, _positive)
    if step is not None:
        _build("space.grid_step", space.grid_axes, step)  # raises over the cap
    return space, step


def parse_point(space: Space, raw, where: str) -> Point:
    """A point from its document form: label or index, or box coordinates."""
    if isinstance(space, FiniteSpace):
        if isinstance(raw, str):
            try:
                return space.labels.index(raw)
            except ValueError:
                raise InvalidInstanceError(
                    f"unknown point label {clipped_repr(raw)}", field=where,
                    witness=raw,
                ) from None
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise InvalidInstanceError(
                f"must be an index or label, got {clipped_repr(raw)}", field=where
            )
        pt: Point = raw
    elif is_finite_number(raw):
        pt = (float(raw),)
    elif isinstance(raw, list) and all(map(is_finite_number, raw)):
        pt = tuple(float(v) for v in raw)
    else:
        raise InvalidInstanceError(
            f"must be a finite coordinate or coordinate list, got {clipped_repr(raw)}",
            field=where,
        )
    try:
        space.validate_point(pt)
    except Exception as exc:
        raise InvalidInstanceError(str(exc), field=where,
                                   witness=point_jsonable(pt)) from None
    return pt


def _parse_table_map(space, data: dict) -> TableMap:
    if not isinstance(space, FiniteSpace):
        raise InvalidInstanceError("table maps require a finite space",
                                   field="map.kind")
    _known_keys(data, "table map")
    table = _require_rows(data, "table", "map")
    return _build("map", TableMap, space, table)


def _parse_expression_map(space, data: dict) -> ExpressionMap:
    if not isinstance(space, BoxSpace):
        raise InvalidInstanceError("expression maps require a box space",
                                   field="map.kind")
    _known_keys(data, "expression map")
    formula = data.get("formula")
    if not isinstance(formula, (str, list)):
        raise InvalidInstanceError(
            "must be a string or a list of strings",
            field="map.formula",
        )
    return _build("map", expression_map, space, formula)


def parse_instance(data) -> Instance:
    """Validate a decoded JSON document and build the runtime objects.

    Raises InvalidInstanceError with the offending field (and a witness where
    one makes sense) on any violation, including metric and order axioms.
    """
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"instance document must be a JSON object, got {type(data).__name__}"
        )
    _known_keys(data, "document")
    version = _require(data, "schema_version", int, "document")
    if version != SCHEMA_VERSION:
        raise InvalidInstanceError(
            f"unsupported version {version}; this build reads "
            f"{SCHEMA_VERSION}",
            field="schema_version",
        )
    space_data = _require(data, "space", dict, "document")
    kind = _require(space_data, "kind", str, "space")
    grid_step = None
    if kind == "finite":
        space: Space = _parse_finite_space(space_data)
    elif kind == "box":
        space, grid_step = _parse_box_space(space_data)
    else:
        raise InvalidInstanceError(
            f"must be 'finite' or 'box', got {clipped_repr(kind)}",
            field="space.kind",
        )
    map_data = _require(data, "map", dict, "document")
    map_kind = _require(map_data, "kind", str, "map")
    if map_kind == "table":
        cmap: CoupledMap = _parse_table_map(space, map_data)
    elif map_kind == "expression":
        cmap = _parse_expression_map(space, map_data)
    else:
        raise InvalidInstanceError(
            f"must be 'table' or 'expression', got {clipped_repr(map_kind)}",
            field="map.kind",
        )
    seeds = _require(data, "seeds", dict, "document")
    _known_keys(seeds, "seeds")
    x0 = parse_point(space, seeds.get("x0"), "seeds.x0")
    y0 = parse_point(space, seeds.get("y0"), "seeds.y0")
    params_data = _require(data, "parameters", dict, "document")
    _known_keys(params_data, "parameters")
    default = Parameters._field_defaults
    params = Parameters(
        _require(params_data, "epsilon", float, "parameters", _positive),
        _optional(params_data, "tolerance", float, "parameters",
                  default["tolerance"], _positive),
        _optional(params_data, "max_iterations", int, "parameters",
                  default["max_iterations"], _iterations),
        # a null claim is no claim
        None if params_data.get("lambda_claimed") is None else _require(
            params_data, "lambda_claimed", float, "parameters", _in_unit_interval),
    )
    flags = data.get("declared_flags", {})
    if not isinstance(flags, dict):
        raise InvalidInstanceError("must be an object",
                                   field="declared_flags")
    _known_keys(flags, "declared_flags")
    closure_flag = flags.get("order_limit_closure", True)
    if closure_flag is not True:
        # a finite space is discrete and a box carries the product order of
        # closed intervals, so the order of either kind is closed under limits
        raise InvalidInstanceError(
            "must be true: the order of every space kind is closed under limits"
            if closure_flag is False else "must be a boolean",
            field="declared_flags.order_limit_closure",
        )
    return Instance(
        space=space,
        cmap=cmap,
        x0=x0,
        y0=y0,
        params=params,
        grid_step=grid_step,
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInstanceError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        # NaN, Infinity and 1e400 decode to floats that the field they land
        # in rejects, by name
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(
            f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal of more than 4300 digits
        raise InvalidInstanceError(f"{path}: not readable as JSON: {exc}") from None
    except RecursionError:
        raise InvalidInstanceError(
            f"{path}: not readable as JSON: arrays or objects nested too deeply"
        ) from None
    return parse_instance(data)


def _covering_pairs(L: np.ndarray) -> list[list[int]]:
    # transitive reduction: i < j with no k strictly between
    return np.argwhere(_covers(L)).tolist()


def instance_document(inst: Instance) -> dict:
    """Canonical JSON document for an instance (inverse of parse_instance)."""
    if isinstance(inst.space, FiniteSpace):
        space_doc = {
            "kind": "finite",
            "points": list(inst.space.labels),
            "distance_matrix": [list(row) for row in inst.space.dist],
            "order_pairs": _covering_pairs(inst.space.L),
        }
    else:
        space_doc = {
            "kind": "box",
            "dimension": inst.space.dim,
            "lower": list(inst.space.lower),
            "upper": list(inst.space.upper),
        }
        if inst.grid_step is not None:
            space_doc["grid_step"] = inst.grid_step
    if isinstance(inst.cmap, TableMap):
        map_doc = {"kind": "table", "table": inst.cmap.T.tolist()}
    else:
        sources = list(inst.cmap.sources)
        map_doc = {
            "kind": "expression",
            "formula": sources[0] if len(sources) == 1 else sources,
        }
    params_doc = {
        "epsilon": inst.params.epsilon,
        "tolerance": inst.params.tolerance,
        "max_iterations": inst.params.max_iterations,
    }
    if inst.params.lambda_claimed is not None:
        params_doc["lambda_claimed"] = inst.params.lambda_claimed
    return {
        "schema_version": SCHEMA_VERSION,
        "space": space_doc,
        "map": map_doc,
        "seeds": {
            "x0": point_jsonable(inst.x0),
            "y0": point_jsonable(inst.y0),
        },
        "parameters": params_doc,
        "declared_flags": {"order_limit_closure": True},
    }


def dump_instance(inst: Instance) -> bytes:
    return canonical_json(instance_document(inst))


_SCALARS = {int, float, bool, type(None)}
# the C encoder: ", " between items, ": " after keys, no whitespace else
_encode = json.JSONEncoder(allow_nan=False).encode


def canonical_json(doc) -> bytes:
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n"``
    as UTF-8, byte for byte.

    A list of numbers, booleans and nulls, or a list of nonempty such
    lists, is encoded by one C-encoder call and laid out with
    ``str.replace``: none of those values can hold a comma, so every ", "
    is an item boundary. A 2-D integer ndarray is written as ``json.dumps``
    writes its ``.tolist()``, by filling one ``%d`` row template per row;
    any other ndarray is refused as ``json.dumps`` refuses it, so a bool or
    float array never prints as integers. Everything else is laid out
    recursively.
    """
    try:
        return (_layout(doc, "\n") + "\n").encode("utf-8")
    except ValueError:
        raise DomainError(
            "the result holds a non-finite number, which JSON cannot carry"
        ) from None


def _layout(o, nl: str) -> str:
    """``o`` indented as at the line break ``nl``, which ends in its indent."""
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = sorted(o.items())
        return "{" + inner + ("," + inner).join(
            f"{_encode(_key(k))}: {_layout(v, inner)}" for k, v in items
        ) + nl + "}"
    if not isinstance(o, (list, tuple)):
        if (
            not isinstance(o, (str, int, float, type(None)))  # numpy is not asked
            and isinstance(o, np.ndarray) and o.ndim == 2 and o.dtype.kind in "iu"
        ):
            return _int_rows(o, nl)
        return _encode(o)
    if not o:
        return "[]"
    types = set(map(type, o))
    if types <= _SCALARS:
        return "[" + inner + _encode(o)[1:-1].replace(", ", "," + inner) + nl + "]"
    if (
        types <= {list, tuple}
        and all(o)
        and set(map(type, itertools.chain.from_iterable(o))) <= _SCALARS
    ):
        row = inner + "  "
        body = _encode(o)[2:-2].replace("], [", inner + "]," + inner + "[" + row)
        body = body.replace(", ", "," + row)
        return "[" + inner + "[" + row + body + inner + "]" + nl + "]"
    return "[" + inner + ("," + inner).join(_layout(v, inner) for v in o) + nl + "]"


def _int_rows(a: np.ndarray, nl: str) -> str:
    """The (k, m) integer array ``a`` as ``_layout`` lays out ``a.tolist()``."""
    k, m = a.shape
    if not k:
        return "[]"
    inner = nl + "  "
    row = inner + "  "
    template = "[" + row + ("," + row).join(["%d"] * m) + inner + "]" if m else "[]"
    body = ("," + inner).join([template] * k) % tuple(a.ravel().tolist())
    return "[" + inner + body + nl + "]"


def _key(k) -> str:
    # json's key rule: strings as they are, numbers, booleans and null as
    # their JSON text
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _encode(k)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(k).__name__}"
    )


def generate_finite_instance(seed: int, size: int | None = None) -> Instance:
    """Deterministic random finite instance: same seed, same bytes.

    The order is a DAG closure, the metric comes from shortest paths over
    positive integer edge weights (completed with the max finite distance so
    the triangle inequality survives), the map is one of three regimes
    cycling with the seed, and epsilon is placed just above the largest
    covering distance so comparable pairs are chainable.
    """
    rng = random.Random(seed)
    n = size if size is not None else rng.randint(2, 16)
    if not 2 <= n <= MAX_POINTS:
        raise InvalidInstanceError(f"size must lie in [2, {MAX_POINTS}], got {n}")
    labels = [f"p{i}" for i in range(n)]

    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                adj[i][j] = True
    if seed % 4 == 0:
        for j in range(1, n):
            adj[0][j] = True
        for i in range(n - 1):
            adj[i][n - 1] = True
    if not any(adj[i][j] for i in range(n) for j in range(i + 1, n)):
        adj[0][n - 1] = True

    W = np.full((n, n), np.inf)
    np.fill_diagonal(W, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            w = float(rng.randint(1, 5))
            if adj[i][j]:
                W[i, j] = W[j, i] = w
    _min_plus_closure(W)  # shortest paths
    reached = np.isfinite(W)
    cap = max(W[reached].max(), 1.0)
    dist = np.where(reached, W, cap).tolist()

    order_pairs = [[i, j] for i in range(n) for j in range(i + 1, n) if adj[i][j]]
    L = _closure(n, order_pairs).tolist()

    cover_d = [dist[i][j] for i, j in order_pairs]
    comp_d = [
        dist[i][j] for i in range(n) for j in range(n) if i != j and L[i][j]
    ]
    epsilon = max(cover_d) + 0.5
    if seed % 5 == 3 and comp_d:  # distinct points lie at least 1 apart
        epsilon = 0.75 * min(comp_d)

    # longest ascending chain; edges only go up in index, so 0..n-1 is a
    # topological order and one DP pass suffices
    best_len = [1] * n
    best_prev = [-1] * n
    for j in range(n):
        for i in range(j):
            if L[i][j] and best_len[i] + 1 > best_len[j]:
                best_len[j] = best_len[i] + 1
                best_prev[j] = i
    end = max(range(n), key=lambda j: (best_len[j], -j))
    chain = []
    while end != -1:
        chain.append(end)
        end = best_prev[end]
    chain.reverse()

    regime = seed % 3
    if regime == 0:
        c = chain[len(chain) // 2]
        table = [[c] * n for _ in range(n)]
    elif regime == 1:
        # targets walk up the chain as phi(x) - phi(y) grows; phi is a
        # weighted count of the down-set, so it is monotone in the order
        wphi = [rng.randint(1, 3) for _ in range(n)]
        phi = [sum(wphi[z] for z in range(n) if L[z][x]) for x in range(n)]
        scores = [phi[x] - phi[y] for x in range(n) for y in range(n)]
        smin, smax = min(scores), max(scores)
        span = max(smax - smin, 1)
        k = len(chain)
        table = [
            [
                chain[min((phi[x] - phi[y] - smin) * k // (span + 1), k - 1)]
                for y in range(n)
            ]
            for x in range(n)
        ]
    else:
        table = [[x] * n for x in range(n)]

    # the first seed pair in row-major order; every regime has a c with
    # F(c, c) = c, and (c, c) is a seed pair, so there is one
    seeds = next(
        (x0, y0) for x0 in range(n) for y0 in range(n)
        if L[x0][table[x0][y0]] and L[table[y0][x0]][y0]
    )

    doc = {
        "schema_version": SCHEMA_VERSION,
        "space": {
            "kind": "finite",
            "points": labels,
            "distance_matrix": dist,
            "order_pairs": order_pairs,
        },
        "map": {"kind": "table", "table": table},
        "seeds": {"x0": seeds[0], "y0": seeds[1]},
        "parameters": {
            "epsilon": epsilon,
            "tolerance": 1e-9,
            "max_iterations": 4 * n + 32,
        },
        "declared_flags": {"order_limit_closure": True},
    }
    return parse_instance(doc)
