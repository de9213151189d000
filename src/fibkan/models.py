"""Parsing and validation of JSON model files into typed model bundles."""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass, field

from . import fincat
from .finalg import QftFunctor, validate_algebra, validate_qft
from .fincat import CatFunctor, FinCategory, LocStructure, build_fibered_model
from .qlinalg import QMatrix


class ModelError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class Model:
    name: str
    loc: LocStructure
    strcat: FinCategory
    pi: CatFunctor
    A: QftFunctor
    _fibered: dict = field(default_factory=dict)

    def fibered(self, order: str = "normal") -> fincat.FiberedModel:
        """The fibered model with the cleavage picked in the given order,
        built once per order."""
        if order not in self._fibered:
            self._fibered[order] = build_fibered_model(self.pi, order)
        return self._fibered[order]


def _shaped(value, kind, what):
    """value, which must be a JSON array (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        raise TypeError(
            f"{what} is not a JSON {'array' if kind is list else 'object'}")
    return value


def _category_from_dict(data, path):
    try:
        morphisms = [(m["name"], m["source"], m["target"])
                     for m in _shaped(data["morphisms"], list, "morphisms")]
        objects = _shaped(data["objects"], list, "objects")
        for name in (*objects, *(x for m in morphisms for x in m)):
            if not isinstance(name, str):
                raise TypeError(f"name {name!r} is not a string")
        compose = {(g, f): h
                   for g, f, h in _shaped(data["compose"], list, "compose")}
        cat = FinCategory(objects, morphisms,
                          _shaped(data["identity"], dict, "identity"), compose)
        violations = cat.violations()
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError([f"{path}: malformed category data ({exc})"])
    if violations:
        raise ModelError([f"{path}: {v}" for v in violations])
    return cat


def _validated(path, build, *args):
    """build(*args), with its violations or malformed data named by path."""
    try:
        return build(*args)
    except fincat.CategoryError as exc:
        raise ModelError([f"{path}: {v}" for v in exc.violations]
                         or [f"{path}: {exc}"])
    except (IndexError, TypeError, ValueError) as exc:
        raise ModelError([f"{path}: malformed data ({exc})"])


def _section(data: dict, key: str) -> dict:
    """The JSON object under key ({} when absent)."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ModelError([f"$.{key}: expected a JSON object"])
    return value


def _shared(parsed: dict, parse, *spec):
    """parse(*spec), kept for any later spec with the same encoding: the
    marshal bytes of version 2, which has no back-references, tell every
    value and its exact type apart (a tuple from a list, an int subclass
    from an int); a spec marshal cannot encode is parsed on its own."""
    try:
        key = marshal.dumps(spec, 2)
    except ValueError:
        return parse(*spec)
    if key not in parsed:
        parsed[key] = parse(*spec)
    return parsed[key]


def model_from_dict(data: dict) -> Model:
    """The model of decoded JSON data; equal specs of equal types share one
    parsed, read-only object, and a failed spec is reported at each path."""
    if not isinstance(data, dict):
        raise ModelError(["$: model file must be a JSON object"])
    if isinstance(data.get("format"), bool) or data.get("format") != 1:
        raise ModelError(["$.format: expected 1"])
    meta = _section(data, "metadata")
    name = meta.get("name", "unnamed")

    locdata = _section(data, "loc")
    base = _category_from_dict(locdata, "$.loc")
    strcat = _category_from_dict(_section(data, "str"), "$.str")

    loc = _validated("$.loc", fincat.validate_loc_structure, base,
                     locdata.get("causal_cospans", []), locdata.get("cauchy", []))

    proj = _section(data, "projection")
    pi = _validated("$.projection", lambda: fincat.validate_functor(
        strcat, base, _shaped(proj.get("objects", {}), dict, "objects"),
        _shaped(proj.get("morphisms", {}), dict, "morphisms")))
    # whether cartesian lifts exist does not depend on the order they are
    # picked in, so one cleavage validates the projection
    try:
        fibered = build_fibered_model(pi)
    except fincat.FiberedModelError as exc:
        raise ModelError([f"$.projection: {exc}"])

    algebra_specs = _section(data, "algebras")
    map_specs = _section(data, "algebra_maps")
    errors = []
    algebra_texts, map_texts = {}, {}
    algebras = {}
    for S in strcat.objects:
        spec = algebra_specs.get(S)
        if spec is None:
            errors.append(f"$.algebras.{S}: missing")
            continue
        try:
            algebras[S] = _shared(algebra_texts, validate_algebra, spec["dim"],
                                  spec["structure_constants"], spec["unit"])
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"$.algebras.{S}: {exc}")
    matrices = {}
    for g in strcat.morphisms:
        spec = map_specs.get(g)
        if spec is None:
            errors.append(f"$.algebra_maps.{g}: missing")
            continue
        try:
            matrices[g] = _shared(map_texts, QMatrix.from_rows, spec)
        except (TypeError, ValueError) as exc:
            errors.append(f"$.algebra_maps.{g}: {exc}")
    if errors:
        raise ModelError(errors)
    try:
        A = validate_qft(strcat, algebras, matrices)
    except ValueError as exc:
        raise ModelError([f"$.algebra_maps: {exc}"])
    return Model(name, loc, strcat, pi, A, _fibered={"normal": fibered})


def parse_model(path) -> Model:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # undecodable bytes, nesting too deep, integers too long
            raise ModelError([f"$: invalid JSON ({exc})"])
    return model_from_dict(data)
