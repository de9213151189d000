"""Parsing and validation of JSON model files into typed model bundles."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import fincat
from .finalg import QftFunctor, validate_algebra, validate_qft
from .fincat import CatFunctor, FinCategory, LocStructure, build_fibered_model
from .qlinalg import QMatrix, _rationals


class ModelError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class Model:
    name: str
    description: str
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


def _category_from_dict(data, path):
    try:
        morphisms = [
            (m["name"], m["source"], m["target"]) for m in data["morphisms"]
        ]
        compose = {(g, f): h for g, f, h in data["compose"]}
        cat = FinCategory(data["objects"], morphisms, data["identity"], compose)
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


def model_from_dict(data: dict) -> Model:
    if not isinstance(data, dict):
        raise ModelError(["$: model file must be a JSON object"])
    if isinstance(data.get("format"), bool) or data.get("format") != 1:
        raise ModelError(["$.format: expected 1"])
    meta = _section(data, "metadata")
    name = meta.get("name", "unnamed")
    description = meta.get("description", "")

    locdata = _section(data, "loc")
    base = _category_from_dict(locdata, "$.loc")
    strcat = _category_from_dict(_section(data, "str"), "$.str")

    loc = _validated("$.loc", fincat.validate_loc_structure, base,
                     locdata.get("causal_cospans", []), locdata.get("cauchy", []))

    proj = _section(data, "projection")
    pi = _validated("$.projection", fincat.validate_functor, strcat, base,
                    proj.get("objects", {}), proj.get("morphisms", {}))
    # whether cartesian lifts exist does not depend on the order they are
    # picked in, so one cleavage validates the projection
    try:
        fibered = build_fibered_model(pi)
    except fincat.FiberedModelError as exc:
        raise ModelError([f"$.projection: {exc}"])

    algebra_specs = _section(data, "algebras")
    map_specs = _section(data, "algebra_maps")
    errors = []
    algebras = {}
    for S in strcat.objects:
        spec = algebra_specs.get(S)
        if spec is None:
            errors.append(f"$.algebras.{S}: missing")
            continue
        try:
            algebras[S] = validate_algebra(
                spec["dim"], spec["structure_constants"], spec["unit"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"$.algebras.{S}: {exc}")
    matrices = {}
    for g in strcat.morphisms:
        spec = map_specs.get(g)
        if spec is None:
            errors.append(f"$.algebra_maps.{g}: missing")
            continue
        try:
            matrices[g] = QMatrix.from_rows(_rationals(spec, 2, "matrix"))
        except (TypeError, ValueError) as exc:
            errors.append(f"$.algebra_maps.{g}: {exc}")
    if errors:
        raise ModelError(errors)
    try:
        A = validate_qft(strcat, algebras, matrices)
    except ValueError as exc:
        raise ModelError([f"$.algebra_maps: {exc}"])
    return Model(name, description, loc, strcat, pi, A,
                 _fibered={"normal": fibered})


def parse_model(path) -> Model:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # undecodable bytes, nesting too deep, integers too long
            raise ModelError([f"$: invalid JSON ({exc})"])
    return model_from_dict(data)
