"""Scene files: versioned JSON descriptions of a spacetime + time function +
grid discretization.  Parsing is strict (unknown keys rejected) and scenes
round-trip exactly through emit -> parse."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .errors import SceneError
from .grid import GridParams, StencilSpec
from .spacetime import Spacetime, builtin
from .timefn import TimeFunction, affine_time, coordinate_time, cubed_time

SCHEMA_VERSION = 1

_SPACETIME_KEYS = {"name", "params"}
_TIME_KINDS = {"coordinate", "cubed", "affine"}


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise SceneError(f"unknown keys {sorted(unknown)} in {where}")


def _positive_int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise SceneError(f"{where} must be a positive integer, got {x!r}")
    return x


def _number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise SceneError(f"{where} must be a finite number, got {x!r}")
    return float(x)


def _check_spacetime(spec, where: str):
    """{name, params}, dim left to scene.dim; conformal needs base and factor."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise SceneError(f"{where} must be an object with a 'name'")
    _check_keys(spec, _SPACETIME_KEYS, where)
    params = spec.get("params", {})
    need = {"base", "factor"} if spec["name"] == "conformal" else set()
    if not isinstance(params, dict) or "dim" in params or not need <= set(params):
        raise SceneError(f"{where}.params must be an object with {sorted(need)}, without 'dim'")
    for key in ("slope", "offset"):
        if key in params:
            _number(params[key], f"{where}.params.{key}")
    if "factor" in params and _number(params["factor"], f"{where}.params.factor") <= 0:
        raise SceneError(f"{where}.params.factor must be positive, got {params['factor']!r}")
    if isinstance(params.get("base"), dict):
        _check_spacetime(params["base"], f"{where}.params.base")
    elif "base" in params and not isinstance(params["base"], str):
        raise SceneError(f"{where}.params.base must be a spacetime name or object, "
                         f"got {params['base']!r}")


def _build_spacetime(spec: dict, dim: int) -> Spacetime:
    params = dict(spec.get("params", {}))
    if isinstance(params.get("base"), dict):  # a conformal base, itself a spec
        params["base"] = _build_spacetime(params["base"], dim)
    return builtin(spec["name"], dim=dim, **params)


@dataclass(frozen=True)
class Scene:
    dim: int
    spacetime_spec: dict
    time_spec: dict
    grid_spec: Optional[dict] = None

    # -- parsing ------------------------------------------------------------

    @staticmethod
    def from_dict(data: dict) -> "Scene":
        if not isinstance(data, dict):
            raise SceneError("scene must be a JSON object")
        _check_keys(data, {"schema", "dim", "spacetime", "time", "grid"}, "scene")
        if data.get("schema") != SCHEMA_VERSION:
            raise SceneError(f"unsupported schema {data.get('schema')!r}; expected {SCHEMA_VERSION}")
        if "dim" not in data or "spacetime" not in data:
            raise SceneError("scene requires 'dim' and 'spacetime'")
        dim = _positive_int(data["dim"], "scene.dim")
        _check_spacetime(data["spacetime"], "scene.spacetime")
        st = dict(data["spacetime"])
        st.setdefault("params", {})
        time_spec = dict(data.get("time", {"kind": "coordinate"}))
        _check_keys(time_spec, {"kind", "scale", "offset"}, "scene.time")
        kind = time_spec.get("kind", "coordinate")
        if kind not in _TIME_KINDS:
            raise SceneError(f"unknown time kind {kind!r}")
        if kind != "affine" and {"scale", "offset"} & set(time_spec):
            raise SceneError(f"scene.time scale and offset need kind 'affine', not {kind!r}")
        if "offset" in time_spec:
            _number(time_spec["offset"], "scene.time.offset")
        if "scale" in time_spec and _number(time_spec["scale"], "scene.time.scale") <= 0:
            raise SceneError(f"scene.time.scale must be positive, got {time_spec['scale']!r}")
        grid_spec = data.get("grid")
        if grid_spec is not None:
            grid_spec = dict(grid_spec)
            _check_keys(grid_spec, {"box", "h", "stencil_radius", "include_null_exact"},
                        "scene.grid")
            if "box" not in grid_spec or "h" not in grid_spec:
                raise SceneError("scene.grid requires 'box' and 'h'")
            box = grid_spec["box"]
            if (not isinstance(box, (list, tuple)) or len(box) != dim
                    or any(not isinstance(b, (list, tuple)) or len(b) != 2 for b in box)):
                raise SceneError("scene.grid.box must hold one [lo, hi] pair per dimension")
            for lo, hi in box:
                if _number(lo, "scene.grid.box") > _number(hi, "scene.grid.box"):
                    raise SceneError(f"scene.grid.box pair [{lo!r}, {hi!r}] has lo > hi")
            if _number(grid_spec["h"], "scene.grid.h") <= 0:
                raise SceneError(f"scene.grid.h must be positive, got {grid_spec['h']!r}")
            _positive_int(grid_spec.get("stencil_radius", 2), "scene.grid.stencil_radius")
        return Scene(dim=dim, spacetime_spec=st, time_spec=time_spec, grid_spec=grid_spec)

    @staticmethod
    def from_json(text: str) -> "Scene":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SceneError(
                f"scene JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        return Scene.from_dict(data)

    @staticmethod
    def from_file(path: str) -> "Scene":
        with open(path, "r", encoding="utf-8") as fh:
            return Scene.from_json(fh.read())

    # -- emission -------------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "dim": self.dim,
            "spacetime": {"name": self.spacetime_spec["name"],
                          "params": dict(self.spacetime_spec.get("params", {}))},
            "time": dict(self.time_spec),
        }
        if self.grid_spec is not None:
            out["grid"] = dict(self.grid_spec)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    # -- realization ----------------------------------------------------------

    def spacetime(self) -> Spacetime:
        return _build_spacetime(self.spacetime_spec, self.dim)

    def time_function(self, st: Optional[Spacetime] = None) -> TimeFunction:
        st = st if st is not None else self.spacetime()
        kind = self.time_spec.get("kind", "coordinate")
        if kind == "coordinate":
            return coordinate_time(st)
        if kind == "cubed":
            return cubed_time(st)
        return affine_time(st, scale=float(self.time_spec.get("scale", 1.0)),
                           offset=float(self.time_spec.get("offset", 0.0)))

    def grid_params(self, h: Optional[float] = None,
                    stencil_radius: Optional[int] = None) -> GridParams:
        if self.grid_spec is None:
            raise SceneError("scene has no grid section")
        radius = stencil_radius if stencil_radius is not None else int(
            self.grid_spec.get("stencil_radius", 2))
        stencil = StencilSpec(radius=radius,
                              include_null_exact=bool(self.grid_spec.get("include_null_exact", True)))
        return GridParams(box=tuple(tuple(b) for b in self.grid_spec["box"]),
                          h=float(h if h is not None else self.grid_spec["h"]),
                          stencil=stencil)
