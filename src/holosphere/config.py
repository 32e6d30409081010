"""Job configuration: one JSON document per run.

Complex numbers are [re, im] pairs throughout.  Validation errors carry
JSON-path locations ("$.betas[2]").  `demo_config` emits ready-to-run
sample documents for n = 1, 2, 3.
"""

import json
import sys
from dataclasses import dataclass

from .applications import _as_gamma
from .chain import DEFAULT_EPS_SINGULAR
from .domain import Domain
from .errors import ConfigError, DomainError, ParseError
from .expr import parse_expr
from .reconstruct import MAX_RECONSTRUCT_N, MIN_SAMPLE_NODES


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _get(doc, key, path, default=None, required=False):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    return doc[key]


def _fields(doc, path, known):
    """Require doc to be an object whose fields are all in known."""
    _expect(isinstance(doc, dict), path, "expected an object")
    for key in doc:
        _expect(key in known, f"{path}.{key}",
                f"unknown field (known: {sorted(known)})")


def _as_complex(value, path):
    _expect(
        isinstance(value, (list, tuple)) and len(value) == 2,
        path,
        "complex numbers are [re, im] pairs",
    )
    return complex(*(_as_real(part, path) for part in value))


def _as_int(value, path, minimum=None):
    _expect(isinstance(value, int) and not isinstance(value, bool), path,
            "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, path, f"must be >= {minimum}")
    return value


def _as_real(value, path, positive=False):
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, "expected a number")
    # false for NaN and infinities, and for integers past double range
    _expect(abs(value) <= sys.float_info.max, path, "must be a finite number")
    if positive:
        _expect(value > 0, path, "must be positive")
    return float(value)


# the fields of a domain of each shape besides "shape" and "base_point"
_SHAPE_FIELDS = {"rectangle": ("corners",), "disk": ("center", "radius")}


def _parse_domain(doc, path):
    _expect(isinstance(doc, dict), path, "expected an object")
    shape = _get(doc, "shape", path, required=True)
    _expect(isinstance(shape, str) and shape in _SHAPE_FIELDS, f"{path}.shape",
            f"unknown shape {shape!r}")
    _fields(doc, path, ("shape", "base_point") + _SHAPE_FIELDS[shape])
    base = _as_complex(_get(doc, "base_point", path, required=True),
                       f"{path}.base_point")
    try:
        if shape == "rectangle":
            corners = _get(doc, "corners", path, required=True)
            _expect(isinstance(corners, list) and len(corners) == 2,
                    f"{path}.corners", "need two opposite corners")
            c0 = _as_complex(corners[0], f"{path}.corners[0]")
            c1 = _as_complex(corners[1], f"{path}.corners[1]")
            return Domain.rectangle(c0, c1, base_point=base)
        center = _as_complex(_get(doc, "center", path, required=True),
                             f"{path}.center")
        radius = _as_real(_get(doc, "radius", path, required=True),
                          f"{path}.radius", positive=True)
        return Domain.disk(center, radius, base_point=base)
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_grid(doc, path, minimum=2):
    _fields(doc, path, ("rows", "cols"))
    rows = _as_int(_get(doc, "rows", path, required=True), f"{path}.rows")
    cols = _as_int(_get(doc, "cols", path, required=True), f"{path}.cols")
    _expect(min(rows, cols) >= minimum, path,
            f"grid too small: need at least {minimum}x{minimum}")
    return rows, cols


def _optional_grid(doc, key, path, default, minimum=2):
    """The grid doc[key], or default where the key is absent or null."""
    value = _get(doc, key, path)
    return (default if value is None
            else _parse_grid(value, f"{path}.{key}", minimum))


def _check_expr(text, path, parse=parse_expr):
    _expect(isinstance(text, str) and text.strip(), path,
            "expected a nonempty expression string")
    try:
        parse(text)
    except ParseError as exc:
        raise ConfigError(path, f"bad expression: {exc}") from exc
    return text


@dataclass
class JobConfig:
    n: int
    betas: list
    constants: list
    domain: Domain
    grid: tuple
    eps_singular: float
    fd_step: float
    calabi_order: int
    obj_components: tuple
    formats: list
    perturb: dict
    kaehler: dict
    ruled: dict
    reconstruct: dict


def validate_config(doc):
    """Validate a parsed JSON document into a JobConfig."""
    _expect(isinstance(doc, dict), "$", "config must be a JSON object")
    _fields(doc, "$", ("n", "betas", "integration_constants", "domain", "grid",
                       "eps_singular", "fd_step", "calabi", "output",
                       "perturb", "kaehler", "ruled", "reconstruct"))
    n = _as_int(_get(doc, "n", "$", required=True), "$.n", minimum=1)

    betas = _get(doc, "betas", "$", required=True)
    _expect(isinstance(betas, list), "$.betas", "expected a list of expressions")
    _expect(
        len(betas) == n,
        "$.betas",
        f"betas length {len(betas)} does not match n={n}",
    )
    for i, b in enumerate(betas):
        _check_expr(b, f"$.betas[{i}]")

    raw_constants = _get(doc, "integration_constants", "$")
    if raw_constants is None:
        constants = [[0j] * (2 * r + 1) for r in range(n)]
    else:
        _expect(isinstance(raw_constants, list) and len(raw_constants) == n,
                "$.integration_constants", f"need {n} rows (one per step)")
        constants = []
        for r, row in enumerate(raw_constants):
            path = f"$.integration_constants[{r}]"
            _expect(isinstance(row, list) and len(row) == 2 * r + 1, path,
                    f"step {r} needs {2 * r + 1} constants")
            constants.append(
                [_as_complex(c, f"{path}[{k}]") for k, c in enumerate(row)]
            )

    domain = _parse_domain(_get(doc, "domain", "$", required=True), "$.domain")
    grid = _parse_grid(_get(doc, "grid", "$", required=True), "$.grid")

    eps = _as_real(_get(doc, "eps_singular", "$", DEFAULT_EPS_SINGULAR),
                   "$.eps_singular", positive=True)
    fd_step = _get(doc, "fd_step", "$")
    if fd_step is not None:
        fd_step = _as_real(fd_step, "$.fd_step", positive=True)

    calabi = _get(doc, "calabi", "$", {})
    _fields(calabi, "$.calabi", ("max_order",))
    calabi_order = _as_int(_get(calabi, "max_order", "$.calabi", 2),
                           "$.calabi.max_order")
    _expect(0 <= calabi_order <= 4, "$.calabi.max_order", "must be in [0, 4]")

    output = _get(doc, "output", "$", {})
    _fields(output, "$.output", ("obj_components", "formats"))
    comps = _get(output, "obj_components", "$.output", [1, 2, 3])
    _expect(isinstance(comps, list) and len(comps) == 3,
            "$.output.obj_components", "need exactly three 1-based indices")
    for i, c in enumerate(comps):
        _as_int(c, f"$.output.obj_components[{i}]", minimum=1)
        _expect(c <= 2 * n + 1, f"$.output.obj_components[{i}]",
                f"component out of range (dim {2 * n + 1})")
    formats = _get(output, "formats", "$.output", ["obj", "csv"])
    _expect(isinstance(formats, list), "$.output.formats", "expected a list")
    for i, f in enumerate(formats):
        _expect(f in ("obj", "csv", "ply"), f"$.output.formats[{i}]",
                "supported formats: obj, csv, ply")

    perturb = _get(doc, "perturb", "$")
    if perturb is not None:
        _fields(perturb, "$.perturb", ("target", "magnitude"))
        target = _get(perturb, "target", "$.perturb", "F2")
        _expect(
            isinstance(target, str) and target.startswith("F")
            and target[1:].isdigit() and 2 <= int(target[1:]) <= n + 1,
            "$.perturb.target", f"target must be F2..F{n + 1}: the fault nudges "
            "the target toward F1, so F1 itself would only be rescaled",
        )
        _as_real(_get(perturb, "magnitude", "$.perturb", 1e-3),
                 "$.perturb.magnitude", positive=True)

    kaehler = _get(doc, "kaehler", "$")
    if kaehler is not None:
        path = "$.kaehler"
        _fields(kaehler, path, ("gamma", "w", "w_box", "w_samples", "z_grid"))
        _expect(n >= 2, path, "the hypersurface map requires n >= 2")
        _check_expr(_get(kaehler, "gamma", path, required=True),
                    f"{path}.gamma", parse=_as_gamma)
        w = _get(kaehler, "w", path, required=True)
        _expect(isinstance(w, list) and len(w) == n - 1, f"{path}.w",
                f"need n-1 = {n - 1} complex parameters")
        kaehler = dict(kaehler)
        kaehler["w"] = [_as_complex(c, f"{path}.w[{k}]") for k, c in enumerate(w)]
        box = _get(kaehler, "w_box", path, [-0.1, 0.1])
        _expect(isinstance(box, list) and len(box) == 2, f"{path}.w_box",
                "expected [min, max]")
        kaehler["w_box"] = tuple(
            _as_real(v, f"{path}.w_box[{k}]") for k, v in enumerate(box)
        )
        kaehler["w_samples"] = _as_int(_get(kaehler, "w_samples", path, 3),
                                       f"{path}.w_samples", minimum=1)
        kaehler["z_grid"] = _optional_grid(kaehler, "z_grid", path, (5, 5))

    ruled = _get(doc, "ruled", "$")
    if ruled is not None:
        path = "$.ruled"
        _fields(ruled, path, ("w", "probe_points"))
        _expect(n >= 3, path, "the ruled map requires n >= 3")
        w = _get(ruled, "w", path, required=True)
        _expect(isinstance(w, list) and len(w) == n - 2, f"{path}.w",
                f"need n-2 = {n - 2} complex parameters")
        ruled = dict(ruled)
        ruled["w"] = [_as_complex(c, f"{path}.w[{k}]") for k, c in enumerate(w)]
        ruled["probe_points"] = _as_int(_get(ruled, "probe_points", path, 5),
                                        f"{path}.probe_points", minimum=0)

    reconstruct = _get(doc, "reconstruct", "$")
    if reconstruct is not None or n <= MAX_RECONSTRUCT_N:
        path = "$.reconstruct"
        reconstruct = {} if reconstruct is None else reconstruct
        _fields(reconstruct, path, ("sample_grid", "eval_grid", "gauge"))
        _expect(n <= MAX_RECONSTRUCT_N, path,
                f"unsupported n for reconstruction: {n} (max {MAX_RECONSTRUCT_N})")
        reconstruct = dict(reconstruct)
        for key, default, minimum in (("sample_grid", (33, 33), MIN_SAMPLE_NODES),
                                      ("eval_grid", (8, 8), 2)):
            reconstruct[key] = _optional_grid(reconstruct, key, path, default, minimum)
        gauge = _get(reconstruct, "gauge", path)
        if gauge is not None:
            _check_expr(gauge, f"{path}.gauge")
        reconstruct["gauge"] = gauge

    return JobConfig(
        n=n,
        betas=list(betas),
        constants=constants,
        domain=domain,
        grid=grid,
        eps_singular=eps,
        fd_step=fd_step,
        calabi_order=calabi_order,
        obj_components=tuple(comps),
        formats=list(formats),
        perturb=perturb,
        kaehler=kaehler,
        ruled=ruled,
        reconstruct=reconstruct,
    )


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError("$", f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file, or text that is not UTF-8
        raise ConfigError("$", f"cannot read config file {path}: {exc}") from exc
    return validate_config(doc)


def demo_config(n):
    """Built-in sample configuration for n = 1, 2, 3."""
    if n not in (1, 2, 3):
        raise ConfigError("$.n", f"demo configs exist for n = 1, 2, 3 (got {n})")
    doc = {
        "n": n,
        "betas": ["1"] * n,
        "integration_constants": [
            [[0.0, 0.0]] * (2 * r + 1) for r in range(n)
        ],
        "domain": {
            "shape": "rectangle",
            "corners": [[-1.0, -1.0], [1.0, 1.0]],
            "base_point": [0.0, 0.0],
        },
        "grid": {"rows": 10, "cols": 10},
        "eps_singular": 1e-12,
        "calabi": {"max_order": 2},
        "output": {"obj_components": [1, 2, 3], "formats": ["obj", "csv"]},
    }
    if n >= 2:
        doc["kaehler"] = {
            "gamma": "1+x^2+y^2",
            "w": [[0.05, 0.02]] * (n - 1),
            "w_box": [-0.1, 0.1],
            "w_samples": 3,
            "z_grid": {"rows": 4, "cols": 4},
        }
    if n >= 3:
        doc["ruled"] = {"w": [[0.07, 0.03]] * (n - 2), "probe_points": 5}
    if n <= MAX_RECONSTRUCT_N:
        sample = {1: 33, 2: 41, 3: 41}[n]
        doc["reconstruct"] = {
            "sample_grid": {"rows": sample, "cols": sample},
            "eval_grid": {"rows": 6, "cols": 6},
        }
    return doc
