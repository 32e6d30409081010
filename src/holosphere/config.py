"""Job configuration: one JSON document per run.

Complex numbers are [re, im] pairs throughout.  Validation errors carry
JSON-path locations ("$.betas[2]").  `demo_config` emits ready-to-run
sample documents for n = 1, 2, 3.
"""

import json
from dataclasses import dataclass, field

from .chain import DEFAULT_EPS_SINGULAR
from .domain import Domain
from .errors import ConfigError, DomainError, ParseError
from .expr import parse_expr
from .geometry import DEFAULT_TOLERANCES

DEFAULT_MIN_REGULAR_FRACTION = 0.95

RECONSTRUCT_TOLERANCES = {1: 1e-3, 2: 1e-2, 3: 1e-2}


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _get(doc, key, path, default=None, required=False):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    return doc[key]


def _as_complex(value, path):
    _expect(
        isinstance(value, (list, tuple)) and len(value) == 2,
        path,
        "complex numbers are [re, im] pairs",
    )
    re, im = value
    _expect(
        isinstance(re, (int, float)) and isinstance(im, (int, float)),
        path,
        "complex components must be numbers",
    )
    return complex(re, im)


def _as_int(value, path, minimum=None):
    _expect(isinstance(value, int) and not isinstance(value, bool), path,
            "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, path, f"must be >= {minimum}")
    return value


def _as_real(value, path, positive=False):
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, "expected a number")
    if positive:
        _expect(value > 0, path, "must be positive")
    return float(value)


def _parse_domain(doc, path):
    shape = _get(doc, "shape", path, required=True)
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
        if shape == "disk":
            center = _as_complex(_get(doc, "center", path, required=True),
                                 f"{path}.center")
            radius = _as_real(_get(doc, "radius", path, required=True),
                              f"{path}.radius", positive=True)
            return Domain.disk(center, radius, base_point=base)
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.shape", f"unknown shape {shape!r}")


def _parse_grid(doc, path):
    rows = _as_int(_get(doc, "rows", path, required=True), f"{path}.rows")
    cols = _as_int(_get(doc, "cols", path, required=True), f"{path}.cols")
    _expect(rows >= 2 and cols >= 2, path, "grid too small: need at least 2x2")
    return rows, cols


def _check_expr(text, path, variables=("z",)):
    _expect(isinstance(text, str) and text.strip(), path,
            "expected a nonempty expression string")
    try:
        parse_expr(text, variables=variables)
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
    tolerances: dict
    calabi_order: int
    obj_components: tuple
    formats: list
    perturb: dict
    kaehler: dict
    ruled: dict
    reconstruct: dict
    raw: dict = field(repr=False, default=None)


def validate_config(doc):
    """Validate a parsed JSON document into a JobConfig."""
    _expect(isinstance(doc, dict), "$", "config must be a JSON object")
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

    tolerances = dict(DEFAULT_TOLERANCES)
    user_tols = _get(doc, "tolerances", "$", {})
    _expect(isinstance(user_tols, dict), "$.tolerances", "expected an object")
    for fam, val in user_tols.items():
        _expect(fam in DEFAULT_TOLERANCES, f"$.tolerances.{fam}",
                f"unknown invariant family (known: {sorted(DEFAULT_TOLERANCES)})")
        tolerances[fam] = _as_real(val, f"$.tolerances.{fam}", positive=True)

    calabi = _get(doc, "calabi", "$", {})
    calabi_order = _as_int(_get(calabi, "max_order", "$.calabi", 2),
                           "$.calabi.max_order")
    _expect(0 <= calabi_order <= 4, "$.calabi.max_order", "must be in [0, 4]")

    output = _get(doc, "output", "$", {})
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
        _expect(isinstance(perturb, dict), "$.perturb", "expected an object")
        target = _get(perturb, "target", "$.perturb", "F2")
        _expect(
            isinstance(target, str) and target.startswith("F")
            and target[1:].isdigit() and 1 <= int(target[1:]) <= n + 1,
            "$.perturb.target", f"target must be F1..F{n + 1}",
        )
        _as_real(_get(perturb, "magnitude", "$.perturb", 1e-3),
                 "$.perturb.magnitude", positive=True)

    kaehler = _get(doc, "kaehler", "$")
    if kaehler is not None:
        path = "$.kaehler"
        _expect(isinstance(kaehler, dict), path, "expected an object")
        _expect(n >= 2, path, "the hypersurface map requires n >= 2")
        _check_expr(_get(kaehler, "gamma", path, required=True),
                    f"{path}.gamma", variables=("x", "y"))
        w = _get(kaehler, "w", path, required=True)
        _expect(isinstance(w, list) and len(w) == n - 1, f"{path}.w",
                f"need n-1 = {n - 1} complex parameters")
        kaehler = dict(kaehler)
        kaehler["w"] = [_as_complex(c, f"{path}.w[{k}]") for k, c in enumerate(w)]
        box = _get(kaehler, "w_box", path, [-0.1, 0.1])
        _expect(isinstance(box, list) and len(box) == 2, f"{path}.w_box",
                "expected [min, max]")
        kaehler["w_box"] = (float(box[0]), float(box[1]))
        kaehler["w_samples"] = _as_int(_get(kaehler, "w_samples", path, 3),
                                       f"{path}.w_samples", minimum=1)
        zg = _get(kaehler, "z_grid", path)
        kaehler["z_grid"] = _parse_grid(zg, f"{path}.z_grid") if zg else (5, 5)
        kaehler["min_regular_fraction"] = _as_real(
            _get(kaehler, "min_regular_fraction", path,
                 DEFAULT_MIN_REGULAR_FRACTION),
            f"{path}.min_regular_fraction",
        )

    ruled = _get(doc, "ruled", "$")
    if ruled is not None:
        path = "$.ruled"
        _expect(isinstance(ruled, dict), path, "expected an object")
        _expect(n >= 3, path, "the ruled map requires n >= 3")
        w = _get(ruled, "w", path, required=True)
        _expect(isinstance(w, list) and len(w) == n - 2, f"{path}.w",
                f"need n-2 = {n - 2} complex parameters")
        ruled = dict(ruled)
        ruled["w"] = [_as_complex(c, f"{path}.w[{k}]") for k, c in enumerate(w)]
        ruled["probe_points"] = _as_int(_get(ruled, "probe_points", path, 5),
                                        f"{path}.probe_points", minimum=0)

    reconstruct = _get(doc, "reconstruct", "$")
    if reconstruct is not None:
        path = "$.reconstruct"
        _expect(isinstance(reconstruct, dict), path, "expected an object")
        _expect(n <= 3, path, f"unsupported n for reconstruction: {n} (max 3)")
        reconstruct = dict(reconstruct)
        sg = _get(reconstruct, "sample_grid", path)
        reconstruct["sample_grid"] = (
            _parse_grid(sg, f"{path}.sample_grid") if sg else (33, 33)
        )
        eg = _get(reconstruct, "eval_grid", path)
        reconstruct["eval_grid"] = (
            _parse_grid(eg, f"{path}.eval_grid") if eg else (8, 8)
        )
        gauge = _get(reconstruct, "gauge", path)
        if gauge is not None:
            _check_expr(gauge, f"{path}.gauge")
        reconstruct["gauge"] = gauge
        reconstruct["tolerance"] = _as_real(
            _get(reconstruct, "tolerance", path, RECONSTRUCT_TOLERANCES[n]),
            f"{path}.tolerance", positive=True,
        )
        reconstruct["refusal_threshold"] = _as_real(
            _get(reconstruct, "refusal_threshold", path, 1e-2),
            f"{path}.refusal_threshold", positive=True,
        )

    return JobConfig(
        n=n,
        betas=list(betas),
        constants=constants,
        domain=domain,
        grid=grid,
        eps_singular=eps,
        fd_step=fd_step,
        tolerances=tolerances,
        calabi_order=calabi_order,
        obj_components=tuple(comps),
        formats=list(formats),
        perturb=perturb,
        kaehler=kaehler,
        ruled=ruled,
        reconstruct=reconstruct,
        raw=doc,
    )


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError("$", f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
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
    if n <= 3:
        sample = {1: 33, 2: 41, 3: 33}[n]
        doc["reconstruct"] = {
            "sample_grid": {"rows": sample, "cols": sample},
            "eval_grid": {"rows": 6, "cols": 6},
        }
    return doc
