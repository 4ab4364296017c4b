"""Versioned JSON scenario files driving the command line.

Fail-closed: the "schema" field must read "blockmf/1" and every field
must be known — typos are errors, not silently ignored knobs. The seed
never defaults to the clock; it comes from the file or the --seed flag.
A scenario is one self-contained document: it names no file except
`flow_csv`, and where artifacts go is the --out flag's alone.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import InvalidConfigurationError, ValidationError
from .graph import (
    CENTRAL,
    CLASS_LABELS,
    PERIPHERAL,
    BlockGraph,
    ProportionTargets,
    build_complete_peripheral,
    build_regular_peripheral,
)
from .rates import (
    RateSpec,
    _check_entries,
    _integer,
    _is_integer,
    _quoted,
    _real,
    queue_spec,
    sis_spec,
    validate_probability,
)

__all__ = ["Scenario", "load_scenario"]

SCHEMA = "blockmf/1"

# The numeric top-level fields, the seed first, then the rest in the
# order `validate` reports them: whether each is an integer, its bound
# (an integer is >= it, a real is finite and > it) and its default
# (None: the field has none). Each n_list entry is read as one number.
_NUMBERS = {
    "seed": (True, 0, None),
    "horizon": (False, 0, None),
    "dt": (False, 0, 0.01),
    "grid": (True, 2, 51),
    "replicas": (True, 1, None),
    "n_list": (True, 2, None),
    "picard_tol": (False, 0, 1e-8),
    "picard_max_iter": (True, 1, 50),
}

_TOP_FIELDS = {"schema", "graph", "rates", "targets", "init", "tagged",
               "flow_csv", *_NUMBERS}


def _reject_unknown(obj, allowed, where):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InvalidConfigurationError(
            f"unknown field(s) in {where}: {_quoted(sorted(unknown))}"
        )


@contextmanager
def _section(where):
    """Report a missing key or a value of the wrong type or form inside a
    scenario section as an InvalidConfigurationError naming the section."""
    try:
        yield
    except ValidationError:
        raise
    except KeyError as exc:
        raise InvalidConfigurationError(f"{where} missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidConfigurationError(f"malformed {where}: {exc}") from None


def _number(name, value):
    """value checked as the numeric field `name` of _NUMBERS says."""
    integer, bound, _ = _NUMBERS[name]
    try:
        value = _integer(value, name) if integer else _real(value, name)
        if name in ("grid", "replicas", "n_list"):  # each sizes arrays
            _check_entries(value, name)
    except ValidationError as exc:
        raise InvalidConfigurationError(str(exc)) from None
    if integer and value < bound:
        raise InvalidConfigurationError(
            f"{name} must be >= {bound}, got {_quoted(value)}")
    if not integer and not bound < value < math.inf:
        raise InvalidConfigurationError(
            f"{name} must be finite and > {bound}, got {value}")
    if name == "seed" and value >= 2 ** 64:
        raise InvalidConfigurationError("seed must fit in 64 bits")
    return value


@dataclass
class Scenario:
    """Parsed scenario; builder methods resolve sections on demand so a
    subcommand only validates what it uses."""

    raw: dict
    base_dir: str

    def number(self, name, default=None):
        """The numeric field `name` of _NUMBERS, checked as its entry says;
        when absent, `default`, else the entry's default."""
        if name in self.raw:
            return _number(name, self.raw[name])
        default = _NUMBERS[name][2] if default is None else default
        if default is None:
            raise InvalidConfigurationError(f"scenario needs {name}")
        return default

    @property
    def n_list(self):
        v = self.raw.get("n_list")
        if v is None:
            raise InvalidConfigurationError("scenario needs n_list")
        if not isinstance(v, list) or not v:
            raise InvalidConfigurationError("n_list must be a nonempty list")
        out = [_number("n_list", n) for n in v]
        if out != sorted(set(out)):
            raise InvalidConfigurationError(
                "n_list must be strictly increasing"
            )
        return out

    @property
    def flow_csv(self):
        v = self.raw.get("flow_csv")
        if v is None:
            return None
        if not isinstance(v, str):
            raise InvalidConfigurationError("flow_csv must be a path string")
        path = os.path.join(self.base_dir, v)
        if not os.path.isfile(path):
            raise InvalidConfigurationError(
                f"flow_csv file not found: {path}")
        return path

    def tagged(self, r: int):
        """Tagged-node requests for the joint-law test; defaults to the
        first central node of block 0 and the first peripheral of block
        1 (block 0 again when r = 1)."""
        v = self.raw.get("tagged")
        if v is None:
            return [(0, CLASS_LABELS[CENTRAL]),
                    (min(1, r - 1), CLASS_LABELS[PERIPHERAL])]
        if not isinstance(v, list) or not v:
            raise InvalidConfigurationError("tagged must be a nonempty list")
        out = []
        for item in v:
            if _is_integer(item):
                out.append(item)
                continue
            if (isinstance(item, list) and len(item) == 2
                    and _is_integer(item[0])
                    and 0 <= item[0] < r and item[1] in CLASS_LABELS):
                out.append((item[0], item[1]))
                continue
            raise InvalidConfigurationError(
                f"tagged entries are node ids or [block, \"c\"|\"p\"] "
                f"with block in 0..{r - 1}: {_quoted(item)}"
            )
        return out

    # --- section builders ----------------------------------------------

    def build_graph(self):
        obj = self.raw.get("graph")
        if obj is None:
            raise InvalidConfigurationError("scenario needs a graph section")
        if not isinstance(obj, dict):
            raise InvalidConfigurationError("graph must be a JSON object")
        with _section("graph"):
            if "complete_blocks" in obj:
                _reject_unknown(obj, {"complete_blocks"}, "graph")
                return build_complete_peripheral(
                    [tuple(b) for b in obj["complete_blocks"]]
                )
            if "regular" in obj:
                _reject_unknown(obj, {"regular"}, "graph")
                inner = obj["regular"]
                _reject_unknown(inner, {"blocks", "fractions"},
                                "graph.regular")
                return build_regular_peripheral(
                    [tuple(b) for b in inner["blocks"]], inner["fractions"]
                )
            return BlockGraph.from_json_obj(obj)

    def build_rates(self):
        obj = self.raw.get("rates")
        if obj is None:
            raise InvalidConfigurationError("scenario needs a rates section")
        if not isinstance(obj, dict):
            raise InvalidConfigurationError("rates must be a JSON object")
        with _section("rates"):
            model = obj.get("model")
            if model == "sis":
                _reject_unknown(obj, {"model", "r", "gamma", "nu", "eta",
                                      "zeta"}, "rates")
                return sis_spec(obj.get("r", 1), obj["gamma"], obj["nu"],
                                obj["eta"], obj["zeta"])
            if model == "queue":
                _reject_unknown(obj, {"model", "colors", "zeta", "vartheta",
                                      "c0"}, "rates")
                return queue_spec(obj["colors"], obj["zeta"],
                                  obj["vartheta"], obj["c0"])
            if model == "tables":
                _reject_unknown(obj, {"model", "spec"}, "rates")
                return RateSpec.from_json_obj(obj["spec"])
        raise InvalidConfigurationError(
            f"unknown rate model {_quoted(model)}; choose sis, queue or "
            "tables"
        )

    def build_targets(self, graph=None):
        obj = self.raw.get("targets")
        if obj == "from_graph" or obj is None:
            if graph is None:
                graph = self.build_graph()
            return ProportionTargets.from_graph(graph)
        if not isinstance(obj, dict):
            raise InvalidConfigurationError(
                "targets must be an object or \"from_graph\""
            )
        with _section("targets"):
            return ProportionTargets.from_json_obj(obj)

    def build_inits(self, r: int, K=None):
        """Initial measures, central then peripheral per block; with K
        given, every row must have K entries."""
        obj = self.raw.get("init")
        if obj is None:
            raise InvalidConfigurationError("scenario needs an init section")
        if not isinstance(obj, dict):
            raise InvalidConfigurationError("init must be a JSON object")
        _reject_unknown(obj, set(CLASS_LABELS), "init")
        with _section("init"):
            rows = {cls: list(obj[cls]) for cls in CLASS_LABELS}
            if any(len(v) != r for v in rows.values()):
                raise InvalidConfigurationError(
                    f"init needs {r} central and {r} peripheral rows"
                )
            out = []
            for j in range(r):
                for cls in CLASS_LABELS:
                    try:
                        out.append(validate_probability(rows[cls][j], K))
                    except ValidationError as exc:
                        raise InvalidConfigurationError(
                            f"init {cls} row {j}: {exc}"
                        ) from None
            return out


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fp:
            raw = json.load(fp)
    except FileNotFoundError:
        raise InvalidConfigurationError(f"scenario file not found: {path}")
    except OSError as exc:
        raise InvalidConfigurationError(f"cannot read scenario: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidConfigurationError(
            f"scenario is not valid JSON: line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}"
        )
    except UnicodeDecodeError:
        raise InvalidConfigurationError("scenario is not UTF-8 text")
    except ValueError:  # an integer of more digits than int() reads
        raise InvalidConfigurationError("scenario has too long an integer")
    except RecursionError:
        raise InvalidConfigurationError("scenario JSON nests too deeply")
    if not isinstance(raw, dict):
        raise InvalidConfigurationError("scenario must be a JSON object")
    if raw.get("schema") != SCHEMA:
        raise InvalidConfigurationError(
            f"scenario schema must be {SCHEMA!r}, got "
            f"{_quoted(raw.get('schema'))}"
        )
    _reject_unknown(raw, _TOP_FIELDS, "scenario")
    return Scenario(raw, os.path.dirname(os.path.abspath(path)))
