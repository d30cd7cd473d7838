"""Single-file JSON configuration: field, code, decoding, topology, errors.

A config is checked whole against :data:`SCHEMA` when it is made, then
materializes into the domain objects of the other modules, which check
the ranges; any invalid value surfaces as :class:`ConfigError` so the
command layer can map it to a stable exit code. Elements in configuration
are strings of n ASCII digits (low-order digit first), powers of gamma
like ``"g^3"``, or lists of n JSON integers (``fields.parse_element``).
"""

import json
import string
from dataclasses import dataclass

from .codes import (DEFAULT_CODEBOOK_BUDGET, GabidulinSpec, KKSpec, MVSpec,
                    build_codebook)
from .decoders import METRICS, TIER1_MODES, DecodeOptions
from .errors import ConfigError, OptionError
from .fields import FieldContext, parse_element
from .sim import DEFAULTS, ErrorModel, Topology
from .union import DEFAULT_UNION_BUDGET, build_union


NULL = type(None)
BOOLEAN, INTEGER, STRING, LIST = "true or false", "an integer", "a string", "a list"
# a JSON type, as an error names it -> the Python types json.load reads it as
TYPES = {BOOLEAN: (bool,), INTEGER: (int,), "an integer or null": (int, NULL),
         "a number": (int, float), STRING: (str,), "a node name or null": (str, NULL),
         "a digit string or a list of integers": (str, list), LIST: (list,),
         "a list or null": (list, NULL), "an object": (dict,)}
REQUIRED = object()     # no default: a section that is present must hold the key
KEYWORD = object()      # passed on only when present, so its constructor's default holds

# section -> key -> (JSON type, default); "" is the top level, whose other
# keys are the sections, each a JSON object, of which every command needs
# field and code. A code section holds the keys of its kind.
SCHEMA = {
    "": {"name": (STRING, "unnamed"), "notes": (STRING, None), "seed": (INTEGER, 0),
         "feedback": (BOOLEAN, KEYWORD), "message": ("a digit string or a list of integers", None)},
    "field": {"p": (INTEGER, REQUIRED), "n": (INTEGER, REQUIRED),
              "modulus": ("a list or null", KEYWORD), "basis": ("a list or null", KEYWORD)},
    "code": {
        "gabidulin": {"kind": (STRING, REQUIRED), "n": (INTEGER, REQUIRED),
                      "k": (INTEGER, REQUIRED), "generators": (LIST, REQUIRED)},
        "kk": {"kind": (STRING, REQUIRED), "l": (INTEGER, REQUIRED), "k": (INTEGER, REQUIRED),
               "alphas": (LIST, REQUIRED)},
        "mv": {"kind": (STRING, REQUIRED), "m": (INTEGER, REQUIRED), "l": (INTEGER, REQUIRED),
               "L": (INTEGER, REQUIRED), "k": (INTEGER, REQUIRED), "alphas": (LIST, REQUIRED),
               "layout": (STRING, KEYWORD)},
    },
    "tier1": {"enabled": (BOOLEAN, KEYWORD), "mode": (STRING, KEYWORD),
              "radius": ("an integer or null", KEYWORD),
              "allow_radius_override": (BOOLEAN, KEYWORD)},
    "tier2": {"metric": (STRING, KEYWORD), "list_radius": ("an integer or null", KEYWORD)},
    "budgets": {"codebook": (INTEGER, DEFAULT_CODEBOOK_BUDGET),
                "union": (INTEGER, DEFAULT_UNION_BUDGET)},
    "topology": {"nodes": ("an object", REQUIRED), "edges": (LIST, REQUIRED)},
    "errors": {"bit_flip_prob": ("a number", KEYWORD), "corrupt_packet_prob": ("a number", KEYWORD),
               "fixed_flips": ("an integer or null", KEYWORD),
               "injected_packets": (INTEGER, KEYWORD),
               "injection_node": ("a node name or null", KEYWORD)},
    "sim": {"trials": (INTEGER, 100), "strategies": (LIST, DEFAULTS["strategies"]),
            "node_filter_mode": (STRING, DEFAULTS["node_filter_mode"]),
            "retry_full_rank": (BOOLEAN, DEFAULTS["retry_full_rank"])},
}
_TOP = SCHEMA[""] | {section: ("an object", REQUIRED if section in ("field", "code") else None)
                     for section in SCHEMA if section}
# a spec field -> its config key under code, where the two differ
_SPEC_KEYS = {"big_l": "L", "layout_name": "layout"}
# a DecodeOptions field -> its config key, and the values it takes where they are few
_OPTION_KEYS = {"mode": ("tier1.mode", TIER1_MODES), "radius": ("tier1.radius", ()),
                "metric": ("tier2.metric", METRICS), "list_radius": ("tier2.list_radius", ()),
                "feedback": ("feedback", ())}


def load_config(path) -> "RunConfig":
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return RunConfig(raw=raw)


def _check(values: dict, table: dict, where: str):
    """ConfigError naming the first key of `values` that `table` lacks or
    whose value is not of its JSON type, or a key it requires and lacks."""
    for key, value in values.items():
        if key not in table:
            raise ConfigError(f"unknown config key {where}{key}")
        what = table[key][0]
        types = TYPES[what]
        # a bool is a Python int, but not a JSON integer or number
        if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
            raise ConfigError(f"{where}{key} must be {what}, got {value!r}")
    for key, (_, default) in table.items():
        if default is REQUIRED and key not in values:
            raise ConfigError(f"missing {where}{key}")


@dataclass
class RunConfig:
    raw: dict

    def __post_init__(self):
        """One verdict per config: every section present is checked against
        SCHEMA, whichever of them a command reads."""
        _check(self.raw, _TOP, "")
        for section, values in self.raw.items():
            if section in SCHEMA:       # a section: "" is not a key of _TOP
                table = SCHEMA[section]
                if section == "code":   # the keys of its kind
                    kind = values.get("kind")
                    if not (isinstance(kind, str) and kind in table):
                        raise ConfigError(f"code.kind must be one of {', '.join(table)}, "
                                          f"got {kind!r}")
                    table = table[kind]
                _check(values, table, f"{section}.")

    def _value(self, section: str, key: str):
        """The value at section.key, or its default in SCHEMA."""
        values = self.raw.get(section, {}) if section else self.raw
        return values.get(key, SCHEMA[section][key][1])

    @property
    def name(self) -> str:
        return self._value("", "name")

    @property
    def seed(self) -> int:
        return self._value("", "seed")

    @property
    def union_budget(self) -> int:
        return self._budget("union")

    @property
    def codebook_budget(self) -> int:
        return self._budget("codebook")

    def _budget(self, key: str) -> int:
        value = self._value("budgets", key)
        if value < 1:
            raise ConfigError(f"budgets.{key} must be at least 1, got {value}")
        return value

    def echo(self) -> dict:
        return self.raw

    # -- materialization -------------------------------------------------

    def build_field(self) -> FieldContext:
        try:
            return FieldContext(**self.raw["field"])
        except OptionError as exc:
            raise ConfigError(f"field.{exc.field}: {exc}") from exc

    def build_spec(self, ctx: FieldContext):
        code = self.raw["code"]
        try:
            if code["kind"] == "gabidulin":
                return GabidulinSpec(field=ctx, n=code["n"], k=code["k"],
                                     generators=_elements(ctx, code, "generators"))
            alphas = _elements(ctx, code, "alphas")
            if code["kind"] == "kk":
                return KKSpec(field=ctx, l=code["l"], k=code["k"], alphas=alphas)
            layout = {"layout_name": code["layout"]} if "layout" in code else {}
            return MVSpec(field=ctx, m=code["m"], l=code["l"], big_l=code["L"], k=code["k"],
                          alphas=alphas, **layout)
        except OptionError as exc:
            raise ConfigError(f"code.{_SPEC_KEYS.get(exc.field, exc.field)}: {exc}") from exc

    def build_all(self):
        """(field, spec, codebook, union) with budgets applied."""
        ctx = self.build_field()
        spec = self.build_spec(ctx)
        codebook = build_codebook(spec, self.codebook_budget)
        return ctx, spec, codebook, build_union(codebook, self.union_budget)

    def decode_options(self) -> DecodeOptions:
        options = {"tier1_enabled" if key == "enabled" else key: value
                   for key, value in self.raw.get("tier1", {}).items()}
        options.update(self.raw.get("tier2", {}))
        if "feedback" in self.raw:
            options["feedback"] = self.raw["feedback"]
        try:
            return DecodeOptions(**options)
        except OptionError as exc:
            key, choices = _OPTION_KEYS[exc.field]
            raise ConfigError(f"{key}: {exc}" + (f", not one of {', '.join(choices)}"
                                                 if choices else "")) from exc

    def topology(self) -> Topology:
        if "topology" not in self.raw:
            raise ConfigError("missing config section 'topology'")
        section = self.raw["topology"]
        for edge in section["edges"]:
            if not (isinstance(edge, list) and len(edge) == 2 and
                    all(isinstance(node, str) for node in edge)):
                raise ConfigError(f"topology.edges must list [from, to] pairs of node names, "
                                  f"got {edge!r}")
        try:
            return Topology(nodes=tuple(section["nodes"].items()),
                            edges=tuple(map(tuple, section["edges"])))
        except ValueError as exc:
            raise ConfigError(f"topology: {exc}") from exc

    def error_model(self) -> ErrorModel:
        try:
            return ErrorModel(**self.raw.get("errors", {}))
        except ValueError as exc:
            raise ConfigError(f"errors: {exc}") from exc

    def sim_params(self) -> dict:
        params = {key: self._value("sim", key) for key in SCHEMA["sim"]}
        mode = params["node_filter_mode"]
        if mode not in TIER1_MODES:
            raise ConfigError(f"sim.node_filter_mode: unknown tier-1 mode {mode!r}, "
                              f"not one of {', '.join(TIER1_MODES)}")
        return params


def _elements(ctx: FieldContext, code: dict, key: str) -> list:
    """The field elements listed at code.`key`; ConfigError naming the key
    and the entry on one that ``parse_element`` refuses."""
    elements = []
    for i, entry in enumerate(code[key]):
        try:
            elements.append(parse_element(ctx, entry))
        except ValueError as exc:
            raise ConfigError(f"code.{key}[{i}]: {exc}") from exc
    return elements


def parse_digits(text) -> tuple:
    """Digits from a list of JSON integers or a string of decimal digits."""
    if isinstance(text, list):
        if not all(type(d) is int for d in text):     # JSON integers, so no bool
            raise ConfigError(f"message must list integers, got {text!r}")
        return tuple(text)
    s = text.strip()
    if not s or not set(s) <= set(string.digits):
        raise ConfigError(f"cannot parse digit string {text!r}")
    return tuple(map(string.digits.index, s))
