"""Single-file JSON configuration: field, code, decoding, topology, errors.

Sections materialize into the domain objects of the other modules; any
invalid value surfaces as :class:`ConfigError` so the command layer can
map it to a stable exit code. Elements in configuration are base-p digit
strings (low-order digit first) or powers of gamma like ``"g^3"``.
"""

import functools
import json
from dataclasses import dataclass

from .codes import (DEFAULT_CODEBOOK_BUDGET, GabidulinSpec, KKSpec, MVSpec,
                    build_codebook)
from .decoders import TIER1_MODES, DecodeOptions
from .errors import ConfigError
from .fields import FieldContext, parse_element
from .sim import DETECT_ONLY, STRATEGIES, ErrorModel, Topology
from .union import DEFAULT_UNION_BUDGET, build_union


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


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing {key!r} in {where}")
    return section[key]


def _typed(section: dict, key: str, name: str, default, types: tuple, what: str):
    """The value at `key`, or `default`, when its JSON type is one of
    `types`; ConfigError naming `name` otherwise. A bool is not a number
    here unless `types` holds bool."""
    value = section.get(key, default)
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


# JSON true or false; integer; integer or null; number, integer or not
_flag = functools.partial(_typed, types=(bool,), what="true or false")
_int = functools.partial(_typed, types=(int,), what="an integer")
_optional_int = functools.partial(_typed, default=None, types=(int, type(None)),
                                  what="an integer or null")
_number = functools.partial(_typed, types=(int, float), what="a number")


@dataclass
class RunConfig:
    raw: dict

    def _section(self, key: str, required: bool = False) -> dict:
        value = self.raw.get(key, {})
        if required and key not in self.raw:
            raise ConfigError(f"missing config section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        return value

    @property
    def name(self) -> str:
        return str(self.raw.get("name", "unnamed"))

    @property
    def seed(self) -> int:
        return _int(self.raw, "seed", "seed", 0)

    @property
    def union_budget(self) -> int:
        return self._budget("union", DEFAULT_UNION_BUDGET)

    @property
    def codebook_budget(self) -> int:
        return self._budget("codebook", DEFAULT_CODEBOOK_BUDGET)

    def _budget(self, key: str, default: int) -> int:
        value = _int(self._section("budgets"), key, f"budgets.{key}", default)
        if value < 1:
            raise ConfigError(f"budgets.{key} must be at least 1, got {value}")
        return value

    def echo(self) -> dict:
        return self.raw

    # -- materialization -------------------------------------------------

    def build_field(self) -> FieldContext:
        section = self._section("field", required=True)
        try:
            return FieldContext(int(_require(section, "p", "field")),
                                int(_require(section, "n", "field")),
                                section.get("modulus"),
                                basis=section.get("basis"))
        except ValueError as exc:
            raise ConfigError(f"field: {exc}") from exc

    def build_spec(self, ctx: FieldContext):
        section = self._section("code", required=True)
        kind = _require(section, "kind", "code")
        try:
            if kind == "gabidulin":
                gens = [parse_element(ctx, s) for s in _require(section, "generators", "code")]
                return GabidulinSpec(field=ctx, n=int(_require(section, "n", "code")),
                                     k=int(_require(section, "k", "code")), generators=gens)
            if kind == "kk":
                alphas = [parse_element(ctx, s) for s in _require(section, "alphas", "code")]
                return KKSpec(field=ctx, l=int(_require(section, "l", "code")),
                              k=int(_require(section, "k", "code")), alphas=alphas)
            if kind == "mv":
                alphas = [parse_element(ctx, s) for s in _require(section, "alphas", "code")]
                return MVSpec(field=ctx, m=int(_require(section, "m", "code")),
                              l=int(_require(section, "l", "code")),
                              big_l=int(_require(section, "L", "code")),
                              k=int(_require(section, "k", "code")), alphas=alphas,
                              layout_name=section.get("layout", "uncompressed"))
        except ValueError as exc:
            raise ConfigError(f"code: {exc}") from exc
        raise ConfigError(f"unknown code kind {kind!r}")

    def build_all(self):
        """(field, spec, codebook, union) with budgets applied."""
        ctx = self.build_field()
        spec = self.build_spec(ctx)
        codebook = build_codebook(spec, self.codebook_budget)
        return ctx, spec, codebook, build_union(codebook, self.union_budget)

    def decode_options(self) -> DecodeOptions:
        tier1 = self._section("tier1")
        tier2 = self._section("tier2")
        try:
            return DecodeOptions(
                tier1_enabled=_flag(tier1, "enabled", "tier1.enabled", True),
                mode=tier1.get("mode", "correct-or-erase"),
                radius=_optional_int(tier1, "radius", "tier1.radius"),
                metric=tier2.get("metric", "injection"),
                list_radius=_optional_int(tier2, "list_radius", "tier2.list_radius"),
                feedback=_flag(self.raw, "feedback", "feedback", False),
                allow_radius_override=_flag(tier1, "allow_radius_override",
                                            "tier1.allow_radius_override", False))
        except ValueError as exc:
            raise ConfigError(f"decoding options: {exc}") from exc

    def topology(self) -> Topology:
        section = self._section("topology", required=True)
        nodes = _require(section, "nodes", "topology")
        edges = _require(section, "edges", "topology")
        if not isinstance(nodes, dict):
            raise ConfigError("topology.nodes must map node names to roles")
        try:
            return Topology(nodes=tuple(nodes.items()),
                            edges=tuple((e[0], e[1]) for e in edges))
        except (ValueError, IndexError, TypeError) as exc:
            raise ConfigError(f"topology: {exc}") from exc

    def error_model(self) -> ErrorModel:
        section = self._section("errors")
        try:
            return ErrorModel(
                bit_flip_prob=_number(section, "bit_flip_prob", "errors.bit_flip_prob", 0.0),
                fixed_flips=_optional_int(section, "fixed_flips", "errors.fixed_flips"),
                corrupt_packet_prob=_number(section, "corrupt_packet_prob",
                                            "errors.corrupt_packet_prob", 0.0),
                injected_packets=_int(section, "injected_packets", "errors.injected_packets", 0),
                injection_node=_typed(section, "injection_node", "errors.injection_node", None,
                                      (str, type(None)), "a node name or null"))
        except ValueError as exc:
            raise ConfigError(f"errors: {exc}") from exc

    def sim_params(self) -> dict:
        section = self._section("sim")
        strategies = section.get("strategies", STRATEGIES)
        if not isinstance(strategies, (list, tuple)):
            raise ConfigError(f"sim: strategies must be a list of strategy names, "
                              f"got {strategies!r}")
        strategies = tuple(strategies)
        unknown = [s for s in strategies if s not in STRATEGIES]
        if unknown:
            raise ConfigError(f"sim: unknown strategies {unknown}")
        trials = _int(section, "trials", "sim.trials", 100)
        if trials < 1:
            raise ConfigError("sim: trials must be at least 1")
        mode = _typed(section, "node_filter_mode", "sim.node_filter_mode", DETECT_ONLY, (str,),
                      "a string")
        if mode not in TIER1_MODES:
            raise ConfigError(f"sim.node_filter_mode: unknown tier-1 mode {mode!r}, "
                              f"not one of {', '.join(TIER1_MODES)}")
        return {
            "trials": trials,
            "strategies": strategies,
            "node_filter_mode": mode,
            "retry_full_rank": _flag(section, "retry_full_rank", "sim.retry_full_rank", False),
        }

    def message_digits(self):
        text = self.raw.get("message")
        if text is None:
            return None
        return parse_digits(text)


def parse_digits(text) -> tuple:
    if isinstance(text, list):
        if not all(type(d) is int for d in text):     # JSON integers, so no bool
            raise ConfigError(f"message must list integers, got {text!r}")
        return tuple(text)
    s = str(text).strip()
    if not s or not all(ch.isdigit() for ch in s):
        raise ConfigError(f"cannot parse digit string {text!r}")
    return tuple(int(ch) for ch in s)
