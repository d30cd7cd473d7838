"""Command line entry point.

Exit codes are a stable contract: 0 success, 1 a normative lemma check
failed, 2 configuration error, 3 enumeration budget exceeded.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

from . import __version__
from .codes import build_codebook, codebook_csv_rows, encode
from .config import RunConfig, load_config, parse_digits
from .decoders import two_tier_decode
from .errors import BudgetError, ConfigError
from .sim import CodeSetup, run_experiment
from .union import component_min_distances, owners, verify_lemmas

EXIT_OK = 0
EXIT_LEMMA_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_BUDGET_EXCEEDED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotier",
        description="Union-code toolkit: encode, decode, verify, and simulate "
                    "subspace and rank metric codes for network coding.")
    parser.add_argument("--version", action="version", version=f"twotier {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    def formatted(p):
        common(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify-lemmas", help="check the distance/cardinality claims by enumeration")
    formatted(p)
    p.add_argument("--dump-union", default=None, metavar="PATH",
                   help="also write the union vectors with provenance as CSV")
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("encode", help="encode one message into packet rows")
    formatted(p)
    p.add_argument("--message", default=None, help="message digits, lowest coefficient first")
    p.add_argument("--all", action="store_true",
                   help="export the whole codebook as CSV instead of one message")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="two-tier decode a file of packets")
    common(p)
    p.add_argument("--packets", required=True, help="file with one packet digit string per line")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="run the seeded network-coding experiment")
    formatted(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze-distances", help="distance table for components and union")
    formatted(p)
    p.set_defaults(func=cmd_analyze_distances)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.raw["seed"] = args.seed
    return cfg


def _write(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------- commands

def cmd_verify_lemmas(args) -> int:
    cfg = _load(args)
    _, spec, _, uni = cfg.build_all()
    checks = verify_lemmas(spec, uni)
    if args.dump_union:
        rows = [("".join(str(d) for d in v), ";".join(str(i) for i in sorted(owned)))
                for v, owned in sorted(owners(uni).items())]
        with open(args.dump_union, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv(rows, ("vector", "components")))
    all_passed = all(c.passed for c in checks if c.normative)
    report = {
        "version": __version__,
        "config": cfg.echo(),
        "layout": spec.layout.name,
        "union": {
            "cardinality": uni.cardinality,
            "ambient_len": uni.ambient_len,
            "min_distance": uni.min_distance(),
        },
        "checks": [asdict(c) for c in checks],
        "all_passed": all_passed,
    }
    if args.format == "csv":
        rows = [(c.lemma, c.claimed, c.measured, c.passed, c.normative) for c in checks]
        _write(args, _csv(rows, ("lemma", "claimed", "measured", "passed", "normative")))
    else:
        _write(args, _json(report))
    return EXIT_OK if all_passed else EXIT_LEMMA_FAILURE


def cmd_encode(args) -> int:
    cfg = _load(args)
    ctx = cfg.build_field()
    spec = cfg.build_spec(ctx)
    if args.all:
        codebook = build_codebook(spec, cfg.codebook_budget)
        _write(args, _csv(codebook_csv_rows(codebook), ("message", "row", "packet")))
        return EXIT_OK
    digits = parse_digits(args.message) if args.message is not None else cfg.message_digits()
    if digits is None:
        raise ConfigError("no message given (use --message or a 'message' config entry)")
    if len(digits) != spec.message_length:
        raise ConfigError(f"message needs {spec.message_length} digits, got {len(digits)}")
    try:
        cw = encode(spec, digits)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = ["".join(str(d) for d in row) for row in cw.rows]
    if args.format == "csv":
        _write(args, _csv(codebook_csv_rows([cw]), ("message", "row", "packet")))
    else:
        _write(args, _json({
            "version": __version__,
            "config": cfg.echo(),
            "kind": cw.kind,
            "layout": spec.layout.name,
            "message": "".join(str(d) for d in digits),
            "rows": rows,
        }))
    return EXIT_OK


def _read_packets(path, ambient_len: int, p: int):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read packets file {path}: {exc}") from exc
    packets = [parse_digits(line) for line in lines if line]
    if not packets:
        raise ConfigError(f"packets file {path} contains no packets")
    for pkt in packets:
        if len(pkt) != ambient_len:
            raise ConfigError(f"packet length {len(pkt)} does not match ambient {ambient_len}")
        if max(pkt) >= p:
            raise ConfigError(f"packet {''.join(map(str, pkt))} has a digit outside [0, {p})")
    return packets


def cmd_decode(args) -> int:
    cfg = _load(args)
    _, spec, codebook, uni = cfg.build_all()
    packets = _read_packets(args.packets, uni.ambient_len, uni.p)
    outcome = two_tier_decode(packets, uni, codebook, cfg.decode_options())
    chosen = outcome.result.chosen
    report = {
        "version": __version__,
        "config": cfg.echo(),
        "layout": spec.layout.name,
        "verdicts": [asdict(v) for v in outcome.verdicts],
        "chosen": chosen,
        "chosen_message": (None if chosen is None
                           else "".join(str(d) for d in codebook[chosen].message)),
        "metric_value": outcome.result.metric_value,
        "tie": outcome.result.tie,
        "list": None if outcome.result.list is None else list(outcome.result.list),
        "audit": outcome.audit,
    }
    _write(args, _json(report))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    _, spec, codebook, uni = cfg.build_all()
    setup = CodeSetup(codebook=codebook, union=uni, options=cfg.decode_options())
    params = cfg.sim_params()
    report = run_experiment(
        cfg.topology(), setup, cfg.error_model(), params["trials"], cfg.seed,
        params["strategies"], node_filter_mode=params["node_filter_mode"],
        retry_full_rank=params["retry_full_rank"], config_echo=cfg.echo())
    report["version"] = __version__
    report["layout"] = spec.layout.name
    if args.format == "csv":
        rows = []
        for name, stats in report["strategies"].items():
            rows.append((name, stats["trials"], stats["successes"],
                         stats["tier1_verdicts"]["valid"], stats["tier1_verdicts"]["corrected"],
                         stats["tier1_verdicts"]["erased"], stats["tier1_verdicts"]["rejected"],
                         stats["mean_tier2_metric"], stats["filtered_drops"]))
        _write(args, _csv(rows, ("strategy", "trials", "successes", "valid", "corrected",
                                 "erased", "rejected", "mean_tier2_metric", "filtered_drops")))
    else:
        _write(args, _json(report))
    return EXIT_OK


def cmd_analyze_distances(args) -> int:
    cfg = _load(args)
    _, spec, codebook, uni = cfg.build_all()
    name = cfg.name
    comp_dists = component_min_distances(uni)
    rows = [(name, "union", uni.min_distance(), uni.cardinality)]
    for index, dist in comp_dists:
        rows.append((name, str(index), "inf" if dist == float("inf") else dist,
                     uni.p ** int(codebook.ranks[index])))
    if args.format == "csv":
        _write(args, _csv(rows, ("code-id", "component-id", "distance", "cardinality")))
    else:
        _write(args, _json({
            "version": __version__,
            "config": cfg.echo(),
            "layout": spec.layout.name,
            "table": [{"code_id": r[0], "component_id": r[1],
                       "distance": (r[2] if isinstance(r[2], int) else "inf"),
                       "cardinality": r[3]} for r in rows],
        }))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
