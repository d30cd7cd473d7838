"""The benchmark's tracer against the package it patches.

``perfbench/spans.py`` wraps package functions and methods named by string.
Installing its tracer here makes removing or renaming any patched name fail
this suite, not only a traced benchmark run. The file is loaded, not
imported from a package, and left as it is.
"""

import importlib.util
import sys
from pathlib import Path

import twotier  # noqa: F401  (imports every module the tracer patches but config)
from twotier import config, decoders

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched(spans):
    """(table name, the attribute as it is now) for every listed name."""
    for name, where, attr in spans.SPANS + spans.COUNTED + spans.TIMED:
        module_name, _, class_name = where.partition(":")
        owner = sys.modules[module_name]
        if class_name:
            yield name, getattr(owner, class_name).__dict__[attr]
        else:
            yield name, getattr(owner, attr)


def test_tracer_installs_on_the_package_and_puts_it_back():
    spans = load_spans()
    before = list(patched(spans))
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (name, original), (_, now) in zip(before, patched(spans)):
            assert now is not original and now.__wrapped__ is original, name
        config.load_config(ROOT / "configs" / "mv1.json").build_all()
    finally:
        tracer.close()
    assert list(patched(spans)) == before
    assert {"config.load", "codes.build_codebook", "union.build"} <= {s[0] for s in tracer.spans}


def test_tier2_spans_record_the_codebook_size():
    """The tracer records ``len(args[1])`` on every ``decoders.tier2`` span,
    so each tier-2 entry point must take the codebook as its second
    positional argument: KK decodes with and without a list, and a
    Gabidulin decode, under the installed tracer."""
    spans = load_spans()
    requests = []
    for name, options in (("kk_example", None), ("kk_example", decoders.DecodeOptions(list_radius=1)),
                          ("gabidulin_gf8", None)):
        cfg = config.load_config(ROOT / "configs" / f"{name}.json")
        _, _, codebook, union = cfg.build_all()
        rows = [tuple(r) for r in codebook[1].rows]
        requests.append((rows, union, codebook, options or cfg.decode_options()))
    tracer = spans.Tracer()
    try:
        tracer.install()
        for request in requests:
            decoders.two_tier_decode(*request)
    finally:
        tracer.close()
    tier2 = [rec[spans.ATTR] for rec in tracer.spans if rec[spans.NAME] == "decoders.tier2"]
    assert tier2 == [len(codebook) for _, _, codebook, _ in requests] == [8, 8, 8]
