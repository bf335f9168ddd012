"""The benchmark's layer tracer (bench/spans.py) wraps module-level names of
the package by attribute lookup; every name it lists must keep resolving."""

import importlib.util
import pathlib

import muntzspec
import muntzspec.cli  # noqa: F401  (the tracer wraps cli names too)

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    spans = load_spans()
    originals = {
        (module, attr): getattr(getattr(muntzspec, module), attr)
        for module, attr, _, _ in spans.WRAPPED
    }
    tracer = spans.Tracer(muntzspec)
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(getattr(muntzspec, module), attr) is not original
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(getattr(muntzspec, module), attr) is original
