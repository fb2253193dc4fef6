"""The benchmark's per-layer tracer (``perfbench/tracing.py``) wraps library
functions by name and reads hit counts off the cached ones.  These tests load
that file as it is and check that every name it lists still resolves, so a
refactor that moves or renames a traced function fails here first."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for layer, attrs in _tracing().TARGETS.items():
        module = importlib.import_module(f"grakit.{layer}")
        for attr in attrs:
            if "." in attr:  # the tracer patches a method found in the class's own dict
                cls_name, meth = attr.split(".")
                assert callable(vars(getattr(module, cls_name)).get(meth)), (layer, attr)
            else:
                assert callable(getattr(module, attr, None)), (layer, attr)


def test_cached_names_have_cache_info():
    for layer, names in _tracing().CACHES.values():
        module = importlib.import_module(f"grakit.{layer}")
        for name in names:
            assert callable(getattr(getattr(module, name), "cache_info", None)), (layer, name)


def test_traced_cobar_walk():
    # the benchmark counts nested sets off the traced enumeration, so the
    # cobar build must still go through enumerate_nested and cobar_complex
    import grakit.groebner as groebner
    from grakit import family

    tracer = _tracing().Tracer()
    tracer.install()
    try:
        hom = groebner.koszul_check(family("path", 3))
    finally:
        tracer.uninstall()
    assert hom == {0: 1, 1: 0, 2: 0}
    metrics = tracer.metrics()
    assert metrics["tubings.enumerate_nested.calls"] == 1
    assert metrics["tubings.enumerate_nested.sets"] == 11  # the faces of a pentagon
    assert metrics["groebner.cobar_complex.calls"] == 1
    # the ranks of the certificate land in a traced name
    assert metrics["exactla.homology_dims.calls"] == 1


def test_traced_listings():
    # the faces workload counts nested sets off the traced walk, so the CLI
    # listings must stream through enumerate_nested and maximal_nested
    import contextlib
    import io

    from grakit import family, f_vector
    from grakit.cli import main

    f = f_vector(family("path", 4))
    for argv, walk, sets in ((["nested", "--augmented"], "enumerate_nested", sum(f)),
                             (["maximal"], "maximal_nested", f[0])):
        tracer = _tracing().Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--graph", "path:4"])
        finally:
            tracer.uninstall()
        assert code == 0
        metrics = tracer.metrics()
        assert metrics[f"tubings.{walk}.calls"] == 1, argv
        assert metrics[f"tubings.{walk}.sets"] == sets, argv
