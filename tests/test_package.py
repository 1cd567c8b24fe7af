import importlib.util
from pathlib import Path

import anisolayer

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_public_names_resolve_once():
    names = anisolayer.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(anisolayer, name)]
    assert missing == []


def test_benchmark_tracer_finds_every_attribute_it_wraps():
    # the tracer wraps package attributes by name; a renamed one would
    # surface only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = anisolayer.validation.solve_fd
    with tracing.Tracer().installed(anisolayer):
        assert anisolayer.validation.solve_fd is not original
    assert anisolayer.validation.solve_fd is original
