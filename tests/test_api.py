"""The package's public names."""

import collections
import importlib
import pkgutil

import qlam


def test_all_names_resolve_once():
    counts = collections.Counter(qlam.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in qlam.__all__ if not hasattr(qlam, name)] == []


def test_removed_names_resolve_from_no_module():
    modules = [qlam] + [importlib.import_module(f"qlam.{info.name}")
                        for info in pkgutil.iter_modules(qlam.__path__)]
    removed = ("PauliString", "pool_table", "shot_stream", "sample_term_mean", "FoldPlan", "make_folds",
               "readout_features", "AnsatzConfig")
    assert [(m.__name__, name) for m in modules for name in removed if hasattr(m, name)] == []
