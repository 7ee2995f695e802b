"""The package's public names."""

import collections

import qlam


def test_all_names_resolve_once():
    counts = collections.Counter(qlam.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in qlam.__all__ if not hasattr(qlam, name)] == []
