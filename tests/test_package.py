"""The package namespace."""

import sympdet


def test_all_names_resolve_once():
    assert len(sympdet.__all__) == len(set(sympdet.__all__))
    missing = [name for name in sympdet.__all__ if not hasattr(sympdet, name)]
    assert missing == []
