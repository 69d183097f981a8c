"""The package's export list."""

import demix


def test_all_names_are_exported_once():
    assert len(demix.__all__) == len(set(demix.__all__))
    assert [name for name in demix.__all__ if not hasattr(demix, name)] == []
