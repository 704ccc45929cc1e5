"""The public API: `envylab.__all__` is the complete, sorted export list."""

import inspect

import envylab


def test_all_lists_every_public_name_once_in_order():
    assert all(hasattr(envylab, name) for name in envylab.__all__)
    assert envylab.__all__ == sorted(set(envylab.__all__))
    public = {name for name, value in vars(envylab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(envylab.__all__)
