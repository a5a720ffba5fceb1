"""The package's public names: every name in `cubalg.__all__` exists, so
`from cubalg import *` works."""

import cubalg


def test_every_name_in_all_resolves():
    assert [name for name in cubalg.__all__ if not hasattr(cubalg, name)] == []
    namespace: dict = {}
    exec("from cubalg import *", namespace)
    assert set(cubalg.__all__) <= namespace.keys()
    assert len(cubalg.__all__) == len(set(cubalg.__all__))
