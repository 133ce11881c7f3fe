import siqrng


def test_every_exported_name_resolves():
    # a stale __all__ entry fails only when a user star-imports the package
    assert len(set(siqrng.__all__)) == len(siqrng.__all__)
    missing = [name for name in siqrng.__all__ if not hasattr(siqrng, name)]
    assert missing == []
    namespace = {}
    exec("from siqrng import *", namespace)
    assert set(siqrng.__all__) <= namespace.keys()
