import intervalgames


def test_every_exported_name_resolves():
    names = intervalgames.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(intervalgames, name)]
    assert missing == []


def test_star_import_is_clean():
    namespace = {}
    exec("from intervalgames import *", namespace)
    assert set(intervalgames.__all__) <= set(namespace)
