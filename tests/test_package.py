"""The package's lazy exports (PEP 562): every public name resolves to its
defining module's object, on first access and on every access after."""

import importlib

import pytest

import stairwalk


def test_each_export_is_its_defining_modules_object():
    listed = [name for names in stairwalk._EXPORTS.values() for name in names]
    assert sorted(listed) == stairwalk.__all__  # no name is listed twice
    for module, names in stairwalk._EXPORTS.items():
        defining = importlib.import_module(f"stairwalk.{module}")
        for name in names:
            obj = getattr(stairwalk, name)
            assert obj is getattr(defining, name), name
            # a class or function is exported from the module that defines it
            assert getattr(obj, "__module__", defining.__name__) == defining.__name__, name


def test_dir_lists_every_export():
    assert set(stairwalk.__all__) <= set(dir(stairwalk))
    assert "__version__" in dir(stairwalk)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_export"):
        stairwalk.no_such_export  # noqa: B018
    assert not hasattr(stairwalk, "no_such_export")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from stairwalk import *", namespace)
    for name in stairwalk.__all__:
        assert namespace[name] is getattr(stairwalk, name), name


def test_a_name_rebound_on_its_module_is_seen_through_the_package(monkeypatch):
    from stairwalk import simulator

    def stand_in(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(simulator, "run_experiment", stand_in)
    assert stairwalk.run_experiment is stand_in
