import inspect

import onticsim
from onticsim import cone, dynamics, geometry, harness, icosa, ndim

MODULES = (geometry, cone, icosa, ndim, dynamics, harness)


def test_package_all_is_the_module_lists():
    expected = [name for module in MODULES for name in module.__all__]
    assert onticsim.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(onticsim, name) is obj, name
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, name
