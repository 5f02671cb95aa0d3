import mveq
from mveq import generate, io, linear_mv, mvh, quadratic, scenario, stoch, tree

MODULES = (tree, scenario, stoch, mvh, quadratic, linear_mv, generate, io)


def test_public_namespace():
    # the package exports exactly the modules' public names, once each
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union)
    assert sorted(mveq.__all__) == sorted(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mveq, name) is getattr(module, name)
    assert not [name for name in mveq.__all__ if name.startswith("_")]
    for gone in ("GainsOperator", "construct_regular", "construct_degenerate",
                 "NonexistenceError"):
        assert gone not in mveq.__all__
