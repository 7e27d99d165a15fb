"""Sanity net for the public API.

Every package is its docstring: it binds no public name except its
submodules, so importing one loads nothing it does not run, and each
name is imported from the module that defines it.  The one exception is
:mod:`repro.obs`, which keeps an ``__all__`` of its instrumentation API.
"""

import importlib
import pkgutil
import types

import pytest

import repro

#: Every package of the distribution, found on disk.
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_all_resolves(package):
    """The package imports and has a docstring; every public name it
    binds is a submodule, or, in :mod:`repro.obs`, a name its
    ``__all__`` lists and that resolves."""
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} has no module docstring"
    exported = module.__all__ if package == "repro.obs" else []
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"
    bound = sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and name not in exported
    )
    assert not bound, f"{package} binds {bound}"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted_unique(package):
    """Only :mod:`repro.obs` declares ``__all__``, sorted and without
    duplicates."""
    module = importlib.import_module(package)
    if package != "repro.obs":
        assert not hasattr(module, "__all__"), f"{package} declares __all__"
        return
    assert module.__all__ == sorted(set(module.__all__))


def test_readme_quickstart_runs():
    """The README's quickstart block, executed verbatim."""
    from repro.models.library import four_phase_master, four_phase_slave
    from repro.stg.stg import compose, hide_signals
    from repro.synth.implementation import synthesize
    from repro.verify.receptiveness import check_receptiveness

    master, slave = four_phase_master(), four_phase_slave()
    report = check_receptiveness(master, slave)
    assert report.is_receptive()
    system = compose(master, slave)
    observable = hide_signals(system, {"a"})
    assert observable.signals() == {"r"}
    assert synthesize(slave).netlist() == "a = r"


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"
