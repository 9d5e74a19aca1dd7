"""Tests for the import graph: a run loads only the modules it executes.

The package ``__init__`` files import none of their submodules; their public
names load on first use through one ``_EXPORTS`` table each
(:mod:`repro.lazy`).  A fresh interpreter on the benchmark's setup path
(the two imports, ``resolve_protocol``, ``build``, ``convergence`` and one
simulated interaction) must leave the service, the sweep runner, the scenario
subsystem and ``multiprocessing`` unloaded, and a ``repro-worker`` that has
leased nothing must have imported no kind's code; the in-process checks
guard each table against typos.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.engine

SRC = Path(repro.engine.__file__).resolve().parents[2]

PACKAGES = (
    "repro.engine",
    "repro.obs",
    "repro.experiments",
    "repro.primitives",
    "repro.scenarios",
    "repro.server",
)

#: Modules the run path never executes, so it must not import them.
NOT_ON_RUN_PATH = (
    "repro.server",
    "repro.scenarios",
    "repro.experiments.artifacts",
    "repro.experiments.runner",
    "repro.experiments.aggregate",
    "repro.experiments.builtin",
    "repro.obs.profile",
    "multiprocessing",
)


def run_fresh(code: str) -> None:
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


@pytest.mark.parametrize(
    "protocol, absent",
    [
        ("count-exact", NOT_ON_RUN_PATH),
        ("backup-exact", NOT_ON_RUN_PATH + ("repro.counting.keys",)),
    ],
    ids=["count-exact", "backup-exact"],
)
def test_run_path_imports_only_what_it_executes(protocol, absent):
    run_fresh(
        "import sys\n"
        "from repro.engine.simulator import simulate\n"
        "from repro.experiments.registry import resolve_protocol\n"
        f"entry = resolve_protocol({protocol!r})\n"
        "simulate(entry.build(32, {}), 32, seed=1, backend='batch',"
        " convergence=entry.convergence(32, {}), max_interactions=1)\n"
        f"loaded = [name for name in {absent!r} if name in sys.modules]\n"
        "assert not loaded, f'the run path imported {loaded}'\n"
    )


def test_worker_boot_imports_no_kind_code():
    # The worker resolves a kind's executor (repro.kinds) on its first
    # lease of that kind, so booting it loads no simulator.
    run_fresh(
        "import sys\n"
        "import repro.server.worker\n"
        "loaded = [name for name in sys.modules if name.startswith("
        "('repro.scenarios', 'repro.counting', 'repro.experiments.runner'))]\n"
        "assert not loaded, f'the worker imported {loaded}'\n"
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_resolve_to_their_submodules(package):
    module = importlib.import_module(package)
    table = module._EXPORTS
    owners = {name: sub for sub, names in table.items() for name in names}
    assert sorted(owners) == sorted(module.__all__)
    assert sum(len(names) for names in table.values()) == len(owners)
    for name in module.__all__:
        submodule = importlib.import_module(f"{package}.{owners[name]}")
        assert getattr(module, name) is getattr(submodule, name), name

    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)

    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_packages_import_no_submodules_and_submodules_import_through_them():
    # A fresh interpreter: importing a package loads none of its table's
    # submodules, and ``from package import submodule`` still falls back to
    # importing the submodule when the package's __getattr__ refuses it.
    run_fresh(
        "import importlib, sys\n"
        f"packages = [importlib.import_module(p) for p in {PACKAGES!r}]\n"
        "subs = [f'{m.__name__}.{s}' for m in packages for s in m._EXPORTS]\n"
        "early = [name for name in subs if name in sys.modules]\n"
        "assert not early, f'importing the packages loaded {early}'\n"
        "for name in subs:\n"
        "    package, sub = name.rsplit('.', 1)\n"
        "    imported = getattr(__import__(package, fromlist=[sub]), sub)\n"
        "    assert imported is sys.modules[name], name\n"
    )
