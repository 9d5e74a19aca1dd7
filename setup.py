"""Package metadata for the conf_podc_BerenbrinkKR19 reproduction.

Kept in ``setup.py`` (rather than ``pyproject.toml``) so that legacy
editable installs (``pip install -e .``) work on machines without the
``wheel`` package, e.g. offline environments.
"""

import os
import re

from setuptools import find_namespace_packages, setup


def _version() -> str:
    """Single-source the version from ``repro.fingerprint``.

    Read textually (not imported): at build time the package may not be
    importable yet, and importing it would hash the source tree.
    """
    path = os.path.join(
        os.path.dirname(__file__), "src", "repro", "fingerprint.py"
    )
    with open(path, "r", encoding="utf-8") as handle:
        match = re.search(r'^PACKAGE_VERSION = "([^"]+)"', handle.read(), re.M)
    if not match:
        raise RuntimeError("PACKAGE_VERSION not found in repro/fingerprint.py")
    return match.group(1)


setup(
    name="repro-berenbrink-kr19",
    version=_version(),
    description=(
        "Reproduction of Berenbrink, Kaaser, Radzik (PODC 2019) population "
        "protocols with a batched configuration-vector simulation backend "
        "(an O(1) agent-pair sampler, a memo of interned-key transitions "
        "that replays their coin flips, and a factorised pair kernel), a "
        "parallel experiment-sweep subsystem, a "
        "dynamic-population chaos-scenario subsystem, a multi-host HTTP "
        "job server whose cells all run "
        "on pull-protocol workers behind a persistent content-addressed "
        "result cache, and end-to-end telemetry (run tracing, "
        "Prometheus-style /metrics, live job event streams)"
    ),
    package_dir={"": "src"},
    packages=find_namespace_packages(where="src"),
    python_requires=">=3.10",  # dataclass(slots=True) throughout
    extras_require={
        "test": ["pytest"],
    },
    entry_points={
        "console_scripts": [
            "repro-sweep=repro.experiments.cli:main",
            "repro-chaos=repro.scenarios.cli:main",
            "repro-serve=repro.server.cli:main",
            "repro-worker=repro.server.worker:main",
        ]
    },
)
