import os
from pathlib import Path

import pytest

from buildctl.complexes import suspension
from buildctl.corpus import (gen_a2_window, gen_octahedron, gen_rank2_building)
from buildctl.recognizer import check_spherical, recognize_dim1

# The CLI tests start `python -m buildctl.cli` in subprocesses; give them the
# source tree that pytest's `pythonpath` setting gives this process.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def heawood():
    return gen_rank2_building("projective_plane")


@pytest.fixture(scope="session")
def k33():
    return gen_rank2_building("complete_bipartite", s=3, t=3)


@pytest.fixture(scope="session")
def tutte_coxeter():
    return gen_rank2_building("generalized_quadrangle")


@pytest.fixture(scope="session")
def octahedron():
    return gen_octahedron()


@pytest.fixture(scope="session")
def s0_heawood(heawood):
    return suspension(heawood)


@pytest.fixture(scope="session")
def heawood_cert(heawood):
    return recognize_dim1(heawood)


@pytest.fixture(scope="session")
def octahedron_cert(octahedron):
    return check_spherical(octahedron)


@pytest.fixture(scope="session")
def s0_heawood_cert(s0_heawood):
    return check_spherical(s0_heawood)


@pytest.fixture(scope="session")
def a2_window():
    return gen_a2_window(3)
