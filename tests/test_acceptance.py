"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracles
from buildctl.angles import Angle
from buildctl.complexes import MetricComplex, suspension, validate, vertex_link
from buildctl.corpus import (GENERATORS, gen_a2_window, gen_k4, gen_octahedron,
                             gen_petersen, gen_rank2_building)
from buildctl.coxeter import (cosine_form, coxeter_complex, named_matrix)
from buildctl.decompose import join_decompose, suspension_factor
from buildctl.geodesics import ApartmentSurface, propagate_apartment
from buildctl.metric_graph import GraphPoint, MetricGraph
from buildctl.recognizer import (BuildingCertificate, Diagnosis,
                                 check_euclidean, check_spherical,
                                 enumerate_apartments_dim1, recognize_dim1)

import numpy as np


@contextmanager
def criterion(n: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:2d} FAIL  {desc}")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {n:2d} PASS  {desc}  [{dt:.2f}s]")


def test_criterion_1_heawood():
    with criterion(1, "Heawood(pi/3): thick, m=3, diam pi, systole 2pi, 28 apartments"):
        hea = gen_rank2_building("projective_plane")
        g = MetricGraph.from_complex(hea)
        t0 = time.perf_counter()
        cert = recognize_dim1(hea)
        diam, _ = g.diameter()
        sys_, _ = g.systole()
        runtime = time.perf_counter() - t0
        assert isinstance(cert, BuildingCertificate)
        assert cert.verdict == "thick_building"
        assert cert.m == 3
        assert diam == Fraction(1)                      # exactly pi
        assert sys_ == Fraction(2)                      # exactly 2*pi
        apartments = oracles.dim1_apartments(cert)
        assert len(apartments) == 28
        assert cert.apartments_exhaustive
        # independent exhaustive 6-cycle enumerator
        assert oracles.count_cycles_of_length(14, list(g.edges), 6) == 28
        # Def 1.1 axiom (2) for every edge pair
        by_edge = {e: set() for e in range(len(g.edges))}
        for ai, a in enumerate(apartments):
            for e in a.edges:
                by_edge[e].add(ai)
        for e, f in itertools.combinations(range(len(g.edges)), 2):
            assert by_edge[e] & by_edge[f]
        assert runtime < 2.0


def test_criterion_2_k33():
    with criterion(2, "K33(pi/2): thick, m=2, two 3-point factors, 9 apartments"):
        k33 = gen_rank2_building("complete_bipartite", s=3, t=3)
        t0 = time.perf_counter()
        cert = recognize_dim1(k33)
        factors = join_decompose(k33, cert)      # reassembly verified inside
        runtime = time.perf_counter() - t0
        assert cert.verdict == "thick_building" and cert.m == 2
        assert len(oracles.dim1_apartments(cert)) == 9
        assert sorted(len(f.complex.vertices) for f in factors) == [3, 3]
        assert all(f.complex.dimension == 0 for f in factors)
        assert runtime < 1.0


def test_criterion_3_tutte_coxeter():
    with criterion(3, "Tutte-Coxeter(pi/4): thick, m=4, systole 2pi, diam pi"):
        tc = gen_rank2_building("generalized_quadrangle")
        g = MetricGraph.from_complex(tc)
        t0 = time.perf_counter()
        cert = recognize_dim1(g)
        diam, _ = g.diameter()
        sys_, _ = g.systole()
        runtime = time.perf_counter() - t0
        assert cert.verdict == "thick_building" and cert.m == 4
        assert sys_ == Fraction(2) and diam == Fraction(1)
        assert cert.apartments_exhaustive
        assert len(oracles.dim1_apartments(cert)) == \
            oracles.count_cycles_of_length(30, list(g.edges), 8)
        assert runtime < 5.0


def test_criterion_4_suspension_arm():
    with criterion(4, "two-vertex triple-pi-edge graph: suspension, |Y| = 3"):
        g = MetricGraph(["N", "S"], [(0, 1, Fraction(1))] * 3)
        cert = recognize_dim1(g)
        assert cert.verdict == "suspension"
        assert cert.base_size == 3


def test_criterion_5_negative_controls():
    with criterion(5, "negative controls each trigger exactly their arm"):
        res = recognize_dim1(gen_petersen())
        assert isinstance(res, Diagnosis) and res.condition == "systole"
        assert len(res.witness["cycle"]) == 5
        assert abs(res.witness["length_pi_units"] * math.pi - 5 * math.pi / 3) <= 1e-9
        # K4(2pi/3): the diameter arm fires; its witnessed value is the true
        # diameter 4pi/3 (cross-checked by the sampling oracle; the value is
        # necessarily greater than pi, see the decisions ledger)
        res = recognize_dim1(gen_k4())
        assert isinstance(res, Diagnosis) and res.condition == "diameter"
        k4g = MetricGraph.from_complex(gen_k4())
        oracle = oracles.sampling_diameter(
            4, [(u, v, float(ln)) for u, v, ln in k4g.edges])
        assert abs(res.witness["diameter_pi_units"] - oracle) * math.pi <= 1e-6
        assert res.witness["diameter_pi_units"] == pytest.approx(4 / 3)
        res = check_spherical(GENERATORS["punctured-octahedron"]())
        assert isinstance(res, Diagnosis) and res.condition == "codim1_cell_count"
        res = check_spherical(GENERATORS["short-lune"]())
        assert isinstance(res, Diagnosis) and res.condition == "link_failure"
        res = check_euclidean(GENERATORS["perturbed-a2-window"](), "window")
        assert isinstance(res, Diagnosis) and res.condition == "link_failure"


def test_criterion_6_octahedron():
    with criterion(6, "octahedron(pi/2): thin, three S0 factors, 1 apartment"):
        oct_ = gen_octahedron()
        cert = check_spherical(oct_)
        assert cert.verdict == "thin_building"
        assert len(cert.apartments) == 1
        assert cert.thickness == 2
        factors = join_decompose(oct_, cert)
        assert len(factors) == 3
        assert all(len(f.complex.vertices) == 2 for f in factors)
        ok, _ = oracles.discrete_extension_check(oct_)
        assert ok


def test_criterion_7_suspended_heawood():
    with criterion(7, "S0*Heawood: 28 propagated spheres, Euler 2, 2pi links"):
        hea = gen_rank2_building("projective_plane")
        sh = suspension(hea)
        t0 = time.perf_counter()
        cert = check_spherical(sh)
        assert isinstance(cert, BuildingCertificate)
        assert cert.dimension == 2
        hex_cert = recognize_dim1(hea)
        surfaces = set()
        from buildctl.complexes import _vertex_angle
        for apt in oracles.dim1_apartments(hex_cert):
            cyc = [hea.vertices[v] for v in apt.vertices]
            ap = propagate_apartment(sh, "N", cyc, y="S")
            assert isinstance(ap, ApartmentSurface)
            assert ap.euler == 2
            # all internal vertex links are circles of total angle 2*pi
            angle = {}
            edge_count = {}
            for cell in ap.cells:
                for v in cell:
                    x, y = [w for w in cell if w != v]
                    angle[v] = angle.get(v, Fraction(0)) + \
                        _vertex_angle(sh, v, x, y).pi_units
                for e in itertools.combinations(cell, 2):
                    edge_count[e] = edge_count.get(e, 0) + 1
            assert set(edge_count.values()) == {2}
            for v, s in angle.items():
                assert abs(float(s) * math.pi - 2 * math.pi) <= 1e-9
            surfaces.add(ap.cells)
        runtime = time.perf_counter() - t0
        assert len(surfaces) == 28
        assert len(cert.apartments) == 28
        assert runtime < 30.0


def test_criterion_8_coxeter_engine():
    with criterion(8, "Coxeter engine: A2 spherical, ~A2 euclidean, A3 thin 24"):
        from buildctl.coxeter import classify
        a2 = named_matrix("A2")
        cls = classify(a2)
        assert cls.verdict == "spherical"
        eig = np.linalg.eigvalsh(cosine_form(a2))
        assert abs(eig[0] - 0.5) <= 1e-9 and abs(eig[1] - 1.5) <= 1e-9
        a2t = named_matrix("~A2")
        assert classify(a2t).verdict == "euclidean"
        assert abs(np.linalg.det(cosine_form(a2t))) <= 1e-9
        model = coxeter_complex(named_matrix("A3"))
        assert len(model.complex.top_cells) == 24
        cert = check_spherical(model.complex)
        assert isinstance(cert, BuildingCertificate)
        assert cert.verdict == "thin_building"


def test_criterion_9_a2_window():
    with criterion(9, "A2-window radius 3: local verdict; 1% perturbation flips"):
        w = gen_a2_window(3)
        cert = check_euclidean(w.complex, "window")
        assert isinstance(cert, BuildingCertificate)
        assert cert.verdict == "metric_euclidean_building_local"
        assert cert.link_certificates
        for (vi,), (L, sub) in cert.link_certificates.items():
            assert sub.verdict == "thin_building" and sub.m == 3
            assert len(L.top_cells) == 6
        wp = gen_a2_window(3, perturb=1.01)
        res = check_euclidean(wp.complex, "window")
        assert isinstance(res, Diagnosis) and res.condition == "link_failure"
        # the failing vertex is an interior vertex adjacent to the perturbed edge
        assert res.witness["cell"][0] in ("0_0", "1_0")


def test_criterion_10_metric_graph_oracles():
    with criterion(10, "200 random graphs: diameter/systole/triangle oracles"):
        rng = random.Random(20260808)
        lengths = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]
        graphs = 0
        triples = 0
        while graphs < 200:
            n = rng.randint(2, 10)
            edges = []
            for v in range(1, n):
                edges.append((rng.randrange(v), v, rng.choice(lengths)))
            for _ in range(rng.randint(0, 14 - len(edges))):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v, rng.choice(lengths)))
            g = MetricGraph([f"v{i}" for i in range(n)], edges)
            if not g.is_connected():
                continue
            graphs += 1
            d, _ = g.diameter()
            oracle = oracles.sampling_diameter(
                n, [(u, v, float(ln)) for u, v, ln in g.edges])
            assert abs(float(d) - oracle) <= 1e-6
            s, _ = g.systole()
            expect = oracles.exhaustive_systole(n, list(g.edges))
            if expect is None:
                assert s == math.inf
            else:
                assert s == expect
            for _ in range(50):
                pts = []
                for _ in range(3):
                    eid = rng.randrange(len(g.edges))
                    ln = g.edges[eid][2]
                    pts.append(g.point(eid, Fraction(rng.randint(0, 12), 12) * ln))
                a, b, c = pts
                assert float(g.distance(a, c)) * math.pi <= \
                    float(g.distance(a, b) + g.distance(b, c)) * math.pi + 1e-9
                triples += 3
        assert graphs == 200 and triples >= 10 ** 4


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "generators and checks byte-identical across runs"):
        gen_jobs = [
            ("heawood.json", ["gen", "projective-plane", "--q", "2",
                              "--length", "pi/3"]),
            ("k33.json", ["gen", "complete-bipartite", "--s", "3", "--t", "3"]),
            ("tc.json", ["gen", "generalized-quadrangle"]),
            ("oct.json", ["gen", "octahedron"]),
            ("petersen.json", ["gen", "petersen"]),
            ("k4.json", ["gen", "k4"]),
            ("lune.json", ["gen", "short-lune"]),
            ("poct.json", ["gen", "punctured-octahedron"]),
            ("win.json", ["gen", "a2-window", "--radius", "3"]),
            ("pwin.json", ["gen", "perturbed-a2-window"]),
            ("a3.json", ["coxeter", "complex", "--type", "A3"]),
        ]

        def run(argv, seed):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            return subprocess.run([sys.executable, "-m", "buildctl.cli", *argv],
                                  capture_output=True, env=env)

        for fname, argv in gen_jobs:
            out1 = run(argv + ["-o", str(tmp_path / fname)], "0")
            b1 = (tmp_path / fname).read_bytes()
            out2 = run(argv + ["-o", str(tmp_path / fname)], "42")
            b2 = (tmp_path / fname).read_bytes()
            assert out1.returncode == 0 and out2.returncode == 0, argv
            assert b1 == b2, argv
        check_jobs = [
            ["check", str(tmp_path / "heawood.json")],
            ["check", str(tmp_path / "k33.json")],
            ["check", str(tmp_path / "oct.json")],
            ["check", str(tmp_path / "petersen.json")],
            ["check", str(tmp_path / "k4.json")],
            ["check", str(tmp_path / "lune.json")],
            ["check", str(tmp_path / "win.json"), "--boundary", "window"],
            ["check", str(tmp_path / "pwin.json"), "--boundary", "window"],
            ["validate", str(tmp_path / "poct.json")],
            ["graph", "antipodes", str(tmp_path / "heawood.json"),
             "--point", "p0"],
            ["decompose", str(tmp_path / "k33.json")],
        ]
        for argv in check_jobs:
            r1 = run(argv, "0")
            r2 = run(argv, "1042")
            assert r1.stdout == r2.stdout, argv
            assert r1.returncode == r2.returncode, argv
