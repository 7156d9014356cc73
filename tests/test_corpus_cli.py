import json
import os
import subprocess
import sys

import pytest

import oracles
from buildctl.angles import Angle
from buildctl.cli import main
from buildctl.complexes import ComplexError, validate
from buildctl.corpus import (gen_a2_window, gen_negative, gen_rank2_building)
from buildctl.metric_graph import MetricGraph
from buildctl.recognizer import Diagnosis, check_euclidean, check_spherical, recognize_dim1


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "buildctl.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc


# -- generators ----------------------------------------------------------------


def test_generator_counts(heawood, k33, tutte_coxeter):
    assert (len(k33.vertices), len(k33.edges)) == (6, 9)
    assert (len(heawood.vertices), len(heawood.edges)) == (14, 21)
    assert (len(tutte_coxeter.vertices), len(tutte_coxeter.edges)) == (30, 45)
    g = MetricGraph.from_complex(heawood)
    assert min(len(c) for c in oracles.all_injective_cycles(14, list(g.edges))) == 6
    g = MetricGraph.from_complex(tutte_coxeter)
    assert min(len(c) for c in oracles.all_injective_cycles(30, list(g.edges))) == 8


def test_generators_validate_and_are_deterministic():
    kinds = ["petersen", "k4", "short_lune", "punctured_octahedron",
             "perturbed_a2_window"]
    for kind in kinds:
        a = gen_negative(kind)
        b = gen_negative(kind)
        assert a.dumps() == b.dumps()
        assert validate(a).ok, kind
    a = gen_rank2_building("projective_plane").dumps()
    b = gen_rank2_building("projective_plane").dumps()
    assert a == b


def test_mismatched_length_refused():
    with pytest.raises(ComplexError):
        gen_rank2_building("projective_plane", length=Angle.exact(1, 2))


def test_negative_controls_trigger_intended_arms():
    expectations = {
        "petersen": ("systole", recognize_dim1),
        "k4": ("diameter", recognize_dim1),
        "short_lune": ("link_failure", check_spherical),
        "punctured_octahedron": ("codim1_cell_count", check_spherical),
    }
    for kind, (arm, checker) in expectations.items():
        res = checker(gen_negative(kind))
        assert isinstance(res, Diagnosis), kind
        assert res.condition == arm, kind
    res = check_euclidean(gen_negative("perturbed_a2_window"), "window")
    assert isinstance(res, Diagnosis) and res.condition == "link_failure"


def test_window_counts():
    w = gen_a2_window(3)
    assert len(w.complex.vertices) == 37          # hex ball: 1 + 3r(r+1)
    assert len(w.complex.top_cells) == 54
    assert validate(w.complex).ok
    assert len(w.coords) == 37


# -- CLI ------------------------------------------------------------------------


def test_cli_gen_check_pipeline(tmp_path):
    f = tmp_path / "heawood.json"
    r = run_cli("gen", "projective-plane", "--q", "2", "--length", "pi/3",
                "-o", str(f))
    assert r.returncode == 0
    r = run_cli("check", str(f))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "thick_building"
    assert rep["m"] == 3
    assert rep["apartments"] == {"count": 28, "exhaustive": True}


def test_cli_petersen_exit1(tmp_path):
    f = tmp_path / "petersen.json"
    assert run_cli("gen", "petersen", "-o", str(f)).returncode == 0
    r = run_cli("check", str(f))
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["diagnosis"]["condition"] == "systole"


def test_cli_2dim_from_file_exit2(tmp_path):
    f = tmp_path / "oct.json"
    assert run_cli("gen", "octahedron", "-o", str(f)).returncode == 0
    r = run_cli("check", str(f))
    assert r.returncode == 2        # global CAT(1) honestly undecided from JSON
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "thin_building"
    assert "global_cat1_unverified" in rep["flags"]


def test_cli_usage_and_input_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run_cli("check", str(bad)).returncode == 3
    assert run_cli("check", str(tmp_path / "missing.json")).returncode == 3
    assert run_cli("frobnicate").returncode == 3


def test_cli_malformed_angle_and_budgets_exit3(tmp_path):
    f = tmp_path / "k33.json"
    assert run_cli("gen", "complete-bipartite", "-o", str(f)).returncode == 0
    obj = json.loads(f.read_text())
    obj["edge_lengths"][0]["pi"] = [1, 0]
    bad = tmp_path / "bad-pi.json"
    bad.write_text(json.dumps(obj))
    huge = tmp_path / "huge-pi.json"      # 1e400 parses as inf; int(inf) overflows
    huge.write_text(json.dumps(obj).replace('"pi": [1, 0]', '"pi": [1e400, 1]'))
    assert "1e400" in huge.read_text()
    obj = json.loads(f.read_text())
    obj["edge_lengths"] = obj["edge_lengths"][1:]
    obj["default_length"] = 5
    bad_default = tmp_path / "bad-default.json"
    bad_default.write_text(json.dumps(obj))
    # records that a lenient reader would truncate or accept: 1.5 -> 1, true -> 1
    strict = []
    for k, record in enumerate(({"pi": [1.5, 2]}, {"pi": [True, 3]},
                                {"rad": float("inf")}, {"rad": "1.0"})):
        obj = json.loads(f.read_text())
        del obj["edge_lengths"][0]["pi"]
        obj["edge_lengths"][0].update(record)
        strict.append(tmp_path / f"strict-{k}.json")
        strict[-1].write_text(json.dumps(obj))
    assert "Infinity" in strict[2].read_text()
    # fractional indices that int() would truncate to a valid K3,3
    for k, (key, value) in enumerate((("dimension", 1.8), ("top_cells", [0, 3.9]),
                                      ("edge_lengths", [0, 3.7]))):
        obj = json.loads(f.read_text())
        if key == "dimension":
            obj[key] = value
        elif key == "top_cells":
            obj[key][0] = value
        else:
            obj[key][0]["edge"] = value
        strict.append(tmp_path / f"strict-index-{k}.json")
        strict[-1].write_text(json.dumps(obj))
    for r in (run_cli("check", str(bad)), run_cli("check", str(huge)),
              run_cli("check", str(bad_default)),
              *(run_cli("check", str(path)) for path in strict),
              run_cli("check", str(tmp_path)),           # a directory, not a file
              run_cli("gen", "complete-bipartite", "--s", "0", "--t", "3"),
              run_cli("check", str(f), env_extra={"BUILDCTL_BUDGETS": "[1]"})):
        lines = r.stderr.strip().splitlines()
        assert r.returncode == 3, r.stderr
        assert len(lines) == 1 and lines[0].startswith("buildctl: "), r.stderr


@pytest.mark.parametrize("raw", ['{"B_apt": "x"}', '{"B_apt": 0}', '{"B_apt": true}',
                                 '{"B_nope": 5}', '7'])
def test_cli_budgets_rejected_in_process(tmp_path, monkeypatch, capsys, raw):
    f = tmp_path / "k33.json"
    assert main(["gen", "complete-bipartite", "-o", str(f)]) == 0
    monkeypatch.setenv("BUILDCTL_BUDGETS", raw)
    assert main(["check", str(f)]) == 3
    assert capsys.readouterr().err.startswith("buildctl: bad BUILDCTL_BUDGETS")


def test_cli_budgets_checked_before_library_imports(tmp_path):
    """coxeter classify never loads the recognizer, and a malformed
    BUILDCTL_BUDGETS exits 3 before check loads it."""
    f = tmp_path / "k33.json"
    assert main(["gen", "complete-bipartite", "-o", str(f)]) == 0
    code = (
        "import contextlib, io, json, os, sys\n"
        "from buildctl.cli import main\n"
        "out = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    out.append(main(['coxeter', 'classify', '--type', 'A3']))\n"
        "out.append('buildctl.recognizer' in sys.modules)\n"
        "os.environ['BUILDCTL_BUDGETS'] = '[1]'\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    out.append(main(['check', sys.argv[1]]))\n"
        "out.append('buildctl.recognizer' in sys.modules)\n"
        "print(json.dumps(out))\n")
    env = {k: v for k, v in os.environ.items() if k != "BUILDCTL_BUDGETS"}
    proc = subprocess.run([sys.executable, "-c", code, str(f)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, False, 3, False]


def test_cli_metric_graph_commands_do_not_load_numpy(tmp_path):
    """Graph, validate and dim-1 check commands, and a malformed input, run
    in a fresh interpreter without importing numpy."""
    f = tmp_path / "heawood.json"
    assert main(["gen", "projective-plane", "-o", str(f)]) == 0
    bad = tmp_path / "truncated.json"
    bad.write_text(f.read_text()[:40])
    code = (
        "import contextlib, io, json, sys\n"
        "from buildctl.cli import main\n"
        "codes = []\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(main(argv.split('|')))\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n")
    argvs = [f"graph|diameter|{f}", f"validate|{f}", f"check|{f}", f"check|{bad}"]
    proc = subprocess.run([sys.executable, "-c", code, *argvs], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 3], False]


def test_cli_validate(tmp_path):
    f = tmp_path / "k33.json"
    run_cli("gen", "complete-bipartite", "--s", "3", "--t", "3",
            "--length", "pi/2", "-o", str(f))
    r = run_cli("validate", str(f))
    assert r.returncode == 0 and json.loads(r.stdout)["ok"]


def test_cli_graph_ops(tmp_path):
    f = tmp_path / "heawood.json"
    run_cli("gen", "projective-plane", "-o", str(f))
    r = run_cli("graph", "diameter", str(f))
    rep = json.loads(r.stdout)
    assert rep["diameter_pi_units"] == 1.0 and rep["exact"]
    r = run_cli("graph", "systole", str(f))
    assert json.loads(r.stdout)["systole_pi_units"] == 2.0
    r = run_cli("graph", "antipodes", str(f), "--point", "p0")
    rep = json.loads(r.stdout)
    assert rep["discrete"] and rep["nonempty"] and len(rep["points"]) == 4
    r = run_cli("graph", "antipodes", str(f), "--point", "0:1/6")
    assert json.loads(r.stdout)["nonempty"]


def test_cli_coxeter(tmp_path):
    r = run_cli("coxeter", "classify", "--type", "A2")
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "spherical" and rep["group_order"] == 6
    mf = tmp_path / "a2t.json"
    mf.write_text(json.dumps({"generators": ["a", "b", "c"],
                              "m": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}))
    r = run_cli("coxeter", "classify", str(mf))
    assert json.loads(r.stdout)["verdict"] == "euclidean"
    out = tmp_path / "a3.json"
    r = run_cli("coxeter", "complex", "--type", "A3", "-o", str(out))
    assert r.returncode == 0
    r = run_cli("check", str(out))
    assert json.loads(r.stdout)["verdict"] == "thin_building"


def test_cli_geodesic_and_apartment(tmp_path):
    f = tmp_path / "oct.json"
    run_cli("gen", "octahedron", "-o", str(f))
    r = run_cli("geodesic", str(f), "--from", "a0", "--dir", "0:1/4",
                "--len", "pi")
    rep = json.loads(r.stdout)
    assert rep["count"] == 1
    assert rep["geodesics"][0]["end"] == "a1"
    r = run_cli("apartment", str(f), "--from", "a0", "--cycle",
                "b0", "c0", "b1", "c1", "--to", "a1")
    rep = json.loads(r.stdout)
    assert rep["ok"] and rep["euler_characteristic"] == 2
    assert rep["antipode"] == "a1"
    r = run_cli("apartment", str(f), "--from", "a0", "--cycle",
                "b0", "c0", "b1", "c1", "--to", "b0")
    assert r.returncode == 1


def test_cli_decompose(tmp_path):
    f = tmp_path / "k33.json"
    run_cli("gen", "complete-bipartite", "-o", str(f))
    r = run_cli("decompose", str(f))
    rep = json.loads(r.stdout)
    assert len(rep["factors"]) == 2
    assert sorted(len(x["vertices"]) for x in rep["factors"]) == [3, 3]


def test_cli_budget_env(tmp_path):
    f = tmp_path / "heawood.json"
    run_cli("gen", "projective-plane", "-o", str(f))
    r = run_cli("check", str(f), env_extra={"BUILDCTL_BUDGETS": '{"B_apt": 40}'})
    assert r.returncode == 2
    rep = json.loads(r.stdout)
    assert not rep["apartments"]["exhaustive"]
    assert "apartments_sampled" in rep["flags"]


def test_cli_text_report(tmp_path):
    f = tmp_path / "heawood.json"
    run_cli("gen", "projective-plane", "-o", str(f))
    r = run_cli("check", str(f), "--report", "text")
    assert "verdict: thick_building" in r.stdout


def test_cli_in_process_entry(tmp_path, capsys):
    f = tmp_path / "heawood.json"
    assert main(["gen", "projective-plane", "-o", str(f)]) == 0
    assert main(["check", str(f)]) == 0
    capsys.readouterr()


def test_exit_code_unknown_pi1_is_undecided():
    from buildctl.cli import exit_code_of, EXIT_UNDECIDED, EXIT_DIAGNOSED
    assert exit_code_of(Diagnosis("unknown_pi1", {})) == EXIT_UNDECIDED
    assert exit_code_of(Diagnosis("systole", {})) == EXIT_DIAGNOSED


def test_cli_geodesic_on_graph(tmp_path):
    f = tmp_path / "heawood.json"
    run_cli("gen", "projective-plane", "-o", str(f))
    r = run_cli("geodesic", str(f), "--from", "p0", "--dir", "v:l0", "--len", "pi")
    rep = json.loads(r.stdout)
    assert rep["count"] == 4
    assert sorted({g["end"] for g in rep["geodesics"]}) == ["l1", "l2", "l3", "l5"]
