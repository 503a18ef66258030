"""CLI: verbs, exit-code taxonomy, manifest reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from klsf.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_construct_cuboid(capsys):
    code, doc, _ = run_cli(
        ["construct", "--type", "cuboid", "--k", "3", "--l", "1", "--p", "23", "--j", "0"],
        capsys,
    )
    assert code == 0
    assert doc["results"]["set"] == "p=23;[15,20]"
    assert doc["results"]["size"] == 6 and doc["results"]["sumfree"] is True
    assert doc["schema"] == "klsf/1"


def test_construct_type5_and_notes(capsys):
    code, doc, _ = run_cli(
        ["construct", "--type", "5", "--k", "3", "--l", "1", "--p", "23", "--n", "2",
         "--s", "1", "--pset", "{1}"],
        capsys,
    )
    assert code == 0
    assert doc["results"]["size"] == 5 * 23
    assert doc["results"]["nontrivial"] == "nontrivial"
    code, doc, _ = run_cli(
        ["construct", "--type", "rz", "--k", "2", "--l", "1", "--p", "11",
         "--s", "0", "--pset", "{}"],
        capsys,
    )
    assert code == 0
    assert doc["results"]["set"] == "p=11;[3,5]"
    assert any("s=0" in n for n in doc["results"]["notes"])


def test_construct_parameter_error_exit_1(capsys):
    code, _, err = run_cli(
        ["construct", "--type", "5", "--k", "3", "--l", "1", "--p", "23", "--n", "2",
         "--s", "1", "--pset", "{}"],
        capsys,
    )
    assert code == 1 and "nonempty P" in err
    code, _, err = run_cli(
        ["construct", "--type", "2", "--k", "2", "--l", "1", "--p", "17", "--n", "3",
         "--vbasis", "(1,2,3)"],
        capsys,
    )
    assert code == 1 and "does not live in F_p^2" in err


def test_verify_and_classify(capsys):
    code, doc, _ = run_cli(["verify", "--k", "3", "--l", "1", "--set", "p=23;[15,20]"], capsys)
    assert code == 0 and doc["results"]["sumfree"] is True
    code, doc, _ = run_cli(["classify", "--k", "2", "--l", "1", "--set", "p=11;{2,7,10}"], capsys)
    assert code == 0
    assert doc["results"]["label"] == "type1"
    assert doc["results"]["witness"]["spec"]["which"] == "type1"


def test_classify_2d_literal(capsys):
    # a full-fiber product inside the extremal cuboid [4,7] x F_11: trivial
    lit = "p=11;n=2;{" + ",".join(f"({x},{y})" for x in (4, 5) for y in range(11)) + "}"
    code, doc, _ = run_cli(["classify", "--k", "2", "--l", "1", "--set", lit], capsys)
    assert code == 0 and doc["results"]["label"] == "trivial"


def test_enumerate_json_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "orbits.csv"
    code, doc, _ = run_cli(
        ["enumerate", "--k", "2", "--l", "1", "--p", "11", "--level", "max",
         "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    assert doc["results"]["max_size"] == 4
    assert doc["results"]["extremal_orbits"] == [[4, 5, 6, 7]]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "orbit_index,size,elements,label,notes"
    assert len(lines) == 2


def test_enumerate_second_level(capsys):
    code, doc, _ = run_cli(
        ["enumerate", "--k", "3", "--l", "1", "--p", "23", "--level", "second"], capsys
    )
    assert code == 0  # no findings at this grid point
    orbs = doc["results"]["second_level_orbits"]
    assert [o["label"] for o in orbs] == ["type1"]


def test_enumerate_limit_exit_1(capsys):
    code, _, err = run_cli(["enumerate", "--k", "2", "--l", "1", "--p", "61"], capsys)
    assert code == 1 and "exceeds the search limit" in err


def test_covering_scan_and_exit_codes(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    code, doc, _ = run_cli(
        ["covering", "--p", "13", "--c", "1/4", "--tau-top", "1/4", "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    assert doc["results"]["tau_feasible"] == "1/4"
    assert csv_path.read_text().splitlines()[0] == "tau,violations,sets_examined"
    # the full default grid at p=13, c=1/3 has top-of-grid violations -> exit 3
    code, doc, _ = run_cli(["covering", "--p", "13", "--c", "1/3"], capsys)
    assert code == 3
    assert doc["results"]["violations"]
    for trials in ("0", "-5"):
        code, doc, err = run_cli(["covering", "--p", "101", "--c", "10/107", "--mode", "sampled",
                                  "--trials", trials], capsys)
        assert (code, doc) == (1, None)
        assert "parameter error" in err and "at least one trial" in err


def test_covering_nonpositive_tau_step_exit_1():
    # In a subprocess with a timeout: a grid loop that never ends must fail
    # the test, not hang the suite.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for step in ("0", "-1/20"):
        run = subprocess.run([sys.executable, "-m", "klsf.cli", "covering", "--p", "19", "--c", "1/3",
                              f"--tau-step={step}"], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 1, run.stderr
        assert run.stdout == ""
        assert "parameter error" in run.stderr and "grid step must be positive" in run.stderr


def test_spectral_verb(tmp_path, capsys):
    csv_path = tmp_path / "spec.csv"
    code, doc, _ = run_cli(
        ["spectral", "--k", "2", "--l", "1", "--set", "p=11;[4,7]",
         "--full-csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    assert doc["results"]["passed"] is True and doc["results"]["vanishing_ok"] is True
    assert len(csv_path.read_text().splitlines()) == 12


def _manifests_agree_modulo_timing(args, capsys):
    docs = []
    for _ in range(2):
        _, doc, _ = run_cli(args, capsys)
        assert "wall_s" in doc.pop("timing")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_manifest_reproducible_modulo_timing(capsys):
    _manifests_agree_modulo_timing(
        ["enumerate", "--k", "2", "--l", "1", "--p", "17", "--level", "max"], capsys
    )
    _manifests_agree_modulo_timing(["reproduce", "A11"], capsys)


def test_reproduce_verb(capsys):
    code = main(["reproduce", "A11"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 0
    assert doc["results"][0]["criterion"] == "A11"
    assert doc["results"][0]["passed"] is True
    assert "A11 PASS" in captured.err


def test_reproduce_unknown_exit_1(capsys):
    assert main(["reproduce", "A99"]) == 1


def test_failed_self_check_exit_2(monkeypatch, capsys):
    # a generator output failing its own verifier is an implementation bug,
    # distinguished from parameter errors and findings by exit code 2
    from klsf import cli
    from klsf.constructions import GeneratorCheckError

    def boom(spec):
        raise GeneratorCheckError("simulated verifier failure")

    monkeypatch.setattr(cli, "gen_cuboid", boom)
    code = main(["construct", "--type", "cuboid", "--k", "2", "--l", "1", "--p", "11"])
    assert code == 2
    assert "simulated verifier failure" in capsys.readouterr().err


def test_grid_file_construct(tmp_path, capsys):
    grid = [
        {"k": 3, "l": 1, "p": 23, "n": 1, "type": "cuboid", "j": 0},
        {"k": 3, "l": 1, "p": 23, "n": 1, "type": "1", "extras": {"a": 5}},
        {"k": 3, "l": 1, "p": 23, "n": 2, "type": "5", "extras": {"s": 1, "pset": [[1]]}},
    ]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code, doc, _ = run_cli(["construct", "--grid", str(path)], capsys)
    assert code == 0
    sizes = [r["size"] for r in doc["results"]]
    assert sizes == [6, 5, 115]


@pytest.mark.parametrize("flags, item", [
    (["--type", "cuboid", "--k", "3", "--l", "1", "--p", "23", "--j", "0"],
     {"k": 3, "l": 1, "p": 23, "type": "cuboid", "j": 0}),
    (["--type", "1", "--k", "3", "--l", "1", "--p", "23", "--a", "5"],
     {"k": 3, "l": 1, "p": 23, "type": "1", "extras": {"a": 5}}),
    (["--type", "5", "--k", "3", "--l", "1", "--p", "23", "--n", "2", "--s", "1",
      "--pset", "{1,5}"],
     {"k": 3, "l": 1, "p": 23, "n": 2, "type": "5", "extras": {"s": 1, "pset": [[1], [5]]}}),
], ids=["cuboid", "type1", "type5"])
def test_construct_flags_match_one_item_grid(tmp_path, capsys, flags, item):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([item]))
    code, from_flags, _ = run_cli(["construct", *flags], capsys)
    assert code == 0
    code, from_grid, _ = run_cli(["construct", "--grid", str(path)], capsys)
    assert code == 0
    assert from_grid["results"] == [from_flags["results"]]


@pytest.mark.parametrize("flags, unread", [
    (["--type", "2", "--k", "3", "--l", "1", "--p", "23", "--n", "2", "--a", "5", "--pset", "{1}"],
     "type2 does not read a, pset"),
    (["--type", "1", "--k", "3", "--l", "1", "--p", "23", "--a", "5", "--s", "0"],
     "type1 does not read s"),
    (["--type", "5", "--k", "3", "--l", "1", "--p", "23", "--n", "2", "--s", "1", "--pset", "{1}",
      "--vbasis", ""], "type5 does not read vbasis"),
    (["--type", "cuboid", "--k", "3", "--l", "1", "--p", "23", "--a", "5"], "cuboid does not read a"),
    (["--type", "1", "--k", "3", "--l", "1", "--p", "23", "--a", "5", "--j", "3"], "type1 does not read j"),
    (["--type", "rz", "--k", "2", "--l", "1", "--p", "11", "--s", "0", "--pset", "{}", "--j", "0"],
     "rz does not read j"),
], ids=["type2", "type1", "type5", "cuboid", "type1-j", "rz-j"])
def test_construct_refuses_flags_the_kind_does_not_read(capsys, flags, unread):
    code, doc, err = run_cli(["construct", *flags], capsys)
    assert code == 1 and doc is None and unread in err


def test_grid_item_refuses_cuboid_extras(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"k": 3, "l": 1, "p": 23, "type": "cuboid", "extras": {"s": 1}}]))
    code, _, err = run_cli(["construct", "--grid", str(path)], capsys)
    assert code == 1 and "cuboid does not read s" in err


@pytest.mark.parametrize("item, unread", [
    ({"k": 3, "l": 1, "p": 23, "type": "1", "extras": {"a": 5, "vbsais": [[1]]}}, "unknown extras vbsais"),
    ({"k": 3, "l": 1, "p": 23, "type": "cuboid", "extras": {"jj": 1}}, "unknown extras jj"),
    ({"k": 3, "l": 1, "p": 23, "type": "1", "j": 3, "extras": {"a": 5}}, "type1 does not read j"),
    ({"k": 3, "l": 1, "p": 23, "n": 2, "type": "5", "j": 0, "extras": {"s": 1, "pset": [[1]]}},
     "type5 does not read j"),
], ids=["misspelt-extras", "cuboid-extras", "type1-j", "type5-j"])
def test_grid_item_refuses_keys_the_kind_does_not_read(tmp_path, capsys, item, unread):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([item]))
    code, doc, err = run_cli(["construct", "--grid", str(path)], capsys)
    assert code == 1 and doc is None and "parameter error" in err and unread in err


def test_construct_j_defaults_to_the_first_cuboid(capsys):
    from klsf.cli import build_parser

    assert build_parser().parse_args(["construct"]).j is None
    _, plain, _ = run_cli(["construct", "--type", "cuboid", "--k", "3", "--l", "1", "--p", "23"], capsys)
    _, first, _ = run_cli(["construct", "--type", "cuboid", "--k", "3", "--l", "1", "--p", "23",
                           "--j", "0"], capsys)
    assert plain["results"] == first["results"]


def test_vector_lists_parse_once():
    # --vbasis/--pset and vector-set literals share one vector-list parser.
    from klsf.vecset import VecSet, parse_vecset, parse_vectors

    assert parse_vectors("(1,0);(0,1)") == ((1, 0), (0, 1))
    assert parse_vectors("") == parse_vectors("{}") == parse_vectors("()") == ()
    assert parse_vectors("{1,5}") == parse_vectors("{(1),(5)}") == ((1,), (5,))
    assert parse_vecset("p=5;n=2;{(1,2),(0,0)}") == VecSet(5, 2, [(0, 0), (1, 2)])


def test_enumerate_limit_defaults_to_the_search_limit():
    from klsf.cli import build_parser
    from klsf.search import DEFAULT_P_LIMIT

    args = build_parser().parse_args(["enumerate", "--k", "2", "--l", "1", "--p", "11"])
    assert args.limit == DEFAULT_P_LIMIT
