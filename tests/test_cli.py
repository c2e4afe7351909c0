"""End-to-end command-line tests through main(argv)."""
import json

import pytest

from conftest import CORPUS
from widecat.cli import main

TRI = str(CORPUS / "triangle.alg")
A2 = str(CORPUS / "a2.alg")
PRE = str(CORPUS / "preproj_a2.alg")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_check_text(capsys):
    code, out, _ = run(capsys, "algebra", "check", TRI)
    assert code == 0
    assert out.strip() == ("ok: 3 vertices, 3 arrows, 1 relations, "
                           "dimension 6, field Q")


def test_algebra_check_json(capsys):
    code, out, _ = run(capsys, "algebra", "check", TRI, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"vertices": 3, "arrows": 3, "relations": 1,
                   "dimension": 6, "field": "Q"}


def test_modules_list(capsys):
    code, out, _ = run(capsys, "modules", "list", TRI, "--format", "json")
    assert code == 0
    rows = json.loads(out)["modules"]
    assert len(rows) == 9
    labels = {r["label"] for r in rows}
    assert labels == {"P1", "P2", "P3", "I1", "I2", "I3", "S2", "M7", "M8"}
    assert sum(r["projective"] for r in rows) == 3
    assert sum(r["injective"] for r in rows) == 3
    by_label = {r["label"]: r for r in rows}
    assert by_label["M7"]["dimension_vector"] == [1, 2, 1]
    code, out, _ = run(capsys, "modules", "list", TRI)
    assert code == 0 and len(out.strip().splitlines()) == 9


def test_ar_quiver_exports(capsys):
    code, out, _ = run(capsys, "ar-quiver", "export", TRI)
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "ar-quiver", "export", TRI, "--format", "json")
    doc = json.loads(out)
    assert len(doc["nodes"]) == 9
    assert all(e["multiplicity"] == 1 for e in doc["irreducible_maps"])


def test_tau_rigid_list(capsys):
    code, out, err = run(capsys, "tau-rigid", "list", TRI, "--format", "json")
    assert code == 0
    objs = json.loads(out)["objects"]
    assert len(objs) == 57
    assert {o["size"] for o in objs} == {0, 1, 2, 3}
    code, _, err = run(capsys, "tau-rigid", "list", TRI)
    assert code == 0 and err.strip() == "total: 57"


def test_wide_list(capsys):
    code, out, _ = run(capsys, "wide", "list", A2, "--format", "json")
    assert code == 0
    ws = json.loads(out)["wide_subcategories"]
    assert len(ws) == 5
    assert sorted(w["rank"] for w in ws) == [0, 1, 1, 1, 2]


def test_wide_cat_export(capsys):
    code, out, _ = run(capsys, "wide-cat", "export", TRI, "--format", "json",
                       "--drop-zero-object")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["objects"]) == 17
    assert len(doc["edges"]) == 31
    assert sum(1 for e in doc["edges"] if e["doubled"]) == 19
    code, out, _ = run(capsys, "wide-cat", "export", TRI)
    assert code == 0 and out.startswith("digraph")


def test_repeated_runs_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "wide-cat", "export", TRI, "--format", "json")
    _, out2, _ = run(capsys, "wide-cat", "export", TRI, "--format", "json")
    assert out1 == out2


def test_cache_dir_round_trip(capsys, tmp_path):
    d = str(tmp_path)
    code, out1, _ = run(capsys, "modules", "list", TRI, "--cache-dir", d,
                        "--format", "json")
    assert code == 0
    assert any(tmp_path.iterdir()), "cache file was not written"
    code, out2, _ = run(capsys, "modules", "list", TRI, "--cache-dir", d,
                        "--format", "json")
    assert code == 0 and out1 == out2


def test_field_override(capsys):
    code, out, _ = run(capsys, "algebra", "check", TRI, "--field", "F101",
                       "--format", "json")
    assert code == 0 and json.loads(out)["field"] == "F101"
    code, out, _ = run(capsys, "modules", "list", TRI, "--field", "Fp 101",
                       "--format", "json")
    assert code == 0 and len(json.loads(out)["modules"]) == 9


def test_sequences(capsys):
    code, out, _ = run(capsys, "sequences", "count", TRI, "--length", "2")
    assert code == 0 and out.strip() == "54"
    code, out, err = run(capsys, "sequences", "list", A2, "--length", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    assert err.strip() == "total: 5"
    code, out, _ = run(capsys, "sequences", "count", A2, "--length", "2",
                       "--format", "json")
    assert json.loads(out) == {"length": 2, "count": 10}


def test_factorizations_text(capsys):
    code, out, err = run(capsys, "factorizations", TRI,
                         "--morphism", '["S2","I2"]')
    assert code == 0
    lines = set(out.strip().splitlines())
    assert lines == {"g[I1] . g[S2]", "g[S2] . g[I2]"}
    assert err.strip() == "total: 2"


def test_factorizations_identity_and_source(capsys):
    code, out, _ = run(capsys, "factorizations", TRI, "--morphism", "[]")
    assert code == 0 and out.strip() == "identity"
    code, out, _ = run(capsys, "factorizations", TRI, "--morphism", '["I1"]',
                       "--source", '["P2","I3","I1"]')
    assert code == 0 and out.strip() == "g[I1]"


def test_factorizations_json(capsys):
    code, out, _ = run(capsys, "factorizations", A2,
                       "--morphism", '["P1","P2"]', "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["factorizations"]) == 2
    assert all(len(f["chain"]) == 2 for f in doc["factorizations"])


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", A2, "--suites", "homological-lemmas")
    assert code == 0
    assert "homological" in out and "ok" in out
    code, out, _ = run(capsys, "verify", A2, "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert reports and all(r["ok"] for r in reports)


def test_error_exit_codes(capsys, tmp_path):
    # missing file
    code, _, err = run(capsys, "algebra", "check", str(tmp_path / "no.alg"))
    assert code == 2 and "error" in err
    # unsupported format for this command
    code, _, err = run(capsys, "modules", "list", TRI, "--format", "dot")
    assert code == 2
    # morphism label set that is not support tau-rigid
    code, _, err = run(capsys, "factorizations", TRI,
                       "--morphism", '["S2","I1"]')
    assert code == 2 and "object I1+S2 is not support tau-rigid in mod" in err
    # morphism that is not a JSON array
    code, _, err = run(capsys, "factorizations", TRI, "--morphism", '"S2"')
    assert code == 2
    # unknown label
    code, _, err = run(capsys, "factorizations", TRI, "--morphism", '["X9"]')
    assert code == 2 and "unknown module label" in err
    # morphism or source that is not a JSON array of labels
    for flags in (("--morphism", "[1]"), ("--morphism", "[]", "--source", "5"),
                  ("--morphism", "[]", "--source", '"S2"')):
        code, out, err = run(capsys, "factorizations", TRI, *flags)
        assert code == 2 and out == "", flags
        assert f"error: {flags[-2]} wants a JSON array of module labels" in err, flags
    # negative length, refused before the enumeration could exceed its budget
    code, _, err = run(capsys, "sequences", "count", TRI, "--length", "-1")
    assert code == 2
    code, _, err = run(capsys, "sequences", "count", TRI, "--length", "-1",
                       "--budget", "2")
    assert code == 2 and "--length must be nonnegative" in err
    # unknown verify suite
    code, _, err = run(capsys, "verify", TRI, "--suites", "nope")
    assert code == 2 and "unknown suites" in err
    # source that is not a wide subcategory
    code, _, err = run(capsys, "factorizations", TRI, "--morphism", "[]",
                       "--source", '["S2","I1"]')
    assert code == 2 and "not a wide subcategory" in err


@pytest.mark.parametrize("label, flags", [
    ("S2", ("--morphism", '["S2","S2"]')),
    ("P3", ("--morphism", '["P3[1]","P3[1]"]')),
    ("I3", ("--morphism", "[]", "--source", '["P2","I3","I1","I3"]')),
])
def test_repeated_labels_rejected(capsys, label, flags):
    code, out, err = run(capsys, "factorizations", TRI, *flags)
    assert code == 2 and out == ""
    assert f"module label {label!r} is repeated" in err


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "modules", "list", TRI, "--budget", "2")
    assert code == 3 and "budget" in err


def test_preprojective_end_to_end(capsys):
    code, out, _ = run(capsys, "wide", "list", PRE, "--format", "json")
    assert code == 0
    ws = json.loads(out)["wide_subcategories"]
    assert len(ws) == 6
    code, out, _ = run(capsys, "tau-rigid", "list", PRE, "--format", "json")
    assert len(json.loads(out)["objects"]) == 13
