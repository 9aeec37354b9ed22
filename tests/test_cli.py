"""CLI behavior: exit codes, schemas, reproducibility."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from vck_lab.cli import main
from vck_lab.serialize import dumps_canonical, load_json, write_canonical


def comparable_bytes(path) -> bytes:
    """Canonical bytes of the report with wall time stripped."""
    doc = load_json(path)
    return dumps_canonical(doc["comparable"]).encode()


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def gadget_doc(tmp_path):
    path = tmp_path / "inst.json"
    assert run("gen", "--kind", "membership", "--params", "d=2,k=1",
               "--seed", "3", "--out", str(path)) == 0
    return path


# -- exit codes ---------------------------------------------------------------------

def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = run("vcdim", "--input", str(bad))
    assert code == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_literal_exits_2(tmp_path, gadget_doc, literal):
    text = gadget_doc.read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace("0.0000000000000000e+00", literal, 1))
    assert bad.read_text() != text
    assert run("vcdim", "--input", str(bad), "--k", "1") == 2


def test_unknown_gen_parameter_exits_2(tmp_path, capsys):
    code = run("gen", "--kind", "membership", "--params", "bogus=1",
               "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path):
    assert run("vcdim", "--input", str(tmp_path / "nope.json")) == 2


def test_vcdim_cap_too_small_exits_3(tmp_path):
    inst = tmp_path / "inst.json"
    assert run("gen", "--kind", "membership", "--params", "d=4,k=1",
               "--out", str(inst)) == 0
    report = tmp_path / "vc.json"
    code = run("vcdim", "--input", str(inst), "--k", "1", "--cap", "2",
               "--out", str(report))
    assert code == 3
    doc = load_json(report)
    results = doc["comparable"]["results"]
    assert results["complete"] is False
    assert results["dimension"] == 2  # certified lower bound


def test_verify_valid_certificate_exits_0(tmp_path, gadget_doc):
    report = tmp_path / "vc.json"
    assert run("vcdim", "--input", str(gadget_doc), "--k", "1",
               "--out", str(report)) == 0
    cert_doc = load_json(report)["comparable"]["results"]["certificate"]
    cert_path = tmp_path / "cert.json"
    write_canonical(cert_path, cert_doc)
    assert run("verify", str(cert_path), str(gadget_doc)) == 0


def test_verify_tampered_certificate_exits_2(tmp_path, gadget_doc):
    report = tmp_path / "vc.json"
    run("vcdim", "--input", str(gadget_doc), "--k", "1", "--out", str(report))
    cert_doc = load_json(report)["comparable"]["results"]["certificate"]
    cert_doc["witnesses"][0]["witness"] = (cert_doc["witnesses"][0]["witness"] + 1) % 4
    cert_path = tmp_path / "cert.json"
    write_canonical(cert_path, cert_doc)
    out = tmp_path / "verify.json"
    assert run("verify", str(cert_path), str(gadget_doc), "--out", str(out)) == 2
    assert load_json(out)["comparable"]["results"]["valid"] is False


# -- round trips ----------------------------------------------------------------------

def test_generated_instance_round_trips(tmp_path, gadget_doc):
    from vck_lab.serialize import functions_from_doc, functions_to_doc
    doc = load_json(gadget_doc)
    space, funcs = functions_from_doc(doc)
    assert dumps_canonical(functions_to_doc(space, funcs)) == dumps_canonical(doc)


def test_decompose_report_round_trips(tmp_path, gadget_doc):
    from vck_lab.decomp import CylinderDecomposition
    report = tmp_path / "dec.json"
    assert run("decompose", "--input", str(gadget_doc), "--k", "1",
               "--n-max", "3", "--seed", "5", "--report", str(report)) == 0
    doc = load_json(report)["comparable"]["results"]["decomposition"]
    back = CylinderDecomposition.from_doc(doc)
    assert dumps_canonical(back.to_doc()) == dumps_canonical(doc)


def test_gowers_report_fields(tmp_path, gadget_doc):
    out = tmp_path / "g.json"
    assert run("gowers", "--input", str(gadget_doc), "--out", str(out)) == 0
    results = load_json(out)["comparable"]["results"]
    assert set(results) == {"signature", "degree", "raw", "norm", "clamp_flag"}


def test_fibers_emits_family_and_partition(tmp_path):
    inst = tmp_path / "p.json"
    assert run("gen", "--kind", "parity", "--params", "n=3", "--seed", "2",
               "--out", str(inst)) == 0
    out = tmp_path / "fib.json"
    assert run("fibers", "--input", str(inst), "--function", "parity3",
               "--t", "1", "--anchors", "0,1", "--out", str(out)) == 0
    results = load_json(out)["comparable"]["results"]
    assert results["family"]
    assert results["partition"]["cells"]


# -- reproducibility -------------------------------------------------------------------

def test_reports_reproducible_across_reruns(tmp_path):
    inst = tmp_path / "inst.json"
    run("gen", "--kind", "membership", "--params", "d=2,k=1", "--out", str(inst))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("vcdim", "--input", str(inst), "--k", "1", "--seed", "4",
                   "--out", str(out)) == 0
    assert comparable_bytes(a) == comparable_bytes(b)


def test_report_file_is_canonical_byte_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    run("gen", "--kind", "membership", "--params", "d=2,k=1", "--out", str(inst))
    out = tmp_path / "r.json"
    assert run("gowers", "--input", str(inst), "--out", str(out)) == 0
    raw = out.read_text()
    assert dumps_canonical(json.loads(raw)) + "\n" == raw


def test_adversary_csv_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run("adversary", "--k", "1", "--d", "2,4", "--trials", "4",
                   "--score-trials", "1", "--restarts", "2", "--seed", "6",
                   "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "d,mean_norm,std,mean_score"


def test_cli_import_loads_no_scipy():
    import vck_lab
    src = str(pathlib.Path(vck_lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = "import sys, vck_lab.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
