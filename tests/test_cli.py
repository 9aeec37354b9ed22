"""CLI behavior: exit codes, schemas, reproducibility."""

import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vck_lab import (Box, MeasuredFunction, Part, PartiteSpace, adversary, check_shattered,
                     membership_gadget, random_pattern)
from vck_lab.check import read_certificate, read_instance
from vck_lab.cli import BLAS_THREAD_VARS, main
from vck_lab.errors import InvalidArgumentError, NumericalFailureError
from vck_lab.serialize import dumps_canonical, functions_from_doc, load_json, write_canonical

from oracles import inapproximability_score_oracle, verify_certificate_oracle


def comparable_bytes(path) -> bytes:
    """Canonical bytes of the report with wall time stripped."""
    doc = load_json(path)
    return dumps_canonical(doc["comparable"]).encode()


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def parity_doc(tmp_path):
    path = tmp_path / "parity.json"
    assert run("gen", "--kind", "parity", "--params", "n=3", "--seed", "2",
               "--out", str(path)) == 0
    return path


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


def test_non_utf8_document_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert run("gowers", "--input", str(bad)) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_literal_exits_2(tmp_path, gadget_doc, literal):
    text = gadget_doc.read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"values":[0.0,', f'"values":[{literal},', 1))
    assert bad.read_text() != text
    assert run("vcdim", "--input", str(bad), "--k", "1") == 2


def test_unknown_gen_parameter_exits_2(tmp_path, capsys):
    code = run("gen", "--kind", "membership", "--params", "bogus=1",
               "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path):
    assert run("vcdim", "--input", str(tmp_path / "nope.json")) == 2


def test_input_directory_exits_2(tmp_path, capsys):
    assert run("gowers", "--input", str(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


def test_output_directory_exits_2(tmp_path, gadget_doc, capsys):
    assert run("gowers", "--input", str(gadget_doc), "--out", str(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


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


def _gadget_certificate() -> dict:
    """The certificate of the gadget_doc relation, as plain JSON."""
    return json.loads(dumps_canonical(check_shattered(
        membership_gadget(2, 1), Box(((0, 1),)), 1, 0.5, 0.5).to_doc()))


def _drop_parts(doc):
    del doc["parts"]


def _short_values(doc):
    doc["functions"][0]["values"].pop()


def _letter_weights(doc):
    doc["parts"][0]["weights"] = "ab"


def _witness_key_certificate() -> dict:
    cert_doc = _gadget_certificate()
    cert_doc["witnesses"][0]["bar"] = 2
    return cert_doc


@pytest.mark.parametrize("cert_doc, message", [
    ({}, "missing key 'box'"), ({"box": [[0, 1]]}, "missing key 'witnesses'"),
    ([], "list indices"), ({"box": 3}, "'int' object is not iterable"),
    # a JSON true threshold was once read as 1, and the certificate passed
    (dict(_gadget_certificate(), r=True, s=True), "expected a number or fraction, got True"),
    (dict(_gadget_certificate(), s=True), "expected a number or fraction, got True"),
    # unknown keys once passed, at the top level and in a witness record
    (dict(_gadget_certificate(), foo=1), "unknown keys ['foo']"),
    (_witness_key_certificate(), "witness record 0: unknown keys ['bar']")])
def test_malformed_certificate_exits_2(tmp_path, gadget_doc, capsys, cert_doc, message):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert_doc))
    assert run("verify", str(cert_path), str(gadget_doc)) == 2
    assert f"certificate document: {message}" in capsys.readouterr().err
    with pytest.raises(InvalidArgumentError, match=re.escape(f"certificate document: {message}")):
        read_certificate(cert_doc)


def _set(path, value):
    """An edit that sets the entry at ``path`` (keys and indices) to value."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _add_key(path, key):
    def edit(doc):
        node = doc
        for step in path:
            node = node[step]
        node[key] = 0
    return edit


def _duplicate_part_name(doc):
    doc["parts"][1]["name"] = doc["parts"][0]["name"]


def _drop_function_name(doc):
    del doc["functions"][0]["name"]


def _drop_functions(doc):
    del doc["functions"]


@pytest.mark.parametrize("edit, record", [
    (_drop_parts, "space document"), (_short_values, "function record 0"),
    (_letter_weights, "part record 0"),
    (_add_key([], "extra"), "space document: unknown keys"),
    (_add_key(["parts", 0], "extra"), "part record: unknown keys"),
    (_add_key(["functions", 0], "extra"), "function record: unknown keys"),
    (_set(["parts", 0, "weights"], [0.5, 0.4]), "part 'V1': weights sum"),
    (_set(["parts", 0, "weights"], [0.5, 0.5 + 1e-10]), "part 'V1': weights sum"),
    (_set(["parts", 0, "weights"], [1.5, -0.5]), "part 'V1': negative"),
    (_set(["parts", 0, "size"], 0), "part 'V1': size"),
    (_set(["parts", 0, "size"], 3), "part 'V1': 2 weights for size 3"),
    (_set(["parts", 0, "size"], 2.5), "part record 0: size must be an integer"),
    (_duplicate_part_name, "duplicate part names"),
    (_set(["functions", 0, "signature"], [0, 2]), "signature entries must be in [0, 2), got 2"),
    (_set(["functions", 0, "signature"], [0.2, 1.9]), "function record 0: signature entry"),
    (_set(["functions", 0, "signature"], [0, 0]), "function record 0"),
    (_set(["functions", 0, "values", 1], 1.5), "values outside [0.0, 1.0]"),
    (_set(["functions", 0, "values", 1], -0.5), "values outside [0.0, 1.0]"),
    (_set(["functions", 0, "values", 0], "x"), "function record 0"),
    # a weight or value must be a JSON number, never read as 1 from true or "1"
    (_set(["parts", 0, "weights"], [True, False]), "part record 0: weights must be numbers"),
    (_set(["functions", 0, "values", 1], "1"), "function record 0: values must be numbers"),
    (_set(["functions", 0, "values", 1], True), "function record 0: values must be numbers"),
    (_set(["functions", 0, "values"], 3), "function record 0"),
    (_drop_function_name, "function record 0: missing key 'name'"),
    # a flag must be JSON true or false, never read by its truth value
    (_set(["functions", 0, "signed"], "false"), "function record 0: signed must be true or false"),
    (_set(["functions", 0, "signed"], 0), "function record 0: signed must be true or false")])
def test_malformed_instance_exits_2(tmp_path, gadget_doc, capsys, edit, record):
    # the checker's reader and the library's loader refuse alike, naming
    # the same record
    cert_path = tmp_path / "cert.json"
    write_canonical(cert_path, _gadget_certificate())
    doc = load_json(gadget_doc)
    edit(doc)
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", str(cert_path), str(inst)) == 2
    assert run("gowers", "--input", str(inst)) == 2
    assert record in capsys.readouterr().err
    builds = [functions_from_doc, read_instance]
    if record.startswith(_RULE_RECORDS):
        builds.append(_construct)
    messages = set()
    for build in builds:
        with pytest.raises(InvalidArgumentError, match=re.escape(record)) as refused:
            build(doc)
        messages.add(str(refused.value))
    assert len(messages) == 1, messages


# the refusals of the shared instance rules, which the constructors apply too
_RULE_RECORDS = ("part 'V1'", "duplicate part names", "signature entries", "values outside")


def _construct(doc):
    """The document's space and functions built by Part, PartiteSpace and
    MeasuredFunction themselves, with no loader."""
    space = PartiteSpace([Part(rec["name"], rec["size"], tuple(rec["weights"]))
                          for rec in doc["parts"]])
    for rec in doc["functions"]:
        # an out-of-range signature entry takes the rest of the values, so
        # that the constructor sees the signature
        shape = [doc["parts"][p]["size"] if p < len(doc["parts"]) else -1
                 for p in rec["signature"]]
        MeasuredFunction(space, rec["signature"], np.reshape(rec["values"], shape),
                         name=rec["name"])


def test_part_rules_refuse_before_any_function_record(tmp_path, gadget_doc, capsys):
    # both loaders refuse a space before they read its functions
    doc = load_json(gadget_doc)
    doc["parts"][0]["weights"] = [0.5, 0.4]
    doc["functions"][0]["values"] = 3
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc))
    cert_path = tmp_path / "cert.json"
    write_canonical(cert_path, _gadget_certificate())
    capsys.readouterr()
    assert run("verify", str(cert_path), str(inst)) == 2
    assert run("gowers", "--input", str(inst)) == 2
    err = capsys.readouterr().err
    assert err.count("part 'V1': weights sum") == 2 and "function record" not in err
    for load in (functions_from_doc, read_instance):
        with pytest.raises(InvalidArgumentError, match="part 'V1': weights sum"):
            load(doc)


@pytest.mark.parametrize("edit", [
    _set(["parts", 0, "weights"], [0.5, 0.5 + 1e-13]),
    _set(["functions", 0, "values", 1], 1 + 1e-13),
    _set(["functions", 0, "values", 0], -1e-13),
    _set(["functions", 0, "values", 3], 0.75),
    _set(["functions", 0, "signed"], True), _drop_functions])
def test_tolerated_instances_load_alike(tmp_path, gadget_doc, edit):
    # both loaders accept these, with the same values, clipped to range;
    # verify's exit follows the oracle's verdict
    cert_doc = _gadget_certificate()
    cert_path = tmp_path / "cert.json"
    write_canonical(cert_path, cert_doc)
    doc = load_json(gadget_doc)
    edit(doc)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    _, functions = functions_from_doc(doc)
    assert [(f.name, f.signature, f.values.ravel().tolist()) for f in functions] == [
        (f.name, f.signature, f.values) for f in read_instance(doc)]
    codes = (run("verify", str(cert_path), str(inst)), run("gowers", "--input", str(inst)))
    if not functions:
        assert codes == (2, 2)  # no stored function to select
        return
    valid = verify_certificate_oracle(functions[0], read_certificate(cert_doc))
    assert codes == (0 if valid else 2, 0)


_INTEGER_FIELDS = {
    "part size": ("instance", ["parts", 0, "size"]),
    "signature entry": ("instance", ["functions", 0, "signature", 1]),
    "box vertex": ("certificate", ["box", 0, 1]),
    "subset point": ("certificate", ["witnesses", 2, "subset", 0, 0]),
    "distinguished": ("certificate", ["distinguished"]),
    "witness": ("certificate", ["witnesses", 2, "witness"]),
}


@pytest.mark.parametrize("change", ["float", "fraction", "bool"])
@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_integer_fields_must_be_json_integers(tmp_path, gadget_doc, capsys, field, change):
    # 1 as 1.0, 1.5 or true was once truncated by int() and accepted
    which, path = _INTEGER_FIELDS[field]
    docs = {"instance": load_json(gadget_doc), "certificate": _gadget_certificate()}
    node = docs[which]
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    assert type(value) is int
    node[path[-1]] = {"float": float(value), "fraction": value + 0.5, "bool": True}[change]
    cert_path, inst_path = tmp_path / "cert.json", tmp_path / "inst.json"
    cert_path.write_text(json.dumps(docs["certificate"]))
    inst_path.write_text(json.dumps(docs["instance"]))
    capsys.readouterr()
    assert run("verify", str(cert_path), str(inst_path)) == 2
    if which == "instance":
        assert run("gowers", "--input", str(inst_path)) == 2
    err = capsys.readouterr().err
    assert err.count("must be an integer") == (2 if which == "instance" else 1), err


def test_certificate_listing_a_subset_twice_is_invalid(tmp_path, gadget_doc):
    # a later record once replaced an earlier one for the same subset, so
    # a wrong witness could hide behind a right one
    cert_doc = _gadget_certificate()
    wrong = dict(cert_doc["witnesses"][0], witness=(cert_doc["witnesses"][0]["witness"] + 1) % 4)
    cert_doc["witnesses"].insert(0, wrong)
    cert_path = tmp_path / "cert.json"
    write_canonical(cert_path, cert_doc)
    out = tmp_path / "v.json"
    assert run("verify", str(cert_path), str(gadget_doc), "--out", str(out)) == 2
    assert load_json(out)["comparable"]["results"]["valid"] is False


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6),
                                                                 inner, max_size=3),
    max_leaves=6)


def _mutate(data, node):
    """node with one edit somewhere below it: a key or item deleted, or a
    value replaced by arbitrary JSON."""
    if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        copy = dict(node) if isinstance(node, dict) else list(node)
        key = data.draw(st.sampled_from(list(copy) if isinstance(copy, dict)
                                        else range(len(copy))))
        action = data.draw(st.sampled_from(["descend", "delete", "replace"]))
        if action == "descend":
            copy[key] = _mutate(data, copy[key])
        elif action == "delete":
            del copy[key]
        else:
            copy[key] = data.draw(_json)
        return copy
    return data.draw(_json)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_documents_exit_with_a_known_code(tmp_path, gadget_doc, data):
    cert_doc = _gadget_certificate()
    inst_doc = load_json(gadget_doc)
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            cert_doc = _mutate(data, cert_doc)
        else:
            inst_doc = _mutate(data, inst_doc)
    cert_path, inst_path = tmp_path / "fuzz_cert.json", tmp_path / "fuzz_inst.json"
    cert_path.write_text(json.dumps(cert_doc))
    inst_path.write_text(json.dumps(inst_doc))
    out = str(tmp_path / "out.json")
    assert run("verify", str(cert_path), str(inst_path), "--out", out) in (0, 2, 3, 4)
    for command in ("gowers", "vcdim", "fibers"):
        argv = [command, "--input", str(inst_path), "--out", out]
        if command == "fibers":
            argv += ["--anchors", "0"]
        assert run(*argv) in (0, 2, 3, 4)


# -- round trips ----------------------------------------------------------------------

def test_generated_instance_round_trips(tmp_path, gadget_doc):
    from vck_lab.serialize import functions_from_doc, functions_to_doc
    doc = load_json(gadget_doc)
    space, funcs = functions_from_doc(doc)
    assert dumps_canonical(functions_to_doc(space, funcs)) == dumps_canonical(doc)


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


@pytest.mark.parametrize("select", [("--function", "G", "parity3"),
                                    ("--signature", "0,2", "0,1,2")])
@pytest.mark.parametrize("command", [
    ("vcdim", "--out"), ("gowers", "--out"), ("fibers", "--t", "1", "--anchors", "0", "--out"),
    ("decompose", "--k", "1", "--n-max", "2", "--report")])
def test_subcommands_select_function_by_name_or_signature(tmp_path, command, select):
    # G, on signature (0, 2), is the third of the four parity functions;
    # fibers, which needs arity 3, selects the fourth, parity3 on (0, 1, 2)
    flag, two_ary, three_ary = select
    fibers = command[0] == "fibers"
    inst = tmp_path / "p.json"
    assert run("gen", "--kind", "parity", "--params", "n=3", "--seed", "2",
               "--out", str(inst)) == 0
    out = tmp_path / "out.json"
    assert run(*command, str(out), "--input", str(inst),
               flag, three_ary if fibers else two_ary) == 0
    assert load_json(out)["comparable"]["config"]["function"] == (
        "parity3" if fibers else "G")


# -- reproducibility -------------------------------------------------------------------

def test_reports_reproducible_across_reruns(tmp_path):
    inst = tmp_path / "inst.json"
    run("gen", "--kind", "membership", "--params", "d=2,k=1", "--out", str(inst))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("vcdim", "--input", str(inst), "--k", "1",
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


def _python(code: str) -> str:
    """stdout of ``python -c code`` in a fresh interpreter on this source tree."""
    import vck_lab
    src = str(pathlib.Path(vck_lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_cli_import_loads_no_scipy():
    code = "import sys, vck_lab.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert _python(code).strip() == "False"


def test_cli_import_loads_no_numpy():
    assert _python("import sys, vck_lab.cli; print('numpy' in sys.modules)").strip() == "False"


def test_cli_runs_one_blas_thread_unless_the_caller_chose(tmp_path, monkeypatch):
    inst = tmp_path / "inst.json"
    gen = ["gen", "--kind", "membership", "--params", "d=2,k=1", "--out", str(inst)]
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert run(*gen) == 0
    assert [os.environ[var] for var in BLAS_THREAD_VARS] == ["1"] * 3
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert run(*gen) == 0
    assert [os.environ.get(var) for var in BLAS_THREAD_VARS] == [None, "2", None]
    if not os.path.isdir("/proc/self/task"):
        return
    # a fresh process with no variable set: numpy loads after the default
    # is set, and no BLAS worker thread is started
    monkeypatch.delenv("OMP_NUM_THREADS")
    argv = ["gowers", "--input", str(inst), "--out", str(tmp_path / "norm.json")]
    code = (f"import os, sys; from vck_lab.cli import main; rc = main({argv!r}); "
            "print(rc, 'numpy' in sys.modules, len(os.listdir('/proc/self/task')))")
    assert _python(code).split() == ["0", "True", "1"]


def test_adversary_loads_no_generator_module(tmp_path):
    argv = ["adversary", "--k", "1", "--d", "2", "--trials", "1", "--score-trials", "1",
            "--restarts", "1", "--out", str(tmp_path / "curve.csv")]
    code = (f"import sys; from vck_lab.cli import main; rc = main({argv!r}); "
            "print(rc, 'vck_lab.gen' in sys.modules)")
    assert _python(code).split()[-2:] == ["0", "False"]


def test_verify_loads_only_its_own_modules(tmp_path):
    # the CLI imports per subcommand: a verify run never loads the modules
    # that the other subcommands run
    inst, report, cert = (tmp_path / n for n in ("inst.json", "vc.json", "cert.json"))
    assert run("gen", "--kind", "membership", "--params", "d=2,k=1", "--out", str(inst)) == 0
    assert run("vcdim", "--input", str(inst), "--out", str(report)) == 0
    cert.write_text(json.dumps(load_json(report)["comparable"]["results"]["certificate"]))
    argv = ["verify", str(cert), str(inst), "--out", str(tmp_path / "v.json")]
    code = (f"import sys; from vck_lab.cli import main; rc = main({argv!r}); "
            "print(rc, 'numpy' in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('vck_lab.')))")
    rc, numpy_loaded, loaded = _python(code).split(" ", 2)
    assert (rc, numpy_loaded) == ("0", "False")
    for module in ("decomp", "adversary", "fibalg", "gen", "gowers", "space", "vck"):
        assert f"'vck_lab.{module}'" not in loaded
    assert "'vck_lab.check'" in loaded


@pytest.mark.parametrize("command", [
    ["decompose", "--k", "1", "--n-max", "2", "--input", "{inst}"],
    ["decompose", "--k", "1", "--n-max", "2", "--mode", "boolean", "--input", "{inst}"],
    ["adversary", "--k", "1", "--d", "2,3", "--trials", "2", "--out", "{out}"]])
def test_fit_commands_load_no_search_or_fiber_modules(tmp_path, command):
    # a fit never runs the shattering search, the certificate checker or the
    # fiber algebras, so its process does not import them
    inst = tmp_path / "inst.json"
    assert run("gen", "--kind", "boolcomb", "--params", "sizes=3x3x3",
               "--out", str(inst)) == 0
    argv = [arg.format(inst=inst, out=tmp_path / "curve.csv") for arg in command]
    code = (f"import sys; from vck_lab.cli import main; rc = main({argv!r}); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('vck_lab.')))")
    # the report goes to stdout first
    rc, loaded = _python(code).splitlines()[-1].split(" ", 1)
    assert rc == "0" and "'vck_lab.decomp'" in loaded
    for module in ("fibalg", "vck", "check"):
        assert f"'vck_lab.{module}'" not in loaded


def test_star_import_binds_every_public_name():
    import vck_lab
    namespace = {}
    exec("from vck_lab import *", namespace)
    assert set(vck_lab.__all__) <= set(namespace)
    assert len(set(vck_lab.__all__)) == len(vck_lab.__all__)
    assert all(namespace[name] is getattr(vck_lab, name) for name in vck_lab.__all__)
    with pytest.raises(AttributeError):
        vck_lab.no_such_name


# -- argument refusals ----------------------------------------------------------------

@pytest.mark.parametrize("flags", [
    ("--r", "nan", "--s", "nan"), ("--r", "0.5", "--s", "inf"),
    ("--r", "0.75", "--s", "0.25"), ("--cap", "0"), ("--cap", "-1"), ("--cap", "63")])
def test_vcdim_bad_thresholds_or_cap_exit_2(gadget_doc, flags, capsys):
    assert run("vcdim", "--input", str(gadget_doc), "--k", "1", *flags) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--trials", "0"), ("--trials", "-1"), ("--restarts", "0"),
    ("--score-trials", "0"), ("--score-trials", "-2"), ("--n-terms", "0"),
    ("--d", "2,x"), ("--d", ","), ("--d", "2,0"), ("--k", "0"), ("--k", "-1")])
def test_adversary_bad_counts_exit_2(tmp_path, flags, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused sweep started its curve")

    monkeypatch.setattr(adversary, "box_norm", no_work)
    assert run("adversary", "--k", "1", "--d", "2", "--trials", "2",
               "--score-trials", "1", "--restarts", "1", *flags,
               "--out", str(tmp_path / "curve.csv")) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("flags", [
    ("--trials", "65537"), ("--score-trials", "65537"), ("--d", ",".join(["2"] * 65537))])
def test_adversary_past_65536_trials_or_sizes_exits_3(tmp_path, flags, monkeypatch, capsys):
    # trial counters are (size index << 16) | trial: more would collide
    def no_work(*args, **kwargs):
        raise AssertionError("a refused sweep drew a pattern")

    monkeypatch.setattr(adversary.rng, "bernoulli", no_work)
    assert run("adversary", "--k", "1", "--d", "2", "--trials", "2",
               "--score-trials", "1", "--restarts", "1", *flags,
               "--out", str(tmp_path / "curve.csv")) == 3
    assert "65536" in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_adversary_fit_failure_in_any_worker_exits_4(tmp_path, monkeypatch, capsys, cpus):
    real_group_fits = adversary._group_fits
    failing = []

    def failing_group_fits(task):
        if task[0][0].shape[0] in failing:
            raise NumericalFailureError("injected fit failure")
        return real_group_fits(task)

    # patched before the children fork, so every one inherits it
    monkeypatch.setattr(adversary, "_group_fits", failing_group_fits)
    monkeypatch.setattr(adversary, "_cpu_count", lambda: cpus)
    # one group per pattern size; the group of either size fails alone
    for failing_d in (2, 4):
        failing[:] = [failing_d]
        assert run("adversary", "--k", "1", "--d", "2,4", "--trials", "2",
                   "--restarts", "2", "--out", str(tmp_path / "curve.csv")) == 4
        assert capsys.readouterr().err == "error: injected fit failure\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("flags", [
    ("--n-max", "0"), ("--als-iters", "-1"),
    ("--mode", "boolean", "--n-max", "0"), ("--mode", "boolean", "--n-max", "-3"),
    # k = 0 once ended in a StopIteration traceback (weighted)
    ("--k", "0"), ("--mode", "boolean", "--k", "0")])
def test_decompose_bad_counts_exit_2(gadget_doc, flags, capsys):
    assert run("decompose", "--input", str(gadget_doc), "--k", "1", *flags) == 2
    assert _one_error_line(capsys.readouterr().err)


def _one_error_line(err: str) -> bool:
    return len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("kind, params, code", [
    ("quasirandom", "sizes=4xq", 2), ("quasirandom", "p=abc", 2), ("membership", "d=x", 2),
    ("boolcomb", "k=0,m=2", 2), ("boolcomb", "m=-1", 2), ("quasirandom", "sizes=3x0", 2),
    ("membership", "d=1000,k=1000", 3), ("boolcomb", "m=100000", 3),
    # one vertex per part keeps the grid tiny, but a grid has at most 32 axes
    ("membership", "d=1,k=64", 3), ("quasirandom", "sizes=1,signature=" + "x".join("0" * 33), 3),
    ("quasirandom", "sizes=1,signature=" + "x".join("0" * 65), 3),
    ("boolcomb", "kprime=70,sizes=" + "x".join("1" * 70), 3),
    ("boolcomb", "sizes=100000x100000x100000", 3), ("parity", "n=257", 3),
    # one cell over the array cap: a missing check costs seconds, not a hang
    ("quasirandom", "sizes=4096x4097", 3)])
def test_gen_refusals_exit_with_their_code(tmp_path, capsys, kind, params, code):
    out = tmp_path / "x.json"
    assert run("gen", "--kind", kind, "--params", params, "--out", str(out)) == code
    assert _one_error_line(capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("gowers", "--signature", "x"), ("vcdim", "--signature", "x"),
    ("decompose", "--k", "1", "--signature", "x"),
    ("fibers", "--anchors", "0", "--signature", "x"), ("fibers", "--anchors", "x"),
    ("fibers", "--anchors", "0", "--params", "a;b")])
def test_malformed_integer_lists_exit_2(parity_doc, capsys, argv):
    assert run(*argv, "--input", str(parity_doc)) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and argv[-2] in err


@pytest.mark.parametrize("command", [
    ("gowers", "--out"), ("vcdim", "--out"), ("fibers", "--t", "1", "--anchors", "0", "--out"),
    ("decompose", "--k", "1", "--n-max", "2", "--report")])
def test_empty_list_items_are_skipped(tmp_path, parity_doc, command):
    # fibers needs arity 3: it selects parity3 on (0, 1, 2), the others F on (0, 1)
    fibers = command[0] == "fibers"
    reports = []
    for signature in (("0,1,2", ",0,,1,2,") if fibers else ("0,1", ",0,,1,")):
        out = tmp_path / "out.json"
        assert run(*command, str(out), "--input", str(parity_doc),
                   "--signature", signature) == 0
        comparable = load_json(out)["comparable"]
        assert comparable["config"].pop("signature", signature) == signature  # kept raw
        reports.append(dumps_canonical(comparable))
    assert reports[0] == reports[1]
    assert f'"function":"{"parity3" if fibers else "F"}"' in reports[0]


def test_fibers_refuses_a_two_ary_input(tmp_path, gadget_doc, capsys):
    # with k = 1 there is no coordinate set of size 1..k - 1 to cut on
    out = tmp_path / "fib.json"
    assert run("fibers", "--input", str(gadget_doc), "--t", "2", "--anchors", "0",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and "arity 3 or more" in err and "of arity 2" in err
    assert not out.exists()


@pytest.mark.parametrize("params, row", [(";", 0), ("1;", 1)])
def test_fibers_refuses_an_empty_params_row(tmp_path, parity_doc, capsys, params, row):
    # an empty row has no substitution for its index sets: refused, not dropped
    out = tmp_path / "fib.json"
    assert run("fibers", "--input", str(parity_doc), "--function", "parity3", "--t", "1",
               "--anchors", "0", "--params", params, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: parameter row {row} is empty\n"
    assert not out.exists()


def test_fiber_family_over_the_cap_exits_3(tmp_path, capsys):
    # (2**11 + 1) thresholds x 32 substitutions x 1 anchor x 256 cells is
    # one threshold's worth over 2**24
    inst = tmp_path / "bc.json"
    assert run("gen", "--kind", "boolcomb", "--params", "sizes=16x16x16",
               "--out", str(inst)) == 0
    capsys.readouterr()
    out = tmp_path / "fib.json"
    assert run("fibers", "--input", str(inst), "--t", "11", "--anchors", "0",
               "--out", str(out)) == 3
    assert _one_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_fiber_thresholds_over_the_cap_exit_3(parity_doc, monkeypatch, capsys):
    # the threshold count is refused before the family is sized; a 2-ary
    # function, which the library maps to an empty family, scans every threshold
    from vck_lab import FiberFamilySpec, fiber_family, membership_gadget
    from vck_lab.errors import ResourceLimitError
    monkeypatch.setattr("vck_lab.defaults.ARRAY_CAP", 1 << 10)
    gadget = membership_gadget(2, 1)
    assert not fiber_family(gadget, FiberFamilySpec(9, (0,), ((0, 1),)))
    with pytest.raises(ResourceLimitError, match="dyadic height 10"):
        fiber_family(gadget, FiberFamilySpec(10, (0,), ((0, 1),)))
    assert run("fibers", "--input", str(parity_doc), "--function", "parity3", "--t", "10",
               "--anchors", "0") == 3
    assert capsys.readouterr().err == "error: dyadic height 10 makes 2**10 + 1 thresholds (cap 1024)\n"


def test_out_of_memory_exits_3(gadget_doc, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("vck_lab.gowers.box_norm", no_memory)
    assert run("gowers", "--input", str(gadget_doc)) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


_small_int = st.integers(-1, 9).map(str)


def _joined(sep):
    return st.lists(_small_int | st.just(""), max_size=4).map(sep.join)


_flag_text = st.one_of(st.text(alphabet="0123456789,;x=- a", max_size=10), _joined(","),
                       st.lists(_joined(","), max_size=3).map(";".join))
_param_value = st.one_of(st.text(alphabet="0123456789x-.ae", max_size=8), _small_int,
                         _joined("x"))
_gen_keys = {"membership": ("d", "k"), "boolcomb": ("kprime", "k", "m", "sizes"),
             "parity": ("n",), "quasirandom": ("sizes", "signature", "p")}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_flag_text_exits_with_a_known_code(tmp_path, parity_doc, monkeypatch,
                                                   capsys, data):
    # a small array cap keeps accepted requests cheap; the real cap's
    # refusals are tested above
    monkeypatch.setattr("vck_lab.defaults.ARRAY_CAP", 1 << 12)
    inst, out = str(parity_doc), str(tmp_path / "out")
    text = data.draw(_flag_text)
    flag = data.draw(st.sampled_from(["signature", "anchors", "fibers params", "gen params",
                                      "d"]))
    if flag == "signature":
        command = data.draw(st.sampled_from([
            ("gowers",), ("vcdim",), ("fibers", "--t", "1", "--anchors", "0"),
            ("decompose", "--k", "1", "--n-max", "2")]))
        argv = [*command, "--input", inst, f"--signature={text}"]
    elif flag == "anchors":
        argv = ["fibers", "--input", inst, "--t", "1", f"--anchors={text}"]
    elif flag == "fibers params":
        argv = ["fibers", "--input", inst, "--t", "1", "--anchors", "0", f"--params={text}"]
    elif flag == "gen params":
        kind = data.draw(st.sampled_from(sorted(_gen_keys)))
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(_gen_keys[kind]), _param_value),
                                   min_size=1, max_size=3))
        argv = ["gen", "--kind", kind, "--out", out,
                "--params=" + ",".join(f"{key}={value}" for key, value in pairs)]
    else:
        argv = ["adversary", f"--d={text}", "--trials", "1", "--score-trials", "1",
                "--restarts", "1", "--n-terms", "1", "--out", out]
    if flag != "gen params" and argv[0] != "adversary":
        argv += ["--report" if argv[0] == "decompose" else "--out", out]
    try:
        code = run(*argv)
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith(("error: ", "vck-lab")), (argv, err)


# -- diagnostics ----------------------------------------------------------------------

def test_vcdim_diagnostics_outside_comparable_and_reproducible(tmp_path, gadget_doc):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("vcdim", "--input", str(gadget_doc), "--k", "1", "--out", str(out)) == 0
    doc = load_json(a)
    assert list(doc) == ["comparable", "diagnostics", "wall_time_s"]
    assert "diagnostics" not in doc["comparable"]
    assert doc["diagnostics"] == load_json(b)["diagnostics"]
    levels = doc["diagnostics"]["levels"]
    assert [level["d"] for level in levels] == [1, 2]
    assert all(set(level) == {"d", "boxes", "checked", "count_bound"} for level in levels)
    # the bytes up to wall time, diagnostics included, repeat exactly
    cut = [p.read_bytes().rsplit(b',"wall_time_s":', 1)[0] for p in (a, b)]
    assert cut[0] == cut[1]


def test_adversary_diagnostics_count_the_fits(tmp_path, capsys):
    argv = ("adversary", "--k", "1", "--d", "2,3", "--trials", "3", "--score-trials", "2",
            "--restarts", "2", "--n-terms", "3", "--seed", "5",
            "--out", str(tmp_path / "curve.csv"))
    reports = []
    for _ in range(2):
        assert run(*argv) == 0
        reports.append(capsys.readouterr().out)
    doc = json.loads(reports[0])
    assert list(doc) == ["comparable", "diagnostics", "wall_time_s"]
    serial = [inapproximability_score_oracle(
        random_pattern(d, 1, 0.5, 5, trial=(di << 16) | t), 1, 3, seed=5, restarts=2)
        for di, d in enumerate((2, 3)) for t in range(2)]
    # one worker task per function: 4 patterns, each with its 2 restarts
    assert doc["diagnostics"] == {"workers": min(adversary._cpu_count(), 4), "fits": 8,
                                  "als_sweeps": sum(sweeps for _, sweeps, _ in serial),
                                  "bvls_steps": sum(steps for _, _, steps in serial)}
    # no timings: the bytes up to wall time, diagnostics included, repeat exactly
    cut = [report.rsplit(',"wall_time_s":', 1)[0] for report in reports]
    assert cut[0] == cut[1]


def test_decompose_diagnostics_count_the_fit(tmp_path):
    instance = tmp_path / "bc.json"
    assert run("gen", "--kind", "boolcomb", "--params", "kprime=3,k=1,m=4,sizes=6x6x6",
               "--seed", "3", "--out", str(instance)) == 0
    reports = [tmp_path / "a.json", tmp_path / "b.json"]
    for report in reports:
        assert run("decompose", "--input", str(instance), "--k", "1", "--n-max", "6",
                   "--report", str(report)) == 0
    doc = load_json(reports[0])
    assert list(doc) == ["comparable", "diagnostics", "wall_time_s"]
    fit, diagnostics = doc["comparable"]["results"]["fit"], doc["diagnostics"]
    assert set(diagnostics) == {"als_sweeps", "bvls_steps", "sweeps_per_term", "sweep_errors"}
    # one entry per term the fit grew to; every sweep ends in a solve
    assert diagnostics["als_sweeps"] == fit["iterations"] == sum(diagnostics["sweeps_per_term"])
    assert len(diagnostics["sweep_errors"]) == diagnostics["als_sweeps"]
    assert min(diagnostics["sweep_errors"]) >= fit["error"] - 1e-9
    assert len(diagnostics["sweeps_per_term"]) == fit["n"]
    assert diagnostics["bvls_steps"] >= diagnostics["als_sweeps"] + fit["n"]
    assert comparable_bytes(reports[0]) == comparable_bytes(reports[1])
    cut = [p.read_bytes().rsplit(b',"wall_time_s":', 1)[0] for p in reports]
    assert cut[0] == cut[1]
    # the Boolean fit has no ALS counters to report
    assert run("decompose", "--input", str(instance), "--k", "1", "--mode", "boolean",
               "--report", str(reports[0])) == 0
    assert list(load_json(reports[0])) == ["comparable", "wall_time_s"]


@pytest.mark.parametrize("argv", [
    ("fibers", "--input", "{inst}", "--anchors=--"), ("adversary", "--d=--", "--out", "{out}"),
    ("gowers", "--input", "{inst}", "--signature=--")])
def test_option_value_dashes_exits_2(tmp_path, gadget_doc, argv, capsys):
    # argparse before Python 3.12 reads the value "--" as an empty list, not
    # as text that the option's own parse refuses
    argv = [a.format(inst=gadget_doc, out=tmp_path / "c.csv") for a in argv]
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_boolean_decompose_refuses_seed_and_reports_zero(tmp_path, gadget_doc, capsys):
    # the Boolean fit draws nothing at random; only the weighted fit takes a seed
    out = tmp_path / "r.json"
    argv = ["decompose", "--input", str(gadget_doc), "--k", "1", "--mode", "boolean",
            "--report", str(out)]
    assert run(*argv, "--seed", "5") == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()
    assert run(*argv) == 0
    assert load_json(out)["comparable"]["seed"] == 0


@pytest.mark.parametrize("command,extra", [
    ("vcdim", ()), ("gowers", ()), ("fibers", ("--anchors", "0", "--function", "parity3"))])
def test_seedless_subcommands_refuse_seed_and_report_zero(tmp_path, parity_doc,
                                                          command, extra, capsys):
    # nothing these commands compute is random, so a seed could only make
    # identical results compare unequal
    with pytest.raises(SystemExit) as exc:
        run(command, "--input", str(parity_doc), *extra, "--seed", "1")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert run(command, "--input", str(parity_doc), *extra, "--out", str(out)) == 0
    assert load_json(out)["comparable"]["seed"] == 0
