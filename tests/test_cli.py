import json

import pytest

from pihall import cli, hall, structure
from pihall.config import DEFAULT_BUDGETS, Budgets
from pihall.tables import ElementTable


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_zoo_name(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, out, _ = run(["analyze", "alt5", "--pi", "2,3",
                        "--json", str(out_path)], capsys)
    assert code == 0
    assert "E=True C=True D=False k=1" in out
    data = json.loads(out_path.read_text())
    assert data["results"]["k"] == 1
    assert data["schema_version"] == "1"


def test_analyze_gl32(capsys):
    code, out, _ = run(["analyze", "gl3_2", "--pi", "2,3"], capsys)
    assert code == 0 and "C=False" in out and "k=2" in out


def test_analyze_disjoint_pi(capsys):
    code, out, _ = run(["analyze", "sym4", "--pi", "7"], capsys)
    assert code == 0 and "C=True" in out and "k=1" in out


def test_analyze_exit_codes(capsys):
    code, _, err = run(["analyze", "alt5", "--pi", "2,notaprime"], capsys)
    assert code == 4
    # a 25-digit prime is past the range where primality is exact
    code, _, err = run(["analyze", "alt5", "--pi", f"2,{10**24 + 7}"], capsys)
    assert code == 4 and "primality bound" in err
    code, _, err = run(["analyze", "missing-group", "--pi", "2"], capsys)
    assert code == 2
    # a budget below 1 or not an integer is a parse error naming its flag
    for argv in (["analyze", "sym5", "--pi", "2,3", "--budget-order", "0"],
                 ["analyze", "sym5", "--pi", "2,3", "--budget-nodes", "-5"],
                 ["reduce", "sym5", "--pi", "2,3", "--budget-nodes", "-5"],
                 ["corpus", "--budget-order", "ten"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and argv[-2] in err, (argv, err)
    for field in ("node_budget", "order_budget", "coset_degree_budget",
                  "element_action_budget"):
        with pytest.raises(ValueError, match=field):
            Budgets(**{field: 0})


def test_budget_exit_code(capsys):
    code, out, _ = run(["analyze", "gl4_2", "--pi", "2,3",
                        "--budget-order", "50"], capsys)
    assert code == 3


def test_reduce_with_comparison(capsys):
    code, out, _ = run(["reduce", "sym5", "--pi", "2,3", "--compare-oracle"],
                       capsys)
    assert code == 0 and "agree=True" in out
    code, out, _ = run(["reduce", "gl3_2", "--pi", "2,3", "--compare-oracle"],
                       capsys)
    assert code == 0 and "reduction=False" in out


def test_reduce_sylow_case(capsys):
    code, out, _ = run(["reduce", "sym4", "--pi", "2"], capsys)
    assert code == 0 and "verdict=True" in out


def test_k_command(capsys):
    code, out, _ = run(["k", "sym5", "--normal", "minimal:0", "--pi", "2,3"],
                       capsys)
    assert code == 0 and "k_induced=1 k_total=1" in out


def test_k_definitional(capsys, tmp_path):
    emit = tmp_path / "g.json"
    code, _, _ = run(["zoo", "emit", "sym5", "--out", str(emit)], capsys)
    assert code == 0
    code, out, _ = run(["k", "sym5", "--normal", f"file:{emit}",
                        "--pi", "2,3"], capsys)
    assert code == 0 and "k_induced=1" in out


def test_k_rejects_non_normal(capsys, tmp_path):
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps(
        {"name": "c2", "degree": 5, "generators": [[1, 0, 2, 3, 4]]}))
    code, out, err = run(["k", "sym5", "--normal", f"file:{bad}",
                          "--pi", "2,3"], capsys)
    assert code == 6 and out == ""
    assert err.startswith("error: ") and "is not normal" in err


def test_k_budget_error_resolving_normal_is_reported(capsys, tmp_path):
    # the socle's minimal normal subgroups are past a 10-element budget;
    # that is an answer like any other budget error: the tri-state report,
    # the summary line and exit 3
    out_path = tmp_path / "k.json"
    code, out, err = run(["k", "sym3wr2", "--normal", "socle", "--pi", "2,3",
                          "--budget-order", "10", "--json", str(out_path)],
                         capsys)
    assert code == 3 and err == ""
    assert out == "k sym3wr2: budget_exceeded:minimal-normal\n"
    data = json.loads(out_path.read_text())
    assert data["results"] == {"verdict": "budget_exceeded:minimal-normal"}
    assert data["command"] == "k" and data["pi"] == "2,3"


def test_k_bad_subgroup_specs_exit_6(capsys, tmp_path):
    # a group file of the wrong degree, a non-integer minimal index and an
    # unknown zoo name are bad subgroup specs, not tracebacks
    small = tmp_path / "s4.json"
    code, _, _ = run(["zoo", "emit", "sym4", "--out", str(small)], capsys)
    assert code == 0
    for spec in (f"file:{small}", "minimal:x", "zoo:no-such-group"):
        code, _, err = run(["k", "sym5", "--normal", spec, "--pi", "2,3"],
                           capsys)
        assert code == 6, spec
        assert err.startswith("error: "), spec


def test_k_normal_specs_get_the_seed(monkeypatch, capsys):
    # --seed must reach the minimal normal subgroups behind socle and
    # minimal:<i>: past the order budget they are found by sampling
    seen = []
    real = cli.minimal_normal_subgroups

    def record(G, budgets=DEFAULT_BUDGETS, seed=1):
        seen.append(seed)
        return real(G, budgets, seed)

    monkeypatch.setattr(cli, "minimal_normal_subgroups", record)
    for spec in ("minimal:0", "socle"):
        code, _, _ = run(["k", "sym5", "--pi", "2,3", "--seed", "7",
                          "--normal", spec], capsys)
        assert code == 0, spec
    assert seen == [7, 7]


def test_k_over_the_center(capsys, tmp_path):
    out_path = tmp_path / "k.json"
    code, out, _ = run(["k", "psl2_7xc2", "--normal", "center",
                        "--pi", "2,3", "--json", str(out_path)], capsys)
    assert code == 0 and "k_induced=1 k_total=1" in out
    normal = json.loads(out_path.read_text())["results"]["normal_subgroup"]
    assert normal == {"spec": "center", "order": 2}


def test_k_direct_product_factor(capsys):
    code, out, _ = run(["k", "alt5xalt5", "--normal", "minimal:0",
                        "--pi", "2,3"], capsys)
    assert code == 0 and "k_induced=1" in out


def test_group_file_parse_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"degree": 3, "generators": [[0, 1]]}')
    code, _, err = run(["analyze", str(bad), "--pi", "2"], capsys)
    assert code == 2 and "generator #0" in err

    bad.write_text('{"degree": 3,\n "generators": [[0, 1, ]]}')
    code, _, err = run(["analyze", str(bad), "--pi", "2"], capsys)
    assert code == 2 and "line" in err

    # a file of the wrong shape names what is wrong, also when it comes in
    # as k's normal subgroup
    for text, field in [('{"degree": 3, "generators": 5}', "generators"),
                        ("5", "top level"),
                        # JSON booleans are no integers
                        ('{"degree": true, "generators": [[0]]}', "degree"),
                        ('{"degree": 3, "generators": [[true, false, 2]]}',
                         "generator #0")]:
        bad.write_text(text)
        for argv in (["analyze", str(bad), "--pi", "2"],
                     ["k", "sym5", "--normal", f"file:{bad}", "--pi", "2,3"]):
            code, _, err = run(argv, capsys)
            assert code == 2 and field in err, (text, argv)


def test_corpus_manifest_shape_errors(capsys, tmp_path):
    from pihall import zoo as z
    entry = next(e for e in z.corpus_manifest()
                 if (e["name"], e["pi"]) == ("alt5", "2,3"))
    cases = [([entry], "entries")]
    for key in ("name", "pi", "expected"):
        cases.append(({"entries": [{k: v for k, v in entry.items()
                                    if k != key}]}, key))
    cases.append(({"entries": [dict(entry, name="no-such-group")]},
                  "no-such-group"))
    # an 'expected' of the wrong shape, and a boolean k
    cases.append(({"entries": [dict(entry, expected=5)]}, "expected"))
    cases.append(({"entries": [dict(entry, expected=dict(
        entry["expected"], k=True))]}, "expected"))
    path = tmp_path / "m.json"
    for manifest, field in cases:
        path.write_text(json.dumps(manifest))
        code, _, err = run(["corpus", "--manifest", str(path)], capsys)
        assert code == 2 and repr(field) in err, field


def test_zoo_emit_and_list(capsys, tmp_path):
    code, out, _ = run(["zoo", "list"], capsys)
    assert code == 0 and "oracle-bootstrap" in out
    path = tmp_path / "alt5.json"
    code, _, _ = run(["zoo", "emit", "alt5", "--out", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    assert data["degree"] == 5 and len(data["generators"]) == 3


def test_example_command(capsys, gl52_example_report):
    code, out, _ = run(["example-gl52"], capsys)
    assert code == 0
    assert "all 19 claims verified" in out and "1 of them assumed" in out
    assert "[assumed] induced-class-count" in out


def test_corpus_single_entry_manifest(capsys, tmp_path):
    from pihall import zoo as z
    manifest = {"entries": [{
        "name": "alt5", "builder": z.ZOO_NAMES["alt5"], "degree": 5,
        "order": 60, "pi": "2,3",
        "expected": {"E": True, "C": True, "D": False, "k": 1},
        "provenance": "oracle-bootstrap seed=1"}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run(["corpus", "--manifest", str(path)], capsys)
    assert code == 0
    assert "alt5" in out and "all suites pass" in out


def test_corpus_solvable_restriction(capsys, tmp_path):
    from pihall import zoo as z
    entries = [e for e in z.corpus_manifest()
               if e["name"] in ("sym3", "sym4", "cyclic12", "dihedral6")]
    assert all(e["expected"]["D"] for e in entries)
    path = tmp_path / "solv.json"
    path.write_text(json.dumps({"entries": entries}))
    code, out, _ = run(["corpus", "--manifest", str(path)], capsys)
    assert code == 0 and "all suites pass" in out


def test_report_round_trip(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    run(["reduce", "sym5", "--pi", "2,3", "--json", str(out_path)], capsys)
    data = json.loads(out_path.read_text())
    assert data["results"]["verdict"] is True
    assert json.loads(json.dumps(data)) == data


def test_report_results_deterministic_across_runs(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        run(["analyze", "psl2_7", "--pi", "2,3", "--seed", "1",
             "--json", str(p)], capsys)
    loaded = []
    for p in paths:
        data = json.loads(p.read_text())
        data.pop("timings")
        loaded.append(json.dumps(data, sort_keys=True))
    assert loaded[0] == loaded[1]


def test_corpus_flags_manifest_mismatch(capsys, tmp_path):
    from pihall import zoo as z
    entry = dict(next(e for e in z.corpus_manifest()
                      if (e["name"], e["pi"]) == ("alt5", "2,3")))
    entry["expected"] = {"E": True, "C": False, "D": False, "k": 2}
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"entries": [entry]}))
    code, out, _ = run(["corpus", "--manifest", str(path)], capsys)
    assert code == 5
    assert "FAILURES PRESENT" in out


def test_corpus_budget_error_is_reported(capsys, tmp_path):
    # past a 50-element budget the entries and suites report the budget
    # verdict, each suite keeping its count, and the report is written;
    # a manifest mismatch on a decided entry is still a failure
    from pihall import zoo as z
    entries = [e for e in z.corpus_manifest()
               if (e["name"], e["pi"]) in (("alt5", "2,3"), ("sym4", "2"),
                                           ("gl3_2", "2,3"))]
    path, out_path = tmp_path / "m.json", tmp_path / "r.json"
    path.write_text(json.dumps({"entries": entries}))
    argv = ["corpus", "--manifest", str(path), "--budget-order", "50",
            "--json", str(out_path)]
    code, out, _ = run(argv, capsys)
    assert code == 3 and "corpus: budget exceeded" in out
    results = json.loads(out_path.read_text())["results"]
    observed = {e["name"]: e["observed"] for e in results["entries"]}
    assert observed["alt5"] == "budget_exceeded:enumeration-order"
    assert isinstance(observed["sym4"], dict)
    suites = {s["key"]: s for s in results["suites"]}
    assert suites["lemma-4.1"] == {
        "key": "lemma-4.1", "name": "hall-intersection-and-image",
        "checked": 2, "passed": False, "violations": [],
        "notes": ["budget_exceeded:enumeration-order"]}
    assert suites["lemma-4.2"]["passed"] and not results["all_suites_pass"]
    entries[[e["name"] for e in entries].index("sym4")]["expected"] = {
        "E": True, "C": False, "D": False, "k": 2}
    path.write_text(json.dumps({"entries": entries}))
    code, out, _ = run(argv, capsys)
    assert code == 5 and "FAILURES PRESENT" in out


def test_example_budget_error_is_reported(capsys, tmp_path):
    out_path = tmp_path / "e.json"
    code, out, _ = run(["example-gl52", "--budget-nodes", "10",
                        "--json", str(out_path)], capsys)
    assert code == 3
    assert out == "example-gl52: budget_exceeded:search-nodes\n"
    data = json.loads(out_path.read_text())
    assert data["results"] == {"verdict": "budget_exceeded:search-nodes"}


def test_corpus_parallel_jobs(capsys, tmp_path):
    from pihall import zoo as z
    entries = [e for e in z.corpus_manifest()
               if e["name"] in ("alt5", "sym4", "gl3_2")]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": entries}))
    code, out, _ = run(["corpus", "--manifest", str(path), "--jobs", "2"],
                       capsys)
    assert code == 0 and "all suites pass" in out
    # output order follows the manifest, not completion order
    lines = [l.split()[0] for l in out.splitlines()
             if l.startswith(("alt5", "sym4", "gl3_2"))]
    assert lines == [e["name"] for e in entries]


def test_verification_failure_exit_code(monkeypatch, capsys):
    enumerate_all = ElementTable._enumerate
    monkeypatch.setattr(ElementTable, "_enumerate", staticmethod(
        lambda G, dtype: enumerate_all(G, dtype)[:-1]))
    monkeypatch.setattr(structure, "_table_cache", {})
    monkeypatch.setattr(hall, "_classify_cache", {})
    code, _, err = run(["analyze", "alt5", "--pi", "2,3"], capsys)
    assert code == 5 and "verification failed" in err
