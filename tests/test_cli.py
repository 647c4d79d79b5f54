"""CLI behavior: exit codes, JSON schema, determinism."""

import json
import os
import re
import subprocess
import sys
from collections import Counter

from khoarrow.algebra import ODD
from khoarrow.chain import build_unreduced
from khoarrow.cli import SUITES, build_parser, main
from khoarrow.diagram import parse_gauss, parse_pd
from khoarrow.homology import homology
from khoarrow.jones import LaurentPoly, jones
from khoarrow.reduced import build_reduced

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


def run(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "khoarrow.cli", *argv],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_homology_json_schema():
    code, out, err = run("homology", "--pd", TREFOIL, "--theory", "odd",
                         "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["theory"] == {"x": 1, "y": -1, "z": 1}
    assert doc["reduced"] is False
    assert doc["convention"] == "standard"
    assert doc["input"].startswith("pd:")
    assert {"h": -3, "q": -9, "betti": 1, "torsion": []} in doc["groups"]
    assert len(doc["groups"]) == 6


def test_homology_json_is_deterministic():
    a = run("homology", "--pd", TREFOIL, "--reduced", "--format", "json")
    b = run("homology", "--pd", TREFOIL, "--reduced", "--format", "json")
    assert a == b and a[0] == 0


def _circle_times_chi(rows):
    """(q + q^-1) times the Euler characteristic of (h, q, betti) rows."""
    chi = LaurentPoly()
    for h, q, b in rows:
        chi = chi + LaurentPoly.monomial(q, -b if h % 2 else b)
    return LaurentPoly({1: 1, -1: 1}) * chi


def test_reduced_table_output():
    # reduced Khovanov homology of the left trefoil: (0,-2), (-2,-6), (-3,-8)
    code, out, err = run("homology", "--pd", TREFOIL, "--reduced",
                         "--format", "table")
    assert code == 0
    assert "betti" in out
    rows = [tuple(int(x) for x in line.split()[:3])
            for line in out.splitlines()[1:]]
    assert rows == [(-3, -8, 1), (-2, -6, 1), (0, -2, 1)]
    assert _circle_times_chi(rows) == jones(parse_pd(TREFOIL))


def test_reduced_honours_theory():
    # T(3, 4), where odd and even reduced homology differ
    t34 = "O1+O2+U4+U5+O7+O8+U2+U3+O5+O6+U8+U1+O3+O4+U6+U7+"
    docs = {}
    for theory in ("even", "odd"):
        code, out, _ = run("homology", "--gauss", t34, "--reduced",
                           "--theory", theory)
        assert code == 0
        docs[theory] = json.loads(out)
    assert docs["odd"]["theory"] == {"x": 1, "y": -1, "z": 1}
    rows = homology(build_reduced(parse_gauss(t34), ODD)).group_rows()
    assert docs["odd"]["groups"] == [
        {"h": h, "q": q, "betti": b, "torsion": list(t)}
        for h, q, b, t in rows]
    assert docs["odd"]["groups"] != docs["even"]["groups"]


def test_gauss_and_file_inputs(tmp_path):
    f = tmp_path / "d.pd"
    f.write_text(TREFOIL)
    code_f, out_f, _ = run("homology", "--file", str(f), "--format", "json")
    code_g, out_g, _ = run("homology", "--gauss", "O1-U2-O3-U1-O2-U3-",
                           "--format", "json")
    assert code_f == code_g == 0
    assert (json.loads(out_f)["groups"] == json.loads(out_g)["groups"])


def test_custom_theory_flags():
    code, out, _ = run("homology", "--pd", "", "--theory", "custom",
                       "--x", "-1", "--y", "-1", "--z", "-1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["theory"] == {"x": -1, "y": -1, "z": -1}


def test_sign_flags_outside_plus_minus_one_are_usage_errors():
    # argparse rejects them with exit 2, whatever the theory; --theory even
    # used to accept --x 2 silently
    for theory in ("custom", "even"):
        code, out, err = run("homology", "--pd", "", "--theory", theory,
                             "--x", "2")
        assert code == 2 and out == ""
        assert "invalid choice" in err and "Traceback" not in err


def test_parse_error_exit_code():
    code, out, err = run("homology", "--pd", "garbage")
    assert code == 1 and out == "" and "error" in err


def test_virtual_code_exit_code():
    # a virtual (non-planar) code parses, and the cube build finds a
    # crossing whose surgery leaves one circle instead of splitting it
    for extra in ((), ("--reduced",), ("--theory", "odd")):
        code, out, err = run("homology", "--gauss", "O1-O2-U1-U2-", *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_size_guard_exit_code():
    big = " ".join(f"X[{4*i+1},{4*i+2},{4*i+2},{4*i+1}]" for i in range(11))
    code, out, err = run("homology", "--pd", big)
    assert code == 2 and "exceeds" in err


def test_verify_single_suite():
    code, out, err = run("verify", "--suite", "euler")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines and all(l.startswith("[pass]") for l in lines)


def test_verify_unknown_suite_rejected():
    code, _, err = run("verify", "--suite", "nonsense")
    assert code == 2 and "invalid choice" in err


def test_verify_rejects_homology_options():
    code, out, err = run("verify", "--theory", "odd")
    assert code == 2 and out == "" and "unrecognized arguments" in err


def test_verify_prints_every_check(capsys):
    # the number of [pass] lines per suite; a refactor that silently drops
    # a check changes them.  The suite timings go to stderr, one line
    # each, so stdout stays the same
    assert main(["verify"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert all(line.startswith("[pass] ") for line in lines)
    assert Counter(line.split()[1] for line in lines) == {
        "d2": 50, "euler": 40, "commuting-square": 10, "graph-span": 10,
        "rm-invariance": 9, "arrows": 10, "snf": 1}
    timings = [re.fullmatch(r"(\S+) \d+\.\d\d s", line)
               for line in captured.err.splitlines()]
    assert all(timings), captured.err
    assert tuple(m[1] for m in timings) == SUITES


def test_main_callable_in_process(capsys):
    rc = main(["homology", "--pd", "", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["groups"] == [
        {"h": 0, "q": -1, "betti": 1, "torsion": []},
        {"h": 0, "q": 1, "betti": 1, "torsion": []}]


def test_label_zero_reads_like_any_other_label(capsys):
    # parse_pd reads decimal digits, so 0 is a label: the kink X[0,1,1,0]
    # has the table of the kink X[2,1,1,2], reduced or not
    for flags in ([], ["--reduced"]):
        for theory in ("even", "odd"):
            groups = []
            for pd in ("X[0,1,1,0]", "X[2,1,1,2]"):
                assert main(["homology", "--pd", pd, "--theory", theory,
                             "--format", "json", *flags]) == 0
                groups.append(json.loads(capsys.readouterr().out)["groups"])
            assert groups[0] == groups[1] and groups[0], (flags, theory)


def test_main_reuses_one_parser(capsys):
    assert build_parser() is build_parser()
    argv = ["homology", "--pd", TREFOIL, "--theory", "odd"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out.encode())
    assert outs[0] == outs[1] and outs[0]


def test_paper_convention_flag(capsys):
    rc = main(["homology", "--pd", TREFOIL, "--reduced",
               "--grading-convention", "paper", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    qs = sorted(g["q"] for g in doc["groups"])
    assert qs == [2, 6, 8]
    # the paper convention negates q, so chi is read at q^-1
    rows = [(g["h"], g["q"], g["betti"]) for g in doc["groups"]]
    assert (_circle_times_chi(rows)
            == jones(parse_pd(TREFOIL)).substitute_inverse())

    def groups(*argv):
        assert main(["homology", "--pd", TREFOIL, *argv]) == 0
        return capsys.readouterr().out

    # unreduced and reduced, as JSON and as a table, the paper's groups
    # are the standard ones with q negated
    for reduced in ((), ("--reduced",)):
        std = json.loads(groups(*reduced))["groups"]
        paper = json.loads(groups(*reduced, "--grading-convention", "paper"))
        assert paper["convention"] == "paper"
        assert paper["groups"] == sorted(
            ({**g, "q": -g["q"]} for g in std), key=lambda g: (g["h"], g["q"]))
        table = groups(*reduced, "--grading-convention", "paper",
                       "--format", "table").splitlines()[1:]
        assert [line.split() for line in table] == [
            [str(g["h"]), str(g["q"]), str(g["betti"]),
             ",".join(f"Z/{t}" for t in g["torsion"]) or "-"]
            for g in paper["groups"]]


def test_cli_never_imports_numpy():
    script = (
        "import contextlib, io, sys\n"
        "from khoarrow.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['homology', '--pd', {TREFOIL!r}, '--theory', 'odd']) == 0\n"
        f"    assert main(['homology', '--pd', {TREFOIL!r}, '--reduced']) == 0\n"
        "    assert main(['verify', '--suite', 'snf']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_reduced_boundary_leaving_the_subcomplex_exits_3(monkeypatch, capsys):
    import khoarrow.chain as chain

    edge_map = chain.edge_map

    def corrupted(sig, p):
        # every edge map conjugated by the flip of x on circle 0: faces
        # still anticommute and d^2 = 0, but the kept half of each block
        # is now the old discarded one, which the boundary leaves
        emap = edge_map(sig, p)
        kind, kI = sig[:2]
        kJ = kI - 1 if kind == "merge" else kI + 1
        top_I, top_J = 1 << (kI - 1), 1 << (kJ - 1)
        return [tuple((r ^ top_J, v) for r, v in emap[c ^ top_I])
                for c in range(len(emap))]

    monkeypatch.setattr(chain, "edge_map", corrupted)
    rc = main(["homology", "--pd", TREFOIL, "--reduced"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert "leaves the reduced generators" in captured.err


def test_file_that_is_not_utf8_exit_code(tmp_path):
    f = tmp_path / "d.pd"
    f.write_bytes(b"\xff\xfe X[1,4,2,5]")
    code, out, err = run("homology", "--file", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_complex_failing_its_check_exits_3(monkeypatch, capsys):
    import khoarrow.cli as cli
    from khoarrow.chain import BigradedComplex

    def not_a_complex(d, p):
        # identity followed by identity: d^2 != 0
        return BigradedComplex(
            groups={0: [0], 1: [0], 2: [0]},
            boundaries={0: [{0: 1}], 1: [{0: 1}]})

    monkeypatch.setattr(cli, "build_unreduced", not_a_complex)
    assert main(["verify", "--suite", "d2"]) == 3
    captured = capsys.readouterr()
    failed = [l for l in captured.out.splitlines() if l.startswith("[FAIL]")]
    assert failed and all(l.startswith("[FAIL] d2 unreduced ")
                          for l in failed)
    assert "check(s) failed" in captured.err
    assert main(["homology", "--pd", TREFOIL]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal consistency failure:")
