"""CLI behavior: exit codes, JSON schema, determinism."""

import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from khoarrow.algebra import ODD
from khoarrow.chain import q_slices
from khoarrow.cli import SUITES, build_parser, main
from khoarrow.diagram import DiagramError, parse_gauss, parse_pd
from khoarrow.homology import homology
from khoarrow.jones import LaurentPoly, jones

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
        chi = chi + LaurentPoly({q: -b if h % 2 else b})
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
    rows = homology(q_slices(parse_gauss(t34), ODD,
                             reduced=True)).group_rows()
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


def test_sign_flags_outside_the_custom_theory_are_usage_errors(capsys):
    # even and odd fix all three signs; a sign flag beside them used to be
    # dropped without a word.  The default theory is even
    code, out, err = run("homology", "--pd", TREFOIL, "--theory", "odd",
                         "--x", "-1")
    assert code == 2 and out == ""
    assert "argument --x" in err and "Traceback" not in err
    for theory in (("--theory", "even"), ("--theory", "odd"), ()):
        for flag in ("--x", "--y", "--z"):
            with pytest.raises(SystemExit) as exc:
                main(["homology", "--pd", TREFOIL, *theory, flag, "1"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and f"argument {flag}" in captured.err
    # custom reads a flag left out as 1
    assert main(["homology", "--pd", "", "--theory", "custom",
                 "--y", "-1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theory"] == {"x": 1, "y": -1, "z": 1}


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


def test_arrows_suite_fails_when_a_map_reads_arrow_direction(monkeypatch,
                                                             capsys):
    # the suite compares each distinct signature pair once: a split
    # signature that names the daughter of arc c, the arrow's source,
    # instead of the later one must still fail every diagram with a split
    import khoarrow.chain as chain

    signature = chain._signature

    def directed(i, n, mask, kI, kJ, arrow_I, arrow_J):
        sig = signature(i, n, mask, kI, kJ, arrow_I, arrow_J)
        return sig[:3] + (arrow_J[0],) if sig[0] == "split" else sig

    monkeypatch.setattr(chain, "_signature", directed)
    assert main(["verify", "--suite", "arrows"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert "[pass] arrows unknot" in lines      # no crossing, no edge
    assert "[FAIL] arrows trefoil" in lines


def test_euler_suite_fails_when_a_generator_is_dropped(monkeypatch, capsys):
    # the suite counts generators through _Assembly.counts without
    # writing a column: one generator fewer in every slice must fail
    # every check
    import khoarrow.chain as chain

    counts = chain._Assembly.counts

    def dropping(self, q):
        out = counts(self, q)
        out[min(out)] -= 1
        return out

    monkeypatch.setattr(chain._Assembly, "counts", dropping)
    assert main(["verify", "--suite", "euler"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 40
    assert all(line.startswith("[FAIL] euler ") for line in lines)


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


def test_non_ascii_digits_are_no_labels(capsys):
    # int() reads every Unicode digit: a parser matching any digit would
    # take the Arabic-Indic 3 of X[\u0663,\u0663,1,1] for a 3 and print
    # the unknot's table
    pd, gauss = "X[\u0663,\u0663,1,1]", "O\u0661-U\u0661-"
    with pytest.raises(DiagramError):
        parse_pd(pd)
    with pytest.raises(DiagramError):
        parse_gauss(gauss)
    for flag, code in (("--pd", pd), ("--gauss", gauss)):
        assert main(["homology", flag, code]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


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
    standard = jones(parse_pd(TREFOIL)).coeffs
    assert _circle_times_chi(rows) == LaurentPoly(
        {-e: c for e, c in standard.items()})

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


def _flip_circle_0(monkeypatch):
    # every edge map conjugated by the flip of x on circle 0: faces still
    # anticommute and d^2 = 0, but the kept half of each block is now the
    # old discarded one, which the boundary leaves
    import khoarrow.chain as chain

    edge_map = chain.edge_map

    def corrupted(sig, p):
        emap = edge_map(sig, p)
        kind, kI = sig[:2]
        kJ = kI - 1 if kind == "merge" else kI + 1
        top_I, top_J = 1 << (kI - 1), 1 << (kJ - 1)
        return [tuple((r ^ top_J, v) for r, v in emap[c ^ top_I])
                for c in range(len(emap))]

    monkeypatch.setattr(chain, "edge_map", corrupted)


def _double_a_merge(monkeypatch):
    # column 0 of the merge of two circles, 1 (x) 1 -> 1, with its
    # coefficient doubled: a face with that edge on it is no longer
    # +-proportional, so the sign solve finds no signs
    import khoarrow.chain as chain

    edge_map = chain.edge_map

    def corrupted(sig, p):
        emap = edge_map(sig, p)
        if sig == ("merge", 2, 0, 1):
            (row, v), = emap[0]
            emap[0] = ((row, 2 * v),)
        return emap

    monkeypatch.setattr(chain, "edge_map", corrupted)


def test_reduced_boundary_leaving_the_subcomplex_exits_3(monkeypatch, capsys):
    # the writer finds the entry that lands in the discarded half: it is
    # no generator of its target degree
    _flip_circle_0(monkeypatch)
    rc = main(["homology", "--pd", TREFOIL, "--reduced"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == (
        "internal consistency failure: d_-3: index 1 of a target block of "
        "a column of q = -8 is no generator of degree -2 and that q\n")


def test_verify_reports_a_build_with_no_signs_and_goes_on(monkeypatch,
                                                          capsys):
    # every diagram whose cube has a face through the doubled merge
    # fails at each preset and reduced; the others still pass, and every
    # one of the 50 checks is reported
    _double_a_merge(monkeypatch)
    assert main(["verify", "--suite", "d2"]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 50
    assert all(line.startswith(("[pass] d2 ", "[FAIL] d2 ")) for line in lines)
    failed = {line.split()[3] for line in lines if line.startswith("[FAIL]")}
    assert failed == {"figure8", "trefoil_r1", "trefoil_r2", "figure8_r2",
                      "figure8_r3"}
    assert sum(line.startswith("[FAIL]") for line in lines) == 25
    assert "25 check(s) failed" in captured.err


def test_a_library_caller_catches_every_unsound_build_as_not_a_complex(
        monkeypatch):
    import khoarrow
    from khoarrow import EVEN, corpus

    with monkeypatch.context() as patch:
        _double_a_merge(patch)
        with pytest.raises(khoarrow.NotAComplex,
                           match=r"composites not \+-proportional"):
            homology(q_slices(corpus.get("figure8"), EVEN))
    _flip_circle_0(monkeypatch)
    with pytest.raises(khoarrow.NotAComplex, match="of a target block"):
        list(q_slices(parse_pd(TREFOIL), EVEN, reduced=True))


def test_file_that_is_not_utf8_exit_code(tmp_path):
    f = tmp_path / "d.pd"
    f.write_bytes(b"\xff\xfe X[1,4,2,5]")
    code, out, err = run("homology", "--file", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_complex_failing_its_check_exits_3(monkeypatch, capsys):
    import khoarrow.chain as chain
    import khoarrow.cli as cli

    sound_slices = cli.q_slices

    def not_a_complex(d, p, reduced=False):
        if reduced:
            yield from sound_slices(d, p, reduced)
            return
        # identity followed by identity, rows as slice ids: d^2 != 0
        yield 0, {0: 1, 1: 1, 2: 1}, {0: [{1: 1}], 1: [{2: 1}]}

    monkeypatch.setattr(cli, "q_slices", not_a_complex)
    assert main(["verify", "--suite", "d2"]) == 3
    captured = capsys.readouterr()
    failed = [l for l in captured.out.splitlines() if l.startswith("[FAIL]")]
    assert failed and all(l.startswith("[FAIL] d2 unreduced ")
                          for l in failed)
    assert "check(s) failed" in captured.err
    # verify's d2 suite and homology read the same q-slices: signs that
    # make every face commute, not anticommute, reach both and give
    # d^2 != 0
    monkeypatch.setattr(cli, "q_slices", sound_slices)
    monkeypatch.setattr(chain, "solve_signs", lambda maps, n: [1] * len(maps))
    assert main(["verify", "--suite", "d2"]) == 3
    captured = capsys.readouterr()
    failed = [l for l in captured.out.splitlines() if l.startswith("[FAIL]")]
    assert any(l.startswith("[FAIL] d2 unreduced trefoil ") for l in failed)
    assert main(["homology", "--pd", TREFOIL]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal consistency failure:")
    assert "is not zero" in captured.err


@pytest.mark.parametrize("flags", [(), ("--reduced",)])
def test_a_late_slice_failing_its_check_prints_no_table(flags, monkeypatch,
                                                         capsys):
    # the first q-slices are sound and reduced; a later one has a row
    # outside every degree.  The failure leaves stdout empty: no partial
    # table is printed
    import khoarrow.cli as cli

    q_slices, sound, broken = cli.q_slices, [], []

    def late_defect(d, p, reduced=False):
        slices = list(q_slices(d, p, reduced))
        late = max(i for i, (_, _, cols) in enumerate(slices) if cols)
        q, _, cols = slices[late]
        cols[min(cols)][0][-1] = 1
        broken.append(q)
        for s in slices:
            yield s
            sound.append(s[0])

    monkeypatch.setattr(cli, "q_slices", late_defect)
    rc = main(["homology", "--pd", "X[1,6,2,7] X[3,8,4,9] X[5,10,6,1] "
               "X[7,2,8,3] X[9,4,10,5]", "--theory", "odd", *flags])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    # every slice before the broken one was checked and reduced
    assert len(sound) >= 2 and broken
    assert captured.err.startswith("internal consistency failure:")
    assert f"row -1 of a column of q = {broken[0]} " in captured.err
