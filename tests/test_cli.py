import contextlib
import copy
import io
import json
import os
import random
import re
import tempfile
import time
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cupone.cli import (
    _FLUSH_CHARS,
    InputError,
    Workspace,
    build_parser,
    main,
    parse_group,
    parse_input,
    render_machine,
    run_command,
)
from cupone.dga import MAX_VALIDATED_PAIRS, free_truncated_dga, simplicial_cochain_dga, two_stage_hom_dga
from cupone.permutohedron import complex_description, iter_cells

DOC = {
    "cgas": {
        "P2": {"generators": {"x": 2, "y": 2}, "m": 6},
        "Q": {"generators": {"u": 2}, "m": 6},
    },
    "cga_maps": {
        "collapse": {
            "source": "P2",
            "target": "Q",
            "images": {"x": [[2, ["u"]]], "y": [[3, ["u"]]]},
        }
    },
    "dgas": {
        "A": {
            "basis": [["one", 0, 0], ["u", 1, -1], ["e", 2, -1], ["f", 2, -1]],
            "differential": {"u": [[1, "f"]]},
            "products": [
                ["one", "one", [[1, "one"]]],
                ["one", "u", [[1, "u"]]], ["u", "one", [[1, "u"]]],
                ["one", "e", [[1, "e"]]], ["e", "one", [[1, "e"]]],
                ["one", "f", [[1, "f"]]], ["f", "one", [[1, "f"]]],
            ],
            "unit": [[1, "one"]],
        }
    },
    "twistings": {
        "a": {"dga": "A", "truncation": 2, "components": {"2": [[1, "e"]]}},
        "b": {"dga": "A", "truncation": 2, "components": {"2": [[1, "e"], [5, "f"]]}},
        "c": {"dga": "A", "truncation": 2, "components": {"2": [[2, "e"]]}},
    },
    "gauges": {
        "p": {"dga": "A", "truncation": 2, "components": {"1": [[3, "u"]]}},
    },
    "homs": {
        "u5": {"source": "Z", "target": "Z", "matrix": [[2]]},
        "u1": {"source": "Z", "target": "Z", "matrix": [[1]]},
    },
    "hypotheses": {
        "good": {"m": 3, "cohomology": {"2": "Z", "3": "Z"}, "hurewicz": {"1": "u1", "2": "u5"}},
        "bad": {"m": 6, "cohomology": {"6": "Z/2"}, "hurewicz": {"5": "u5"}},
    },
    "spaces": {"circle": {"simplices": [[0, 1], [1, 2], [0, 2]]}},
}


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(DOC), encoding="utf-8")
    return str(path)


def test_parse_group_literals():
    assert str(parse_group("Z")) == "Z"
    assert str(parse_group("Z^2 + Z/4")) == "Z^2 + Z/4"
    assert parse_group("0").is_trivial
    assert parse_group("Z^3 + Z^2 + Z/4 + Z/6 + Z^0") == parse_group("Z^5 + Z/2 + Z/12")
    with pytest.raises(InputError):
        parse_group("Q")


def test_tor_reads_a_huge_rank_without_expanding_it(capsys):
    assert main(["--command", "tor", "--a", "Z^1000000000", "--b", "Z/2"]) == 0
    out = capsys.readouterr().out
    assert "a=Z^1000000000" in out and "tor: 0" in out


def test_syntax_error_has_position():
    with pytest.raises(InputError, match=r"doc:2:"):
        parse_input('{\n "cgas": }', source_name="doc")


def test_semantic_rejections():
    with pytest.raises(InputError, match="cgas.Podd"):
        parse_input(json.dumps({"cgas": {"Podd": {"generators": {"x": 3}, "m": 4}}}))
    with pytest.raises(InputError, match="unknown top-level"):
        parse_input(json.dumps({"mystery": {}}))
    with pytest.raises(InputError, match="twistings.t"):
        parse_input(json.dumps({
            "dgas": {"A": DOC["dgas"]["A"]},
            "twistings": {"t": {"dga": "A", "truncation": 2, "components": {"2": [[1, "u"]]}}},
        }))


def test_cli_resolve_and_exit_codes(doc_path, capsys):
    assert main(["--input", doc_path, "--command", "resolve", "--cga", "P2"]) == 0
    out = capsys.readouterr().out
    assert "x⌣₁y" in out

    assert main(["--input", doc_path, "--command", "certify", "--cga", "P2"]) == 0
    assert main(["--command", "tor", "--a", "Z/4", "--b", "Z/6"]) == 0
    out = capsys.readouterr().out
    assert "Z/2" in out


def test_cli_missing_object_is_input_error(doc_path, capsys):
    assert main(["--input", doc_path, "--command", "resolve", "--cga", "nope"]) == 2
    assert main(["--command", "resolve", "--cga", "P2"]) == 2  # no input document


def test_cli_permutohedron_machine_is_byte_stable(capsys):
    assert main(["--command", "permutohedron", "--n", "3", "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["--command", "permutohedron", "--n", "3", "--format", "machine"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["f_vector"] == [6, 6, 1]


def test_cli_rh_map(doc_path, capsys):
    assert main(["--input", doc_path, "--command", "rh-map", "--map", "collapse"]) == 0
    out = capsys.readouterr().out
    assert "chain_map: yes" in out


def test_cli_twisting_gauge_orbit(doc_path, capsys):
    assert main(["--input", doc_path, "--command", "twisting-check", "--twisting", "a"]) == 0
    assert main(["--input", doc_path, "--command", "gauge", "--twisting", "a", "--gauge", "p"]) == 0
    out = capsys.readouterr().out
    # a * p adds ∇(3u) = 3f at level 2, and the result is again twisting
    assert out.splitlines()[-3:] == ["result:", '  2: [[1, "e"], [3, "f"]]', "result_twisting: yes"]
    # orbit: a ~ b (b − a = 5f is exact: ∇(5u)); a !~ c (class differs)
    assert main(["--input", doc_path, "--command", "orbit", "--a", "a", "--b", "b"]) == 0
    assert main(["--input", doc_path, "--command", "orbit", "--a", "a", "--b", "c"]) == 1
    out = capsys.readouterr().out
    assert "refuted" in out


def test_cli_orbit_reports_the_certificate(doc_path, capsys):
    # c − a = e pairs to 1 with z = e, and no gauge move reaches e
    assert main(["--input", doc_path, "--command", "orbit", "--a", "a", "--b", "c", "--format", "machine"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "command": "orbit", "parameters": {"a": "a", "b": "c", "truncation": 2}, "verdict": "refuted",
        "unknowns": 1, "refutation_level": 2, "obstruction": [[1, "e"]], "modulus": 0,
    }


def test_exit_code_contract_lists_exactly_the_exit_constants():
    import cupone.cli as cli

    contract = re.search(r"Exit codes are ([^.]*)\.", cli.__doc__).group(1)
    documented = sorted(int(code) for code in re.findall(r"\b(\d+) ", contract))
    assert documented == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))


def test_cli_resolve_with_m_override(doc_path, capsys):
    assert main(["--input", doc_path, "--command", "resolve", "--cga", "P2", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "x⌣₁y" not in out  # bundle total degree 3 > 2 falls outside the range


def test_duplicate_object_names_rejected():
    with pytest.raises(InputError, match="duplicate object name"):
        parse_input('{"cgas": {"P": {"generators": {"x": 2}, "m": 4}, "P": {"generators": {"y": 2}, "m": 4}}}')


def test_element_encoding_round_trip(doc_path):
    from cupone.cli import _cga_element, element_to_pairs
    from cupone.resolution import build_resolution

    w = parse_input(json.dumps(DOC))
    r = build_resolution(w.cgas["P2"])
    pairs = [[2, ["x", {"cup1": ["y", "x"]}]], [1, ["y", "y"]]]
    elt = _cga_element(r, pairs, "test")
    again = _cga_element(r, element_to_pairs(elt), "test")
    assert again == elt


def test_cli_hypotheses_exit_codes(doc_path, capsys):
    assert main(["--input", doc_path, "--command", "hypotheses", "--instance", "good"]) == 0
    assert main(["--input", doc_path, "--command", "hypotheses", "--instance", "bad"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_cli_boundary(capsys):
    assert main(["--command", "boundary", "--face", "({1,2},{3})"]) == 0
    out = capsys.readouterr().out
    assert "({1},{2},{3})" in out and "({2},{1},{3})" in out


def test_cli_dx(doc_path, capsys):
    assert main(["--input", doc_path, "--command", "d-x", "--space", "circle",
                 "--homology", "Z,Z/2", "--truncation", "3"]) == 0
    out = capsys.readouterr().out
    assert "zero_element_twisting: yes" in out


RP2 = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5], [1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5]]


def test_d_x_builds_rp2_above_the_validation_guard(tmp_path, capsys):
    # 31 simplices times the 25 elements of Hom(R_H, R_H), checked against its factors
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"spaces": {"rp2": {"simplices": RP2}}}), encoding="utf-8")
    assert main(["--input", str(path), "--command", "d-x", "--space", "rp2", "--homology", "Z,Z/2,Z/2",
                 "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    B = simplicial_cochain_dga(RP2).components()
    C = two_stage_hom_dga([parse_group(g) for g in ["Z", "Z/2", "Z/2"]]).components()
    ranks = {}
    for (i, _z), b in B.items():
        for (j, t), c in C.items():
            ranks[(i + j, t)] = ranks.get((i + j, t), 0) + len(b) * len(c)
    assert {tuple(entry["bidegree"]): entry["rank"] for entry in report["components"]} == ranks
    assert sum(ranks.values()) == 775
    assert report["zero_element_twisting"] is True


def test_d_x_builds_the_double_suspension_of_rp2(tmp_path, capsys):
    # Σ²RP² has 287 simplices, whose cochains validate as raw tables, and
    # D(X;H) has 978 · 5³ product pairs, which only its factors' check admits
    suspended = [s + [a] for s in RP2 for a in (6, 7)]
    suspended = [s + [a] for s in suspended for a in (8, 9)]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"spaces": {"s2rp2": {"simplices": suspended}}}), encoding="utf-8")
    assert main(["--input", str(path), "--command", "d-x", "--space", "s2rp2", "--homology", "Z,Z/2,Z/2",
                 "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sum(entry["rank"] for entry in report["components"]) == 287 * 25
    assert report["zero_element_twisting"] is True
    cochains = simplicial_cochain_dga(suspended)
    assert len(cochains.bidegrees) == 287
    assert sum(map(len, cochains.rows.values())) == 978 <= MAX_VALIDATED_PAIRS < 978 * 5 ** 3


def test_reports_are_deterministic(doc_path, capsys):
    for _ in range(2):
        assert main(["--input", doc_path, "--command", "certify", "--cga", "P2",
                     "--format", "machine"]) == 0
    out = capsys.readouterr().out
    half = len(out) // 2
    assert out[:half] == out[half:]


# eleven degree-2 generators at m = 8: their bundle images would hold
# 89,804 words, so the listing stops at the first count over the guard
WIDE = {"generators": {f"g{i:02d}": 2 for i in range(11)}, "m": 8}
WIDE_REFUSED = ("the resolution of {" + ", ".join(f"g{i:02d}: 2" for i in range(11)) + "} at m = 8 would have "
                "at least 60078 image words, above the guard of 60000")


OUT_OF_DOMAIN_DOC = {
    "cgas": {**DOC["cgas"], "Pinf": {"generators": {"x": 2, "y": 2}, "m": "infinity"}, "W": WIDE},
    "cga_maps": {
        **DOC["cga_maps"],
        "bad": {"source": "P2", "target": "Q", "images": {"x": [["two", ["u"]]], "y": [[3, ["u"]]]}},
        "wide": {"source": "Q", "target": "W", "images": {"u": [[1, ["g00"]]]}},
    },
    "spaces": DOC["spaces"],
}


# DOC plus a dga N with ∇e = f, where the level-2 element e is not twisting
ORBIT_DOC = {
    "dgas": {**DOC["dgas"], "N": {
        "basis": [["one", 0, 0], ["e", 2, -1], ["f", 3, -1]],
        "differential": {"e": [[1, "f"]]},
        "products": [["one", "one", [[1, "one"]]], ["one", "e", [[1, "e"]]], ["e", "one", [[1, "e"]]],
                     ["one", "f", [[1, "f"]]], ["f", "one", [[1, "f"]]]],
        "unit": [[1, "one"]],
    }},
    "twistings": {**DOC["twistings"], "n": {"dga": "N", "truncation": 2, "components": {"2": [[1, "e"]]}}},
}


def _cga_text(generators, m):
    """A workspace holding one presentation `c`, written as JSON text so
    that literals such as 1e400 and NaN reach the parser as written."""
    return '{"cgas": {"c": {"generators": %s, "m": %s}}}' % (generators, m)


CERTIFY_C = ["--command", "certify", "--cga", "c"]
RESOLVE_C = ["--command", "resolve", "--cga", "c"]


# (argv, message) run on OUT_OF_DOMAIN_DOC
OUT_OF_DOMAIN_ARGV = [
    (["--command", "boundary", "--face", "({a},{1})"], "({a},{1})"),
    (["--command", "boundary", "--face", "({1,2,3,4,5,6,7,8})"], "between 1 and 7"),
    (["--command", "rh-map", "--map", "bad"], "cga_maps.bad.images.x"),
    (["--command", "resolve", "--cga", "Pinf", "--truncation", "-3"], "truncation"),
    (["--command", "certify", "--cga", "Pinf", "--truncation", "0"], "truncation"),
    # --truncation acts only where m = ∞
    (["--command", "certify", "--cga", "P2", "--truncation", "-1"],
     "--truncation acts only where m = infinity, but cgas.P2 has m=6"),
    (["--command", "resolve", "--cga", "P2", "--truncation", "4"],
     "--truncation acts only where m = infinity, but cgas.P2 has m=6"),
    (["--command", "certify", "--cga", "Pinf", "--m", "4", "--truncation", "3"],
     "--truncation acts only where m = infinity, but cgas.Pinf with --m has m=4"),
    (["--command", "rh-map", "--map", "collapse", "--truncation", "-2"],
     "--truncation acts only where m = infinity, but cgas.P2 has m=6 and cgas.Q has m=6"),
    # the walk would build far more cells than the guard admits: refused before it starts
    (["--command", "certify", "--cga", "Pinf", "--truncation", "1000"],
     "cgas.Pinf: certify on {x: 2, y: 2} at m = ∞ truncated at total degree 1000 would walk at least 303512 cells, "
     "above the guard of 300000"),
    # the resolution's images would hold more words than its guard admits: refused before any is built
    (["--command", "resolve", "--cga", "W"], "cgas.W: " + WIDE_REFUSED),
    (["--command", "certify", "--cga", "W"], "cgas.W: " + WIDE_REFUSED),
    (["--command", "rh-map", "--map", "wide"], "cgas.W: " + WIDE_REFUSED),
    (["--command", "d-x", "--space", "circle", "--homology", "Z", "--truncation", "0"], "truncation"),
    (["--command", "d-x", "--space", "circle", "--homology", "Z", "--truncation", "1"], "truncation"),
    (["--command", "boundary", "--face", "({1}junk,{2})"], "'j' outside a block"),
    (["--command", "boundary", "--face", "({1},{2}})"], "unbalanced braces"),
    (["--command", "boundary", "--face", "({1,2,2},{3})"], "face '({1,2,2},{3})': an item repeats in a block"),
    (["--command", "boundary", "--face", "({1},{2},{3})"], "face ({1},{2},{3}): vertices have no boundary"),
    (["--command", "boundary", "--face", "({1},{3})"], "face ({1},{3}): blocks must partition {1..2}"),
    (["--command", "boundary", "--face", "({1,2},{2,3})"], "face ({1,2},{2,3}): blocks of an ordered partition must be disjoint"),
    (["--command", "boundary", "--face", "({},{1})"], "face ({},{1}): empty block in an ordered partition"),
]


@pytest.mark.parametrize("doc, argv, message", [
    *[(OUT_OF_DOMAIN_DOC, argv, message) for argv, message in OUT_OF_DOMAIN_ARGV],
    (ORBIT_DOC, ["--command", "orbit", "--a", "n", "--b", "n"], "a is not twisting"),
    (ORBIT_DOC, ["--command", "orbit", "--a", "a", "--b", "n"], "different dgas"),
    (ORBIT_DOC, ["--command", "orbit", "--a", "a", "--b", "missing"], "no b named 'missing'"),
    # integer fields take JSON integers only: no float, bool or string value
    (_cga_text('{"x": 2}', "1e400"), CERTIFY_C, "cgas.c: m inf is not an integer"),
    (_cga_text('{"x": 2}', "4.5"), CERTIFY_C, "cgas.c: m 4.5 is not an integer"),
    (_cga_text('{"x": 2}', "true"), CERTIFY_C, "cgas.c: m True is not an integer"),
    (_cga_text('{"x": 2.0}', "4"), CERTIFY_C, "cgas.c: generator x degree 2.0 is not an integer"),
    (_cga_text('{"x": 2}', "NaN"), CERTIFY_C, "cgas.c: m nan is not an integer"),
    (_cga_text('{"x": 2}', '"4"'), CERTIFY_C, "cgas.c: m '4' is not an integer"),
    # an integer literal over Python's 4,300-digit limit is bad input, named by document
    pytest.param(_cga_text('{"x": 2}', "9" * 5000), CERTIFY_C, "doc.json: Exceeds the limit (4300 digits)",
                 id="integer-over-4300-digits"),
    ({"homs": {"h": {"source": "Z", "target": "Z", "matrix": [[2.5]]}},
      "hypotheses": {"i": {"m": 2, "hurewicz": {"1": "h"}}}},
     ["--command", "hypotheses", "--instance", "i"], "homs.h: matrix entry 2.5 is not an integer"),
    ({"spaces": {"s": {"simplices": [[0.5, 1], [1, 2]]}}},
     ["--command", "d-x", "--space", "s", "--homology", "Z"], "spaces.s: vertex 0.5 is not an integer"),
    ({"spaces": {"s": {"simplices": [[0, 0], [0, 1]]}}},
     ["--command", "d-x", "--space", "s", "--homology", "Z"], "spaces.s: simplex [0, 0] repeats a vertex"),
    # size guards act before anything is built
    ({"spaces": {"pt": {"simplices": [[0]]}}},
     ["--command", "d-x", "--space", "pt", "--homology", "Z^100"], "1000000 product pairs exceed the validation guard"),
    ({"spaces": {"pt": {"simplices": [[0]]}}}, ["--command", "d-x", "--space", "pt", "--homology", "Z^1000000000"],
     "1000000000000000000000000000 product pairs exceed the validation guard"),
    ({"spaces": {"s": {"simplices": [list(range(30))]}}}, ["--command", "d-x", "--space", "s", "--homology", "Z"],
     "spaces.s: a simplex on 30 vertices has more product pairs than the validation guard allows"),
    ({}, ["--command", "tor", "--a", "Z^" + "9" * 5000, "--b", "Z/2"],
     "a group literal has more digits than an integer can hold"),
    # every section, and every entry of one, is a JSON object
    ({"cgas": []}, CERTIFY_C, "cgas must be a JSON object"),
    ({"twistings": {"t": 5}}, CERTIFY_C, "twistings.t must be a JSON object"),
    ({"dgas": {"d": []}}, CERTIFY_C, "dgas.d must be a JSON object"),
    ({"cga_maps": {"f": 3}}, CERTIFY_C, "cga_maps.f must be a JSON object"),
    # and so is every field read as one
    ({"dgas": {"d": {"differential": []}}}, CERTIFY_C, "dgas.d: differential must be a JSON object"),
    ({"cgas": {"c": {"generators": []}}}, CERTIFY_C, "cgas.c: generators must be a JSON object"),
    ({"dgas": DOC["dgas"], "twistings": {"t": {"dga": "A", "truncation": 2, "components": []}}},
     CERTIFY_C, "twistings.t: components must be a JSON object"),
    ({"dgas": DOC["dgas"], "gauges": {"p": {"dga": "A", "truncation": 2, "components": [[3, "u"]]}}},
     CERTIFY_C, "gauges.p: components must be a JSON object"),
    ({"hypotheses": {"i": {"m": 2, "cohomology": ["Z"]}}}, CERTIFY_C, "hypotheses.i: cohomology must be a JSON object"),
    ({"hypotheses": {"i": {"m": 2, "hurewicz": []}}}, CERTIFY_C, "hypotheses.i: hurewicz must be a JSON object"),
    ({"cgas": DOC["cgas"], "cga_maps": {"f": {"source": "P2", "target": "Q", "images": [["x", [[2, ["u"]]]]]}}},
     ["--command", "rh-map", "--map", "f"], "cga_maps.f: images must be a JSON object"),
    # an element is a list of [coefficient, word] or [coefficient, label] pairs
    ({"cgas": DOC["cgas"], "cga_maps": {"f": {"source": "P2", "target": "Q", "images": {"x": [[2, "u"]]}}}},
     ["--command", "rh-map", "--map", "f"], "cga_maps.f.images.x: an element must be a JSON list of [coefficient, word] pairs"),
    ({"cgas": DOC["cgas"], "cga_maps": {"f": {"source": "P2", "target": "Q", "images": {"x": [[2, [{"cup1": "u"}]]]}}}},
     ["--command", "rh-map", "--map", "f"], "cga_maps.f.images.x: bad word letter {'cup1': 'u'}"),
    ({"dgas": {"d": {"basis": [["a", 0, 0]], "unit": [[1, 5]]}}}, CERTIFY_C,
     "dgas.d: unit: an element must be a JSON list of [coefficient, label] pairs"),
    # a generator must be even throughout the range that m forces: degrees up
    # to 2⌊(m+2)/2⌋ − 1, every degree when m = ∞; the message is the whole of stderr
    (_cga_text('{"x": 3}', "4"), CERTIFY_C,
     "error: cgas.c: odd-degree generator x (degree 3) inside the range forced even by m=4\n"),
    (_cga_text('{"x": 3}', "4"), RESOLVE_C,
     "error: cgas.c: odd-degree generator x (degree 3) inside the range forced even by m=4\n"),
    (_cga_text('{"x": 2, "y": 3}', '"infinity"'), [*CERTIFY_C, "--truncation", "4"],
     "error: cgas.c: odd-degree generator y (degree 3) in the polynomial case\n"),
    (_cga_text('{"x": 2, "t": 3, "s": 5}', "8"), RESOLVE_C,
     "error: cgas.c: odd-degree generator s (degree 5) inside the range forced even by m=8; "
     "odd-degree generator t (degree 3) inside the range forced even by m=8\n"),
    # an --m override that moves t (degree 9) into the range
    (_cga_text('{"x": 2, "t": 9}', "4"), [*CERTIFY_C, "--m", "8"],
     "error: cgas.c with m=8: odd-degree generator t (degree 9) inside the range forced even by m=8\n"),
    (_cga_text('{"x": 2, "t": 9}', "4"), [*RESOLVE_C, "--m", "8"],
     "error: cgas.c with m=8: odd-degree generator t (degree 9) inside the range forced even by m=8\n"),
    # any other bad --m is named the same way
    (_cga_text('{"x": 2}', "4"), [*CERTIFY_C, "--m", "0"],
     "error: cgas.c with m=0: m must be a positive integer or the ∞ marker\n"),
    # a simplex just above the product-pair guard
    ({"spaces": {"s": {"simplices": [list(range(11))]}}}, ["--command", "d-x", "--space", "s", "--homology", "Z"],
     "spaces.s: a simplex on 11 vertices has more product pairs than the validation guard allows"),
    # a document that lists a product pair twice: a later entry would replace the earlier one
    ({"dgas": {"d": {"basis": [["1", 0, 0], ["x", 1, -1]], "unit": [[1, "1"]],
                     "products": [["1", "1", [[1, "1"]]], ["1", "x", [[2, "x"]]], ["x", "1", [[1, "x"]]],
                                  ["1", "x", [[1, "x"]]]]}}},
     CERTIFY_C, "error: dgas.d: product 1·x listed twice\n"),
    # and so would a basis label written once as a string and once as a number
    ({"dgas": {"d": {"basis": [["1", 0, 0], [1, 1, -1]], "unit": [[1, "1"]]}}},
     CERTIFY_C, "error: dgas.d: duplicate basis label 1\n"),
])
def test_out_of_domain_input_exits_2_without_traceback(tmp_path, capsys, doc, argv, message):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    assert main(["--input", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def _document_paths(node, path=()):
    """The path of every value of a JSON tree, the root's included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _document_paths(value, path + (key,))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_infinity=True, allow_nan=True),
    st.text(max_size=3), st.just([]), st.just({}), st.lists(st.integers(-2, 2), max_size=2),
)


@st.composite
def mutated_documents(draw, base=DOC, section=None, values=JSON_VALUES, mutations=st.integers(1, 3)):
    """`base`, by default DOC, which holds an entry of every section,
    mutated at `mutations` values at any level, or only inside `section`:
    a value becomes one of `values`, its key is dropped, or it is nested
    in a list where an object or a scalar belongs."""
    holder = {"doc": copy.deepcopy(base)}
    inside = () if section is None else ("doc", section)
    for _ in range(draw(mutations)):
        # the first path under `inside` is `inside` itself
        paths = [p for p in _document_paths(holder) if p[:len(inside)] == inside][1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = holder
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["retype", "drop", "nest"] if len(path) > 1 else ["retype", "nest"]))
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "nest":
            parent[path[-1]] = [parent[path[-1]]]
        else:
            parent[path[-1]] = draw(values)
    return json.dumps(holder["doc"])


@settings(max_examples=300, deadline=None, database=None)
@given(mutated_documents())
def test_parse_input_returns_a_workspace_or_raises_input_error(text):
    try:
        workspace = parse_input(text)
    except InputError:
        return
    assert isinstance(workspace, Workspace)


ORBIT_NAMES = st.sampled_from(["a", "b", "c", "n", "missing"])
ORBIT_VALUES = st.one_of(st.integers(-3, 5), st.sampled_from(["A", "N", "one", "u", "e", "f", "2", "3"]), JSON_VALUES)


@st.composite
def drawn_twistings(draw):
    """ORBIT_DOC with the entries a and b redrawn in A, at level 2 and
    with truncation 2 or 3."""
    doc = copy.deepcopy(ORBIT_DOC)
    for name in ("a", "b"):
        labels = draw(st.lists(st.sampled_from(["e", "f"]), max_size=3))
        doc["twistings"][name] = {"dga": "A", "truncation": draw(st.sampled_from([2, 3])),
                                  "components": {"2": [[draw(st.integers(-3, 3)), label] for label in labels]}}
    return json.dumps(doc)


def _options(*pairs):
    """The flags of `pairs` (flag, value) whose value is not None, each
    followed by its value as text."""
    return [arg for flag, value in pairs if value is not None for arg in (flag, str(value))]


def _exits_0_1_or_2_without_traceback(text, argv):
    """Run `main` on `argv`, with `text` as the --input document unless it
    is None: the exit code is 0, 1 or 2, no traceback is printed, and an
    exit 2 prints nothing to stdout."""
    with tempfile.TemporaryDirectory() as directory:
        if text is not None:
            path = os.path.join(directory, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = ["--input", path, *argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(drawn_twistings(), mutated_documents(ORBIT_DOC, "twistings", ORBIT_VALUES, st.integers(0, 2))),
       ORBIT_NAMES, ORBIT_NAMES, st.sampled_from(["text", "machine"]))
def test_orbit_exits_0_1_or_2_without_traceback(text, a, b, fmt):
    _exits_0_1_or_2_without_traceback(text, ["--command", "orbit", "--a", a, "--b", b, "--format", fmt])


# ORBIT_DOC plus gauges p in A and q in N, for the commands that act by them
GAUGE_DOC = {**ORBIT_DOC, "gauges": {**DOC["gauges"], "q": {"dga": "N", "truncation": 2, "components": {}}}}


@st.composite
def drawn_gauges(draw):
    """GAUGE_DOC with the twistings a and b drawn as in `drawn_twistings`
    and the gauge p redrawn in A, at truncation 2 or 3."""
    doc = json.loads(draw(drawn_twistings()))
    doc["gauges"] = {**GAUGE_DOC["gauges"], "p": {"dga": "A", "truncation": draw(st.sampled_from([2, 3])),
                                                  "components": {"1": [[draw(st.integers(-3, 3)), "u"]]}}}
    return json.dumps(doc)


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(drawn_gauges(), st.sampled_from(["twistings", "gauges"]).flatmap(
           lambda section: mutated_documents(GAUGE_DOC, section, ORBIT_VALUES, st.integers(0, 2)))),
       st.sampled_from(["gauge", "twisting-check"]), ORBIT_NAMES, st.sampled_from(["p", "q", "missing"]),
       st.sampled_from(["text", "machine"]))
def test_gauge_and_twisting_check_exit_0_1_or_2_without_traceback(text, command, twisting, gauge, fmt):
    _exits_0_1_or_2_without_traceback(
        text, ["--command", command, "--twisting", twisting, "--gauge", gauge, "--format", fmt])


RANGE_OPTIONS = st.one_of(st.none(), st.integers(-2, 8))


@settings(max_examples=150, deadline=None, database=None)
@given(mutated_documents(DOC, "cgas", mutations=st.integers(0, 3)), st.sampled_from(["certify", "resolve"]),
       st.sampled_from(["P2", "Q", "missing"]), RANGE_OPTIONS, RANGE_OPTIONS, st.sampled_from(["text", "machine"]))
def test_certify_and_resolve_exit_0_1_or_2_without_traceback(text, command, cga, m, truncation, fmt):
    argv = ["--command", command, "--cga", cga, "--format", fmt]
    _exits_0_1_or_2_without_traceback(text, argv + _options(("--m", m), ("--truncation", truncation)))


FORMATS = st.sampled_from(["text", "machine"])


@st.composite
def faces(draw):
    """An ordered partition of {1..k}, k = 1..6, in the --face syntax."""
    order = draw(st.permutations(range(1, draw(st.integers(1, 6)) + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1))) | {0, len(order)}) if len(order) > 1 else [0, 1]
    return "(" + ",".join("{" + ",".join(map(str, order[i:j])) + "}" for i, j in zip(cuts, cuts[1:])) + ")"


@settings(max_examples=50, deadline=None, database=None)
@given(st.sampled_from([None, "1", "2", "3", "4", "0", "-3", "8", "1000000", "x", "", "2.5"]), FORMATS)
def test_permutohedron_exits_0_1_or_2_without_traceback(n, fmt):
    # P_n stays at n <= 4 here, so that each run is quick
    _exits_0_1_or_2_without_traceback(None, ["--command", "permutohedron", "--format", fmt] + _options(("--n", n)))


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(faces(), st.none(), st.text(alphabet="{}(),-0123456789 ", max_size=14),
                 st.sampled_from(["({1},{1})", "()", "({})", "({1,2,3,4,5,6,7,8})"])),
       st.sampled_from([None, None, None, "3", "x"]), FORMATS)
def test_boundary_exits_0_1_or_2_without_traceback(face, n, fmt):
    argv = ["--command", "boundary", "--format", fmt] + _options(("--face", face), ("--n", n))
    _exits_0_1_or_2_without_traceback(None, argv)


# Values that name the objects of DOC or parse as its group literals
DOC_VALUES = st.one_of(st.integers(-3, 8), st.sampled_from(["infinity", "P2", "Q", "u", "x", "Z", "Z/2", "u1", "u5"]),
                       JSON_VALUES)


@st.composite
def drawn_maps(draw):
    """DOC with the images of x and y under `collapse` redrawn as c·u^k,
    k = 0..2: degree 2 passes, other degrees fail."""
    doc = copy.deepcopy(DOC)
    doc["cga_maps"]["collapse"]["images"] = {
        name: [[draw(st.integers(-3, 3)), ["u"] * draw(st.sampled_from([1, 1, 0, 2]))]] for name in ("x", "y")}
    return json.dumps(doc)


@settings(max_examples=100, deadline=None, database=None)
@given(st.one_of(drawn_maps(), st.sampled_from(["cgas", "cga_maps"]).flatmap(
           lambda section: mutated_documents(DOC, section, DOC_VALUES, st.integers(0, 2)))),
       st.sampled_from(["collapse", "collapse", "missing"]), RANGE_OPTIONS, FORMATS)
def test_rh_map_exits_0_1_or_2_without_traceback(text, name, truncation, fmt):
    argv = ["--command", "rh-map", "--map", name, "--format", fmt] + _options(("--truncation", truncation))
    _exits_0_1_or_2_without_traceback(text, argv)


GROUP_LITERALS = st.one_of(
    st.lists(st.sampled_from(["Z", "Z/2", "Z/4", "Z/6", "Z^2", "0"]), min_size=1, max_size=3).map(" + ".join),
    st.text(alphabet="Z0123456789/^+ ", max_size=8),
    st.sampled_from(["Z/0", "Z/-2", "Z^" + "9" * 5000]),
)


@settings(max_examples=100, deadline=None, database=None)
@given(st.one_of(GROUP_LITERALS, st.none()), GROUP_LITERALS, FORMATS)
def test_tor_exits_0_1_or_2_without_traceback(a, b, fmt):
    _exits_0_1_or_2_without_traceback(None, ["--command", "tor", "--format", fmt] + _options(("--a", a), ("--b", b)))


@st.composite
def drawn_instances(draw):
    """DOC with the instance `good` redrawn: m = 1..6, H^k(X) for some
    k = 1..6, and the Hurewicz map u1 or u5 in some degrees."""
    doc = copy.deepcopy(DOC)
    degrees = st.integers(1, 6).map(str)
    doc["hypotheses"]["good"] = {
        "m": draw(st.integers(1, 6)),
        "cohomology": draw(st.dictionaries(degrees, st.sampled_from(["Z", "Z/2", "Z/4 + Z", "0"]), max_size=3)),
        "hurewicz": draw(st.dictionaries(degrees, st.sampled_from(["u1", "u5"]), max_size=3)),
    }
    return json.dumps(doc)


@settings(max_examples=100, deadline=None, database=None)
@given(st.one_of(drawn_instances(), st.sampled_from(["homs", "hypotheses"]).flatmap(
           lambda section: mutated_documents(DOC, section, DOC_VALUES, st.integers(0, 2)))),
       st.sampled_from(["good", "good", "bad", "missing"]), FORMATS)
def test_hypotheses_exit_0_1_or_2_without_traceback(text, instance, fmt):
    _exits_0_1_or_2_without_traceback(text, ["--command", "hypotheses", "--instance", instance, "--format", fmt])


@st.composite
def drawn_spaces(draw):
    """DOC with the space `circle` redrawn as 1..4 simplices on the
    vertices 0..3."""
    doc = copy.deepcopy(DOC)
    simplex = st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)
    doc["spaces"]["circle"] = {"simplices": draw(st.lists(simplex, min_size=1, max_size=4))}
    return json.dumps(doc)


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(drawn_spaces(), mutated_documents(DOC, "spaces", DOC_VALUES, st.integers(0, 2))),
       st.sampled_from(["Z", "Z,Z/2", "Z/2,0,Z", "0", None, "", "Z,", "Z/0", "q", "Z^40", ",".join(["Z"] * 10)]),
       st.sampled_from([None, 2, 3, 5, 1, -2, 100000]), FORMATS)
def test_d_x_exits_0_1_or_2_without_traceback(text, homology, truncation, fmt):
    argv = ["--command", "d-x", "--space", "circle", "--format", fmt]
    _exits_0_1_or_2_without_traceback(text, argv + _options(("--homology", homology), ("--truncation", truncation)))


@pytest.mark.parametrize("dga, message", [
    ({"basis": [["a", 0, 0]], "differential": {"zz": [[1, "a"]]}, "unit": [[1, "a"]]},
     "dgas.bad: d(zz): 'zz' is not a basis label"),
    ({"basis": [["a", 0, 0]], "products": [["a", "a", [[1, "zz"]]]], "unit": [[1, "a"]]},
     "dgas.bad: a·a: 'zz' is not a basis label"),
])
def test_unknown_dga_label_exits_2_naming_the_table_entry(tmp_path, capsys, dga, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dgas": {"bad": dga}}), encoding="utf-8")
    assert main(["--input", str(path), "--command", "tor", "--a", "Z", "--b", "Z"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def _free_dga_spec(F):
    """The workspace entry of a library dga: its bases, tables and unit."""
    def pairs(table):
        return [[c, label] for label, c in sorted(table.items())]

    return {
        "basis": [[label, r, t] for label, (r, t) in sorted(F.bidegrees.items())],
        "differential": {label: pairs(table) for label, table in sorted(F.diff.items())},
        "products": [[l1, l2, pairs(table)] for (l1, l2), table in sorted(F.products.items())],
        "unit": pairs(F.unit_coeffs),
    }


# The free dga on u1 (1,-1), x2 and y2 (2,-1) with ∇u1 = y2, words of first
# degree <= 4.  a and b are twisting at N = 4 and b = a∗p; c is b moved off
# a's orbit by the ∇-cycle x2·u1·u1 at level 4; x = x2 fails at level 3.
# T9's odd generator t lies above the degrees that m forces even: up to 5 at
# m = 4 and up to 7 at m = 7.
PINNED_DOC = {
    "cgas": {"T3": {"generators": {"x": 2, "y": 2, "z": 4}, "m": 8}, "T9": {"generators": {"x": 2, "t": 9}, "m": 4}},
    "cga_maps": {
        "shift": {"source": "T3", "target": "T3",
                  "images": {"x": [[1, ["x"]], [2, ["y"]]], "y": [[-1, ["y"]]], "z": [[1, ["x", "y"]], [3, ["z"]]]}},
        # z has degree 4 but its image degree 2, so the induced map fails
        "off_degree": {"source": "T3", "target": "T3", "images": {"x": [[1, ["y"]]], "y": [[1, ["x"]]], "z": [[1, ["x"]]]}},
    },
    "dgas": {"F": _free_dga_spec(free_truncated_dga([("u1", 1, -1), ("x2", 2, -1), ("y2", 2, -1)],
                                                    {"u1": [(1, ("y2",))]}, 4))},
    "twistings": {
        "a": {"dga": "F", "truncation": 4, "components": {
            "2": [[2, "y2"]], "3": [[-3, "u1·y2"], [1, "y2·u1"]],
            "4": [[3, "u1·u1·y2"], [-3, "u1·y2·u1"], [-1, "y2·u1·u1"]]}},
        "b": {"dga": "F", "truncation": 4, "components": {
            "2": [[1, "y2"]], "3": [[1, "u1·y2"], [2, "y2·u1"]],
            "4": [[1, "u1·u1·y2"], [2, "u1·y2·u1"], [4, "y2·u1·u1"]]}},
        "c": {"dga": "F", "truncation": 4, "components": {
            "2": [[1, "y2"]], "3": [[1, "u1·y2"], [2, "y2·u1"]],
            "4": [[1, "u1·u1·y2"], [2, "u1·y2·u1"], [1, "x2·u1·u1"], [4, "y2·u1·u1"]]}},
        "x": {"dga": "F", "truncation": 4, "components": {"2": [[1, "x2"]]}},
    },
    "gauges": {"p": {"dga": "F", "truncation": 4, "components": {"1": [[-1, "u1"]], "2": [[3, "u1·u1"]]}}},
    "spaces": {**DOC["spaces"], "sphere": {"simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}},
}


# SHA-256 of the stdout of each run, recorded before P_n and the resolution
# summands shared one enumerator and one boundary builder, and for the gauge
# calculus before `gauge_act` solved for a∗p level by level, for `rh-map`
# before the induced map's word images lost their cache, and for T9 before
# presentations checked their range discipline on construction, and for
# `d-x` on the sphere before D(X;H) was validated from its factors; `{doc}`
# is PINNED_DOC.  Runs that exit 1 are listed in PINNED_EXIT.
PINNED_STDOUT = [
    ("--command permutohedron --n 4 --format text", "d002986fa3cf3274bed3ac00609ee207328f753c5d742579fc0c53af0480e3b0"),
    ("--command permutohedron --n 4 --format machine", "bfd72b225cb321836ce307966008c923173956c7dab4077340e3eac1010c75ee"),
    ("--command permutohedron --n 5 --format text", "6f3e2222aaaabe97a2cfb30e9b4c6e040d68907053bdfe1800e1a3571b188ccc"),
    ("--command permutohedron --n 5 --format machine", "26b5fec12071a9735b0d7945c362ee3441161b293fdfe5a4462ad4d5ccb42fad"),
    ("--command permutohedron --n 6 --format text", "6dc4095604033b12e15571340384f322fd4f9e7b520f2ced3cf110af7c536faa"),
    ("--command permutohedron --n 6 --format machine", "5961214cea9fbeffbe5d6ffda4be9b50db3b8ce857a1dcd598bdf8bfc934d8ab"),
    ("--command boundary --face ({1,2},{3})", "d0626cc78d5f639527a4dbe5b4631f051e5d6317bf791239a954903bb442baef"),
    ("--command boundary --face ({2,4},{1,3})", "49271a62e2d7c2423483b756a19d639ef10c1fb84207ba552d38bd8ccc88241c"),
    ("--command boundary --face ({1,3,5},{2},{4,6})", "56bfed48f947313c998d0b6591b342ad90f43ede1df095ece29c86ef202e14f0"),
    ("--input {doc} --command certify --cga T3 --format text", "e37153954510ec3709f81857f455a8bd3d32dd8bd6feacbc317735d0bbc4e7fe"),
    ("--input {doc} --command certify --cga T3 --format machine", "726081986cdc4f064cb376c5ff1039879db759952dd231652321bcc8f535d7e1"),
    ("--input {doc} --command resolve --cga T3 --format text", "2db9c00dc8846981caff22f3a855579ba713ee3fcac68825d125bc5c680222a4"),
    ("--input {doc} --command resolve --cga T3 --format machine", "b5519244d9e9462c1caf311c416a55f99efa364610bdc228f47d4f624460b26e"),
    ("--input {doc} --command gauge --twisting a --gauge p --format text",
     "702e062876683d45c92026df914238564c7294d661f93e5993ae42c4f1ab6250"),
    ("--input {doc} --command twisting-check --twisting a --format text",
     "396b78f47ca76a918f61509fe8b8ea5e3b6c29ecce712985bb21f0566ca27812"),
    ("--input {doc} --command twisting-check --twisting x --format text",
     "1c9d5bdb4f892fc93a5fd9a953b9dd4b961becf4c863f26229dd3ac2aeb2495d"),
    ("--input {doc} --command orbit --a a --b b --format text",
     "cc12fe22b2900f5fb66480052e7f0362400e95317998965d055f61fe4c82c6ee"),
    ("--input {doc} --command orbit --a a --b c --format text",
     "cd02933887bd671d270b648cb11f6d7da793f800cb9948194925200b0c620eed"),
    ("--input {doc} --command d-x --space circle --homology Z,Z/2 --format text",
     "a6a0165af87927050be04dff45adfa97cd6827584620698eb546e0da6eaf8090"),
    ("--input {doc} --command gauge --twisting a --gauge p --format machine",
     "9e9bc012b68128243f2ebc96d86a87b827fd2272d3c9a434f2ba11efe6d3a420"),
    ("--input {doc} --command twisting-check --twisting a --format machine",
     "82e9b079466d2d293cc767376de1ad168e20d93b0e19809970b25b7147685ee5"),
    ("--input {doc} --command twisting-check --twisting x --format machine",
     "77e3a8dc5aa7f7710a2a3db920fb9b5ebec9ebc92c206500663765dea0b2e512"),
    ("--input {doc} --command orbit --a a --b b --format machine",
     "39acfdb86016cf572950cee720079dbc00ba8824918a636a08638fefe2514d58"),
    ("--input {doc} --command orbit --a a --b c --format machine",
     "81aad1e2e43d25c44849408ec54ba1a9cd4e103e5f0a09b8d613fbf7c40e7ce2"),
    ("--input {doc} --command d-x --space circle --homology Z,Z/2 --format machine",
     "96c0310941de8929dc8e0453585fe9f15f7d221175ff328e0eb2a832f7fcc719"),
    ("--input {doc} --command gauge --twisting x --gauge p --format machine",
     "7d64a15fdfe8c359b810303d639bb8834a02900e4f1508c80e1bf728950683c7"),
    ("--input {doc} --command rh-map --map shift --format text",
     "fbe84cdde84dd96b70bbcf343cd2133bb927d96e37347aff32a67bb6363b9e22"),
    ("--input {doc} --command rh-map --map shift --format machine",
     "7655f90067cb3a98e33f02355ec087df90166ff04515d5cb41203807d05bcbba"),
    ("--input {doc} --command rh-map --map off_degree --format text",
     "dfee518b0d43494c2b5efac8fa02f491796335642d7ee4f96ca91875cfa7c0d2"),
    ("--input {doc} --command rh-map --map off_degree --format machine",
     "a8ea79990402db1b10d34394f8c9dff5452bba1e2f2b85676a77d27f24c1765f"),
    ("--input {doc} --command certify --cga T9 --format text", "008b999d7ba00cc81c8481f604a9099efde6ae8734256675984fee0226a21312"),
    ("--input {doc} --command certify --cga T9 --format machine", "db6d533a61c6ec8e9b6e7114442681f5e7760327543e49bcb08f08c62dcfd40d"),
    ("--input {doc} --command resolve --cga T9 --format text", "5dec59deaaa7e4dcf600c473fe0cee33cc00606ef19c2f646347d143e5bef1c4"),
    ("--input {doc} --command resolve --cga T9 --format machine", "b5bb4ab25cb3e63d07daaee3ede1abc3b3e025ab69d52104b0487587ea0782dc"),
    ("--input {doc} --command certify --cga T9 --m 7 --format text", "ea89341bf6111ad47cf67b9514c554699f34a82125cddeb4ac600d1ab7eccb64"),
    ("--input {doc} --command certify --cga T9 --m 7 --format machine", "42b38baa585f408f93556033c5e9d59a9051be422fc05fbbc153eb524acbc94d"),
    ("--input {doc} --command d-x --space sphere --homology Z,Z/2 --format text",
     "7851c0de468383ddebe13bbaa30b38cccba12694a1558ed624adb905a410be43"),
    ("--input {doc} --command d-x --space sphere --homology Z,Z/2 --format machine",
     "b28def2950f7965db6d7db5e49079582c83163305fb0032e2a2c86cc9d4c71d2"),
    ("--input {doc} --command d-x --space sphere --homology Z,Z/2,Z --format text",
     "6221935fc423492049d248442ec559a493e9628bf33c99a5378aa8416dd4e6db"),
    ("--input {doc} --command d-x --space sphere --homology Z,Z/2,Z --format machine",
     "06e1fdd93af854017de7003e0edea262a4b925c0304dea40b51e4db252bd0fa1"),
]

PINNED_EXIT = {
    "--input {doc} --command twisting-check --twisting x --format text": 1,
    "--input {doc} --command twisting-check --twisting x --format machine": 1,
    "--input {doc} --command orbit --a a --b c --format text": 1,
    "--input {doc} --command orbit --a a --b c --format machine": 1,
    "--input {doc} --command rh-map --map off_degree --format text": 1,
    "--input {doc} --command rh-map --map off_degree --format machine": 1,
}


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT)
def test_cli_stdout_is_byte_identical_to_the_pinned_runs(tmp_path, capsys, argv, digest):
    import hashlib

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(PINNED_DOC), encoding="utf-8")
    assert main([arg.replace("{doc}", str(path)) for arg in argv.split()]) == PINNED_EXIT.get(argv, 0)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv, code", [
    ("--command d-x --space circle --homology Z,Z/2 --truncation 10000000", 0),
    ("--command twisting-check --twisting a", 0),
    ("--command twisting-check --twisting x", 1),
    ("--command gauge --twisting a --gauge p", 0),
    ("--command orbit --a a --b b", 0),
    ("--command orbit --a a --b c", 1),
])
def test_level_loops_do_not_grow_quadratically_with_the_truncation(tmp_path, capsys, argv, code):
    # every level element of PINNED_DOC at N = 10^7; the level loops run
    # over the levels an element has, or up to its dga's top level, not
    # over every level up to N
    doc = copy.deepcopy(PINNED_DOC)
    for entry in [*doc["twistings"].values(), *doc["gauges"].values()]:
        entry["truncation"] = 10_000_000
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main(["--input", str(path), *argv.split()]) == code
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == ""


def _dumps(value):
    return json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _rendered(value):
    writes = []
    render_machine(value, types.SimpleNamespace(write=writes.append))
    return "".join(writes)


REPORT_TEXT = st.text(alphabet=st.one_of(
    st.characters(), st.sampled_from(["⌣", "₁", '"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\U0001d54b"]),
), max_size=6)
REPORT_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(), st.just(-0.0), REPORT_TEXT,
    st.integers(-5, 5), st.integers(2**64, 2**200), st.integers(-2**200, -2**64),
)
REPORT_KEYS = st.one_of(REPORT_TEXT, st.integers(-2**70, 2**70))
REPORT_TREES = st.recursive(REPORT_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.just([]), st.just({}), st.just([[], {}, [[]]]),
    # one key type per dict, as `sort_keys` needs
    st.dictionaries(REPORT_TEXT, children, max_size=4),
    st.dictionaries(st.integers(-2**70, 2**70), children, max_size=4),
    st.dictionaries(st.floats(), children, max_size=3),
), max_leaves=40)


@settings(max_examples=200, deadline=None, database=None)
@given(REPORT_TREES)
def test_render_machine_equals_json_dumps(report):
    assert _rendered(report) == _dumps(report)


@settings(max_examples=100, deadline=None, database=None)
@given(st.text(max_size=3), st.integers(), st.dictionaries(REPORT_KEYS, REPORT_SCALARS, max_size=3))
def test_render_machine_raises_type_error_on_mixed_keys_as_json_does(text_key, int_key, more):
    report = {"outer": [{**more, text_key: 1, int_key: 2}]}
    with pytest.raises(TypeError):
        _dumps(report)
    with pytest.raises(TypeError):
        _rendered(report)


def _streamed(value, pick):
    """`value` with each list for which `pick()` is true replaced by a
    generator over its items, the items streamed the same way."""
    if isinstance(value, dict):
        return {k: _streamed(v, pick) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        items = [_streamed(v, pick) for v in value]
        if isinstance(value, list) and pick():
            return (item for item in items)
        return type(value)(items)
    return value


@settings(max_examples=200, deadline=None, database=None)
@given(REPORT_TREES, st.randoms(use_true_random=False))
@example([], random.Random(0))
@example({"a": [[], {}, [[]]], "b": [], "c": [[[], [1]]]}, random.Random(0))
def test_render_machine_writes_an_iterator_as_the_list_it_yields(report, rng):
    # with every list streamed, and with about half of them
    assert _rendered(_streamed(report, lambda: True)) == _dumps(report)
    assert _rendered(_streamed(report, lambda: rng.random() < 0.5)) == _dumps(report)


def test_render_machine_writes_before_the_cell_iterator_is_exhausted():
    f_vector, cells = iter_cells(6)
    made = []

    def counted():
        for cell in cells:
            made.append(cell)
            yield cell

    seen_at_write = []
    render_machine({"cells": counted()}, types.SimpleNamespace(write=lambda text: seen_at_write.append(len(made))))
    assert len(made) == sum(f_vector)
    assert seen_at_write[0] < len(made)


def test_render_machine_writes_the_p5_report_in_bounded_pieces():
    report, _ = run_command(Workspace(), build_parser().parse_args(["--command", "permutohedron", "--n", "5"]))
    writes = []
    render_machine(report, types.SimpleNamespace(write=writes.append))
    assert len(writes) > 1
    assert max(len(text) for text in writes) <= 2 * _FLUSH_CHARS
    # the report's cells are a one-shot iterator; the list form holds the same cells
    assert "".join(writes) == _dumps({**report, "cells": complex_description(5)["cells"]})
