import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupone.cli import InputError, Workspace, main, parse_group, parse_input, render_machine, run_command

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
    with pytest.raises(InputError):
        parse_group("Q")


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
    # a * p adds ∇(3u) = 3f at level 2
    assert '"e"' not in out or True
    # orbit: a ~ b (b − a = 5f is exact: ∇(5u)); a !~ c (class differs)
    assert main(["--input", doc_path, "--command", "orbit", "--a", "a", "--b", "b"]) == 0
    assert main(["--input", doc_path, "--command", "orbit", "--a", "a", "--b", "c"]) == 1
    out = capsys.readouterr().out
    assert "refuted" in out


def test_cli_orbit_inconclusive_exit_code(doc_path, capsys):
    assert main(["--input", doc_path, "--command", "orbit", "--a", "a", "--b", "b",
                 "--budget", "1"]) == 3
    out = capsys.readouterr().out
    assert "inconclusive" in out


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


def test_reports_are_deterministic(doc_path, capsys):
    for _ in range(2):
        assert main(["--input", doc_path, "--command", "certify", "--cga", "P2",
                     "--format", "machine"]) == 0
    out = capsys.readouterr().out
    half = len(out) // 2
    assert out[:half] == out[half:]


OUT_OF_DOMAIN_DOC = {
    "cgas": {**DOC["cgas"], "Pinf": {"generators": {"x": 2, "y": 2}, "m": "infinity"}},
    "cga_maps": {
        "bad": {"source": "P2", "target": "Q", "images": {"x": [["two", ["u"]]], "y": [[3, ["u"]]]}},
    },
    "spaces": DOC["spaces"],
}


def _cga_text(generators, m):
    """A workspace holding one presentation `c`, written as JSON text so
    that literals such as 1e400 and NaN reach the parser as written."""
    return '{"cgas": {"c": {"generators": %s, "m": %s}}}' % (generators, m)


CERTIFY_C = ["--command", "certify", "--cga", "c"]


# (argv, message) run on OUT_OF_DOMAIN_DOC
OUT_OF_DOMAIN_ARGV = [
    (["--command", "boundary", "--face", "({a},{1})"], "({a},{1})"),
    (["--command", "boundary", "--face", "({1,2,3,4,5,6,7,8})"], "between 1 and 7"),
    (["--command", "rh-map", "--map", "bad"], "cga_maps.bad.images.x"),
    (["--command", "resolve", "--cga", "Pinf", "--truncation", "-3"], "truncation"),
    (["--command", "certify", "--cga", "Pinf", "--truncation", "0"], "truncation"),
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
def mutated_documents(draw):
    """DOC, which holds an entry of every section, mutated at one to three
    values at any level: a value changes its JSON type, its key is dropped,
    or it is nested in a list where an object or a scalar belongs."""
    holder = {"doc": copy.deepcopy(DOC)}
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_document_paths(holder))[1:]))
        parent = holder
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["retype", "drop", "nest"] if len(path) > 1 else ["retype", "nest"]))
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "nest":
            parent[path[-1]] = [parent[path[-1]]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return json.dumps(holder["doc"])


@settings(max_examples=300, deadline=None, database=None)
@given(mutated_documents())
def test_parse_input_returns_a_workspace_or_raises_input_error(text):
    try:
        workspace = parse_input(text)
    except InputError:
        return
    assert isinstance(workspace, Workspace)


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


# SHA-256 of the stdout of each run, recorded before P_n and the resolution
# summands shared one enumerator and one boundary builder; `{doc}` is a
# workspace holding the presentation T3.
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
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT)
def test_cli_stdout_is_byte_identical_to_the_pinned_runs(tmp_path, capsys, argv, digest):
    import hashlib

    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"cgas": {"T3": {"generators": {"x": 2, "y": 2, "z": 4}, "m": 8}}}), encoding="utf-8")
    assert main([arg.replace("{doc}", str(path)) for arg in argv.split()]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
