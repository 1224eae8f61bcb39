"""Command-line surface: parse a workspace document, dispatch one
computation, emit a deterministic report.

The input is a JSON object tree with sections `cgas`, `dgas`,
`twistings`, `gauges`, `homs`, `hypotheses`, `cga_maps`, `spaces`.
Elements are lists of [coefficient, word] pairs; a word is a list of
generator names where a cup-one bundle is written {"cup1": ["a","b"]}.
Reports come out as aligned text or as machine-readable JSON: the machine
output is exactly `json.dumps(report, ensure_ascii=False, sort_keys=True,
indent=2)` plus a newline, written in pieces rather than built whole.  A
report member may be an iterator, such as the cells of `permutohedron`,
which are made while the report is written; it is written as the JSON list
it yields.
Exit codes are 0 computed/pass, 1 checked-and-failed, 2 bad input.
No input prints a traceback: bad input exits 2 with a message that names
its path in the document, such as `dgas.d: differential`.  A domain error
met while a report is written exits 2 the same way; the report on stdout
then stops where the error was met.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Iterator
from itertools import repeat
from json.encoder import encode_basestring

from .algebra import TensorElement, _merge
from .cup1 import Cup1Monomial, normalize_cup1
from .dga import BigradedDGA, SimplicialComplex
from .errors import DomainError, SizeError
from .groups import GroupHom, HypothesisInstance, check_hypotheses, tor
from .linalg import FGAbelianGroup, IntMatrix
from .permutohedron import Face, face_boundary, iter_cells
from .resolution import (
    INFINITY,
    CgaPresentation,
    build_resolution,
    build_rh_map,
    certify_resolution,
)
from .twisting import GaugeElement, TwistingElement, build_DX, gauge_act, gauge_equivalent, is_twisting

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2


class InputError(Exception):
    """Bad document or usage; exits with code 2."""


_GROUP_TOKEN = re.compile(r"^(Z(\^(\d+))?|Z/(\d+)|0)$")
_DECIMAL = re.compile(r"-?[0-9]+")


def _integer(value, where, key=False):
    """A JSON integer; a JSON object key is a string, so a `key` is a decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if key and isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise InputError(f"{where} {value!r} is not an integer")


def parse_group(text):
    """Parse group literals like "Z", "Z^2 + Z/4", "Z/6", "0"."""
    rank, divisors = 0, []
    for part in str(text).split("+"):
        part = part.strip()
        m = _GROUP_TOKEN.match(part)
        if not m:
            raise InputError(f"cannot parse group literal {part!r}")
        if part == "0":
            continue
        try:
            count = int(m.group(3) or m.group(4) or 1)
        except ValueError:  # more digits than Python converts to an int
            raise InputError("a group literal has more digits than an integer can hold") from None
        if m.group(4) is None:
            rank += count
        elif count < 1:
            raise InputError(f"bad cyclic order in {part!r}")
        else:
            divisors.append(count)
    return FGAbelianGroup(rank, FGAbelianGroup.from_divisors(divisors).torsion)


class Workspace:
    """Validated objects from one input document, keyed by name."""

    def __init__(self):
        self.cgas = {}
        self.dgas = {}
        self.twistings = {}
        self.gauges = {}
        self.homs = {}
        self.hypotheses = {}
        self.cga_maps = {}
        self.spaces = {}


def _object(value, name):
    """`value` if it is a JSON object; bad input named by `name` if not."""
    if not isinstance(value, dict):
        raise InputError(f"{name} must be a JSON object")
    return value


def _pairs(pairs, where, shape, kind):
    """[(coefficient, x), ...] from the JSON list [[coefficient, x], ...],
    where each x is of type `shape` and is called a `kind` in errors."""
    if not (isinstance(pairs, list)
            and all(isinstance(item, list) and len(item) == 2 and isinstance(item[1], shape) for item in pairs)):
        raise InputError(f"{where}: an element must be a JSON list of [coefficient, {kind}] pairs")
    return [(_integer(coeff, f"{where}: coefficient"), x) for coeff, x in pairs]


def _label_table(pairs, where):
    """{label: coefficient} from [[coefficient, label], ...], adding repeats."""
    table = {}
    for coeff, label in _pairs(pairs, where, str, "label"):
        table[label] = table.get(label, 0) + coeff
    return table


def _element_from_pairs(dga, pairs, where):
    try:
        return dga.element(_label_table(pairs, where))
    except DomainError as exc:
        raise InputError(f"{where}: {exc}") from None


def _load_dga(where, spec):
    bidegrees = {}
    for entry in spec.get("basis", []):
        label, r, t = entry
        if str(label) in bidegrees:
            raise InputError(f"{where}: duplicate basis label {label!r}")
        degree = f"{where}: basis label {label!r}: degree"
        bidegrees[str(label)] = (_integer(r, degree), _integer(t, degree))
    differential = _object(spec.get("differential", {}), f"{where}: differential")
    diff = {l: t for l, p in sorted(differential.items()) if (t := _label_table(p, f"{where}: d({l})"))}
    rows, listed = {}, set()
    for a, b, p in spec.get("products", []):
        if (str(a), str(b)) in listed:
            raise InputError(f"{where}: product {a}·{b} listed twice")
        listed.add((str(a), str(b)))
        if table := _label_table(p, f"{where}: {a}·{b}"):
            rows.setdefault(str(a), {})[str(b)] = table
    unit = _label_table(spec.get("unit", []), f"{where}: unit")
    return BigradedDGA(where.removeprefix("dgas."), bidegrees, diff, rows, unit)


def _load_section(doc, section, load):
    """{name: load(where, spec)} over the entries of one section, in name
    order, with `where` the path "section.name".  The section and each
    entry must be JSON objects; a domain error of an entry is bad input
    named by its path."""
    loaded = {}
    for name, spec in sorted(_object(doc.get(section, {}), section).items()):
        where = f"{section}.{name}"
        try:
            loaded[name] = load(where, _object(spec, where))
        except (DomainError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{where}: {exc}") from None
    return loaded


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise InputError(f"duplicate object name {key!r}")
        seen[key] = value
    return seen


def parse_input(text, source_name="<input>"):
    """Parse and validate a workspace document; diagnostics carry the
    object path, and JSON syntax errors carry line and column."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source_name}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise InputError(f"{source_name}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    w = Workspace()

    def cga(where, spec):
        generators = _object(spec["generators"], f"{where}: generators")
        gens = {k: _integer(v, f"{where}: generator {k} degree") for k, v in generators.items()}
        m = spec.get("m", "infinity")
        m = INFINITY if m in ("infinity", "inf", None) else _integer(m, f"{where}: m")
        return CgaPresentation.of(gens, m)

    def level_element(cls):
        def load(where, spec):
            dga = w.dgas.get(spec.get("dga"))
            if dga is None:
                raise InputError(f"{where}: unknown dga {spec.get('dga')!r}")
            truncation = _integer(spec["truncation"], f"{where}: truncation")
            components = {
                _integer(r, f"{where}: component level", key=True):
                    _element_from_pairs(dga, pairs, f"{where}.components[{r}]")
                for r, pairs in _object(spec.get("components", {}), f"{where}: components").items()
            }
            return cls(dga, truncation, components)
        return load

    def hom(where, spec):
        src = parse_group(spec["source"])
        tgt = parse_group(spec["target"])
        entry = f"{where}: matrix entry"
        return GroupHom(src, tgt, IntMatrix([[_integer(v, entry) for v in row] for row in spec["matrix"]]))

    def hypothesis(where, spec):
        m = _integer(spec["m"], f"{where}: m")
        cohomology = {_integer(k, f"{where}: cohomology degree", key=True): parse_group(v)
                      for k, v in _object(spec.get("cohomology", {}), f"{where}: cohomology").items()}
        hurewicz = {}
        for k, hom_name in _object(spec.get("hurewicz", {}), f"{where}: hurewicz").items():
            if hom_name not in w.homs:
                raise InputError(f"{where}: unknown hom {hom_name!r}")
            hurewicz[_integer(k, f"{where}: hurewicz degree", key=True)] = w.homs[hom_name]
        return HypothesisInstance(m, cohomology, hurewicz)

    def cga_map(where, spec):
        if spec.get("source") not in w.cgas or spec.get("target") not in w.cgas:
            raise InputError(f"{where}: unknown source or target cga")
        return dict(spec)

    def space(where, spec):
        return SimplicialComplex([[_integer(v, f"{where}: vertex") for v in s] for s in spec["simplices"]])

    # in load order: an entry may name entries of the sections before it
    sections = {"cgas": cga, "dgas": _load_dga, "twistings": level_element(TwistingElement),
                "gauges": level_element(GaugeElement), "homs": hom, "hypotheses": hypothesis,
                "cga_maps": cga_map, "spaces": space}
    unknown = sorted(set(doc) - set(sections))
    if unknown:
        raise InputError(f"unknown top-level section {unknown[0]!r}")
    for section, load in sections.items():
        setattr(w, section, _load_section(doc, section, load))
    return w


def _cga_element(resolution, pairs, where):
    """Element of a resolution from [[coeff, word], ...] with cup1 letters."""
    out = {}
    for coeff, word in _pairs(pairs, where, list, "word"):
        letters = []
        sign = 1
        for token in word:
            factors = token.get("cup1") if isinstance(token, dict) and len(token) == 1 else None
            if isinstance(token, str):
                letters.append(resolution.letter(token))
            elif isinstance(factors, list) and all(isinstance(name, str) for name in factors):
                normalized = normalize_cup1([resolution.letter(name) for name in factors])
                if normalized is None:
                    sign = 0
                    break
                s, letter = normalized
                sign *= s
                letters.append(letter)
            else:
                raise InputError(f"{where}: bad word letter {token!r}")
        if sign:
            _merge(out, [(tuple(letters), coeff * sign)])
    return TensorElement(out)


def element_to_pairs(element):
    """Machine form of a tensor element: [[coeff, word], ...]."""
    pairs = []
    for word, coeff in element.sorted_terms():
        encoded = []
        for letter in word:
            if isinstance(letter, Cup1Monomial):
                encoded.append({"cup1": [f.name for f in letter.factors]})
            else:
                encoded.append(letter.name)
        pairs.append([coeff, encoded])
    return pairs


def _dga_element_pairs(element):
    return [[c, l] for l, c in sorted(element.terms.items())]


# ---------------------------------------------------------------------------
# commands


def _need(w, store, name, kind):
    if name is None:
        raise InputError(f"missing --{kind} argument")
    obj = getattr(w, store).get(name)
    if obj is None:
        raise InputError(f"no {kind} named {name!r} in the workspace")
    return obj


def _truncation_acts(truncation, presentations):
    """Bad input when a --truncation is given and none of `presentations`
    ({where: presentation}) has m = ∞, the only place it acts."""
    if truncation is not None and all(p.m is not INFINITY for p in presentations.values()):
        held = " and ".join(f"{where} has m={p.m}" for where, p in presentations.items())
        raise InputError(f"--truncation acts only where m = infinity, but {held}")


def _resolve_args(w, args):
    p = _need(w, "cgas", args.cga, "cga")
    where = f"cgas.{args.cga}"
    if args.m is not None:
        try:
            p = CgaPresentation(p.generators, args.m)
        except DomainError as exc:
            raise InputError(f"{where} with m={args.m}: {exc}") from None
        where += " with --m"
    _truncation_acts(args.truncation, {where: p})
    return _build_resolution(p, args.truncation, where)


def _build_resolution(p, truncation, where):
    """build_resolution(p), with a refusal by its size guard named by `where`."""
    try:
        return build_resolution(p, truncation=truncation)
    except SizeError as exc:
        raise InputError(f"{where}: {exc}") from None


def cmd_resolve(w, args):
    r = _resolve_args(w, args)
    generators = []
    for letter in sorted(r.letters, key=lambda l: (-l.res_degree, l.sort_key())):
        generators.append({
            "label": letter.label(),
            "bidegree": list(letter.bidegree),
            "total_degree": letter.total_degree,
            "differential": element_to_pairs(r.images[letter]),
            "differential_text": str(r.images[letter]),
        })
    report = {
        "command": "resolve",
        "parameters": {"cga": args.cga, "m": r.m},
        "verdict": "computed",
        "generators": generators,
    }
    return report, EXIT_OK


def cmd_certify(w, args):
    r = _resolve_args(w, args)
    try:
        rep = certify_resolution(r)
    except SizeError as exc:
        raise InputError(f"cgas.{args.cga}: {exc}") from None
    report = {
        "command": "certify",
        "parameters": {"cga": args.cga, "m": r.m},
        "verdict": "pass" if rep.ok else "fail",
        "rho_d_zero": rep.rho_d_zero,
        "rho_surjective": rep.rho_surjective,
        "degrees": [
            {
                "total_degree": c.total_degree,
                "negative_positions": c.negative_positions,
                "negative_ok": c.negative_ok,
                "exact_at_zero": c.exact_at_zero,
            }
            for c in rep.degrees
        ],
    }
    if rep.failure:
        report["failure"] = rep.failure
    return report, EXIT_OK if rep.ok else EXIT_FAILED


def cmd_permutohedron(w, args):
    if args.n is None:
        raise InputError("missing --n argument")
    f_vector, cells = iter_cells(args.n)
    report = {
        "command": "permutohedron",
        "parameters": {"n": args.n},
        "verdict": "computed",
        "f_vector": f_vector,
        "cells": cells,
    }
    return report, EXIT_OK


def cmd_boundary(w, args):
    if args.face is None:
        raise InputError("missing --face argument")
    face = Face.parse(args.face, n=args.n)
    terms = face_boundary(face)
    report = {
        "command": "boundary",
        "parameters": {"face": str(face), "n": face.n},
        "verdict": "computed",
        "boundary": [{"coefficient": c, "face": str(f)} for c, f in terms],
    }
    return report, EXIT_OK


def cmd_rh_map(w, args):
    spec = _need(w, "cga_maps", args.map, "map")
    _truncation_acts(args.truncation, {f"cgas.{spec[end]}": w.cgas[spec[end]] for end in ("source", "target")})
    source = _build_resolution(w.cgas[spec["source"]], args.truncation, f"cgas.{spec['source']}")
    target = _build_resolution(w.cgas[spec["target"]], args.truncation, f"cgas.{spec['target']}")
    images = {
        name: _cga_element(target, pairs, f"cga_maps.{args.map}.images.{name}")
        for name, pairs in _object(spec.get("images", {}), f"cga_maps.{args.map}: images").items()
    }
    try:
        rh = build_rh_map(images, source, target)
    except DomainError as exc:
        report = {
            "command": "rh-map",
            "parameters": {"map": args.map},
            "verdict": "fail",
            "failure": str(exc),
        }
        return report, EXIT_FAILED
    table = []
    for letter in sorted(source.letters, key=lambda l: (-l.res_degree, l.sort_key())):
        img = rh.images[letter]
        table.append({
            "generator": letter.label(),
            "image": element_to_pairs(img),
            "image_text": str(img),
        })
    report = {
        "command": "rh-map",
        "parameters": {"map": args.map, "source": spec["source"], "target": spec["target"]},
        "verdict": "pass",
        "chain_map": True,
        "images": table,
    }
    return report, EXIT_OK


def cmd_twisting_check(w, args):
    a = _need(w, "twistings", args.twisting, "twisting")
    rep = is_twisting(a)
    report = {
        "command": "twisting-check",
        "parameters": {"twisting": args.twisting, "truncation": a.truncation},
        "verdict": "pass" if rep.ok else "fail",
    }
    if not rep.ok:
        report["failed_level"] = rep.failed_level
        report["residual"] = _dga_element_pairs(rep.residual)
    return report, EXIT_OK if rep.ok else EXIT_FAILED


def cmd_gauge(w, args):
    a = _need(w, "twistings", args.twisting, "twisting")
    p = _need(w, "gauges", args.gauge, "gauge")
    b = gauge_act(a, p)
    rep = is_twisting(b)
    report = {
        "command": "gauge",
        "parameters": {"twisting": args.twisting, "gauge": args.gauge, "truncation": a.truncation},
        "verdict": "computed",
        "result": {str(r): _dga_element_pairs(c) for r, c in sorted(b.components.items())},
        "result_twisting": rep.ok,
    }
    return report, EXIT_OK


def cmd_orbit(w, args):
    a = _need(w, "twistings", args.a, "a")
    b = _need(w, "twistings", args.b, "b")
    verdict = gauge_equivalent(a, b)
    report = {
        "command": "orbit",
        "parameters": {"a": args.a, "b": args.b, "truncation": a.truncation},
        "verdict": verdict.status,
        "unknowns": verdict.nodes_used,
    }
    if verdict.status == "witness":
        report["witness"] = {str(r): _dga_element_pairs(c) for r, c in sorted(verdict.witness.components.items())}
        return report, EXIT_OK
    report["refutation_level"] = verdict.refutation_level
    report["obstruction"] = _dga_element_pairs(verdict.obstruction)
    report["modulus"] = verdict.modulus
    return report, EXIT_FAILED


def cmd_tor(w, args):
    if args.a is None or args.b is None:
        raise InputError("tor needs --a and --b group literals")
    a = parse_group(args.a)
    b = parse_group(args.b)
    report = {
        "command": "tor",
        "parameters": {"a": str(a), "b": str(b)},
        "verdict": "computed",
        "tor": str(tor(a, b)),
    }
    return report, EXIT_OK


def cmd_hypotheses(w, args):
    inst = _need(w, "hypotheses", args.instance, "instance")
    rep = check_hypotheses(inst)
    rows = []
    for v in rep.verdicts:
        row = {"degree": v.degree}
        if v.skipped:
            row["status"] = "skipped"
            row["note"] = v.note
        else:
            row["status"] = "pass" if v.ok else "fail"
            row["injective"] = v.injective
            row["tor"] = str(v.tor_group)
            if v.note:
                row["note"] = v.note
        rows.append(row)
    report = {
        "command": "hypotheses",
        "parameters": {"instance": args.instance, "m": inst.m},
        "verdict": "pass" if rep.ok else "fail",
        "condition": rep.condition,
        "degrees": rows,
    }
    return report, EXIT_OK if rep.ok else EXIT_FAILED


def cmd_d_x(w, args):
    space = _need(w, "spaces", args.space, "space")
    if args.homology is None:
        raise InputError("d-x needs --homology, a comma-separated list of group literals")
    groups = [parse_group(tok) for tok in args.homology.split(",")]
    dga = build_DX(space, groups)
    truncation = 3 if args.truncation is None else args.truncation
    zero = TwistingElement.zero(dga, truncation)
    smoke = is_twisting(zero)
    report = {
        "command": "d-x",
        "parameters": {
            "space": args.space,
            "homology": [str(g) for g in groups],
            "truncation": truncation,
        },
        "verdict": "computed",
        "components": [
            {"bidegree": [r, t], "rank": len(labels)}
            for (r, t), labels in sorted(dga.components().items())
        ],
        "nabla_squared_zero": True,
        "zero_element_twisting": smoke.ok,
    }
    return report, EXIT_OK


COMMANDS = {
    "resolve": cmd_resolve,
    "certify": cmd_certify,
    "permutohedron": cmd_permutohedron,
    "boundary": cmd_boundary,
    "rh-map": cmd_rh_map,
    "twisting-check": cmd_twisting_check,
    "gauge": cmd_gauge,
    "orbit": cmd_orbit,
    "tor": cmd_tor,
    "hypotheses": cmd_hypotheses,
    "d-x": cmd_d_x,
}


def run_command(w, args):
    """Dispatch one command against a workspace; returns (report, exit code)."""
    handler = COMMANDS.get(args.command)
    if handler is None:
        raise InputError(f"unknown command {args.command!r}")
    return handler(w, args)


# ---------------------------------------------------------------------------
# rendering


def _render_value(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)) and all(isinstance(v, (int, str)) for v in value):
        return "(" + ", ".join(str(v) for v in value) + ")"
    return str(value)


def _render_table(rows, indent="  "):
    """Yield the lines of a table of `rows` (dicts), with a header of
    their keys and each column as wide as its widest cell."""
    keys = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    cells = [[_render_value(row.get(k, "")) if not isinstance(row.get(k), (list, dict)) or k in ("bidegree", "f_vector")
              else json.dumps(row.get(k), ensure_ascii=False, sort_keys=True)
              for k in keys] for row in rows]
    widths = [max(len(k), *(len(c[i]) for c in cells)) if cells else len(k) for i, k in enumerate(keys)]
    yield indent + "  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()
    for c in cells:
        yield indent + "  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip()


def _text_lines(report):
    """Yield the lines of the text form of `report`.  Its iterator members
    are made into lists before the first line, since a table sizes its
    columns from all of its rows."""
    report = {k: list(v) if isinstance(v, Iterator) else v for k, v in report.items()}
    yield f"command: {report['command']}"
    params = report.get("parameters", {})
    if params:
        yield "parameters: " + ", ".join(f"{k}={_render_value(v)}" for k, v in sorted(params.items()))
    yield f"verdict: {report['verdict']}"
    for key in sorted(report):
        if key in ("command", "parameters", "verdict"):
            continue
        value = report[key]
        if isinstance(value, list) and value and isinstance(value[0], dict):
            yield f"{key}:"
            yield from _render_table(value)
        elif isinstance(value, dict):
            yield f"{key}:"
            for k, v in sorted(value.items()):
                yield f"  {k}: {json.dumps(v, ensure_ascii=False, sort_keys=True) if isinstance(v, (list, dict)) else _render_value(v)}"
        elif isinstance(value, list):
            yield f"{key}: {json.dumps(value, ensure_ascii=False, sort_keys=True)}"
        else:
            yield f"{key}: {_render_value(value)}"


def render_text(report, out):
    """Write the text form of `report` to `out` a line at a time, each
    ended by a newline, without building the whole text."""
    for line in _text_lines(report):
        out.write(line + "\n")


# Scalars other than a plain str or int (bool, None, float, subclasses) and
# the TypeError of a value JSON cannot hold come from the C encoder.
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode
_FLUSH_CHARS = 1 << 16
_JOIN_PIECES = 256


def _key(key):
    """A dict key as a JSON string, converted the way `json` converts it."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
        key = _encode_scalar(key)
    return encode_basestring(key)


def _put_json(node, newline, pending, write):
    """Append the JSON text of a non-empty dict, list or tuple `node`, or
    of the list an iterator `node` yields, to `pending`, its closing
    bracket after `newline` (a newline and the node's own indentation).
    Scalars and empty containers join the text around them, so only a
    non-empty container or an iterator member makes a call and a piece of
    its own; an iterator is drawn from as it is written.  Every
    _JOIN_PIECES pieces are joined, and written once they reach
    _FLUSH_CHARS characters."""
    if isinstance(node, dict):
        members = [((encode_basestring(k) if type(k) is str else _key(k)) + ": ", v) for k, v in sorted(node.items())]
        opening, closing = "{", "}"
    else:
        members = zip(repeat(""), node)
        opening, closing = "[", "]"
    inner = newline + "  "
    lead = opening + inner
    text = ""
    for name, v in members:
        kind = type(v)
        if kind is str:
            text += lead + name + encode_basestring(v)
        elif kind is int:
            text += lead + name + int.__repr__(v)
        elif isinstance(v, (dict, list, tuple)) and v or isinstance(v, Iterator):
            pending.append(text + lead + name)
            _put_json(v, inner, pending, write)
            text = ""
        else:
            text += lead + name + _encode_scalar(v)
        lead = "," + inner
    # only an iterator that yields nothing leaves `lead` at its opening
    pending.append(opening + closing if lead[0] == opening else text + newline + closing)
    if len(pending) >= _JOIN_PIECES:
        joined = "".join(pending)
        pending.clear()
        if len(joined) >= _FLUSH_CHARS:
            write(joined)
        else:
            pending.append(joined)


def render_machine(report, out):
    """Write `json.dumps(report, ensure_ascii=False, sort_keys=True,
    indent=2)` and a newline to `out`, in writes of about 64 Ki characters,
    without building the whole document.  An iterator in `report` is
    written as the JSON list it yields, drawn from as it is written; an
    error it raises leaves on `out` what was written before it."""
    pending = []
    if isinstance(report, (dict, list, tuple)) and report or isinstance(report, Iterator):
        _put_json(report, "\n", pending, out.write)
    else:
        pending.append(_encode_scalar(report))
    pending.append("\n")
    out.write("".join(pending))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cupone",
        description="exact cup-one resolution, permutohedron and gauge-calculus engine",
    )
    parser.add_argument("--input", help="workspace document (JSON)")
    parser.add_argument("--command", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--truncation", type=int, default=None, help="total-degree or perturbation truncation")
    parser.add_argument("--cga", help="presentation name (resolve, certify)")
    parser.add_argument("--m", type=int, default=None, help="range override for resolve/certify")
    parser.add_argument("--n", type=int, help="permutohedron size")
    parser.add_argument("--face", help="face in the form ({1,3},{2})")
    parser.add_argument("--map", help="cga map name (rh-map)")
    parser.add_argument("--twisting", help="twisting element name")
    parser.add_argument("--gauge", help="gauge element name")
    parser.add_argument("--a", help="first operand (orbit: twisting name; tor: group literal)")
    parser.add_argument("--b", help="second operand (orbit: twisting name; tor: group literal)")
    parser.add_argument("--instance", help="hypothesis instance name")
    parser.add_argument("--space", help="simplicial complex name (d-x)")
    parser.add_argument("--homology", help="comma-separated graded group literals (d-x)")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        if args.input:
            try:
                with open(args.input, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise InputError(f"cannot read {args.input}: {exc}") from None
            workspace = parse_input(text, source_name=args.input)
        else:
            workspace = Workspace()
        report, code = run_command(workspace, args)
        render = render_machine if args.format == "machine" else render_text
        render(report, sys.stdout)  # may still raise: report members can be made as they are written
    except (InputError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
