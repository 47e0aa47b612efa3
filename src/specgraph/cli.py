"""Batch command-line front end: generation, spectra, character tables,
bound audits, corpus verification, and isomorphism comparison, all emitting
strict JSON with the seed and configuration echoed for reproducibility.

Importing this module pins OpenBLAS and OpenMP to one thread, overriding any
value in the environment, because a dense solve's last bits depend on the
thread count and reports must not.  The pin takes effect only if numpy is not
loaded yet: the CLI and the ``specgraph`` script are pinned, an in-process
caller that imported numpy first is not.

Importing it also freezes the heap once its imports finish: every object alive
then (the modules, classes and tables of numpy, of this package and of whatever
the importer loaded first) moves to the garbage collector's permanent
generation.  They live until exit anyway, so neither a collection during a run
nor the one at interpreter exit walks them again; that exit walk was most of a
short run's teardown.  The collector stays on for everything allocated
afterwards.  An in-process caller inherits the freeze as it inherits the pin:
cyclic garbage it made before the import is no longer reclaimed.
"""

from __future__ import annotations

import contextlib
import gc as pygc
import json
import os
import sys
import types
from json.encoder import encode_basestring_ascii

# before the package imports below load numpy
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from . import bounds as bd
from . import characters as ch
from . import corpus as corpus_mod
from . import finite_field as ff
from . import graph_core as gc
from . import graph_families as gfam
from . import spectra as sp
from .errors import (BadParameters, CapExceeded, Mismatch, NoClosedForm, SizeOverflow,
                     SpecgraphError)

# after the last import: see the module docstring
pygc.freeze()

DEFAULT_CAPS = {"chi": gc.CHI_CAP, "beta": gc.BETA_CAP, "iso": gc.ISO_CAP}
DEFAULT_SEED = 20150901
# the most entries of one `chars` table: q(q - 1) Gauss sums, (q - 1)^2 Jacobi
# and Kloosterman sums, (q^ext - 1) q^(ext - 1) Eisenstein terms; q <= 1024
CHARS_TABLE_CAP = 1 << 20
CHARS_BLOCK_ROWS = 1024  # `chars` rows rendered and written at a time


@contextlib.contextmanager
def _output(path: str | None):
    """The report's stream: the file at path, or stdout."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise BadParameters(f"cannot write {path}: {exc}") from None


def _write(text: str, path: str | None) -> None:
    with _output(path) as out:
        out.write(text)


def _emit(payload: dict, config: dict, path: str | None, rows=None) -> None:
    """Write the report: the payload with the version and the config, as
    strict JSON indented by 2 with sorted keys.  ``rows``, an iterable of
    blocks of rendered list items, becomes the report's "rows" list: the
    envelope around it comes from json.dumps, and each block is written as
    it is rendered."""
    doc = {"version": __version__, "config": config}
    doc.update(payload)
    if rows is None:
        _write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", path)
        return
    doc["rows"] = []
    # JSON escapes the quotes inside a string, so only the key itself matches
    head, _, tail = json.dumps(doc, indent=2, sort_keys=True,
                               allow_nan=False).partition('"rows": []')
    with _output(path) as out:
        out.write(head + '"rows": [\n')
        sep = ""
        for block in rows:
            out.write(sep + block)
            sep = ",\n"
        out.write("\n  ]" + tail + "\n")


def _parse_caps(text: str | None) -> dict:
    caps = dict(DEFAULT_CAPS)
    if not text:
        return caps
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in caps:
            raise BadParameters(f"unknown cap {key!r}; expected chi, beta, iso")
        try:
            cap = int(value)
        except ValueError:
            raise BadParameters(f"cap {key} needs an integer, got {value!r}") from None
        if cap < 0:
            raise BadParameters(f"cap {key} must be at least 0, got {cap}")
        # caps may only be lowered below the defaults, never raised; 0 skips the engine
        caps[key] = min(caps[key], cap)
    return caps


def load_graph_source(source: str, *params) -> gc.Graph:
    """A graph source is an edge-list file path, or a family spec as
    ``graph_families.parse_source`` reads it."""
    if os.path.exists(source) and not params:
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise BadParameters(f"cannot read {source}: {exc}") from None
        return gc.parse_edge_list(text, name=os.path.basename(source))
    return gfam.build(source, *params)


def cmd_gen(args) -> int:
    g = load_graph_source(args.family, *args.params)
    if args.out == "json":
        config = {"command": "gen", "family": args.family, "params": list(args.params),
                  "out": args.out, "seed": args.seed}
        _emit(gc.to_json_dict(g), config, args.path)
    else:
        _write(gc.to_edge_list(g) if args.out == "edgelist" else gc.to_dot(g), args.path)
    return 0


def cmd_spec(args) -> int:
    g = load_graph_source(args.source, *args.params)
    config = {"command": "spec", "source": args.source, "params": list(args.params),
              "kind": args.kind, "seed": args.seed}
    spectrum = sp.spectrum(g, args.kind)
    payload: dict = {"graph": {"n": g.n, "edges": g.edge_count, "name": g.name},
                     "spectrum": spectrum.to_json()}
    if args.closed_form:
        try:
            family, params = gfam.parse_source(args.source, *args.params)
            cf = sp.closed_form_spectrum(family, *params)
            if args.kind == "laplacian":
                if not g.is_regular:
                    raise NoClosedForm("laplacian closed form needs a regular family")
                cf = cf.laplacian_for_regular(g.max_degree)
            result = sp.verify_closed_form(spectrum, cf, name=g.name)
            payload["closed_form"] = {"entries": cf.to_json()["entries"],
                                      "match": result}
        except NoClosedForm as exc:
            payload["closed_form"] = {"error": str(exc)}
        except Mismatch as exc:
            payload["closed_form"] = {"mismatch": str(exc)}
    _emit(payload, config, args.path)
    return 0


def _chars_size(q: int, ext: int | None) -> None:
    """SizeOverflow if a table of `chars q [--ext ext]` would hold more than
    CHARS_TABLE_CAP entries; a q or ext that the fields refuse is left to them."""
    if q < 2:
        return
    entries = q * (q - 1)
    if ext is not None and ext >= 1:
        e = min(ext, 21)  # from e = 21 on, even q = 2 is over the cap
        entries = max(entries, (q ** e - 1) * q ** (e - 1))
    if entries > CHARS_TABLE_CAP:
        raise SizeOverflow(f"chars {q}" + (f" --ext {ext}" if ext else "")
                           + f" needs a table of over {CHARS_TABLE_CAP} entries")


def _float_texts(column) -> list:
    """float.__repr__ of each float of a block's column, called once per
    distinct bit pattern; the key is the bits, not the float, since -0.0 and
    0.0 are one dict key but print differently."""
    bits = column.view(np.int64).tolist()
    distinct = dict(zip(bits, column.tolist()))
    texts = dict(zip(distinct, map(float.__repr__, distinct.values())))
    return list(map(texts.__getitem__, bits))


def _render(q: int, tables):
    """Blocks of CHARS_BLOCK_ROWS rendered rows of the tables, each a (sum
    type, first index, values, magnitudes, bounds, pass flags) of same-shaped
    arrays.  A row is one % format of its table's template, the row as
    json.dumps(indent=2, sort_keys=True) prints it in the report's "rows"
    list; floats print as float.__repr__, as in json, formatted once per
    distinct float of each column of a block, since most repeat."""
    field = encode_basestring_ascii(f"GF({q})")
    for sum_type, first, values, magnitude, bound, ok in tables:
        template = ('    {\n      "bound": %s,\n      "field": ' + field + ',\n      "im": %s,\n'
                    '      "indices": [\n' + ",\n".join(["        %d"] * values.ndim)
                    + '\n      ],\n      "magnitude": %s,\n      "pass": %s,\n      "re": %s,\n'
                    '      "sum_type": ' + encode_basestring_ascii(sum_type) + '\n    }')
        columns = [c.ravel() for c in (bound, values.imag, magnitude, ok, values.real)]
        for start in range(0, values.size, CHARS_BLOCK_ROWS):
            b, im, mag, flags, re = (c[start:start + CHARS_BLOCK_ROWS] for c in columns)
            index = np.unravel_index(np.arange(start, start + b.size), values.shape)
            block = (_float_texts(b), _float_texts(im), *((i + first).tolist() for i in index),
                     _float_texts(mag), np.where(flags, "true", "false").tolist(),
                     _float_texts(re))
            yield ",\n".join([template % row for row in zip(*block)])


def _char_rows(q: int, ext: int | None):
    """The rows of `chars q [--ext ext]`, as an iterator of blocks of
    rendered JSON text, and whether every row passes its law in
    `characters.checked_tables`.  The tables are built and checked, and every
    float the rows print is checked finite, before this returns, so a refusal
    comes before the first byte of the report."""
    _chars_size(q, ext)
    tables = ch.checked_tables(ff.field(q), ext)
    for sum_type, _, values, mag, bound, _ in tables:
        if not (np.isfinite(values).all() and np.isfinite(mag).all()
                and np.isfinite(bound).all()):
            raise ValueError(f"a {sum_type} row is not finite; "
                             "out of range float values are not JSON compliant")
    passed = all(ok.all() for *_, ok in tables)
    return _render(q, tables), passed


def cmd_chars(args) -> int:
    config = {"command": "chars", "q": args.q, "ext": args.ext, "seed": args.seed}
    rows, passed = _char_rows(args.q, args.ext)
    _emit({}, config, args.path, rows)
    return 0 if passed else 1


def _audit_graph(g: gc.Graph, caps: dict) -> bd.AuditReport:
    sp.spectrum(g, "laplacian")  # first, so that past its cap the exact engines never run
    return bd.audit_bounds(gc.invariant_report(g, chi_cap=caps["chi"], beta_cap=caps["beta"]))


def cmd_audit(args) -> int:
    g = load_graph_source(args.source, *args.params)
    caps = _parse_caps(args.caps)
    config = {"command": "audit", "source": args.source, "params": list(args.params),
              "seed": args.seed, "caps": caps}
    report = _audit_graph(g, caps)
    _emit({"audit": report.to_json()}, config, args.path)
    return 0 if report.ok else 1


def _checks(family: str, params: tuple, g: gc.Graph) -> tuple:
    """(the group-spectrum check's Mismatch or None, the closed-form match or its
    Mismatch or NoClosedForm) of g, the graph of family at params."""
    group = None
    try:
        sp.check_group_spectrum(g)
    except Mismatch as exc:
        group = exc
    try:
        cf = sp.closed_form_spectrum(family, *params)
        return group, sp.verify_closed_form(sp.spectrum(g), cf, name=g.name)
    except (Mismatch, NoClosedForm) as exc:
        return group, exc


def cmd_verify(args) -> int:
    caps = _parse_caps(args.caps)
    ids = args.families.split(",") if args.families else None
    config = {"command": "verify", "families": args.families, "seed": args.seed,
              "caps": caps}
    graphs = []
    total_fail = 0
    closed_forms = []
    checked = {}  # _checks by (family, params), so the corpus and the sweep share them
    for cid, family, params, g in corpus_mod.build_corpus(ids):
        group, result = checked[family, params] = _checks(family, params, g)
        entry: dict = {"id": cid, "n": g.n, "edges": g.edge_count}
        if group is not None:
            entry["group_spectrum"] = {"ok": False, "error": str(group)}
            total_fail += 1
        if isinstance(result, Mismatch):
            entry["closed_form"] = {"ok": False, "error": str(result)}
            total_fail += 1
        elif isinstance(result, dict):
            entry["closed_form"] = result
        report = _audit_graph(g, caps)
        entry["audit"] = {"passed": len(report.passed),
                          "failed": [r.name for r in report.failed],
                          "skipped": [r.name for r in report.skipped]}
        total_fail += len(report.failed)
        graphs.append(entry)
    if ids is None:
        # smallest-three closed-form sweep across every family with a formula;
        # it builds and solves only the graphs that the corpus lacks
        for family, instances in sorted(corpus_mod.SMALLEST_THREE.items()):
            for params in instances:
                if (family, params) not in checked:
                    checked[family, params] = _checks(family, params, gfam.build(family, *params))
                entry = {"family": family, "params": list(params), "ok": True}
                error = next((e for e in checked[family, params] if isinstance(e, Exception)), None)
                if error is not None:
                    entry.update(ok=False, error=str(error))
                    total_fail += 1
                closed_forms.append(entry)
    summary = {"graphs": len(graphs), "failures": total_fail}
    payload = {"graphs": graphs, "summary": summary}
    if closed_forms:
        payload["closed_forms"] = closed_forms
    _emit(payload, config, args.path)
    return 0 if total_fail == 0 else 1


def cmd_iso(args) -> int:
    g = load_graph_source(args.first)
    sp.check_size(g.n)  # before any row is built, as spec and audit do
    h = load_graph_source(args.second)
    sp.check_size(h.n)
    caps = _parse_caps(args.caps)
    config = {"command": "iso", "first": args.first, "second": args.second,
              "seed": args.seed, "caps": caps}
    payload: dict = {"first": {"n": g.n, "edges": g.edge_count},
                     "second": {"n": h.n, "edges": h.edge_count}}
    try:
        verdict, mapping = gc.is_isomorphic(g, h, cap=caps["iso"])
    except CapExceeded:
        verdict = mapping = None
    isospectral = bool(verdict)  # isomorphic graphs are isospectral
    if not verdict:  # else the one spectrum comparison rule, as for closed forms
        with contextlib.suppress(Mismatch):
            isospectral = sp.verify_closed_form(sp.spectrum(g), sp.spectrum(h))["ok"]
    payload["isospectral"] = isospectral
    if mapping is not None:
        payload["mapping"] = mapping
    if verdict is None:
        payload["verdict"] = "undecided"
        over_cap = max(g.n, h.n) > caps["iso"]
        limit = "isomorphism cap" if over_cap else "time budget of the isomorphism search"
        payload["note"] = f"over the {limit}; invariant and spectrum comparison only"
        payload["degree_sequences_match"] = sorted(g.degrees) == sorted(h.degrees)
    else:
        payload["verdict"] = ("isomorphic" if verdict else
                              "non-isomorphic; isospectral" if isospectral else "non-isomorphic")
    _emit(payload, config, args.path)
    return 0


FLAG = "flag"  # the type of an option that takes no value
SEED_PATH = {"--seed": (int, DEFAULT_SEED, None, None),
             "--path": (str, None, None, "write the artifact to this file instead of stdout")}
CAPS = {**SEED_PATH,  # on the commands that run the capped exact engines
        "--caps": (str, None, None, "lower the exact-engine caps, e.g. chi=32,beta=16,iso=24")}
SOURCE = (("source", str), ("params", str))

# The CLI grammar: command -> (handler, help, positionals, options).  The
# positionals are (name, type) pairs, "params" taking all that remain; the
# options map "--name" to (type or FLAG, default, choices, help), in the order
# that help lists them.  _parse reads an exactly spelled call off it, and
# _argparser builds the parser for every other call from it.
COMMANDS = {
    "gen": (cmd_gen, "generate a family member", (("family", str), ("params", str)),
            {"--out": (str, "edgelist", ("edgelist", "dot", "json"), None), **SEED_PATH}),
    "spec": (cmd_spec, "spectrum of a graph source", SOURCE,
             {"--kind": (str, "adjacency", sp.KINDS, None),
              "--closed-form": (FLAG, False, None, None), **SEED_PATH}),
    "chars": (cmd_chars, "character sum tables over GF(q)", (("q", int),),
              {"--ext": (int, None, None, "extension degree for Eisenstein sums"),
               **SEED_PATH}),
    "audit": (cmd_audit, "spectral bound audit of one graph", SOURCE, CAPS),
    "verify": (cmd_verify, "closed forms + audits over the corpus", (),
               {"--families": (str, None, None, "comma-separated corpus ids to restrict to"),
                **CAPS}),
    "iso": (cmd_iso, "compare two graph sources", (("first", str), ("second", str)), CAPS),
}


def _parse(argv: list):
    """(handler, namespace) of an exactly spelled call, the namespace holding
    what argparse would: a command, its positionals, then options spelled in
    full as `--name value` or a bare flag, where no positional or value starts
    with "-", each value converts with its type and lies in its choices, and a
    repeated option keeps its last value.  None for any other call."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, positionals, options = COMMANDS[argv[0]]
    cut = next((i for i, word in enumerate(argv) if word.startswith("-")), len(argv))
    given = argv[1:cut]
    fixed = [(name, kind) for name, kind in positionals if name != "params"]
    params = len(fixed) < len(positionals)  # whether params takes the remaining positionals
    if len(given) < len(fixed) or len(given) > len(fixed) and not params:
        return None
    args = {"command": argv[0], "fn": fn}
    args.update((option[2:].replace("-", "_"), spec[1]) for option, spec in options.items())
    if params:
        args["params"] = given[len(fixed):]
    try:
        args.update((name, kind(word)) for (name, kind), word in zip(fixed, given))
        i = cut
        while i < len(argv):
            if argv[i] not in options:
                return None
            kind, _, choices, _ = options[argv[i]]
            dest = argv[i][2:].replace("-", "_")
            if kind is FLAG:
                args[dest] = True
                i += 1
                continue
            if i + 1 == len(argv) or argv[i + 1].startswith("-"):
                return None
            args[dest] = kind(argv[i + 1])
            if choices is not None and args[dest] not in choices:
                return None
            i += 2
    except ValueError:
        return None
    return fn, types.SimpleNamespace(**args)


def _argparser():
    """The argparse parser of COMMANDS, for every call that _parse leaves:
    help, --version, abbreviations and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="specgraph",
        description="algebraic graph families, character sums, spectra, and bound audits")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, summary, positionals, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, kind in positionals:
            if name == "params":
                p.add_argument(name, nargs="*")
            else:
                p.add_argument(name, type=kind)
        for option, (kind, default, choices, help_text) in options.items():
            if kind is FLAG:
                p.add_argument(option, action="store_true", help=help_text)
            else:
                p.add_argument(option, type=kind, default=default, choices=choices,
                               help=help_text)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parsed = _parse(argv)
    if parsed is None:
        args = _argparser().parse_args(argv)
        parsed = args.fn, args
    fn, args = parsed
    try:
        return fn(args)
    except SpecgraphError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; devnull takes the flush at exit
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
