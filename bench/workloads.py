"""The four benchmark workloads and the checks on their outputs.

Each workload is a list of operations; each operation runs in a fresh
interpreter (bench/child.py) and is checked against an expectation written
here by hand, never against the program's own verdicts alone. bench/README.md
says why each workload was chosen.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Op:
    """One operation: a specgraph argv, an edge-list file whose automorphisms
    the child counts with graph_core.automorphism_count, or neither: a probe
    that only imports, to sample set-up time."""

    name: str
    check: Callable[[dict], list[str]]
    argv: list[str] = field(default_factory=list)
    graph: str | None = None

    @property
    def kind(self) -> str:
        return "aut" if self.graph else "cli" if self.argv else "setup"


SETUP_PROBE = Op("setup_probe", lambda report: [])


# -- expectations ---------------------------------------------------------------

CORPUS_GRAPHS = 52
# SMALLEST_THREE sweep: 15 parametric families x 3 instances + 5 sporadic graphs
CLOSED_FORM_SWEEP = 15 * 3 + 5


def check_verify(report: dict) -> list[str]:
    errors = []
    summary = report.get("summary", {})
    if summary.get("failures") != 0:
        errors.append(f"verify: summary.failures = {summary.get('failures')}")
    if summary.get("graphs") != CORPUS_GRAPHS or len(report.get("graphs", [])) != CORPUS_GRAPHS:
        errors.append(f"verify: {summary.get('graphs')} graphs, expected {CORPUS_GRAPHS}")
    sweep = report.get("closed_forms", [])
    if len(sweep) != CLOSED_FORM_SWEEP:
        errors.append(f"verify: {len(sweep)} closed forms, expected {CLOSED_FORM_SWEEP}")
    errors += [f"verify: closed form {c['family']}{c['params']} not ok"
               for c in sweep if c.get("ok") is not True]
    errors += [f"verify: {g['id']} closed form not ok" for g in report.get("graphs", [])
               if "closed_form" in g and g["closed_form"].get("ok") is not True]
    return errors


def check_chars(q: int, ext: int | None):
    expected = {"gauss": q * (q - 1), "jacobi": (q - 1) ** 2, "kloosterman": (q - 1) ** 2}
    if ext:
        expected["eisenstein"] = q ** ext - 1

    def check(report: dict) -> list[str]:
        rows = report.get("rows", [])
        counts: dict[str, int] = {}
        for r in rows:
            counts[r["sum_type"]] = counts.get(r["sum_type"], 0) + 1
        errors = [f"chars {q}: {counts} rows, expected {expected}"] if counts != expected else []
        bad = sum(1 for r in rows if r.get("pass") is not True)
        if bad:
            errors.append(f"chars {q}: {bad} rows fail")
        return errors
    return check


def check_spec(n: int, m: int):
    def check(report: dict) -> list[str]:
        errors = []
        graph = report.get("graph", {})
        if (graph.get("n"), graph.get("edges")) != (n, m):
            errors.append(f"spec: n, m = {graph.get('n')}, {graph.get('edges')}; "
                          f"expected {n}, {m}")
        if report.get("closed_form", {}).get("match", {}).get("ok") is not True:
            errors.append(f"spec: closed form does not match ({report.get('closed_form')})")
        if sum(e["multiplicity"] for e in report["spectrum"]["entries"]) != n:
            errors.append("spec: multiplicities do not sum to n")
        return errors
    return check


def check_iso(n: int, first_edges, second_edges):
    """The returned mapping must carry every edge of the first graph onto an
    edge of the second, as a bijection of 0..n-1."""
    def check(report: dict) -> list[str]:
        m = len(first_edges)
        sizes = (report.get("first"), report.get("second"))
        if sizes != ({"n": n, "edges": m}, {"n": n, "edges": m}):
            return [f"iso: sizes {sizes}, expected n = {n}, m = {m}"]
        if report.get("verdict") != "isomorphic":
            return [f"iso: verdict {report.get('verdict')!r}"]
        f = report.get("mapping")
        if not isinstance(f, list) or sorted(f) != list(range(n)):
            return ["iso: mapping is not a permutation"]
        image = {frozenset((f[u], f[v])) for u, v in first_edges}
        if image != {frozenset(e) for e in second_edges}:
            return ["iso: mapping does not carry edges onto edges"]
        return []
    return check


def check_twins(report: dict) -> list[str]:
    if report.get("verdict") != "non-isomorphic; isospectral":
        return [f"iso twins: verdict {report.get('verdict')!r}"]
    return []


def check_aut(order: int):
    def check(report: dict) -> list[str]:
        got = report.get("automorphisms")
        return [] if got == order else [f"aut: {got} automorphisms, expected {order}"]
    return check


# -- workloads ---------------------------------------------------------------------

def corpus_verify(seed: int, workdir: str) -> list[Op]:
    return [Op("verify", check_verify, ["verify"])]


def char_tables(seed: int, workdir: str) -> list[Op]:
    return [Op("chars_27", check_chars(27, None), ["chars", "27"]),
            Op("chars_5_ext3", check_chars(5, 3), ["chars", "5", "--ext", "3"])]


def family_spectra(seed: int, workdir: str) -> list[Op]:
    # (source, extra args, n, m) with n and m from the family formulas
    cases = [
        ("paley:1009", [], 1009, 1009 * 1008 // 4),
        ("paley:729", [], 729, 729 * 728 // 4),
        ("incidence:3,31", [], 2 * (31 * 31 + 31 + 1), (31 * 31 + 31 + 1) * 32),
        ("cube:11", ["--kind", "laplacian"], 2 ** 11, 11 * 2 ** 10),
    ]
    return [Op(f"spec_{src.replace(':', '_').replace(',', '_')}", check_spec(n, m),
               ["spec", src, *extra, "--closed-form"]) for src, extra, n, m in cases]


# (family source, n, m, automorphism group order from the literature)
ISO_GRAPHS = [
    ("paley:29", 29, 29 * 28 // 4, 406),
    ("tutte_coxeter", 30, 45, 1440),
    ("incidence:3,3", 26, 13 * 4, 11232),
    ("cube:5", 32, 5 * 16, 3840),
    ("andrasfai:8", 23, 23 * 8 // 2, 46),
]
ISO_PAIRS = ("paley:29", "tutte_coxeter", "incidence:3,3", "cube:5")


def relabelled(src: str, seed: int) -> tuple[int, list, list]:
    """(n, edges, relabelled edges): a seeded random relabelling of a family
    member, in a seeded random edge order."""
    from specgraph.cli import load_graph_source

    g = load_graph_source(src)
    rng = random.Random(f"{seed}:{src}")
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = sorted(g.edges())
    moved = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(moved)
    return g.n, edges, moved


# The automorphism search's work depends on the labelling (andrasfai:8 took
# 1.7-3.3 s across labellings on a 2-vCPU 2.1 GHz Xeon), so its inputs use
# one fixed relabelling seed:
# wall_s then measures the code, not the run seed. The isomorphism decisions
# take about 10 ms whatever the labelling, and follow the run seed.
AUT_SEED = 0


def write_relabelled(src: str, seed: int, path: str, n: int, m: int):
    got_n, edges, moved = relabelled(src, seed)
    if (got_n, len(edges)) != (n, m):
        raise ValueError(f"{src}: built n, m = {got_n}, {len(edges)}; expected {n}, {m}")
    with open(path, "w") as fh:
        fh.write(f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in moved))
    return edges, moved


def iso_automorphism(seed: int, workdir: str) -> list[Op]:
    isos, auts = [], []
    for src, n, m, order in ISO_GRAPHS:
        stem = src.replace(":", "_").replace(",", "_")
        if src in ISO_PAIRS:
            path = os.path.join(workdir, f"{stem}.txt")
            edges, moved = write_relabelled(src, seed, path, n, m)
            isos.append(Op(f"iso_{stem}", check_iso(n, edges, moved), ["iso", src, path]))
        path = os.path.join(workdir, f"aut_{stem}.txt")
        write_relabelled(src, AUT_SEED, path, n, m)
        auts.append(Op(f"aut_{stem}", check_aut(order), graph=path))
    return isos + [Op("iso_twins", check_twins, ["iso", "shrikhande", "rook_twin"])] + auts


WORKLOADS = {
    "corpus_verify": corpus_verify,
    "char_tables": char_tables,
    "family_spectra": family_spectra,
    "iso_automorphism": iso_automorphism,
}
