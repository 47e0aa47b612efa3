"""The shipped graph corpus: every family at its smallest parameter choices.

Used by the ``verify`` command and the acceptance suite; the audit caps keep
the exact engines inside the default desk-scale budget.
"""

from __future__ import annotations

from .errors import BadParameters
from .graph_core import Graph
from . import graph_families as gf

# (corpus id, family, params)
CORPUS_SPECS: list[tuple[str, str, tuple]] = [
    ("K_3", "complete", (3,)),
    ("K_4", "complete", (4,)),
    ("K_5", "complete", (5,)),
    ("K_6", "complete", (6,)),
    ("C_4", "cycle", (4,)),
    ("C_5", "cycle", (5,)),
    ("C_7", "cycle", (7,)),
    ("P_4", "path", (4,)),
    ("P_5", "path", (5,)),
    ("star_6", "star", (6,)),
    ("wheel_6", "wheel", (6,)),
    ("windmill_2", "windmill", (2,)),
    ("windmill_3", "windmill", (3,)),
    ("K_2,3", "complete_bipartite", (2, 3)),
    ("K_3,3", "complete_bipartite", (3, 3)),
    ("Q_3", "cube", (3,)),
    ("Q_4", "cube", (4,)),
    ("petersen", "petersen", ()),
    ("heawood", "heawood", ()),
    ("shrikhande", "shrikhande", ()),
    ("rook_twin", "rook_twin", ()),
    ("tutte_coxeter", "tutte_coxeter", ()),
    ("frucht", "frucht", ()),
    ("paley_5", "paley", (5,)),
    ("paley_9", "paley", (9,)),
    ("paley_13", "paley", (13,)),
    ("paley_17", "paley", (17,)),
    ("paley_25", "paley", (25,)),
    ("bipaley_7", "bi_paley", (7,)),
    ("bipaley_11", "bi_paley", (11,)),
    ("bipaley_19", "bi_paley", (19,)),
    ("I_3_2", "incidence", (3, 2)),
    ("I_3_3", "incidence", (3, 3)),
    ("I_3_4", "incidence", (3, 4)),
    ("I_4_2", "incidence", (4, 2)),
    ("SP_3", "sum_product", (3,)),
    ("SP_4", "sum_product", (4,)),
    ("FSP_3", "full_sum_product", (3,)),
    ("FSP_4", "full_sum_product", (4,)),
    ("andrasfai_3", "andrasfai", (3,)),
    ("andrasfai_4", "andrasfai", (4,)),
    ("T_3_2", "tree", (3, 2)),
    ("T_3_3", "tree", (3, 3)),
    ("halfQ_3", "halved_cube", (3,)),
    ("halfQ_4", "halved_cube", (4,)),
    ("DQ_3_110", "decked_cube", (3, "110")),
    ("machine_3", "machine", (3,)),
    ("machine_4", "machine", (4,)),
    ("machine_2x2", "machine", (2, 2)),
    ("smalldiam_3", "small_diameter_x", (3,)),
    ("ADE_E6", "ade", ("E", 6)),
    ("ADE_extE8", "extended_ade", ("E", 8)),
]


def build_corpus(ids=None) -> list[tuple[str, str, tuple, Graph]]:
    """Materialize (id, family, params, graph) rows, sorted by corpus id for
    deterministic aggregation; BadParameters names any id not in the corpus."""
    unknown = sorted(set(ids or ()) - {cid for cid, _, _ in CORPUS_SPECS})
    if unknown:
        raise BadParameters(f"unknown corpus id {', '.join(map(repr, unknown))}")
    rows = []
    for cid, family, params in CORPUS_SPECS:
        if ids is not None and cid not in ids:
            continue
        rows.append((cid, family, params, gf.build(family, *params)))
    return sorted(rows, key=lambda r: r[0])


# smallest-three parameter choices per parametric family with a closed form,
# used by the closed-form-vs-numeric sweep
SMALLEST_THREE: dict[str, list[tuple]] = {
    "complete": [(3,), (4,), (5,)],
    "cycle": [(3,), (4,), (5,)],
    "cube": [(2,), (3,), (4,)],
    "complete_bipartite": [(2, 2), (2, 3), (3, 3)],
    "path": [(2,), (3,), (4,)],
    "star": [(3,), (4,), (5,)],
    "wheel": [(4,), (5,), (6,)],
    "windmill": [(1,), (2,), (3,)],
    "paley": [(5,), (9,), (13,)],
    "bi_paley": [(7,), (11,), (19,)],
    "incidence": [(3, 2), (3, 3), (4, 2)],
    "sum_product": [(3,), (4,), (5,)],
    "full_sum_product": [(2,), (3,), (4,)],
    "machine": [(3,), (4,), (2, 2)],
    "halved_cube": [(3,), (4,), (5,)],
    "shrikhande": [()],
    "rook_twin": [()],
    "tutte_coxeter": [()],
    "petersen": [()],
    "heawood": [()],
}
