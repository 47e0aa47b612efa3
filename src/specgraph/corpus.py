"""The shipped graph corpus: every family at its smallest parameter choices,
with the closed-form key where a formula exists.

Used by the ``verify`` command and the acceptance suite; the audit caps keep
the exact engines inside the default desk-scale budget.
"""

from __future__ import annotations

from .graph_core import Graph
from . import graph_families as gf

# (corpus id, family, params, has_closed_form)
CORPUS_SPECS: list[tuple[str, str, tuple, bool]] = [
    ("K_3", "complete", (3,), True),
    ("K_4", "complete", (4,), True),
    ("K_5", "complete", (5,), True),
    ("K_6", "complete", (6,), True),
    ("C_4", "cycle", (4,), True),
    ("C_5", "cycle", (5,), True),
    ("C_7", "cycle", (7,), True),
    ("P_4", "path", (4,), True),
    ("P_5", "path", (5,), True),
    ("star_6", "star", (6,), True),
    ("wheel_6", "wheel", (6,), True),
    ("windmill_2", "windmill", (2,), True),
    ("windmill_3", "windmill", (3,), True),
    ("K_2,3", "complete_bipartite", (2, 3), True),
    ("K_3,3", "complete_bipartite", (3, 3), True),
    ("Q_3", "cube", (3,), True),
    ("Q_4", "cube", (4,), True),
    ("petersen", "petersen", (), True),
    ("heawood", "heawood", (), True),
    ("shrikhande", "shrikhande", (), True),
    ("rook_twin", "rook_twin", (), True),
    ("tutte_coxeter", "tutte_coxeter", (), True),
    ("frucht", "frucht", (), False),
    ("paley_5", "paley", (5,), True),
    ("paley_9", "paley", (9,), True),
    ("paley_13", "paley", (13,), True),
    ("paley_17", "paley", (17,), True),
    ("paley_25", "paley", (25,), True),
    ("bipaley_7", "bi_paley", (7,), True),
    ("bipaley_11", "bi_paley", (11,), True),
    ("bipaley_19", "bi_paley", (19,), True),
    ("I_3_2", "incidence", (3, 2), True),
    ("I_3_3", "incidence", (3, 3), True),
    ("I_3_4", "incidence", (3, 4), True),
    ("I_4_2", "incidence", (4, 2), True),
    ("SP_3", "sum_product", (3,), True),
    ("SP_4", "sum_product", (4,), True),
    ("FSP_3", "full_sum_product", (3,), True),
    ("FSP_4", "full_sum_product", (4,), True),
    ("andrasfai_3", "andrasfai", (3,), False),
    ("andrasfai_4", "andrasfai", (4,), False),
    ("T_3_2", "tree", (3, 2), False),
    ("T_3_3", "tree", (3, 3), False),
    ("halfQ_3", "halved_cube", (3,), True),
    ("halfQ_4", "halved_cube", (4,), True),
    ("DQ_3_110", "decked_cube", (3, "110"), True),
    ("machine_3", "machine", (3,), True),
    ("machine_4", "machine", (4,), True),
    ("machine_2x2", "machine", (2, 2), True),
    ("smalldiam_3", "small_diameter_x", (3,), False),
    ("ADE_E6", "ade", ("E", 6), False),
    ("ADE_extE8", "extended_ade", ("E", 8), False),
]


def build_corpus(ids=None) -> list[tuple[str, str, tuple, bool, Graph]]:
    """Materialize (id, family, params, has_closed_form, graph) rows, sorted
    by corpus id for deterministic aggregation."""
    rows = []
    for cid, family, params, has_cf in CORPUS_SPECS:
        if ids is not None and cid not in ids:
            continue
        rows.append((cid, family, params, has_cf, gf.build(family, *params)))
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
