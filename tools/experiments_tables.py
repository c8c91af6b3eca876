#!/usr/bin/env python3
"""Renders EXPERIMENTS.md's paper-figure tables from the committed goldens;
runs with --check as the `experiments_tables` ctest.

Every measured number in the Table 1 and Fig. 7-11 tables comes from
bench/golden/<bench>.json (the `results` rows that `tools/golden_check.py`
pins). Each table sits between two marker comments in EXPERIMENTS.md:

    <!-- table fig7: rendered from bench/golden by tools/experiments_tables.py -->
    ...
    <!-- end table fig7 -->

Without --check the script rewrites the text between each pair of markers.
With --check it rewrites nothing, prints a diff of every table that no
longer matches its goldens, and exits 1. A change that moves a golden on
purpose reruns the script and fixes any prose the new numbers contradict.

Usage: tools/experiments_tables.py [--check] [repo-root]
       (exit 0 = in step, 1 = tables differ, 2 = missing file or marker)
"""

import difflib
import json
import re
import sys
from pathlib import Path

DATASETS = ("orkut", "twitter", "dblp")


def pct(x):
    return f"{100 * x:.1f}%"


def signed_pct(x):
    return f"{100 * x:+.1f}%".replace("-", "−")


def millions(x):
    return f"{x / 1e6:.2f}M"


def times(x):
    return f"{x:.2f}×"


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def table1(g):
    order = ("twitter", "orkut", "dblp")

    def measured(metric, fmt):
        return " / ".join(fmt(g[f"{d}.{metric}"]) for d in order)

    rows = [
        ("Nodes", "11.3M / 3M / 317K",
         measured("num_vertices", lambda v: f"{v:.0f}"), "scaled by design"),
        ("Avg path length", "4.12 / 4.25 / 9.2",
         measured("avg_path_length", lambda v: f"{v:.2f}"),
         "✔ dblp longest, orkut shortest"),
        ("Clustering coeff.", "n/a / 0.167 / 0.632",
         measured("clustering", lambda v: f"{v:.3f}"),
         "✔ ordering (dblp ≫ twitter); orkut runs high at small "
         "scale"),
        ("Power-law coeff.", "2.276 / 1.18 / 3.64",
         measured("power_law", lambda v: f"{v:.2f}"),
         "✔ ordering (orkut heaviest tail, dblp steepest)"),
    ]
    return table(("Metric", "Paper (twitter / orkut / dblp)",
                  "Measured (synthetic, scale 0.25)", "Shape holds?"), rows)


def fig7(g):
    rows = []
    for i, d in enumerate(DATASETS):
        rows.append((d, pct(g[f"{d}.initial_cut"]), pct(g[f"{d}.metis_cut"]),
                     pct(g[f"{d}.hermes_cut"]),
                     "difference ≤ ~1pp, either direction" if i == 0
                     else '"'))
    return table(("Dataset", "Initial", "Metis rerun", "Hermes",
                  "Paper's claim"), rows)


def fig8(g):
    rows = [(d, pct(g[f"{d}.metis_vertices_moved"]),
             pct(g[f"{d}.hermes_vertices_moved"]),
             pct(g[f"{d}.metis_relationships"]),
             pct(g[f"{d}.hermes_relationships"]),
             f"{g[f'{d}.aux_bytes'] / 1024:.1f}") for d in DATASETS]
    return table(("Dataset", "Metis vert%", "Hermes vert%", "Metis rel%",
                  "Hermes rel%", "aux KB"), rows)


FIG9_PAPER = {"orkut": "1.7× (paper's Orkut number)", "twitter": "~2×",
              "dblp": "2–3× band"}


def fig9(hops):
    def render(g):
        rows = []
        for d in DATASETS:
            metis, hermes, random = (g[f"{d}.{hops}.{s}_vps"]
                                     for s in ("metis", "hermes", "random"))
            row = [d, millions(metis), millions(hermes), millions(random),
                   f"**{times(hermes / random)}**"]
            if hops == "1hop":
                row.append(FIG9_PAPER[d])
            rows.append(row)
        header = ["Dataset", "Metis", "Hermes", "Random", "Hermes/Random"]
        if hops == "1hop":
            header.append("Paper")
        return table(header, rows)
    return render


def fig10(g):
    rows = []
    for i, d in enumerate(DATASETS):
        base = g[f"{d}.writes0_vps"]
        rows.append([d] + [signed_pct(g[f"{d}.writes{w}_vps"] / base - 1)
                           for w in (10, 20, 30)] +
                    ["−7%" if i == 0 else '"',
                     signed_pct(g[f"{d}.post_hermes_vps"] /
                                g[f"{d}.post_metis_vps"] - 1)])
    return table(("Dataset", "10%", "20%", "30%", "Paper (30%)",
                  "Hermes vs Metis after inserts"), rows)


def fig11(g):
    rows = []
    for d in DATASETS:
        ks = sorted({int(m.group(1)) for label in g
                     if (m := re.fullmatch(rf"{d}\.k(\d+)\.iterations", label))})
        for k in ks:
            p = f"{d}.k{k}"
            rows.append((d, str(k), pct(g[f"{p}.cut_fraction"]),
                         f"{g[f'{p}.iterations']:.0f}",
                         f"{g[f'{p}.balance']:.3f}",
                         f"{g[f'{p}.balance_unguarded']:.3f}"))
    return table(("Dataset", "k", "edge-cut", "iterations", "balance",
                  "balance*"), rows)


# Table name in the markers -> (golden bench, renderer).
TABLES = {
    "table1": ("table1_datasets", table1),
    "fig7": ("fig7_edgecut", fig7),
    "fig8": ("fig8_migration", fig8),
    "fig9-1hop": ("fig9_throughput", fig9("1hop")),
    "fig9-2hop": ("fig9_throughput", fig9("2hop")),
    "fig10": ("fig10_write_mix", fig10),
    "fig11": ("fig11_k_sensitivity", fig11),
}


def load_golden(root, bench):
    with open(root / "bench" / "golden" / f"{bench}.json") as f:
        return {row["label"]: row["value"] for row in json.load(f)["results"]}


def render(doc, root):
    """Returns `doc` with every marked table re-rendered."""
    for name, (bench, renderer) in TABLES.items():
        begin = (f"<!-- table {name}: rendered from bench/golden by "
                 "tools/experiments_tables.py -->\n")
        end = f"<!-- end table {name} -->"
        start = doc.find(begin)
        stop = doc.find(end, start)
        if start < 0 or stop < 0:
            raise ValueError(f"no markers for table {name!r}")
        body = renderer(load_golden(root, bench)) + "\n"
        doc = doc[:start + len(begin)] + body + doc[stop:]
    return doc


def main(argv):
    check = "--check" in argv
    args = [a for a in argv[1:] if a != "--check"]
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    path = root / "EXPERIMENTS.md"
    try:
        doc = path.read_text()
        new = render(doc, root)
    except KeyError as e:
        print(f"experiments_tables: no golden row {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"experiments_tables: {e}", file=sys.stderr)
        return 2
    if new == doc:
        return 0
    if check:
        sys.stdout.writelines(difflib.unified_diff(
            doc.splitlines(keepends=True), new.splitlines(keepends=True),
            "EXPERIMENTS.md", "rendered from bench/golden"))
        print("experiments_tables: EXPERIMENTS.md disagrees with its goldens; "
              "rerun tools/experiments_tables.py", file=sys.stderr)
        return 1
    path.write_text(new)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
