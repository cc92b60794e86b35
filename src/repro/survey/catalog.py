"""The surveyed works of Chapter 3, as data.

Categories (§3.2.2, Fig. 3.1):

* **C1** — formulation of analytic queries directly over RDF (Table 3.1);
* **C2** — definition of data cubes over RDF (Table 3.2);
* **C3** — domain-specific pipelines over RDF (§3.3.4);
* **C4** — publishing of statistical data in RDF (Table 3.3);
* **C5** — quality analytics over multiple RDF datasets (Table 3.4).

Each entry records the fields the dissertation tabulates (year,
evaluation reported, visualization offered and its types, vocabulary or
basis where applicable).  :data:`SYSTEM_COMPARISON` is Table 3.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

CATEGORIES: Tuple[str, ...] = ("C1", "C2", "C3", "C4", "C5")


@dataclass(frozen=True)
class SurveyedWork:
    """One surveyed work and the attributes the survey tables report."""

    name: str
    category: str
    year: int
    evaluation: bool = False
    offers_visualization: bool = False
    visualization_types: Tuple[str, ...] = ()
    notes: str = ""

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")


SURVEYED_WORKS: Tuple[SurveyedWork, ...] = (
    # --- C1 (Table 3.1) ---------------------------------------------------
    SurveyedWork("Sridhar et al. (RAPID)", "C1", 2009, evaluation=True),
    SurveyedWork("Ravindra et al.", "C1", 2010, evaluation=True),
    SurveyedWork("Bikakis et al. (SynopsViz)", "C1", 2014,
                 offers_visualization=True,
                 visualization_types=("treemap", "bar chart")),
    SurveyedWork("Zou et al.", "C1", 2014, evaluation=True),
    SurveyedWork("Ibragimov et al.", "C1", 2015, evaluation=True),
    SurveyedWork("Ibragimov et al. (views)", "C1", 2016, evaluation=True),
    SurveyedWork("Sherkhonov et al.", "C1", 2017),
    SurveyedWork("Abdelaziz et al. (Spartex)", "C1", 2017, evaluation=True),
    SurveyedWork("Ge et al.", "C1", 2021, evaluation=True),
    SurveyedWork("Ferré et al.", "C1", 2021, evaluation=True,
                 offers_visualization=True,
                 visualization_types=("table", "map")),
    SurveyedWork("Papadaki et al.", "C1", 2021),
    # --- C2 (Table 3.2) ---------------------------------------------------
    SurveyedWork("Zhao et al. (Graph Cube)", "C2", 2011, evaluation=True),
    SurveyedWork("Hoefler et al. (LD Query Wizard)", "C2", 2013,
                 evaluation=True, offers_visualization=True,
                 visualization_types=("tabular",)),
    SurveyedWork("Payola", "C2", 2013, evaluation=True,
                 offers_visualization=True,
                 visualization_types=("line", "bar", "column", "area",
                                      "polar", "pie", "graph")),
    SurveyedWork("Vis-Wizard", "C2", 2014, evaluation=True,
                 offers_visualization=True,
                 visualization_types=("bubble", "pie", "column", "line",
                                      "area", "geo")),
    SurveyedWork("Azirani et al.", "C2", 2015),
    SurveyedWork("Jakobsen et al.", "C2", 2015, evaluation=True),
    SurveyedWork("CubeViz", "C2", 2015, offers_visualization=True,
                 visualization_types=("pie", "bar", "column", "line")),
    SurveyedWork("Benetallah et al.", "C2", 2016, evaluation=True),
    SurveyedWork("Microsoft Power BI", "C2", 2016, offers_visualization=True,
                 visualization_types=("bar", "column", "pie", "area",
                                      "treemap")),
    SurveyedWork("Tableau", "C2", 2019, offers_visualization=True,
                 visualization_types=("column", "bar", "pie", "line",
                                      "area", "map")),
    # --- C3 (§3.3.4) -------------------------------------------------------
    SurveyedWork("PhLeGrA", "C3", 2017, notes="medical: drug reactions"),
    SurveyedWork("Cancer KG", "C3", 2018, notes="medical: cancer analytics"),
    SurveyedWork("CORD-19 KG", "C3", 2020, notes="medical: corona literature",
                 offers_visualization=True, visualization_types=("graph",)),
    SurveyedWork("Knowledge4COVID-19", "C3", 2022, evaluation=True,
                 offers_visualization=True, visualization_types=("graph", "pie")),
    SurveyedWork("OpenAIRE", "C3", 2019, offers_visualization=True,
                 visualization_types=("bar", "line")),
    SurveyedWork("ORKG", "C3", 2019, offers_visualization=True,
                 visualization_types=("table", "graph")),
    SurveyedWork("FAST CAT", "C3", 2021, notes="cultural: data entry/curation"),
    SurveyedWork("BiographySampo", "C3", 2019, offers_visualization=True,
                 visualization_types=("pie", "graph"),
                 notes="cultural: biographies"),
    # --- C4 (Table 3.3) ----------------------------------------------------
    SurveyedWork("SPLENDID", "C4", 2011, notes="VoID"),
    SurveyedWork("Salas et al.", "C4", 2012, notes="RDF data cube vocabulary"),
    SurveyedWork("Zancanaro et al.", "C4", 2013, notes="RDF data cube vocabulary"),
    SurveyedWork("Aether", "C4", 2014, offers_visualization=True,
                 visualization_types=("bar",), notes="VoID"),
    SurveyedWork("VoIDWH", "C4", 2014, notes="VoID + extensions"),
    SurveyedWork("Loupe", "C4", 2016, notes="VoID"),
    SurveyedWork("SPORTAL", "C4", 2016, notes="VoID"),
    SurveyedWork("KartoGraphI", "C4", 2022, offers_visualization=True,
                 visualization_types=("map", "bar"), notes="VoID + extensions"),
    # --- C5 (Table 3.4) ----------------------------------------------------
    SurveyedWork("Theoharis et al.", "C5", 2008,
                 notes="power-law distributions; 250 RDF schemas"),
    SurveyedWork("LODVader", "C5", 2016, notes="491 RDF datasets"),
    SurveyedWork("LODStats", "C5", 2016, notes="9,960 RDF datasets"),
    SurveyedWork("LOD-a-lot", "C5", 2017, notes="650K RDF documents"),
    SurveyedWork("LODsyndesis", "C5", 2018, notes="400 RDF datasets"),
    SurveyedWork("Soulet et al.", "C5", 2019, notes="114 RDF triple stores"),
    SurveyedWork("Haller et al.", "C5", 2020, notes="430 RDF datasets"),
    SurveyedWork("LODChain", "C5", 2022, offers_visualization=True,
                 visualization_types=("graph", "bar", "pie"),
                 notes="real-time connectivity"),
)


@dataclass(frozen=True)
class SystemComparison:
    """One row of Table 3.5 (functionality comparison)."""

    system: str
    applicability: str           # "STAR" or "ANY"
    analytic_basic: bool
    analytic_having: bool
    plain_faceted_search: str    # "yes", "no", or a qualification
    property_paths: str
    visualization: bool
    running_system: bool
    evaluation: bool


SYSTEM_COMPARISON: Tuple[SystemComparison, ...] = (
    SystemComparison(
        system="Sherkhonov et al. [100]", applicability="ANY",
        analytic_basic=True, analytic_having=True,
        plain_faceted_search="yes, no count information",
        property_paths="not explicitly (reachability)",
        visualization=False, running_system=False, evaluation=False,
    ),
    SystemComparison(
        system="Ferré et al. [41]", applicability="ANY",
        analytic_basic=True, analytic_having=False,
        plain_faceted_search="no, special interface",
        property_paths="not clear",
        visualization=False, running_system=True, evaluation=True,
    ),
    SystemComparison(
        system="[61]", applicability="ANY",
        analytic_basic=True, analytic_having=False,
        plain_faceted_search="yes",
        property_paths="yes, with counts",
        visualization=True, running_system=True, evaluation=False,
    ),
    SystemComparison(
        system="RDF-Analytics (this work)", applicability="ANY",
        analytic_basic=True, analytic_having=True,
        plain_faceted_search="yes",
        property_paths="yes, with counts",
        visualization=True, running_system=True, evaluation=True,
    ),
)


def works_per_category() -> Dict[str, int]:
    """Fig. 3.2: the number of surveyed works per category."""
    counts = {category: 0 for category in CATEGORIES}
    for work in SURVEYED_WORKS:
        counts[work.category] += 1
    return counts


def works_per_year() -> Dict[int, int]:
    """Fig. 3.3: the publication-year distribution of the surveyed works."""
    counts: Dict[int, int] = {}
    for work in SURVEYED_WORKS:
        counts[work.year] = counts.get(work.year, 0) + 1
    return dict(sorted(counts.items()))
