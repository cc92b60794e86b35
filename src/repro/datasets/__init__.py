"""Bundled datasets: the dissertation's running examples and a scalable
synthetic knowledge-graph generator.

* :mod:`repro.datasets.products` — the products KG of Fig. 1.2 (schema)
  and Fig. 5.3 (instances): laptops, companies, persons, locations.
* :mod:`repro.datasets.invoices` — the invoices dataset of §2.5/Fig. 4.1
  used by all the HIFUN→SPARQL translation examples.
* :mod:`repro.datasets.synthetic` — a deterministic generator of
  product-like KGs of configurable size for scalability experiments.
"""

from repro.datasets.products import products_graph, PRODUCTS_TTL
from repro.datasets.invoices import invoices_graph
from repro.datasets.synthetic import SyntheticConfig, synthetic_graph
from repro.datasets.museum import museum_graph
from repro.datasets.csv_import import graph_from_csv

__all__ = [
    "products_graph",
    "PRODUCTS_TTL",
    "invoices_graph",
    "SyntheticConfig",
    "synthetic_graph",
    "museum_graph",
    "graph_from_csv",
]
