"""The Q1–Q10 analytic workload of the efficiency experiments (§6.4).

Ten HIFUN queries of increasing complexity over the synthetic products
KG — from an ungrouped count up to the full motivating query of the
introduction (paths, restrictions, multiple aggregates, HAVING).  Both
efficiency tables (6.1 peak / 6.2 off-peak) and the ablations share this
workload.
"""

import os

from repro.hifun import (
    Attribute,
    HifunQuery,
    Restriction,
    ResultRestriction,
    compose,
    pair,
)
from repro.hifun.attributes import Derived
from repro.rdf.namespace import EX
from repro.rdf.terms import Literal

#: Artifact directory.  The default is an untracked scratch directory,
#: so running the benches (tier-1 collects them) never rewrites the
#: checked-in baselines under ``benchmarks/out/``; only ``make
#: bench-refresh`` points REPRO_BENCH_OUT there.
OUT_DIR = os.environ.get(
    "REPRO_BENCH_OUT", os.path.join(os.path.dirname(__file__), ".scratch"))


manufacturer = Attribute(EX.manufacturer)
origin = Attribute(EX.origin)
located_at = Attribute(EX.locatedAt)
price = Attribute(EX.price)
usb_ports = Attribute(EX.USBPorts)
release_date = Attribute(EX.releaseDate)
hard_drive = Attribute(EX.hardDrive)

WORKLOAD = (
    ("Q1", "count of laptops",
     HifunQuery(None, None, "COUNT")),
    ("Q2", "avg price",
     HifunQuery(None, price, "AVG")),
    ("Q3", "count by manufacturer",
     HifunQuery(manufacturer, None, "COUNT")),
    ("Q4", "avg price by manufacturer",
     HifunQuery(manufacturer, price, "AVG")),
    ("Q5", "avg price by manufacturer, USB >= 2",
     HifunQuery(
         manufacturer, price, "AVG",
         grouping_restrictions=(Restriction(usb_ports, ">=", Literal.of(2)),),
     )),
    ("Q6", "avg price by manufacturer origin (path 2)",
     HifunQuery(compose(origin, manufacturer), price, "AVG")),
    ("Q7", "avg price by origin continent (path 3)",
     HifunQuery(compose(located_at, origin, manufacturer), price, "AVG")),
    ("Q8", "avg/sum/max price by manufacturer × ports",
     HifunQuery(pair(manufacturer, usb_ports), price, ("AVG", "SUM", "MAX"))),
    ("Q9", "path-3 grouping with HAVING",
     HifunQuery(
         compose(located_at, origin, manufacturer), price, "AVG",
         result_restrictions=(ResultRestriction("AVG", ">", Literal.of(900)),),
     )),
    ("Q10", "the motivating query (paths + filters + HAVING)",
     HifunQuery(
         compose(origin, manufacturer), price, "AVG",
         grouping_restrictions=(
             Restriction(usb_ports, ">=", Literal.of(2)),
             Restriction(Derived("YEAR", release_date), "=", Literal.of(2021)),
             Restriction(
                 compose(located_at, origin, manufacturer, hard_drive),
                 "=", EX.continent0,
             ),
         ),
         result_restrictions=(ResultRestriction("AVG", ">", Literal.of(500)),),
     )),
)
