"""Publishing dataset statistics as VoID (the C4 practice, Table 3.3).

The works of category C4 (Aether, Loupe, SPORTAL, ...) publish RDF
dataset statistics using the W3C *Vocabulary of Interlinked Datasets*.
:func:`void_graph` does the same for a :class:`DatasetProfile`:

* one ``void:Dataset`` resource with ``void:triples``,
  ``void:distinctSubjects``, ``void:distinctObjects``,
  ``void:properties``, ``void:classes``;
* one ``void:classPartition`` per class with ``void:class`` and
  ``void:entities``;
* one ``void:propertyPartition`` per property with ``void:property``
  and ``void:triples``.

The output is an ordinary :class:`~repro.rdf.Graph`, so it serializes
to Turtle and is itself analyzable by the faceted session — statistics
about a dataset explored with the same tool, the dissertation's
dual-purpose idea taken to the meta level.
"""

from __future__ import annotations

from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace, RDF
from repro.rdf.terms import IRI, Literal
from repro.stats.profile import DatasetProfile

VOID = Namespace("http://rdfs.org/ns/void#")


def void_graph(profile: DatasetProfile, dataset_iri: IRI = IRI("http://www.ics.forth.gr/datasets#this")) -> Graph:
    """Express a :class:`DatasetProfile` in the VoID vocabulary."""
    g = Graph()
    g.add(dataset_iri, RDF.type, VOID.Dataset)
    g.add(dataset_iri, VOID.triples, Literal.of(profile.triples))
    g.add(dataset_iri, VOID.distinctSubjects, Literal.of(profile.distinct_subjects))
    g.add(dataset_iri, VOID.distinctObjects, Literal.of(profile.distinct_objects))
    g.add(dataset_iri, VOID.properties, Literal.of(profile.distinct_predicates))
    g.add(dataset_iri, VOID.classes, Literal.of(profile.classes))
    for index, (cls, count) in enumerate(sorted(
        profile.class_instances.items(), key=lambda kv: kv[0].sort_key()
    ), start=1):
        partition = IRI(f"{dataset_iri.value}/classPartition{index}")
        g.add(dataset_iri, VOID.classPartition, partition)
        g.add(partition, VOID["class"], cls)
        g.add(partition, VOID.entities, Literal.of(count))
    for index, (prop, count) in enumerate(sorted(
        profile.property_usage.items(), key=lambda kv: kv[0].sort_key()
    ), start=1):
        partition = IRI(f"{dataset_iri.value}/propertyPartition{index}")
        g.add(dataset_iri, VOID.propertyPartition, partition)
        g.add(partition, VOID.property, prop)
        g.add(partition, VOID.triples, Literal.of(count))
    return g
