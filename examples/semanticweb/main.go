// Semantic Web on the triple model — the AllegroGraph archetype: load RDF
// statements, query them with the SPARQL-like language, and materialize
// RDFS-style inferences with the rule engine (the survey's "Reasoning"
// facility of Table V).
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"gdbm"
	"gdbm/internal/engines/triplestore"
	"gdbm/internal/format"
)

const data = `
<socrates> <type> <human> .
<plato> <type> <human> .
<human> <subClassOf> <mortal> .
<mortal> <subClassOf> <being> .
<socrates> <teacherOf> <plato> .
<plato> <teacherOf> <aristotle> .
<aristotle> <type> <human> .
<socrates> <name> "Socrates of Athens" .
`

func main() {
	ctx := context.Background()
	raw, err := gdbm.Open("triplestore", gdbm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer raw.Close()
	db := raw.(*triplestore.DB)

	// Load N-Triples.
	n, err := format.ReadNTriples(strings.NewReader(data), db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d statements\n", n)

	// Query with the SPARQL-like language (Table V marks this QL partial:
	// it matches triple patterns, not arbitrary graph structure).
	q := raw.(gdbm.Querier)
	res, err := gdbm.QueryContext(ctx, q, `SELECT ?x WHERE { ?x <type> <human> . } ORDER BY ?x`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("humans (asserted):")
	for _, row := range res.Rows {
		fmt.Printf("  %s\n", row[0])
	}

	// Reasoning: RDFS subclass rules derive mortality.
	derived, err := db.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("materialized %d inferred statements\n", derived)

	res, err = gdbm.QueryContext(ctx, q, `SELECT ?x WHERE { ?x <type> <mortal> . } ORDER BY ?x`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mortals (inferred via human subClassOf mortal):")
	for _, row := range res.Rows {
		fmt.Printf("  %s\n", row[0])
	}

	// Joins across triple patterns: students of a human teacher.
	res, err = gdbm.QueryContext(ctx, q, `SELECT ?t ?s WHERE { ?t <teacherOf> ?s . ?t <type> <human> . } ORDER BY ?t`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("teacher/student pairs:")
	for _, row := range res.Rows {
		fmt.Printf("  %s taught %s\n", row[0], row[1])
	}

	// DML through the language.
	if _, err := gdbm.QueryContext(ctx, q, `INSERT DATA { <aristotle> <teacherOf> <alexander> . }`); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("statements after insert: %d\n", db.Count())

	// Filters over literals.
	res, err = gdbm.QueryContext(ctx, q, `SELECT ?n WHERE { <socrates> <name> ?n . FILTER (?n != "x") }`)
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Rows) == 1 {
		fmt.Printf("literal lookup: %s\n", res.Rows[0][0])
	}
}
