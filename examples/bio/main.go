// Bioinformatics on the hypergraph model — the survey singles out
// HyperGraphDB's hyperedges as "particularly useful for modeling data of
// areas like knowledge representation, artificial intelligence and
// bio-informatics" because higher-order relations (a protein complex
// binding several proteins at once) are first class instead of being
// decomposed into cliques of binary edges.
package main

import (
	"context"
	"fmt"
	"log"

	"gdbm"
	"gdbm/internal/engines/hyperdb"
)

func main() {
	raw, err := gdbm.Open("hyperdb", gdbm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer raw.Close()
	db := raw.(*hyperdb.DB)

	// The HyperGraphDB archetype is typed (Table VI: types checking):
	// declare the atom type, then make protein names unique identities.
	if err := db.Schema().DefineNodeType(gdbm.NodeType{
		Name: "Protein",
		Properties: []gdbm.PropertyType{
			{Name: "name", Kind: gdbm.KindString, Required: true, Unique: true},
		},
	}); err != nil {
		log.Fatal(err)
	}
	db.SetIdentity("Protein", "name")

	protein := func(name string) gdbm.NodeID {
		id, err := db.AddNode("Protein", gdbm.Props("name", name))
		if err != nil {
			log.Fatal(err)
		}
		return id
	}
	// A miniature interactome.
	rpb1 := protein("RPB1")
	rpb2 := protein("RPB2")
	rpb3 := protein("RPB3")
	tbp := protein("TBP")
	tfb1 := protein("TFB1")
	ssl2 := protein("SSL2")

	// Higher-order relations: complexes bind many proteins at once.
	polII, err := db.AddHyperEdge("complex", []gdbm.NodeID{rpb1, rpb2, rpb3}, gdbm.Props("name", "RNA-Pol-II-core"))
	if err != nil {
		log.Fatal(err)
	}
	tfiih, _ := db.AddHyperEdge("complex", []gdbm.NodeID{tfb1, ssl2, tbp}, gdbm.Props("name", "TFIIH-like"))
	// A binary interaction is just a 2-member hyperedge.
	db.AddHyperEdge("binds", []gdbm.NodeID{rpb1, tbp}, nil)

	fmt.Printf("interactome: %d proteins, %d relations (2 complexes, 1 binary)\n", db.Order(), db.Size())

	// Which complexes contain RPB1?
	fmt.Println("relations containing RPB1:")
	if err := db.Incident(rpb1, func(e gdbm.HyperEdge) bool {
		fmt.Printf("  %s %s with %d members\n", e.Label, e.Props.Get("name"), len(e.Members))
		return true
	}); err != nil {
		log.Fatal(err)
	}

	// Node adjacency in the hypergraph sense: shared hyperedge.
	es := raw.Essentials(context.Background())
	sameComplex, _ := es.NodeAdjacency(rpb1, rpb2)
	crossComplex, _ := es.NodeAdjacency(rpb2, ssl2)
	fmt.Printf("RPB1 adjacent to RPB2 (same complex): %v\n", sameComplex)
	fmt.Printf("RPB2 adjacent to SSL2 (different complexes): %v\n", crossComplex)

	// TBP bridges the polymerase and the TFIIH-like complex.
	bridge, _ := es.NodeAdjacency(rpb1, tbp)
	fmt.Printf("RPB1 adjacent to TBP (binds relation): %v\n", bridge)
	_ = polII
	_ = tfiih

	// Identity constraint at work: a duplicate protein is rejected.
	if _, err := db.AddNode("Protein", gdbm.Props("name", "RPB1")); err != nil {
		fmt.Printf("identity constraint rejected duplicate RPB1: %v\n", err != nil)
	}

	// Summarize through the engine surface.
	n, _ := es.Summarization(gdbm.AggCount, "Protein", "")
	fmt.Printf("protein count via summarization surface: %s\n", n)

	// The survey's observation: the same data in a binary-edge engine
	// needs clique expansion.
	fmt.Println("hyperedges keep complexes first-class; clique expansion of the 3-member complexes would need 6 directed edges each")
}
