// Quickstart: open an engine, create a small property graph through the
// API and through the query language, run the essential graph queries, and
// print the engine's survey profile.
package main

import (
	"context"
	"fmt"
	"log"

	"gdbm"
)

func main() {
	ctx := context.Background()
	// Open the Neo4j-archetype engine in main memory.
	db, err := gdbm.Open("neograph", gdbm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	api := db.(gdbm.GraphAPI)

	// Create data through the API.
	ada, _ := api.AddNode("Person", gdbm.Props("name", "ada", "age", 36))
	bob, _ := api.AddNode("Person", gdbm.Props("name", "bob", "age", 40))
	cam, _ := api.AddNode("Person", gdbm.Props("name", "cam", "age", 25))
	api.AddEdge("knows", ada, bob, gdbm.Props("since", 2019))
	api.AddEdge("knows", bob, cam, nil)

	// Create data through the (partial) query language.
	q := db.(gdbm.Querier)
	if _, err := gdbm.QueryContext(ctx, q, `CREATE (d:Person {name: 'dot', age: 52})`); err != nil {
		log.Fatal(err)
	}
	if _, err := gdbm.QueryContext(ctx, q, `MATCH (c:Person {name: 'cam'}), (d:Person {name: 'dot'}) CREATE (c)-[:knows]->(d)`); err != nil {
		log.Fatal(err)
	}

	// Query: who do people over 30 know?
	res, err := gdbm.QueryContext(ctx, q, `MATCH (a:Person)-[:knows]->(b) WHERE a.age > 30 RETURN a.name AS a, b.name AS b ORDER BY a`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("who do people over 30 know?")
	for _, row := range res.Rows {
		fmt.Printf("  %s knows %s\n", row[0], row[1])
	}

	// Essential graph queries through the engine's surface (Table VII).
	es := db.Essentials(ctx)
	adj, _ := es.NodeAdjacency(ada, bob)
	fmt.Printf("ada adjacent to bob: %v\n", adj)

	hood, _ := es.KNeighborhood(ada, 2)
	fmt.Printf("ada's 2-neighborhood has %d people\n", len(hood))

	path, _ := es.ShortestPath(ada, cam)
	fmt.Printf("shortest path ada->cam has %d hops\n", path.Len())

	avg, _ := es.Summarization(gdbm.AggAvg, "Person", "age")
	fmt.Printf("average age: %s\n", avg)

	// The engine's survey identity.
	fmt.Printf("engine %s reproduces the %s row of the survey\n", db.Name(), db.SurveyRow())
}
