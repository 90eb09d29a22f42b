// Social network analysis — the application domain the survey's
// AllegroGraph/InfiniteGraph descriptions call out. A Barabási–Albert
// scale-free network is generated into the DEX-archetype engine; the
// example then runs the classic SNA workloads: degree centrality,
// friend-of-friend recommendations, shortest social paths, and community
// sampling via the bitmap label algebra the archetype is built on.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"gdbm"
	"gdbm/internal/engines/bitmapdb"
)

func main() {
	raw, err := gdbm.Open("bitmapdb", gdbm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer raw.Close()
	db := raw.(*bitmapdb.DB) // the concrete API: the DEX archetype is API-only

	// A 400-person scale-free friendship network.
	ids, err := gdbm.Generate(gdbm.GenSpec{
		Kind:         gdbm.BarabasiAlbert,
		Nodes:        400,
		EdgesPerNode: 3,
		Seed:         2012,
		Labels:       []string{"Person"},
		EdgeLabel:    "friend",
	}, raw.(gdbm.Loader))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d people, %d friendships\n", db.Order(), db.Size())

	// 1. Degree centrality: the influencers.
	type ranked struct {
		id  gdbm.NodeID
		deg int
	}
	var rank []ranked
	for _, id := range ids {
		d, _ := db.Degree(id, gdbm.Both)
		rank = append(rank, ranked{id, d})
	}
	sort.Slice(rank, func(i, j int) bool { return rank[i].deg > rank[j].deg })
	fmt.Println("top influencers by degree:")
	for _, r := range rank[:5] {
		fmt.Printf("  person %d: %d friends\n", r.id, r.deg)
	}

	// 2. Friend-of-friend recommendations for a mid-degree person.
	target := rank[len(rank)/2].id
	direct := map[gdbm.NodeID]bool{target: true}
	if err := db.Neighbors(target, gdbm.Both, func(_ gdbm.Edge, n gdbm.Node) bool {
		direct[n.ID] = true
		return true
	}); err != nil {
		log.Fatal(err)
	}
	scores := map[gdbm.NodeID]int{} // mutual-friend counts
	for friend := range direct {
		if friend == target {
			continue
		}
		if err := db.Neighbors(friend, gdbm.Both, func(_ gdbm.Edge, n gdbm.Node) bool {
			if !direct[n.ID] {
				scores[n.ID]++
			}
			return true
		}); err != nil {
			log.Fatal(err)
		}
	}
	type rec struct {
		id     gdbm.NodeID
		mutual int
	}
	var recs []rec
	for id, m := range scores {
		recs = append(recs, rec{id, m})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].mutual != recs[j].mutual {
			return recs[i].mutual > recs[j].mutual
		}
		return recs[i].id < recs[j].id
	})
	fmt.Printf("recommendations for person %d:\n", target)
	for i, r := range recs {
		if i == 3 {
			break
		}
		fmt.Printf("  person %d (%d mutual friends)\n", r.id, r.mutual)
	}

	// 3. Degrees of separation (shortest social path).
	es := raw.Essentials(context.Background())
	path, err := es.ShortestPath(ids[0], rank[0].id)
	if err == nil {
		fmt.Printf("degrees of separation person %d -> top influencer: %d\n", ids[0], path.Len())
	}

	// 4. Network summary through the engine's analysis surface.
	count, _ := es.Summarization(gdbm.AggCount, "Person", "")
	fmt.Printf("population: %s\n", count)
	stats, _ := gdbm.Degrees(db, gdbm.Both)
	fmt.Printf("degree distribution: min=%d max=%d avg=%.1f (scale-free skew: max >> avg)\n",
		stats.Min, stats.Max, stats.Avg)

	// 5. The bitmap algebra the DEX archetype is named for: label sets
	// support set operations directly.
	people := db.LabelSet("Person")
	fmt.Printf("bitmap index cardinality for :Person = %d\n", people.Count())
}
