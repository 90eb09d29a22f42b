package suite

import (
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/model"
)

// TestEdgeEndpointTypes adds edges through the engines that install the
// types constraint, in main memory and on disk. The constraint reads each
// endpoint's label from the graph, and a missing endpoint reads as the
// empty label. An edge between wrongly typed nodes is refused, an edge to a
// missing node fails, and each error reads exactly as the text pinned here.
// A well-typed edge is accepted. hyperdb adds each edge as a 2-member link
// and judges it as the edge it stands for; a link of another arity under a
// typed relation is refused with an error that names its arity.
func TestEdgeEndpointTypes(t *testing.T) {
	const (
		wrongSource   = `relation "livesIn" requires source type "Person", got "City": integrity constraint violation`
		wrongArity    = `relation "livesIn" types binary links, got a link of 3 members: integrity constraint violation`
		missingTarget = `relation "livesIn" requires target type "City", got "": integrity constraint violation`
		missingNode   = `node 999: not found`
		referential   = `referential: edge references missing node 999: integrity constraint violation`
	)
	cases := []struct {
		engine string
		// The errors of a livesIn edge City→City, of a livesIn edge to a
		// missing node, and of an untyped edge to a missing node; "" is
		// success.
		wrong, missing, untyped string
	}{
		{"bitmapdb", wrongSource, missingTarget, referential},
		{"infinigraph", wrongSource, missingTarget, missingNode},
		{"hyperdb", wrongSource, missingNode, missingNode},
	}
	for _, tc := range cases {
		for _, disk := range []bool{false, true} {
			name := tc.engine + "/memory"
			opts := engine.Options{}
			if disk {
				name, opts.Dir = tc.engine+"/disk", t.TempDir()
			}
			t.Run(name, func(t *testing.T) {
				e, err := engine.Open(tc.engine, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				sch := e.(engine.SchemaHolder).Schema()
				if err := sch.DefineNodeType(model.NodeType{Name: "Person"}); err != nil {
					t.Fatal(err)
				}
				if err := sch.DefineNodeType(model.NodeType{Name: "City"}); err != nil {
					t.Fatal(err)
				}
				if err := sch.DefineRelationType(model.RelationType{Name: "livesIn", From: "Person", To: "City"}); err != nil {
					t.Fatal(err)
				}
				if err := sch.DefineRelationType(model.RelationType{Name: "knows"}); err != nil {
					t.Fatal(err)
				}
				addNode := e.(interface {
					AddNode(string, model.Properties) (model.NodeID, error)
				}).AddNode
				var addEdge func(label string, from, to model.NodeID) error
				switch g := e.(type) {
				case model.MutableHypergraph:
					addEdge = func(label string, from, to model.NodeID) error {
						_, err := g.AddHyperEdge(label, []model.NodeID{from, to}, nil)
						return err
					}
				case model.MutableGraph:
					addEdge = func(label string, from, to model.NodeID) error {
						_, err := g.AddEdge(label, from, to, nil)
						return err
					}
				default:
					t.Fatalf("%T adds no edges", e)
				}
				person, err := addNode("Person", nil)
				if err != nil {
					t.Fatal(err)
				}
				city, err := addNode("City", nil)
				if err != nil {
					t.Fatal(err)
				}
				check := func(what, want string, err error) {
					t.Helper()
					got := ""
					if err != nil {
						got = err.Error()
					}
					if got != want {
						t.Errorf("%s: err = %q, want %q", what, got, want)
					}
				}
				check("livesIn City→City", tc.wrong, addEdge("livesIn", city, city))
				check("livesIn to a missing node", tc.missing, addEdge("livesIn", person, 999))
				check("knows to a missing node", tc.untyped, addEdge("knows", person, 999))
				check("livesIn Person→City", "", addEdge("livesIn", person, city))
				if g, ok := e.(model.MutableHypergraph); ok {
					_, err := g.AddHyperEdge("livesIn", []model.NodeID{person, city, city}, nil)
					check("livesIn link of 3 members", wrongArity, err)
					_, err = g.AddHyperEdge("knows", []model.NodeID{person, city, city}, nil)
					check("knows link of 3 members", "", err)
				}
			})
		}
	}
}
