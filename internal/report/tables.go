// Package report regenerates the eight comparison tables of the survey from
// the living engines: Tables I–VI from each engine's (test-verified)
// feature profile, Table VII from executing the essential queries through
// each engine's public surface, and Table VIII from the executable past-
// language profiles. It also embeds the paper's published matrices so the
// harness can print a cell-by-cell diff (EXPERIMENTS.md's paper-vs-measured
// record).
package report

import (
	"context"
	"fmt"
	"io"
	"strings"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/model"
	"gdbm/internal/pastql"
)

// Table is a rendered comparison matrix.
type Table struct {
	ID    string // "I" .. "VIII"
	Title string
	Cols  []string
	Rows  []Row
}

// Row is one system's line.
type Row struct {
	Name  string
	Cells []string // "•", "◦" or ""
}

// Render prints the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "TABLE %s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	nameW := len("Graph Database")
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	colW := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		colW[i] = len([]rune(c))
		if colW[i] < 3 {
			colW[i] = 3
		}
	}
	fmt.Fprintf(w, "%-*s", nameW+2, "Graph Database")
	for i, c := range t.Cols {
		fmt.Fprintf(w, " | %-*s", colW[i], c)
	}
	fmt.Fprintln(w)
	total := nameW + 2
	for _, cw := range colW {
		total += cw + 3
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", nameW+2, r.Name)
		for i := range t.Cols {
			cell := ""
			if i < len(r.Cells) {
				cell = r.Cells[i]
			}
			// Center the mark.
			pad := colW[i] - len([]rune(cell))
			left := pad / 2
			fmt.Fprintf(w, " | %s%s%s", strings.Repeat(" ", left), cell, strings.Repeat(" ", pad-left))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

// featureCell extracts one Features field by table column.
type featureCol struct {
	name string
	get  func(engine.Features) engine.Support
}

var tableICols = []featureCol{
	{"Main memory", func(f engine.Features) engine.Support { return f.MainMemory }},
	{"External memory", func(f engine.Features) engine.Support { return f.ExternalMemory }},
	{"Backend Storage", func(f engine.Features) engine.Support { return f.BackendStorage }},
	{"Indexes", func(f engine.Features) engine.Support { return f.Indexes }},
}

var tableIICols = []featureCol{
	{"Data Definition Lang.", func(f engine.Features) engine.Support { return f.DDL }},
	{"Data Manipulat. Lang.", func(f engine.Features) engine.Support { return f.DML }},
	{"Query Language", func(f engine.Features) engine.Support { return f.QueryLanguageShipped }},
	{"API", func(f engine.Features) engine.Support { return f.API }},
	{"GUI", func(f engine.Features) engine.Support { return f.GUI }},
}

var tableIIICols = []featureCol{
	{"Simple graphs", func(f engine.Features) engine.Support { return f.SimpleGraphs }},
	{"Hypergraphs", func(f engine.Features) engine.Support { return f.Hypergraphs }},
	{"Nested graphs", func(f engine.Features) engine.Support { return f.NestedGraphs }},
	{"Attributed graphs", func(f engine.Features) engine.Support { return f.AttributedGraphs }},
	{"Node labeled", func(f engine.Features) engine.Support { return f.NodeLabeled }},
	{"Node attribution", func(f engine.Features) engine.Support { return f.NodeAttributed }},
	{"Directed", func(f engine.Features) engine.Support { return f.Directed }},
	{"Edge labeled", func(f engine.Features) engine.Support { return f.EdgeLabeled }},
	{"Edge attribution", func(f engine.Features) engine.Support { return f.EdgeAttributed }},
}

var tableIVCols = []featureCol{
	{"Node types", func(f engine.Features) engine.Support { return f.SchemaNodeTypes }},
	{"Property types", func(f engine.Features) engine.Support { return f.SchemaPropertyTypes }},
	{"Relation types", func(f engine.Features) engine.Support { return f.SchemaRelationTypes }},
	{"Object nodes", func(f engine.Features) engine.Support { return f.ObjectNodes }},
	{"Value nodes", func(f engine.Features) engine.Support { return f.ValueNodes }},
	{"Complex nodes", func(f engine.Features) engine.Support { return f.ComplexNodes }},
	{"Object relations", func(f engine.Features) engine.Support { return f.ObjectRelations }},
	{"Simple relations", func(f engine.Features) engine.Support { return f.SimpleRelations }},
	{"Complex relations", func(f engine.Features) engine.Support { return f.ComplexRelations }},
}

var tableVCols = []featureCol{
	{"Query Lang.", func(f engine.Features) engine.Support { return f.QueryLanguage }},
	{"API", func(f engine.Features) engine.Support { return f.APIQueryFacility }},
	{"Graphical Q. L.", func(f engine.Features) engine.Support { return f.GraphicalQL }},
	{"Retrieval", func(f engine.Features) engine.Support { return f.Retrieval }},
	{"Reasoning", func(f engine.Features) engine.Support { return f.Reasoning }},
	{"Analysis", func(f engine.Features) engine.Support { return f.Analysis }},
}

var tableVICols = []featureCol{
	{"Types checking", func(f engine.Features) engine.Support { return f.TypesChecking }},
	{"Node/edge identity", func(f engine.Features) engine.Support { return f.NodeEdgeIdentity }},
	{"Referential integrity", func(f engine.Features) engine.Support { return f.ReferentialIntegrity }},
	{"Cardinality checking", func(f engine.Features) engine.Support { return f.CardinalityChecking }},
	{"Functional dependency", func(f engine.Features) engine.Support { return f.FunctionalDependencies }},
	{"Graph pattern", func(f engine.Features) engine.Support { return f.PatternConstraints }},
}

func featureTable(id, title string, cols []featureCol, engines []engine.Engine) *Table {
	t := &Table{ID: id, Title: title}
	for _, c := range cols {
		t.Cols = append(t.Cols, c.name)
	}
	for _, e := range engines {
		f := e.Features()
		row := Row{Name: e.SurveyRow()}
		for _, c := range cols {
			row.Cells = append(row.Cells, c.get(f).Mark())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TableI builds the data-storing-features matrix.
func TableI(engines []engine.Engine) *Table {
	return featureTable("I", "Data storing features", tableICols, engines)
}

// TableII builds the operation/manipulation matrix.
func TableII(engines []engine.Engine) *Table {
	return featureTable("II", "Operation and manipulation features", tableIICols, engines)
}

// TableIII builds the graph data structures matrix.
func TableIII(engines []engine.Engine) *Table {
	return featureTable("III", "Graph data structures", tableIIICols, engines)
}

// TableIV builds the entities/relations representation matrix.
func TableIV(engines []engine.Engine) *Table {
	return featureTable("IV", "Representation of entities and relations", tableIVCols, engines)
}

// TableV builds the query facilities matrix.
func TableV(engines []engine.Engine) *Table {
	return featureTable("V", "Comparison of query facilities", tableVCols, engines)
}

// TableVI builds the integrity constraints matrix (only rows with at least
// one constraint, matching the paper's presentation).
func TableVI(engines []engine.Engine) *Table {
	t := featureTable("VI", "Comparison of integrity constraints", tableVICols, engines)
	var kept []Row
	for _, r := range t.Rows {
		empty := true
		for _, c := range r.Cells {
			if c != "" {
				empty = false
				break
			}
		}
		if !empty {
			kept = append(kept, r)
		}
	}
	t.Rows = kept
	return t
}

// TableVIICols names the essential-query columns.
var TableVIICols = []string{
	"Node/edge adjacency", "k-neighborhood", "Fixed-length paths",
	"Shortest path", "Pattern matching", "Summarization",
}

// TableVII executes the essential queries through each engine's surface on
// a freshly seeded probe graph; a cell is marked only when the operation is
// exposed AND returns the correct answer.
func TableVII(engines []engine.Engine) (*Table, error) {
	t := &Table{ID: "VII", Title: "Current graph databases and their support for essential graph queries", Cols: TableVIICols}
	for _, e := range engines {
		row := Row{Name: e.SurveyRow(), Cells: make([]string, len(TableVIICols))}
		ids, err := seedProbe(e)
		if err != nil {
			return nil, fmt.Errorf("%s: seed: %w", e.Name(), err)
		}
		es := e.Essentials(context.Background())
		// Node/edge adjacency.
		if es.NodeAdjacency != nil {
			ok1, err1 := es.NodeAdjacency(ids[0], ids[1])
			ok2, err2 := es.NodeAdjacency(ids[0], ids[3])
			if err1 == nil && err2 == nil && ok1 && !ok2 {
				row.Cells[0] = engine.Yes.Mark()
			}
		}
		if es.KNeighborhood != nil {
			nb, err := es.KNeighborhood(ids[0], 1)
			if err == nil && contains(nb, ids[1]) && contains(nb, ids[4]) {
				row.Cells[1] = engine.Yes.Mark()
			}
		}
		if es.FixedLengthPaths != nil {
			ps, err := es.FixedLengthPaths(ids[0], ids[2], 2)
			if err == nil && len(ps) == 1 {
				row.Cells[2] = engine.Yes.Mark()
			}
		}
		if es.ShortestPath != nil {
			p, err := es.ShortestPath(ids[0], ids[3])
			if err == nil && p.Len() == 3 {
				row.Cells[3] = engine.Yes.Mark()
			}
		}
		// Cells[4], pattern matching, stays blank: no surveyed system's
		// surface composes it.
		if es.Summarization != nil {
			v, err := es.Summarization(algo.AggCount, "Thing", "")
			if err == nil {
				if n, ok := v.AsInt(); ok && n >= 5 {
					row.Cells[5] = engine.Yes.Mark()
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func contains(ids []model.NodeID, id model.NodeID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// seedProbe loads the probe chain+hub graph used by TableVII.
func seedProbe(e engine.Engine) ([]model.NodeID, error) {
	l, ok := e.(engine.Loader)
	if !ok {
		return nil, fmt.Errorf("engine %s has no loader", e.Name())
	}
	ids := make([]model.NodeID, 5)
	for i, nm := range []string{"n0", "n1", "n2", "n3", "hub"} {
		id, err := l.LoadNode("Thing", model.Props("name", nm, "rank", i))
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	for i := 0; i < 3; i++ {
		if _, err := l.LoadEdge("next", ids[i], ids[i+1], nil); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := l.LoadEdge("spoke", ids[4], ids[i], nil); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// TableVIII renders the past-language matrix from the executable profiles.
func TableVIII() *Table {
	cols := pastql.Columns()
	t := &Table{ID: "VIII", Title: "Past graph query languages and their support for essential graph queries"}
	for _, c := range cols {
		t.Cols = append(t.Cols, string(c))
	}
	for _, l := range pastql.Languages() {
		row := Row{Name: l.Name}
		for _, c := range cols {
			row.Cells = append(row.Cells, l.Marks[c].Mark())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// AllTables regenerates every table against freshly opened engines.
func AllTables(engines []engine.Engine) ([]*Table, error) {
	t7, err := TableVII(engines)
	if err != nil {
		return nil, err
	}
	return []*Table{
		TableI(engines), TableII(engines), TableIII(engines),
		TableIV(engines), TableV(engines), TableVI(engines),
		t7, TableVIII(),
	}, nil
}
