package report

import (
	"bytes"
	"strings"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/engine/capability"

	_ "gdbm/internal/engines/bitmapdb"
	_ "gdbm/internal/engines/filamentdb"
	_ "gdbm/internal/engines/gstore"
	_ "gdbm/internal/engines/hyperdb"
	_ "gdbm/internal/engines/infinigraph"
	_ "gdbm/internal/engines/neograph"
	_ "gdbm/internal/engines/sonesdb"
	_ "gdbm/internal/engines/triplestore"
	_ "gdbm/internal/engines/vertexkv"
)

func openEngines(t *testing.T) []engine.Engine {
	t.Helper()
	var out []engine.Engine
	for _, name := range engine.Names() {
		opts := engine.Options{}
		if capability.NeedsDir(name) {
			opts.Dir = t.TempDir()
		}
		e, err := engine.Open(name, opts)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		t.Cleanup(func() { e.Close() })
		out = append(out, e)
	}
	return out
}

// The central reproduction claim: every regenerated table matches the
// paper's published matrix cell for cell.
func TestRegeneratedTablesMatchPaper(t *testing.T) {
	engines := openEngines(t)
	tables, err := AllTables(engines)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 8 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tb := range tables {
		for _, m := range Diff(tb) {
			t.Errorf("mismatch: %s", m)
		}
	}
}

func TestTableRowOrderMatchesPaper(t *testing.T) {
	engines := openEngines(t)
	tb := TableI(engines)
	want := []string{"AllegroGraph", "DEX", "Filament", "G-Store", "HyperGraphDB", "InfiniteGraph", "Neo4j", "Sones", "VertexDB"}
	if len(tb.Rows) != len(want) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i, r := range tb.Rows {
		if r.Name != want[i] {
			t.Errorf("row %d = %s, want %s", i, r.Name, want[i])
		}
	}
}

func TestTableVIOnlyConstraintRows(t *testing.T) {
	engines := openEngines(t)
	tb := TableVI(engines)
	if len(tb.Rows) != 4 {
		t.Fatalf("Table VI rows = %d (want the 4 constraint-bearing systems)", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		switch r.Name {
		case "DEX", "HyperGraphDB", "InfiniteGraph", "Sones":
		default:
			t.Errorf("unexpected Table VI row %s", r.Name)
		}
	}
}

func TestRenderOutput(t *testing.T) {
	engines := openEngines(t)
	tb := TableI(engines)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "Neo4j") || !strings.Contains(out, "•") {
		t.Errorf("render output:\n%s", out)
	}
}

func TestTableVIIIHasSixRows(t *testing.T) {
	tb := TableVIII()
	if len(tb.Rows) != 6 || len(tb.Cols) != 8 {
		t.Fatalf("Table VIII %dx%d", len(tb.Rows), len(tb.Cols))
	}
	// G+ supports shortest path; G does not.
	colIdx := -1
	for i, c := range tb.Cols {
		if c == "shortest path" {
			colIdx = i
		}
	}
	var g, gplus Row
	for _, r := range tb.Rows {
		if r.Name == "G" {
			g = r
		}
		if r.Name == "G+" {
			gplus = r
		}
	}
	if g.Cells[colIdx] != "" || gplus.Cells[colIdx] != "•" {
		t.Errorf("G/G+ shortest path cells: %q %q", g.Cells[colIdx], gplus.Cells[colIdx])
	}
}

func TestPerfSweepRuns(t *testing.T) {
	open := func(name string) (engine.Engine, error) {
		opts := engine.Options{}
		if capability.NeedsDir(name) {
			opts.Dir = t.TempDir()
		}
		return engine.Open(name, opts)
	}
	results, err := RunPerf(open, []string{"neograph", "vertexkv", "sonesdb"}, 300, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{}
	for _, r := range results {
		ops[r.Op]++
		if r.Took <= 0 {
			t.Errorf("non-positive timing for %s/%s", r.Engine, r.Op)
		}
	}
	if ops["ingest"] != 3 {
		t.Errorf("ingest results = %d", ops["ingest"])
	}
	// sonesdb has no khood/shortest; neograph and vertexkv have khood.
	if ops["2hop"] != 2 {
		t.Errorf("2hop results = %d", ops["2hop"])
	}
	if ops["shortest"] != 1 {
		t.Errorf("shortest results = %d", ops["shortest"])
	}
	var buf bytes.Buffer
	RenderPerf(&buf, results)
	if !strings.Contains(buf.String(), "operation ingest") {
		t.Errorf("perf render:\n%s", buf.String())
	}
}

func TestMismatchString(t *testing.T) {
	m := Mismatch{TableID: "I", Row: "DEX", Col: "Indexes", Paper: "•", Ours: ""}
	s := m.String()
	if !strings.Contains(s, "DEX") || !strings.Contains(s, "(blank)") {
		t.Errorf("mismatch string = %q", s)
	}
}

// Provenance checks: the reconstructed tables must stay consistent with the
// OCR evidence recorded in EXPERIMENTS.md.
func TestTableVIIBulletCountsMatchOCR(t *testing.T) {
	engines := openEngines(t)
	tb, err := TableVII(engines)
	if err != nil {
		t.Fatal(err)
	}
	// Per-row mark counts extracted from the source text.
	want := map[string]int{
		"AllegroGraph": 3, "DEX": 5, "Filament": 3, "G-Store": 5,
		"HyperGraphDB": 2, "InfiniteGraph": 5, "Neo4j": 5, "Sones": 2,
		"VertexDB": 4,
	}
	for _, r := range tb.Rows {
		n := 0
		for _, c := range r.Cells {
			if c != "" {
				n++
			}
		}
		if n != want[r.Name] {
			t.Errorf("%s: %d marks, OCR shows %d", r.Name, n, want[r.Name])
		}
	}
}

func TestTableIIIProseConsistency(t *testing.T) {
	engines := openEngines(t)
	tb := TableIII(engines)
	col := func(name string) int {
		for i, c := range tb.Cols {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	hyper, nested, attr := col("Hypergraphs"), col("Nested graphs"), col("Attributed graphs")
	hyperRows, nestedRows, attrRows := 0, 0, 0
	for _, r := range tb.Rows {
		if r.Cells[hyper] != "" {
			hyperRows++
		}
		if r.Cells[nested] != "" {
			nestedRows++
		}
		if r.Cells[attr] != "" {
			attrRows++
		}
	}
	// "Only two support hypergraphs and no one nested graphs."
	if hyperRows != 2 {
		t.Errorf("hypergraph rows = %d, prose says 2", hyperRows)
	}
	if nestedRows != 0 {
		t.Errorf("nested rows = %d, prose says 0", nestedRows)
	}
	if attrRows != 4 {
		t.Errorf("attributed rows = %d (DEX, InfiniteGraph, Neo4j, Sones)", attrRows)
	}
}

func TestTableIVProseConsistency(t *testing.T) {
	engines := openEngines(t)
	tb := TableIV(engines)
	col := func(name string) int {
		for i, c := range tb.Cols {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	vn, sr := col("Value nodes"), col("Simple relations")
	// "Value nodes and simple relations are supported by all the models."
	for _, r := range tb.Rows {
		if r.Cells[vn] == "" || r.Cells[sr] == "" {
			t.Errorf("%s: missing value-node/simple-relation marks", r.Name)
		}
	}
}
