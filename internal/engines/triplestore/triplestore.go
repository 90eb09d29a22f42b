// Package triplestore implements the AllegroGraph-archetype engine: a graph
// database oriented to the Semantic Web standards. Data is a set of
// subject-predicate-object statements; every term (resource or literal) is
// a value node carrying its lexical form, and each statement is a directed
// edge labelled with the predicate. Its survey profile: main + external
// memory with indexes, full database languages plus GUI, a *partial* query
// language (BGP matching, "not oriented to querying the graph structure"),
// reasoning, and analysis functions.
package triplestore

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"gdbm/internal/algo"
	"gdbm/internal/engine"
	"gdbm/internal/engines/propcore"
	"gdbm/internal/index"
	"gdbm/internal/memgraph"
	"gdbm/internal/model"
	"gdbm/internal/obs"
	"gdbm/internal/query/plan"
	"gdbm/internal/query/sparqlish"
	"gdbm/internal/reason"
)

func init() {
	engine.Register("triplestore", "AllegroGraph", func(opts engine.Options) (engine.Engine, error) {
		return New(opts)
	})
}

// DB is the engine instance.
type DB struct {
	*propcore.Core
	engine.Disk
	mu    sync.Mutex
	terms map[string]model.NodeID // lexical form -> term node
	rules []reason.Rule
}

// New opens a triplestore, in main memory or, with Options.Dir set, over a
// kv-backed store. A positive Options.CacheBytes splits the budget between
// the page cache and the statement-result cache (disk-backed configuration
// only).
func New(opts engine.Options) (*DB, error) {
	db := &DB{terms: make(map[string]model.NodeID), rules: reason.RDFS()}
	if opts.Dir != "" {
		d, kg, err := engine.OpenDiskWithResults(opts, "triples.pg")
		if err != nil {
			return nil, err
		}
		db.Disk, db.Core = d, propcore.New(kg)
		// Rebuild the term dictionary from persisted nodes.
		err = db.Core.Nodes(func(n model.Node) bool {
			if v, ok := n.Props.Get("value").AsString(); ok {
				db.terms[v] = n.ID
			}
			return true
		})
		if err != nil {
			db.Close()
			return nil, err
		}
	} else {
		db.Core = propcore.New(memgraph.New())
	}
	// Term-value index: the SPO/POS access paths of a triple store reduce
	// to value lookup + directed adjacency here.
	if _, err := db.Core.Idx.Create(index.Nodes, "value", index.KindHash); err != nil {
		db.Close()
		return nil, err
	}
	// Index persisted terms. An iteration error means a partial index,
	// which would silently drop rows from indexed scans.
	if err := db.Core.IndexStoredNodes(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// Term interns a lexical form and returns its node.
func (db *DB) Term(value string) (model.NodeID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if id, ok := db.terms[value]; ok {
		return id, nil
	}
	id, err := db.Core.AddNode("", model.Properties{"value": model.Str(value)})
	if err != nil {
		return 0, err
	}
	db.terms[value] = id
	return id, nil
}

// TermID looks up an existing term.
func (db *DB) TermID(value string) (model.NodeID, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	id, ok := db.terms[value]
	return id, ok
}

// AddTriple asserts one statement.
func (db *DB) AddTriple(s, p, o string) error {
	_, _, err := db.assert(s, p, o)
	return err
}

// assert asserts one statement and returns its edge, reporting whether the
// statement was new.
func (db *DB) assert(s, p, o string) (model.EdgeID, bool, error) {
	sid, err := db.Term(s)
	if err != nil {
		return 0, false, err
	}
	oid, err := db.Term(o)
	if err != nil {
		return 0, false, err
	}
	// Deduplicate identical statements. A failed scan must not fall through
	// to AddEdge: it could assert a duplicate the scan would have caught.
	var dup model.EdgeID
	if err := db.Core.Neighbors(sid, model.Out, func(e model.Edge, n model.Node) bool {
		if e.Label == p && n.ID == oid {
			dup = e.ID
			return false
		}
		return true
	}); err != nil || dup != 0 {
		return dup, false, err
	}
	eid, err := db.Core.AddEdge(p, sid, oid, nil)
	return eid, err == nil, err
}

// Triples streams every statement.
func (db *DB) Triples(fn func(s, p, o string) bool) error {
	var iterErr error
	err := db.Core.Edges(func(e model.Edge) bool {
		s, err := db.termValue(e.From)
		if err != nil {
			iterErr = err
			return false
		}
		o, err := db.termValue(e.To)
		if err != nil {
			iterErr = err
			return false
		}
		return fn(s, e.Label, o)
	})
	if iterErr != nil {
		return iterErr
	}
	return err
}

func (db *DB) termValue(id model.NodeID) (string, error) {
	n, err := db.Core.Node(id)
	if err != nil {
		return "", err
	}
	v, ok := n.Props.Get("value").AsString()
	if !ok {
		return "", fmt.Errorf("triplestore: node %d has no value", id)
	}
	return v, nil
}

// Count returns the number of asserted statements.
func (db *DB) Count() int { return db.Core.Size() }

// AddRule installs an inference rule alongside the RDFS defaults.
func (db *DB) AddRule(r reason.Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.rules = append(db.rules, r)
	return nil
}

// Materialize implements engine.Reasoner: it runs the rules to a fixpoint
// and asserts the derived statements, returning how many were added. The
// evaluation is naive: each round runs every rule body on the planner, as
// the basic graph pattern sparqlish.Compile lowers it to, and asserts the
// heads its rows instantiate; the first round that adds nothing ends it.
func (db *DB) Materialize() (int, error) {
	db.mu.Lock()
	rules := append([]reason.Rule(nil), db.rules...)
	db.mu.Unlock()
	total := 0
	for {
		added := 0
		for _, r := range rules {
			n, err := db.fire(r)
			added += n
			if err != nil {
				return total + added, err
			}
		}
		if added == 0 {
			return total, nil
		}
		total += added
	}
}

// fire evaluates r's body over the store, asserts each distinct head its
// rows instantiate, and returns how many were new.
func (db *DB) fire(r reason.Rule) (int, error) {
	body := make([]sparqlish.TriplePattern, len(r.Body))
	for i, p := range r.Body {
		body[i] = sparqlish.TriplePattern{Pred: string(p.P)}
		body[i].SVar, body[i].SConst = lower(p.S)
		body[i].OVar, body[i].OConst = lower(p.O)
	}
	head := [3]reason.Term{r.Head.S, r.Head.P, r.Head.O}
	var vars []string // the head's variables: the columns that instantiate it
	for _, t := range head {
		if t.IsVar() && !slices.Contains(vars, string(t)) {
			vars = append(vars, string(t))
		}
	}
	q, err := sparqlish.Compile(body, vars)
	if err != nil {
		return 0, err
	}
	q.Spec.Distinct = true
	op, err := plan.CompileFor(&q.Spec, db.Core)
	if err != nil {
		return 0, err
	}
	res, err := plan.Collect(op, db.Core, q.Vars)
	if err != nil {
		return 0, err
	}
	added := 0
	for _, row := range res.Rows {
		var t [3]string
		for i, term := range head {
			t[i] = string(term)
			if term.IsVar() {
				var ok bool
				if t[i], ok = row[slices.Index(vars, string(term))].AsString(); !ok {
					return added, fmt.Errorf("triplestore: rule %q bound %s to a node without a value", r.Name, term)
				}
			}
		}
		_, ok, err := db.assert(t[0], t[1], t[2])
		if err != nil {
			return added, err
		}
		if ok {
			added++
		}
	}
	return added, nil
}

// lower maps a rule term onto a triple-pattern position: a variable keeps
// its name, '?' included, and a constant matches its term's lexical form.
func lower(t reason.Term) (string, model.Value) {
	if t.IsVar() {
		return string(t), model.Null()
	}
	return "", model.Str(string(t))
}

// LanguageName implements engine.Querier.
func (db *DB) LanguageName() string { return "sparqlish" }

// QueryStream implements engine.Querier with the SPARQL-like language; the
// surface also accepts INSERT DATA { <s> <p> <o> . ... } for DML. The whole
// dispatch is a "query" span on the trace in ctx, with sparqlish's
// "parse"/"exec" spans nested inside on cache misses. SELECT/ASK emit rows
// into sink as the plan produces them; INSERT DATA (one counter row, whole
// by construction) and the cached read path (see engine.CachedStream)
// materialize and replay, so streaming never bypasses cache coherence; the
// rows are identical either way.
func (db *DB) QueryStream(ctx context.Context, stmt string, sink plan.Sink) error {
	defer obs.FromContext(ctx).StartSpan("query")()
	trimmed := strings.TrimSpace(stmt)
	if strings.HasPrefix(strings.ToUpper(trimmed), "INSERT DATA") {
		res, err := db.insertData(trimmed)
		if err != nil {
			return err
		}
		return plan.Replay(res, sink)
	}
	return engine.CachedStream(db.Disk, db.Name(), "sparqlish", trimmed, engine.ReadOnlyStmt(trimmed, "SELECT", "ASK"), sink,
		func(s plan.Sink) error { return sparqlish.RunStreamCtx(ctx, stmt, db.Core, s) })
}

// insertData parses INSERT DATA { <s> <p> <o> . ... }.
func (db *DB) insertData(stmt string) (*plan.Result, error) {
	open := strings.IndexByte(stmt, '{')
	close_ := strings.LastIndexByte(stmt, '}')
	if open < 0 || close_ < open {
		return nil, fmt.Errorf("triplestore: INSERT DATA requires { ... }")
	}
	body := stmt[open+1 : close_]
	n := 0
	for _, line := range strings.Split(body, ".") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		terms := splitTerms(line)
		if len(terms) != 3 {
			return nil, fmt.Errorf("triplestore: bad triple %q", line)
		}
		if err := db.AddTriple(terms[0], terms[1], terms[2]); err != nil {
			return nil, err
		}
		n++
	}
	return &plan.Result{Cols: []string{"inserted"}, Rows: [][]model.Value{{model.Int(int64(n))}}}, nil
}

// splitTerms splits "<a> <b> "c d"" into terms, stripping <> and quotes.
func splitTerms(line string) []string {
	var out []string
	i := 0
	for i < len(line) {
		switch {
		case line[i] == ' ' || line[i] == '\t' || line[i] == '\n':
			i++
		case line[i] == '<':
			end := strings.IndexByte(line[i:], '>')
			if end < 0 {
				out = append(out, line[i+1:])
				return out
			}
			out = append(out, line[i+1:i+end])
			i += end + 1
		case line[i] == '"':
			end := strings.IndexByte(line[i+1:], '"')
			if end < 0 {
				out = append(out, line[i+1:])
				return out
			}
			out = append(out, line[i+1:i+1+end])
			i += end + 2
		default:
			end := strings.IndexAny(line[i:], " \t\n")
			if end < 0 {
				out = append(out, line[i:])
				return out
			}
			out = append(out, line[i:i+end])
			i += end
		}
	}
	return out
}

// Name implements engine.Engine.
func (db *DB) Name() string { return "triplestore" }

// SurveyRow implements engine.Engine.
func (db *DB) SurveyRow() string { return "AllegroGraph" }

// Features implements engine.Engine.
func (db *DB) Features() engine.Features {
	return engine.Features{
		MainMemory: engine.Yes, ExternalMemory: engine.Yes, Indexes: engine.Yes,
		DDL: engine.Yes, DML: engine.Yes,
		QueryLanguageShipped: engine.Yes, QueryLanguage: engine.Partial,
		API: engine.Yes, GUI: engine.Yes, GraphicalQL: engine.Yes,
		SimpleGraphs: engine.Yes,
		NodeLabeled:  engine.Yes,
		Directed:     engine.Yes, EdgeLabeled: engine.Yes,
		ValueNodes: engine.Yes, SimpleRelations: engine.Yes,
		APIQueryFacility: engine.Yes, Retrieval: engine.Yes, Reasoning: engine.Yes, Analysis: engine.Yes,
	}
}

// Essentials implements engine.Engine: the triple surface composes node
// adjacency, k-neighborhood and aggregate summarization. Path utilities are
// not part of its query surface (Table VII row). Everything runs under ctx;
// k-neighborhood and the unlabelled aggregate run over a pinned snapshot.
func (db *DB) Essentials(ctx context.Context) engine.Essentials {
	es := engine.TraversalEssentials(ctx, db.Core, db.AcquireSnapshot)
	es.FixedLengthPaths, es.ShortestPath = nil, nil
	pinned := es.Summarization
	es.Summarization = func(kind algo.AggKind, label, prop string) (model.Value, error) {
		// In the triple model a "label" is a type statement, not a node
		// label: filter subjects by an outgoing type edge.
		if label == "" {
			return pinned(kind, "", prop)
		}
		typeTerm, ok := db.TermID(label)
		if !ok {
			if kind == algo.AggCount {
				return model.Int(0), nil
			}
			return model.Null(), nil
		}
		if err := ctx.Err(); err != nil {
			return model.Null(), err
		}
		agg := algo.NewAggregator(kind)
		var iterErr error
		err := db.Core.Nodes(func(n model.Node) bool {
			typed := false
			if err := db.Core.Neighbors(n.ID, model.Out, func(e model.Edge, far model.Node) bool {
				if e.Label == "type" && far.ID == typeTerm {
					typed = true
					return false
				}
				return true
			}); err != nil {
				iterErr = err
				return false
			}
			if !typed {
				return true
			}
			if kind == algo.AggCount {
				agg.Add(model.Int(1))
			} else {
				agg.Add(n.Props.Get(prop))
			}
			return true
		})
		if iterErr != nil {
			return model.Null(), iterErr
		}
		if err != nil {
			return model.Null(), err
		}
		return agg.Result(), nil
	}
	return es
}

// AcquireSnapshot implements engine.Concurrent over the store's
// copy-on-write views, in both the main-memory and kv-backed configurations.
func (db *DB) AcquireSnapshot() (model.Graph, model.ReleaseFunc, error) {
	return db.Core.AcquireView()
}

// LoadNode implements engine.Loader: property-graph nodes become terms; the
// label and properties become statements about the term.
func (db *DB) LoadNode(label string, props model.Properties) (model.NodeID, error) {
	name := fmt.Sprintf("_:n%d", db.Core.Order()+1)
	if v, ok := props.Get("name").AsString(); ok {
		name = v
	}
	id, err := db.Term(name)
	if err != nil {
		return 0, err
	}
	if label != "" {
		if err := db.AddTriple(name, "type", label); err != nil {
			return 0, err
		}
	}
	for _, k := range props.Keys() { // sorted: term ids must not follow map order
		if k == "name" {
			continue
		}
		if err := db.AddTriple(name, k, props[k].String()); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// LoadEdge implements engine.Loader: an edge becomes one statement.
func (db *DB) LoadEdge(label string, from, to model.NodeID, props model.Properties) (model.EdgeID, error) {
	s, err := db.termValue(from)
	if err != nil {
		return 0, err
	}
	o, err := db.termValue(to)
	if err != nil {
		return 0, err
	}
	// The id of the just-added or the pre-existing statement edge.
	eid, _, err := db.assert(s, label, o)
	return eid, err
}

var (
	_ engine.Engine       = (*DB)(nil)
	_ engine.Querier      = (*DB)(nil)
	_ engine.Concurrent   = (*DB)(nil)
	_ engine.Reasoner     = (*DB)(nil)
	_ engine.Loader       = (*DB)(nil)
	_ engine.CacheStatser = (*DB)(nil)
)
