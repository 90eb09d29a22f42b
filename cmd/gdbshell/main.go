// Command gdbshell is the interactive exploration surface over any engine —
// the repository's stand-in for the GUI facility the survey marks for the
// AllegroGraph and Sones archetypes (Gruff / WebShell).
//
// Usage:
//
//	gdbshell -engine neograph
//	> MATCH (a)-[:knows]->(b) RETURN b.name AS n
//	> :trace on
//	> :stats
//	> \draw 1
//	> :quit
//
// Lines starting with \ or : are shell commands; everything else goes to
// the engine's query language (for engines without one, the shell reports
// so).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"gdbm"
	"gdbm/internal/storage/vfs"
)

// shellFS is the filesystem \save and \load go through; routing it via
// vfs keeps the crash harness able to intercept every byte the tools
// write and satisfies the vfsonly invariant.
var shellFS = vfs.OSFS

func main() {
	name := flag.String("engine", "neograph", "engine to open (see gdbm.Engines())")
	dir := flag.String("dir", "", "data directory for disk-backed engines")
	flag.Parse()

	// Every session gets a metrics registry so :stats can show the
	// storage-tier counters; an idle registry costs nothing.
	reg := gdbm.NewRegistry()
	opts := gdbm.Options{Dir: *dir, Metrics: reg}
	e, err := gdbm.Open(*name, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdbshell:", err)
		os.Exit(1)
	}
	defer e.Close()

	fmt.Printf("gdbshell: %s (%s archetype). \\help for commands.\n", e.Name(), e.SurveyRow())
	if err := repl(os.Stdin, os.Stdout, e, reg); err != nil && err != io.EOF {
		fmt.Fprintln(os.Stderr, "gdbshell:", err)
		os.Exit(1)
	}
}

// shell is one REPL session's state: the engine, its metrics registry and
// the tracing toggle (:trace on|off).
type shell struct {
	e       gdbm.Engine
	reg     *gdbm.Registry
	tracing bool
}

func repl(in io.Reader, out io.Writer, e gdbm.Engine, reg *gdbm.Registry) error {
	sh := &shell{e: e, reg: reg}
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") || strings.HasPrefix(line, ":") {
			quit, err := sh.command(out, line)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
			}
			if quit {
				return nil
			}
			continue
		}
		q, ok := e.(gdbm.Querier)
		if !ok {
			fmt.Fprintf(out, "engine %s has no query language (API only, per its survey row); use \\stats, \\nodes, \\draw\n", e.Name())
			continue
		}
		sh.query(out, q, line)
	}
}

// query dispatches one statement, tracing it when :trace is on (a nil trace
// is the off path in internal/obs). The trace never changes the answer — it
// only adds a record line after the result.
func (sh *shell) query(out io.Writer, q gdbm.Querier, line string) {
	var tr *gdbm.Trace
	var before map[string]uint64
	if sh.tracing {
		tr, before = gdbm.NewTrace(line), sh.reg.Counters()
	}
	res, err := gdbm.QueryContext(gdbm.WithTrace(context.Background(), tr), q, line)
	tr.Finish()
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	printResult(out, res)
	if sh.tracing {
		for k, v := range sh.reg.Counters() {
			tr.Add(k, int64(v-before[k]))
		}
		fmt.Fprintln(out, tr.Record())
	}
}

func (sh *shell) command(out io.Writer, line string) (quit bool, err error) {
	e := sh.e
	fields := strings.Fields(line)
	// \cmd and :cmd are interchangeable.
	switch fields[0][1:] {
	case "quit", "q":
		return true, nil
	case "help":
		fmt.Fprintln(out, `commands (prefix with \ or :):
  \stats            graph order/size, degree statistics and metric counters
  \trace [on|off]   toggle per-query tracing (spans + counter deltas)
  \nodes [n]        list up to n nodes (default 10)
  \draw <id>        ASCII drawing of a node's neighborhood
  \save <file>      export the graph as GraphML
  \load <file>      import a GraphML file
  \reason           materialize rule inferences (reasoning engines)
  \features         the engine's survey feature profile (its table rows)
  \lang             the engine's query language name
  \quit             exit`)
		return false, nil
	case "lang":
		if q, ok := e.(gdbm.Querier); ok {
			fmt.Fprintln(out, q.LanguageName())
		} else {
			fmt.Fprintln(out, "(none — API only)")
		}
		return false, nil
	case "trace":
		if len(fields) > 1 {
			switch fields[1] {
			case "on":
				sh.tracing = true
			case "off":
				sh.tracing = false
			default:
				return false, fmt.Errorf("usage: \\trace [on|off]")
			}
		}
		if sh.tracing {
			fmt.Fprintln(out, "tracing on")
		} else {
			fmt.Fprintln(out, "tracing off")
		}
		return false, nil
	case "stats":
		shown := false
		if g, ok := e.(gdbm.GraphAPI); ok {
			fmt.Fprintf(out, "order=%d size=%d\n", g.Order(), g.Size())
			st, err := gdbm.Degrees(g, gdbm.Both)
			if err != nil {
				return false, err
			}
			fmt.Fprintf(out, "degree min=%d max=%d avg=%.2f\n", st.Min, st.Max, st.Avg)
			shown = true
		}
		if r := sh.reg.Render(); r != "" {
			fmt.Fprintln(out, r)
			shown = true
		}
		if !shown {
			return false, fmt.Errorf("engine exposes neither a binary graph API nor metrics")
		}
		return false, nil
	case "nodes":
		g, ok := e.(gdbm.GraphAPI)
		if !ok {
			return false, fmt.Errorf("engine does not expose a binary graph API")
		}
		limit := 10
		if len(fields) > 1 {
			limit, _ = strconv.Atoi(fields[1])
		}
		n := 0
		if err := g.Nodes(func(node gdbm.Node) bool {
			fmt.Fprintf(out, "  (%d:%s %s)\n", node.ID, node.Label, node.Props)
			n++
			return n < limit
		}); err != nil {
			return false, err
		}
		return false, nil
	case "features":
		f := e.Features()
		fmt.Fprintf(out, "%s reproduces the %q row; features: %+v\n", e.Name(), e.SurveyRow(), f)
		return false, nil
	case "save":
		if len(fields) < 2 {
			return false, fmt.Errorf("usage: \\save <file>")
		}
		g, ok := e.(gdbm.GraphAPI)
		if !ok {
			return false, fmt.Errorf("engine does not expose a binary graph API")
		}
		f, w, err := vfs.Create(shellFS, fields[1])
		if err != nil {
			return false, err
		}
		defer f.Close()
		if err := gdbm.WriteGraphML(w, g); err != nil {
			return false, err
		}
		fmt.Fprintf(out, "wrote %s\n", fields[1])
		return false, nil
	case "load":
		if len(fields) < 2 {
			return false, fmt.Errorf("usage: \\load <file>")
		}
		l, ok := e.(gdbm.Loader)
		if !ok {
			return false, fmt.Errorf("engine has no loader surface")
		}
		f, err := shellFS.OpenFile(fields[1])
		if err != nil {
			return false, err
		}
		defer f.Close()
		r, err := vfs.NewReader(f)
		if err != nil {
			return false, err
		}
		nodes, edges, err := gdbm.ReadGraphML(r, l)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(out, "loaded %d nodes, %d edges\n", nodes, edges)
		return false, nil
	case "reason":
		r, ok := e.(gdbm.Reasoner)
		if !ok {
			return false, fmt.Errorf("engine %s has no reasoning facility (Table V)", e.Name())
		}
		n, err := r.Materialize()
		if err != nil {
			return false, err
		}
		fmt.Fprintf(out, "materialized %d inferred facts\n", n)
		return false, nil
	case "draw":
		if len(fields) < 2 {
			return false, fmt.Errorf("usage: \\draw <node-id>")
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return false, err
		}
		g, ok := e.(gdbm.GraphAPI)
		if !ok {
			return false, fmt.Errorf("engine does not expose a binary graph API")
		}
		return false, draw(out, g, gdbm.NodeID(id))
	}
	return false, fmt.Errorf("unknown command %s (try \\help)", fields[0])
}

// draw renders a node and its neighborhood as ASCII art — the "graphical"
// part of the shell.
func draw(out io.Writer, g gdbm.GraphAPI, id gdbm.NodeID) error {
	center, err := g.Node(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "        [%d:%s]\n", center.ID, center.Label)
	var lines []string
	if err := g.Neighbors(id, gdbm.Out, func(e gdbm.Edge, n gdbm.Node) bool {
		lines = append(lines, fmt.Sprintf("          |--%s--> [%d:%s]", e.Label, n.ID, n.Label))
		return true
	}); err != nil {
		return err
	}
	if err := g.Neighbors(id, gdbm.In, func(e gdbm.Edge, n gdbm.Node) bool {
		lines = append(lines, fmt.Sprintf("          <--%s--| [%d:%s]", e.Label, n.ID, n.Label))
		return true
	}); err != nil {
		return err
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	if len(lines) == 0 {
		fmt.Fprintln(out, "          (isolated)")
	}
	return nil
}

func printResult(out io.Writer, res *gdbm.Result) {
	if len(res.Cols) == 0 {
		fmt.Fprintln(out, "ok")
		return
	}
	fmt.Fprintln(out, strings.Join(res.Cols, " | "))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Fprintln(out, strings.Join(parts, " | "))
	}
	fmt.Fprintf(out, "(%d rows)\n", len(res.Rows))
}
