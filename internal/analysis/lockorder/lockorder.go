// Package lockorder checks the program-wide lock-acquisition graph
// built by the cross-package summaries. Every sync.Mutex/RWMutex
// acquisition is abstracted to a lock class — the defining type plus
// the field name, or the package plus the variable name — and every
// "B acquired while A held" observation becomes an edge, including
// edges discovered through calls (a function called with A held that
// transitively acquires B).
//
// Three findings come out of the graph:
//
//   - A cycle between distinct classes: some code acquires B while
//     holding A and other code acquires A while holding B. Two such
//     goroutines deadlock. The edge is reported wherever it was
//     observed. Cross-package cycles are visible only because gdbvet
//     computes the summaries over every package it loaded at once.
//
//   - A definite re-entry: the same lock expression acquired twice on
//     one path (Lock-then-Lock self-deadlocks; RLock-then-Lock is the
//     upgrade deadlock — sync.RWMutex blocks the writer behind the
//     held read lock).
//
//   - RLock-then-write-call misuse: a call made with a read lock held
//     that transitively acquires the write lock of the same class.
//     This is the server's gql-write classification bug class — a
//     query admitted under the read lock reaching a mutating engine
//     path. The class abstraction cannot distinguish instances, so
//     this one is reported as "may"; same-class write-while-write via
//     a call is deliberately not reported (parent/child instances of
//     one type would drown it in false positives).
package lockorder

import (
	"go/token"
	"sort"

	"gdbm/internal/analysis"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "lock acquisitions must be consistently ordered program-wide; re-entry on " +
		"one expression and RLock-then-write-call upgrades are deadlocks",
	Run: run,
}

func run(pass *analysis.Pass) error {
	edges := pass.Summaries.GlobalLockEdges()
	if len(edges) == 0 {
		return nil
	}

	// Only findings positioned in this package's files are reported
	// here; every other package sees the same global graph and reports
	// its own slice of it.
	inPkg := map[string]bool{}
	for _, f := range pass.Files {
		inPkg[pass.Fset.Position(f.Pos()).Filename] = true
	}

	seen := map[string]bool{}
	report := func(pos token.Position, key, format string, args ...any) {
		if !inPkg[pos.Filename] || seen[key] {
			return
		}
		seen[key] = true
		pass.ReportPosf(pos, format, args...)
	}

	// Distinct-class adjacency for the cycle check.
	adj := map[string]map[string]bool{}
	for _, e := range edges {
		if e.From.Class != e.To.Class {
			if adj[e.From.Class] == nil {
				adj[e.From.Class] = map[string]bool{}
			}
			adj[e.From.Class][e.To.Class] = true
		}
	}
	// reaches reports whether to is reachable from from.
	reaches := func(from, to string) bool {
		stack := []string{from}
		visited := map[string]bool{}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if visited[n] {
				continue
			}
			visited[n] = true
			next := make([]string, 0, len(adj[n]))
			for m := range adj[n] {
				next = append(next, m)
			}
			sort.Strings(next)
			stack = append(stack, next...)
		}
		return false
	}

	for _, e := range edges {
		switch {
		case e.From.Class == e.To.Class && e.SameExpr && e.To.Write && e.From.Write:
			report(e.Pos, "reentry|"+e.Pos.String(),
				"%s.Lock() while %s is already locked on this path; sync.Mutex is not reentrant",
				e.To.Expr, e.From.Expr)
		case e.From.Class == e.To.Class && e.SameExpr && e.To.Write && !e.From.Write:
			report(e.Pos, "upgrade|"+e.Pos.String(),
				"%s.Lock() while its read lock is held on this path; RLock-then-Lock deadlocks behind a waiting writer",
				e.To.Expr)
		case e.From.Class == e.To.Class && e.Via != "" && e.To.Write && !e.From.Write:
			report(e.Pos, "upgradecall|"+e.Pos.String()+"|"+e.Via,
				"call to %s may acquire the write lock on %s while its read lock is held",
				e.Via, e.To.Class)
		case e.From.Class != e.To.Class && reaches(e.To.Class, e.From.Class):
			via := ""
			if e.Via != "" {
				via = " (via " + e.Via + ")"
			}
			report(e.Pos, "cycle|"+e.From.Class+"|"+e.To.Class,
				"inconsistent lock order: %s is acquired while %s is held%s, but the opposite order also occurs; two goroutines taking the locks in opposite orders deadlock",
				e.To.Class, e.From.Class, via)
		}
	}
	return nil
}
