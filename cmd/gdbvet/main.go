// Command gdbvet is the multichecker for the repository's invariant
// analyzers:
//
//	vfsonly         file I/O in storage/engines/cmd must route through vfs.FS
//	syncerr         Sync/Append/Commit/Flush errors must be checked
//	lockdiscipline  no Lock without a same-function Unlock
//	itererr         iteration errors must be checked on every path (CFG dataflow)
//	closeleak       constructed closeables must be closed or escape on every path
//	lockorder       program-wide lock ordering: cycles, re-entry, RLock upgrades
//
// It loads the named packages itself and computes cross-package function
// summaries over everything it loaded, so the summary-driven analyzers
// (itererr, closeleak, lockorder) see the whole module at once; findings
// go to stderr and the exit status is 2 when there are any. Suppressions
// use //gdbvet:allow(<analyzer>): <justification> on or above the line.
//
//	gdbvet ./...                         # report findings
//	gdbvet -audit ./...                  # list every suppression with its justification
//	gdbvet -budget .gdbvet-budget ./...  # fail if per-analyzer suppressions grow
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"gdbm/internal/analysis"
	"gdbm/internal/analysis/closeleak"
	"gdbm/internal/analysis/itererr"
	"gdbm/internal/analysis/load"
	"gdbm/internal/analysis/lockdiscipline"
	"gdbm/internal/analysis/lockorder"
	"gdbm/internal/analysis/syncerr"
	"gdbm/internal/analysis/vfsonly"
)

// analyzers is the gdbvet suite; order fixes report order per position tie.
var analyzers = []*analysis.Analyzer{
	vfsonly.Analyzer,
	syncerr.Analyzer,
	lockdiscipline.Analyzer,
	itererr.Analyzer,
	closeleak.Analyzer,
	lockorder.Analyzer,
}

func main() {
	asPath := flag.String("as", "", "treat the (single) loaded package as this import path (testing aid)")
	audit := flag.Bool("audit", false, "list every //gdbvet:allow directive with its justification")
	budgetFile := flag.String("budget", "", "compare per-analyzer suppression counts against this budget `file` and fail on growth")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gdbvet [-audit] [-budget file] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(run(flag.Args(), *asPath, *audit, *budgetFile))
}

// run loads the patterns, computes module-wide summaries, and runs every
// analyzer.
func run(patterns []string, asPath string, audit bool, budgetFile string) int {
	targets, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdbvet:", err)
		return 1
	}
	if asPath != "" {
		if len(targets) != 1 {
			fmt.Fprintf(os.Stderr, "gdbvet: -as needs exactly one package, got %d\n", len(targets))
			return 1
		}
		targets[0].PkgPath = asPath
	}
	summaries := analysis.ComputeSummaries(targets)
	for _, t := range targets {
		t.Summaries = summaries
	}

	var active []analysis.Diagnostic
	var allows []analysis.AllowRecord
	for _, t := range targets {
		for _, a := range analyzers {
			res, err := analysis.RunAll(a, t)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gdbvet:", err)
				return 1
			}
			active = append(active, res.Diags...)
			allows = append(allows, res.Allows...)
		}
	}
	analysis.Sort(active)

	code := 0
	if audit {
		if fail := printAudit(allows); fail {
			code = 2
		}
	} else {
		for _, d := range active {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if budgetFile != "" {
		if fail := checkBudget(budgetFile, allows); fail {
			code = 2
		}
	}
	if len(active) > 0 {
		code = 2
	}
	return code
}

// printAudit lists every //gdbvet:allow directive with its justification
// and reports whether any directive is unjustified or stale.
func printAudit(allows []analysis.AllowRecord) (fail bool) {
	sort.Slice(allows, func(i, j int) bool {
		a, b := allows[i], allows[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	fmt.Printf("gdbvet audit: %d suppression directive(s)\n", len(allows))
	for _, a := range allows {
		status := "used"
		switch {
		case a.Reason == "":
			status = "UNJUSTIFIED"
			fail = true
		case !a.Used:
			status = "STALE"
			fail = true
		}
		fmt.Printf("  %s:%d: allow(%s) [%s] %s\n", a.Pos.Filename, a.Pos.Line, a.Analyzer, status, a.Reason)
	}
	return fail
}

// checkBudget compares the per-analyzer suppression counts against the
// checked-in budget file (lines of `analyzer count`, # comments). More
// suppressions than budgeted fails: a new suppression must be paid for
// by raising the budget in the same change, which is the review hook. A
// line naming an analyzer the suite does not have fails too, so a budget
// cannot outlive its analyzer.
func checkBudget(path string, allows []analysis.AllowRecord) (fail bool) {
	//gdbvet:allow(vfsonly): the lint budget ledger is repo metadata, not database I/O
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdbvet budget:", err)
		return true
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	budget := map[string]int{}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			fmt.Fprintf(os.Stderr, "gdbvet budget: %s:%d: want `analyzer count`, got %q\n", path, ln+1, line)
			return true
		}
		if !slices.Contains(names, fields[0]) {
			fmt.Fprintf(os.Stderr, "gdbvet budget: %s:%d: no analyzer named %q; delete the line\n", path, ln+1, fields[0])
			return true
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "gdbvet budget: %s:%d: %v\n", path, ln+1, err)
			return true
		}
		budget[fields[0]] = n
	}

	counts := map[string]int{}
	for _, a := range allows {
		counts[a.Analyzer]++
	}
	fmt.Printf("gdbvet budget: suppressions per analyzer (have/allowed)\n")
	for _, name := range names {
		have, allowed := counts[name], budget[name]
		marker := ""
		switch {
		case have > allowed:
			marker = "  OVER BUDGET: justify the new suppression and raise the budget in " + path
			fail = true
		case have < allowed:
			marker = "  (budget can be ratcheted down)"
		}
		fmt.Printf("  %-15s %d/%d%s\n", name, have, allowed, marker)
	}
	return fail
}
