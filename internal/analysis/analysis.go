// Package analysis is the repository's own go/analysis-shaped framework:
// an Analyzer/Pass vocabulary, a diagnostic type, and the //gdbvet:allow
// suppression protocol shared by every gdbvet analyzer.
//
// The x/tools analysis framework is deliberately not used — the module is
// dependency-free — so this package reimplements the minimal surface the
// invariant analyzers need on top of go/ast and go/types. Package load
// type-checks whole packages via `go list -export`; cmd/gdbvet runs every
// analyzer over everything it loaded in one pass.
//
// # Suppression
//
// A finding can be silenced only by an explicit, justified annotation on
// the offending line or the line directly above it:
//
//	f, err := os.Open(p) //gdbvet:allow(vfsonly): boundary code, see doc.go
//
// The justification after the colon is mandatory: a directive without one
// suppresses nothing and is itself reported. A directive that suppresses
// nothing is reported as unused, so stale annotations cannot linger.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //gdbvet:allow(name) directives.
	Name string
	// Doc is the one-paragraph description printed by gdbvet -help.
	Doc string
	// AppliesTo filters packages by logical import path; nil runs the
	// analyzer everywhere.
	AppliesTo func(pkgPath string) bool
	// Run reports the package's violations through pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one reported violation, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// PkgPath is the package's logical import path. Tests may map a
	// testdata directory to a virtual path so path-scoped analyzers see
	// the package where it pretends to live.
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	// Summaries holds the cross-package function summaries of every
	// package in the load this one came from. May be nil; the accessor
	// methods on Summaries are nil-safe.
	Summaries *Summaries

	allows []*allowDirective
	diags  []Diagnostic
}

// Reportf records a violation at pos unless a justified
// //gdbvet:allow(<analyzer>) directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportPosf(p.Fset.Position(pos), format, args...)
}

// ReportPosf is Reportf for findings whose position was resolved
// earlier (the summary-driven analyzers carry token.Position through
// the cross-package lock graph).
func (p *Pass) ReportPosf(posn token.Position, format string, args ...any) {
	d := Diagnostic{
		Pos:      posn,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	for _, a := range p.allows {
		if a.covers(posn) && a.reason != "" {
			a.used = true
			return
		}
	}
	p.diags = append(p.diags, d)
}

// allowDirective is one parsed //gdbvet:allow comment.
type allowDirective struct {
	pos    token.Position // of the comment itself
	names  []string
	reason string
	used   bool
}

// covers reports whether the directive applies to a finding at posn: the
// comment sits on the same line (trailing) or the line directly above.
func (d *allowDirective) covers(posn token.Position) bool {
	return d.pos.Filename == posn.Filename &&
		(d.pos.Line == posn.Line || d.pos.Line == posn.Line-1)
}

var allowRx = regexp.MustCompile(`^//gdbvet:allow\(([A-Za-z0-9_,]+)\)(?::\s*(.*))?$`)

// parseAllows extracts the directives naming the analyzer from the files'
// comments.
func parseAllows(fset *token.FileSet, files []*ast.File, analyzer string) []*allowDirective {
	var out []*allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				// Tolerate a trailing `// ...` segment so analysistest
				// fixtures can put `// want` expectations on the
				// directive's own line.
				if i := strings.Index(text, " // "); i >= 0 {
					text = strings.TrimRight(text[:i], " ")
				}
				m := allowRx.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				names := strings.Split(m[1], ",")
				applies := false
				for _, n := range names {
					if n == analyzer {
						applies = true
					}
				}
				if !applies {
					continue
				}
				out = append(out, &allowDirective{
					pos:    fset.Position(c.Pos()),
					names:  names,
					reason: strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return out
}

// Target is the package surface an analyzer runs over; package load
// produces it and analysistest fakes it.
type Target struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	// Summaries is the cross-package summary set of the load; drivers
	// attach it after ComputeSummaries over every target they loaded.
	Summaries *Summaries
}

// AllowRecord is one //gdbvet:allow directive as seen by one analyzer,
// for gdbvet -audit.
type AllowRecord struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	// Used reports whether the directive suppressed at least one
	// finding of this analyzer in this run.
	Used bool
}

// Result is the full outcome of one analyzer over one package.
type Result struct {
	// Diags are the active findings, directive-hygiene findings
	// included, sorted by position.
	Diags []Diagnostic
	// Allows records every directive naming this analyzer.
	Allows []AllowRecord
}

// Run executes one analyzer over one package and returns its diagnostics,
// including directive-hygiene findings (missing justification, unused
// directive), sorted by position.
func Run(a *Analyzer, t *Target) ([]Diagnostic, error) {
	res, err := RunAll(a, t)
	return res.Diags, err
}

// RunAll is Run plus the directive records, for gdbvet -audit and
// -budget.
func RunAll(a *Analyzer, t *Target) (Result, error) {
	if a.AppliesTo != nil && !a.AppliesTo(t.PkgPath) {
		return Result{}, nil
	}
	pass := &Pass{
		Analyzer:  a,
		PkgPath:   t.PkgPath,
		Fset:      t.Fset,
		Files:     t.Files,
		Pkg:       t.Pkg,
		Info:      t.Info,
		Summaries: t.Summaries,
		allows:    parseAllows(t.Fset, t.Files, a.Name),
	}
	if err := a.Run(pass); err != nil {
		return Result{}, fmt.Errorf("%s: %s: %w", a.Name, t.PkgPath, err)
	}
	var res Result
	for _, d := range pass.allows {
		switch {
		case d.reason == "":
			pass.diags = append(pass.diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: a.Name,
				Message:  "gdbvet:allow directive is missing its mandatory justification (write //gdbvet:allow(" + a.Name + "): <why>)",
			})
		case !d.used:
			pass.diags = append(pass.diags, Diagnostic{
				Pos:      d.pos,
				Analyzer: a.Name,
				Message:  "unused gdbvet:allow(" + a.Name + ") directive suppresses nothing; delete it",
			})
		}
		res.Allows = append(res.Allows, AllowRecord{
			Pos:      d.pos,
			Analyzer: a.Name,
			Reason:   d.reason,
			Used:     d.used,
		})
	}
	Sort(pass.diags)
	res.Diags = pass.diags
	return res, nil
}

// Sort orders diagnostics by file, line, column, analyzer.
func Sort(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// PathIsUnder reports whether pkgPath is pkg or nested below it —
// the import-path analogue of filepath prefix matching.
func PathIsUnder(pkgPath, pkg string) bool {
	return pkgPath == pkg || strings.HasPrefix(pkgPath, pkg+"/")
}
