package capability_test

import (
	"path"
	"testing"

	"gdbm/internal/engine"
	"gdbm/internal/engine/capability"

	_ "gdbm" // register every engine
)

// implementedBy probes which capability interfaces the live engine value
// satisfies, whether declared on the engine type or promoted through an
// embedded field.
func implementedBy(e engine.Engine) map[capability.Capability]bool {
	caps := map[capability.Capability]bool{}
	if _, ok := e.(engine.Loader); ok {
		caps[capability.Loader] = true
	}
	if _, ok := e.(engine.GraphAPI); ok {
		caps[capability.GraphAPI] = true
	}
	if _, ok := e.(engine.HyperAPI); ok {
		caps[capability.HyperAPI] = true
	}
	if _, ok := e.(engine.Querier); ok {
		caps[capability.Querier] = true
	}
	if _, ok := e.(engine.SchemaHolder); ok {
		caps[capability.SchemaHolder] = true
	}
	if _, ok := e.(engine.Reasoner); ok {
		caps[capability.Reasoner] = true
	}
	if _, ok := e.(engine.Transactional); ok {
		caps[capability.Transactional] = true
	}
	if _, ok := e.(engine.Persistent); ok {
		caps[capability.Persistent] = true
	}
	if _, ok := e.(engine.Concurrent); ok {
		caps[capability.Concurrent] = true
	}
	return caps
}

func openEngine(t *testing.T, name string) engine.Engine {
	t.Helper()
	e, err := engine.Open(name, engine.Options{Dir: t.TempDir()})
	if err != nil {
		// Main-memory-only archetypes reject a data directory.
		e, err = engine.Open(name, engine.Options{})
	}
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	return e
}

// TestRegistryCoversEveryEngine pins the registry and the engine registry
// to each other: every registered engine has a profile and every
// non-library profile corresponds to a registered engine.
func TestRegistryCoversEveryEngine(t *testing.T) {
	byName := map[string]string{} // engine name -> package path
	for _, p := range capability.Rows() {
		byName[path.Base(p)] = p
	}
	names := engine.Names()
	if len(names) != len(byName) {
		t.Errorf("registry has %d engine profiles, engine registry has %d engines", len(byName), len(names))
	}
	for _, n := range names {
		if _, ok := byName[n]; !ok {
			t.Errorf("engine %s registered but missing from capability.Profiles", n)
		}
	}
}

// TestImplementedWithinAllowed opens every engine and checks that the
// capability interfaces it actually satisfies stay inside its allowance,
// and that the harness-required Loader surface is present.
func TestImplementedWithinAllowed(t *testing.T) {
	for _, pkg := range capability.Rows() {
		name := path.Base(pkg)
		prof := capability.Profiles[pkg]
		e := openEngine(t, name)
		caps := implementedBy(e)
		if !caps[capability.Loader] {
			t.Errorf("%s: every engine must implement engine.Loader (harness ingest surface)", name)
		}
		for c := range caps {
			if !prof.Allows(c) {
				t.Errorf("%s: implements engine.%s but the %q profile forbids it", name, c, prof.Row)
			}
		}
		if e.SurveyRow() != prof.Row {
			t.Errorf("%s: SurveyRow() = %q, registry says %q", name, e.SurveyRow(), prof.Row)
		}
		if err := e.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
}

// TestDirRequirementsMatchProfiles pins the DiskOnly flag to observable
// construction behavior, so harnesses can trust capability.NeedsDir instead
// of hard-coding engine names: disk-only archetypes must refuse to open
// without a data directory, everything else must open without one, and
// profiles that forbid Persistent must reject a directory.
func TestDirRequirementsMatchProfiles(t *testing.T) {
	for _, pkg := range capability.Rows() {
		name := path.Base(pkg)
		prof := capability.Profiles[pkg]
		if prof.DiskOnly && !prof.Allows(capability.Persistent) {
			t.Errorf("%s: DiskOnly profile must allow Persistent", name)
		}
		if p, ok := capability.ForEngine(name); !ok || p.Row != prof.Row {
			t.Errorf("%s: ForEngine lookup failed or disagrees with Profiles", name)
		}
		if capability.NeedsDir(name) != prof.DiskOnly {
			t.Errorf("%s: NeedsDir = %v, profile DiskOnly = %v", name, capability.NeedsDir(name), prof.DiskOnly)
		}
		if capability.AllowsDir(name) != prof.Allows(capability.Persistent) {
			t.Errorf("%s: AllowsDir disagrees with the Persistent allowance", name)
		}
		e, err := engine.Open(name, engine.Options{})
		if prof.DiskOnly {
			if err == nil {
				e.Close()
				t.Errorf("%s: DiskOnly but opens without a data directory", name)
			}
		} else {
			if err != nil {
				t.Errorf("%s: not DiskOnly but fails to open without a directory: %v", name, err)
			} else {
				e.Close()
			}
		}
		e, err = engine.Open(name, engine.Options{Dir: t.TempDir()})
		if prof.Allows(capability.Persistent) {
			if err != nil {
				t.Errorf("%s: profile allows Persistent but a data directory is rejected: %v", name, err)
			} else {
				e.Close()
			}
		} else if err == nil {
			e.Close()
			t.Errorf("%s: profile forbids Persistent but a data directory is accepted", name)
		}
	}
}

// TestConcurrentSnapshotContract exercises the read-concurrency surface of
// every engine whose profile allows Concurrent: AcquireSnapshot must return
// a usable view and an idempotent release.
func TestConcurrentSnapshotContract(t *testing.T) {
	for _, pkg := range capability.Rows() {
		name := path.Base(pkg)
		prof := capability.Profiles[pkg]
		if !prof.Allows(capability.Concurrent) {
			continue
		}
		e := openEngine(t, name)
		c, ok := e.(engine.Concurrent)
		if !ok {
			t.Errorf("%s: profile allows Concurrent but engine.Concurrent is not implemented", name)
			e.Close()
			continue
		}
		if l, ok := e.(engine.Loader); ok {
			if _, err := l.LoadNode("thing", nil); err != nil {
				t.Fatalf("%s: seed: %v", name, err)
			}
		}
		g, release, err := c.AcquireSnapshot()
		if err != nil {
			t.Errorf("%s: AcquireSnapshot: %v", name, err)
			e.Close()
			continue
		}
		if g.Order() < 1 {
			t.Errorf("%s: snapshot misses the seeded node", name)
		}
		release()
		release() // must be a no-op the second time
		if err := e.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
}

// TestAllowanceMatchesFeatures cross-checks the hand-written allowance
// against the engine's declared Features wherever the survey's tables give
// a machine-checkable predicate, so neither side can drift alone.
func TestAllowanceMatchesFeatures(t *testing.T) {
	for _, pkg := range capability.Rows() {
		name := path.Base(pkg)
		prof := capability.Profiles[pkg]
		e := openEngine(t, name)
		f := e.Features()
		no := engine.No

		type rule struct {
			cap  capability.Capability
			want bool
			why  string
		}
		rules := []rule{
			{capability.Querier, f.QueryLanguageShipped != no || f.QueryLanguage != no,
				"Tables II/V query language columns"},
			{capability.Reasoner, f.Reasoning != no, "Table V reasoning column"},
			{capability.Persistent, f.ExternalMemory != no || f.BackendStorage != no,
				"Table I external memory / backend storage"},
			{capability.HyperAPI, f.Hypergraphs != no, "Table III hypergraphs"},
			{capability.SchemaHolder,
				f.DDL != no || f.SchemaNodeTypes != no || f.SchemaPropertyTypes != no ||
					f.SchemaRelationTypes != no || f.TypesChecking != no,
				"Table II DDL / Table IV schema rows / Table VI types checking"},
		}
		for _, r := range rules {
			if got := prof.Allows(r.cap); got != r.want {
				t.Errorf("%s: profile allows %s=%v but features say %v (%s)", name, r.cap, got, r.want, r.why)
			}
		}
		if prof.Allows(capability.GraphAPI) && f.API == no {
			t.Errorf("%s: GraphAPI allowed but Table II marks no API", name)
		}
		if err := e.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
}
