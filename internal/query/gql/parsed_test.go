package gql

import (
	"context"
	"testing"
)

// TestParsedHandOffAgrees runs the metamorphic corpus on both stores with
// and without a statement handed over by WithParsed: every answer is the
// same multiset of rows.
func TestParsedHandOffAgrees(t *testing.T) {
	plain, indexed := metamorphicDBs()
	for _, db := range []Mutator{plain, indexed} {
		for _, q := range metamorphicQueries {
			want, err := execCollect(context.Background(), q, db)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := execCollect(WithParsed(context.Background(), q, st), q, db)
			if err != nil {
				t.Fatal(err)
			}
			if canon(got) != canon(want) {
				t.Errorf("%T %s:\n  handed off: %s\n  parsed:     %s", db, q, canon(got), canon(want))
			}
		}
	}
}

// TestParsedHandOffWrites applies the same writes to two fresh stores, one
// with each statement handed over, and requires the same counters and the
// same graph afterwards.
func TestParsedHandOffWrites(t *testing.T) {
	writes := []string{
		`CREATE (a:Person {name: 'ada', age: 36})`,
		`CREATE (b:Person {name: 'bob', age: 40})`,
		`MATCH (a:Person {name: 'ada'}), (b:Person {name: 'bob'}) CREATE (a)-[:knows]->(b)`,
		`MATCH (a:Person) WHERE a.age > 38 SET a.age = a.age + 1`,
		`MATCH (a:Person {name: 'ada'}) DETACH DELETE a`,
	}
	const read = `MATCH (p:Person) RETURN p.name AS name, p.age AS age ORDER BY name`
	plainDB, handedDB := newDB(t), newDB(t)
	for _, w := range writes {
		want, err := execCollect(context.Background(), w, plainDB)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Parse(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execCollect(WithParsed(context.Background(), w, st), w, handedDB)
		if err != nil {
			t.Fatal(err)
		}
		if canon(got) != canon(want) {
			t.Errorf("%s: handed off %s, parsed %s", w, canon(got), canon(want))
		}
	}
	want, err := execCollect(context.Background(), read, plainDB)
	if err != nil {
		t.Fatal(err)
	}
	got, err := execCollect(context.Background(), read, handedDB)
	if err != nil {
		t.Fatal(err)
	}
	if canon(got) != canon(want) {
		t.Errorf("graphs differ after the writes: handed off %s, parsed %s", canon(got), canon(want))
	}
}

// TestWithParsedOnlyForItsInput is the vacuity guard of the twins above: a
// handed-over statement really is what runs for its own input (here it is
// deliberately another query's parse), and any other input is parsed.
func TestWithParsedOnlyForItsInput(t *testing.T) {
	db, _ := metamorphicDBs()
	qa, qb := metamorphicQueries[0], metamorphicQueries[2]
	answer := func(ctx context.Context, q string) string {
		t.Helper()
		r, err := execCollect(ctx, q, db)
		if err != nil {
			t.Fatal(err)
		}
		return canon(r)
	}
	a, b := answer(context.Background(), qa), answer(context.Background(), qb)
	if a == b {
		t.Fatal("the two queries must answer differently")
	}
	stB, err := Parse(qb)
	if err != nil {
		t.Fatal(err)
	}
	if got := answer(WithParsed(context.Background(), qa, stB), qa); got != b {
		t.Errorf("input paired with a statement: ran %s, want the handed statement's %s", got, b)
	}
	if got := answer(WithParsed(context.Background(), qa+" ", stB), qa); got != a {
		t.Errorf("input differing from the paired one: ran %s, want its own parse %s", got, a)
	}
}
