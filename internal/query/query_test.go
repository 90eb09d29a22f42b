package query

import (
	"strings"
	"testing"

	"gdbm/internal/model"
)

func TestLexerBasics(t *testing.T) {
	l := NewLexer(`MATCH (a:Person {name: 'ada', age: 36}) WHERE a.age >= 30 RETURN a.name`)
	var kinds []TokKind
	var texts []string
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "MATCH ( a : Person { name : ada , age : 36 } )") {
		t.Errorf("tokens = %q", joined)
	}
	// >= lexed as one token.
	found := false
	for i, tx := range texts {
		if tx == ">=" && kinds[i] == TokPunct {
			found = true
		}
	}
	if !found {
		t.Error(">= not lexed as multipunct")
	}
}

func TestLexerStringsAndEscapes(t *testing.T) {
	l := NewLexer(`"hello\nworld" 'it\'s'`)
	t1, _ := l.Next()
	if t1.Kind != TokString || t1.Text != "hello\nworld" {
		t.Errorf("t1 = %+v", t1)
	}
	t2, _ := l.Next()
	if t2.Kind != TokString || t2.Text != "it's" {
		t.Errorf("t2 = %+v", t2)
	}
	// Unterminated.
	l2 := NewLexer(`"abc`)
	if _, err := l2.Next(); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestLexerNumbers(t *testing.T) {
	l := NewLexer(`42 3.25 7.`)
	t1, _ := l.Next()
	if t1.Kind != TokNumber || t1.Text != "42" {
		t.Errorf("t1 = %+v", t1)
	}
	t2, _ := l.Next()
	if t2.Kind != TokNumber || t2.Text != "3.25" {
		t.Errorf("t2 = %+v", t2)
	}
	// "7." lexes as number 7 then punct '.'
	t3, _ := l.Next()
	t4, _ := l.Next()
	if t3.Text != "7" || t4.Text != "." {
		t.Errorf("t3=%+v t4=%+v", t3, t4)
	}
}

func TestLexerIRIMode(t *testing.T) {
	l := NewLexer(`?x <http://example.org/name> "ada"`)
	l.IRIMode = true
	t1, _ := l.Next()
	if t1.Kind != TokVar || t1.Text != "x" {
		t.Errorf("t1 = %+v", t1)
	}
	t2, _ := l.Next()
	if t2.Kind != TokIRI || t2.Text != "http://example.org/name" {
		t.Errorf("t2 = %+v", t2)
	}
	// Errors: empty var, unterminated IRI.
	l3 := NewLexer(`? x`)
	l3.IRIMode = true
	if _, err := l3.Next(); err == nil {
		t.Error("empty var should fail")
	}
	l4 := NewLexer(`<abc`)
	l4.IRIMode = true
	if _, err := l4.Next(); err == nil {
		t.Error("unterminated IRI should fail")
	}
}

func TestAcceptExpectHelpers(t *testing.T) {
	l := NewLexer(`RETURN ( )`)
	if !l.AcceptIdent("return") {
		t.Error("case-insensitive accept failed")
	}
	if err := l.ExpectPunct("("); err != nil {
		t.Error(err)
	}
	if err := l.ExpectPunct("{"); err == nil {
		t.Error("wrong punct should fail")
	}
}

func evalStr(t *testing.T, expr string, row Row) model.Value {
	t.Helper()
	e, err := ParseExprString(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	v, err := e.Eval(row)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func TestExprArithmetic(t *testing.T) {
	cases := map[string]model.Value{
		"1 + 2":             model.Int(3),
		"10 - 4":            model.Int(6),
		"3 * 4":             model.Int(12),
		"10 / 4":            model.Float(2.5),
		"1 + 2 * 3":         model.Int(7),
		"(1 + 2) * 3":       model.Int(9),
		"-5 + 2":            model.Int(-3),
		"1.5 + 1":           model.Float(2.5),
		"'a' + 'b'":         model.Str("ab"),
		"'n=' + 42":         model.Str("n=42"),
		"abs(-7)":           model.Int(7),
		"abs(-1.5)":         model.Float(1.5),
		"length('hello')":   model.Int(5),
		"lower('ABC')":      model.Str("abc"),
		"upper('abc')":      model.Str("ABC"),
		"coalesce(null, 3)": model.Int(3),
	}
	for expr, want := range cases {
		if got := evalStr(t, expr, Row{}); !got.Equal(want) {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestExprComparisonsAndBool(t *testing.T) {
	cases := map[string]bool{
		"1 < 2":                   true,
		"2 <= 2":                  true,
		"3 > 4":                   false,
		"4 >= 4":                  true,
		"1 = 1":                   true,
		"1 <> 2":                  true,
		"1 != 1":                  false,
		"'a' < 'b'":               true,
		"true and false":          false,
		"true or false":           true,
		"not false":               true,
		"1 < 2 and 2 < 3":         true,
		"1 > 2 or 3 > 2":          true,
		"not (1 = 2)":             true,
		"true and true and false": false,
	}
	for expr, want := range cases {
		v := evalStr(t, expr, Row{})
		if b, ok := v.AsBool(); !ok || b != want {
			t.Errorf("%s = %v, want %v", expr, v, want)
		}
	}
}

func TestExprDivisionByZero(t *testing.T) {
	e, _ := ParseExprString("1 / 0")
	if _, err := e.Eval(Row{}); err == nil {
		t.Error("division by zero should fail")
	}
}

func TestExprVarsAndProps(t *testing.T) {
	sc := &Scope{}
	a, e, v := sc.Add("a"), sc.Add("e"), sc.Add("v")
	row := make(Row, len(sc.Names))
	row[a] = NodeEntry(model.Node{ID: 7, Label: "P", Props: model.Props("name", "ada", "age", 36)})
	row[e] = EdgeEntry(model.Edge{ID: 3, Label: "knows", Props: model.Props("w", 0.5)})
	row[v] = ValueEntry(model.Int(5))
	eval := func(expr string) model.Value {
		t.Helper()
		ex, err := ParseExprString(expr)
		if err != nil {
			t.Fatalf("parse %q: %v", expr, err)
		}
		got, err := Bind(ex, sc).Eval(row)
		if err != nil {
			t.Fatalf("eval %q: %v", expr, err)
		}
		return got
	}
	if got := eval("a.name"); !got.Equal(model.Str("ada")) {
		t.Errorf("a.name = %v", got)
	}
	if got := eval("e.w"); !got.Equal(model.Float(0.5)) {
		t.Errorf("e.w = %v", got)
	}
	if got := eval("v + 1"); !got.Equal(model.Int(6)) {
		t.Errorf("v+1 = %v", got)
	}
	// Nodes reduce to their IDs.
	if got := eval("id(a)"); !got.Equal(model.Int(7)) {
		t.Errorf("id(a) = %v", got)
	}
	// Missing prop is null.
	if got := eval("a.missing"); !got.IsNull() {
		t.Errorf("a.missing = %v", got)
	}
	// Only a property access puts a variable in the read-set.
	if !sc.Read[a] || !sc.Read[e] || sc.Read[v] {
		t.Errorf("read-set = a:%v e:%v v:%v, want a and e only", sc.Read[a], sc.Read[e], sc.Read[v])
	}
	// A variable the scope does not hold stays unbound and errors, as does
	// any variable never bound at all.
	zz, _ := ParseExprString("zz")
	if _, err := Bind(zz, sc).Eval(row); err == nil {
		t.Error("unbound var should fail")
	}
	av, _ := ParseExprString("a.name")
	if _, err := av.Eval(row); err == nil {
		t.Error("a variable never bound to a slot should fail")
	}
}

func TestExprParseErrors(t *testing.T) {
	for _, bad := range []string{"", "1 +", "(1", "a.", "1 2", "foo(1,", "! "} {
		if _, err := ParseExprString(bad); err == nil {
			t.Errorf("parse %q should fail", bad)
		}
	}
}

func TestExprTypeErrors(t *testing.T) {
	for _, bad := range []string{"1 and true", "true + false and true", "not 5", "-'a'", "'a' * 2"} {
		e, err := ParseExprString(bad)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := e.Eval(Row{}); err == nil {
			t.Errorf("eval %q should fail", bad)
		}
	}
}

func TestExprStrings(t *testing.T) {
	e, _ := ParseExprString("a.x + 1 > 2 and not b")
	s := e.String()
	if !strings.Contains(s, "a.x") || !strings.Contains(s, "not") {
		t.Errorf("String() = %q", s)
	}
}

// TestScopeShadowing: a later slot of the same name shadows the earlier
// one, as a later write to the same map key once did.
func TestScopeShadowing(t *testing.T) {
	sc := &Scope{}
	first, second := sc.Add("v"), sc.Add("v")
	if slot, ok := sc.Slot("v"); !ok || slot != second || first == second {
		t.Errorf("Slot(v) = %d, %v; want the later slot %d", slot, ok, second)
	}
	if _, ok := sc.Slot("w"); ok {
		t.Error("Slot of an absent name should report false")
	}
}

func TestEntryScalar(t *testing.T) {
	if v := (Entry{}).Scalar(); !v.IsNull() {
		t.Error("zero entry scalar should be null")
	}
	if v := NodeEntry(model.Node{ID: 4}).Scalar(); !v.Equal(model.Int(4)) {
		t.Error("node scalar should be its ID")
	}
	if v := EdgeEntry(model.Edge{ID: 9}).Scalar(); !v.Equal(model.Int(9)) {
		t.Error("edge scalar should be its ID")
	}
	if v := ValueEntry(model.Str("x")).Prop("anything"); !v.IsNull() {
		t.Error("value entry prop should be null")
	}
}
