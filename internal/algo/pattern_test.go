package algo

import "testing"

func TestPatternValidation(t *testing.T) {
	_, err := NewPattern(
		[]PatternNode{{Var: "a"}},
		[]PatternEdge{{From: 0, To: 5}},
	)
	if err == nil {
		t.Error("out-of-range edge endpoint should fail")
	}
	_, err = NewPattern([]PatternNode{{Var: "a"}, {Var: "a"}}, nil)
	if err == nil {
		t.Error("a repeated variable should fail")
	}
	_, err = NewPattern([]PatternNode{{Var: "_1"}, {}}, nil)
	if err == nil {
		t.Error("a variable equal to an anonymous node's name should fail")
	}
	p, err := NewPattern([]PatternNode{{Var: "a"}, {}, {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Var(0) != "a" || p.Var(1) != "_1" || p.Var(2) != "_2" {
		t.Errorf("names = %q %q %q", p.Var(0), p.Var(1), p.Var(2))
	}
}
