package game

import (
	"strings"
	"testing"
)

// FuzzParseOrdering checks the ordering parser never panics and that
// anything it accepts round-trips through String.
func FuzzParseOrdering(f *testing.F) {
	f.Add("[1,2,3]")
	f.Add("[3,1,2]")
	f.Add("")
	f.Add("[,]")
	f.Add("[1,1,1]")
	f.Add("  [ 2 , 1 ]  ")
	f.Fuzz(func(t *testing.T, s string) {
		o, err := ParseOrdering(s)
		if err != nil {
			return
		}
		back, err := ParseOrdering(o.String())
		if err != nil {
			t.Fatalf("accepted %q but rejected own rendering %q: %v", s, o.String(), err)
		}
		if back.Key() != o.Key() {
			t.Fatalf("round trip changed ordering: %v vs %v", o, back)
		}
	})
}

// FuzzDecodeJSON checks the game config decoder never panics and that
// every accepted game passes Validate.
func FuzzDecodeJSON(f *testing.F) {
	f.Add(TemplateJSON())
	f.Add(`{}`)
	f.Add(`{"types": []}`)
	f.Add(`{"types": [{"name":"A","cost":1,"dist":{"kind":"point","n":1}}],
	       "entities":[{"name":"e","p_attack":1}],"victims":["v"],
	       "attacks":[[{"type":1,"benefit":1,"penalty":1,"cost":1}]]}`)
	// Dist sizes whose bin count overflows int once made Build panic.
	f.Add(`{"types": [{"name":"A","cost":1,"dist":{"kind":"gaussian","mean":6,"std":2,"half_width":4611686018427387904}}],
	       "entities":[{"name":"e","p_attack":1}],"victims":["v"],
	       "attacks":[[{"type":0,"benefit":1,"penalty":1,"cost":1}]]}`)
	f.Add(`{"types": [{"name":"A","cost":1,"dist":{"kind":"empirical","counts":[0,9223372036854775807]}}],
	       "entities":[{"name":"e","p_attack":1}],"victims":["v"],
	       "attacks":[[{"type":0,"benefit":1,"penalty":1,"cost":1}]]}`)
	// Counts at MaxInt once decoded, validated and hung the first solve.
	f.Add(overCapPointJSON)
	f.Add(overCapEmpiricalJSON)
	f.Fuzz(func(t *testing.T, s string) {
		g, err := DecodeJSON(strings.NewReader(s))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid game: %v", err)
		}
	})
}
