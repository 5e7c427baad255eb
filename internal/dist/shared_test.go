package dist

import (
	"sync"
	"testing"
)

func TestSharedInternsByCanonicalSpec(t *testing.T) {
	g1, err := Shared(Spec{Kind: "gaussian", Mean: 6, Std: 2, Coverage: 0.995})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Shared(Spec{Kind: "gaussian", Mean: 6, Std: 2, Coverage: 0.995})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("identical specs got distinct tables")
	}
	// HalfWidth overrides Coverage in Build, so differing leftover
	// Coverage values are the same canonical spec.
	h1, err := Shared(Spec{Kind: "gaussian", Mean: 6, Std: 2, HalfWidth: 5, Coverage: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Shared(Spec{Kind: "gaussian", Mean: 6, Std: 2, HalfWidth: 5, Coverage: 0.995})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("half-width specs differing only in unused coverage got distinct tables")
	}
	if g1 == h1 {
		t.Fatal("coverage and half-width parameterizations aliased")
	}
	d1, err := Shared(Spec{Kind: "gaussian", Mean: 7, Std: 2, Coverage: 0.995})
	if err != nil {
		t.Fatal(err)
	}
	if d1 == g1 {
		t.Fatal("distinct specs shared a table")
	}
	p1, err := Shared(Spec{Kind: "point", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Shared(Spec{Kind: "point", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("identical point specs got distinct tables")
	}
}

func TestSharedRejectsBadSpec(t *testing.T) {
	if _, err := Shared(Spec{Kind: "no-such-kind"}); err == nil {
		t.Fatal("Shared accepted an unknown kind")
	}
	if _, err := Shared(Spec{}); err == nil {
		t.Fatal("Shared accepted an empty spec")
	}
}

func TestSharedConcurrent(t *testing.T) {
	spec := Spec{Kind: "poisson", Lambda: 9, Coverage: 0.999}
	const workers = 16
	out := make([]Distribution, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d, err := Shared(spec)
			if err != nil {
				t.Error(err)
				return
			}
			out[w] = d
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if out[w] != out[0] {
			t.Fatal("concurrent Shared callers got distinct tables")
		}
	}
}

// BenchmarkSharedSpec proves table reuse: after the first build, Shared
// on a repeated spec is a lock plus a map probe with zero allocations,
// versus a full table build per call for Spec.Build.
func BenchmarkSharedSpec(b *testing.B) {
	spec := Spec{Kind: "gaussian", Mean: 180, Std: 45, Coverage: 0.995}
	b.Run("shared", func(b *testing.B) {
		if _, err := Shared(spec); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Shared(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spec.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSpecKey pins Key's identity: fields Build ignores do not split a
// key, and every field Build reads — empirical counts included — does.
func TestSpecKey(t *testing.T) {
	same := [][2]Spec{
		{{Kind: "gaussian", Mean: 6, Std: 2, HalfWidth: 5, Coverage: 0.9}, {Kind: "gaussian", Mean: 6, Std: 2, HalfWidth: 5}},
		{{Kind: "poisson", Lambda: 3, Coverage: 0.99, N: 7}, {Kind: "poisson", Lambda: 3, Coverage: 0.99}},
		{{Kind: "empirical", Counts: []int{4, 6}, Mean: 1}, {Kind: "empirical", Counts: []int{4, 6}}},
	}
	for _, p := range same {
		if p[0].Key() != p[1].Key() {
			t.Errorf("%+v and %+v keyed apart: %q vs %q", p[0], p[1], p[0].Key(), p[1].Key())
		}
	}
	distinct := []Spec{
		{Kind: "gaussian", Mean: 6, Std: 2, Coverage: 0.995},
		{Kind: "gaussian", Mean: 6, Std: 2, HalfWidth: 5},
		{Kind: "gaussian", Mean: 6.000000000001, Std: 2, Coverage: 0.995},
		{Kind: "poisson", Lambda: 3, Coverage: 0.99},
		{Kind: "empirical", Counts: []int{4, 6}},
		{Kind: "empirical", Counts: []int{46}},
		{Kind: "empirical", Counts: []int{4, 6, 5}},
		{Kind: "empirical"},
		{Kind: "point", N: 4},
		{Kind: "soliton", N: 4},
	}
	seen := map[string]Spec{}
	for _, s := range distinct {
		k := s.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("%+v and %+v share key %q", prev, s, k)
		}
		seen[k] = s
	}
}
