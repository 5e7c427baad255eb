package policy

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func validPolicy() *Policy {
	return &Policy{
		TypeNames:    []string{"A", "B", "C"},
		Costs:        []float64{1, 1, 2},
		Budget:       5,
		Thresholds:   []float64{2, 2, 4},
		Orderings:    [][]int{{0, 1, 2}, {2, 1, 0}},
		Probs:        []float64{0.6, 0.4},
		ExpectedLoss: 1.5,
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Policy)
	}{
		{"no types", func(p *Policy) { p.TypeNames = nil }},
		{"cost length", func(p *Policy) { p.Costs = p.Costs[:1] }},
		{"zero cost", func(p *Policy) { p.Costs[0] = 0 }},
		{"negative threshold", func(p *Policy) { p.Thresholds[1] = -1 }},
		{"negative budget", func(p *Policy) { p.Budget = -1 }},
		{"no orderings", func(p *Policy) { p.Orderings = nil; p.Probs = nil }},
		{"prob mismatch", func(p *Policy) { p.Probs = p.Probs[:1] }},
		{"bad permutation", func(p *Policy) { p.Orderings[0] = []int{0, 0, 1} }},
		{"short permutation", func(p *Policy) { p.Orderings[0] = []int{0, 1} }},
		{"negative prob", func(p *Policy) { p.Probs[0] = -0.1; p.Probs[1] = 1.1 }},
		{"prob sum", func(p *Policy) { p.Probs[0] = 0.9 }},
	}
	for _, tc := range cases {
		p := validPolicy()
		tc.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := validPolicy()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Budget != p.Budget || q.ExpectedLoss != p.ExpectedLoss {
		t.Fatal("scalar fields lost in round trip")
	}
	if len(q.Orderings) != 2 || q.Orderings[1][0] != 2 {
		t.Fatal("orderings lost in round trip")
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	p := validPolicy()
	p.Budget = -2
	if err := p.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("Save accepted invalid policy")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Load(strings.NewReader(`{"type_names":["A"]}`)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestSampleOrderingFrequencies(t *testing.T) {
	p := validPolicy()
	r := rand.New(rand.NewSource(1))
	const n = 100000
	first := 0
	for i := 0; i < n; i++ {
		o := p.SampleOrdering(r)
		if o[0] == 0 {
			first++
		}
	}
	got := float64(first) / n
	if math.Abs(got-0.6) > 0.01 {
		t.Fatalf("ordering[0] frequency = %v, want ≈0.6", got)
	}
}

func TestSelectRespectsBudgetAndThresholds(t *testing.T) {
	p := validPolicy() // budget 5, thresholds [2,2,4], costs [1,1,2]
	r := rand.New(rand.NewSource(2))
	counts := []int{10, 10, 10}
	for trial := 0; trial < 200; trial++ {
		sel, err := p.Select(counts, r)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Spent > p.Budget+1e-9 {
			t.Fatalf("spent %v over budget %v", sel.Spent, p.Budget)
		}
		for typ, chosen := range sel.Chosen {
			spentOnType := float64(len(chosen)) * p.Costs[typ]
			if spentOnType > p.Thresholds[typ]+1e-9 {
				t.Fatalf("type %d spent %v over threshold %v", typ, spentOnType, p.Thresholds[typ])
			}
			seen := map[int]bool{}
			for i, idx := range chosen {
				if idx < 0 || idx >= counts[typ] {
					t.Fatalf("index %d out of bin range %d", idx, counts[typ])
				}
				if seen[idx] {
					t.Fatalf("duplicate index %d", idx)
				}
				seen[idx] = true
				if i > 0 && chosen[i-1] > idx {
					t.Fatal("chosen indexes not sorted")
				}
			}
		}
	}
}

func TestSelectFirstTypeFullyCovered(t *testing.T) {
	p := &Policy{
		TypeNames:  []string{"A", "B"},
		Costs:      []float64{1, 1},
		Budget:     3,
		Thresholds: []float64{2, 2},
		Orderings:  [][]int{{0, 1}},
		Probs:      []float64{1},
	}
	r := rand.New(rand.NewSource(3))
	sel, err := p.Select([]int{2, 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	// Type A: min(3 affordable, 2 cap, 2 present) = 2 audits.
	// Remaining = 3 − min(2, 2) = 1 → type B gets 1 audit.
	if len(sel.Chosen[0]) != 2 || len(sel.Chosen[1]) != 1 {
		t.Fatalf("chosen = %v", sel.Chosen)
	}
	if sel.Audited() != 3 || sel.Spent != 3 {
		t.Fatalf("audited %d spent %v", sel.Audited(), sel.Spent)
	}
}

func TestSelectEmptyBins(t *testing.T) {
	p := validPolicy()
	r := rand.New(rand.NewSource(4))
	sel, err := p.Select([]int{0, 0, 0}, r)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Audited() != 0 || sel.Spent != 0 {
		t.Fatal("audited alerts from empty bins")
	}
}

func TestSelectValidation(t *testing.T) {
	p := validPolicy()
	r := rand.New(rand.NewSource(5))
	if _, err := p.Select([]int{1}, r); err == nil {
		t.Fatal("expected error for wrong count length")
	}
	if _, err := p.Select([]int{1, -2, 0}, r); err == nil {
		t.Fatal("expected error for negative count")
	}
}

// Property: selections never exceed budget or thresholds for random
// counts, and each type's chosen indexes are sorted, distinct and below
// its count.
func TestSelectInvariantsProperty(t *testing.T) {
	p := validPolicy()
	f := func(c0, c1, c2 uint8, seed int64) bool {
		counts := []int{int(c0) % 50, int(c1) % 50, int(c2) % 50}
		r := rand.New(rand.NewSource(seed))
		sel, err := p.Select(counts, r)
		if err != nil {
			return false
		}
		if sel.Spent > p.Budget+1e-9 {
			return false
		}
		for typ, chosen := range sel.Chosen {
			if len(chosen) > counts[typ] {
				return false
			}
			if float64(len(chosen))*p.Costs[typ] > p.Thresholds[typ]+1e-9 {
				return false
			}
			for i, v := range chosen {
				if v < 0 || v >= counts[typ] || (i > 0 && v <= chosen[i-1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSampleIndexesUniform checks that every subset is equally likely:
// over 10⁵ draws of 2 indexes out of 5, each of the 10 pairs must
// appear 10 % ± 1 % of the time.
func TestSampleIndexesUniform(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const draws = 100000
	var freq [5][5]int
	for k := 0; k < draws; k++ {
		got := sampleIndexes(5, 2, r)
		freq[got[0]][got[1]]++
	}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			if f := float64(freq[a][b]) / draws; math.Abs(f-0.1) > 0.01 {
				t.Errorf("pair {%d, %d} drawn %.4f of the time, want 0.1 ± 0.01", a, b, f)
			}
		}
	}
}

// TestSelectHugeCount pins that the cost of Select does not grow with
// the realized counts: a count of 2⁴⁰ alerts, which only asks for a
// handful of audits, returns at once with well under 1 MB allocated.
func TestSelectHugeCount(t *testing.T) {
	p := validPolicy()
	counts := []int{1 << 40, 1 << 40, 1 << 40}
	r := rand.New(rand.NewSource(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sel, err := p.Select(counts, r)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Select allocated %d bytes for counts %v", grew, counts)
	}
	if sel.Audited() == 0 || sel.Spent > p.Budget+1e-9 {
		t.Fatalf("selection %+v: want some audits within budget %v", sel, p.Budget)
	}
	for typ, chosen := range sel.Chosen {
		for i, v := range chosen {
			if v < 0 || v >= counts[typ] || (i > 0 && v <= chosen[i-1]) {
				t.Fatalf("type %d chose %v: not sorted, distinct and below the count", typ, chosen)
			}
		}
	}
}
