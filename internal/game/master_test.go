package game

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"auditgame/internal/dist"
	"auditgame/internal/lp"
	"auditgame/internal/sample"
)

// certTol is the certificate tolerance: absolute for the primal
// relations, scaled by Σ w_c for the dual ones.
const certTol = 1e-8

// certifyMaster checks an LPResult against the pal vectors it was
// solved from, by arithmetic that shares nothing with the solve but the
// model's attack signatures:
//
//   - primal: Po ≥ 0, Σ Po = 1, u_c ≥ Σ_o p_o·Ua(o,c,s) for every
//     signature, u_c ≥ 0 when the game allows no attack, and Objective
//     = Σ_c w_c·u_c;
//   - dual: RowDuals ≤ 0, Σ_s RowDuals[c][s] = −w_c (≥ −w_c when the
//     game allows no attack), and every pool column's reduced cost
//     −(Σ_{c,s} RowDuals[c][s]·Ua(o,c,s) + SimplexDual) ≥ 0;
//   - strong duality: Objective = SimplexDual.
func certifyMaster(in *Instance, pals [][]float64, res *LPResult) error {
	ua := func(sig signature, pal []float64) float64 {
		var pat float64
		for t, p := range sig.probs {
			pat += p * pal[t]
		}
		return sig.base + sig.delta*pat
	}
	var W float64
	for _, cl := range in.classes {
		W += cl.weight
	}
	dualTol := certTol * math.Max(W, 1)

	var sum float64
	for qi, p := range res.Po {
		if p < 0 {
			return fmt.Errorf("Po[%d] = %v < 0", qi, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > certTol {
		return fmt.Errorf("Σ Po = %v, want 1", sum)
	}
	u := make([]float64, len(in.classes))
	for e, c := range in.entityClass {
		u[c] = res.Ue[e]
	}
	var primal float64
	for c, cl := range in.classes {
		primal += cl.weight * u[c]
		if in.G.AllowNoAttack && u[c] < -certTol {
			return fmt.Errorf("u[%d] = %v < 0 with no attack allowed", c, u[c])
		}
		for s, sig := range cl.sigs {
			var lhs float64
			for qi, p := range res.Po {
				lhs += p * ua(sig, pals[qi])
			}
			if lhs-u[c] > certTol {
				return fmt.Errorf("class %d signature %d: Σ p·Ua = %v exceeds u = %v", c, s, lhs, u[c])
			}
		}
	}
	if math.Abs(primal-res.Objective) > dualTol {
		return fmt.Errorf("Σ w·u = %v, objective %v", primal, res.Objective)
	}

	for c, cl := range in.classes {
		var ysum float64
		for s, y := range res.RowDuals[c] {
			if y > dualTol {
				return fmt.Errorf("RowDuals[%d][%d] = %v > 0", c, s, y)
			}
			ysum += y
		}
		switch {
		case in.G.AllowNoAttack && ysum < -cl.weight-dualTol:
			return fmt.Errorf("class %d: Σ RowDuals = %v < −w = %v", c, ysum, -cl.weight)
		case !in.G.AllowNoAttack && math.Abs(ysum+cl.weight) > dualTol:
			return fmt.Errorf("class %d: Σ RowDuals = %v, want −w = %v", c, ysum, -cl.weight)
		}
	}
	for qi, pal := range pals {
		var priced float64
		for c, cl := range in.classes {
			for s, sig := range cl.sigs {
				priced += res.RowDuals[c][s] * ua(sig, pal)
			}
		}
		if rc := -(priced + res.SimplexDual); rc < -dualTol {
			return fmt.Errorf("column %d: reduced cost %v < 0", qi, rc)
		}
	}
	if math.Abs(res.Objective-res.SimplexDual) > dualTol {
		return fmt.Errorf("objective %v, dual objective %v", res.Objective, res.SimplexDual)
	}
	return nil
}

// synAGrid calls visit with every threshold vector brute force solves
// on in (multiples of each type's cost up to its support maximum that
// spend at least min(budget, Σ caps)) and its pal vectors for all
// orderings, read from the grid sweep as brute force reads them.
func synAGrid(t *testing.T, in *Instance, visit func(b Thresholds, pals [][]float64)) {
	t.Helper()
	nT := in.G.NumTypes()
	steps := make([]int, nT)
	var capSum float64
	for i := range steps {
		_, hi := in.G.Types[i].Dist.Support()
		steps[i] = hi
		capSum += float64(hi) * in.G.Types[i].Cost
	}
	minSum := math.Min(in.Budget, capSum)
	all := AllOrderings(nT)
	pg := in.PalGridSweep(all, steps)
	if pg == nil {
		t.Fatal("grid sweep refused the Syn A grid")
	}
	b := make(Thresholds, nT)
	ks := make([]int, nT)
	var rec func(i int, sum float64)
	rec = func(i int, sum float64) {
		if i == nT {
			if sum >= minSum-1e-9 {
				visit(b, pg.Pals(ks))
			}
			return
		}
		for k := 0; k <= steps[i]; k++ {
			b[i] = float64(k) * in.G.Types[i].Cost
			ks[i] = k
			rec(i+1, sum+b[i])
		}
	}
	rec(0, 0)
}

// TestMasterMatchesReferenceTable3 solves every Table III grid LP on
// Syn A at B = 2 through the direct master and the reference builder.
func TestMasterMatchesReferenceTable3(t *testing.T) {
	in := synAInstance(t)
	all := AllOrderings(in.G.NumTypes())
	n := 0
	synAGrid(t, in, func(b Thresholds, pals [][]float64) {
		n++
		if _, _, err := masterStep(in, all, pals, nil, nil); err != nil {
			t.Fatalf("grid point %v: %v", b, err)
		}
	})
	if n != 7675 {
		t.Fatalf("visited %d grid points, want Table III's 7,675", n)
	}
}

// chainMasters replays a column-generation-shaped sequence on in: round
// k solves Q[:k] warm-started from round k−1's basis.
func chainMasters(t *testing.T, in *Instance, Q []Ordering, b Thresholds) {
	t.Helper()
	var warm *MasterBasis
	var refWarm *refMasterBasis
	for k := 1; k <= len(Q); k++ {
		var err error
		warm, refWarm, err = masterStep(in, Q[:k], in.PalBatch(Q[:k], b), warm, refWarm)
		if err != nil {
			t.Fatalf("b=%v, %d columns: %v", b, k, err)
		}
	}
}

// TestMasterMatchesReferenceAllowNoAttack runs warm-chained masters on
// Syn A with the refrain option, at a budget where refraining binds.
func TestMasterMatchesReferenceAllowNoAttack(t *testing.T) {
	g := SynA()
	g.AllowNoAttack = true
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []float64{2, 10} {
		in, err := NewInstance(g, budget, src)
		if err != nil {
			t.Fatal(err)
		}
		all := AllOrderings(in.G.NumTypes())
		for _, b := range []Thresholds{in.G.ThresholdCaps(), {3, 3, 3, 3}, {0, 4, 2, 6}} {
			chainMasters(t, in, all, b)
		}
	}
}

// staleBases derives warm bases the master must not trust from a
// solved basis mb: one with the wrong row count, and row-count-correct
// ones carrying unknown orderings, out-of-range classes and rows, and
// artificials.
func staleBases(mb *MasterBasis, nClasses int) []*MasterBasis {
	m := mb.numRows
	wrong := &MasterBasis{numRows: m + 3, rows: mb.rows}
	bad := []masterBasisEntry{
		{kind: mbOrdering, o: Ordering{99, 0}},
		{kind: mbUe, idx: nClasses},
		{kind: mbUe, idx: nClasses + 5, neg: true},
		{kind: mbSlack, idx: m - 1}, // the equality row has no slack
		{kind: mbSlack, idx: m},
		{kind: mbSlack, idx: m + 10},
		{kind: mbArtificial},
	}
	out := []*MasterBasis{wrong}
	for shift := range bad {
		rows := append([]masterBasisEntry(nil), mb.rows...)
		for i := range rows {
			if (i+shift)%2 == 0 {
				rows[i] = bad[(i+shift)%len(bad)]
			}
		}
		out = append(out, &MasterBasis{numRows: m, rows: rows})
	}
	all := make([]masterBasisEntry, m)
	for i := range all {
		all[i] = bad[i%len(bad)]
	}
	return append(out, &MasterBasis{numRows: m, rows: all})
}

func TestMasterMatchesReferenceStaleBases(t *testing.T) {
	in := synAInstance(t)
	all := AllOrderings(in.G.NumTypes())
	b := in.G.ThresholdCaps()
	pals := in.PalBatch(all, b)
	solved, _, err := masterStep(in, all, pals, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, mb := range staleBases(solved, len(in.classes)) {
		if _, _, err := masterStep(in, all[:12], pals[:12], mb, mb.keyed()); err != nil {
			t.Fatalf("stale basis %d on a shrunk pool: %v", i, err)
		}
		if _, _, err := masterStep(in, all, pals, mb, mb.keyed()); err != nil {
			t.Fatalf("stale basis %d: %v", i, err)
		}
	}
}

func TestMasterCertificateRejectsCorruptDual(t *testing.T) {
	in := synAInstance(t)
	all := AllOrderings(in.G.NumTypes())
	pals := in.PalBatch(all, in.G.ThresholdCaps())
	res, err := in.SolveFixedPals(all, pals)
	if err != nil {
		t.Fatal(err)
	}
	if err := certifyMaster(in, pals, res); err != nil {
		t.Fatalf("optimal master fails its certificate: %v", err)
	}
	for ci := range res.RowDuals {
		for s := range res.RowDuals[ci] {
			keep := res.RowDuals[ci][s]
			res.RowDuals[ci][s] = keep - 1e-3
			if certifyMaster(in, pals, res) == nil {
				t.Fatalf("certificate accepts RowDuals[%d][%d] moved by −1e-3", ci, s)
			}
			res.RowDuals[ci][s] = keep
		}
	}
	res.SimplexDual += 1e-3
	if certifyMaster(in, pals, res) == nil {
		t.Fatal("certificate accepts a moved simplex dual")
	}
}

// fuzzGame builds a small random game: 3 alert types, up to 4
// entities, 3 victims, random benefits, penalties and attack types.
func fuzzGame(rng *rand.Rand, noAttack bool) *Game {
	g := &Game{AllowNoAttack: noAttack, Victims: []string{"v1", "v2", "v3"}}
	for t := 0; t < 3; t++ {
		mean := float64(rng.Intn(6)) + 2
		g.Types = append(g.Types, AlertType{Name: "T", Cost: float64(1 + rng.Intn(2)), Dist: dist.NewGaussianHalfWidth(mean, 1.2, 2)})
	}
	ne := 1 + rng.Intn(4)
	for e := 0; e < ne; e++ {
		g.Entities = append(g.Entities, Entity{Name: "e", PAttack: 0.1 + 0.9*rng.Float64()})
		row := make([]Attack, len(g.Victims))
		for v := range row {
			row[v] = DeterministicAttack(3, rng.Intn(3), float64(rng.Intn(8)+1), float64(rng.Intn(6)), 0.5*float64(rng.Intn(3)))
		}
		g.Attacks = append(g.Attacks, row)
	}
	return g
}

// FuzzMasterMatchesReference solves random small games over random
// pools (duplicates allowed) and chains each solve's basis into the
// next, sometimes corrupted, on both paths.
func FuzzMasterMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 7919} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	// A warm install that pivots on a negative entry leaves a basic
	// p_o at −0, which the read-back must turn into +0.
	f.Add(int64(7910), false)
	f.Fuzz(func(t *testing.T, seed int64, noAttack bool) {
		rng := rand.New(rand.NewSource(seed))
		g := fuzzGame(rng, noAttack)
		src, err := sample.NewEnumerator(g.Dists(), 10000)
		if err != nil {
			t.Skip(err)
		}
		in, err := NewInstance(g, float64(rng.Intn(12)), src)
		if err != nil {
			t.Fatal(err)
		}
		all := AllOrderings(3)
		b := Thresholds{float64(rng.Intn(10)), float64(rng.Intn(10)), float64(rng.Intn(10))}
		var warm *MasterBasis
		var refWarm *refMasterBasis
		for round := 0; round < 6; round++ {
			Q := make([]Ordering, 1+rng.Intn(8))
			for i := range Q {
				Q[i] = all[rng.Intn(len(all))]
			}
			if warm != nil && rng.Intn(3) == 0 {
				stale := staleBases(warm, len(in.classes))
				warm = stale[rng.Intn(len(stale))]
				refWarm = warm.keyed()
			}
			warm, refWarm, err = masterStep(in, Q, in.PalBatch(Q, b), warm, refWarm)
			if err != nil {
				t.Fatalf("round %d, pool %v: %v", round, Q, err)
			}
		}
	})
}

// masterCase is one restricted master of the pool tests.
type masterCase struct {
	in   *Instance
	Q    []Ordering
	b    Thresholds
	warm bool // SolveFixedWarm from the case's own cold basis
}

func (c masterCase) solve() (*LPResult, error) {
	if !c.warm {
		return c.in.SolveFixedPals(c.Q, c.in.PalBatch(c.Q, c.b))
	}
	cold, err := c.in.SolveFixed(c.Q[:len(c.Q)/2+1], c.b)
	if err != nil {
		return nil, err
	}
	return c.in.SolveFixedWarm(c.Q, c.b, cold.Basis)
}

// TestMasterPoolConcurrent solves masters of different pools and
// thresholds on one instance from 8 goroutines, drawing workspaces from
// its shared pool: every result must equal its serial solve bit for
// bit.
func TestMasterPoolConcurrent(t *testing.T) {
	in := synAInstance(t)
	all := AllOrderings(in.G.NumTypes())
	var cases []masterCase
	for i, b := range []Thresholds{in.G.ThresholdCaps(), {3, 3, 3, 3}, {0, 4, 2, 6}, {5, 1, 0, 2}} {
		for _, k := range []int{1, 5, 24} {
			Q := append([]Ordering(nil), all[(i*7)%24:]...)
			Q = append(Q, all[:(i*7)%24]...)
			cases = append(cases, masterCase{in, Q[:k], b, false}, masterCase{in, Q[:k], b, true})
		}
	}
	want := make([]*LPResult, len(cases))
	for i, c := range cases {
		var err error
		if want[i], err = c.solve(); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for r := 0; r < 3; r++ {
				for i := range cases {
					i := (i + 5*g + r) % len(cases)
					got, err := cases[i].solve()
					if err == nil {
						err = lpResultDiff(got, want[i])
					}
					if err == nil {
						err = basisDiff(got.Basis.keyed(), want[i].Basis.keyed())
					}
					if err != nil {
						errs <- fmt.Errorf("goroutine %d, case %d: %w", g, i, err)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMasterWorkspaceReuse solves a sequence of masters on one
// workspace, and each solve must equal a fresh workspace's bit for bit:
// a large master, a small one and the large one again, then the small
// instance over the whole pool and the large one over three orderings,
// so the row count (the tableau's column stride) shrinks and grows
// while the column count moves the other way.
func TestMasterWorkspaceReuse(t *testing.T) {
	g := SynA()
	g.AllowNoAttack = true
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewInstance(g, 10, src)
	if err != nil {
		t.Fatal(err)
	}
	small := synAInstance(t)
	all := AllOrderings(4)
	b := Thresholds{3, 3, 3, 3}
	solve := func(ws *lp.Workspace, in *Instance, Q []Ordering) lp.Result {
		l := in.masterLayout(len(Q))
		in.writeMaster(ws, l, in.PalBatch(Q, b), 1)
		return ws.Solve(lp.Options{})
	}
	var ws lp.Workspace
	for k, c := range []struct {
		in *Instance
		Q  []Ordering
	}{{large, all}, {small, all[:2]}, {large, all}, {small, all}, {large, all[:3]}} {
		var fresh lp.Workspace
		want := solve(&fresh, c.in, c.Q)
		got := solve(&ws, c.in, c.Q)
		if got.Status != lp.Optimal || got.Iterations != want.Iterations {
			t.Fatalf("solve %d, reused: %v after %d pivots; fresh: %v after %d", k, got.Status, got.Iterations, want.Status, want.Iterations)
		}
		for _, d := range []struct {
			what      string
			got, want []float64
		}{{"objective", []float64{got.Objective}, []float64{want.Objective}}, {"X", got.X, want.X}, {"Y", got.Y, want.Y}} {
			if err := bitsDiff(fmt.Sprintf("solve %d: %s", k, d.what), d.got, d.want); err != nil {
				t.Fatal(err)
			}
		}
		if err := intsDiff(fmt.Sprintf("solve %d: basis", k), got.Basis, want.Basis); err != nil {
			t.Fatal(err)
		}
	}
}
