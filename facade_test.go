package auditgame

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
)

// solveOnce binds cfg to a throwaway Auditor session and solves it once.
func solveOnce(t *testing.T, cfg AuditorConfig) *SolveResult {
	t.Helper()
	a, err := NewAuditor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSynAEndToEnd(t *testing.T) {
	g := SynA()
	in, err := NewInstance(g, 6, SourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := solveOnce(t, AuditorConfig{Instance: in, ISHM: ISHMConfig{Epsilon: 0.25, ExactInner: true}}).ISHM
	// Paper Table IV, B=6: ≈3.27. Our discretization lands nearby.
	if res.Policy.Objective < 2 || res.Policy.Objective > 4.5 {
		t.Fatalf("B=6 ISHM objective = %v, expected ≈3.3", res.Policy.Objective)
	}
	if Loss(in, res.Policy)-res.Policy.Objective > 1e-8 {
		t.Fatal("Loss disagrees with the solver's objective")
	}
}

func TestSolveCGGSNeverBeatsExact(t *testing.T) {
	in, err := NewInstance(SynA(), 8, SourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := Thresholds{3, 3, 2, 2}
	exact := solveOnce(t, AuditorConfig{Instance: in, Method: MethodExact, Thresholds: b}).Mixed
	cg := solveOnce(t, AuditorConfig{Instance: in, Method: MethodCGGS, Thresholds: b}).Mixed
	if cg.Objective < exact.Objective-1e-7 {
		t.Fatalf("CGGS %v beat exact %v", cg.Objective, exact.Objective)
	}
}

func TestBaselinesOnSynA(t *testing.T) {
	in, err := NewInstance(SynA(), 10, SourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := solveOnce(t, AuditorConfig{Instance: in, ISHM: ISHMConfig{Epsilon: 0.25, ExactInner: true}}).ISHM
	opt := res.Policy.Objective
	if ro := BaselineRandomOrders(in, res.Policy.Thresholds, 100, 1); ro < opt-1e-7 {
		t.Fatalf("random orders %v beat ISHM %v", ro, opt)
	}
	rt, err := BaselineRandomThresholds(in, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rt < opt-0.2 {
		t.Fatalf("random thresholds %v substantially beat ISHM %v", rt, opt)
	}
	if gb := BaselineGreedyBenefit(in); gb < opt-1e-7 {
		t.Fatalf("greedy benefit %v beat ISHM %v", gb, opt)
	}
}

func TestCustomGameViaFacade(t *testing.T) {
	g := &Game{
		Types: []AlertType{
			{Name: "anomaly", Cost: 1, Dist: GaussianCounts(5, 1.5, 0.995)},
			{Name: "rule", Cost: 2, Dist: PoissonCounts(3, 0.999)},
		},
		Entities: []Entity{{Name: "insider", PAttack: 0.5}},
		Victims:  []string{"db1", "db2"},
		Attacks: [][]Attack{{
			DeterministicAttack(2, 0, 8, 10, 1),
			DeterministicAttack(2, 1, 6, 10, 1),
		}},
	}
	in, err := NewInstance(g, 4, SourceOptions{BankSize: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := solveOnce(t, AuditorConfig{Instance: in, ISHM: ISHMConfig{Epsilon: 0.2}}).ISHM
	if math.IsNaN(res.Policy.Objective) {
		t.Fatal("NaN objective")
	}
}

func TestPolicyFromAndRoundTrip(t *testing.T) {
	g := SynA()
	in, err := NewInstance(g, 6, SourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pol := solveOnce(t, AuditorConfig{Instance: in, Method: MethodExact, Thresholds: Thresholds{2, 2, 2, 2}}).Mixed
	dp := PolicyFrom(g, 6, pol)
	if err := dp.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPolicy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Budget != 6 || len(back.TypeNames) != 4 {
		t.Fatal("round trip lost fields")
	}
	sel, err := back.Select([]int{5, 5, 5, 5}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Spent > 6+1e-9 {
		t.Fatalf("selection overspent: %v", sel.Spent)
	}
}

func TestTDMTFacadePipeline(t *testing.T) {
	engine, err := NewRuleEngine([]Rule{
		{Name: "self-access", Match: func(ev AccessEvent) bool { return ev.Actor == ev.Target }},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := []AccessEvent{
		{Day: 0, Actor: "a", Target: "a"},
		{Day: 0, Actor: "a", Target: "b"},
		{Day: 1, Actor: "c", Target: "c"},
	}
	log, benign, err := ProcessEvents(engine, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	if benign != 1 || log.Len() != 2 {
		t.Fatalf("benign=%d len=%d", benign, log.Len())
	}
	counts, err := CountsForDay(log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := CountsForDay(log, 9); err == nil {
		t.Fatal("expected range error")
	}
}

func TestWorkloadBuildersViaFacade(t *testing.T) {
	eds, err := SimulateEMR(EMRConfig{Days: 6, Employees: 60, PairsPerType: 15, BenignPerDay: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eg, err := BuildEMRGame(eds, EMRGameConfig{Employees: 10, Patients: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eg.Validate(); err != nil {
		t.Fatal(err)
	}

	cds, err := SimulateCredit(CreditConfig{Periods: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := BuildCreditGame(cds, CreditGameConfig{Applicants: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadRegistryViaFacade(t *testing.T) {
	names := Workloads()
	if len(names) < 4 {
		t.Fatalf("registry lists %v", names)
	}
	if _, ok := GetWorkload("scaled"); !ok {
		t.Fatal("scaled workload missing from registry")
	}
	g, seed, err := BuildWorkload("syna", WorkloadScale{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTypes() != 4 || len(seed) != 4 {
		t.Fatalf("syna build wrong shape: %d types, %d seed entries", g.NumTypes(), len(seed))
	}
	sg, _, err := BuildWorkload("scaled", WorkloadScale{Entities: 60, AlertTypes: 10, Victims: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Entities) != 60 || sg.NumTypes() != 10 || len(sg.Victims) != 6 {
		t.Fatalf("scaled build wrong shape: %d entities, %d types, %d victims",
			len(sg.Entities), sg.NumTypes(), len(sg.Victims))
	}
	in, err := NewInstance(sg, 20, SourceOptions{BankSize: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pol := solveOnce(t, AuditorConfig{Instance: in, Method: MethodCGGS, Thresholds: seedThresholds(sg)}).Mixed
	if len(pol.Po) != len(pol.Q) {
		t.Fatal("malformed policy")
	}
}

// seedThresholds rebuilds the caps vector for a game (what BuildWorkload
// returns as the threshold seed).
func seedThresholds(g *Game) Thresholds {
	return g.ThresholdCaps()
}

func TestBruteForceFacadeTiny(t *testing.T) {
	// A 2-type game small enough to brute force instantly.
	g := &Game{
		Types: []AlertType{
			{Name: "A", Cost: 1, Dist: ConstantCounts(2)},
			{Name: "B", Cost: 1, Dist: ConstantCounts(3)},
		},
		Entities: []Entity{{Name: "e", PAttack: 1}},
		Victims:  []string{"v1", "v2"},
		Attacks: [][]Attack{{
			DeterministicAttack(2, 0, 5, 5, 1),
			DeterministicAttack(2, 1, 4, 5, 1),
		}},
	}
	in, err := NewInstance(g, 2, SourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bf := solveOnce(t, AuditorConfig{Instance: in, Method: MethodBruteForce}).BruteForce
	res := solveOnce(t, AuditorConfig{Instance: in, ISHM: ISHMConfig{Epsilon: 0.1, ExactInner: true}}).ISHM
	if res.Policy.Objective < bf.Policy.Objective-0.5 {
		t.Fatalf("ISHM %v implausibly better than brute force %v", res.Policy.Objective, bf.Policy.Objective)
	}
}

func TestOrderingHelpers(t *testing.T) {
	if len(AllOrderings(3)) != 6 {
		t.Fatal("AllOrderings(3) != 6")
	}
	o := BenefitOrdering(SynA())
	// Syn A benefits rise with type index → ordering starts at type 4.
	if o[0] != 3 {
		t.Fatalf("BenefitOrdering = %v, want type 4 first", o)
	}
}
