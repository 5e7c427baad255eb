package game_test

import (
	"testing"

	"auditgame/internal/game"
	"auditgame/internal/sample"
	"auditgame/internal/workload"
)

// TestClassesMatchReferenceOnWorkloads builds every registered workload
// at its default scale (Syn A, credit, EMR and the rest) and checks the
// instance's classes against the reference construction, and its
// indexed signatures against the dense loops they replaced.
func TestClassesMatchReferenceOnWorkloads(t *testing.T) {
	for _, name := range workload.Names() {
		g, _, err := workload.Build(name, workload.Scale{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in, err := game.NewInstance(g, 1, sample.NewBank(g.Dists(), 8, 1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := game.ReferenceClassesDiff(in); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := game.SignatureDiff(in, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestBankPanelClasses builds the three bank-drift panel games (2,000
// entities, a 512-row bank, budget fraction 0.1), checks their classes
// against the reference construction and their indexed signatures
// against the dense loops, and pins their structural fingerprints: a change to class partitions, signature order or class
// weights moves the fingerprint, and with it the master LP's rows.
func TestBankPanelClasses(t *testing.T) {
	for _, p := range []struct {
		types int
		bank  int64
		fp    uint64
	}{
		{32, 1, 0xa1ba6d7c6600448b},
		{40, 1, 0x182c37a4339a67c0},
		{48, 2, 0xf96767f4871ca6f3},
	} {
		g, _, err := workload.Scaled{Entities: 2000, AlertTypes: p.types, Seed: 1, Templates: workload.DefaultTemplates()}.Build(workload.Scale{})
		if err != nil {
			t.Fatal(err)
		}
		var budget float64
		for _, at := range g.Types {
			budget += at.Dist.Mean() * at.Cost
		}
		in, err := game.NewInstance(g, 0.1*budget, sample.NewBank(g.Dists(), 512, p.bank))
		if err != nil {
			t.Fatal(err)
		}
		if err := game.ReferenceClassesDiff(in); err != nil {
			t.Errorf("%d types: %v", p.types, err)
		}
		if err := game.SignatureDiff(in, p.bank); err != nil {
			t.Errorf("%d types: %v", p.types, err)
		}
		if fp := in.StructuralFingerprint(); fp != p.fp {
			t.Errorf("%d types: fingerprint %#x, want %#x", p.types, fp, p.fp)
		}
	}
}
