package game

import "fmt"

// ReferenceClassesDiff reports the first difference between in's entity
// classes and the reference construction's on in.G, for the workload
// tests in package game_test (which may import internal/workload).
func ReferenceClassesDiff(in *Instance) error {
	want, wantOf := referenceClasses(in.G)
	return classesDiff(in.classes, in.entityClass, want, wantOf)
}

// MasterReplay is the last basis of a replayed column-generation
// solve, on the direct path and on the reference builder.
type MasterReplay struct {
	basis *MasterBasis
	ref   *refMasterBasis
}

// ReplayMasters replays a column-generation solve master by master, as
// SolveState.run produced it: round k solves Q[:k] at thresholds b,
// warm-started from round k−1's basis, for k = first … len(Q); the first
// round starts from from's basis (nil: cold). Every round runs through
// the direct master and the reference builder, whose standard forms,
// warm columns, result bits and bases must agree and whose result must
// pass its certificate. It returns the last round's bases and the
// number of masters solved.
func ReplayMasters(in *Instance, Q []Ordering, first int, b Thresholds, from *MasterReplay) (*MasterReplay, int, error) {
	r := &MasterReplay{}
	if from != nil {
		*r = *from
	}
	for k := first; k <= len(Q); k++ {
		var err error
		r.basis, r.ref, err = masterStep(in, Q[:k], in.PalBatch(Q[:k], b), r.basis, r.ref)
		if err != nil {
			return nil, 0, fmt.Errorf("%d columns: %w", k, err)
		}
	}
	return r, len(Q) - first + 1, nil
}

// SignatureDiff checks in's indexed signatures against the dense loops
// they replaced (see signatureDiff), for the workload tests in package
// game_test.
func SignatureDiff(in *Instance, seed int64) error { return signatureDiff(in, seed) }

// DeltaMemoSize returns the number of short-prefix deltas memoized on
// in, for the memo tests in package game_test.
func DeltaMemoSize(in *Instance) int { return in.deltas.size() }

func (dm *deltaMemo) size() int {
	dm.mu.RLock()
	defer dm.mu.RUnlock()
	return len(dm.m)
}
