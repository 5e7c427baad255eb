package game

import (
	"fmt"
	"math"

	"auditgame/internal/lp"
)

// This file keeps the general-form path the restricted master used to
// be built through — a named-variable, map-backed LP builder, its
// conversion to standard form, and the lp-level basis it translated
// warm starts through — as the reference the direct master
// (writeMaster, MasterBasis.columns) must match bit for bit. Both feed
// the same simplex, so equal standard forms and warm columns mean equal
// pivots and equal results.

type refBound int

const (
	refNonNegative refBound = iota
	refFree
)

type refRel int

const (
	refLE refRel = iota
	refGE
	refEQ
)

type refVar struct {
	name  string
	bound refBound
	obj   float64
	shift float64 // lower-bound shift; the master's variables have none
}

type refConstr struct {
	name  string
	rel   refRel
	rhs   float64
	coeff map[int]float64
}

// refProblem is the minimizing LP builder.
type refProblem struct {
	vars []refVar
	cons []refConstr
}

func (p *refProblem) addVar(name string, bound refBound, obj float64) int {
	p.vars = append(p.vars, refVar{name: name, bound: bound, obj: obj})
	return len(p.vars) - 1
}

func (p *refProblem) addConstr(name string, rel refRel, rhs float64) int {
	p.cons = append(p.cons, refConstr{name: name, rel: rel, rhs: rhs, coeff: make(map[int]float64)})
	return len(p.cons) - 1
}

func (p *refProblem) setCoeff(c, v int, coeff float64) {
	if v < 0 || v >= len(p.vars) {
		panic(fmt.Sprintf("refProblem: setCoeff: variable %d out of range [0,%d)", v, len(p.vars)))
	}
	p.cons[c].coeff[v] = coeff
}

// refStandard is a refProblem in standard form, with the bookkeeping to
// map a solution back.
type refStandard struct {
	m, n     int
	a        []float64 // m×n, column-major as lp.Workspace.A
	b, c     []float64
	colOfVar []int
	negCol   []int
	slackCol []int
	crashCol []int
	rowFlip  []bool
	// objOffset is Σ obj·shift over the variables: +0 for the master,
	// added to the reported objective (turning a −0 into +0).
	objOffset float64
}

func (p *refProblem) toStandard() *refStandard {
	s := &refStandard{
		m:        len(p.cons),
		colOfVar: make([]int, len(p.vars)),
		negCol:   make([]int, len(p.vars)),
		crashCol: make([]int, len(p.cons)),
		rowFlip:  make([]bool, len(p.cons)),
	}
	n := 0
	for i, v := range p.vars {
		s.colOfVar[i] = n
		n++
		if v.bound == refFree {
			s.negCol[i] = n
			n++
		} else {
			s.negCol[i] = -1
		}
	}
	s.slackCol = make([]int, len(p.cons))
	for i, con := range p.cons {
		if con.rel == refEQ {
			s.slackCol[i] = -1
			continue
		}
		s.slackCol[i] = n
		n++
	}
	s.n = n
	s.a = make([]float64, s.m*s.n)
	s.b = make([]float64, s.m)
	s.c = make([]float64, s.n)

	sign := 1.0
	for i, v := range p.vars {
		s.c[s.colOfVar[i]] = sign * v.obj
		if s.negCol[i] >= 0 {
			s.c[s.negCol[i]] = -sign * v.obj
		}
		s.objOffset += v.obj * v.shift
	}
	row := make([]float64, s.n)
	for i, con := range p.cons {
		clear(row)
		rhs := con.rhs
		for v, coeff := range con.coeff {
			row[s.colOfVar[v]] += coeff
			if s.negCol[v] >= 0 {
				row[s.negCol[v]] -= coeff
			}
			rhs -= coeff * p.vars[v].shift
		}
		switch con.rel {
		case refLE:
			row[s.slackCol[i]] = 1
		case refGE:
			row[s.slackCol[i]] = -1
		}
		s.b[i] = rhs
		if s.b[i] < 0 {
			s.rowFlip[i] = true
			s.b[i] = -s.b[i]
			for j := range row {
				row[j] *= -1
			}
		}
		s.crashCol[i] = -1
		if s.slackCol[i] >= 0 && row[s.slackCol[i]] == 1 {
			s.crashCol[i] = s.slackCol[i]
		}
		for j, v := range row {
			s.a[j*s.m+i] = v
		}
	}
	return s
}

// refSolution is a solved refProblem in user coordinates.
type refSolution struct {
	status     lp.Status
	objective  float64
	x, dual    []float64
	basis      *refBasis
	iterations int
}

// solve writes the standard form into a fresh workspace and runs the
// simplex from the warm basis w.
func (p *refProblem) solve(w *refBasis) (*refSolution, *refStandard, []int) {
	s := p.toStandard()
	warm := s.warmCols(w)
	var ws lp.Workspace
	ws.Reset(s.m, s.n)
	copy(ws.A, s.a)
	copy(ws.B, s.b)
	copy(ws.C, s.c)
	copy(ws.Crash, s.crashCol)
	r := ws.Solve(lp.Options{Warm: warm})
	return p.fromStandard(s, r), s, warm
}

func (p *refProblem) fromStandard(s *refStandard, r lp.Result) *refSolution {
	sol := &refSolution{status: r.Status, iterations: r.Iterations}
	if r.Status != lp.Optimal {
		return sol
	}
	sol.x = make([]float64, len(p.vars))
	for i := range p.vars {
		x := r.X[s.colOfVar[i]]
		if s.negCol[i] >= 0 {
			x -= r.X[s.negCol[i]]
		}
		sol.x[i] = x + p.vars[i].shift
	}
	sol.dual = make([]float64, len(p.cons))
	for i := range p.cons {
		d := r.Y[i]
		if s.rowFlip[i] {
			d = -d
		}
		sol.dual[i] = d
	}
	sol.objective = r.Objective + s.objOffset
	sol.basis = s.basisFromCols(r.Basis)
	return sol
}

type refBasisKind uint8

const (
	refBasisArtificial refBasisKind = iota
	refBasisStructural
	refBasisSlack
)

// refBasisEntry is the column basic in one row in builder terms.
type refBasisEntry struct {
	kind refBasisKind
	v    int
	neg  bool
	row  int
}

type refBasis struct{ rows []refBasisEntry }

func (s *refStandard) warmCols(w *refBasis) []int {
	if w == nil || len(w.rows) != s.m {
		return nil
	}
	cols := make([]int, 0, s.m)
	for _, e := range w.rows {
		j := -1
		switch e.kind {
		case refBasisStructural:
			if v := e.v; v >= 0 && v < len(s.colOfVar) {
				if e.neg {
					j = s.negCol[v]
				} else {
					j = s.colOfVar[v]
				}
			}
		case refBasisSlack:
			if r := e.row; r >= 0 && r < len(s.slackCol) {
				j = s.slackCol[r]
			}
		}
		if j >= 0 {
			cols = append(cols, j)
		}
	}
	return cols
}

func (s *refStandard) basisFromCols(cols []int) *refBasis {
	byCol := make(map[int]refBasisEntry, s.n)
	for v, j := range s.colOfVar {
		byCol[j] = refBasisEntry{kind: refBasisStructural, v: v}
		if nj := s.negCol[v]; nj >= 0 {
			byCol[nj] = refBasisEntry{kind: refBasisStructural, v: v, neg: true}
		}
	}
	for r, j := range s.slackCol {
		if j >= 0 {
			byCol[j] = refBasisEntry{kind: refBasisSlack, row: r}
		}
	}
	b := &refBasis{rows: make([]refBasisEntry, len(cols))}
	for i, j := range cols {
		if e, ok := byCol[j]; ok {
			b.rows[i] = e
		} else {
			b.rows[i] = refBasisEntry{kind: refBasisArtificial}
		}
	}
	return b
}

// refMasterEntry is a MasterBasis entry with its ordering keyed, the
// way the reference stored it.
type refMasterEntry struct {
	kind masterBasisKind
	key  string
	idx  int
	neg  bool
}

type refMasterBasis struct {
	numRows int
	rows    []refMasterEntry
}

// keyed is mb in the reference's keyed form.
func (mb *MasterBasis) keyed() *refMasterBasis {
	if mb == nil {
		return nil
	}
	out := &refMasterBasis{numRows: mb.numRows, rows: make([]refMasterEntry, len(mb.rows))}
	for i, e := range mb.rows {
		out.rows[i] = refMasterEntry{kind: e.kind, idx: e.idx, neg: e.neg}
		if e.kind == mbOrdering {
			out.rows[i].key = e.o.Key()
		}
	}
	return out
}

func (mb *refMasterBasis) toLP(Q []Ordering, numQ, numRows int) *refBasis {
	if mb == nil || mb.numRows != numRows {
		return nil
	}
	at := make(map[string]int, len(Q))
	for qi, o := range Q {
		at[o.Key()] = qi
	}
	b := &refBasis{rows: make([]refBasisEntry, len(mb.rows))}
	for i, e := range mb.rows {
		switch e.kind {
		case mbOrdering:
			if qi, ok := at[e.key]; ok {
				b.rows[i] = refBasisEntry{kind: refBasisStructural, v: qi}
			}
		case mbUe:
			b.rows[i] = refBasisEntry{kind: refBasisStructural, v: numQ + e.idx, neg: e.neg}
		case mbSlack:
			b.rows[i] = refBasisEntry{kind: refBasisSlack, row: e.idx}
		}
	}
	return b
}

func refMasterBasisFromLP(b *refBasis, Q []Ordering, numQ, numRows int) *refMasterBasis {
	if b == nil {
		return nil
	}
	mb := &refMasterBasis{numRows: numRows, rows: make([]refMasterEntry, len(b.rows))}
	for i, e := range b.rows {
		switch e.kind {
		case refBasisStructural:
			if v := e.v; v < numQ {
				mb.rows[i] = refMasterEntry{kind: mbOrdering, key: Q[v].Key()}
			} else {
				mb.rows[i] = refMasterEntry{kind: mbUe, idx: v - numQ, neg: e.neg}
			}
		case refBasisSlack:
			mb.rows[i] = refMasterEntry{kind: mbSlack, idx: e.row}
		}
	}
	return mb
}

// refMaster is the reference solve of the restricted master: the
// result, its keyed basis, and the standard form and warm columns the
// simplex ran on.
type refMaster struct {
	res   *LPResult
	basis *refMasterBasis
	std   *refStandard
	warm  []int
}

func referenceSolveFixed(in *Instance, Q []Ordering, pals [][]float64, warm *refMasterBasis) (*refMaster, error) {
	var weightScale float64
	for _, cl := range in.classes {
		weightScale += cl.weight
	}
	if weightScale <= 0 {
		weightScale = 1
	}

	p := &refProblem{}
	poVars := make([]int, len(Q))
	for qi := range Q {
		poVars[qi] = p.addVar(fmt.Sprintf("po_%d", qi), refNonNegative, 0)
	}
	ueVars := make([]int, len(in.classes))
	for ci, cl := range in.classes {
		ueVars[ci] = p.addVar(fmt.Sprintf("u_%d", ci), refFree, cl.weight/weightScale)
	}
	rowCons := make([][]int, len(in.classes))
	for ci, cl := range in.classes {
		rowCons[ci] = make([]int, len(cl.sigs))
		for s, sig := range cl.sigs {
			c := p.addConstr(fmt.Sprintf("br_%d_%d", ci, s), refLE, 0)
			for qi := range Q {
				c2 := sig.ua(pals[qi])
				if c2 != 0 {
					p.setCoeff(c, poVars[qi], c2)
				}
			}
			p.setCoeff(c, ueVars[ci], -1)
			rowCons[ci][s] = c
		}
		if in.G.AllowNoAttack {
			c := p.addConstr(fmt.Sprintf("refrain_%d", ci), refGE, 0)
			p.setCoeff(c, ueVars[ci], 1)
		}
	}
	sumCon := p.addConstr("simplex", refEQ, 1)
	for _, v := range poVars {
		p.setCoeff(sumCon, v, 1)
	}

	sol, std, warmCols := p.solve(warm.toLP(Q, len(Q), len(p.cons)))
	if sol.status != lp.Optimal {
		return nil, fmt.Errorf("game: restricted LP not optimal: %v", sol.status)
	}
	res := &LPResult{
		Objective:   sol.objective * weightScale,
		Po:          make([]float64, len(Q)),
		Ue:          make([]float64, len(in.G.Entities)),
		RowDuals:    make([][]float64, len(in.classes)),
		SimplexDual: sol.dual[sumCon] * weightScale,
		Iterations:  sol.iterations,
	}
	for qi := range Q {
		v := sol.x[poVars[qi]]
		if v < 0 {
			v = 0
		}
		res.Po[qi] = v
	}
	for e := range in.G.Entities {
		res.Ue[e] = sol.x[ueVars[in.entityClass[e]]]
	}
	for ci := range in.classes {
		res.RowDuals[ci] = make([]float64, len(rowCons[ci]))
		for s, c := range rowCons[ci] {
			res.RowDuals[ci][s] = sol.dual[c] * weightScale
		}
	}
	return &refMaster{
		res:   res,
		basis: refMasterBasisFromLP(sol.basis, Q, len(Q), len(p.cons)),
		std:   std,
		warm:  warmCols,
	}, nil
}

// masterStep solves one restricted master through the direct path
// (from warm) and the reference (from refWarm), checks that both wrote
// the same standard form and warm columns and returned the same bits,
// and checks the result's certificate. It returns both bases for
// chaining the next round.
func masterStep(in *Instance, Q []Ordering, pals [][]float64, warm *MasterBasis, refWarm *refMasterBasis) (*MasterBasis, *refMasterBasis, error) {
	ref, err := referenceSolveFixed(in, Q, pals, refWarm)
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	if err := standardFormDiff(in, Q, pals, warm, ref); err != nil {
		return nil, nil, err
	}
	got, err := in.solveFixedFromPals(Q, pals, warm)
	if err != nil {
		return nil, nil, err
	}
	if err := lpResultDiff(got, ref.res); err != nil {
		return nil, nil, err
	}
	if err := basisDiff(got.Basis.keyed(), ref.basis); err != nil {
		return nil, nil, err
	}
	if err := certifyMaster(in, pals, got); err != nil {
		return nil, nil, fmt.Errorf("certificate: %w", err)
	}
	return got.Basis, ref.basis, nil
}

// standardFormDiff compares what writeMaster and MasterBasis.columns
// produce against the reference's standard form and warm columns.
func standardFormDiff(in *Instance, Q []Ordering, pals [][]float64, warm *MasterBasis, ref *refMaster) error {
	var weightScale float64
	for _, cl := range in.classes {
		weightScale += cl.weight
	}
	if weightScale <= 0 {
		weightScale = 1
	}
	l := in.masterLayout(len(Q))
	var ws lp.Workspace
	in.writeMaster(&ws, l, pals, weightScale)
	s := ref.std
	if l.m != s.m || l.n != s.n {
		return fmt.Errorf("shape %d×%d, reference %d×%d", l.m, l.n, s.m, s.n)
	}
	if err := bitsDiff("A", ws.A, s.a); err != nil {
		return err
	}
	if err := bitsDiff("b", ws.B, s.b); err != nil {
		return err
	}
	if err := bitsDiff("c", ws.C, s.c); err != nil {
		return err
	}
	if err := intsDiff("crash", ws.Crash, s.crashCol); err != nil {
		return err
	}
	return intsDiff("warm", warm.columns(Q, l), ref.warm)
}

func bitsDiff(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

func intsDiff(what string, got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %v, reference %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, reference %d", what, i, got[i], want[i])
		}
	}
	return nil
}

func lpResultDiff(got, want *LPResult) error {
	if err := bitsDiff("Objective", []float64{got.Objective}, []float64{want.Objective}); err != nil {
		return err
	}
	if err := bitsDiff("SimplexDual", []float64{got.SimplexDual}, []float64{want.SimplexDual}); err != nil {
		return err
	}
	if err := bitsDiff("Po", got.Po, want.Po); err != nil {
		return err
	}
	if err := bitsDiff("Ue", got.Ue, want.Ue); err != nil {
		return err
	}
	if len(got.RowDuals) != len(want.RowDuals) {
		return fmt.Errorf("RowDuals: %d classes, reference %d", len(got.RowDuals), len(want.RowDuals))
	}
	for ci := range got.RowDuals {
		if err := bitsDiff(fmt.Sprintf("RowDuals[%d]", ci), got.RowDuals[ci], want.RowDuals[ci]); err != nil {
			return err
		}
	}
	if got.Iterations != want.Iterations {
		return fmt.Errorf("Iterations = %d, reference %d", got.Iterations, want.Iterations)
	}
	return nil
}

func basisDiff(got, want *refMasterBasis) error {
	if got.numRows != want.numRows || len(got.rows) != len(want.rows) {
		return fmt.Errorf("basis: %d rows (%d entries), reference %d (%d)", got.numRows, len(got.rows), want.numRows, len(want.rows))
	}
	for i := range got.rows {
		if got.rows[i] != want.rows[i] {
			return fmt.Errorf("basis row %d = %+v, reference %+v", i, got.rows[i], want.rows[i])
		}
	}
	return nil
}
