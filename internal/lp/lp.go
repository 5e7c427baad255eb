// Package lp is a dense two-phase primal simplex solver for linear
// programs in computational standard form:
//
//	minimize cᵀx  subject to  Ax = b,  x ≥ 0,  b ≥ 0.
//
// It exists because the audit game's restricted master (Eq. 5, solved
// once per brute-force grid point and once per column-generation round)
// needs exact primal and dual solutions and the Go standard library
// ships no optimization code. The caller writes A, b and c straight into
// a Workspace and names, for each row, a crash column — a unit column
// with +1 in that row — or none, in which case the row starts on its
// artificial. Problems are hundreds of rows and columns, where a dense
// tableau is both simple and fast, and a Workspace keeps its storage
// across solves so a caller solving thousands of small LPs allocates
// almost nothing.
//
// The tableau is stored dense and column-major, column j of an m-row
// problem at tab[j*m:(j+1)*m], so the ratio test, the warm install's
// row choice and the pricing of a new objective each read contiguous
// columns. A pivot gathers the pivot row's nonzeros, a strided read,
// and updates only those columns: by index over just the rows with a
// nonzero in the entering column when fewer than a quarter of the rows
// have one, and otherwise by sweeping the whole column (the
// density-driven choice of Hall and McKinnon, "Hyper-sparsity in the
// revised simplex method and how to exploit it", 2005). A restricted
// master's pivot rows are mostly zeros, and most of its pivots touch
// most rows.
//
// A solve can start warm from an earlier basis (Options.Warm). Its
// columns are pivoted in directly; when the new data leaves some basic
// values negative, one pivot on an auxiliary column x₀ (Chvátal 1983,
// ch. 3) makes the basis feasible, and phase 1 starts from it.
//
// Pricing is Dantzig's rule, switching to Bland's rule after a stall
// window of non-improving pivots; the ratio test breaks ties
// lexicographically. Neither is a termination proof here: the ratio
// test skips rows whose pivot entry is below pivotTol, and columns that
// are numerically unusable at a basis are blocked until the next pivot,
// and both void the lexicographic argument. Termination is unproven:
// Options.MaxIter bounds the work and reports IterationLimit.
package lp

import "fmt"

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means no feasible point exists.
	Infeasible
	// Unbounded means the objective is unbounded below.
	Unbounded
	// IterationLimit means the solver hit MaxIter before converging.
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// eps is the feasibility/optimality tolerance.
const eps = 1e-9

// Options tunes the solver.
type Options struct {
	// MaxIter caps simplex pivots per phase. Zero means 200·(m+n+10).
	MaxIter int
	// Bland forces Bland's rule from the first pivot (used by the
	// pivot-rule ablation; normally the solver starts with Dantzig and
	// falls back on stall).
	Bland bool
	// Warm is an advisory starting basis: columns to pivot into the
	// basis before phase 1, typically Result.Basis of an earlier solve
	// of a related problem with its columns renumbered. Entries that
	// are not structural columns of this problem, or that would make
	// the basis singular, are skipped. A basis infeasible under this
	// problem's data is kept: phase 1 starts from it with the auxiliary
	// column x₀ basic. So a stale basis can only cost pivots, never
	// correctness.
	Warm []int
}

// Result is the outcome of Workspace.Solve. X, Y and Basis alias the
// workspace's storage: they are valid until its next Reset.
type Result struct {
	Status Status
	// Objective is cᵀx, recomputed from the basic values.
	Objective float64
	// X holds the n column values, Y the m row duals (the derivative
	// of the optimal objective with respect to each bᵢ), and Basis the
	// column basic in each row (≥ n for an artificial or x₀). All
	// three are nil unless Status is Optimal.
	X, Y  []float64
	Basis []int
	// Iterations is the total number of pivots across both phases,
	// the warm install and the auxiliary pivot included, and those
	// that drive artificials out between the phases.
	Iterations int
	// Phase is the simplex phase the solve ended in: 1 for a phase-1
	// iteration limit or an infeasible problem, 2 otherwise.
	Phase int
}

// Workspace holds one standard-form problem and the simplex working set
// that solves it. The zero value is ready to use. Reset sizes it for a
// problem; the caller then writes A, B, C and Crash and calls Solve.
// Storage grows with headroom and is reused across Resets; every value
// is re-initialised for each problem, so a reused workspace solves
// bitwise as a fresh one does. A Workspace is not safe for concurrent
// use.
type Workspace struct {
	m, n int

	// A is the m×n constraint matrix, column-major: column j at
	// A[j*m:(j+1)*m], written through Col. B holds the m right-hand
	// sides, each ≥ 0; C the n costs. Crash[i] is the column that
	// starts basic in row i — it must be a unit column with +1 in row
	// i — or −1 to start the row on its artificial.
	A     []float64
	B     []float64
	C     []float64
	Crash []int

	// The tableau [B⁻¹A | B⁻¹ | x₀] has n+m+1 columns of m entries,
	// stored like A: column j at tab[j*m:(j+1)*m]. It starts at
	// [A | I | 0], so load is one copy of A and the artificial
	// diagonal. The artificial block is kept through phase 2 (barred
	// from entering) because its reduced costs are the duals and its
	// rows order the lexicographic ratio test. Column n+m is the
	// auxiliary x₀ that makes an infeasible warm install feasible
	// (auxiliaryPivot); in every other solve it stays zero and never
	// enters.
	tab     []float64
	rhs     []float64 // current basic values
	phase1  []float64 // n+m+1 phase-1 costs: 1 on each artificial and x₀
	phase2  []float64 // n+m+1 phase-2 costs: C, then 0
	cbar    []float64 // n+m+1 reduced costs
	z       float64   // current phase objective, updated per pivot
	basis   []int     // basis[i] = column basic in row i
	inb     []bool    // inb[j] = column j is basic
	blocked []bool    // columns numerically unusable at this basis
	ties    []int     // the ratio test's tied rows
	claimed []bool    // warmInstall: rows already holding a target
	want    []bool    // warmInstall: target columns
	nzCol   []int     // pivot: the pivot row's nonzero columns
	nzVal   []float64 // pivot: their scaled values
	mult    []float64 // pivot: the entering column, 0 in row r; setObjective: the nonzero basic costs
	touched []int     // pivot: the rows with a nonzero multiplier; setObjective: the rows of those costs
	x, y    []float64 // results
}

// grow returns s resliced to length k, reallocating with half again as
// much headroom when its capacity is short: a column-generation master
// gains one column per round, and exact-fit growth would reallocate
// every round.
func grow[T any](s []T, k int) []T {
	if cap(s) < k {
		return make([]T, k, k+k/2)
	}
	return s[:k]
}

// Reset sizes the workspace for an m-row, n-column problem and clears
// A, B and C to zero and Crash to −1.
func (w *Workspace) Reset(m, n int) {
	w.m, w.n = m, n
	w.A = grow(w.A, m*n)
	clear(w.A)
	w.B = grow(w.B, m)
	clear(w.B)
	w.C = grow(w.C, n)
	clear(w.C)
	w.Crash = grow(w.Crash, m)
	for i := range w.Crash {
		w.Crash[i] = -1
	}
	w.tab = grow(w.tab, m*(n+m+1))
	w.rhs = grow(w.rhs, m)
	w.phase1 = grow(w.phase1, n+m+1)
	w.phase2 = grow(w.phase2, n+m+1)
	w.cbar = grow(w.cbar, n+m+1)
	w.basis = grow(w.basis, m)
	w.inb = grow(w.inb, n+m+1)
	w.blocked = grow(w.blocked, n+m+1)
	w.claimed = grow(w.claimed, m)
	w.want = grow(w.want, n+m)
	w.nzCol = grow(w.nzCol, n+m+1)
	w.nzVal = grow(w.nzVal, n+m+1)
	w.mult = grow(w.mult, m)
	w.touched = grow(w.touched, m)
	w.x = grow(w.x, n)
	w.y = grow(w.y, m)
}

// Col returns column j of A, for writing.
func (w *Workspace) Col(j int) []float64 { return w.A[j*w.m : (j+1)*w.m] }
