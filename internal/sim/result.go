package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// PeriodPoint is one period of the output time series.
type PeriodPoint struct {
	Period int `json:"period"`
	// Loss is the serving policy's expected loss under the true model;
	// OptLoss the reference loss on the same model and realization
	// bank — one CGGS solve at the true model's caps, a heuristic and
	// not an optimum (ISHM can beat it); Regret and CumRegret their
	// running difference.
	Loss      float64 `json:"loss"`
	OptLoss   float64 `json:"opt_loss"`
	Regret    float64 `json:"regret"`
	CumRegret float64 `json:"cum_regret"`
	// PolicyVersion identifies the install that served this period.
	PolicyVersion uint64 `json:"policy_version"`
	// Drift reports the tracker fired on this period's counts; Refit is
	// the outcome of the re-solve it (or the cron schedule) triggered
	// ("installed", "gated", or empty).
	Drift bool   `json:"drift,omitempty"`
	Refit string `json:"refit,omitempty"`
	// Mounted/Raised/Detected describe the attacker's period; Predicted
	// is the model's Pat for the mounted attack under the serving
	// policy.
	Mounted   bool    `json:"mounted,omitempty"`
	Raised    bool    `json:"raised,omitempty"`
	Detected  bool    `json:"detected,omitempty"`
	Predicted float64 `json:"predicted,omitempty"`
}

// DriftRecord describes one injected drift and the loop's response.
type DriftRecord struct {
	// Period is when the injection took effect; Kind its shape.
	Period int    `json:"period"`
	Kind   string `json:"kind"`
	// RecoveredAt is the first period at or after the injection whose
	// instantaneous regret was back within the recovery tolerance, −1
	// if the run ended unrecovered; TimeToRecover is the difference.
	RecoveredAt   int `json:"recovered_at"`
	TimeToRecover int `json:"time_to_recover"`
}

// Result is one complete simulation run: the reproducibility
// fingerprint, the summary metrics, and the per-period curves.
type Result struct {
	Scenario string  `json:"scenario"`
	Strategy string  `json:"strategy"`
	Seed     int64   `json:"seed"`
	Horizon  int     `json:"horizon"`
	Budget   float64 `json:"budget"`

	// Events is the kernel's dispatched-event count; TraceHash the
	// FNV-64a digest of the dispatched sequence — two runs with equal
	// hashes dispatched the identical event trace.
	Events    int    `json:"events"`
	TraceHash string `json:"trace_hash"`

	// CumRegret is the final cumulative regret vs the per-period
	// reference solve (PeriodPoint.OptLoss).
	CumRegret float64 `json:"cum_regret"`
	// NegativeRegretPeriods counts the periods whose regret is below
	// −1e-9: the serving policy beat the reference solve. The scenarios
	// show none; a count above 0 flags a reference that stopped being
	// a fair yardstick, as a type whose threshold cap fell to 0 once
	// made it.
	NegativeRegretPeriods int `json:"negative_regret_periods"`

	// Attack/detection accounting: EmpiricalDetection is
	// Detected/Mounted, PredictedDetection the mean model Pat over
	// mounted attacks — the replay-style cross-check.
	AttacksMounted     int     `json:"attacks_mounted"`
	AlertsRaised       int     `json:"alerts_raised"`
	AttacksDetected    int     `json:"attacks_detected"`
	Refrained          int     `json:"refrained"`
	EmpiricalDetection float64 `json:"empirical_detection"`
	PredictedDetection float64 `json:"predicted_detection"`

	// Refit accounting.
	DriftFires      int `json:"drift_fires"`
	Refits          int `json:"refits"`
	RefitsInstalled int `json:"refits_installed"`
	RefitsGated     int `json:"refits_gated"`

	Drifts []DriftRecord `json:"drifts,omitempty"`
	Points []PeriodPoint `json:"points"`
}

// WriteJSON writes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes the per-period curves as CSV with a header row —
// the plotting-friendly view of Points.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "period,loss,opt_loss,regret,cum_regret,policy_version,drift,refit,mounted,raised,detected,predicted"); err != nil {
		return err
	}
	for _, p := range r.Points {
		_, err := fmt.Fprintf(w, "%d,%s,%s,%s,%s,%d,%s,%s,%s,%s,%s,%s\n",
			p.Period,
			num(p.Loss), num(p.OptLoss), num(p.Regret), num(p.CumRegret),
			p.PolicyVersion,
			boolField(p.Drift), p.Refit,
			boolField(p.Mounted), boolField(p.Raised), boolField(p.Detected),
			num(p.Predicted))
		if err != nil {
			return err
		}
	}
	return nil
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func boolField(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
