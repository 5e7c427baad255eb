package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"auditgame"
)

// trackedGame is a small two-type game whose exact solves are fast
// enough for a refit round trip per test.
func trackedGame() *auditgame.Game {
	g := &auditgame.Game{
		Entities:      []auditgame.Entity{{Name: "insider", PAttack: 0.6}},
		Victims:       []string{"db-a", "db-b"},
		AllowNoAttack: true,
	}
	means := []float64{5, 3}
	stds := []float64{1.5, 1.2}
	benefits := []float64{6, 8}
	var attacks []auditgame.Attack
	for t := 0; t < 2; t++ {
		g.Types = append(g.Types, auditgame.AlertType{
			Name: fmt.Sprintf("type-%d", t),
			Cost: 1,
			Dist: auditgame.GaussianCounts(means[t], stds[t], 0.995),
		})
		attacks = append(attacks, auditgame.DeterministicAttack(2, t, benefits[t], 10, 1))
	}
	g.Attacks = [][]auditgame.Attack{attacks}
	return g
}

// trackedServer builds a solved session with a drift tracker attached
// and a test server in front of it.
func trackedServer(t *testing.T) (*auditgame.Auditor, string) {
	t.Helper()
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game:   trackedGame(),
		Budget: 3,
		Method: auditgame.MethodExact,
		Source: auditgame.SourceOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Any strict improvement installs.
	if err := a.AttachTracker(tr, auditgame.RefitOptions{MinLossDelta: 0}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Auditor: a})
	return a, ts.URL
}

// observe posts one period's counts and decodes the tracker's answer.
func observe(t *testing.T, url string, counts []int) ObserveResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/observe", ObserveRequest{Counts: counts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: status %d: %s", resp.StatusCode, body)
	}
	var out ObserveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sampleCounts draws one period of counts from per-type gaussians.
func sampleCounts(r *rand.Rand, means []float64) []int {
	counts := make([]int, len(means))
	for i, m := range means {
		counts[i] = auditgame.GaussianCounts(m, 1.5, 0.995).Sample(r)
	}
	return counts
}

// TestServeRefitEndToEnd is the acceptance path: a stationary workload
// fed through POST /v1/observe triggers nothing, then a step-changed
// workload of equal length fires drift, the background refit job
// installs a new policy version, and /v1/policy + /v1/drift report it.
func TestServeRefitEndToEnd(t *testing.T) {
	_, url := trackedServer(t)
	r := rand.New(rand.NewSource(23))
	const days = 30

	// Phase 1: thirty stationary days drawn from the installed model.
	for day := 0; day < days; day++ {
		if out := observe(t, url, sampleCounts(r, []float64{5, 3})); out.Drift {
			t.Fatalf("stationary day %d fired drift: %+v", day, out)
		}
	}
	var drift DriftResponse
	getJSON(t, url+"/v1/drift", &drift)
	if !drift.Attached || drift.State == nil {
		t.Fatalf("drift response %+v, want an attached tracker", drift)
	}
	if drift.State.Periods != days || drift.State.Fires != 0 {
		t.Fatalf("after stationary phase: %d periods, %d fires; want %d and 0",
			drift.State.Periods, drift.State.Fires, days)
	}
	if drift.State.Checks == 0 {
		t.Fatal("detector never ran during the stationary phase")
	}
	var pol PolicyResponse
	getJSON(t, url+"/v1/policy", &pol)
	if pol.PolicyVersion != 1 {
		t.Fatalf("policy version %d after stationary phase, want 1", pol.PolicyVersion)
	}

	// Phase 2: the workload steps to ~3× — drift must fire within an
	// equally long run and launch a refit job.
	var jobID string
	for day := 0; day < days; day++ {
		out := observe(t, url, sampleCounts(r, []float64{15, 9}))
		if out.Drift {
			jobID = out.RefitJobID
			break
		}
	}
	if jobID == "" {
		t.Fatalf("step-changed workload never fired drift within %d days", days)
	}

	// The refit job runs in the background; poll it to completion.
	deadline := time.Now().Add(30 * time.Second)
	var job JobResponse
	for {
		getJSON(t, url+"/v1/solve/"+jobID, &job)
		if job.Status != jobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refit job %s still running: %+v", jobID, job)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Status != jobDone || job.PolicyVersion != 2 {
		t.Fatalf("refit job = %+v, want done with policy version 2", job)
	}

	getJSON(t, url+"/v1/policy", &pol)
	if pol.PolicyVersion != 2 {
		t.Fatalf("policy version %d after refit, want 2", pol.PolicyVersion)
	}
	getJSON(t, url+"/v1/drift", &drift)
	if drift.State.Fires == 0 || drift.State.InstalledVersion != 2 {
		t.Fatalf("drift state after refit = %+v, want ≥1 fire and installed version 2", drift.State)
	}
	if drift.RefitJobID != jobID {
		t.Fatalf("drift reports refit job %q, want %q", drift.RefitJobID, jobID)
	}

	// Selection keeps working and is answered by the refit policy.
	resp, body := postJSON(t, url+"/v1/select", SelectRequest{Counts: []int{12, 8}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select after refit: status %d: %s", resp.StatusCode, body)
	}
	var sel SelectResponse
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatal(err)
	}
	if sel.PolicyVersion != 2 {
		t.Fatalf("select answered by policy version %d, want 2", sel.PolicyVersion)
	}
}

// TestServeRefitPersistsArtifact pins that an installed refit is
// written back to the policy artifact — otherwise a SIGHUP reload or a
// restart would silently revert the server to the stale pre-drift
// policy — and that the write updates the watch fingerprint so the
// mtime poll does not re-install the server's own write.
func TestServeRefitPersistsArtifact(t *testing.T) {
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game:   trackedGame(),
		Budget: 3,
		Method: auditgame.MethodExact,
		Source: auditgame.SourceOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(tr, auditgame.RefitOptions{MinLossDelta: 0}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "policy.json")
	s, ts := newTestServer(t, Config{Auditor: a, PolicyPath: path, PollInterval: -1})

	// Stale pre-drift artifact on disk, as -solve-on-start would leave.
	if err := writePolicy(path, a.Policy()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.reloadIfModified(); err != nil {
		t.Fatal(err)
	}

	// Drive a drift firing and wait out the refit job.
	r := rand.New(rand.NewSource(23))
	var jobID string
	for day := 0; day < 60 && jobID == ""; day++ {
		if out := observe(t, ts.URL, sampleCounts(r, []float64{15, 9})); out.Drift {
			jobID = out.RefitJobID
		}
	}
	if jobID == "" {
		t.Fatal("drift never fired")
	}
	deadline := time.Now().Add(30 * time.Second)
	var job JobResponse
	for {
		getJSON(t, ts.URL+"/v1/solve/"+jobID, &job)
		if job.Status != jobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refit job still running: %+v", job)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Status != jobDone || job.PolicyVersion == 0 {
		t.Fatalf("refit job = %+v, want an installed refit", job)
	}

	// The artifact on disk must now be the refit policy...
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	onDisk, err := auditgame.LoadPolicy(f)
	if err != nil {
		t.Fatal(err)
	}
	cur, version := a.CurrentPolicy()
	if version != job.PolicyVersion {
		t.Fatalf("serving version %d, refit job installed %d", version, job.PolicyVersion)
	}
	if onDisk.ExpectedLoss != cur.ExpectedLoss || fmt.Sprint(onDisk.Thresholds) != fmt.Sprint(cur.Thresholds) {
		t.Fatalf("artifact on disk (loss %v, thresholds %v) is not the refit policy (loss %v, thresholds %v)",
			onDisk.ExpectedLoss, onDisk.Thresholds, cur.ExpectedLoss, cur.Thresholds)
	}
	// ...and the poll fingerprint must already cover the write, so the
	// next poll does not bump the version again.
	changed, err := s.reloadIfModified()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("mtime poll re-installed the server's own refit write")
	}
	if _, v := a.CurrentPolicy(); v != version {
		t.Fatalf("version moved %d → %d without any new install", version, v)
	}
}

// TestServeRefitWarmCounters pins the warm-start surface: on a
// MethodCGGS session with pinned thresholds, a drift-triggered refit
// reuses the session's persisted solve state, and both the job DTO and
// GET /v1/drift report the warm accounting.
func TestServeRefitWarmCounters(t *testing.T) {
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game:   trackedGame(),
		Budget: 3,
		Method: auditgame.MethodCGGS,
		CGGS:   auditgame.CGGSConfig{ExhaustiveOracle: true},
		Source: auditgame.SourceOptions{Seed: 1},
		// Pinned thresholds keep the refit structurally compatible with
		// the persisted state; the default per-model caps would widen
		// under drift and legitimately force the refit cold.
		Thresholds: auditgame.Thresholds{3, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm == nil || res.Warm.Warm {
		t.Fatalf("initial CGGS solve warm accounting = %+v, want cold", res.Warm)
	}
	tr, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(tr, auditgame.RefitOptions{MinLossDelta: 0}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Auditor: a})

	r := rand.New(rand.NewSource(23))
	var jobID string
	for day := 0; day < 60 && jobID == ""; day++ {
		if out := observe(t, ts.URL, sampleCounts(r, []float64{15, 9})); out.Drift {
			jobID = out.RefitJobID
		}
	}
	if jobID == "" {
		t.Fatal("drift never fired")
	}
	deadline := time.Now().Add(30 * time.Second)
	var job JobResponse
	for {
		getJSON(t, ts.URL+"/v1/solve/"+jobID, &job)
		if job.Status != jobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refit job still running: %+v", job)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Status != jobDone {
		t.Fatalf("refit job = %+v, want done", job)
	}
	if job.Warm == nil || !job.Warm.Warm || job.Warm.ColumnsReused == 0 || job.Warm.PricingRounds == 0 {
		t.Fatalf("refit job warm accounting = %+v, want a warm solve with reused columns", job.Warm)
	}
	var drift DriftResponse
	getJSON(t, ts.URL+"/v1/drift", &drift)
	if drift.RefitJobID != jobID {
		t.Fatalf("drift reports refit job %q, want %q", drift.RefitJobID, jobID)
	}
	if drift.LastRefitWarm == nil || !drift.LastRefitWarm.Warm {
		t.Fatalf("drift last_refit_warm = %+v, want the refit's warm accounting", drift.LastRefitWarm)
	}
	if *drift.LastRefitWarm != *job.Warm {
		t.Fatalf("drift warm accounting %+v != job's %+v", *drift.LastRefitWarm, *job.Warm)
	}
}

func writePolicy(path string, p *auditgame.Policy) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestServeObserveWithoutTracker pins the config-error contract: a
// server whose session has no tracker answers /v1/observe with 409 and
// /v1/drift with attached=false.
func TestServeObserveWithoutTracker(t *testing.T) {
	aud := solvedAuditor(t)
	_, ts := newTestServer(t, Config{Auditor: aud})
	resp, body := postJSON(t, ts.URL+"/v1/observe", ObserveRequest{Counts: []int{5, 1, 2, 3}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("observe without tracker: status %d (%s), want 409", resp.StatusCode, body)
	}
	var drift DriftResponse
	getJSON(t, ts.URL+"/v1/drift", &drift)
	if drift.Attached || drift.State != nil {
		t.Fatalf("drift without tracker = %+v, want detached", drift)
	}
	if drift.PolicyVersion != 1 {
		t.Fatalf("drift policy version %d, want 1", drift.PolicyVersion)
	}
}

// TestServeObserveBadRequest covers the remaining error mappings.
func TestServeObserveBadRequest(t *testing.T) {
	_, url := trackedServer(t)
	// Wrong count arity is a client error.
	resp, _ := postJSON(t, url+"/v1/observe", ObserveRequest{Counts: []int{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mis-sized observe: status %d, want 400", resp.StatusCode)
	}
	// A newer wire version is rejected up front.
	resp, _ = postJSON(t, url+"/v1/observe", ObserveRequest{V: APIVersion + 1, Counts: []int{5, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("future-version observe: status %d, want 400", resp.StatusCode)
	}
}
