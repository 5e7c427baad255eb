package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"auditgame"
	"auditgame/internal/fault"
)

// solvedAuditor returns a session bound to Syn A with a policy installed.
func solvedAuditor(t testing.TB) *auditgame.Auditor {
	t.Helper()
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Workload: "syna",
		Budget:   8,
		Method:   auditgame.MethodExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	return a
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestSelectAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{Auditor: solvedAuditor(t)})

	resp, body := postJSON(t, ts.URL+"/v1/select", SelectRequest{Counts: []int{5, 5, 5, 5}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: %d %s", resp.StatusCode, body)
	}
	var sel SelectResponse
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatal(err)
	}
	if sel.V != APIVersion || sel.PolicyVersion != 1 {
		t.Fatalf("select response meta: %+v", sel)
	}
	if len(sel.Ordering) != 4 || sel.Spent > 8+1e-9 {
		t.Fatalf("bad selection: %+v", sel)
	}

	var h HealthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if h.Status != "ok" || !h.PolicyLoaded || h.PolicyVersion != 1 {
		t.Fatalf("health: %+v", h)
	}

	var p PolicyResponse
	if resp := getJSON(t, ts.URL+"/v1/policy", &p); resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %d", resp.StatusCode)
	}
	if p.Policy == nil || len(p.Policy.TypeNames) != 4 {
		t.Fatalf("policy response: %+v", p)
	}
}

func TestSelectErrors(t *testing.T) {
	// No policy installed: 503, not 400.
	bare, err := auditgame.NewAuditor(auditgame.AuditorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Auditor: bare})
	if resp, _ := postJSON(t, ts.URL+"/v1/select", SelectRequest{Counts: []int{1}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-policy select: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/policy", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-policy policy: %d", resp.StatusCode)
	}

	// Shape and wire-version errors are 400s.
	_, ts2 := newTestServer(t, Config{Auditor: solvedAuditor(t)})
	if resp, _ := postJSON(t, ts2.URL+"/v1/select", SelectRequest{Counts: []int{1}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-arity select: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts2.URL+"/v1/select", SelectRequest{V: APIVersion + 1, Counts: []int{5, 5, 5, 5}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("future-version select: %d", resp.StatusCode)
	}
	resp, err := http.Post(ts2.URL+"/v1/select", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
}

// writeArtifact saves the auditor's current policy to path.
func writeArtifact(t *testing.T, a *auditgame.Auditor, path string) {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Policy().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestInitialLoadFromArtifact(t *testing.T) {
	src := solvedAuditor(t)
	path := filepath.Join(t.TempDir(), "policy.json")
	writeArtifact(t, src, path)

	// A fresh policy-only session picks the artifact up at startup.
	bare, err := auditgame.NewAuditor(auditgame.AuditorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Auditor: bare, PolicyPath: path})
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if !h.PolicyLoaded {
		t.Fatal("artifact not loaded at startup")
	}
	if resp, body := postJSON(t, ts.URL+"/v1/select", SelectRequest{Counts: []int{5, 5, 5, 5}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("select after artifact load: %d %s", resp.StatusCode, body)
	}

	// A corrupt artifact at startup is a hard error, not a silent skip.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"type_names":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Auditor: bare, PolicyPath: bad, Logger: slog.New(slog.DiscardHandler)}); err == nil {
		t.Fatal("corrupt startup artifact accepted")
	}
}

// TestHotReloadMidTraffic is the acceptance check: concurrent /v1/select
// traffic while the artifact is rewritten and reloaded repeatedly — every
// request must succeed and the policy version must advance.
func TestHotReloadMidTraffic(t *testing.T) {
	a := solvedAuditor(t)
	path := filepath.Join(t.TempDir(), "policy.json")
	writeArtifact(t, a, path)
	s, ts := newTestServer(t, Config{Auditor: a, PolicyPath: path, PollInterval: -1})

	const clients = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := postJSON(t, ts.URL+"/v1/select", SelectRequest{Counts: []int{5, 5, 5, 5}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("select during reload: %d %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		writeArtifact(t, a, path)
		if err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.PolicyVersion < 50 {
		t.Fatalf("policy version %d after 50 reloads", h.PolicyVersion)
	}
}

func TestMtimePollPicksUpNewArtifact(t *testing.T) {
	a := solvedAuditor(t)
	path := filepath.Join(t.TempDir(), "policy.json")
	writeArtifact(t, a, path)
	s, _ := newTestServer(t, Config{Auditor: a, PolicyPath: path})

	v0 := a.PolicyVersion()
	if changed, err := s.reloadIfModified(); err != nil || changed {
		t.Fatalf("unchanged artifact reloaded: %v %v", changed, err)
	}
	// Rewrite with a strictly newer mtime.
	time.Sleep(10 * time.Millisecond)
	writeArtifact(t, a, path)
	now := time.Now()
	if err := os.Chtimes(path, now, now); err != nil {
		t.Fatal(err)
	}
	changed, err := s.reloadIfModified()
	if err != nil || !changed {
		t.Fatalf("modified artifact not reloaded: %v %v", changed, err)
	}
	if a.PolicyVersion() != v0+1 {
		t.Fatalf("version %d after mtime reload, want %d", a.PolicyVersion(), v0+1)
	}

	// A broken rewrite is rejected and the old policy keeps serving.
	time.Sleep(10 * time.Millisecond)
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	later := time.Now().Add(time.Second)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
	if _, err := s.reloadIfModified(); err == nil {
		t.Fatal("corrupt rewrite accepted")
	}
	if a.Policy() == nil {
		t.Fatal("old policy dropped on failed reload")
	}
}

func TestSIGHUPReload(t *testing.T) {
	a := solvedAuditor(t)
	path := filepath.Join(t.TempDir(), "policy.json")
	writeArtifact(t, a, path)
	s, _ := newTestServer(t, Config{Auditor: a, PolicyPath: path, PollInterval: -1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.watch(ctx)
	}()
	// Give watch a beat to install the signal handler, then HUP ourselves.
	time.Sleep(50 * time.Millisecond)
	v0 := a.PolicyVersion()
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.PolicyVersion() == v0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if a.PolicyVersion() == v0 {
		t.Fatal("SIGHUP did not trigger a reload")
	}
	cancel()
	<-done
}

func TestSolveJobLifecycle(t *testing.T) {
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Workload: "syna",
		Budget:   8,
		Method:   auditgame.MethodExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Auditor: a})

	// Before the solve there is no policy to serve.
	if resp := getJSON(t, ts.URL+"/v1/policy", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("policy before solve: %d", resp.StatusCode)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}

	jr = pollJob(t, ts.URL, jr.JobID, 30*time.Second)
	if jr.Status != jobDone {
		t.Fatalf("job finished as %q (%s)", jr.Status, jr.Error)
	}
	if jr.PolicyVersion != 1 || jr.ExpectedLoss == 0 {
		t.Fatalf("job result: %+v", jr)
	}
	if resp := getJSON(t, ts.URL+"/v1/policy", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("policy after solve: %d", resp.StatusCode)
	}

	if resp := getJSON(t, ts.URL+"/v1/solve/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

// slowSolvePlan sleeps 50 ms at the start of every column-generation
// pricing round, so the 48-type solve below stays in flight for seconds
// however fast the solver itself is.
var slowSolvePlan = fault.Plan{Seed: 1, Rules: []fault.Rule{
	{Point: fault.SolverPricingRound, Mode: fault.ModeLatency, Prob: 1, Latency: 50 * time.Millisecond},
}}

// slowSolveAuditor is a session whose CGGS solve of a 48-type scaled
// game runs many pricing rounds.
func slowSolveAuditor(t *testing.T) *auditgame.Auditor {
	t.Helper()
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Workload:       "scaled",
		Scale:          auditgame.WorkloadScale{Entities: 2000, AlertTypes: 48, Seed: 5},
		BudgetFraction: 0.1,
		Method:         auditgame.MethodCGGS,
		Source:         auditgame.SourceOptions{BankSize: 512, Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSolveJobDeadline runs the slow solve with a request-level
// deadline and expects the job to end cancelled, well before a full
// solve could finish.
func TestSolveJobDeadline(t *testing.T) {
	a := slowSolveAuditor(t)
	_, ts := newTestServer(t, Config{Auditor: a})
	fault.Enable(slowSolvePlan)
	defer fault.Disable()

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{TimeoutSeconds: 0.2})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	jr = pollJob(t, ts.URL, jr.JobID, 30*time.Second)
	if jr.Status != jobCancelled {
		t.Fatalf("deadline job finished as %q (%s)", jr.Status, jr.Error)
	}
	if a.Policy() != nil {
		t.Fatal("cancelled solve installed a policy")
	}
}

// TestSolveJobExplicitCancel cancels a running job via DELETE, sent
// once the solve has reached its first pricing round.
func TestSolveJobExplicitCancel(t *testing.T) {
	a := slowSolveAuditor(t)
	_, ts := newTestServer(t, Config{Auditor: a})
	fault.Enable(slowSolvePlan)
	defer fault.Disable()

	_, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{})
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for fault.Snapshot().For(fault.SolverPricingRound).Hits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve job never reached its first pricing round")
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/solve/%s", ts.URL, jr.JobID), nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", dresp.StatusCode)
	}
	jr = pollJob(t, ts.URL, jr.JobID, 30*time.Second)
	if jr.Status != jobCancelled {
		t.Fatalf("cancelled job finished as %q (%s)", jr.Status, jr.Error)
	}
}

func pollJob(t *testing.T, base, id string, timeout time.Duration) JobResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var jr JobResponse
		if resp := getJSON(t, fmt.Sprintf("%s/v1/solve/%s", base, id), &jr); resp.StatusCode != http.StatusOK {
			t.Fatalf("job status: %d", resp.StatusCode)
		}
		if jr.Status != jobRunning {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after %v", id, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
