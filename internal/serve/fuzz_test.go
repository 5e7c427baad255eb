package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"auditgame"
)

// fuzzSession builds a fresh server for one fuzz input, so every input
// meets the same state: a small MethodCGGS session on trackedGame with
// a policy installed and a drift tracker attached. The tracker's window
// is pre-filled and its hysteresis is off, so the detector runs on every
// observed period; its total-variation threshold is out of reach, so it
// never fires and no refit job runs in the background.
func fuzzSession(t testing.TB) (*auditgame.Auditor, http.Handler) {
	t.Helper()
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game:   trackedGame(),
		Budget: 3,
		Method: auditgame.MethodCGGS,
		Source: auditgame.SourceOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	det := auditgame.NewDistanceDetector()
	det.TVThreshold = 2
	tr, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 10, MinInterval: -1, Cooldown: -1, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(tr, auditgame.RefitOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := a.Observe([]int{5, 3}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Auditor: a, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	return a, s.Handler()
}

// fuzzPost sends body to path through h and returns the status and the
// response body.
func fuzzPost(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// fuzzPeriods reads the tracker's period count from GET /v1/drift.
func fuzzPeriods(t *testing.T, h http.Handler) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/drift", nil))
	var drift DriftResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &drift); err != nil || drift.State == nil {
		t.Fatalf("/v1/drift: status %d, body %s, err %v", rec.Code, rec.Body.Bytes(), err)
	}
	return drift.State.Periods
}

// countBodySeeds are the seed inputs both fuzzers share: an empty body,
// a wrong-length body, a newer wire version, a negative count, and a
// count of 2×10⁹ — a valid JSON integer far inside the body cap.
var countBodySeeds = []string{
	``,
	`{"counts":[5,3]}`,
	`{"counts":[1,2,3]}`,
	fmt.Sprintf(`{"v":%d,"counts":[5,3]}`, APIVersion+1),
	`{"counts":[5,-50]}`,
	`{"counts":[2000000000,3]}`,
}

// FuzzSelectBody posts arbitrary bytes to /v1/select. No body may
// panic the server or earn a 5xx, and every 200 answer must audit a
// sorted, distinct, in-range subset of each type's alerts within the
// policy budget.
func FuzzSelectBody(f *testing.F) {
	for _, s := range countBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		a, h := fuzzSession(t)
		budget := a.Policy().Budget
		code, resp := fuzzPost(h, "/v1/select", body)
		if code >= 500 {
			t.Fatalf("select %q: status %d: %s", body, code, resp)
		}
		if code != http.StatusOK {
			return
		}
		var req SelectRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("select %q answered 200 but does not decode: %v", body, err)
		}
		var sel SelectResponse
		if err := json.Unmarshal(resp, &sel); err != nil {
			t.Fatal(err)
		}
		if len(sel.Chosen) != len(req.Counts) {
			t.Fatalf("select %q: %d chosen lists for %d counts", body, len(sel.Chosen), len(req.Counts))
		}
		for typ, chosen := range sel.Chosen {
			for i, v := range chosen {
				if v < 0 || v >= req.Counts[typ] || (i > 0 && v <= chosen[i-1]) {
					t.Fatalf("select %q: type %d chose %v, not sorted, distinct and in [0, %d)", body, typ, chosen, req.Counts[typ])
				}
			}
		}
		if sel.Spent > budget+1e-9 {
			t.Fatalf("select %q: spent %v over the budget %v", body, sel.Spent, budget)
		}
	})
}

// FuzzObserveBody posts arbitrary bytes to /v1/observe, then a valid
// body. No body may panic the server or earn a 5xx; a 4xx must record
// nothing and a 200 exactly one period, as /v1/drift reports; a
// negative count must be refused; and the valid body that follows must
// always be accepted.
func FuzzObserveBody(f *testing.F) {
	for _, s := range countBodySeeds {
		f.Add([]byte(s))
	}
	valid := []byte(`{"counts":[5,3]}`)
	f.Fuzz(func(t *testing.T, body []byte) {
		_, h := fuzzSession(t)
		before := fuzzPeriods(t, h)
		code, resp := fuzzPost(h, "/v1/observe", body)
		after := fuzzPeriods(t, h)
		switch {
		case code >= 500:
			t.Fatalf("observe %q: status %d: %s", body, code, resp)
		case code == http.StatusOK && after != before+1:
			t.Fatalf("observe %q answered 200 but periods went %d → %d", body, before, after)
		case code != http.StatusOK && after != before:
			t.Fatalf("observe %q answered %d but periods went %d → %d", body, code, before, after)
		}
		if code == http.StatusOK {
			var req ObserveRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("observe %q answered 200 but does not decode: %v", body, err)
			}
			for _, c := range req.Counts {
				if c < 0 {
					t.Fatalf("observe %q answered 200 for a negative count", body)
				}
			}
		}
		if code, resp := fuzzPost(h, "/v1/observe", valid); code != http.StatusOK {
			t.Fatalf("valid observe after %q: status %d: %s", body, code, resp)
		}
		if got := fuzzPeriods(t, h); got != after+1 {
			t.Fatalf("valid observe after %q: periods went %d → %d", body, after, got)
		}
	})
}

// checkpointSeeds returns the FuzzCheckpointRestore seeds: a real
// checkpoint as writeCheckpointFile writes it, that file torn in half,
// and versions of it with format version 2, policy version 0, policy
// version MaxUint64 and the policy of another game.
func checkpointSeeds(t testing.TB) [][]byte {
	t.Helper()
	a := solvedAuditor(t)
	s, err := New(Config{Auditor: a, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	s.cfg.CheckpointPath = filepath.Join(t.TempDir(), "checkpoint.json")
	p, v := a.CurrentPolicy()
	if err := s.writeCheckpointFile(p, v); err != nil {
		t.Fatal(err)
	}
	real, err := os.ReadFile(s.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(mut func(*checkpointFile)) []byte {
		var ck checkpointFile
		if err := json.Unmarshal(real, &ck); err != nil {
			t.Fatal(err)
		}
		mut(&ck)
		raw, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	other, _ := fuzzSession(t)
	return [][]byte{
		real,
		real[:len(real)/2],
		edit(func(ck *checkpointFile) { ck.V = 2 }),
		edit(func(ck *checkpointFile) { ck.PolicyVersion = 0 }),
		edit(func(ck *checkpointFile) { ck.PolicyVersion = math.MaxUint64 }),
		edit(func(ck *checkpointFile) { ck.Policy = other.Policy() }),
	}
}

// FuzzCheckpointRestore writes arbitrary bytes as the checkpoint file
// of a fresh Syn A session's server. Restore may refuse them but must
// not panic; a checkpoint it accepts must serve a policy that validates,
// covers the game's alert types and selects, under a version in
// [1, MaxUint64) that the next install advances by one.
func FuzzCheckpointRestore(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "checkpoint.json")
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		a, err := auditgame.NewAuditor(auditgame.AuditorConfig{Workload: "syna", Budget: 8, Method: auditgame.MethodExact})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(Config{Auditor: a, CheckpointPath: path, Logger: slog.New(slog.DiscardHandler)}); err != nil {
			return
		}
		p, v := a.CurrentPolicy()
		if p == nil {
			t.Fatalf("restore of %q succeeded without a policy", raw)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("restored policy does not validate: %v", err)
		}
		g, err := a.Game()
		if err != nil {
			t.Fatal(err)
		}
		if len(p.TypeNames) != g.NumTypes() {
			t.Fatalf("restored a %d-type policy on a %d-type game", len(p.TypeNames), g.NumTypes())
		}
		if v == 0 || v == math.MaxUint64 {
			t.Fatalf("restored version %d", v)
		}
		if _, sv, err := a.SelectVersioned([]int{5, 5, 5, 5}); err != nil || sv != v {
			t.Fatalf("select on the restored policy: version %d (restored %d), err %v", sv, v, err)
		}
		if err := a.SetPolicy(p); err != nil {
			t.Fatal(err)
		}
		if got := a.PolicyVersion(); got != v+1 {
			t.Fatalf("install after restoring version %d got %d", v, got)
		}
	})
}
