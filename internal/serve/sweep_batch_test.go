package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"cdrstoch/internal/obs"
)

// batchValues is a smooth noise family: pattern-identical neighboring
// TPMs, so the batch path exercises value refresh and warm starts.
func batchValues() []float64 { return []float64{0.050, 0.052, 0.054} }

// TestSweepBatchWarmStartsAndCaches checks the continuation chain: every
// point solves, points after the first reuse the symbolic setup and warm
// start, each point lands in the cache under the explicit analyze key (a
// later "backend":"explicit" /v1/analyze of the same spec is a
// byte-identical hit), and repeating the batch is answered from cache
// without solving.
func TestSweepBatchWarmStartsAndCaches(t *testing.T) {
	reg := obs.NewRegistry()
	eng := NewEngine(EngineConfig{Registry: reg})
	spec := testSpec(t)

	body, err := eng.SweepBatch(context.Background(), spec, "stdnw", batchValues())
	if err != nil {
		t.Fatal(err)
	}
	var sweep SweepBody
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if !sweep.Batch {
		t.Error("batch response not flagged")
	}
	if len(sweep.Points) != len(batchValues()) {
		t.Fatalf("points = %d, want %d", len(sweep.Points), len(batchValues()))
	}
	for i, p := range sweep.Points {
		if p.Error != "" {
			t.Fatalf("point %d failed: %s", i, p.Error)
		}
		if len(p.Result) == 0 {
			t.Fatalf("point %d has no result", i)
		}
		if p.Cycles <= 0 {
			t.Errorf("point %d reports no cycles", i)
		}
		if wantWarm := i > 0; p.WarmStarted != wantWarm || p.ReusedSetup != wantWarm {
			t.Errorf("point %d: warm=%v reused=%v, want %v", i, p.WarmStarted, p.ReusedSetup, wantWarm)
		}
		if i > 0 && p.Cycles >= sweep.Points[0].Cycles {
			t.Errorf("warm point %d took %d cycles, cold point took %d",
				i, p.Cycles, sweep.Points[0].Cycles)
		}
		var ab AnalyzeBody
		if err := json.Unmarshal(p.Result, &ab); err != nil {
			t.Fatal(err)
		}
		if !ab.Converged || ab.Residual > 1e-12 {
			t.Errorf("point %d: converged=%v residual=%g", i, ab.Converged, ab.Residual)
		}
	}

	// The batch populated the explicit analyze cache: a direct explicit
	// Analyze of a mid point must hit and return the identical bytes.
	pSpec, err := applySweepParam(spec, "stdnw", batchValues()[1])
	if err != nil {
		t.Fatal(err)
	}
	got, cached, err := eng.AnalyzeBackend(context.Background(), pSpec, backendExplicit)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("analyze after batch missed the cache")
	}
	if !bytes.Equal(got, sweep.Points[1].Result) {
		t.Error("analyze body differs from the batch point body")
	}

	// Repeating the batch must be pure cache.
	solvesBefore := reg.Snapshot().Counters["serve.solves"]
	again, err := eng.SweepBatch(context.Background(), spec, "stdnw", batchValues())
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["serve.solves"]; got != solvesBefore {
		t.Errorf("repeat batch ran %d extra solves", got-solvesBefore)
	}
	var sweep2 SweepBody
	if err := json.Unmarshal(again, &sweep2); err != nil {
		t.Fatal(err)
	}
	for i := range sweep2.Points {
		if !sweep2.Points[i].Cached {
			t.Errorf("repeat point %d not from cache", i)
		}
	}
}

// TestSweepBatchMatchesFanOut checks batch and fan-out sweeps agree on
// the physics: same BER per point to solver accuracy.
func TestSweepBatchMatchesFanOut(t *testing.T) {
	spec := testSpec(t)
	batchBody, err := NewEngine(EngineConfig{}).SweepBatch(context.Background(), spec, "stdnw", batchValues())
	if err != nil {
		t.Fatal(err)
	}
	fanBody, err := NewEngine(EngineConfig{}).Sweep(context.Background(), spec, "stdnw", batchValues())
	if err != nil {
		t.Fatal(err)
	}
	var batch, fan SweepBody
	if err := json.Unmarshal(batchBody, &batch); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fanBody, &fan); err != nil {
		t.Fatal(err)
	}
	for i := range batch.Points {
		var b, f AnalyzeBody
		if err := json.Unmarshal(batch.Points[i].Result, &b); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(fan.Points[i].Result, &f); err != nil {
			t.Fatal(err)
		}
		diff := b.BER - f.BER
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(f.BER+1e-300) {
			t.Errorf("point %d: batch BER %g vs fan-out %g", i, b.BER, f.BER)
		}
	}
}

// TestSweepBatchPerPointErrors checks a bad point fails in place without
// sinking the chain, and request-level validation still rejects early.
func TestSweepBatchPerPointErrors(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	body, err := eng.SweepBatch(context.Background(), testSpec(t), "counter", []float64{2, 2.5, 3})
	if err != nil {
		t.Fatal(err)
	}
	var sweep SweepBody
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Points[0].Error != "" || sweep.Points[2].Error != "" {
		t.Errorf("valid points failed: %+v", sweep.Points)
	}
	if !strings.Contains(sweep.Points[1].Error, "positive integer") {
		t.Errorf("bad point error = %q", sweep.Points[1].Error)
	}
	if _, err := eng.SweepBatch(context.Background(), testSpec(t), "bogus", []float64{1}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown param: %v", err)
	}
	if _, err := eng.SweepBatch(context.Background(), testSpec(t), "stdnw", nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty family: %v", err)
	}
}

// TestServerSweepBatchEndpoint drives /v1/sweep with batch: true through
// HTTP and checks the response shape plus the X-Solve-Cost-Warmstart
// header (the last solved point of a smooth family is warm-started).
func TestServerSweepBatchEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", sweepRequest{
		Spec: testSpec(t), Param: "stdnw", Values: batchValues(), Batch: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sweep SweepBody
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if !sweep.Batch || len(sweep.Points) != len(batchValues()) {
		t.Fatalf("sweep = %+v", sweep)
	}
	if !sweep.Points[len(sweep.Points)-1].WarmStarted {
		t.Error("last point not warm-started")
	}
	if got := resp.Header.Get("X-Solve-Cost-Warmstart"); got != "1" {
		t.Errorf("X-Solve-Cost-Warmstart = %q, want 1", got)
	}
}
