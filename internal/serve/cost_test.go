package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
)

// postJSONTraced posts v with an explicit X-Trace-Id.
func postJSONTraced(t *testing.T, url, trace string, v any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServerCostHeaders pins the acceptance criterion: every sync miss
// carries the full X-Solve-Cost-* header set; hits carry only the cache
// disposition (their solve was attributed when it ran).
func TestServerCostHeaders(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	req := solveRequest{Spec: testSpec(t)}

	resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Solve-Cost-Cache"); got != "miss" {
		t.Fatalf("X-Solve-Cost-Cache = %q, want miss", got)
	}
	for _, h := range []string{"X-Solve-Cost-Wall-Ms", "X-Solve-Cost-Cpu-Ms",
		"X-Solve-Cost-Cycles", "X-Solve-Cost-Spmvs", "X-Solve-Cost-States"} {
		if resp.Header.Get(h) == "" {
			t.Errorf("miss response lacks %s", h)
		}
	}
	if states, _ := strconv.Atoi(resp.Header.Get("X-Solve-Cost-States")); states <= 0 {
		t.Errorf("X-Solve-Cost-States = %q, want > 0", resp.Header.Get("X-Solve-Cost-States"))
	}
	if wall, _ := strconv.ParseFloat(resp.Header.Get("X-Solve-Cost-Wall-Ms"), 64); wall <= 0 {
		t.Errorf("X-Solve-Cost-Wall-Ms = %q, want > 0", resp.Header.Get("X-Solve-Cost-Wall-Ms"))
	}

	resp, _ = postJSON(t, ts.URL+"/v1/analyze", req)
	if got := resp.Header.Get("X-Solve-Cost-Cache"); got != "hit" {
		t.Errorf("hit X-Solve-Cost-Cache = %q", got)
	}
	if resp.Header.Get("X-Solve-Cost-Cycles") != "" {
		t.Error("cache hit carries per-solve cost headers")
	}
}

// TestServerDebugSolvesReplay pins the /debug/solves contract: the
// report of a finished solve replays by trace ID, filters compose, and
// Accept: text/plain renders the human table.
func TestServerDebugSolvesReplay(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	const trace = "cost-trace-000001"
	resp, body := postJSONTraced(t, ts.URL+"/v1/analyze", trace, solveRequest{Spec: testSpec(t)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}

	_, body = mustGet(t, ts.URL+"/debug/solves?trace="+trace)
	var solves solvesBody
	if err := json.Unmarshal(body, &solves); err != nil {
		t.Fatal(err)
	}
	if solves.Count != 1 || len(solves.Reports) != 1 {
		t.Fatalf("solves = %+v, want exactly the traced report", solves)
	}
	rep := solves.Reports[0]
	if rep.Trace != trace {
		t.Errorf("report trace = %q", rep.Trace)
	}
	if rep.Endpoint != "analyze" || rep.SpecKey == "" {
		t.Errorf("report identity = %q/%q", rep.Endpoint, rep.SpecKey)
	}
	if rep.States <= 0 || rep.NNZ <= 0 || rep.MatrixBytes <= 0 {
		t.Errorf("matrix dims missing: states=%d nnz=%d bytes=%d", rep.States, rep.NNZ, rep.MatrixBytes)
	}
	if rep.Cycles <= 0 || rep.Pool.SpMVs <= 0 {
		t.Errorf("solver work missing: cycles=%d spmvs=%d", rep.Cycles, rep.Pool.SpMVs)
	}
	if rep.FinalResidual <= 0 || len(rep.ResidualTail) == 0 {
		t.Errorf("convergence audit missing: final=%g tail=%v", rep.FinalResidual, rep.ResidualTail)
	}
	if len(rep.Levels) == 0 {
		t.Error("per-level multigrid attribution missing")
	}

	// Unmatched filters return empty, not an error.
	_, body = mustGet(t, ts.URL+"/debug/solves?trace=no-such-trace")
	if err := json.Unmarshal(body, &solves); err != nil {
		t.Fatal(err)
	}
	if solves.Count != 0 || solves.Reports == nil {
		t.Errorf("unmatched filter: %+v, want empty non-nil reports", solves)
	}

	// min_ms high enough excludes everything.
	_, body = mustGet(t, ts.URL+"/debug/solves?min_ms=3600000")
	if err := json.Unmarshal(body, &solves); err != nil {
		t.Fatal(err)
	}
	if solves.Count != 0 {
		t.Errorf("min_ms filter matched %d", solves.Count)
	}

	// Accept: text/plain renders the cost table.
	resp, body = getWithHeaders(t, ts.URL+"/debug/solves", map[string]string{"Accept": "text/plain"})
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("table Content-Type = %q", ct)
	}
	text := string(body)
	if !strings.Contains(text, "TRACE") || !strings.Contains(text, "analyze") {
		t.Errorf("table rendering:\n%s", text)
	}
	if json.Valid(body) {
		t.Error("text table should not be JSON")
	}
}

// TestServerDebugLimits pins satellite (f): /debug/flight and
// /debug/solves respect ?limit= and clamp instead of erroring.
func TestServerDebugLimits(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	// Two distinct solves produce two reports and plenty of flight events.
	for _, spec := range testSpecVariants(t)[:2] {
		postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: spec})
	}

	_, body := mustGet(t, ts.URL+"/debug/solves?limit=1")
	var solves solvesBody
	if err := json.Unmarshal(body, &solves); err != nil {
		t.Fatal(err)
	}
	if solves.Count != 1 {
		t.Errorf("limit=1 returned %d reports", solves.Count)
	}

	var flight flightBody
	_, body = mustGet(t, ts.URL+"/debug/flight?limit=3")
	if err := json.Unmarshal(body, &flight); err != nil {
		t.Fatal(err)
	}
	if flight.Retained > 3 || len(flight.Events) > 3 {
		t.Errorf("flight limit=3 retained %d/%d", flight.Retained, len(flight.Events))
	}

	// Unparseable and oversized limits degrade to default/cap, never 4xx/5xx.
	for _, q := range []string{"?limit=banana", "?limit=-4", "?limit=999999"} {
		resp, _ := mustGet(t, ts.URL+"/debug/solves"+q)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("limit %q: status %d", q, resp.StatusCode)
		}
		resp, _ = mustGet(t, ts.URL+"/debug/flight"+q)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("flight limit %q: status %d", q, resp.StatusCode)
		}
	}
}

// TestServerHealthUptime pins satellite (b): /healthz reports process
// start time and uptime.
func TestServerHealthUptime(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	_, body := mustGet(t, ts.URL+"/healthz")
	var health healthBody
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	start, err := time.Parse(time.RFC3339, health.StartTime)
	if err != nil {
		t.Fatalf("start_time %q: %v", health.StartTime, err)
	}
	if time.Since(start) < 0 || time.Since(start) > time.Hour {
		t.Errorf("start_time %v implausible", start)
	}
	if health.UptimeSecs <= 0 {
		t.Errorf("uptime_seconds = %g", health.UptimeSecs)
	}

	// The same numbers appear as gauges in the JSON metrics.
	_, body = mustGet(t, ts.URL+"/metrics")
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gauges["process.uptime_seconds"] <= 0 {
		t.Errorf("process.uptime_seconds gauge = %g", snap.Gauges["process.uptime_seconds"])
	}
	if got := snap.Gauges["process.start_time_unix_seconds"]; int64(got) != start.Unix() {
		t.Errorf("start gauge = %g, healthz start = %d", got, start.Unix())
	}
}

// TestServerCostHistogramsExported pins the acceptance criterion that
// per-endpoint cost histograms reach both the JSON snapshot and the
// Prometheus exposition.
func TestServerCostHistogramsExported(t *testing.T) {
	_, ts, reg := newTestServer(t, ServerConfig{})
	postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: testSpec(t)})

	snap := reg.Snapshot()
	for _, name := range []string{"cost.analyze.cpu_seconds", "cost.analyze.wall_seconds",
		"cost.analyze.spmv_total", "cost.analyze.cycles"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != 1 {
			t.Errorf("histogram %s = %+v, want one observation", name, h)
		}
	}
	if snap.Counters["cost.reports"] != 1 {
		t.Errorf("cost.reports = %d", snap.Counters["cost.reports"])
	}

	resp, body := getWithHeaders(t, ts.URL+"/metrics", map[string]string{"Accept": "text/plain; version=0.0.4"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE cost_analyze_cpu_seconds histogram",
		"cost_analyze_cpu_seconds_count 1",
		"cost_analyze_spmv_total_count 1",
		"cost_reports 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestServerMetricsSurviveLint is the live half of the metrics-lint
// satellite: after exercising every endpoint, every registered metric
// name must survive Prometheus sanitization unchanged and stay
// collision-free.
func TestServerMetricsSurviveLint(t *testing.T) {
	_, ts, reg := newTestServer(t, ServerConfig{})
	postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: testSpec(t)})
	postJSON(t, ts.URL+"/v1/slip", solveRequest{Spec: testSpec(t)})
	postJSON(t, ts.URL+"/v1/sweep", sweepRequest{Spec: testSpec(t), Param: "counter", Values: []float64{1, 2}})
	pollJob(t, ts.URL, submitAsync(t, ts.URL, solveRequest{Spec: testSpecVariants(t)[1]}))
	mustGet(t, ts.URL+"/healthz")
	mustGet(t, ts.URL+"/metrics")

	// Include the runtime gauges in the checked surface.
	cost.RegisterRuntimeGauges(reg)

	if probs := reg.Snapshot().LintMetrics(); len(probs) != 0 {
		t.Errorf("metrics lint failed:\n%s", strings.Join(probs, "\n"))
	}
}

// TestServeMixReadSurface pins what the benchmark's serve-mix workload
// reads from the service: the JSON /metrics names serve.build_ms and
// serve.solve_ms (histograms) and serve.singleflight_shared (counter),
// and the X-Solve-Cost-Wall-Ms, -Cycles and -States headers of a miss.
// Deleting or renaming any of them would silently empty that workload's
// per-layer numbers.
func TestServeMixReadSurface(t *testing.T) {
	// Every multigrid cycle is slowed so the burst's leader is still in
	// flight when the second request joins it.
	_, url, _ := newChaosServer(t, "multigrid.cycle:delay:ms=20", ServerConfig{})

	resp, body := postJSON(t, url+"/v1/analyze", solveRequest{Spec: testSpec(t)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("miss: %d %s", resp.StatusCode, body)
	}
	for _, h := range []string{"X-Solve-Cost-Wall-Ms", "X-Solve-Cost-Cycles", "X-Solve-Cost-States"} {
		if v, err := strconv.ParseFloat(resp.Header.Get(h), 64); err != nil || v <= 0 {
			t.Errorf("miss header %s = %q, want a positive number", h, resp.Header.Get(h))
		}
	}

	burst := solveRequest{Spec: testSpecVariants(t)[2]} // a spec not yet solved
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, body := postJSON(t, url+"/v1/analyze", burst); resp.StatusCode != http.StatusOK {
				t.Errorf("burst: %d %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()

	_, body = mustGet(t, url+"/metrics")
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve.build_ms", "serve.solve_ms"} {
		if h := snap.Histograms[name]; h.Count != 2 || h.Sum <= 0 {
			t.Errorf("histogram %s = %+v, want two observed solves", name, h)
		}
	}
	if got := snap.Counters["serve.singleflight_shared"]; got != 1 {
		t.Errorf("serve.singleflight_shared = %d, want 1", got)
	}
}

// TestServerJobViewCarriesCost: polling a finished async job returns its
// SolveReport inline, matched by the submitter's trace.
func TestServerJobViewCarriesCost(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	id := submitAsync(t, ts.URL, solveRequest{Spec: testSpec(t)})
	v := pollJob(t, ts.URL, id)
	if v.Status != StatusDone {
		t.Fatalf("job = %+v", v)
	}
	if v.Cost == nil {
		t.Fatal("finished JobView carries no cost report")
	}
	if v.Cost.Trace != v.TraceID {
		t.Errorf("cost trace %q != job trace %q", v.Cost.Trace, v.TraceID)
	}
	if v.Cost.Endpoint != "analyze" || v.Cost.States <= 0 {
		t.Errorf("job cost report = %+v", v.Cost)
	}
}

// TestServerAsyncJobKeepsTrace pins that an async job runs under the
// submitter's trace ID: the job view, the SolveReport, /debug/solves and
// the job's flight tail all carry it.
func TestServerAsyncJobKeepsTrace(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{SyncTimeout: time.Minute})
	url := ts.URL

	const trace = "async-trace-00001"
	req := solveRequest{Spec: testSpec(t), Async: true}
	resp, body := postJSONTraced(t, url+"/v1/analyze", trace, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var accepted JobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.TraceID != trace {
		t.Fatalf("job adopted trace %q, want %q", accepted.TraceID, trace)
	}

	v := pollJob(t, url, accepted.ID)
	if v.Status != StatusDone {
		t.Fatalf("job = %+v, want done", v)
	}
	if v.TraceID != trace {
		t.Errorf("terminal view trace = %q", v.TraceID)
	}
	if v.Cost == nil {
		t.Fatal("job view carries no cost report")
	}
	if v.Cost.Trace != trace {
		t.Errorf("cost report trace = %q, want submitter's %q", v.Cost.Trace, trace)
	}

	// The report replays from /debug/solves under the same trace.
	_, body = mustGet(t, url+"/debug/solves?trace="+trace)
	var solves solvesBody
	if err := json.Unmarshal(body, &solves); err != nil {
		t.Fatal(err)
	}
	if solves.Count < 1 {
		t.Fatal("no report in ring for submitter trace")
	}

	// The flight tail for the job is stamped with the submitter's trace.
	_, body = mustGet(t, url+"/v1/jobs/"+accepted.ID+"/trace")
	var jt jobTraceBody
	if err := json.Unmarshal(body, &jt); err != nil {
		t.Fatal(err)
	}
	if jt.TraceID != trace || jt.Retained == 0 {
		t.Fatalf("job trace tail = %+v, want events under %q", jt, trace)
	}
	for _, ev := range jt.Events {
		if ev.Trace != trace {
			t.Errorf("flight event trace = %q, want %q", ev.Trace, trace)
		}
	}
}

// TestServerDropCountersExported pins that the finished tail's and the
// cost sink's drop counts surface as gauges.
func TestServerDropCountersExported(t *testing.T) {
	var sink strings.Builder
	s, ts, reg := newTestServer(t, ServerConfig{
		CostRingSize: 1,
		Engine:       EngineConfig{CostLog: obs.NewJSONL(&sink)},
	})
	for _, spec := range testSpecVariants(t)[:2] {
		postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: spec})
	}
	if s.progress.Dropped() < 1 {
		t.Fatalf("finished tail dropped = %d, want >= 1 with a one-row table", s.progress.Dropped())
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["cost.reports_dropped"]; got < 1 {
		t.Errorf("cost.reports_dropped gauge = %g", got)
	}
	if _, ok := snap.Gauges["cost.log_dropped"]; !ok {
		t.Error("cost.log_dropped gauge missing when a sink is configured")
	}
	if _, ok := snap.Gauges["obs.flight_dropped"]; !ok {
		t.Error("obs.flight_dropped gauge missing")
	}
	// The healthy sink received one JSONL line per solve.
	if n := strings.Count(sink.String(), "\n"); n < 2 {
		t.Errorf("JSONL sink lines = %d, want >= 2", n)
	}
}

// TestSlipRefinementRunsInSlot pins where /v1/slip's quasi-stationary
// refinement runs: inside the solve's slot and under its run handle, so
// its sweeps reach the job's trace as iter events stamped with the job's
// trace ID, and its sweeps and kernel work are charged to the job's cost
// report next to the multigrid cycles.
func TestSlipRefinementRunsInSlot(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	const trace = "slip-trace-000001"
	resp, body := postJSONTraced(t, ts.URL+"/v1/slip", trace, solveRequest{Spec: testSpec(t), Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async slip: %d %s", resp.StatusCode, body)
	}
	var job JobView
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if v := pollJob(t, ts.URL, job.ID); v.Status != StatusDone {
		t.Fatalf("slip job ended %s: %s", v.Status, v.Error)
	} else if v.Cost == nil || v.Cost.Cycles == 0 || v.Cost.Sweeps == 0 {
		t.Errorf("slip cost report lacks the solve or its refinement: %+v", v.Cost)
	}
	_, body = getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/trace")
	var jt jobTraceBody
	if err := json.Unmarshal(body, &jt); err != nil {
		t.Fatal(err)
	}
	sweeps := 0
	for _, e := range jt.Events {
		if e.Kind == "iter" && e.Name == "quasi-stationary" {
			if e.Trace != trace {
				t.Fatalf("refinement event stamped %q, want %q", e.Trace, trace)
			}
			sweeps++
		}
	}
	if sweeps == 0 {
		t.Fatalf("job trace carries no refinement iter events (%d events)", len(jt.Events))
	}
}
