package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"testing"

	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/experiments"
)

// TestAnalyzeKronBackendParity drives /v1/analyze end to end through
// both solve backends and pins the contract the default matrix-free path
// makes: numerically matching results, one cache entry per backend that
// the empty backend and "kron" share, and SpMV counts attributed to the
// request in the X-Solve-Cost-* headers.
func TestAnalyzeKronBackendParity(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	spec := testSpec(t)

	resp, body := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default solve: %d %s", resp.StatusCode, body)
	}
	var kron AnalyzeBody
	if err := json.Unmarshal(body, &kron); err != nil {
		t.Fatal(err)
	}
	if !kron.Converged {
		t.Fatal("default (matrix-free) solve did not converge")
	}
	// Cost attribution: the matrix-free solve is made of SpMVs and must
	// report them on the wire.
	if got := resp.Header.Get("X-Solve-Cost-Cache"); got != "miss" {
		t.Fatalf("X-Solve-Cost-Cache = %q, want miss", got)
	}
	spmvs, err := strconv.ParseInt(resp.Header.Get("X-Solve-Cost-Spmvs"), 10, 64)
	if err != nil || spmvs <= 0 {
		t.Fatalf("X-Solve-Cost-Spmvs = %q (err %v), want positive", resp.Header.Get("X-Solve-Cost-Spmvs"), err)
	}
	if got := resp.Header.Get("X-Solve-Cost-States"); got != strconv.Itoa(kron.States) {
		t.Fatalf("X-Solve-Cost-States = %q, want %d", got, kron.States)
	}

	eresp, ebody := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: spec, Backend: "explicit"})
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("explicit solve: %d %s", eresp.StatusCode, ebody)
	}
	// Separate cache entries: the explicit request must have solved, not
	// hit the default request's entry.
	if got := eresp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("explicit request X-Cache = %q, want miss", got)
	}
	var explicit AnalyzeBody
	if err := json.Unmarshal(ebody, &explicit); err != nil {
		t.Fatal(err)
	}
	if kron.States != explicit.States || kron.SpecKey != explicit.SpecKey {
		t.Fatalf("identity mismatch: explicit %+v vs default %+v", explicit, kron)
	}
	if d := kron.BER - explicit.BER; d > 1e-10 || d < -1e-10 {
		t.Fatalf("BER: explicit %g vs default %g", explicit.BER, kron.BER)
	}
	if d := kron.Slip.Flux - explicit.Slip.Flux; d > 1e-10 || d < -1e-10 {
		t.Fatalf("slip flux: explicit %g vs default %g", explicit.Slip.Flux, kron.Slip.Flux)
	}

	// "kron" names the default backend: a byte-identical hit on the
	// default request's entry.
	hresp, hbody := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: spec, Backend: "kron"})
	if got := hresp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("kron request after the default X-Cache = %q, want hit", got)
	}
	if string(hbody) != string(body) {
		t.Fatal("kron body differs from the default request's")
	}
}

// The backend field is validated, and /v1/slip refuses it outright (its
// quasi-stationary refinement needs the explicit matrix).
func TestBackendValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	spec := testSpec(t)

	resp, body := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: spec, Backend: "dense"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/slip", solveRequest{Spec: spec, Backend: "kron"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("slip with backend: %d %s", resp.StatusCode, body)
	}
	// "explicit" selects the assembled TPM wherever analyze accepts a
	// backend.
	resp, body = postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: spec, Backend: "explicit"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit backend: %d %s", resp.StatusCode, body)
	}
}

// smallestGrid returns the coarsest phase grid Spec.Validate accepts: four
// cells per UI in the wrap model, three points on ±PhaseMax in the
// saturating one.
func smallestGrid(t *testing.T, wrap bool, counterLen int) core.Spec {
	t.Helper()
	h := 0.25
	if !wrap {
		h = 0.4
	}
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: h, Mean: h / 8, Shape: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{
		GridStep:          h,
		PhaseMax:          0.5,
		CorrectionStep:    h,
		TransitionDensity: 0.5,
		MaxRunLength:      2,
		EyeJitter:         dist.NewGaussian(0, 0.1),
		Drift:             drift,
		CounterLen:        counterLen,
		Threshold:         0.5,
		WrapPhase:         wrap,
	}
}

// TestDefaultBackendMatchesExplicit holds the default (matrix-free)
// /v1/analyze to the explicit backend over the paper's presets, the
// default and a WrapPhase spec, specs whose level 0 has self links (a PD
// dead zone, no run-length cap) and the smallest valid grids: wherever
// the explicit solve converges, the default converges too, with BER and
// slip flux within 1e−9 relative.
func TestDefaultBackendMatchesExplicit(t *testing.T) {
	wrap := core.DefaultSpec()
	wrap.WrapPhase = true
	deadZone := experiments.Fig5Spec(8)
	deadZone.PDDeadZone = 0.02
	noRunCap := experiments.Fig5Spec(4)
	noRunCap.MaxRunLength = 0
	wrapBoth := wrap
	wrapBoth.MaxRunLength = 0
	wrapBoth.PDDeadZone = 0.05
	cases := map[string]core.Spec{
		"fig4-low":               experiments.Fig4Spec(false),
		"fig4-high":              experiments.Fig4Spec(true),
		"default":                core.DefaultSpec(),
		"default-wrap":           wrap,
		"fig5-c8-deadzone":       deadZone,
		"fig5-c4-no-run-cap":     noRunCap,
		"default-wrap-no-cap-dz": wrapBoth,
		"smallest-wrap-c1":       smallestGrid(t, true, 1),
		"smallest-wrap-c4":       smallestGrid(t, true, 4),
		"smallest-saturating-c1": smallestGrid(t, false, 1),
		"smallest-saturating-c4": smallestGrid(t, false, 4),
	}
	for _, counter := range []int{1, 2, 4, 8, 16} {
		cases[fmt.Sprintf("fig5-c%d", counter)] = experiments.Fig5Spec(counter)
	}
	_, ts, _ := newTestServer(t, ServerConfig{})
	relDiff := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		return math.Abs(a-b) / max(math.Abs(a), math.Abs(b))
	}
	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			var got [2]AnalyzeBody
			for i, backend := range []string{"explicit", ""} {
				resp, body := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: spec, Backend: backend})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("backend %q: %d %s", backend, resp.StatusCode, body)
				}
				if err := json.Unmarshal(body, &got[i]); err != nil {
					t.Fatal(err)
				}
				if !got[i].Converged {
					t.Fatalf("backend %q did not converge: %s", backend, body)
				}
			}
			explicit, def := got[0], got[1]
			if d := relDiff(def.BER, explicit.BER); d > 1e-9 {
				t.Errorf("BER: default %g vs explicit %g (relative %.2g)", def.BER, explicit.BER, d)
			}
			if d := relDiff(def.Slip.Flux, explicit.Slip.Flux); d > 1e-9 {
				t.Errorf("slip flux: default %g vs explicit %g (relative %.2g)", def.Slip.Flux, explicit.Slip.Flux, d)
			}
			t.Logf("%d states: cycles %d default, %d explicit; relative BER %.2g, slip flux %.2g",
				def.States, def.Cycles, explicit.Cycles,
				relDiff(def.BER, explicit.BER), relDiff(def.Slip.Flux, explicit.Slip.Flux))
		})
	}
}
