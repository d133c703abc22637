package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/obs"
)

// TestServerSmoke drives the real binary end to end: build, launch on a
// random port, solve the same spec twice (asserting the second response
// is byte-identical, served ≥10× faster, traced no solver iterations and
// incremented the cache-hit counter), then SIGTERM and assert a clean
// exit.
func TestServerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cdrserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	tracePath := filepath.Join(dir, "trace.jsonl")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-trace", tracePath)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	outBuf := &bytes.Buffer{}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(outBuf, line)
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never announced its address")
	}

	specJSON, err := json.Marshal(core.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	reqBody := []byte(fmt.Sprintf(`{"spec": %s}`, specJSON))

	post := func() ([]byte, time.Duration, string) {
		t.Helper()
		start := time.Now()
		resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return body, elapsed, resp.Header.Get("X-Cache")
	}

	iterEvents := func() int {
		t.Helper()
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		events, err := obs.ReadEvents(f)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range events {
			if e.Kind == "iter" {
				n++
			}
		}
		return n
	}

	first, coldLatency, cache1 := post()
	if cache1 != "miss" {
		t.Errorf("first POST X-Cache = %q, want miss", cache1)
	}
	itersAfterFirst := iterEvents()
	if itersAfterFirst == 0 {
		t.Error("cold solve traced no solver iterations")
	}

	second, warmLatency, cache2 := post()
	if cache2 != "hit" {
		t.Errorf("second POST X-Cache = %q, want hit", cache2)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached response not byte-identical:\n%s\nvs\n%s", first, second)
	}
	if got := iterEvents(); got != itersAfterFirst {
		t.Errorf("cache hit traced %d new solver iterations, want 0", got-itersAfterFirst)
	}
	if warmLatency*10 > coldLatency {
		t.Errorf("cache hit latency %v not ≥10× below cold solve %v", warmLatency, coldLatency)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(metricsBody, &snap); err != nil {
		t.Fatalf("metrics not a snapshot: %v\n%s", err, metricsBody)
	}
	if snap.Counters["serve.cache_hits"] != 1 {
		t.Errorf("cache_hits = %d, want 1", snap.Counters["serve.cache_hits"])
	}
	if snap.Counters["serve.solves"] != 1 {
		t.Errorf("solves = %d, want 1", snap.Counters["serve.solves"])
	}
	// The runtime gauges are read at scrape time, so the first scrape has them.
	if g := snap.Gauges["runtime.sched_goroutines_goroutines"]; g < 1 {
		t.Errorf("runtime.sched_goroutines_goroutines = %g on the first scrape", g)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Let the reader hit EOF before Wait closes the pipe, so no output
	// line is lost (and outBuf is no longer written concurrently).
	select {
	case <-readerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon stdout never closed after SIGTERM")
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Errorf("daemon exited uncleanly: %v\nstdout:\n%s", err, outBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if !strings.Contains(outBuf.String(), "draining") {
		t.Errorf("missing drain notice in stdout:\n%s", outBuf.String())
	}
}
