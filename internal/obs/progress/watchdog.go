package progress

import (
	"fmt"
	"time"

	"cdrstoch/internal/obs"
)

// Start runs the watchdog loop: every Interval it classifies each
// in-flight solve and emits typed events on transitions. Safe on a nil
// tracker; call Stop during shutdown.
func (t *Tracker) Start() {
	if t == nil {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		ticker := time.NewTicker(t.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-ticker.C:
				t.check(time.Now())
			}
		}
	}()
}

// Stop terminates the watchdog loop. Idempotent; safe on a nil tracker.
func (t *Tracker) Stop() {
	if t == nil {
		return
	}
	t.stopOnce.Do(func() { close(t.stop) })
	t.wg.Wait()
}

// check classifies every in-flight solve once. Factored out of the loop
// so tests can drive the watchdog deterministically.
func (t *Tracker) check(now time.Time) {
	t.reg.Counter("watchdog.checks_total").Inc()
	for _, s := range t.states() {
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			continue
		}
		// Divergence bookkeeping: a residual strictly above the previous
		// check's grows the streak; strictly below resets it. Equality —
		// typically "no new iteration since last check" — is the stall
		// detector's business, not evidence either way here.
		if s.iter > 0 && s.residual > 0 {
			if s.haveCheck {
				switch {
				case s.residual > s.lastCheck:
					s.grow++
				case s.residual < s.lastCheck:
					s.grow = 0
				}
			}
			s.lastCheck, s.haveCheck = s.residual, true
		}
		state, reason := StateProgressing, ""
		switch {
		case s.grow >= t.cfg.DivergeChecks:
			state = StateDiverging
			reason = fmt.Sprintf("residual grew across %d consecutive checks", s.grow)
		case now.Sub(s.lastEvent) > t.cfg.StallWindow:
			state = StateStalled
			reason = fmt.Sprintf("no heartbeat for %v (window %v)",
				now.Sub(s.lastEvent).Round(time.Millisecond), t.cfg.StallWindow)
		case s.haveCheck && now.Sub(s.lastImprove) > t.cfg.StallWindow:
			state = StateStalled
			reason = fmt.Sprintf("no residual improvement for %v (window %v)",
				now.Sub(s.lastImprove).Round(time.Millisecond), t.cfg.StallWindow)
		}
		prev := s.state
		s.state = state
		trace, parent := s.trace, s.parent
		iter, residual := s.iter, s.residual
		s.mu.Unlock()

		if state != prev {
			name := state
			if state == StateProgressing {
				name = "recovered"
				reason = "events and residual decay resumed"
			}
			switch state {
			case StateStalled:
				t.reg.Counter("progress.solves_stalled_total").Inc()
			case StateDiverging:
				t.reg.Counter("watchdog.divergences_total").Inc()
			case StateProgressing:
				t.reg.Counter("watchdog.recoveries_total").Inc()
			}
			t.emitWatchdog(name, reason, trace, parent, iter, residual)
		}
	}
}

// emitWatchdog fans one typed watchdog event out to the configured Out
// tracer (the server's flight recorder) and any per-trace subscribers.
func (t *Tracker) emitWatchdog(name, reason, trace, parent string, iter int, residual float64) {
	e := obs.Event{
		T: time.Now().UnixNano(), Kind: "watchdog", Name: name,
		Iter: iter, Residual: residual,
		Trace: trace, Parent: parent, Reason: reason,
	}
	if t.cfg.Out != nil {
		t.cfg.Out.Emit(e)
	}
	t.publish(trace, e)
}
