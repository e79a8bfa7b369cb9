package main

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime drives a server that handles one request at
// a time, slower than the send rate. The generator must keep sending on
// schedule (small lag) while latency, measured from the due time, grows
// with the queue a closed loop would never build.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var mu sync.Mutex
	const service = 10 * time.Millisecond
	shots, backlog := openLoop(20, 200, func(int) (int, []byte, error) {
		mu.Lock()
		defer mu.Unlock()
		time.Sleep(service)
		return 200, nil, nil
	})
	for i, s := range shots {
		if s.Due != time.Duration(i)*5*time.Millisecond {
			t.Fatalf("shot %d due at %v", i, s.Due)
		}
		if s.lag() < 0 || s.lag() > 20*time.Millisecond {
			t.Errorf("shot %d: generator lag %v", i, s.lag())
		}
		if s.latency() != s.Done-s.Due || s.latency() < service {
			t.Errorf("shot %d: latency %v", i, s.latency())
		}
	}
	// Twenty requests need 200 ms of service but are all due within 95 ms,
	// so the last one waits for the nineteen before it.
	if last := shots[len(shots)-1]; last.latency() < 19*service-95*time.Millisecond {
		t.Errorf("last request latency %v: the queue was not charged to it", last.latency())
	}
	if backlog < 5 {
		t.Errorf("backlog %d at the last send, want the queue to show", backlog)
	}
}

func TestShotAccounting(t *testing.T) {
	s := shot{Due: 10 * time.Millisecond, Sent: 13 * time.Millisecond, Done: 40 * time.Millisecond, Status: 200}
	if s.lag() != 3*time.Millisecond || s.latency() != 30*time.Millisecond || !s.ok() {
		t.Errorf("lag %v latency %v ok %v", s.lag(), s.latency(), s.ok())
	}
	if (shot{Status: 429}).ok() || (shot{Status: 200, Err: errors.New("reset")}).ok() {
		t.Error("a shed or failed request counted as served")
	}
}

// rungShots builds n served shots of the given latency, one every ms.
func rungShots(n int, latency time.Duration) []shot {
	shots := make([]shot, n)
	for i := range shots {
		due := time.Duration(i) * time.Millisecond
		shots[i] = shot{Due: due, Sent: due, Done: due + latency, Status: 200}
	}
	return shots
}

func TestMaxRateRuleCountsShedsAndFailuresAsMisses(t *testing.T) {
	rule := rateRule{LimitMS: 250, LagLimitMS: 10}
	ok := rule.judge(100, rungShots(200, 20*time.Millisecond), 0, nil)
	if !ok.Pass || ok.Misses != 0 || ok.P99MS != 20 {
		t.Fatalf("clean rung: %+v", ok)
	}

	shed := rungShots(200, 20*time.Millisecond)
	for i := 0; i < 3; i++ { // 1.5 % shed: p99 lands on a miss
		shed[i*50].Status = 429
	}
	if g := rule.judge(200, shed, 0, nil); g.Pass || g.Misses != 3 || !math.IsInf(g.P99MS, 1) {
		t.Errorf("sheds must count as misses: %+v", g)
	}

	failed := rungShots(200, 20*time.Millisecond)
	failed[7].Err = errors.New("connection reset")
	failed[9].Status = 500
	failed[11].Status = 0
	if g := rule.judge(300, failed, 0, nil); g.Pass || g.Misses != 3 {
		t.Errorf("failures must count as misses: %+v", g)
	}

	wrong := rule.judge(400, rungShots(200, 20*time.Millisecond), 0, func(i int) bool { return i%40 == 0 })
	if wrong.Pass || wrong.Misses != 5 {
		t.Errorf("wrong answers must count as misses: %+v", wrong)
	}

	one := rungShots(200, 20*time.Millisecond)
	one[0].Status = 429 // 0.5 % misses: p99 still within the limit
	if g := rule.judge(500, one, 0, nil); !g.Pass || g.Misses != 1 {
		t.Errorf("one miss in 200 should pass: %+v", g)
	}

	if g := rule.judge(600, rungShots(200, 300*time.Millisecond), 0, nil); g.Pass {
		t.Errorf("p99 over the limit passed: %+v", g)
	}
	lagged := rungShots(200, 20*time.Millisecond)
	for i := range lagged {
		lagged[i].Sent += 15 * time.Millisecond
	}
	if g := rule.judge(700, lagged, 0, nil); g.Pass || g.LagP99 != 15 {
		t.Errorf("a generator off schedule passed: %+v", g)
	}
	if g := rule.judge(100, rungShots(200, 20*time.Millisecond), rule.maxBacklog(100)+1, nil); g.Pass {
		t.Errorf("a growing backlog passed: %+v", g)
	}

	rungs := []rung{{Rate: 100, Pass: true}, {Rate: 200, Pass: false}, {Rate: 300, Pass: true}, {Rate: 400, Pass: false}}
	if r := maxRate(rungs); r != 300 {
		t.Errorf("max rate %v, want 300", r)
	}
	if r := maxRate(rungs[1:2]); r != 0 {
		t.Errorf("max rate with no passing rung %v, want 0", r)
	}
}
