package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// shot is one open-loop request. Times are offsets from the phase start.
type shot struct {
	Due    time.Duration // when the schedule said to send it
	Sent   time.Duration // when the generator handed it to the client
	Done   time.Duration // when its response was read
	Status int
	Body   []byte
	Err    error
}

// latency is the request's time from when it was due: a stall that delays
// later sends is charged to those requests too.
func (s shot) latency() time.Duration { return s.Done - s.Due }

// lag is how late the generator itself ran.
func (s shot) lag() time.Duration { return s.Sent - s.Due }

// ok reports a served request; anything else misses every latency limit.
func (s shot) ok() bool { return s.Err == nil && s.Status == 200 }

// openLoop sends n requests at a fixed rate, each on its own goroutine, and
// returns every shot once all have completed, plus the backlog: how many
// were still outstanding when the last one was due. send must be safe for
// concurrent use; how many requests are on the wire at once is its
// business (the HTTP client's connection limit).
func openLoop(n int, rate float64, send func(i int) (status int, body []byte, err error)) ([]shot, int) {
	shots := make([]shot, n)
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	t0 := time.Now()
	for i := range shots {
		due := time.Duration(i) * interval
		if d := due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		shots[i].Due, shots[i].Sent = due, time.Since(t0)
		outstanding.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := send(i)
			shots[i].Done = time.Since(t0)
			shots[i].Status, shots[i].Body, shots[i].Err = status, body, err
			outstanding.Add(-1)
		}(i)
	}
	backlog := int(outstanding.Load())
	wg.Wait()
	return shots, backlog
}

// rung is one step of the rate ladder.
type rung struct {
	Rate    float64 `json:"rate"`
	Sent    int     `json:"sent"`
	Misses  int     `json:"misses"`
	P99MS   float64 `json:"p99_ms"`
	LagP99  float64 `json:"lag_p99_ms"`
	Backlog int     `json:"backlog"`
	Pass    bool    `json:"pass"`
}

// rateRule is the ladder's pass criterion.
type rateRule struct {
	LimitMS    float64 // p99 latency limit, from the due time; misses count as infinite
	LagLimitMS float64 // sends must go out within this of their due time (p99)
}

// judge summarizes a rung's shots. A rung passes when its p99 latency
// (with every shed or failed request as a miss) is within the limit, the
// generator kept its schedule, and the backlog at the last send is no more
// than the requests the limit allows in flight: a growing backlog means
// the daemon is falling behind.
func (r rateRule) judge(rate float64, shots []shot, backlog int, wrong func(i int) bool) rung {
	g := rung{Rate: rate, Sent: len(shots), Backlog: backlog}
	lat := make([]float64, len(shots))
	lag := make([]float64, len(shots))
	for i, s := range shots {
		lag[i] = ms(s.lag())
		if !s.ok() || (wrong != nil && wrong(i)) {
			g.Misses++
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = ms(s.latency())
	}
	g.P99MS = percentile(lat, 99)
	g.LagP99 = percentile(lag, 99)
	g.Pass = g.P99MS <= r.LimitMS && g.LagP99 <= r.LagLimitMS && backlog <= r.maxBacklog(rate)
	return g
}

func (r rateRule) maxBacklog(rate float64) int {
	return int(math.Ceil(rate*r.LimitMS/1000)) + 2
}

// maxRate is the highest rate among passing rungs (0 if none passed).
func maxRate(rungs []rung) float64 {
	best := 0.0
	for _, g := range rungs {
		if g.Pass && g.Rate > best {
			best = g.Rate
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
