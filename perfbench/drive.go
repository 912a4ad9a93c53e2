package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// opTimeout is the latency past which a completed operation counts as
// failed.
const opTimeout = 5 * time.Second

// phase accumulates one timed phase's outcomes.
type phase struct {
	query, update, late recorder
	remote              recorder // queries that reached the server: all but mobile-tour's local answers

	attempted, failed, shed atomic.Int64
	queries                 atomic.Int64 // completed user queries
	upB, downB              atomic.Int64 // SizeModel bytes of those queries
	inTime                  atomic.Int64 // operations completed before the deadline

	// core.Report totals (mobile-tour).
	local, saved, result, falseMiss, retries atomic.Int64

	// deadline (Unix ns, 0 for none): saturation completions after it do
	// not count. It may move earlier while workers run, hence atomic.
	deadline atomic.Int64
	began    time.Time     // when the first operation could start
	elapsed  time.Duration // how long the phase ran
}

// running reports whether the saturation deadline is still ahead.
func (ph *phase) running() bool { return time.Now().UnixNano() < ph.deadline.Load() }

// capacity is operations completed in time per second of the phase.
func (ph *phase) capacity() float64 { return float64(ph.inTime.Load()) / ph.elapsed.Seconds() }

// finish records one operation's outcome and returns its latency. Latency
// runs from the operation's scheduled time; an error or a timeout is a
// failure and is recorded at the timeout, so it misses any latency limit.
func (ph *phase) finish(update bool, due time.Time, err error) time.Duration {
	now := time.Now()
	lat := now.Sub(due)
	ph.attempted.Add(1)
	if err != nil || lat > opTimeout {
		ph.failed.Add(1)
		lat = max(lat, opTimeout)
	} else if d := ph.deadline.Load(); d == 0 || now.UnixNano() <= d {
		ph.inTime.Add(1)
	}
	if update {
		ph.update.add(lat)
	} else {
		ph.query.add(lat)
	}
	return lat
}

func (ph *phase) shedOne() {
	ph.attempted.Add(1)
	ph.failed.Add(1)
	ph.shed.Add(1)
}

// openLoop fires n arrivals over d from pacers that each sleep until their
// next arrival is due and call fire, which must not block; pacer lateness
// is recorded. Arrival times are uniform order statistics, which is a
// Poisson process conditioned on its count: the offered work is exact and
// the arrivals are as bursty as independent users make them.
func openLoop(seed int64, pacers, n int, d time.Duration, ph *phase, fire func(p, i int, due time.Time)) {
	start := time.Now()
	ph.began = start
	var wg sync.WaitGroup
	for p := 0; p < pacers; p++ {
		rng := rand.New(rand.NewSource(seedFor(seed, uint64(p), saltPacer)))
		offs := make([]time.Duration, (n-p+pacers-1)/pacers)
		for i := range offs {
			offs[i] = time.Duration(rng.Int63n(int64(d)))
		}
		slices.Sort(offs)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i, off := range offs {
				due := start.Add(off)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				ph.late.add(time.Since(due))
				fire(p, i, due)
			}
		}(p)
	}
	wg.Wait()
}

// closedLoop runs n workers back to back until d has elapsed and waits for
// them; operations that complete after the deadline do not count.
func closedLoop(n int, d time.Duration, ph *phase, work func(w int)) {
	ph.deadline.Store(time.Now().Add(d).UnixNano())
	runWorkers(n, func(w int) {
		for ph.running() {
			work(w)
		}
	})
}

// runWorkers runs body on n goroutines and waits for all of them.
func runWorkers(n int, body func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	wg.Wait()
}

// slot is a logical client of remote-read and write-mix: a client id plus
// the last epoch it saw. One operation holds a slot at a time, which keeps
// client ids unique among operations in flight.
type slot struct {
	id    wire.ClientID
	epoch uint64
}

func newSlots(base wire.ClientID, n int) chan *slot {
	ch := make(chan *slot, n) // capacity n: every slot fits back
	for i := 0; i < n; i++ {
		ch <- &slot{id: base + wire.ClientID(i)}
	}
	return ch
}

// answer is a kept query answer for the oracle.
type answer struct {
	q       query.Query
	results []rtree.ObjectID
	pairs   [][2]rtree.ObjectID
}

type answers struct {
	mu   sync.Mutex
	list []answer
}

func (a *answers) keep(q query.Query, results []rtree.ObjectID, pairs [][2]rtree.ObjectID) {
	a.mu.Lock()
	a.list = append(a.list, answer{q, results, pairs})
	a.mu.Unlock()
}

func (a *answers) verify(o *oracle) error {
	for _, x := range a.list {
		if err := o.check(x.q, x.results, x.pairs); err != nil {
			return err
		}
	}
	return nil
}

// runQuery sends one cold query for slot s and records it. With epochs set,
// the request quotes the slot's last epoch and the response's epoch is
// kept, so responses carry invalidation windows.
func runQuery(t wire.Transport, s *slot, q query.Query, epochs bool, due time.Time, ph *phase, keep *answers) {
	req := &wire.Request{Client: s.id, Q: q}
	if epochs {
		req.Epoch = s.epoch
	}
	resp, err := t.RoundTrip(req)
	if err == nil {
		ph.queries.Add(1)
		ph.upB.Add(int64(sizeModel.RequestBytes(req)))
		ph.downB.Add(int64(sizeModel.ResponseBytes(resp)))
		if epochs {
			s.epoch = resp.Epoch
		}
		if keep != nil {
			ids := make([]rtree.ObjectID, len(resp.Objects))
			for i, o := range resp.Objects {
				ids[i] = o.ID
			}
			keep.keep(q, ids, resp.Pairs)
		}
	}
	ph.remote.add(ph.finish(false, due, err))
}

// runUpdate sends one update batch and requires every operation applied.
func runUpdate(t wire.Transport, id wire.ClientID, ops []wire.UpdateOp, due time.Time, ph *phase) error {
	resp, err := t.RoundTrip(&wire.Request{Client: id, Updates: ops})
	if err == nil {
		err = checkApplied(resp, len(ops))
	}
	ph.finish(true, due, err)
	return err
}

var errNotApplied = errors.New("update batch not fully applied")

func checkApplied(resp *wire.Response, n int) error {
	if len(resp.UpdateResults) != n {
		return fmt.Errorf("%w: %d results for %d operations", errNotApplied, len(resp.UpdateResults), n)
	}
	for i, ok := range resp.UpdateResults {
		if !ok {
			return fmt.Errorf("%w: operation %d refused", errNotApplied, i)
		}
	}
	return nil
}
