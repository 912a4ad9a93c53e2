package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// runner executes one workload: set-up, the open-loop latency phase, the
// closed-loop saturation phase, and the correctness checks.
type runner struct {
	sp      spec
	seed    int64
	nproc   int
	seconds time.Duration
	base    string // directory for per-run files and traces
	dir     string // per-run directory for shard logs, under base
	builds  int

	objs    []repro.Object // the quantized dataset
	st      *stack
	tr      *tracer // nil in untraced runs
	pool    *movePool
	clients []*mclient
	keep    answers // answers the oracle checks at the end
}

// Client ids: mobile clients are 1..tourClients; the rest are disjoint
// ranges for probes, writers, saturation workers and pacer slots.
const (
	idProbe  = 500
	idWriter = 600
	idWorker = 1000
	idPacer  = 10000 // pacer p's slots start at idPacer + p*slotsPerPacer
)

// mclient is one mobile-tour client: a proactive cache on a shared
// connection, its tour, and the queue of its scheduled query times.
type mclient struct {
	id   wire.ClientID
	c    *repro.Client
	tour *tour
	due  chan time.Time
	kept []answer // touched only by the client's own goroutine
}

func (r *runner) latencyDur() time.Duration { return r.seconds * 6 / 10 }
func (r *runner) satDur() time.Duration     { return r.seconds - r.latencyDur() }

// setup builds the system under test from nothing: dataset, index, shards,
// listener, connections, and the workload's warm state. With a tracer the
// traced topology is built instead, after proving it equivalent to the
// facade.
func (r *runner) setup(tr *tracer) error {
	r.tr = tr
	r.objs = quantizeObjects(repro.GenerateNE(datasetSize, datasetSeed))
	r.keep = answers{}
	walDir := ""
	if r.sp.name == "write-mix" { // every shard logs to a WAL
		r.builds++
		walDir = filepath.Join(r.dir, fmt.Sprintf("wal-%d", r.builds))
	}
	var err error
	if tr == nil {
		r.st, err = newFacadeStack(r.objs, walDir)
	} else {
		r.st, err = r.equivalentTracedStack(walDir)
	}
	if err != nil {
		return err
	}
	if err := r.prepare(); err != nil {
		r.st.close()
		return err
	}
	return nil
}

// prepare serves the built stack and brings it to the workload's starting
// state: the write-mix pool inserted and the mix run warm, the mobile-tour
// caches warm.
func (r *runner) prepare() error {
	if err := r.st.serve(r.nproc, r.tr); err != nil {
		return err
	}
	switch r.sp.name {
	case "write-mix":
		if r.tr == nil {
			r.pool = newMovePool(r.seed, rtree.ObjectID(len(r.objs)+1))
			if err := insertPool(r.st.conns[0], r.pool); err != nil {
				return err
			}
		}
		// Each shard grows its rotation of snapshot buffers (tree clones)
		// and starts repacking its read image only when reads and writes
		// overlap. Run the mix at full load first, so that every run times
		// the grown state: without this, saturation capacity split into two
		// levels over ten seeds, by when the growth happened.
		ph := &phase{}
		r.closedBook(r.book(mixWarmup), mixWarmup, seedFor(r.seed, 2, saltOrder), ph)
		if n := ph.failed.Load(); n > 0 {
			return fmt.Errorf("warm-up: %d of %d operations failed", n, ph.attempted.Load())
		}
	case "mobile-tour":
		return r.warmup()
	}
	return nil
}

func insertPool(t wire.Transport, p *movePool) error {
	for _, b := range p.inserts() {
		resp, err := t.RoundTrip(&wire.Request{Client: idWriter, Updates: b})
		if err == nil {
			err = checkApplied(resp, len(b))
		}
		if err != nil {
			return fmt.Errorf("insert move pool: %w", err)
		}
	}
	return nil
}

// equivalentTracedStack builds the traced topology next to a facade one,
// requires both to answer a probe set with byte-identical encodings, and
// keeps the traced one.
func (r *runner) equivalentTracedStack(walDir string) (*stack, error) {
	facadeWAL := ""
	if walDir != "" {
		facadeWAL = walDir + "-facade"
	}
	facade, err := newFacadeStack(r.objs, facadeWAL)
	if err != nil {
		return nil, err
	}
	defer facade.close()
	traced, err := newTracedStack(r.objs, walDir, r.tr)
	if err != nil {
		return nil, err
	}
	if r.sp.name == "write-mix" {
		r.pool = newMovePool(r.seed, rtree.ObjectID(len(r.objs)+1))
		for _, st := range []*stack{facade, traced} {
			if err := insertPool(wire.TransportFunc(st.handler), r.pool); err != nil {
				traced.close()
				return nil, err
			}
		}
	}
	probes := equivalenceProbes(r.seed)
	if err := checkEquivalent(facade, traced, probes); err != nil {
		traced.close()
		return nil, fmt.Errorf("traced topology differs from repro.NewClusterServer: %w", err)
	}
	fmt.Printf("# traced topology equivalent: shard objects %v, %d probes byte-identical\n", traced.counts, len(probes))
	return traced, nil
}

// warmup creates the mobile clients and runs tourWarmup queries per client
// back to back, so caches fill before timing starts.
func (r *runner) warmup() error {
	var total int64
	for _, o := range r.objs {
		total += int64(o.Size)
	}
	r.clients = nil
	for i := 0; i < tourClients; i++ {
		t := r.st.conns[i%len(r.st.conns)]
		c, err := repro.NewClient(t, repro.ClientConfig{ID: uint32(i + 1), CacheBytes: int(total / 100)})
		if err != nil {
			return err
		}
		r.clients = append(r.clients, &mclient{id: wire.ClientID(i + 1), c: c, tour: newTour(seedFor(r.seed, uint64(i), saltTour))})
	}
	ph := &phase{}
	var wg sync.WaitGroup
	for _, m := range r.clients {
		wg.Add(1)
		go func(m *mclient) {
			defer wg.Done()
			for i := 0; i < tourWarmup; i++ {
				r.tourQuery(m, time.Now(), ph)
			}
		}(m)
	}
	wg.Wait()
	if n := ph.failed.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d of %d queries failed", n, ph.attempted.Load())
	}
	return nil
}

// tourQuery runs a mobile client's next query through Algorithm 1.
func (r *runner) tourQuery(m *mclient, due time.Time, ph *phase) {
	pos, q := m.tour.next()
	m.c.SetPosition(pos)
	var start int64
	if r.tr != nil {
		start = r.tr.now()
	}
	rep, err := m.c.Query(q)
	if r.tr != nil {
		r.tr.recordKind(layerCore, m.id, uint8(q.Kind), start)
	}
	if err == nil {
		ph.queries.Add(1)
		ph.upB.Add(int64(rep.UplinkBytes))
		ph.downB.Add(int64(rep.DownlinkBytes))
		if rep.LocalOnly {
			ph.local.Add(1)
		}
		ph.saved.Add(int64(rep.SavedBytes))
		ph.result.Add(int64(rep.ResultBytes))
		ph.falseMiss.Add(int64(rep.FalseMissBytes))
		ph.retries.Add(int64(rep.Retries))
		m.kept = append(m.kept, answer{q, rep.Results, rep.Pairs})
	}
	lat := ph.finish(false, due, err)
	if err != nil || !rep.LocalOnly {
		ph.remote.add(lat)
	}
}

// latencyPhase offers the workload's frozen rate open loop.
func (r *runner) latencyPhase() *phase {
	ph := &phase{}
	conns := r.st.conns
	pacers := len(conns)
	seed := seedFor(r.seed, 1, saltPacer)
	n := int(r.sp.rate * r.latencyDur().Seconds())
	var wg sync.WaitGroup
	if r.sp.name == "mobile-tour" {
		for _, m := range r.clients {
			m.due = make(chan time.Time, 1024) // a backlog this deep means collapse; beyond it arrivals are shed
			wg.Add(1)
			go func(m *mclient) {
				defer wg.Done()
				for due := range m.due {
					r.tourQuery(m, due, ph)
				}
			}(m)
		}
		// Each pacer owns every pacers-th client and gives each of its
		// arrivals to one of them at random, so every client sees its own
		// Poisson stream.
		picks := make([]*rand.Rand, pacers)
		for p := range picks {
			picks[p] = rand.New(rand.NewSource(seedFor(r.seed, uint64(p), saltPick)))
		}
		openLoop(seed, pacers, n, r.latencyDur(), ph, func(p, _ int, due time.Time) {
			m := r.clients[p+pacers*picks[p].Intn((len(r.clients)-p+pacers-1)/pacers)]
			select {
			case m.due <- due:
			default:
				ph.shedOne()
			}
		})
		for _, m := range r.clients {
			close(m.due)
		}
		wg.Wait()
		ph.elapsed = time.Since(ph.began)
		return ph
	}
	book := r.book(n)
	order := rand.New(rand.NewSource(seedFor(r.seed, 0, saltOrder))).Perm(n)
	slots := make([]chan *slot, pacers)
	moved := make([]int, pacers)
	for p := range slots {
		slots[p] = newSlots(wire.ClientID(idPacer+p*slotsPerPacer), slotsPerPacer)
	}
	openLoop(seed, pacers, n, r.latencyDur(), ph, func(p, i int, due time.Time) {
		op := book[order[p+pacers*i]]
		var sl *slot
		select {
		case sl = <-slots[p]:
		default:
			ph.shedOne()
			return
		}
		var g int
		if op.update {
			// Pacer p owns pool groups p, p+pacers, ...; a group whose last
			// batch is unacknowledged cannot move again yet.
			owned := (len(r.pool.groups) - p + pacers - 1) / pacers
			g = p + pacers*(moved[p]%owned)
			moved[p]++
			if !r.pool.groups[g].busy.CompareAndSwap(false, true) {
				slots[p] <- sl
				ph.shedOne()
				return
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runBookOp(conns[p], sl, op, g, i%8 == 0, due, ph)
			slots[p] <- sl
		}()
	})
	wg.Wait()
	ph.elapsed = time.Since(ph.began)
	return ph
}

// book returns the workload's fixed operations for a phase of n arrivals.
func (r *runner) book(n int) []bookOp {
	if r.sp.name == "write-mix" {
		return queryBook(n, 1024, func(c *cohort) bookOp {
			if c.rng.Intn(2) == 0 {
				return bookOp{update: true}
			}
			return bookOp{q: writeMixQuery(c)}
		})
	}
	return queryBook(n, 1024, func(c *cohort) bookOp { return bookOp{q: remoteReadQuery(c)} })
}

// runBookOp runs one remote-read or write-mix operation for slot sl: a
// query (kept for the oracle when keep is set, remote-read only), or the
// next move batch of pool group g, which the caller has marked busy.
func (r *runner) runBookOp(t wire.Transport, sl *slot, op bookOp, g int, keep bool, due time.Time, ph *phase) {
	switch {
	case op.update:
		ops := r.pool.moves(g)
		if runUpdate(t, sl.id, ops, due, ph) == nil {
			r.pool.commit(g, ops)
		}
		r.pool.groups[g].busy.Store(false)
	case r.sp.name == "write-mix":
		// Reads quote the slot's last epoch, so responses carry
		// invalidation windows.
		runQuery(t, sl, op.q, true, due, ph, nil)
	default:
		var k *answers
		if keep {
			k = &r.keep
		}
		runQuery(t, sl, op.q, false, due, ph, k)
	}
}

// saturationPhase measures capacity. mobile-tour runs every client back to
// back for the phase; remote-read and write-mix run the book satPasses
// times, shuffled, with a fixed number of operations in flight, and
// capacity is that fixed work over the time it took.
func (r *runner) saturationPhase() *phase {
	ph := &phase{}
	if r.sp.name == "mobile-tour" {
		closedLoop(len(r.clients), r.satDur(), ph, func(w int) {
			r.tourQuery(r.clients[w], time.Now(), ph)
		})
		ph.elapsed = r.satDur()
		return ph
	}
	book := r.book(int(r.sp.rate * r.latencyDur().Seconds()))
	r.closedBook(book, len(book)*satPasses, seedFor(r.seed, 1, saltOrder), ph)
	return ph
}

// closedBook runs total operations drawn from book in shuffled order with
// satWindow of them in flight.
func (r *runner) closedBook(book []bookOp, total int, seed int64, ph *phase) {
	order := rand.New(rand.NewSource(seed)).Perm(total)
	var next, moved atomic.Int64
	start := time.Now()
	// A program slower than the phase's budget by this much is cut off.
	ph.deadline.Store(start.Add(20 * r.satDur()).UnixNano())
	// The run ends when the first worker finds the operations exhausted:
	// from then on fewer than satWindow operations are in flight, and the
	// operations still running finish after the deadline, uncounted.
	var once sync.Once
	end := func() {
		once.Do(func() {
			ph.elapsed = time.Since(start)
			ph.deadline.Store(start.Add(ph.elapsed).UnixNano())
		})
	}
	runWorkers(satWindow, func(w int) {
		sl := &slot{id: wire.ClientID(idWorker + w)}
		t := r.st.conns[w%len(r.st.conns)]
		for ph.running() {
			i := int(next.Add(1) - 1)
			if i >= len(order) {
				end()
				return
			}
			op := book[order[i]%len(book)]
			g := 0
			if op.update {
				g = int(moved.Add(1)-1) % len(r.pool.groups)
				for !r.pool.groups[g].busy.CompareAndSwap(false, true) {
					time.Sleep(100 * time.Microsecond) // its previous batch is still in flight
				}
			}
			r.runBookOp(t, sl, op, g, i%32 == 0, time.Now(), ph)
		}
		end()
	})
}
